"""Relaxation mining from a KG via shared-instance overlap.

The XKG relaxations in the paper were mined with the TriniT scheme
(rewritings whose weights reflect how interchangeable two terms are).  We
reproduce the spirit with an instance-overlap miner: a constant ``c`` in a
pattern position can be relaxed to ``c'`` with weight proportional to how
many of ``c``'s instances are shared with ``c'`` — a directed Jaccard-style
containment.

For a type pattern ``⟨?x rdf:type singer⟩`` this yields exactly the
taxonomy-flavoured relaxations of Table 1 (``vocalist``, ``artist``, …)
when the KG contains co-typed entities.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.errors import RelaxationError
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, Variable
from repro.relax.rules import RelaxationRule, RuleSet


def _instance_sets(
    graph: KnowledgeGraph, predicate: str, by: str
) -> dict[str, set[str]]:
    """Map each constant to its instance set under *predicate*.

    ``by='object'`` maps object constants to their subject sets (types to
    entities); ``by='subject'`` is the mirror image.
    """
    if by not in ("object", "subject"):
        raise RelaxationError(f"by must be 'object' or 'subject', got {by!r}")
    sets: dict[str, set[str]] = defaultdict(set)
    for triple in graph.triples():
        if triple.predicate != predicate:
            continue
        if by == "object":
            sets[triple.object].add(triple.subject)
        else:
            sets[triple.subject].add(triple.object)
    return sets


def containment_weight(instances_a: set[str], instances_b: set[str]) -> float:
    """Directed containment ``|A ∩ B| / |A|`` — how much of A's meaning
    is preserved by relaxing to B.  Returns 0.0 when A is empty."""
    if not instances_a:
        return 0.0
    return len(instances_a & instances_b) / len(instances_a)


def mine_object_relaxations(
    graph: KnowledgeGraph,
    predicate: str,
    min_weight: float = 0.05,
    max_rules_per_constant: int = 20,
    constants: Iterable[str] | None = None,
    subject_var: str = "s",
) -> RuleSet:
    """Mine relaxations of the object constant under a fixed predicate.

    Emits ``(⟨?s p c⟩, ⟨?s p c'⟩, w)`` with
    ``w = |inst(c) ∩ inst(c')| / |inst(c)|``, for all ``c'`` with non-zero
    overlap, weights clipped to ``[min_weight, 1)`` and at most
    *max_rules_per_constant* best rules per constant.
    """
    if not 0.0 <= min_weight < 1.0:
        raise RelaxationError(f"min_weight must be in [0, 1), got {min_weight}")
    sets = _instance_sets(graph, predicate, by="object")
    targets = sorted(constants) if constants is not None else sorted(sets)
    variable = Variable(subject_var)
    rules = RuleSet()
    for constant in targets:
        instances = sets.get(constant, set())
        if not instances:
            continue
        scored: list[tuple[float, str]] = []
        for other, other_instances in sets.items():
            if other == constant:
                continue
            weight = containment_weight(instances, other_instances)
            if min_weight <= weight < 1.0:
                scored.append((weight, other))
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        for weight, other in scored[:max_rules_per_constant]:
            rules.add(
                RelaxationRule(
                    domain=TriplePattern(variable, predicate, constant),
                    range=TriplePattern(variable, predicate, other),
                    weight=weight,
                )
            )
    return rules
