"""Relaxed-query construction (Definition 8) and relaxation-space helpers.

Given a query ``Q`` and weighted relaxation rules ``r = (q, q', w)``, a
relaxed query replaces ``q`` by ``q'``; the scores of answers obtained
through the relaxation are multiplied by ``w``, compounding over multiple
relaxations.  This module builds single- and multi-step relaxed queries and
enumerates the cross-product space (the "48 unique queries" of the paper's
running example).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import RelaxationError
from repro.kg.pattern import TriplePattern
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RelaxationRule, RuleSet


@dataclass(frozen=True)
class RelaxedQuery:
    """A concrete relaxed variant of an original query.

    ``weight`` is the product of the applied rules' weights; answer scores
    computed against the variant are multiplied by it (Definition 8).
    ``applied`` records, per original pattern index, the rule used (or
    ``None`` when the original pattern is kept).

    The variant is exposed as :attr:`slot_patterns` — one pattern per
    original query *slot* — rather than a set-semantics query, because two
    different slots may relax to the same pattern (e.g. both ``singer``
    and ``guitarist`` relax to ``musician``).  Evaluation then still
    charges one score contribution per slot, which is exactly what the
    operator engines (one Incremental Merge per slot) do.
    """

    original: TriplePatternQuery
    weight: float
    applied: tuple[RelaxationRule | None, ...]

    @property
    def slot_patterns(self) -> tuple[TriplePattern, ...]:
        """The variant's pattern per original slot."""
        return tuple(
            rule.range if rule is not None else pattern
            for pattern, rule in zip(self.original.patterns, self.applied)
        )

    @property
    def query(self) -> TriplePatternQuery | None:
        """Set-semantics view, or ``None`` when slots collide."""
        patterns = self.slot_patterns
        if len(set(patterns)) != len(patterns):
            return None
        return TriplePatternQuery(
            patterns, self.original.projection, self.original.name
        )

    @property
    def relaxed_pattern_indexes(self) -> tuple[int, ...]:
        return tuple(i for i, rule in enumerate(self.applied) if rule is not None)

    @property
    def n_relaxed(self) -> int:
        return len(self.relaxed_pattern_indexes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RelaxedQuery(weight={self.weight:.3f}, "
            f"relaxed={list(self.relaxed_pattern_indexes)})"
        )


def apply_rule(query: TriplePatternQuery, rule: RelaxationRule) -> TriplePatternQuery:
    """Apply one rule (Definition 8's ``(Q \\ q) ∪ q'``).

    Raises :class:`RelaxationError` if the rule's domain is not in *query*.
    """
    if rule.domain not in query.patterns:
        raise RelaxationError(f"rule domain {rule.domain} not in query")
    return query.replace(rule.domain, rule.range)


def relax_single(
    query: TriplePatternQuery, pattern: TriplePattern, rules: RuleSet
) -> Iterator[RelaxedQuery]:
    """All single-step relaxations of *pattern* within *query*."""
    if pattern not in query.patterns:
        raise RelaxationError(f"pattern {pattern} not in query")
    idx = query.index_of(pattern)
    applied_base: list[RelaxationRule | None] = [None] * len(query)
    for rule in rules.for_pattern(pattern):
        applied = list(applied_base)
        applied[idx] = rule
        yield RelaxedQuery(
            original=query,
            weight=rule.weight,
            applied=tuple(applied),
        )


def enumerate_space(
    query: TriplePatternQuery,
    rules: RuleSet,
    max_variants: int | None = None,
) -> list[RelaxedQuery]:
    """Enumerate the full cross-product relaxation space of *query*.

    Each pattern independently either stays original or is replaced by one
    of its relaxations; the space size is ``prod(1 + |relaxations(q_i)|)``
    (48 for the paper's running example: 4·2·3·2).  The original query is
    included (weight 1.0, nothing applied).  Results are ordered by
    descending weight, then by fewer relaxations, then stable.

    ``max_variants`` caps the output after ordering (``None`` = no cap).
    """
    options_per_pattern: list[list[RelaxationRule | None]] = []
    for pattern in query.patterns:
        options: list[RelaxationRule | None] = [None]
        options.extend(rules.for_pattern(pattern))
        options_per_pattern.append(options)

    variants: list[RelaxedQuery] = []
    for combo in itertools.product(*options_per_pattern):
        weight = 1.0
        for rule in combo:
            if rule is not None:
                weight *= rule.weight
        variants.append(RelaxedQuery(original=query, weight=weight, applied=combo))
    variants.sort(key=lambda rq: (-rq.weight, rq.n_relaxed))
    if max_variants is not None:
        variants = variants[:max_variants]
    return variants


def space_size(query: TriplePatternQuery, rules: RuleSet) -> int:
    """Size of the cross-product space without materialising it."""
    size = 1
    for pattern in query.patterns:
        size *= 1 + len(rules.for_pattern(pattern))
    return size


def top_weighted_relaxation(
    query: TriplePatternQuery, pattern: TriplePattern, rules: RuleSet
) -> RelaxationRule | None:
    """The highest-weight rule for *pattern*, or ``None`` if it has none.

    This is the only relaxation PLANGEN needs to test per pattern
    (§3.2.1: normalisation makes each relaxation's top score equal its
    weight, so the top-weighted rule dominates), read off the front of
    *rules*' memoised bucket.
    """
    return rules.top_for_pattern(pattern)
