"""The naive evaluator: the §1 strawman and the repository's reference.

"A naive method would compute the results to each query, sort the results
by score and return the top-k".  :meth:`NaiveEngine.query` does exactly
that over the full cross-product relaxation space (48 queries for the
running example): it evaluates each relaxed query completely with hash
joins, applies the weight product to every answer, keeps the maximum
score per distinct binding, sorts and cuts.

:meth:`NaiveEngine.evaluate` runs the same machinery over one
:class:`~repro.core.plan.QueryPlan`'s slots, which makes it the one
independent reference the pipelines are checked against.  Every list is
read by brute force — the graph's triples, filed once per graph version
by predicate in Definition-5 order, filtered by the pattern's constants
and normalised by the first score (:meth:`NaiveEngine.rows`) — then
joined and cut in plain Python.  It shares no list, merge, join or cut
code with either pipeline; only the plan's fold order
(:meth:`QueryPlan._join_left_deep`), so that scores add in the engines'
order and agree bit for bit.
"""

from __future__ import annotations

import heapq
import time
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from repro.core.plan import QueryPlan, relaxation_inputs
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern
from repro.kg.triple import Triple
from repro.query.answer import Answer
from repro.query.query import TriplePatternQuery
from repro.query.rewrite import enumerate_space
from repro.relax.rules import RuleSet

#: A list's rows: each binding (values of the variables, in the first
#: input's :attr:`~repro.kg.pattern.TriplePattern.variable_names` order)
#: and its score.
Rows = list[tuple[tuple[str, ...], float]]

#: A join operand: the variable names its bindings hold, and its rows.
Operand = tuple[tuple[str, ...], Rows]


@dataclass(frozen=True)
class NaiveResult:
    answers: tuple[Answer, ...]
    execution_seconds: float
    queries_evaluated: int
    answers_materialized: int


class NaiveEngine:
    """Evaluate relaxed queries fully by brute force, then sort and cut."""

    def __init__(self, graph: KnowledgeGraph, rules: RuleSet) -> None:
        self.graph = graph
        self.rules = rules
        #: The graph's triples by predicate (``None``: all of them), each
        #: list in Definition-5 order, as of :attr:`_version`.
        self._by_predicate: dict[str | None, list[Triple]] = {}
        self._version = -1

    # ------------------------------------------------------------------
    def matches(self, pattern: TriplePattern) -> list[Triple]:
        """*pattern*'s matches in Definition-5 order: raw score
        descending, ties by ``(s, p, o)``."""
        version = self.graph.version
        if version != self._version:
            by_predicate: dict[str | None, list[Triple]] = defaultdict(list)
            for triple in sorted(self.graph.triples(), key=lambda t: (-t.score, t.spo)):
                by_predicate[triple.predicate].append(triple)
                by_predicate[None].append(triple)
            self._by_predicate, self._version = by_predicate, version
        subject, predicate, obj = pattern.key()
        matches = self._by_predicate.get(predicate, [])
        if subject is not None:
            matches = [t for t in matches if t.subject == subject]
        if obj is not None:
            matches = [t for t in matches if t.object == obj]
        if pattern.repeated_positions:
            matches = [t for t in matches if pattern.matches(t)]
        return list(matches)

    def rows(self, inputs: Sequence[tuple[TriplePattern, float]]) -> Rows:
        """The merged list of *inputs*, ``(pattern, weight)`` pairs
        (Definition 8): each input's matches scored ``weight · S(t)/max``,
        all of them ordered by score descending, ties by input then row,
        and of equal bindings only the first — best — row kept.  One
        ``(pattern, 1.0)`` input is *pattern*'s Definition-5 list."""
        names = inputs[0][0].variable_names
        scored = []
        for at, (pattern, weight) in enumerate(inputs):
            matches = self.matches(pattern)
            top = matches[0].score if matches else 0.0
            for row, triple in enumerate(matches):
                bindings = pattern.bind(triple)
                normalized = triple.score / top if top > 0 else 0.0
                scored.append(
                    (weight * normalized, at, row, tuple(bindings[n] for n in names))
                )
        scored.sort(key=lambda item: (-item[0], item[1], item[2]))
        seen: set[tuple[str, ...]] = set()
        merged: Rows = []
        for score, _, _, binding in scored:
            if binding not in seen:
                seen.add(binding)
                merged.append((binding, score))
        return merged

    def evaluate(
        self,
        plan: QueryPlan,
        k: int,
        max_relaxations_per_pattern: int | None = None,
    ) -> tuple[Answer, ...]:
        """The top-k answers of *plan*: each join-group pattern's list and
        each singleton's merged list of its :func:`relaxation_inputs`,
        hash-joined in the plan's left-deep order, the best score kept
        per projected binding, sorted by ``(-score, bindings)`` and cut
        to *k* — the boundary tie run resolved by bindings."""
        patterns = plan.query.patterns
        operands = [
            self._operand([(patterns[i], 1.0)]) for i in sorted(plan.join_group)
        ] + [
            self._operand(
                relaxation_inputs(patterns[i], self.rules, max_relaxations_per_pattern)
            )
            for i in plan.singletons
        ]
        names, rows = plan._join_left_deep(operands, _hash_join)
        projected = _projection(plan.query)
        best: dict[tuple[str, ...], float] = {}
        _keep_best(best, names, projected, rows)
        return _cut(best, projected, k)

    def _operand(self, inputs: Sequence[tuple[TriplePattern, float]]) -> Operand:
        return inputs[0][0].variable_names, self.rows(inputs)

    # ------------------------------------------------------------------
    def query(
        self,
        query: TriplePatternQuery,
        k: int,
        max_variants: int | None = None,
    ) -> NaiveResult:
        """Top-k by brute force over the whole relaxation space.

        ``max_variants`` optionally caps the number of relaxed queries
        evaluated (by descending weight) to keep the strawman tractable
        on large spaces; ``None`` evaluates all of them, as §1 describes.
        Each slot contributes ``w_slot · S(t | pattern_slot)`` to an
        answer's score, the semantics :meth:`evaluate` computes per slot.
        """
        started = time.perf_counter()
        variants = enumerate_space(query, self.rules, max_variants=max_variants)
        projected = _projection(query)
        best: dict[tuple[str, ...], float] = {}
        materialized = 0
        for variant in variants:
            slots = [
                self._operand([(pattern, rule.weight if rule is not None else 1.0)])
                for pattern, rule in zip(variant.slot_patterns, variant.applied)
            ]
            names, rows = slots[0]
            for slot in slots[1:]:
                if not rows:
                    break
                names, rows = _hash_join((names, rows), slot)
            materialized += len(rows)
            _keep_best(best, names, projected, rows)
        return NaiveResult(
            answers=_cut(best, projected, k),
            execution_seconds=time.perf_counter() - started,
            queries_evaluated=len(variants),
            answers_materialized=materialized,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NaiveEngine(graph={self.graph.name!r}, rules={len(self.rules)})"


def _hash_join(left: Operand, right: Operand) -> Operand:
    """Every pair of *left* and *right* rows agreeing on their shared
    variables, scored ``left + right``: *right* indexed by its shared
    values, *left* probing it."""
    left_names, left_rows = left
    right_names, right_rows = right
    shared = [name for name in right_names if name in left_names]
    left_key = [left_names.index(name) for name in shared]
    right_key = [right_names.index(name) for name in shared]
    extra = [at for at, name in enumerate(right_names) if name not in left_names]
    index: dict[tuple[str, ...], list[tuple[tuple[str, ...], float]]] = defaultdict(list)
    for values, score in right_rows:
        index[tuple(values[i] for i in right_key)].append(
            (tuple(values[i] for i in extra), score)
        )
    joined = [
        (values + more, score + other)
        for values, score in left_rows
        for more, other in index.get(tuple(values[i] for i in left_key), ())
    ]
    return left_names + tuple(right_names[i] for i in extra), joined


def _keep_best(
    best: dict[tuple[str, ...], float],
    names: tuple[str, ...],
    projected: tuple[str, ...],
    rows: Rows,
) -> None:
    """Fold *rows*, binding *names*, into *best*: the maximum score per
    binding of the *projected* names."""
    if not rows:  # a variant whose joins stopped early binds no answer
        return
    positions = [names.index(name) for name in projected]
    pick = itemgetter(*positions) if len(positions) > 1 else None
    for values, score in rows:
        if pick is not None:
            key = pick(values)
        else:
            key = tuple(values[i] for i in positions)
        current = best.get(key)
        if current is None or score > current:
            best[key] = score


def _projection(query: TriplePatternQuery) -> tuple[str, ...]:
    """The names an answer binds: the projected variables, sorted."""
    return tuple(sorted(v.name for v in query.projection))


def _cut(
    best: dict[tuple[str, ...], float], projected: tuple[str, ...], k: int
) -> tuple[Answer, ...]:
    """The canonical top-k of *best*: every binding scoring at least the
    k-th best score — the boundary tie run whole — ordered by
    ``(-score, bindings)``, first *k*."""
    if len(best) > k:
        threshold = heapq.nlargest(k, best.values())[-1]
        best = {key: score for key, score in best.items() if score >= threshold}
    ranked = sorted(best.items(), key=lambda item: (-item[1], item[0]))[:k]
    return tuple(Answer(tuple(zip(projected, key)), score) for key, score in ranked)
