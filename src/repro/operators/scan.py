"""Sorted scan over a triple pattern's match list.

The leaf operator: streams the (already score-sorted, score-normalised)
matches of one triple pattern as partial answers, optionally discounted by
a relaxation weight.  This is the "sorted answer-list" input the paper's
plans read from the database engine.
"""

from __future__ import annotations

import math

from repro.errors import ExecutionError
from repro.kg.graph import KnowledgeGraph
from repro.kg.index import MatchList
from repro.kg.pattern import TriplePattern
from repro.operators.base import EXHAUSTED_BOUND, Operator
from repro.operators.memory import ExecutionContext
from repro.query.answer import PartialAnswer


class SortedScan(Operator):
    """Stream one pattern's matches in descending (weighted) score order.

    Parameters
    ----------
    graph:
        The knowledge graph to read from.
    pattern:
        The triple pattern whose match list is streamed.  When this scan
        realises a relaxation, *pattern* is the **relaxed** pattern (the
        rule's range) and *weight* is the rule's weight.
    pattern_index:
        The position of the **original** pattern in the query — the slot
        this stream fills, used for plan well-formedness checks.
    context:
        Shared execution context (answer accounting).
    weight:
        Relaxation discount in (0, 1]; emitted scores are
        ``weight * S(t|pattern)``.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        pattern: TriplePattern,
        pattern_index: int,
        context: ExecutionContext,
        weight: float = 1.0,
    ) -> None:
        if not 0.0 < weight <= 1.0:
            raise ExecutionError(f"scan weight must be in (0,1], got {weight}")
        self._pattern = pattern
        self._weight = weight
        self._context = context
        self._covered = frozenset({pattern_index})
        self._match_list: MatchList = graph.match_list(pattern)
        self._position = 0

    @property
    def pattern(self) -> TriplePattern:
        return self._pattern

    @property
    def weight(self) -> float:
        return self._weight

    @property
    def patterns_covered(self) -> frozenset[int]:
        return self._covered

    def next(self) -> PartialAnswer | None:
        while self._position < len(self._match_list):
            index = self._position
            self._position += 1
            self._context.tuples_pulled += 1
            triple = self._match_list.triples[index]
            bindings = self._pattern.bind(triple)
            if bindings is None:  # repeated-variable mismatch
                continue
            score = self._weight * self._match_list.normalized(index)
            return self._context.factory.make(bindings, score, self._covered)
        return None

    def upper_bound(self) -> float:
        if self._position >= len(self._match_list):
            return EXHAUSTED_BOUND
        return self._weight * self._match_list.normalized(self._position)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SortedScan({self._pattern}, w={self._weight:.3f})"
