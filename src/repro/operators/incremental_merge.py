"""Incremental Merge (Theobald et al., SIGIR 2005; §2.1 of the paper).

One Incremental Merge operator serves one triple pattern *and all its
relaxations*: it lazily merges the pattern's sorted match list with each
relaxation's sorted match list (scores discounted by the rule weights)
into a single stream sorted by weighted score.  Because each input is
individually sorted and its weight is constant, a heap keyed on each
input's next weighted score yields the merged order without materialising
anything.

Duplicate bindings (the same variable assignment reached through the
original pattern *and* a relaxation, or through two relaxations) are
dropped on their second appearance: the stream is globally descending, so
the first occurrence carries the maximum score — exactly Definition 8's
``S(A) = max over relaxations``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from repro.errors import ExecutionError
from repro.operators.base import EXHAUSTED_BOUND, Operator
from repro.operators.memory import ExecutionContext
from repro.query.answer import PartialAnswer


@dataclass(frozen=True)
class WeightedInput:
    """One input stream of an incremental merge: a scan plus its weight.

    The scan (a :class:`~repro.operators.scan.SortedScan`) already applies the weight to the scores it emits; the weight is kept
    here for introspection and plan explanation.
    """

    scan: Operator
    weight: float
    label: str = ""


class IncrementalMerge(Operator):
    """Merge a pattern's original and relaxed match lists into one sorted
    stream with duplicate-binding elimination."""

    def __init__(
        self,
        inputs: list[WeightedInput],
        context: ExecutionContext,
    ) -> None:
        if not inputs:
            raise ExecutionError("incremental merge needs at least one input")
        covered = inputs[0].scan.patterns_covered
        for weighted in inputs[1:]:
            if weighted.scan.patterns_covered != covered:
                raise ExecutionError(
                    "all inputs of an incremental merge must cover the same "
                    "query pattern"
                )
        self._inputs = inputs
        self._context = context
        self._covered = covered
        self._seen: set[tuple[tuple[str, str], ...]] = set()
        self._counter = itertools.count()  # heap tie-breaker
        self._heap: list[tuple[float, int, int, PartialAnswer]] = []
        self._primed = False
        self._exhausted = False

    @property
    def patterns_covered(self) -> frozenset[int]:
        return self._covered

    @property
    def n_inputs(self) -> int:
        return len(self._inputs)

    # ------------------------------------------------------------------
    def _push_from(self, input_index: int) -> None:
        item = self._inputs[input_index].scan.next()
        if item is not None:
            heapq.heappush(
                self._heap,
                (-item.score, next(self._counter), input_index, item),
            )

    def _prime(self) -> None:
        for index in range(len(self._inputs)):
            self._push_from(index)
        self._primed = True

    def next(self) -> PartialAnswer | None:
        if self._exhausted:
            return None
        if not self._primed:
            self._prime()
        while self._heap:
            _, _, input_index, item = heapq.heappop(self._heap)
            self._push_from(input_index)
            identity = item.identity()
            if identity in self._seen:
                continue
            self._seen.add(identity)
            return item
        self._exhausted = True
        return None

    def upper_bound(self) -> float:
        if self._exhausted:
            return EXHAUSTED_BOUND
        if not self._primed:
            bounds = [w.scan.upper_bound() for w in self._inputs]
            return max(bounds) if bounds else EXHAUSTED_BOUND
        candidates = []
        if self._heap:
            candidates.append(-self._heap[0][0])
        candidates.extend(w.scan.upper_bound() for w in self._inputs)
        best = max(candidates) if candidates else EXHAUSTED_BOUND
        return best

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IncrementalMerge({len(self._inputs)} inputs)"
