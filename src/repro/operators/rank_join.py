"""Rank Join — the HRJN algorithm (Ilyas et al., VLDB 2003/04; §2.1).

A binary rank join reads two score-sorted inputs, maintains a hash table
per side keyed on the shared join variables, probes the opposite table on
every pull, and buffers join results in a priority queue.  A buffered
result is released only when its score is at least the HRJN *threshold*

    T = max(top_left + ub_right, ub_left + top_right)

(the best score any future join result could reach, where ``top`` is the
first score seen on a side and ``ub`` the side's current upper bound), so
outputs come in non-increasing score order without computing the whole
join — the early-termination property the paper relies on.
"""

from __future__ import annotations

import heapq
import itertools
import operator as _operator
from collections import defaultdict
from typing import Callable

from repro.errors import ExecutionError
from repro.operators.base import EXHAUSTED_BOUND, Operator
from repro.operators.memory import ExecutionContext
from repro.query.answer import PartialAnswer

#: Sentinel bucket for tuples stored before the join variables are known.
_PENDING_KEY = ("?pending",)


def _make_key_extractor(
    join_vars: tuple[str, ...],
) -> Callable[[PartialAnswer], tuple]:
    """A compiled join-key extractor for *join_vars*.

    Built once per join when the shared variables are discovered, so the
    per-probe work is a single ``itemgetter`` call instead of re-deriving
    the variable tuple and iterating it in Python.
    """
    if not join_vars:
        empty: tuple = ()
        return lambda item: empty
    getter = _operator.itemgetter(*join_vars)
    if len(join_vars) == 1:
        def extract_single(item: PartialAnswer) -> tuple:
            try:
                return (getter(item.bindings),)
            except KeyError as exc:
                raise ExecutionError(
                    f"partial answer missing join variable {exc.args[0]!r}"
                ) from None
        return extract_single

    def extract(item: PartialAnswer) -> tuple:
        try:
            return getter(item.bindings)
        except KeyError as exc:
            raise ExecutionError(
                f"partial answer missing join variable {exc.args[0]!r}"
            ) from None
    return extract


class RankJoin(Operator):
    """HRJN-style binary rank join over shared variables.

    When the inputs share no variable the operator degrades to a ranked
    cartesian product (still correct, just unselective) — queries in the
    paper's workloads are always connected, but plans over join groups may
    transiently create variable-disjoint pairs, and correctness must not
    depend on the planner avoiding them.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        context: ExecutionContext,
    ) -> None:
        overlap = left.patterns_covered & right.patterns_covered
        if overlap:
            raise ExecutionError(
                f"rank join inputs overlap on patterns {sorted(overlap)}"
            )
        self._left = left
        self._right = right
        self._context = context
        self._covered = left.patterns_covered | right.patterns_covered
        self._join_vars: tuple[str, ...] | None = None  # discovered lazily
        #: Compiled key extractor, shared by both sides once the join
        #: variables are known (both sides key on the same tuple).
        self._extract_key: Callable[[PartialAnswer], tuple] | None = None
        self._left_probe_keys: tuple[str, ...] | None = None
        self._right_probe_keys: tuple[str, ...] | None = None
        self._left_table: dict[tuple[str, ...], list[PartialAnswer]] = defaultdict(list)
        self._right_table: dict[tuple[str, ...], list[PartialAnswer]] = defaultdict(list)
        self._left_top: float | None = None
        self._right_top: float | None = None
        self._buffer: list[tuple[float, int, PartialAnswer]] = []
        self._counter = itertools.count()
        self._exhausted = False
        self._pull_left_next = True

    @property
    def patterns_covered(self) -> frozenset[int]:
        return self._covered

    # ------------------------------------------------------------------
    def _discover_join_vars(
        self, item: PartialAnswer, from_left: bool
    ) -> Callable[[PartialAnswer], tuple] | None:
        """Fix the join variables the first time we see a tuple from each
        side.  We take the intersection of binding keys; both sides emit
        all their patterns' variables, so this equals the shared query
        variables.  Once both sides have been seen the extractor is
        compiled, pending tuples are re-keyed, and this method is never
        consulted again (the extractor caches the discovery)."""
        if from_left:
            self._left_probe_keys = tuple(sorted(item.bindings))
        else:
            self._right_probe_keys = tuple(sorted(item.bindings))
        if self._left_probe_keys is None or self._right_probe_keys is None:
            return None
        right_names = set(self._right_probe_keys)
        self._join_vars = tuple(
            name for name in self._left_probe_keys if name in right_names
        )
        self._extract_key = _make_key_extractor(self._join_vars)
        self._rekey_pending()
        return self._extract_key

    def _insert_and_probe(self, item: PartialAnswer, from_left: bool) -> None:
        extract = self._extract_key
        if extract is None:
            extract = self._discover_join_vars(item, from_left)
            if extract is None:
                # Only one side seen so far: just store under a sentinel
                # key; tables are re-keyed once join vars are known.
                table = self._left_table if from_left else self._right_table
                table[_PENDING_KEY].append(item)
                return
        own_table = self._left_table if from_left else self._right_table
        other_table = self._right_table if from_left else self._left_table
        key = extract(item)
        own_table[key].append(item)
        self._context.joins_attempted += 1
        matches = other_table.get(key, ())
        produced = False
        for candidate in matches:
            left_item = item if from_left else candidate
            right_item = candidate if from_left else item
            joined = self._context.factory.join(left_item, right_item)
            if joined is not None:
                heapq.heappush(
                    self._buffer, (-joined.score, next(self._counter), joined)
                )
                produced = True
        if produced:
            self._context.joins_matched += 1

    def _rekey_pending(self) -> None:
        assert self._extract_key is not None
        for table in (self._left_table, self._right_table):
            pending = table.pop(_PENDING_KEY, None)
            if pending:
                for stored in pending:
                    table[self._extract_key(stored)].append(stored)

    # ------------------------------------------------------------------
    def _pull_once(self) -> bool:
        """Pull one tuple from the side chosen by simple alternation
        (HRJN's round-robin strategy), preferring a non-exhausted side.
        Returns False when both inputs are exhausted."""
        left_bound = self._left.upper_bound()
        right_bound = self._right.upper_bound()
        if left_bound == EXHAUSTED_BOUND and right_bound == EXHAUSTED_BOUND:
            return False
        pull_left = self._pull_left_next
        if left_bound == EXHAUSTED_BOUND:
            pull_left = False
        elif right_bound == EXHAUSTED_BOUND:
            pull_left = True
        self._pull_left_next = not pull_left
        source = self._left if pull_left else self._right
        item = source.next()
        if item is None:
            return (
                self._left.upper_bound() != EXHAUSTED_BOUND
                or self._right.upper_bound() != EXHAUSTED_BOUND
            )
        if pull_left and self._left_top is None:
            self._left_top = item.score
        if not pull_left and self._right_top is None:
            self._right_top = item.score
        self._insert_and_probe(item, from_left=pull_left)
        return True

    def _threshold(self) -> float:
        """The HRJN bound on any future (not-yet-buffered) join result."""
        left_ub = self._left.upper_bound()
        right_ub = self._right.upper_bound()
        left_top = self._left_top if self._left_top is not None else left_ub
        right_top = self._right_top if self._right_top is not None else right_ub
        candidates = []
        if left_top != EXHAUSTED_BOUND and right_ub != EXHAUSTED_BOUND:
            candidates.append(left_top + right_ub)
        if right_top != EXHAUSTED_BOUND and left_ub != EXHAUSTED_BOUND:
            candidates.append(right_top + left_ub)
        if not candidates:
            return EXHAUSTED_BOUND
        return max(candidates)

    def next(self) -> PartialAnswer | None:
        if self._exhausted:
            return None
        while True:
            threshold = self._threshold()
            if self._buffer and -self._buffer[0][0] >= threshold:
                _, _, item = heapq.heappop(self._buffer)
                return item
            if not self._pull_once():
                if self._buffer:
                    _, _, item = heapq.heappop(self._buffer)
                    return item
                self._exhausted = True
                return None

    def upper_bound(self) -> float:
        if self._exhausted:
            return EXHAUSTED_BOUND
        candidates = []
        if self._buffer:
            candidates.append(-self._buffer[0][0])
        threshold = self._threshold()
        if threshold != EXHAUSTED_BOUND:
            candidates.append(threshold)
        return max(candidates) if candidates else EXHAUSTED_BOUND

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RankJoin(covering={sorted(self._covered)})"
