"""The vectorized leaf operator: block scans over encoded match lists.

:class:`VectorScan` is the block twin of
:class:`~repro.operators.scan.SortedScan`: it slices fixed-size windows
out of an :class:`~repro.operators.block.EncodedMatchList` — id columns
and normalized scores that came straight off the columnar store — so a
"pull" is two array slices and one elementwise multiply instead of a
Python object per row, and a list that fits one block is handed out as
it is.  Scores are ``weight * normalized`` elementwise, bitwise-equal to
the tuple scan's per-row ``weight * normalized(i)``.

It is also the block twin of
:class:`~repro.operators.incremental_merge.IncrementalMerge`: a relaxed
pattern is served as a ``VectorScan(merged, whole_list_pulled=True)``
over its pre-merged relaxation list
(:func:`~repro.operators.block.build_merged_match_list`, held in the
:class:`~repro.operators.block.EncodedListStore`) — the deduplicated
union of the pattern's and its relaxations' lists, whose surviving
``(binding, score)`` multiset is exactly the tuple operator's, because
dedup-keep-first over a score-descending stream is order-independent
among equal keys.
"""

from __future__ import annotations

from repro.errors import ExecutionError
from repro.operators.base import EXHAUSTED_BOUND
from repro.operators.block import (
    DEFAULT_BLOCK_SIZE,
    Block,
    BlockOperator,
    EncodedMatchList,
)
from repro.operators.memory import ExecutionContext


class VectorScan(BlockOperator):
    """Stream an encoded match list as score-sorted blocks.

    Parameters mirror :class:`~repro.operators.scan.SortedScan`: the
    *weight* is the relaxation discount applied elementwise to the
    list's normalized scores, *pattern_index* the query slot this stream
    fills.  ``tuples_pulled`` and the answer-object counter advance by
    the number of rows sliced (the block engine's rows are its answer
    objects — see :mod:`repro.operators.block`) — or, with
    *whole_list_pulled*, by the whole list on the first pull: the
    accounting of a relaxation merge, which touches every row before
    the first block leaves.
    """

    def __init__(
        self,
        encoded: EncodedMatchList,
        pattern_index: int,
        context: ExecutionContext,
        weight: float = 1.0,
        block_size: int = DEFAULT_BLOCK_SIZE,
        whole_list_pulled: bool = False,
    ) -> None:
        if not 0.0 < weight <= 1.0:
            raise ExecutionError(f"scan weight must be in (0,1], got {weight}")
        if block_size < 1:
            raise ExecutionError(f"block size must be >= 1, got {block_size}")
        self._encoded = encoded
        self._weight = weight
        self._context = context
        self._covered = frozenset({pattern_index})
        self._block_size = block_size
        self._position = 0
        self._whole_list_pulled = whole_list_pulled

    @property
    def patterns_covered(self) -> frozenset[int]:
        return self._covered

    @property
    def var_names(self) -> tuple[str, ...]:
        return self._encoded.var_names

    @property
    def weight(self) -> float:
        return self._weight

    def next_block(self) -> Block | None:
        encoded = self._encoded
        start = self._position
        n = len(encoded)
        if start >= n:
            return None
        stop = min(start + self._block_size, n)
        self._position = stop
        if self._whole_list_pulled:
            pulled = n if start == 0 else 0
        else:
            pulled = stop - start
        self._context.tuples_pulled += pulled
        self._context.factory.objects_created += pulled
        weight = self._weight
        if stop - start == n:
            # The list is one block: its own (read-only) arrays, tagged
            # with the list so that joins probe in its stored key order.
            scores = encoded.scores if weight == 1.0 else weight * encoded.scores
            return Block(encoded.var_names, encoded.columns, scores, source=encoded)
        window = slice(start, stop)
        return Block(
            encoded.var_names,
            tuple(column[window] for column in encoded.columns),
            weight * encoded.scores[window],
        )

    def upper_bound(self) -> float:
        if self._position >= len(self._encoded):
            return EXHAUSTED_BOUND
        return self._weight * float(self._encoded.scores[self._position])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VectorScan(vars={self._encoded.var_names}, "
            f"rows={len(self._encoded)}, w={self._weight:.3f})"
        )

