"""Vectorized leaf operators: block scans and the block Incremental Merge.

:class:`VectorScan` is the block twin of
:class:`~repro.operators.scan.SortedScan`: it slices fixed-size windows
out of an :class:`~repro.operators.block.EncodedMatchList` — id columns
and normalized scores that came straight off the columnar store — so a
"pull" is two array slices and one elementwise multiply instead of a
Python object per row, and a list that fits one block is handed out as
it is.  Scores are ``weight * normalized`` elementwise, bitwise-equal to
the tuple scan's per-row ``weight * normalized(i)``.

:class:`VectorIncrementalMerge` is the block twin of
:class:`~repro.operators.incremental_merge.IncrementalMerge`: one
operator serving a pattern *and all its relaxations*.  Instead of a lazy
heap it merges the weighted inputs once on first pull with
:func:`merge_encoded_lists`: concatenate, sort by score descending with
one stable ``argsort``, and drop duplicate bindings past their first
(= maximum-score, Definition 8) occurrence with one ``np.unique`` — the
surviving ``(binding, score)`` multiset is exactly the tuple operator's,
because dedup-keep-first over a score-descending stream is
order-independent among equal keys.

The merged list is a pure function of its inputs, so the executor keeps
it in the :class:`~repro.operators.block.EncodedListStore` and serves a
relaxed pattern as a plain ``VectorScan(merged, whole_list_pulled=True)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.operators.base import EXHAUSTED_BOUND
from repro.operators.block import (
    DEFAULT_BLOCK_SIZE,
    Block,
    BlockOperator,
    EncodedMatchList,
    TermCodec,
    first_occurrence_keep,
    joint_group_ids,
    pack_columns,
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
    accounting of :class:`VectorIncrementalMerge`, whose merge touches
    every row before the first block leaves, kept when the scan serves
    that merge's stored output.
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


def merge_encoded_lists(
    inputs: Sequence[tuple[EncodedMatchList, float]], codec: TermCodec
) -> EncodedMatchList:
    """The deduplicated, score-descending union of weighted match lists.

    *inputs* are ``(encoded_list, weight)`` pairs binding the same
    variable names; columns are aligned by name to the first input's
    order, scores are ``weight * normalized`` elementwise, and of rows
    with equal bindings only the best-scored survives (Definition 8).
    A pure function of *inputs* — *codec* only bounds the ids for key
    packing — so the result may be stored for as long as they are valid.
    Its scores are final (weights applied), hence ``max_score=1.0``.
    """
    var_names = inputs[0][0].var_names
    scores = np.concatenate([weight * encoded.scores for encoded, weight in inputs])
    columns = tuple(
        np.concatenate(
            [encoded.columns[encoded.var_names.index(name)] for encoded, _ in inputs]
        )
        for name in var_names
    )
    # Stable sort: equal scores keep input order, like the heap's
    # prime order — irrelevant for correctness (dedup-keep-first is
    # order-independent among equal keys) but deterministic.
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    columns = tuple(column[order] for column in columns)
    if len(scores):
        packed = pack_columns(columns, codec.n_ids, n_rows=len(scores))
        if packed is None:
            packed, _ = joint_group_ids(columns, tuple(c[:0] for c in columns))
        keep = first_occurrence_keep(packed)
        scores = scores[keep]
        columns = tuple(column[keep] for column in columns)
    return EncodedMatchList(var_names, columns, scores, max_score=1.0)


class VectorIncrementalMerge(BlockOperator):
    """Merge a pattern's original and relaxed encoded lists, deduplicated.

    *inputs* are ``(encoded_list, weight)`` pairs — the original pattern
    first (weight 1.0), then one entry per relaxation rule, exactly the
    tuple operator's input set.  All inputs must bind the same variable
    names (relaxation rules guarantee this); columns are aligned by name
    because a rule's range pattern may move a variable to a different
    position.

    The merge is built eagerly on first pull (every input list is
    already fully materialised, so unlike the tuple heap there is
    nothing to save by deferring row-by-row) and then streamed like a
    :class:`VectorScan`.
    """

    def __init__(
        self,
        inputs: Sequence[tuple[EncodedMatchList, float]],
        pattern_index: int,
        context: ExecutionContext,
        codec: TermCodec,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        if not inputs:
            raise ExecutionError("incremental merge needs at least one input")
        names = set(inputs[0][0].var_names)
        for encoded, weight in inputs:
            if set(encoded.var_names) != names:
                raise ExecutionError(
                    "all inputs of an incremental merge must bind the same "
                    f"variables: {sorted(names)} vs {sorted(encoded.var_names)}"
                )
            if not 0.0 < weight <= 1.0:
                raise ExecutionError(f"merge weight must be in (0,1], got {weight}")
        self._inputs = list(inputs)
        self._var_names = inputs[0][0].var_names
        self._context = context
        self._codec = codec
        self._covered = frozenset({pattern_index})
        self._block_size = block_size
        self._columns: tuple[np.ndarray, ...] | None = None
        self._scores: np.ndarray | None = None
        self._position = 0

    @property
    def patterns_covered(self) -> frozenset[int]:
        return self._covered

    @property
    def var_names(self) -> tuple[str, ...]:
        return self._var_names

    @property
    def n_inputs(self) -> int:
        return len(self._inputs)

    def _prime(self) -> None:
        merged = merge_encoded_lists(self._inputs, self._codec)
        self._scores = merged.scores
        self._columns = merged.columns
        self._context.tuples_pulled += len(merged)
        self._context.factory.objects_created += len(merged)

    def next_block(self) -> Block | None:
        if self._scores is None:
            self._prime()
        assert self._scores is not None and self._columns is not None
        start = self._position
        if start >= len(self._scores):
            return None
        stop = min(start + self._block_size, len(self._scores))
        self._position = stop
        window = slice(start, stop)
        return Block(
            self._var_names,
            tuple(column[window] for column in self._columns),
            self._scores[window],
        )

    def upper_bound(self) -> float:
        if self._scores is None:
            bounds = [
                weight * float(encoded.scores[0])
                for encoded, weight in self._inputs
                if len(encoded)
            ]
            return max(bounds) if bounds else EXHAUSTED_BOUND
        if self._position >= len(self._scores):
            return EXHAUSTED_BOUND
        return float(self._scores[self._position])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VectorIncrementalMerge({len(self._inputs)} inputs)"
