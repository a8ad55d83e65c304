"""Block-at-a-time HRJN rank join over int64 id columns.

:class:`VectorRankJoin` is the block twin of
:class:`~repro.operators.rank_join.RankJoin` — the same HRJN algorithm
(Ilyas et al., VLDB 2003/04) at block granularity:

* inputs are pulled **one block at a time**, round-robin, preferring a
  non-exhausted side;
* each side accumulates its pulled rows as consolidated id/score arrays;
  a freshly pulled block probes the opposite side with two
  ``np.searchsorted`` calls over that side's join keys (packed into one
  int64 per row) and a vectorized range expansion — no per-row Python,
  no string hashing;
* join results collect in a score-sorted buffer, and a buffered row is
  released only when its score is at least the HRJN threshold

      T = max(top_left + ub_right, ub_left + top_right)

  evaluated **at block boundaries**.  The threshold bounds the score of
  any join result not yet in the buffer, whatever the pull granularity:
  it only reads the inputs' upper bounds, which are valid for every
  not-yet-pulled row regardless of whether rows arrive one at a time or
  1024 at a time.  Emitted blocks are therefore globally score-sorted,
  and the join enumerates exactly the result multiset the tuple operator
  enumerates — which is why the two executors agree byte-for-byte after
  the shared canonical top-k cut (see ``docs/architecture.md``).

When the inputs share no variable the join degrades to a ranked
cartesian product (zero key columns pack to a constant key), mirroring
the tuple operator.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError
from repro.operators.base import EXHAUSTED_BOUND
from repro.operators.block import (
    DEFAULT_BLOCK_SIZE,
    Block,
    BlockOperator,
    TermCodec,
    expand_matches,
    joint_group_ids,
    pack_columns,
)
from repro.operators.memory import ExecutionContext


def _weave_mask(old_keys: np.ndarray, new_keys: np.ndarray) -> np.ndarray:
    """Where the sorted run *new_keys* lands when woven into *old_keys*.

    Both runs ascending.  Returns a boolean mask over the merged length:
    True slots take new rows in order, False slots take old rows in
    order — callers scatter each payload array with :func:`_weave`.
    ``side="right"`` puts a new row after every equal old row, exactly
    the tie order of a stable concat-argsort.
    """
    slots = np.searchsorted(old_keys, new_keys, side="right")
    targets = slots + np.arange(len(new_keys), dtype=np.int64)
    new_mask = np.zeros(len(old_keys) + len(new_keys), dtype=bool)
    new_mask[targets] = True
    return new_mask


def _weave(old: np.ndarray, new: np.ndarray, new_mask: np.ndarray) -> np.ndarray:
    """Scatter two payload runs into one merged array per *new_mask*."""
    merged = np.empty(len(old) + len(new), dtype=old.dtype)
    merged[new_mask] = new
    merged[~new_mask] = old
    return merged


class _Side:
    """One join input: its pulled rows, consolidated lazily for probing."""

    __slots__ = (
        "op",
        "join_vars",
        "top",
        "_chunks",
        "_n",
        "_columns",
        "_scores",
        "_key_columns",
        "_order",
        "_packed_sorted",
        "_dirty",
    )

    def __init__(self, op: BlockOperator, join_vars: tuple[str, ...]) -> None:
        self.op = op
        self.join_vars = join_vars
        self.top: float | None = None  # first score seen (HRJN's "top")
        self._chunks: list[Block] = []
        self._n = 0
        self._columns: dict[str, np.ndarray] = {}
        self._scores = np.empty(0, dtype=np.float64)
        self._key_columns: tuple[np.ndarray, ...] = ()
        self._order = np.empty(0, dtype=np.int64)
        self._packed_sorted: np.ndarray | None = None
        self._dirty = False

    @property
    def n_rows(self) -> int:
        return self._n

    def insert(self, block: Block) -> None:
        if self.top is None and len(block):
            self.top = float(block.scores[0])
        self._chunks.append(block)
        self._n += len(block)
        self._dirty = True

    def _consolidate(self, pack_base: int) -> None:
        names = self.op.var_names
        n_old = len(self._scores)
        if self._chunks:
            self._columns = {
                name: np.concatenate(
                    ([self._columns[name]] if self._columns else [])
                    + [chunk.column(name) for chunk in self._chunks]
                )
                for name in names
            }
            self._scores = np.concatenate(
                ([self._scores] if len(self._scores) else [])
                + [chunk.scores for chunk in self._chunks]
            )
            self._chunks = []
        self._key_columns = tuple(self._columns[name] for name in self.join_vars)
        new_keys = pack_columns(
            tuple(column[n_old:] for column in self._key_columns),
            pack_base,
            n_rows=self._n - n_old,
        )
        if new_keys is None:
            self._packed_sorted = None
            self._dirty = False
            return
        # Incremental merge: sort only the freshly pulled rows and weave
        # them into the existing sorted run — O(n + B) per block instead
        # of a full O(n log n) re-argsort of everything pulled so far.
        new_order = np.argsort(new_keys, kind="stable") + n_old
        new_sorted = new_keys[new_order - n_old]
        if self._packed_sorted is None or n_old == 0:
            self._packed_sorted = new_sorted
            self._order = new_order
        else:
            new_mask = _weave_mask(self._packed_sorted, new_sorted)
            self._order = _weave(self._order, new_order, new_mask)
            self._packed_sorted = _weave(self._packed_sorted, new_sorted, new_mask)
        self._dirty = False

    def probe_arrays(
        self, pack_base: int
    ) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray | None, np.ndarray]:
        """``(columns, scores, packed_sorted, order)`` over all pulled rows.

        ``packed_sorted`` is ``None`` when the key domain could not be
        packed into int64; the caller then uses :func:`joint_group_ids`
        per probe.
        """
        if self._dirty:
            self._consolidate(pack_base)
        return self._columns, self._scores, self._packed_sorted, self._order

    def key_columns(self) -> tuple[np.ndarray, ...]:
        return self._key_columns


class VectorRankJoin(BlockOperator):
    """HRJN-style binary rank join exchanging blocks of id columns."""

    def __init__(
        self,
        left: BlockOperator,
        right: BlockOperator,
        context: ExecutionContext,
        codec: TermCodec,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        overlap = left.patterns_covered & right.patterns_covered
        if overlap:
            raise ExecutionError(
                f"rank join inputs overlap on patterns {sorted(overlap)}"
            )
        self._context = context
        self._codec = codec
        self._block_size = block_size
        self._covered = left.patterns_covered | right.patterns_covered
        join_vars = tuple(
            sorted(set(left.var_names) & set(right.var_names))
        )
        self._join_vars = join_vars
        self._left = _Side(left, join_vars)
        self._right = _Side(right, join_vars)
        self._var_names = tuple(left.var_names) + tuple(
            name for name in right.var_names if name not in set(left.var_names)
        )
        self._pack_base: int | None = None
        # Score-sorted result buffer with a release cursor.
        self._buf_columns: tuple[np.ndarray, ...] = tuple(
            np.empty(0, dtype=np.int64) for _ in self._var_names
        )
        self._buf_scores = np.empty(0, dtype=np.float64)
        self._buf_position = 0
        self._pull_left_next = True
        self._exhausted = False

    @property
    def patterns_covered(self) -> frozenset[int]:
        return self._covered

    @property
    def var_names(self) -> tuple[str, ...]:
        return self._var_names

    @property
    def join_variables(self) -> tuple[str, ...]:
        return self._join_vars

    # ------------------------------------------------------------------
    def _probe(self, block: Block, own: _Side, other: _Side) -> None:
        """Join *block* (just pulled into *own*) against *other*'s rows."""
        self._context.joins_attempted += len(block)
        if other.n_rows == 0 or len(block) == 0:
            return
        if self._pack_base is None:
            # All encoding happened while the leaves were built, so the
            # codec's id domain is final by the first pull.
            self._pack_base = max(self._codec.n_ids, 1)
        columns, scores, packed_sorted, order = other.probe_arrays(self._pack_base)
        block_keys = tuple(block.column(name) for name in self._join_vars)
        if packed_sorted is not None:
            probe_packed = pack_columns(
                block_keys, self._pack_base, n_rows=len(block)
            )
        else:
            # Exact slow path: joint group ids over both row sets.
            stored_ids, probe_ids = joint_group_ids(
                other.key_columns(), block_keys
            )
            order = np.argsort(stored_ids, kind="stable")
            packed_sorted = stored_ids[order]
            probe_packed = probe_ids
        lo = np.searchsorted(packed_sorted, probe_packed, side="left")
        hi = np.searchsorted(packed_sorted, probe_packed, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return
        self._context.joins_matched += int(np.count_nonzero(counts))
        probe_rows, positions = expand_matches(lo, counts)
        stored_rows = order[positions]
        joined_scores = block.scores[probe_rows] + scores[stored_rows]
        own_names = set(own.op.var_names)
        joined_columns = tuple(
            block.column(name)[probe_rows]
            if name in own_names
            else columns[name][stored_rows]
            for name in self._var_names
        )
        self._context.factory.objects_created += total
        self._buffer_insert(joined_columns, joined_scores)

    def _buffer_insert(
        self, columns: tuple[np.ndarray, ...], scores: np.ndarray
    ) -> None:
        """Merge new results into the sorted buffer (unreleased part).

        Only the fresh results are argsorted (they are few per probe);
        the sorted run is then woven into the already-sorted unreleased
        buffer (:func:`_weave_mask`, shared with
        :meth:`_Side._consolidate`), so an unselective join that buffers
        many results before the threshold releases them pays
        O(buffer + new) per probe instead of re-sorting the whole buffer
        every time.
        """
        new_order = np.argsort(-scores, kind="stable")
        new_scores = scores[new_order]
        new_columns = tuple(column[new_order] for column in columns)
        position = self._buf_position
        kept_scores = self._buf_scores[position:]
        if len(kept_scores) == 0:
            self._buf_scores = new_scores
            self._buf_columns = new_columns
            self._buf_position = 0
            return
        # Negated scores turn the descending runs ascending for the weave.
        new_mask = _weave_mask(-kept_scores, -new_scores)
        self._buf_scores = _weave(kept_scores, new_scores, new_mask)
        self._buf_columns = tuple(
            _weave(kept[position:], new, new_mask)
            for kept, new in zip(self._buf_columns, new_columns)
        )
        self._buf_position = 0

    # ------------------------------------------------------------------
    def _pull_once(self) -> bool:
        """Pull one block, alternating sides (HRJN round-robin), preferring
        a non-exhausted side.  Returns False when both inputs are done."""
        left_bound = self._left.op.upper_bound()
        right_bound = self._right.op.upper_bound()
        if left_bound == EXHAUSTED_BOUND and right_bound == EXHAUSTED_BOUND:
            return False
        pull_left = self._pull_left_next
        if left_bound == EXHAUSTED_BOUND:
            pull_left = False
        elif right_bound == EXHAUSTED_BOUND:
            pull_left = True
        self._pull_left_next = not pull_left
        own, other = (
            (self._left, self._right) if pull_left else (self._right, self._left)
        )
        block = own.op.next_block()
        if block is None:
            return (
                self._left.op.upper_bound() != EXHAUSTED_BOUND
                or self._right.op.upper_bound() != EXHAUSTED_BOUND
            )
        self._probe(block, own, other)
        own.insert(block)
        return True

    def _threshold(self) -> float:
        """The HRJN bound on any future (not-yet-buffered) join result."""
        left_ub = self._left.op.upper_bound()
        right_ub = self._right.op.upper_bound()
        left_top = self._left.top if self._left.top is not None else left_ub
        right_top = self._right.top if self._right.top is not None else right_ub
        candidates = []
        if left_top != EXHAUSTED_BOUND and right_ub != EXHAUSTED_BOUND:
            candidates.append(left_top + right_ub)
        if right_top != EXHAUSTED_BOUND and left_ub != EXHAUSTED_BOUND:
            candidates.append(right_top + left_ub)
        if not candidates:
            return EXHAUSTED_BOUND
        return max(candidates)

    def _emit(self, stop: int) -> Block:
        start = self._buf_position
        stop = min(stop, start + self._block_size)
        self._buf_position = stop
        window = slice(start, stop)
        return Block(
            self._var_names,
            tuple(column[window] for column in self._buf_columns),
            self._buf_scores[window],
        )

    def next_block(self) -> Block | None:
        if self._exhausted:
            return None
        while True:
            threshold = self._threshold()
            position = self._buf_position
            buffered = len(self._buf_scores) - position
            if buffered and float(self._buf_scores[position]) >= threshold:
                # Rows with score >= threshold form a prefix of the
                # sorted buffer; release it (capped at the block size).
                eligible = int(
                    np.searchsorted(
                        -self._buf_scores[position:], -threshold, side="right"
                    )
                )
                return self._emit(position + eligible)
            if not self._pull_once():
                if buffered:
                    return self._emit(len(self._buf_scores))
                self._exhausted = True
                return None

    def upper_bound(self) -> float:
        if self._exhausted:
            return EXHAUSTED_BOUND
        candidates = []
        if self._buf_position < len(self._buf_scores):
            candidates.append(float(self._buf_scores[self._buf_position]))
        threshold = self._threshold()
        if threshold != EXHAUSTED_BOUND:
            candidates.append(threshold)
        return max(candidates) if candidates else EXHAUSTED_BOUND

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VectorRankJoin(covering={sorted(self._covered)})"
