"""Block-at-a-time HRJN rank join over int64 id columns.

:class:`VectorRankJoin` is the block twin of
:class:`~repro.operators.rank_join.RankJoin` — the same HRJN algorithm
(Ilyas et al., VLDB 2003/04) at block granularity:

* inputs are pulled **one block at a time**, round-robin, preferring a
  non-exhausted side;
* each side accumulates its pulled rows as consolidated id/score arrays
  with their **key order** — the join keys (packed into one int64 per
  row) ascending, and the row each came from.  A side that holds a whole
  stored list adopts the order the list keeps
  (:meth:`~repro.operators.block.EncodedMatchList.key_order`); join
  outputs and list prefixes sort each block once and weave it in;
* a freshly pulled block probes the opposite side with its needles *in
  key order* — sorted into sorted: one ``np.searchsorted`` and an
  equality test when the stored keys are distinct, else the
  ``left``/``right`` pair and a vectorized range expansion — no per-row
  Python, no string hashing;
* join results collect in a score-sorted buffer, and a buffered row is
  released only when its score is at least the HRJN threshold

      T = max(top_left + ub_right, ub_left + top_right)

  evaluated **at block boundaries**.  The threshold bounds the score of
  any join result not yet in the buffer, whatever the pull granularity:
  it only reads the inputs' upper bounds, which are valid for every
  not-yet-pulled row regardless of whether rows arrive one at a time or
  a whole list at a time.  Emitted blocks are therefore globally score-sorted,
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
    KeyOrder,
    TermCodec,
    expand_matches,
    joint_group_ids,
    sorted_key_order,
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
    merged = np.empty(len(new_mask), dtype=np.promote_types(old.dtype, new.dtype))
    merged[new_mask] = new
    merged[~new_mask] = old
    return merged


def _block_key_order(
    block: Block, join_vars: tuple[str, ...], pack_base: int
) -> KeyOrder | None:
    """The rows of *block* in join-key order: its list's stored order
    when the block is a whole stored list, else one argsort of its keys."""
    if block.source is not None:
        return block.source.key_order(join_vars, pack_base)
    return sorted_key_order(
        tuple(block.column(name) for name in join_vars), pack_base, len(block)
    )


class _Side:
    """One join input: its pulled rows, consolidated lazily for probing."""

    __slots__ = (
        "op",
        "join_vars",
        "top",
        "_pending",
        "_n",
        "_columns",
        "_scores",
        "_key_order",
    )

    def __init__(self, op: BlockOperator, join_vars: tuple[str, ...]) -> None:
        self.op = op
        self.join_vars = join_vars
        self.top: float | None = None  # first score seen (HRJN's "top")
        #: Blocks not yet consolidated, each with its key order if known.
        self._pending: list[tuple[Block, KeyOrder | None]] = []
        self._n = 0
        self._columns: dict[str, np.ndarray] = {}
        self._scores = np.empty(0, dtype=np.float64)
        self._key_order: KeyOrder | None = None

    @property
    def n_rows(self) -> int:
        return self._n

    def insert(self, block: Block, key_order: KeyOrder | None = None) -> None:
        """Add a pulled *block*; *key_order* is the block's own, when the
        probe it just made already derived it."""
        if self.top is None and len(block):
            self.top = float(block.scores[0])
        self._pending.append((block, key_order))
        self._n += len(block)

    def _consolidate(self, pack_base: int) -> None:
        names = self.op.var_names
        pending, self._pending = self._pending, []
        n_old = len(self._scores)
        if n_old == 0 and len(pending) == 1:
            # A side that is one block so far — every whole stored list —
            # is that block's arrays, and its key order the block's.
            block = pending[0][0]
            self._columns = {name: block.column(name) for name in names}
            self._scores = block.scores
        else:
            blocks = [block for block, _ in pending]
            self._columns = {
                name: np.concatenate(
                    ([self._columns[name]] if n_old else [])
                    + [block.column(name) for block in blocks]
                )
                for name in names
            }
            self._scores = np.concatenate(
                ([self._scores] if n_old else []) + [block.scores for block in blocks]
            )
        # Incremental merge: each block's sorted run is woven into the
        # existing one — O(n + B) per block instead of a full O(n log n)
        # re-argsort of everything pulled so far.
        for block, key_order in pending:
            if key_order is None:
                key_order = _block_key_order(block, self.join_vars, pack_base)
            if key_order is None:
                self._key_order = None  # unpackable keys, on every block
                return
            if n_old == 0:
                self._key_order = key_order
            else:
                assert self._key_order is not None
                old_keys, old_order, old_distinct = self._key_order
                new_keys, new_order, new_distinct = key_order
                new_mask = _weave_mask(old_keys, new_keys)
                keys = _weave(old_keys, new_keys, new_mask)
                self._key_order = (
                    keys,
                    _weave(old_order, new_order + n_old, new_mask),
                    old_distinct
                    and new_distinct
                    and bool((keys[1:] != keys[:-1]).all()),
                )
            n_old += len(block)

    def probe_arrays(
        self, pack_base: int
    ) -> tuple[dict[str, np.ndarray], np.ndarray, KeyOrder | None]:
        """``(columns, scores, key_order)`` over all pulled rows.

        ``key_order`` is ``None`` when the key domain could not be
        packed into int64; the caller then uses :func:`joint_group_ids`
        per probe.
        """
        if self._pending:
            self._consolidate(pack_base)
        return self._columns, self._scores, self._key_order


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
    def _probe(self, block: Block, own: _Side, other: _Side) -> KeyOrder | None:
        """Join *block* (just pulled from *own*) against *other*'s rows.

        Returns the block's key order when the probe derived one, for
        *own* to keep.
        """
        self._context.joins_attempted += len(block)
        if other.n_rows == 0 or len(block) == 0:
            return None
        if self._pack_base is None:
            # All encoding happened while the leaves were built, so the
            # codec's id domain is final by the first pull.
            self._pack_base = max(self._codec.n_ids, 1)
        columns, scores, stored = other.probe_arrays(self._pack_base)
        # Needles are searched in key order: sorted into sorted walks
        # the stored run once instead of bisecting it afresh per needle.
        if stored is not None:
            needles = _block_key_order(block, self._join_vars, self._pack_base)
            assert needles is not None  # same columns, same base as *stored*
            stored_keys, stored_order, distinct = stored
            probe_keys, probe_order, _ = needles
        else:
            # Exact slow path: joint group ids over both row sets.
            needles = None
            stored_ids, probe_ids = joint_group_ids(
                tuple(columns[name] for name in self._join_vars),
                tuple(block.column(name) for name in self._join_vars),
            )
            stored_order = np.argsort(stored_ids, kind="stable")
            stored_keys = stored_ids[stored_order]
            probe_order = np.argsort(probe_ids, kind="stable")
            probe_keys = probe_ids[probe_order]
            distinct = False
        if distinct:
            # No stored key repeats: a needle matches the one row at its
            # insertion point or nothing.
            slots = np.searchsorted(stored_keys, probe_keys)
            hits = np.nonzero(
                stored_keys[np.minimum(slots, len(stored_keys) - 1)] == probe_keys
            )[0]
            total = matched = len(hits)
            if total == 0:
                return needles
            probe_rows = probe_order[hits]
            stored_rows = stored_order[slots[hits]]
        else:
            lo = np.searchsorted(stored_keys, probe_keys, side="left")
            hi = np.searchsorted(stored_keys, probe_keys, side="right")
            counts = hi - lo
            total = int(counts.sum())
            if total == 0:
                return needles
            matched = int(np.count_nonzero(counts))
            needle_slots, positions = expand_matches(lo, counts)
            probe_rows = probe_order[needle_slots]
            stored_rows = stored_order[positions]
        self._context.joins_matched += matched
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
        return needles

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
        own.insert(block, self._probe(block, own, other))
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
                # sorted buffer — all of it once the inputs have run dry;
                # release it (capped at the block size).
                eligible = (
                    buffered
                    if threshold == EXHAUSTED_BOUND
                    else int(
                        np.searchsorted(
                            -self._buf_scores[position:], -threshold, side="right"
                        )
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
