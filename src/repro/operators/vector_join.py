"""The block executor's joins: whole lists of id columns, vectorised.

:func:`join_lists` joins every row of one list with every row of another
that binds the shared variables to the same ids — the full join, in one
call.  :func:`fold_lists` is the one fold of several lists, and both the
block executor (:meth:`~repro.core.plan.QueryPlan.evaluate_block`) and
PLANGEN's exact join counts
(:class:`~repro.stats.selectivity.JoinCardinalityEstimator`) read it: a
star whose lists all bind one variable alone over an addressable id
domain is joined through one table in one pass (:func:`fold_star`;
every benchmark query is such a star on ``?s``), any other tree
left-deep through :func:`join_lists`.  The executor cuts the final rows
once (:func:`~repro.operators.block.top_k_cut`); a count is their
number.  The tuple :class:`~repro.operators.rank_join.RankJoin` is HRJN,
which stops once its threshold passes the k-th result.  Over whole
stored lists that stop never fired on any measured read, so this join
computes the whole result instead (see ``docs/architecture.md``).

The join finds partners one of two ways, neither with per-row Python or
string hashing:

* **by address** — the key is one variable, one side binds nothing else
  (so its keys are distinct: a list's rows are distinct bindings) and
  the codec's id domain is small against the rows
  (:func:`~repro.operators.block.addressable`): that side's row numbers
  are scattered into a table with one entry per id, and the other
  side's keys gather their partner from it;
* **by sorting** — any other key (several variables, ids too sparse to
  address, keys repeating on both sides): the keys are packed into one
  int64 per row, the left side's put in key order and the right side's
  searched in that run: one ``np.searchsorted`` and an equality test
  when no left key repeats, else the ``left``/``right`` pair and a
  vectorised range expansion.

Scores are ``left + right`` elementwise, the tuple pipeline's left-deep
addition, so the two executors return byte-identical answers after the
shared canonical top-k cut, whatever order the rows come out in.  When
the inputs share no variable the join is a cartesian product (zero key
columns pack to a constant key), mirroring the tuple operator.
"""

from __future__ import annotations

import numpy as np

from repro.kg.columnar import stable_argsort
from repro.operators.block import (
    EncodedMatchList,
    addressable,
    joint_group_ids,
    pack_columns,
)
from repro.operators.memory import ExecutionContext


def fold_lists(
    lists: list[EncodedMatchList], context: ExecutionContext, n_ids: int
) -> EncodedMatchList:
    """The join of *lists*, folded left-deep in their order.

    Each step joins the tree with the first remaining list sharing a
    variable with it, else the first remaining.  A star of two or more
    lists all binding the same one variable, over an id domain
    :func:`~repro.operators.block.addressable` against all their rows,
    folds through one id table (:func:`fold_star`): the same rows, score
    bits and counter moves, with no intermediate list.  *n_ids* is the
    codec's id domain, final once every list is built.
    """
    first, *pending = lists
    if (
        pending
        and len(first.var_names) == 1
        and all(operand.var_names == first.var_names for operand in pending)
        and addressable(n_ids, sum(map(len, lists)))
    ):
        return fold_star(lists, context, n_ids)
    tree = first
    while pending:
        names = set(tree.var_names)
        pick = next(
            (at for at, side in enumerate(pending) if names & set(side.var_names)), 0
        )
        tree = join_lists(tree, pending.pop(pick), context, n_ids)
    return tree


def join_lists(
    left: EncodedMatchList,
    right: EncodedMatchList,
    context: ExecutionContext,
    n_ids: int,
) -> EncodedMatchList:
    """Every matching pair of *left* and *right* rows, in no score order.

    The result binds *left*'s variables, then *right*'s others.  *n_ids*
    is the codec's id domain, final once every list is built: the size
    of an addressed table and the packing base of a multi-variable key.
    The counters advance as HRJN's do when it drains both sides: every
    row of either side is a probe attempt, every *right* row that finds
    a partner a match, and every output row an answer object.
    """
    left_names = set(left.var_names)
    join_vars = tuple(sorted(left_names & set(right.var_names)))
    var_names = left.var_names + tuple(
        name for name in right.var_names if name not in left_names
    )
    context.joins_attempted += len(left) + len(right)
    if not len(left) or not len(right):
        return EncodedMatchList(
            var_names,
            tuple(np.empty(0, dtype=np.int64) for _ in var_names),
            np.empty(0, dtype=np.float64),
        )
    if (
        len(join_vars) == 1
        and join_vars in (left.var_names, right.var_names)
        and addressable(n_ids, len(left) + len(right))
    ):
        left_key, right_key = (
            side.columns[side.var_names.index(join_vars[0])] for side in (left, right)
        )
        if left.var_names == join_vars:
            right_rows, left_rows = _address(left_key, right_key, n_ids)
            matched = len(right_rows)
        else:
            left_rows, right_rows = _address(right_key, left_key, n_ids)
            matched = np.count_nonzero(np.bincount(right_rows))
    else:
        left_rows, right_rows, matched = _sorted_pairs(left, right, join_vars, n_ids)
    context.joins_matched += int(matched)
    context.factory.objects_created += len(left_rows)
    columns = tuple(column[left_rows] for column in left.columns) + tuple(
        right.columns[right.var_names.index(name)][right_rows]
        for name in var_names[len(left.var_names):]
    )
    return EncodedMatchList(
        var_names, columns, left.scores[left_rows] + right.scores[right_rows]
    )


def fold_star(
    lists: list[EncodedMatchList], context: ExecutionContext, n_ids: int
) -> EncodedMatchList:
    """The left-deep :func:`join_lists` fold of *lists*, which all bind
    one variable alone, through one table over the *n_ids* ids.

    The table holds each id's running score and how many lists have
    matched it so far.  Each later list gathers that depth for its ids,
    keeps the rows one step deep, adds their scores and bumps their
    depth: the same sums ``((s1 + s2) + s3)``, rows in the last list's
    row order and counter moves per step as the pairwise fold gives, with
    no intermediate list.  Only ids of depth ``step`` are read from the
    score table, and each was written at that depth, so it starts
    uninitialised.  ``.nonzero()[0]`` is ``np.flatnonzero`` without its
    ``ravel`` call, about 1 µs a step.
    """
    first, *rest = lists
    depth = np.zeros(n_ids, dtype=np.min_scalar_type(len(lists)))
    running = np.empty(n_ids, dtype=np.float64)
    ids, scores = first.columns[0], first.scores
    depth[ids] = 1
    running[ids] = scores
    for step, operand in enumerate(rest, start=1):
        context.joins_attempted += len(ids) + len(operand)
        if not len(ids) or not len(operand):
            ids, scores = ids[:0], scores[:0]
            continue
        rows = (depth[operand.columns[0]] == step).nonzero()[0]
        ids = operand.columns[0][rows]
        scores = running[ids] + operand.scores[rows]
        if step < len(rest):
            running[ids] = scores
            depth[ids] = step + 1
        context.joins_matched += len(rows)
        context.factory.objects_created += len(rows)
    return EncodedMatchList(first.var_names, (ids,), scores)


def _address(
    distinct: np.ndarray, probe: np.ndarray, n_ids: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(probe row, distinct row)`` pairs of equal ids, in probe row
    order: the *distinct* ids' row numbers scattered into a table over
    the *n_ids* ids, then gathered for the *probe* ids."""
    table = np.full(n_ids, -1, dtype=np.intp)
    table[distinct] = np.arange(len(distinct))
    partner = table[probe]
    probe_rows = (partner >= 0).nonzero()[0]
    return probe_rows, partner[probe_rows]


def _sorted_pairs(
    left: EncodedMatchList,
    right: EncodedMatchList,
    join_vars: tuple[str, ...],
    n_ids: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The ``(left row, right row)`` pairs that agree on *join_vars*, and
    how many right rows have a partner: each right key searched, in row
    order, in the left keys' sorted run."""
    left_keys, right_keys = (
        tuple(side.columns[side.var_names.index(name)] for name in join_vars)
        for side in (left, right)
    )
    stored_keys = pack_columns(left_keys, n_ids, n_rows=len(left))
    if stored_keys is None:
        # Exact slow path: joint group ids over both row sets.
        stored_keys, probe_keys = joint_group_ids(left_keys, right_keys)
    else:
        probe_keys = pack_columns(right_keys, n_ids, n_rows=len(right))
    stored_order = stable_argsort(stored_keys)
    stored_keys = stored_keys[stored_order]
    if (stored_keys[1:] != stored_keys[:-1]).all():
        # No left key repeats: a needle matches the one row at its
        # insertion point or nothing.
        slots = np.searchsorted(stored_keys, probe_keys)
        probed = np.flatnonzero(
            stored_keys[np.minimum(slots, len(stored_keys) - 1)] == probe_keys
        )
        return stored_order[slots[probed]], probed, len(probed)
    lo = np.searchsorted(stored_keys, probe_keys, side="left")
    counts = np.searchsorted(stored_keys, probe_keys, side="right") - lo
    # Right row i meets the run's positions lo[i] .. lo[i] + counts[i].
    probed = np.repeat(np.arange(len(counts)), counts)
    positions = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    positions += np.arange(len(probed))
    return stored_order[positions], probed, int(np.count_nonzero(counts))
