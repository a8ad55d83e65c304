"""The block executor's join: two whole lists of id columns, vectorised.

:func:`join_lists` joins every row of one list with every row of another
that binds the shared variables to the same ids — the full join, in one
call.  The block executor folds a plan's lists left-deep through it in
the order the tuple pipeline's rank joins take
(:meth:`~repro.core.plan.QueryPlan.evaluate_block`) and cuts the final
rows once (:func:`~repro.operators.block.top_k_cut`).  The tuple
:class:`~repro.operators.rank_join.RankJoin` is HRJN, which stops once
its threshold passes the k-th result.  Over whole stored lists that
stop never fired on any measured read, so this join computes the whole
result instead (see ``docs/architecture.md``).

The join probes in key order — sorted into sorted:

* the left side's rows in the order of their join keys (packed into one
  int64 per row): a stored list's kept
  :meth:`~repro.operators.block.EncodedMatchList.key_order`, or a
  previous join's output's — the probe keys it came out in when the two
  joins share their key, else one sort;
* the right side's keys, in their own kept order, are searched in that
  run: one ``np.searchsorted`` and an equality test when no left key
  repeats, else the ``left``/``right`` pair and a vectorised range
  expansion — no per-row Python, no string hashing.

Scores are ``left + right`` elementwise, the tuple pipeline's left-deep
addition, so the two executors return byte-identical answers after the
shared canonical top-k cut.  When the inputs share no variable the join
is a cartesian product (zero key columns pack to a constant key),
mirroring the tuple operator.
"""

from __future__ import annotations

import numpy as np

from repro.operators.block import EncodedMatchList, expand_matches, joint_group_ids
from repro.operators.memory import ExecutionContext


def join_lists(
    left: EncodedMatchList,
    right: EncodedMatchList,
    context: ExecutionContext,
    n_ids: int,
) -> EncodedMatchList:
    """Every matching pair of *left* and *right* rows, in no score order.

    The result binds *left*'s variables, then *right*'s others.  *n_ids*
    is the packing base of a multi-variable key: the codec's id domain,
    final once every list is built.  The counters advance as HRJN's do
    when it drains both sides: every row of either side is a probe
    attempt, every *right* row that finds a partner a match, and every
    output row an answer object.
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
            1.0,
        )
    stored = left.key_order(join_vars, n_ids)
    if stored is not None:
        needles = right.key_order(join_vars, n_ids)
        assert needles is not None  # same columns, same base as *stored*
        stored_keys, stored_order, distinct = stored
        probe_keys, probe_order, probe_distinct = needles
    else:
        # Exact slow path: joint group ids over both row sets.
        stored_ids, probe_ids = joint_group_ids(
            tuple(left.columns[left.var_names.index(name)] for name in join_vars),
            tuple(right.columns[right.var_names.index(name)] for name in join_vars),
        )
        stored_order = np.argsort(stored_ids, kind="stable")
        stored_keys = stored_ids[stored_order]
        probe_order = np.argsort(probe_ids, kind="stable")
        probe_keys = probe_ids[probe_order]
        distinct = False
    if distinct:
        # No left key repeats: a needle matches the one row at its
        # insertion point or nothing.
        slots = np.searchsorted(stored_keys, probe_keys)
        probed = np.nonzero(
            stored_keys[np.minimum(slots, len(stored_keys) - 1)] == probe_keys
        )[0]
        total = matched = len(probed)
        probe_rows = probe_order[probed]
        stored_rows = stored_order[slots[probed]]
    else:
        lo = np.searchsorted(stored_keys, probe_keys, side="left")
        hi = np.searchsorted(stored_keys, probe_keys, side="right")
        counts = hi - lo
        total = int(counts.sum())
        matched = int(np.count_nonzero(counts))
        probed, positions = expand_matches(lo, counts)
        probe_rows = probe_order[probed]
        stored_rows = stored_order[positions]
    context.joins_matched += matched
    context.factory.objects_created += total
    columns = tuple(column[stored_rows] for column in left.columns) + tuple(
        right.columns[right.var_names.index(name)][probe_rows]
        for name in var_names[len(left.var_names):]
    )
    # The scores are final, hence ``max_score=1.0``.
    joined = EncodedMatchList(
        var_names, columns, left.scores[stored_rows] + right.scores[probe_rows], 1.0
    )
    if stored is not None:
        # Needles probed in key order leave the output in key order: a
        # next join on the same key sorts nothing (nor gathers, if none).
        joined.seed_key_order(
            join_vars, n_ids, lambda: probe_keys[probed], distinct and probe_distinct
        )
    return joined
