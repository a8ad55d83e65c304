"""Physical top-k operators (§2.1).

All operators are pull-based: ``next()`` returns the next output in
descending-score order (or ``None`` when exhausted) and ``upper_bound()``
gives the best score any *future* output can still have.  Rank Join uses
the bounds for HRJN-style early termination; Incremental Merge uses them
to merge a pattern's relaxation lists lazily.

* :class:`~repro.operators.scan.SortedScan` — stream a match list.
* :class:`~repro.operators.incremental_merge.IncrementalMerge` — merge the
  original pattern's list with its relaxations' lists (weighted).
* :class:`~repro.operators.rank_join.RankJoin` — HRJN-style binary join.
* :class:`~repro.operators.topk.TopK` — dedup + collect the final top-k.
* :class:`~repro.operators.memory.ExecutionContext` — answer-object
  accounting (the paper's memory metric) and pull statistics.

The vectorized block executor evaluates the same plans over whole lists
of dictionary-encoded id columns instead of answer objects (see
:mod:`repro.operators.block`):

* :class:`~repro.operators.block.EncodedMatchList` — a pattern's match
  list, or a relaxed pattern's pre-merged list
  (:func:`~repro.operators.block.build_merged_match_list`), as id columns.
* :func:`~repro.operators.vector_join.join_lists` — the whole-list join
  probing int64 id columns.
* :func:`~repro.operators.block.top_k_cut` — the decoding top-k cut.
"""

from repro.operators.base import Operator
from repro.operators.block import (
    EncodedMatchList,
    TermCodec,
    build_encoded_match_list,
    build_merged_match_list,
    top_k_cut,
)
from repro.operators.incremental_merge import IncrementalMerge, WeightedInput
from repro.operators.memory import ExecutionContext
from repro.operators.rank_join import RankJoin
from repro.operators.scan import SortedScan
from repro.operators.topk import TopK
from repro.operators.vector_join import join_lists

__all__ = [
    "EncodedMatchList",
    "ExecutionContext",
    "IncrementalMerge",
    "Operator",
    "RankJoin",
    "SortedScan",
    "TermCodec",
    "TopK",
    "WeightedInput",
    "build_encoded_match_list",
    "build_merged_match_list",
    "join_lists",
    "top_k_cut",
]
