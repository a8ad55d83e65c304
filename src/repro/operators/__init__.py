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

The block-at-a-time vectorized twins (same upper-bound contract, batches
of dictionary-encoded id columns instead of answer objects — see
:mod:`repro.operators.block`):

* :class:`~repro.operators.vector_scan.VectorScan` — leaf scans over
  encoded match lists, including a relaxed pattern's pre-merged list
  (:func:`~repro.operators.block.build_merged_match_list`).
* :class:`~repro.operators.vector_join.VectorRankJoin` — block HRJN rank
  join probing int64 id columns.
* :class:`~repro.operators.block.BlockTopK` — the decoding top-k sink.
"""

from repro.operators.base import Operator
from repro.operators.block import (
    Block,
    BlockOperator,
    BlockTopK,
    EncodedMatchList,
    TermCodec,
    build_encoded_match_list,
    build_merged_match_list,
)
from repro.operators.incremental_merge import IncrementalMerge, WeightedInput
from repro.operators.memory import ExecutionContext
from repro.operators.rank_join import RankJoin
from repro.operators.scan import SortedScan
from repro.operators.topk import TopK
from repro.operators.vector_join import VectorRankJoin
from repro.operators.vector_scan import VectorScan

__all__ = [
    "Block",
    "BlockOperator",
    "BlockTopK",
    "EncodedMatchList",
    "ExecutionContext",
    "IncrementalMerge",
    "Operator",
    "RankJoin",
    "SortedScan",
    "TermCodec",
    "TopK",
    "VectorRankJoin",
    "VectorScan",
    "WeightedInput",
    "build_encoded_match_list",
    "build_merged_match_list",
]
