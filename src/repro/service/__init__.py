"""Workload-scale batch execution: shared caches, worker pools, reports.

The single-query path (:class:`~repro.core.engine.SpecQPEngine`) answers
one query; this package serves *batches* through one shared substrate:

* :class:`MatchListCache` — bounded, thread-safe, version-aware LRU over
  score-sorted match lists, shared by every query of a batch.
* :class:`ResultCache` — the same discipline one level up: a versioned
  whole-answer top-k cache in front of both executors; a hit skips
  planning and execution entirely (see
  :mod:`repro.service.result_cache`).
* :class:`WorkloadRunner` — executes batches sequentially or on a thread
  pool (one shared engine, catalog, planner memo and caches), and
  takes writes between batches (``apply_updates``: delta-overlay
  mutations behind a reader-writer gate, with version-driven cache and
  catalog invalidation — see :mod:`repro.kg.delta`).
* :class:`WorkloadReport` — latency percentiles, queries/second, cache
  hit rates and the PLANGEN plan-decision mix for a batch.

Quickstart::

    from repro.datasets import XKGConfig, generate_xkg
    from repro.service import WorkloadRunner

    workload = generate_xkg(XKGConfig(n_entities=800, n_queries=24))
    runner = WorkloadRunner(workload, n_workers=4)
    report = runner.run(workload.stretched(100))
    print(report.render())
"""

from repro.service.cache import CacheStats, MatchListCache
from repro.service.report import QueryOutcome, WorkloadReport, percentile
from repro.service.result_cache import CachedResult, ResultCache, result_key
from repro.service.runner import WorkloadRunner

__all__ = [
    "CacheStats",
    "CachedResult",
    "MatchListCache",
    "QueryOutcome",
    "ResultCache",
    "WorkloadReport",
    "WorkloadRunner",
    "percentile",
    "result_key",
]
