"""Workload-scale batch execution: shared caches, one pipeline, reports.

The single-query path (:class:`~repro.core.engine.SpecQPEngine`) answers
one query; this package serves *batches* through one shared substrate:

* :class:`ResultCache` — a bounded, thread-safe, version-aware
  whole-answer top-k cache; a hit skips planning and execution entirely
  (see :mod:`repro.service.result_cache`).
* :class:`MatchListCache` — the same discipline over score-sorted string
  match lists, for engines that attach one to their graph; the runner
  serves without it.
* :class:`WorkloadRunner` — executes batches inline through one block
  engine (one catalog, planner memo, encoded list store and result
  cache), and takes writes between batches (``apply_updates``:
  delta-overlay mutations behind a reader-writer gate, with
  version-driven cache and catalog invalidation — see
  :mod:`repro.kg.delta`).
* :class:`WorkloadReport` — latency percentiles, queries/second, cache
  hits and the PLANGEN plan-decision mix for a batch.

Quickstart::

    from repro.datasets import XKGConfig, generate_xkg
    from repro.service import WorkloadRunner

    workload = generate_xkg(XKGConfig(n_entities=800, n_queries=24))
    runner = WorkloadRunner(workload)
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
