"""Batch execution of query workloads over one shared engine substrate.

The reproduction's single-query path builds everything per engine: the
statistics catalog, the shape indexes, the sorted match lists.  A serving
system executes *workloads* — hundreds of queries against one graph — so
those structures must be built once and shared.  :class:`WorkloadRunner`
owns that sharing:

* one :class:`~repro.stats.catalog.StatisticsCatalog`, built (and
  precomputed over the workload's patterns) once, refreshed as the graph moves;
* one :class:`~repro.operators.block.EncodedListStore` of encoded match
  lists, so identical triple patterns across queries are encoded once;
* one block :class:`~repro.core.engine.SpecQPEngine` over them, whose
  planner's decision memo replays a repeated query's plan (the normal
  case in served traffic) while the statistics it read are unchanged;
* one whole-answer :class:`~repro.service.result_cache.ResultCache` in
  front of that engine.

Queries of a batch run inline on the calling thread; callers that serve
from several threads of their own share the runner's substrate behind
its reader-writer gate.  The per-query path that builds everything
afresh is :meth:`repro.core.engine.SpecQPEngine.query`, on the same
block pipeline; the runner's answers are checked against the oracle,
:meth:`repro.baselines.naive.NaiveEngine.evaluate` of the same plan.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterable, Sequence

from repro.core.config import EngineConfig
from repro.core.engine import SpecQPEngine
from repro.datasets.workload import Workload
from repro.errors import ExperimentError
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.operators.block import EncodedListStore
from repro.query.answer import Answer
from repro.query.query import TriplePatternQuery
from repro.service.cache import DEFAULT_CAPACITY, MatchListCache
from repro.service.report import QueryOutcome, WorkloadReport
from repro.service.result_cache import (
    DEFAULT_RESULT_CAPACITY,
    CachedResult,
    ResultCache,
    result_key,
)
from repro.stats.catalog import StatisticsCatalog


class _BatchGate:
    """A writer-preferring reader-writer gate between batches and updates.

    Batches are readers (many at once), :meth:`WorkloadRunner.apply_updates`
    is the writer: it waits for every in-flight batch to finish on the old
    graph version, blocks new batches while it mutates, then lets them in
    on the new version — the epoch-swap discipline that keeps the "graph
    is static during a batch" serving contract intact under live writes.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writers_waiting = 0
        self._writing = False

    @contextmanager
    def reader(self):
        with self._condition:
            while self._writing or self._writers_waiting:
                self._condition.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._condition:
                self._readers -= 1
                self._condition.notify_all()

    @contextmanager
    def writer(self):
        with self._condition:
            self._writers_waiting += 1
            while self._readers or self._writing:
                self._condition.wait()
            self._writers_waiting -= 1
            self._writing = True
        try:
            yield
        finally:
            with self._condition:
                self._writing = False
                self._condition.notify_all()


class WorkloadRunner:
    """Executes batches of queries through one shared Spec-QP substrate.

    Parameters
    ----------
    workload:
        The graph + rules + default query set to serve.
    config:
        Engine knobs; defaults reproduce the paper.
    n_workers:
        Accepts only ``1``; any other value raises.  Queries run inline:
        on a 2-hardware-thread VM a warm 400-query block batch over the
        ``large`` XKG graph (result cache off) served a median 2 602 qps
        on 1 worker thread, 1 213 on 2 and 1 095 on 4, so the pool that
        used to sit here was deleted.  The parameter stays only for
        ``bench/bench_serve.py``, which passes ``n_workers=1``, until
        ROADMAP item 11(b) re-points that harness and drops it there.
    cache_capacity:
        Entry bound of the encoded list store (and of :attr:`cache`);
        must be ``>= 1``.
    shards:
        Accepts only ``1``; any other value raises.  Like ``n_workers``,
        it stays only for ``bench/bench_serve.py`` until ROADMAP item
        11(b).
    compact_threshold:
        Passed to the :class:`~repro.kg.delta.LiveGraph` the first
        :meth:`apply_updates` call wraps the served graph in: the delta
        auto-compacts into a fresh base once it holds this many pending
        mutations (``None`` = only explicit compaction).
    executor:
        Accepts only ``"auto"``; any other value raises.  The runner
        serves the block pipeline, and each report row names it
        (``"block"``, or ``"cached"`` for a result-cache hit).  The
        tuple pipeline stays the reference, run only through
        ``SpecQPEngine(..., executor="tuple")``.  Like ``n_workers``,
        the parameter stays only for ``bench/bench_serve.py`` until
        ROADMAP item 11(b).
    result_cache_capacity:
        Entry bound of the versioned whole-answer
        :class:`~repro.service.result_cache.ResultCache` in front of
        the engine: a warm repeat of ``(query, k)`` at an unchanged
        graph version skips planning and execution entirely.  ``0``
        disables result caching (every query executes).  Invalidation is
        driven by the graph's monotone version counter plus the
        :meth:`apply_updates` writer gate, so a cached hit is always an
        answer the current graph version would produce.
    worker_model:
        Accepts only ``"thread"``; any other value raises.  It stays
        only for ``bench/bench_serve.py`` until ROADMAP item 11(b).

    The runner assumes the graph is not mutated *during* a batch, and
    :meth:`apply_updates` enforces that: batches and update batches go
    through a reader-writer gate, so queries in flight on other threads
    finish on the old graph version before the write lands and the
    version bump drives every invalidation (result cache sweep,
    targeted list-store and catalog refresh).  External mutations
    between batches are still picked up automatically: the caches are
    version-tagged and the catalog refreshes itself whenever the graph
    version moved, and the planner's decision memo checks every
    statistic a decision read.  Rules added to the workload's
    :class:`~repro.relax.rules.RuleSet` are picked up too: decisions are
    keyed on :attr:`RuleSet.version <repro.relax.rules.RuleSet.version>`
    and answers on the rule set's content.
    """

    def __init__(
        self,
        workload: Workload,
        config: EngineConfig | None = None,
        n_workers: int = 1,
        cache_capacity: int = DEFAULT_CAPACITY,
        shards: int = 1,
        compact_threshold: int | None = None,
        executor: str = "auto",
        result_cache_capacity: int = DEFAULT_RESULT_CAPACITY,
        worker_model: str = "thread",
    ) -> None:
        if n_workers != 1:
            raise ExperimentError(f"n_workers must be 1, got {n_workers}")
        if cache_capacity < 1:
            raise ExperimentError(f"cache_capacity must be >= 1, got {cache_capacity}")
        if shards != 1:
            raise ExperimentError(f"shards must be 1, got {shards}")
        if worker_model != "thread":
            raise ExperimentError(
                f"worker_model must be 'thread', got {worker_model!r}"
            )
        if executor != "auto":
            raise ExperimentError(f"executor must be 'auto', got {executor!r}")
        if result_cache_capacity < 0:
            raise ExperimentError(
                f"result_cache_capacity must be >= 0, got {result_cache_capacity}"
            )
        self.workload = workload
        self.config = config or EngineConfig()
        self._graph = workload.graph
        #: Never attached by the runner: it stays for ``bench/``, which
        #: reads its stats and hands it to its own traced engine, so the
        #: live wrap releases it and every update batch purges it, until
        #: ROADMAP item 11(b).
        self.cache = MatchListCache(cache_capacity)
        self.compact_threshold = compact_threshold
        #: The whole-answer cache in front of the engine (``None`` when
        #: disabled).  Keys fold in the *plan signature* below, so an
        #: entry can only ever be replayed under the exact planning
        #: inputs that produced it.
        self.result_cache: ResultCache | None = (
            ResultCache(result_cache_capacity) if result_cache_capacity else None
        )
        self._plan_signature: tuple[int, object] = (-1, None)  # see _signature
        #: One bounded store of encoded (id-column) match lists, so a
        #: pattern is encoded once per runner until a write touches it.
        self.encoded_store = EncodedListStore(cache_capacity)
        #: The engine every read serves through (its planner's memo is
        #: locked; its executor keeps no state between queries); built
        #: by :meth:`warm_up`.
        self._engine: SpecQPEngine | None = None
        self._gate = _BatchGate()
        self._updates = {
            "update_batches": 0,
            "updates_applied": 0,
            "update_removes_absent": 0,
            "update_compactions": 0,
            "update_cache_purged": 0,
            "update_results_purged": 0,
            "update_stats_dropped": 0,
            "update_stats_kept": 0,
            "update_lists_dropped": 0,
            "update_lists_patched": 0,
            "update_lists_kept": 0,
            "update_seconds": 0.0,
        }

    # ------------------------------------------------------------------
    # Shared substrate
    # ------------------------------------------------------------------
    @property
    def graph(self):
        """The served graph — the workload's, or its live overlay."""
        return self._graph

    @property
    def catalog(self) -> StatisticsCatalog:
        """The shared catalog, built lazily once per served graph object."""
        if self._engine is None:
            self.warm_up()
        assert self._engine is not None
        return self._engine.catalog

    def warm_up(self, queries: Sequence[TriplePatternQuery] | None = None) -> float:
        """Build the engine and its catalog; precompute workload statistics.

        Returns the wall seconds spent — reported as ``warmup_seconds`` so
        throughput numbers stay honest about the offline phase.
        """
        queries = list(queries if queries is not None else self.workload.queries)
        started = time.perf_counter()
        self._engine = SpecQPEngine(
            self.graph,
            self.workload.rules,
            self.config,
            encoded_store=self.encoded_store,
        )
        # The engine's catalog counts joins over the lists of the store
        # the block pipeline serves from, so this precompute leaves every
        # workload pattern encoded for the first batch.
        self._engine.catalog.precompute(queries=queries)
        return time.perf_counter() - started

    def _prepare(self, queries: Sequence[TriplePatternQuery] | None = None) -> float:
        """Warm up on first use (returns its seconds)."""
        return self.warm_up(queries) if self._engine is None else 0.0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        queries: Sequence[TriplePatternQuery] | None = None,
        k: int | None = None,
    ) -> WorkloadReport:
        """Execute *queries* (default: the workload's set) end to end,
        through the shared caches."""
        queries = list(queries if queries is not None else self.workload.queries)
        if not queries:
            raise ExperimentError("cannot run an empty batch")
        k = self._resolve_k(k)
        with self._gate.reader():
            return self._run_warm(queries, k)

    def _resolve_k(self, k: int | None) -> int:
        """*k*, or the config's when ``None``; ``0`` is not a default."""
        if k is None:
            return self.config.k
        if k < 1:
            raise ExperimentError(f"k must be >= 1, got {k}")
        return k

    def _run_warm(
        self, queries: Sequence[TriplePatternQuery], k: int
    ) -> WorkloadReport:
        warmup_seconds = self._prepare(queries)
        plans_before = self._engine.planner.memo_stats()
        result_before = (
            self.result_cache.stats() if self.result_cache is not None else None
        )
        encoded_before = self.encoded_store.stats()

        started = time.perf_counter()
        outcomes = [self._serve_warm(query, k)[0] for query in queries]
        wall = time.perf_counter() - started

        plans = self._engine.planner.memo_stats()
        encoded_after = self.encoded_store.stats()
        extras: dict[str, object] = {
            # The planner's decision memo, under the plan cache's old names.
            "plan_cache_hits": plans["hits"] - plans_before["hits"],
            "plan_cache_size": plans["size"],
            "encoded_list_hits": encoded_after["hits"] - encoded_before["hits"],
            "encoded_list_misses": encoded_after["misses"] - encoded_before["misses"],
            "merged_list_hits": (
                encoded_after["merged_hits"] - encoded_before["merged_hits"]
            ),
            "merged_list_misses": (
                encoded_after["merged_misses"] - encoded_before["merged_misses"]
            ),
            "merged_list_size": encoded_after["merged_size"],
        }
        if result_before is not None:
            result_delta = self.result_cache.stats().since(result_before)
            extras["result_cache_hits"] = result_delta.hits
            extras["result_cache_misses"] = result_delta.misses
            extras["result_cache_size"] = result_delta.size
        if self._updates["update_batches"]:
            extras.update(self.update_stats)
            extras["graph_version"] = self.graph.version

        return WorkloadReport(
            outcomes=tuple(outcomes),
            wall_seconds=wall,
            warmup_seconds=warmup_seconds,
            dataset=self.workload.name,
            extras=extras,
        )

    def execute_query(
        self, query: TriplePatternQuery, k: int | None = None
    ) -> tuple[Answer, ...]:
        """One query through the full warm substrate, answers included.

        The single-query twin of :meth:`run`: same reader gate,
        same result cache and engine — but the
        return value is the complete top-k answer tuple rather than a
        report row, which is what equivalence tests and callers that
        need the bindings themselves want.
        """
        k = self._resolve_k(k)
        with self._gate.reader():
            self._prepare()
            return self._serve_warm(query, k)[1]

    def _signature(self) -> tuple[int, object]:
        """The rules' version and the plan signature taken at it.

        The signature is everything besides (query, k, graph version)
        that determines the answers: the rule set's content and the
        config.  It is rebuilt only when ``RuleSet.version`` moved, so
        result-cache hits compare it by identity.
        """
        rules = self.workload.rules
        version = rules.version  # read before the copy: a racing add re-keys
        state = self._plan_signature
        if state[0] != version:
            state = self._plan_signature = (version, (frozenset(rules), self.config))
        return state

    def _serve_warm(
        self, query: TriplePatternQuery, k: int
    ) -> tuple[QueryOutcome, tuple[Answer, ...]]:
        """One query over the shared substrate, through every cache level.

        Checked in cost order: the whole-answer result cache first (a
        hit skips planning and execution entirely), then PLANGEN (whose
        decision memo replays a repeat while its statistics stand), then
        block execution.
        """
        engine = self._engine  # _prepare built it
        started = time.perf_counter()
        rkey = None
        # Capture the version BEFORE doing any work: if a writer lands
        # mid-flight (impossible through apply_updates, which waits out
        # the batch, but possible for external mutators), the puts below
        # tag their entries with the superseded version and the next
        # lookup misses them — stale answers cannot stick.
        version = self.graph.version
        rules_version, signature = self._plan_signature
        if rules_version != self.workload.rules.version:
            signature = self._signature()[1]
        served = None
        if self.result_cache is not None:
            rkey = result_key(query, k, signature)
            served = self.result_cache.get(rkey, version)
        executor = "cached"
        if served is None:
            executor = "block"
            plan = engine.planner.plan(query, k).plan
            served = CachedResult(
                answers=engine.executor.execute(plan, k).answers,
                n_relaxed=plan.n_relaxed,
                plan=plan.describe(),
                executor=executor,
            )
            if rkey is not None:
                self.result_cache.put(rkey, version, served)
        outcome = QueryOutcome(
            query_name=query.name or str(query),
            k=k,
            n_patterns=len(query),
            seconds=time.perf_counter() - started,
            n_answers=len(served.answers),
            n_relaxed=served.n_relaxed,
            plan=served.plan,
            top_score=served.top_score,
            executor=executor,
        )
        return outcome, served.answers

    # ------------------------------------------------------------------
    # Live updates (the write path)
    # ------------------------------------------------------------------
    def apply_updates(
        self,
        updates: Iterable[GraphUpdate],
        compact: bool = False,
    ) -> dict[str, object]:
        """Apply a batch of mutations to the served graph, coherently.

        Takes the writer side of the batch gate (in-flight query batches
        finish on the old graph version first), wraps the served graph in
        a :class:`~repro.kg.delta.LiveGraph` on first use, applies the
        batch, and drives every invalidation off the resulting version
        bump: the result cache (and :attr:`cache`) is purged, the encoded list store patches the lists
        the batch touched (dropping those it cannot patch exactly:
        :meth:`~repro.operators.block.EncodedListStore.refresh`:
        ``lists_kept`` / ``lists_patched`` / ``lists_dropped``), and the
        statistics catalog drops only the statistics the batch touched
        (:meth:`~repro.stats.catalog.StatisticsCatalog.refresh`:
        ``stats_dropped`` / ``stats_kept`` pattern entries), to recompute
        them from the patched lists.  Pass ``compact=True`` to fold the
        delta into a fresh base afterwards (the runner's
        ``compact_threshold`` also triggers this automatically).

        A batch that raises after landing a prefix (the live graph keeps
        it and moves its version) is still invalidated and counted, and
        the error is re-raised.

        Returns the per-batch counters; cumulative totals appear in the
        next :class:`~repro.service.report.WorkloadReport` extras and in
        :attr:`update_stats`.
        """
        batch = list(updates)
        with self._gate.writer():
            started = time.perf_counter()
            if not isinstance(self._graph, LiveGraph):
                frozen = self._graph
                # A caller's engine may have bound :attr:`cache` to the
                # frozen graph; free it to serve the live wrapper.
                if frozen.match_list_cache is self.cache:
                    frozen.detach_match_list_cache()
                self.cache.release(frozen)
                self.encoded_store.release(frozen)
                if self.result_cache is not None:
                    # Entries describe the frozen graph object; the live
                    # wrapper continues its version counter, so only a
                    # full clear (not a version sweep) is safe here.
                    self.result_cache.clear()
                self._graph = LiveGraph(
                    frozen, compact_threshold=self.compact_threshold
                )
                # Catalog and engine were built over the frozen graph
                # object; the next batch warms up over the live wrapper.
                self._engine = None
            live = self._graph
            compactions_before, version_before = live.compactions, live.version
            counts = {"adds": 0, "removes": 0, "absent_removes": 0}
            failed = True
            try:
                counts = live.apply_updates(batch)
                if compact:
                    live.compact()
                failed = False
            except Exception as error:
                counts = getattr(error, "applied", counts)
                raise
            finally:
                # A batch that raised after landing a prefix moved the
                # version: it is refreshed and counted like any other.
                if not failed or live.version != version_before:
                    result = self._after_batch(live, counts, compactions_before, started)
            return result

    def _after_batch(
        self, live: LiveGraph, counts: dict, compactions_before: int, started: float
    ) -> dict[str, object]:
        """The invalidation a batch drives off its version bump, and its counters."""
        purged = self.cache.purge_stale(live.version)
        results_purged = (
            self.result_cache.purge_stale(live.version)
            if self.result_cache is not None
            else 0
        )
        lists = self.encoded_store.refresh(live)
        refreshed = {"dropped": 0, "kept": 0}
        if self._engine is not None:
            refreshed = self._engine.catalog.refresh()
        seconds = time.perf_counter() - started
        result: dict[str, object] = {
            **counts,
            "compacted": live.compactions > compactions_before,
            "cache_purged": purged,
            "result_cache_purged": results_purged,
            "stats_dropped": refreshed["dropped"],
            "stats_kept": refreshed["kept"],
            "lists_dropped": lists["dropped"],
            "lists_patched": lists["patched"],
            "lists_kept": lists["kept"],
            "seconds": seconds,
            "graph_version": live.version,
        }
        updates = self._updates
        updates["update_batches"] += 1
        updates["updates_applied"] += counts["adds"] + counts["removes"]
        updates["update_removes_absent"] += counts["absent_removes"]
        updates["update_compactions"] = live.compactions
        updates["update_cache_purged"] += purged
        updates["update_results_purged"] += results_purged
        updates["update_stats_dropped"] += refreshed["dropped"]
        updates["update_stats_kept"] = refreshed["kept"]
        updates["update_lists_dropped"] += lists["dropped"]
        updates["update_lists_patched"] += lists["patched"]
        updates["update_lists_kept"] = lists["kept"]
        updates["update_seconds"] += seconds
        return result

    @property
    def update_stats(self) -> dict[str, object]:
        """Cumulative live-update counters since the runner was built."""
        return dict(self._updates)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkloadRunner({self.workload.name!r}, "
            f"result_cache={self.result_cache!r})"
        )
