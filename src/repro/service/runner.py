"""Batch execution of query workloads over one shared engine substrate.

The reproduction's single-query path builds everything per engine: the
statistics catalog, the shape indexes, the sorted match lists.  A serving
system executes *workloads* — hundreds of queries against one graph — so
those structures must be built once and shared.  :class:`WorkloadRunner`
owns that sharing:

* one :class:`~repro.stats.catalog.StatisticsCatalog`, built (and
  precomputed over the workload's patterns) once, refreshed as the graph moves;
* one :class:`~repro.service.cache.MatchListCache` attached to the graph,
  so identical triple patterns across queries never re-sort;
* one plan cache: PLANGEN is deterministic given the catalog, so repeated
  queries (the normal case in served traffic) skip planning entirely;
* optionally a :class:`~concurrent.futures.ThreadPoolExecutor`, with one
  :class:`~repro.core.engine.SpecQPEngine` per worker thread (operator
  state is per-query, planner/executor objects per worker) over the shared
  catalog and cache.

``run(mode="cold")`` is the control: caches dropped and the catalog
rebuilt before every query, i.e. the per-query cost the single-query path
pays.  :meth:`compare` runs both and reports the speed-up.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Iterable, Literal, Sequence

from repro.core.config import EngineConfig
from repro.core.engine import QueryResult, SpecQPEngine
from repro.core.executor import EXECUTOR_MODES, ExecutorMode
from repro.core.plan import QueryPlan
from repro.datasets.workload import Workload
from repro.errors import ExperimentError
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.operators.block import EncodedListStore
from repro.query.answer import Answer
from repro.query.query import TriplePatternQuery
from repro.service.cache import DEFAULT_CAPACITY, CacheStats, MatchListCache
from repro.service.report import QueryOutcome, WorkloadReport
from repro.service.result_cache import (
    DEFAULT_RESULT_CAPACITY,
    CachedResult,
    ResultCache,
    result_key,
)
from repro.stats.catalog import StatisticsCatalog

CacheMode = Literal["warm", "cold"]


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
        Engine knobs shared by all workers; defaults reproduce the paper.
    n_workers:
        Worker threads for ``mode="warm"`` batches.  ``1`` executes
        inline; higher values share the catalog and match-list cache
        across per-worker engines.  The threads share the GIL, so more
        workers need not mean more throughput: on a 2-hardware-thread VM
        a warm 400-query block batch over the default XKG graph (result
        cache off) served a median ~2 900–4 000 qps on 1 worker,
        ~2 400 on 2 and ~1 900–2 200 on 4.  Cold mode is always
        sequential (it drops shared state between queries, which cannot
        race).
    cache_capacity:
        Entry bound of the shared :class:`MatchListCache` (and of the
        encoded list store and the plan cache); must be ``>= 1``.
    plan_cache:
        Reuse PLANGEN decisions for structurally identical ``(query, k)``
        repeats.  Sound because planning only reads the (shared, warm)
        catalog; disable to force a fresh PLANGEN run per query.  Bounded
        to ``cache_capacity`` entries (LRU), like the match-list cache.
    shards:
        Accepts only ``1``; any other value raises.  It stays only for
        ``bench/bench_serve.py``, which passes ``shards=1``, until ROADMAP
        item 3 re-points that harness and drops it there.
    compact_threshold:
        Passed to the :class:`~repro.kg.delta.LiveGraph` the first
        :meth:`apply_updates` call wraps the served graph in: the delta
        auto-compacts into a fresh base once it holds this many pending
        mutations (``None`` = only explicit compaction).
    executor:
        ``"tuple"``, ``"block"`` or ``"auto"`` — the execution strategy
        every worker engine uses (see
        :class:`~repro.core.engine.SpecQPEngine`).  ``"block"`` is the
        serving pipeline on columnar/live backends, ``"auto"``
        is block wherever the backend has id columns and tuple
        otherwise (each report row names the pipeline that served it),
        ``"tuple"`` the paper-faithful reference.
        Answers are byte-identical under all three.  The attribute is
        settable on a live runner (worker engines are rebuilt, and the
        plan cache keys on the executor kind, so toggling never replays
        state built for the other strategy); the setter takes the same
        writer gate as :meth:`apply_updates`, so it waits for in-flight
        batches — every batch runs, and is reported, under exactly one
        strategy.  Do not toggle from inside a batch.
    result_cache_capacity:
        Entry bound of the versioned whole-answer
        :class:`~repro.service.result_cache.ResultCache` in front of
        both executors: a warm repeat of ``(query, k)`` at an unchanged
        graph version skips planning and execution entirely.  ``0``
        disables result caching (every query executes).  Invalidation is
        driven by the graph's monotone version counter plus the
        :meth:`apply_updates` writer gate, so a cached hit is always an
        answer the current graph version would produce.
    worker_model:
        Accepts only ``"thread"``; any other value raises.  Like
        ``shards``, it stays only for ``bench/bench_serve.py``, which
        passes ``worker_model="thread"``, until ROADMAP item 3 re-points
        that harness and drops both there.

    The runner assumes the graph is not mutated *during* a batch, and
    :meth:`apply_updates` enforces that: batches and update batches go
    through a reader-writer gate, so in-flight queries finish on the old
    graph version before the write lands and the version bump drives
    every invalidation (match-list cache sweep, plan cache clear,
    targeted list-store and catalog refresh).  External mutations
    between batches are still picked up automatically: the caches are
    version-aware, plans are cached per graph version, and the catalog
    refreshes itself whenever the graph version moved.
    """

    def __init__(
        self,
        workload: Workload,
        config: EngineConfig | None = None,
        n_workers: int = 1,
        cache_capacity: int = DEFAULT_CAPACITY,
        plan_cache: bool = True,
        shards: int = 1,
        compact_threshold: int | None = None,
        executor: ExecutorMode = "tuple",
        result_cache_capacity: int = DEFAULT_RESULT_CAPACITY,
        worker_model: str = "thread",
    ) -> None:
        if n_workers < 1:
            raise ExperimentError(f"n_workers must be >= 1, got {n_workers}")
        if cache_capacity < 1:
            raise ExperimentError(f"cache_capacity must be >= 1, got {cache_capacity}")
        if shards != 1:
            raise ExperimentError(f"shards must be 1, got {shards}")
        if worker_model != "thread":
            raise ExperimentError(
                f"worker_model must be 'thread', got {worker_model!r}"
            )
        if executor not in EXECUTOR_MODES:
            raise ExperimentError(
                f"unknown executor {executor!r}; choose from {EXECUTOR_MODES}"
            )
        if result_cache_capacity < 0:
            raise ExperimentError(
                f"result_cache_capacity must be >= 0, got {result_cache_capacity}"
            )
        self.workload = workload
        self.config = config or EngineConfig()
        self.n_workers = n_workers
        self._graph = workload.graph
        self.cache = MatchListCache(cache_capacity)
        self.plan_cache = plan_cache
        self.compact_threshold = compact_threshold
        self._executor: ExecutorMode = executor
        #: The whole-answer cache in front of both executors (``None``
        #: when disabled).  Keys fold in the *plan signature* below, so
        #: an entry can only ever be replayed under the exact planning
        #: inputs that produced it.
        self.result_cache: ResultCache | None = (
            ResultCache(result_cache_capacity) if result_cache_capacity else None
        )
        # Everything besides (query, k, graph version) that determines
        # the answers: the rule set's content and the planner-relevant
        # config.  Rules and config are fixed for a runner's lifetime
        # (like the plan cache, the runner does not support mutating the
        # workload's RuleSet in place), so this is computed once.  The
        # executor is deliberately absent — answers are byte-identical
        # across pipelines, one entry serves them all.
        self._plan_signature = (
            frozenset(workload.rules),
            self.config,
        )
        #: The block twin of :attr:`cache`, shared by every worker
        #: engine: one bounded store of encoded (id-column) match lists,
        #: so a pattern is encoded once per runner until a write touches it.
        self.encoded_store = EncodedListStore(cache_capacity)
        self._plans: OrderedDict[object, QueryPlan] = OrderedDict()
        self._plan_hits = 0
        self._plan_lock = threading.Lock()
        self._catalog: StatisticsCatalog | None = None
        self._local = threading.local()
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
            "update_lists_kept": 0,
            "update_seconds": 0.0,
        }

    @classmethod
    def from_scenario(
        cls, name: str, seed: int | None = None, **kwargs
    ) -> "WorkloadRunner":
        """A runner serving the named scenario pack.

        Builds the pack (``seed=None`` = its frozen default seed), serves
        ``pack.workload``, and defaults the engine ``k`` to the pack's
        ``k`` so edge-of-k packs (``adversarial-edge-k`` ships ``k=25``)
        exercise the regime they were generated for.  The pack itself is
        kept on the runner as :attr:`scenario` so callers can reach its
        update stream (``runner.apply_updates(list(pack.updates))``).
        """
        from repro.datasets.scenarios import build_scenario

        pack = build_scenario(name, seed=seed)
        if "config" not in kwargs:
            kwargs["config"] = EngineConfig(k=pack.k)
        runner = cls(pack.workload, **kwargs)
        runner.scenario = pack
        return runner

    # ------------------------------------------------------------------
    # Shared substrate
    # ------------------------------------------------------------------
    @property
    def graph(self):
        """The served graph — the workload's, or its live overlay."""
        return self._graph

    @property
    def executor(self) -> ExecutorMode:
        """The execution strategy worker engines use (settable)."""
        return self._executor

    @executor.setter
    def executor(self, kind: ExecutorMode) -> None:
        if kind not in EXECUTOR_MODES:
            raise ExperimentError(
                f"unknown executor {kind!r}; choose from {EXECUTOR_MODES}"
            )
        # Take the writer side of the batch gate — the serialization
        # :meth:`apply_updates` uses: in-flight batches finish on the old
        # strategy (and report it in their extras) before the swap lands,
        # so a batch never mixes strategies or mislabels its results.
        # Consequently the toggle must not be issued from inside a batch
        # (it would wait for that batch to finish).
        with self._gate.writer():
            if kind != self._executor:
                self._executor = kind
                # Engines carry per-executor state (codec, encoded-list
                # cache); rebuild them lazily.  Cached plans stay valid —
                # their keys include the executor kind.
                self._local = threading.local()

    @property
    def catalog(self) -> StatisticsCatalog:
        """The shared catalog, built lazily once per served graph object."""
        if self._catalog is None:
            self.warm_up()
        assert self._catalog is not None
        return self._catalog

    def warm_up(self, queries: Sequence[TriplePatternQuery] | None = None) -> float:
        """Build the catalog and precompute workload statistics.

        Returns the wall seconds spent — reported as ``warmup_seconds`` so
        throughput numbers stay honest about the offline phase.
        """
        queries = list(queries if queries is not None else self.workload.queries)
        started = time.perf_counter()
        self.graph.attach_match_list_cache(self.cache)
        self._catalog = StatisticsCatalog(
            self.graph,
            mass_fraction=self.config.mass_fraction,
            histogram_kind=self.config.histogram_kind,  # type: ignore[arg-type]
            n_buckets=self.config.n_buckets,
            selectivity_mode=self.config.selectivity_mode,  # type: ignore[arg-type]
            # Join cardinalities are counted over the lists of the store
            # the block pipeline serves from, so this precompute leaves
            # every workload pattern encoded for the first batch.
            encoded_store=self.encoded_store,
        )
        self._catalog.precompute(queries=queries)
        self._plans.clear()
        self._local = threading.local()  # engines built on the old catalog die
        return time.perf_counter() - started

    def _prepare(self, queries: Sequence[TriplePatternQuery] | None = None) -> float:
        """Warm up on first use (returns its seconds), else re-attach the cache."""
        if self._catalog is None:
            return self.warm_up(queries)
        self.graph.attach_match_list_cache(self.cache)
        return 0.0

    def _worker_engine(self) -> SpecQPEngine:
        """The calling thread's engine over the shared catalog and cache."""
        engine = getattr(self._local, "engine", None)
        if engine is None:
            engine = SpecQPEngine(
                self.graph,
                self.workload.rules,
                self.config,
                catalog=self.catalog,
                match_list_cache=self.cache,
                executor=self._executor,
                encoded_store=self.encoded_store,
            )
            self._local.engine = engine
        return engine

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        queries: Sequence[TriplePatternQuery] | None = None,
        k: int | None = None,
        mode: CacheMode = "warm",
    ) -> WorkloadReport:
        """Execute *queries* (default: the workload's set) end to end."""
        queries = list(queries if queries is not None else self.workload.queries)
        if not queries:
            raise ExperimentError("cannot run an empty batch")
        if mode not in ("warm", "cold"):
            raise ExperimentError(f"unknown cache mode {mode!r}")
        k = self._resolve_k(k)

        with self._gate.reader():
            if mode == "cold":
                return self._run_cold(queries, k)
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
        stats_before = self.cache.stats()
        plan_hits_before = self._plan_hits
        result_before = (
            self.result_cache.stats() if self.result_cache is not None else None
        )
        encoded_before = (
            self.encoded_store.stats()
            if self._executor in ("block", "auto")
            else None
        )

        started = time.perf_counter()
        if self.n_workers == 1:
            outcomes = [self._execute_warm(q, k) for q in queries]
        else:
            with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
                outcomes = list(pool.map(lambda q: self._execute_warm(q, k), queries))
        wall = time.perf_counter() - started

        extras: dict[str, object] = {
            "executor": self._executor,
            "plan_cache_hits": self._plan_hits - plan_hits_before,
            "plan_cache_size": len(self._plans),
        }
        if result_before is not None:
            result_delta = self.result_cache.stats().since(result_before)
            extras["result_cache_hits"] = result_delta.hits
            extras["result_cache_misses"] = result_delta.misses
            extras["result_cache_size"] = result_delta.size
        if encoded_before is not None:
            encoded_after = self.encoded_store.stats()
            extras["encoded_list_hits"] = (
                encoded_after["hits"] - encoded_before["hits"]
            )
            extras["encoded_list_misses"] = (
                encoded_after["misses"] - encoded_before["misses"]
            )
            extras["merged_list_hits"] = (
                encoded_after["merged_hits"] - encoded_before["merged_hits"]
            )
            extras["merged_list_misses"] = (
                encoded_after["merged_misses"] - encoded_before["merged_misses"]
            )
            extras["merged_list_size"] = encoded_after["merged_size"]
        if self._updates["update_batches"]:
            extras.update(self.update_stats)
            extras["graph_version"] = self.graph.version

        return WorkloadReport(
            outcomes=tuple(outcomes),
            wall_seconds=wall,
            n_workers=self.n_workers,
            mode="warm",
            cache=self._stats_delta(stats_before, self.cache.stats()),
            warmup_seconds=warmup_seconds,
            dataset=self.workload.name,
            extras=extras,
        )

    def _run_cold(
        self, queries: Sequence[TriplePatternQuery], k: int
    ) -> WorkloadReport:
        """Per-query rebuild of every shared structure (the control)."""
        self.graph.detach_match_list_cache()
        outcomes = []
        started = time.perf_counter()
        for query in queries:
            self.graph.invalidate_caches()
            engine = SpecQPEngine(
                self.graph, self.workload.rules, self.config,
                executor=self._executor,
            )
            outcomes.append(self._execute(engine, query, k))
        wall = time.perf_counter() - started
        self.graph.invalidate_caches()
        return WorkloadReport(
            outcomes=tuple(outcomes),
            wall_seconds=wall,
            n_workers=1,
            mode="cold",
            cache=None,
            dataset=self.workload.name,
        )

    def execute_query(
        self, query: TriplePatternQuery, k: int | None = None
    ) -> tuple[Answer, ...]:
        """One query through the full warm substrate, answers included.

        The single-query twin of ``run(mode="warm")``: same reader gate,
        same result cache, plan cache and per-worker engine — but the
        return value is the complete top-k answer tuple rather than a
        report row, which is what equivalence tests and callers that
        need the bindings themselves want.
        """
        k = self._resolve_k(k)
        with self._gate.reader():
            self._prepare()
            return self._serve_warm(query, k)[1]

    def _execute_warm(self, query: TriplePatternQuery, k: int) -> QueryOutcome:
        return self._serve_warm(query, k)[0]

    def _serve_warm(
        self, query: TriplePatternQuery, k: int
    ) -> tuple[QueryOutcome, tuple[Answer, ...]]:
        """One query over the shared substrate, through every cache level.

        Checked in cost order: the whole-answer result cache first (a
        hit skips planning and execution entirely), then the plan cache
        (structurally identical queries — names aside, order aside,
        queries have set semantics — share one PLANGEN decision; the
        cached plan carries its own query object with the same patterns
        and projection, so execution is unaffected), then execution
        through the pipeline the engine resolves the runner's executor
        mode to.
        """
        engine = self._worker_engine()
        started = time.perf_counter()
        rkey = None
        # Capture the version BEFORE doing any work: if a writer lands
        # mid-flight (impossible through apply_updates, which waits out
        # the batch, but possible for external mutators), the puts below
        # tag their entries with the superseded version and the next
        # lookup misses them — stale answers and plans cannot stick.
        version = self.graph.version
        if self.result_cache is not None:
            rkey = result_key(query, k, self._plan_signature)
            cached = self.result_cache.get(rkey, version)
            if cached is not None:
                seconds = time.perf_counter() - started
                outcome = QueryOutcome(
                    query_name=query.name or str(query),
                    k=k,
                    n_patterns=len(query),
                    seconds=seconds,
                    n_answers=len(cached.answers),
                    n_relaxed=cached.n_relaxed,
                    plan=cached.plan,
                    top_score=cached.top_score,
                    executor="cached",
                )
                return outcome, cached.answers
        plan = None
        kind = engine.resolve_executor(query).executor
        if self.plan_cache:
            # The executor *mode* is part of the key, so toggling
            # ``executor=`` on a shared runner can never replay a plan
            # cached under the other mode; so is the graph version.
            key = (
                frozenset(query.patterns), query.projection, k, self._executor, version
            )
            with self._plan_lock:
                plan = self._plans.get(key)
                if plan is not None:
                    self._plans.move_to_end(key)
                    self._plan_hits += 1
        if plan is None:
            plan = engine.planner.plan(query, k).plan
            if self.plan_cache:
                with self._plan_lock:
                    self._plans[key] = plan
                    self._plans.move_to_end(key)
                    while len(self._plans) > self.cache.capacity:
                        self._plans.popitem(last=False)
        execution = engine.executor.execute(plan, k, executor=kind)
        if rkey is not None:
            self.result_cache.put(
                rkey,
                version,
                CachedResult(
                    answers=execution.answers,
                    n_relaxed=plan.n_relaxed,
                    plan=plan.describe(),
                    executor=kind,
                ),
            )
        seconds = time.perf_counter() - started
        outcome = QueryOutcome(
            query_name=query.name or str(query),
            k=k,
            n_patterns=len(query),
            seconds=seconds,
            n_answers=len(execution.answers),
            n_relaxed=plan.n_relaxed,
            plan=plan.describe(),
            top_score=execution.answers[0].score if execution.answers else 0.0,
            executor=kind,
        )
        return outcome, execution.answers

    @staticmethod
    def _execute(engine: SpecQPEngine, query: TriplePatternQuery, k: int) -> QueryOutcome:
        result: QueryResult = engine.query(query, k)
        return QueryOutcome(
            query_name=query.name or str(query),
            k=k,
            n_patterns=len(query),
            seconds=result.total_seconds,
            n_answers=len(result.answers),
            n_relaxed=result.plan.n_relaxed,
            plan=result.plan.describe(),
            top_score=result.answers[0].score if result.answers else 0.0,
            executor=engine.resolve_executor(query).executor,
        )

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
        bump: the shared match-list cache is eagerly swept
        (:meth:`~repro.service.cache.MatchListCache.purge_stale`), the
        plan and result caches are purged, and the encoded list store
        and the statistics catalog drop only what the batch touched
        (:meth:`~repro.operators.block.EncodedListStore.refresh`:
        ``lists_dropped`` / ``lists_kept``;
        :meth:`~repro.stats.catalog.StatisticsCatalog.refresh`:
        ``stats_dropped`` / ``stats_kept`` pattern entries) instead of
        rebuilding.  Pass ``compact=True`` to fold the delta into
        a fresh base afterwards (the runner's ``compact_threshold`` also
        triggers this automatically).

        Returns the per-batch counters; cumulative totals appear in the
        next :class:`~repro.service.report.WorkloadReport` extras and in
        :attr:`update_stats`.
        """
        batch = list(updates)
        with self._gate.writer():
            started = time.perf_counter()
            if not isinstance(self._graph, LiveGraph):
                frozen = self._graph
                # The cache is bound to the frozen graph; hand it to the
                # live wrapper (its entries describe the superseded view).
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
                self._graph.attach_match_list_cache(self.cache)
                # Catalog and engines were built over the frozen graph
                # object; the next batch warms up over the live wrapper.
                self._catalog = None
                self._local = threading.local()
            live = self._graph
            compactions_before = live.compactions
            counts = live.apply_updates(batch)
            if compact:
                live.compact()
            purged = self.cache.purge_stale(live.version)
            results_purged = (
                self.result_cache.purge_stale(live.version)
                if self.result_cache is not None
                else 0
            )
            with self._plan_lock:
                self._plans.clear()
            lists = self.encoded_store.refresh(live)
            refreshed = {"dropped": 0, "kept": 0}
            if self._catalog is not None:
                refreshed = self._catalog.refresh()
            seconds = time.perf_counter() - started
            result: dict[str, object] = {
                **counts,
                "compacted": live.compactions > compactions_before,
                "cache_purged": purged,
                "result_cache_purged": results_purged,
                "stats_dropped": refreshed["dropped"],
                "stats_kept": refreshed["kept"],
                "lists_dropped": lists["dropped"],
                "lists_kept": lists["kept"],
                "seconds": seconds,
                "graph_version": live.version,
            }
            self._updates["update_batches"] += 1
            self._updates["updates_applied"] += counts["adds"] + counts["removes"]
            self._updates["update_removes_absent"] += counts["absent_removes"]
            self._updates["update_compactions"] = live.compactions
            self._updates["update_cache_purged"] += purged
            self._updates["update_results_purged"] += results_purged
            self._updates["update_stats_dropped"] += refreshed["dropped"]
            self._updates["update_stats_kept"] = refreshed["kept"]
            self._updates["update_lists_dropped"] += lists["dropped"]
            self._updates["update_lists_kept"] = lists["kept"]
            self._updates["update_seconds"] += seconds
            return result

    @property
    def update_stats(self) -> dict[str, object]:
        """Cumulative live-update counters since the runner was built."""
        return dict(self._updates)

    # ------------------------------------------------------------------
    def compare(
        self,
        queries: Sequence[TriplePatternQuery] | None = None,
        k: int | None = None,
    ) -> dict[str, WorkloadReport | float]:
        """Cold batch, then warm batch; returns both plus the speed-up."""
        cold = self.run(queries, k, mode="cold")
        warm = self.run(queries, k, mode="warm")
        speedup = (
            warm.queries_per_second / cold.queries_per_second
            if cold.queries_per_second
            else float("inf")
        )
        return {"cold": cold, "warm": warm, "speedup": speedup}

    @staticmethod
    def _stats_delta(before: CacheStats, after: CacheStats) -> CacheStats:
        """Cache counters attributable to this batch alone."""
        return after.since(before)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkloadRunner({self.workload.name!r}, "
            f"n_workers={self.n_workers}, "
            f"executor={self._executor!r}, cache={self.cache!r})"
        )
