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

import os
import shutil
import tempfile
import threading
import time
import weakref
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
from repro.kg.sharding import ShardedGraph, ShardStrategy
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

WorkerModel = Literal["thread", "process"]

#: Worker models ``WorkloadRunner`` accepts.
WORKER_MODELS: tuple[WorkerModel, ...] = ("thread", "process")

#: Updates the master ships per task before re-exporting a fresh
#: snapshot generation (bounds per-chunk pickling of the delta log).
REEXPORT_THRESHOLD = 10_000


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


def _release_fleet(state: dict) -> None:
    """Shut down a process fleet and remove its exported snapshots.

    Module-level (not a bound method) so ``weakref.finalize`` can hold it
    without keeping the runner alive.
    """
    fleet = state.get("fleet")
    if fleet is not None:
        fleet.shutdown(wait=False, cancel_futures=True)
        state["fleet"] = None
    directory = state.get("dir")
    if directory:
        shutil.rmtree(directory, ignore_errors=True)
        state["dir"] = None


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
        across per-worker engines.  Cold mode is always sequential (it
        drops shared state between queries, which cannot race).
    cache_capacity:
        Entry bound of the shared :class:`MatchListCache`.
    plan_cache:
        Reuse PLANGEN decisions for structurally identical ``(query, k)``
        repeats.  Sound because planning only reads the (shared, warm)
        catalog; disable to force a fresh PLANGEN run per query.  Bounded
        to ``cache_capacity`` entries (LRU), like the match-list cache.
    shards:
        When >= 2, serve the workload from a
        :class:`~repro.kg.sharding.ShardedGraph` built over the
        workload's graph: every leaf scan becomes a lazy per-shard merge
        with threshold early termination, and each shard gets its own
        PR-1 match-list cache of ``cache_capacity // shards`` entries —
        *on top of* the shared merged-list cache, which keeps the full
        *cache_capacity*, so a sharded runner retains up to twice the
        budget in match lists.  Answers are identical to unsharded
        serving.
    shard_strategy:
        ``"hash-subject"`` or ``"score-range"``; ``"score-range"`` is
        the throughput choice for top-k workloads (cold shards are
        rarely materialised).
    compact_threshold:
        Passed to the :class:`~repro.kg.delta.LiveGraph` the first
        :meth:`apply_updates` call wraps the served graph in: the delta
        auto-compacts into a fresh base once it holds this many pending
        mutations (``None`` = only explicit compaction).
    executor:
        ``"tuple"``, ``"block"`` or ``"auto"`` — the execution strategy
        every worker engine uses (see
        :class:`~repro.core.engine.SpecQPEngine`).  ``"block"`` is the
        serving pipeline on columnar/sharded/live backends, ``"auto"``
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
        ``"thread"`` (default) serves warm batches on a GIL-sharing
        :class:`ThreadPoolExecutor`.  ``"process"`` serves them on a
        :class:`~concurrent.futures.ProcessPoolExecutor` whose workers
        each mmap-attach **one shared v2 snapshot** of the graph
        (:meth:`~repro.kg.columnar.ColumnarStore.open_mmap`): a single
        physical copy of the columns across all workers, true multi-core
        execution, answers byte-identical to thread serving.  The fleet
        is created lazily on the first warm batch (exporting a snapshot
        to a temp directory unless the graph was itself loaded from a
        ``.kg2`` file, whose path is reused as-is); cold mode stays
        sequential in the master either way.  Live updates reach workers
        by versioned delta shipping — see :meth:`apply_updates` — and
        :meth:`close` (also a context manager) tears the fleet down.
    start_method:
        Multiprocessing start method for the fleet (``"fork"`` where the
        platform offers it, else ``"spawn"``).  Fork is the memory-
        sharing choice: workers also share the interpreter/module pages
        copy-on-write, not just the snapshot mmap.

    The runner assumes the graph is not mutated *during* a batch, and
    :meth:`apply_updates` enforces that: batches and update batches go
    through a reader-writer gate, so in-flight queries finish on the old
    graph version before the write lands and the version bump drives
    every invalidation (match-list cache sweep, plan cache clear,
    targeted list-store and catalog refresh).  External mutations
    between batches are still picked up automatically: the caches are
    version-aware, plans are cached per graph version, and the catalog
    refreshes itself whenever the graph version moved.  Sharded
    runners snapshot the graph at construction time, so they serve the
    triples the workload held when the runner was built.
    """

    def __init__(
        self,
        workload: Workload,
        config: EngineConfig | None = None,
        n_workers: int = 1,
        cache_capacity: int = DEFAULT_CAPACITY,
        plan_cache: bool = True,
        shards: int = 1,
        shard_strategy: ShardStrategy = "score-range",
        compact_threshold: int | None = None,
        executor: ExecutorMode = "tuple",
        result_cache_capacity: int = DEFAULT_RESULT_CAPACITY,
        worker_model: WorkerModel = "thread",
        start_method: str | None = None,
    ) -> None:
        if n_workers < 1:
            raise ExperimentError(f"n_workers must be >= 1, got {n_workers}")
        if shards < 1:
            raise ExperimentError(f"shards must be >= 1, got {shards}")
        if executor not in EXECUTOR_MODES:
            raise ExperimentError(
                f"unknown executor {executor!r}; choose from {EXECUTOR_MODES}"
            )
        if worker_model not in WORKER_MODELS:
            raise ExperimentError(
                f"unknown worker model {worker_model!r}; "
                f"choose from {WORKER_MODELS}"
            )
        if result_cache_capacity < 0:
            raise ExperimentError(
                f"result_cache_capacity must be >= 0, got {result_cache_capacity}"
            )
        self.workload = workload
        self.config = config or EngineConfig()
        self.n_workers = n_workers
        self.shards = shards
        self.shard_strategy = shard_strategy
        if shards > 1:
            self._graph = ShardedGraph.from_graph(
                workload.graph,
                shards,
                strategy=shard_strategy,
                shard_cache_capacity=max(1, cache_capacity // shards),
            )
        else:
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
        #: Process-model state (worker_model="process"): the fleet is a
        #: lazily created ProcessPoolExecutor whose workers mmap-attach
        #: one exported v2 snapshot; ``_proc_log`` is the update log of
        #: the current snapshot generation, shipped with every task.
        self.worker_model: WorkerModel = worker_model
        self.start_method = start_method
        self._fleet = None
        self._fleet_lock = threading.Lock()
        self._proc_generation = 0
        self._proc_snapshot: str | None = None
        self._proc_dir: str | None = None
        self._proc_log: list[GraphUpdate] = []
        # The GC backstop for close(): shuts the pool down and removes
        # the exported snapshots even if the runner is just dropped.
        self._fleet_state: dict = {"fleet": None, "dir": None}
        self._finalizer = weakref.finalize(self, _release_fleet, self._fleet_state)
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
        """The served graph — the workload's, or its sharded snapshot."""
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
                # Process workers are pinned to the spec's executor;
                # drop the fleet so the next batch respawns under the
                # new strategy (the exported snapshot is reused).
                with self._fleet_lock:
                    self._shutdown_fleet()

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
        k = k or self.config.k

        with self._gate.reader():
            if mode == "cold":
                return self._run_cold(queries, k)
            return self._run_warm(queries, k)

    def _run_warm(
        self, queries: Sequence[TriplePatternQuery], k: int
    ) -> WorkloadReport:
        if self.worker_model == "process":
            return self._run_warm_process(queries, k)
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
        shard_stats_before = (
            self.graph.shard_cache_stats() if self.shards > 1 else None
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
        if shard_stats_before is not None:
            shard_delta = self._stats_delta(
                shard_stats_before, self.graph.shard_cache_stats()
            )
            extras["shards"] = self.shards
            extras["shard_strategy"] = self.shard_strategy
            extras["shard_cache_hits"] = shard_delta.hits
            extras["shard_cache_misses"] = shard_delta.misses

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

    # ------------------------------------------------------------------
    # Process-model serving (worker_model="process")
    # ------------------------------------------------------------------
    def _ensure_fleet(self) -> float:
        """Create the process fleet lazily; returns the seconds it took.

        Exports a v2 snapshot of the served graph unless the graph was
        itself attached from a ``.kg2`` file (then that file is shared
        as-is, zero copies anywhere).  Workers attach the snapshot in
        their initializer-built runner on first task.  Thread-safe: warm
        batches run concurrently and must agree on one fleet.
        """
        with self._fleet_lock:
            if self._fleet is not None:
                return 0.0
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            from repro.kg.storage import save_snapshot_v2
            from repro.service import procpool

            started = time.perf_counter()
            if self._proc_snapshot is None:
                source = getattr(
                    getattr(self.workload.graph, "store", None), "source_path", None
                )
                if source and not self._proc_log and os.path.exists(source):
                    self._proc_snapshot = source
                else:
                    self._proc_dir = tempfile.mkdtemp(prefix="spec-qp-fleet-")
                    self._fleet_state["dir"] = self._proc_dir
                    path = os.path.join(
                        self._proc_dir, f"snapshot-g{self._proc_generation}.kg2"
                    )
                    # Export the *current* merged state: the pristine
                    # workload graph normally, the live overlay's merged
                    # view if updates landed before the fleet existed —
                    # either way the log restarts empty.
                    graph = (
                        self._graph
                        if isinstance(self._graph, LiveGraph)
                        else self.workload.graph
                    )
                    save_snapshot_v2(graph, path)
                    self._proc_snapshot = path
                    self._proc_log.clear()
            spec = procpool.WorkerSpec(
                graph_name=self.workload.graph.name,
                rules=self.workload.rules,
                config=self.config,
                cache_capacity=self.cache.capacity,
                plan_cache=self.plan_cache,
                shards=self.shards,
                shard_strategy=self.shard_strategy,
                executor=self._executor,
                warm_queries=tuple(self.workload.queries),
            )
            methods = multiprocessing.get_all_start_methods()
            method = self.start_method or (
                "fork" if "fork" in methods else "spawn"
            )
            self._fleet = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=multiprocessing.get_context(method),
                initializer=procpool._init_worker,
                initargs=(spec,),
            )
            self._fleet_state["fleet"] = self._fleet
            return time.perf_counter() - started

    def _shutdown_fleet(self) -> None:
        """Stop the worker processes (snapshots stay; respawn is lazy)."""
        if self._fleet is not None:
            self._fleet.shutdown(wait=True, cancel_futures=True)
            self._fleet = None
            self._fleet_state["fleet"] = None

    def _reexport_snapshot(self) -> None:
        """Fold the update log into a fresh snapshot generation.

        Called under the writer gate once the log crosses
        :data:`REEXPORT_THRESHOLD`: writes the merged current state as
        ``snapshot-g{N+1}.kg2``, clears the log, and drops the previous
        exported file (workers still mapping it keep serving — a POSIX
        unlink only detaches the name — and re-attach on their next
        task, which names the new generation).
        """
        from repro.kg.storage import save_snapshot_v2

        if self._proc_dir is None:
            self._proc_dir = tempfile.mkdtemp(prefix="spec-qp-fleet-")
            self._fleet_state["dir"] = self._proc_dir
        previous = self._proc_snapshot
        self._proc_generation += 1
        path = os.path.join(
            self._proc_dir, f"snapshot-g{self._proc_generation}.kg2"
        )
        save_snapshot_v2(self._graph, path)
        self._proc_snapshot = path
        self._proc_log.clear()
        if previous and previous.startswith(self._proc_dir):
            try:
                os.unlink(previous)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    def _run_warm_process(
        self, queries: Sequence[TriplePatternQuery], k: int
    ) -> WorkloadReport:
        """Warm batch over the process fleet, order and answers preserved.

        The master fronts the fleet with the result cache (hits never
        cross a process boundary), splits the misses into contiguous
        chunks, and stamps every task with the same
        ``(generation, log length)`` pair — the cross-process version
        barrier: a worker serves a chunk only after replaying exactly
        that log prefix, so one batch is answered at one graph version
        everywhere, mirroring the in-process writer-gate contract.
        """
        from repro.service import procpool

        warmup_seconds = self._ensure_fleet()
        result_before = (
            self.result_cache.stats() if self.result_cache is not None else None
        )
        n_queries = len(queries)
        outcomes: list[QueryOutcome | None] = [None] * n_queries
        answers: list[tuple[Answer, ...] | None] = [None] * n_queries
        version = self.graph.version
        rkeys: list[object | None] = [None] * n_queries
        misses = list(range(n_queries))

        started = time.perf_counter()
        if self.result_cache is not None:
            misses = []
            for index, query in enumerate(queries):
                rkey = result_key(query, k, self._plan_signature)
                rkeys[index] = rkey
                cached = self.result_cache.get(rkey, version)
                if cached is None:
                    misses.append(index)
                    continue
                outcomes[index] = self._cached_outcome(query, k, cached, started)
                answers[index] = cached.answers
        chunk_results = []
        if misses:
            log = tuple(self._proc_log)
            bounds = procpool.make_chunks(len(misses), self.n_workers)
            tasks = [
                procpool.ChunkTask(
                    generation=self._proc_generation,
                    snapshot_path=self._proc_snapshot,  # type: ignore[arg-type]
                    log=log,
                    log_len=len(log),
                    queries=tuple(queries[i] for i in misses[start:stop]),
                    k=k,
                )
                for start, stop in bounds
            ]
            futures = [
                self._fleet.submit(procpool.run_chunk, task) for task in tasks
            ]
            for (start, stop), future in zip(bounds, futures):
                result = future.result()
                chunk_results.append(result)
                for offset, index in enumerate(misses[start:stop]):
                    outcomes[index] = result.outcomes[offset]
                    answers[index] = result.answers[offset]
                    if self.result_cache is not None:
                        self.result_cache.put(
                            rkeys[index],
                            version,
                            CachedResult(
                                answers=result.answers[offset],
                                n_relaxed=result.outcomes[offset].n_relaxed,
                                plan=result.outcomes[offset].plan,
                                executor=result.outcomes[offset].executor,
                            ),
                        )
        wall = time.perf_counter() - started

        extras: dict[str, object] = {
            "executor": self._executor,
            "worker_model": "process",
            "process_generation": self._proc_generation,
            "process_workers_used": len({r.pid for r in chunk_results}),
            "process_worker_pids": sorted({r.pid for r in chunk_results}),
            "process_chunks": len(chunk_results),
            # The versions workers actually served at — the no-mixed-
            # versions oracle: one batch must report at most one entry.
            "process_graph_versions": sorted(
                {r.graph_version for r in chunk_results}
            ),
            "process_attach_seconds": sum(r.attach_seconds for r in chunk_results),
            "plan_cache_hits": sum(r.plan_hits for r in chunk_results),
        }
        if result_before is not None:
            result_delta = self.result_cache.stats().since(result_before)
            extras["result_cache_hits"] = result_delta.hits
            extras["result_cache_misses"] = result_delta.misses
            extras["result_cache_size"] = result_delta.size
        if self._updates["update_batches"]:
            extras.update(self.update_stats)
            extras["graph_version"] = self.graph.version
        if self.shards > 1:
            extras["shards"] = self.shards
            extras["shard_strategy"] = self.shard_strategy

        return WorkloadReport(
            outcomes=tuple(outcomes),  # type: ignore[arg-type]
            wall_seconds=wall,
            n_workers=self.n_workers,
            mode="warm",
            cache=None,  # match-list caches live in the workers
            warmup_seconds=warmup_seconds,
            dataset=self.workload.name,
            extras=extras,
        )

    @staticmethod
    def _cached_outcome(
        query: TriplePatternQuery, k: int, cached: CachedResult, started: float
    ) -> QueryOutcome:
        return QueryOutcome(
            query_name=query.name or str(query),
            k=k,
            n_patterns=len(query),
            seconds=time.perf_counter() - started,
            n_answers=len(cached.answers),
            n_relaxed=cached.n_relaxed,
            plan=cached.plan,
            top_score=cached.answers[0].score if cached.answers else 0.0,
            executor="cached",
        )

    def _serve_query_locally(
        self, query: TriplePatternQuery, k: int
    ) -> tuple[QueryOutcome, tuple[Answer, ...]]:
        """Warm-path single query without the gate — the process-worker
        hot path (a worker's runner is single-owner, so the batch gate
        and the reader lock are the master's concern, not the worker's)."""
        self._prepare()
        return self._serve_warm(query, k)

    def close(self) -> None:
        """Tear down the process fleet and its exported snapshots.

        Idempotent; a no-op for thread runners.  The runner stays
        usable — the next process batch re-exports and respawns.
        """
        with self._fleet_lock:
            self._shutdown_fleet()
            if self._proc_dir is not None:
                shutil.rmtree(self._proc_dir, ignore_errors=True)
                self._fleet_state["dir"] = None
                self._proc_dir = None
            self._proc_snapshot = None

    def __enter__(self) -> "WorkloadRunner":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

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
        k = k or self.config.k
        with self._gate.reader():
            if self.worker_model == "process":
                return self._execute_query_process(query, k)
            self._prepare()
            return self._serve_warm(query, k)[1]

    def _execute_query_process(
        self, query: TriplePatternQuery, k: int
    ) -> tuple[Answer, ...]:
        """Single query through the fleet: a one-query chunk, cache-fronted."""
        from repro.service import procpool

        self._ensure_fleet()
        version = self.graph.version
        rkey = None
        if self.result_cache is not None:
            rkey = result_key(query, k, self._plan_signature)
            cached = self.result_cache.get(rkey, version)
            if cached is not None:
                return cached.answers
        log = tuple(self._proc_log)
        task = procpool.ChunkTask(
            generation=self._proc_generation,
            snapshot_path=self._proc_snapshot,  # type: ignore[arg-type]
            log=log,
            log_len=len(log),
            queries=(query,),
            k=k,
        )
        result = self._fleet.submit(procpool.run_chunk, task).result()
        if rkey is not None:
            outcome = result.outcomes[0]
            self.result_cache.put(
                rkey,
                version,
                CachedResult(
                    answers=result.answers[0],
                    n_relaxed=outcome.n_relaxed,
                    plan=outcome.plan,
                    executor=outcome.executor,
                ),
            )
        return result.answers[0]

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
            executor=str(engine.executor_kind),
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
            if self.worker_model == "process":
                # Versioned delta shipping: the next batch stamps its
                # tasks with this log's length, and workers replay that
                # exact prefix before serving — still under the writer
                # gate here, so no batch observes a half-appended log.
                self._proc_log.extend(batch)
                if (
                    self._proc_snapshot is not None
                    and len(self._proc_log) >= REEXPORT_THRESHOLD
                ):
                    self._reexport_snapshot()
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
        sharding = (
            f", shards={self.shards} ({self.shard_strategy})"
            if self.shards > 1
            else ""
        )
        return (
            f"WorkloadRunner({self.workload.name!r}, "
            f"n_workers={self.n_workers}{sharding}, "
            f"executor={self._executor!r}, cache={self.cache!r})"
        )
