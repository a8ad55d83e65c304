"""One workload, served and measured in a process of its own.

``run.py`` starts this file once per run, after it has generated the inputs
and the oracle's answers into a directory.  The process attaches the
snapshot, builds the ``WorkloadRunner`` the workload prescribes, and drives
it from one thread in a closed loop: the next request is sent when the
previous one has returned.  With tracing off it times a window of whole
passes of the traffic; with tracing on it does a fixed amount of work, the
second half of it through :class:`RecomposedRunner`, which records a span
around every call into a layer.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import pickle
import statistics
import sys
import time
import traceback
from collections import OrderedDict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.config import EngineConfig  # noqa: E402
from repro.core.engine import SpecQPEngine  # noqa: E402
from repro.datasets.workload import Workload  # noqa: E402
from repro.kg.storage import load_snapshot_v2  # noqa: E402
from repro.metrics.quality import precision_at_k  # noqa: E402
from repro.service.result_cache import CachedResult, result_key  # noqa: E402
from repro.service.runner import WorkloadRunner  # noqa: E402

from bench_inputs import (  # noqa: E402
    K,
    SNAPSHOT_NAME,
    WORKLOADS,
    load_inputs,
    traffic_pass,
    update_pair,
)
from bench_clock import SpeedClock  # noqa: E402
from bench_layers import ORACLE_NAME, answer_signature  # noqa: E402
from bench_spans import Tracer  # noqa: E402

#: A window runs whole passes until its time is up *and* it holds this many
#: read samples, so that ten of them lie beyond the 95th percentile.
MIN_READS = 200

#: Where a served process leaves the reads it served on a modified graph,
#: for ``run.py`` to hand to ``Oracle.check_modified``.
MODIFIED_NAME = "modified_reads.pkl"


def percentile(ordered: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class RecomposedRunner:
    """``WorkloadRunner.execute_query`` and ``apply_updates`` put together
    again from the public functions of the layers they call, with a span
    around each call; a drop-in for the runner in :class:`Session`.

    It shares the served runner's graph, catalog, match-list cache, encoded
    store and result cache; the plan cache is the runner's private state, so
    this class keeps a copy with the same key, bound and invalidation.
    ``trace.recomposition_gap_frac`` reports how far its throughput is from
    the runner's own.
    """

    def __init__(self, runner: WorkloadRunner, tracer: Tracer) -> None:
        self.runner = runner
        self.tracer = tracer
        self.signature = (frozenset(runner.workload.rules), runner.config)
        self.plans: OrderedDict = OrderedDict()
        self.engine: SpecQPEngine | None = None
        self.counts = dict.fromkeys(
            (
                "requests",
                "plan_hits",
                "executed",
                "block",
                "tuples_pulled",
                "answer_objects",
            ),
            0,
        )

    def _engine(self) -> SpecQPEngine:
        runner = self.runner
        catalog = runner.catalog
        engine = self.engine
        if engine is None or engine.graph is not runner.graph or engine.catalog is not catalog:
            engine = self.engine = SpecQPEngine(
                runner.graph,
                runner.workload.rules,
                runner.config,
                catalog=catalog,
                match_list_cache=runner.cache,
                executor="auto",
                encoded_store=runner.encoded_store,
            )
        return engine

    def warm_plans(self, queries: list) -> float:
        """Plan the catalogue into the plan-cache copy, as the runner's
        priming pass did for its own; returns the mean relaxed patterns."""
        return statistics.fmean(self._plan(query, K)[0].n_relaxed for query in queries)

    def _plan(self, query, k: int) -> tuple:
        """The executor choice and PLANGEN, kept in the plan-cache copy."""
        engine, span = self._engine(), self.tracer.span
        with span("core.planner.choose_executor"):
            kind = engine.resolve_executor(query).executor
        with span("core.planner.plan"):
            plan = engine.planner.plan(query, k).plan
        self.plans[self._plan_key(query, k)] = (plan, kind)
        while len(self.plans) > self.runner.cache.capacity:
            self.plans.popitem(last=False)
        return plan, kind

    def adopt_result_cache(self, queries: list) -> None:
        """Re-key the whole-answer cache under this object's plan signature.

        The runner's keys embed its private signature object.  Looked up
        with an equal copy, a hit compares two frozensets of thousands of
        rules element by element instead of by identity, which makes it 25
        times slower than the runner's own; so the entries are read out,
        the cache is cleared and they are put back under this copy's keys.
        """
        cache = self.runner.result_cache
        if cache is None:
            return
        version = self.runner.graph.version
        keys = [result_key(query, K, self.signature) for query in queries]
        held = [(key, cache.get(key, version)) for key in keys]
        cache.clear()
        for key, result in held:
            if result is not None:
                cache.put(key, version, result)

    @staticmethod
    def _plan_key(query, k: int) -> tuple:
        return (frozenset(query.patterns), query.projection, k, "auto")

    def execute_query(self, query, k: int) -> tuple:
        span, counts = self.tracer.span, self.counts
        counts["requests"] += 1
        with span("request", counts["requests"]):
            engine = self._engine()
            cache = self.runner.result_cache
            rkey = None
            version = 0
            if cache is not None:
                version = self.runner.graph.version
                with span("service.result_cache.key"):
                    rkey = result_key(query, k, self.signature)
                with span("service.result_cache.get"):
                    cached = cache.get(rkey, version)
                if cached is not None:
                    return cached.answers
            key = self._plan_key(query, k)
            with span("service.runner.plan_cache"):
                entry = self.plans.get(key)
                if entry is not None:
                    self.plans.move_to_end(key)
            counts["plan_hits"] += entry is not None
            plan, kind = entry or self._plan(query, k)
            with span("core.executor.execute"):
                execution = engine.executor.execute(plan, k, executor=kind)
            counts["executed"] += 1
            counts["block"] += kind == "block"
            counts["tuples_pulled"] += execution.tuples_pulled
            counts["answer_objects"] += execution.answer_objects_created
            if rkey is not None:
                with span("service.result_cache.put"):
                    cache.put(
                        rkey,
                        version,
                        CachedResult(
                            answers=execution.answers,
                            n_relaxed=plan.n_relaxed,
                            plan=plan.describe(),
                            executor=kind,
                        ),
                    )
            return execution.answers

    def apply_updates(self, batch: tuple) -> dict:
        with self.tracer.span("service.runner.apply_updates", -self.counts["requests"]):
            result = self.runner.apply_updates(batch)
        self.plans.clear()
        return result


class Session:
    """One run of one workload: set-up, checks, measurement, metrics."""

    def __init__(self, directory: Path, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.inputs = load_inputs(directory)
        with open(directory / ORACLE_NAME, "rb") as handle:
            oracle = pickle.load(handle)  # written by run.py in this same run
        self.reference = oracle["reference"]
        self.truth = oracle["truth"]
        self.queries = self.inputs["queries"]
        self.snapshot = directory / SNAPSHOT_NAME
        self.tracer = Tracer(enabled=trace)
        #: Every end-to-end time is taken on this clock (bench_clock.py).
        self.clock = SpeedClock()
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.batches = 0
        #: The batch that puts the graph back, while it is modified.
        self.undo: tuple | None = None
        #: Per batch that modified the graph: ``(pair, focus, reads)``, the
        #: reads as ``(catalogue index, served signature)``.
        self.modified_reads: list[tuple[int, tuple, list]] = []
        self.update_results: list[dict] = []
        self.next_pass = 0

    # ------------------------------------------------------------------
    def set_up(self) -> dict[str, float]:
        """Attach, build the runner, warm up, serve the catalogue once."""
        # Everything a long-running server has behind it when a request
        # arrives; the window after it measures the steady state.
        span, clock = self.tracer.span, self.clock
        started = clock.start()
        with span("kg.storage.attach"):
            graph = load_snapshot_v2(self.snapshot, mmap=True)
        attach_s = clock.stop(started)
        started = clock.start()
        with span("service.runner.init"):
            self.runner = WorkloadRunner(
                Workload("xkg", graph, self.inputs["rules"], self.queries),
                config=EngineConfig(k=K),
                n_workers=1,
                shards=1,
                executor="auto",
                worker_model="thread",
                **WORKLOADS[self.workload]["runner"],
            )
        clock.stop(started)
        started = clock.start()
        with span("stats.catalog.warm_up"):
            warmup_s = self.runner.warm_up()
        clock.stop(started)
        if WORKLOADS[self.workload]["traffic"] == "rounds+updates":
            # The first update makes the runner wrap the graph in a live
            # overlay and rebuild its catalog, once in a server's life; a
            # pair of batches here pays that in set-up, not in the window.
            focus = tuple(range(len(self.queries)))
            started = clock.start()
            with span("service.runner.first_updates"):
                for batch in update_pair(self.seed, -1, self.inputs["support"], focus):
                    self.runner.apply_updates(batch)
            clock.stop(started)
        prime_started = time.perf_counter()
        with span("service.runner.prime_pass"):
            served = [self._read(self.runner, index, query)[0]
                      for index, query in enumerate(self.queries)]
        prime_s = time.perf_counter() - prime_started
        clock.close()
        self.precision = self._precision(served)
        return {
            "setup_s": clock.seconds,
            "setup_wall_s": clock.wall,
            "kg.storage.attach_ms": attach_s * 1e3,
            "stats.catalog_warmup_s": warmup_s,
            "service.runner.prime_pass_s": prime_s,
        }

    def _precision(self, served: list) -> float:
        return statistics.fmean(
            precision_at_k(answers or (), truth)
            for answers, truth in zip(served, self.truth)
        )

    # ------------------------------------------------------------------
    def _read(self, server, index: int, query) -> tuple:
        """One read: ``(answers, seconds)``; answers are ``None`` on failure.

        While the graph holds its initial triples the answers are compared
        with the reference here; between an update batch and the batch that
        undoes it they are kept for ``Oracle.check_modified``.
        """
        self.attempted += 1
        started = self.clock.start()
        try:
            answers = server.execute_query(query, K)
        except Exception:  # the run goes on and reports the failure
            traceback.print_exc()
            self.failed += 1
            return None, 0.0
        seconds = self.clock.stop(started)
        if self.undo is not None:
            self.modified_reads[-1][2].append((index, answer_signature(answers)))
        else:
            self.checked += 1
            if answer_signature(answers) != self.reference[index]:
                self.failed += 1
        return answers, seconds

    def _write(self, server, focus: tuple[int, ...]) -> None:
        """Send the next batch of the update stream and check that it landed:
        the graph's version moved, what the batch added is in the graph and
        what it removed is not.  (Scores are not looked up: on a compacted
        base that builds a row index the served path never needs, and the
        reads that follow show a lost re-score anyway.)"""
        self.clock.close()
        batch, self.undo = self.undo, None
        if batch is None:
            pair = self.batches // 2
            batch, self.undo = update_pair(
                self.seed, pair, self.inputs["support"], focus
            )
            self.modified_reads.append((pair, focus, []))
        version = self.runner.graph.version
        started = time.perf_counter()
        result = server.apply_updates(batch)
        result["wall_seconds"] = time.perf_counter() - started
        self.batches += 1
        self.update_results.append(result)
        graph = self.runner.graph
        self.attempted += 1
        if graph.version <= version or not all(
            (update.spo in graph) == (update.op == "+") for update in batch
        ):
            self.failed += 1

    def run_pass(self, server, replay: bool = False) -> list[float]:
        """The next pass of the traffic through *server*; read latencies.

        *replay* sends the reads of the previous pass again, in the same
        order (the update stream goes on), so that two servers can be
        compared on the same work.
        """
        if not replay:
            self.next_pass += 1
        ops = traffic_pass(self.workload, self.seed, self.next_pass - 1, self.queries)
        latencies = []
        for op in ops:
            if op.kind == "read":
                answers, seconds = self._read(server, op.index, op.payload)
                if answers is not None:
                    latencies.append(seconds)
            else:
                self._write(server, op.payload)
        self.clock.close()
        return latencies

    def window(self, seconds: float) -> dict[str, float]:
        """Whole passes through the runner until *seconds* have gone by.

        ``qps`` is the window's reads over their summed service time on the
        speed-corrected clock; ``qps_wall`` is the same over wall time.  It
        is taken over the whole window, not as a median of passes: what is
        left between passes once the machine's speed is corrected for is
        work — which pipeline ``auto`` gave a query depends on what the
        requests before it left in the caches — and that averages out.
        The latency percentiles are wall times, medians over groups of
        consecutive passes that hold at least ``MIN_READS`` reads each (four
        catalogue rounds, or one pass of ``xkg_hot_repeat``).  They are
        reported with the sample counts, not as bounded metrics: see "How
        steady it is here" in README.md.
        """
        clock = self.clock
        corrected_before, wall_before = clock.seconds, clock.wall
        cpu_before, stolen_before = time.process_time(), stolen_seconds()
        groups: list[list[float]] = []
        reads = passes = 0
        started = time.perf_counter()
        while time.perf_counter() - started < seconds or reads < MIN_READS:
            latencies = self.run_pass(self.runner)
            if not latencies:
                break  # every read failed; more passes would not end the loop
            passes += 1
            reads += len(latencies)
            if not groups or len(groups[-1]) >= MIN_READS:
                groups.append([])
            groups[-1].extend(latencies)
        if not reads:
            sys.exit("no read completed: nothing to measure")
        if len(groups) > 1 and len(groups[-1]) < MIN_READS:
            groups[-2].extend(groups.pop())
        for group in groups:
            group.sort()
        info: dict[str, float] = {
            f"latency_p{round(share * 100)}_ms": statistics.median(
                percentile(group, share) for group in groups
            )
            * 1e3
            for share in (0.5, 0.9, 0.95)
        }
        info.update(
            qps=reads / (clock.seconds - corrected_before),
            qps_wall=reads / (clock.wall - wall_before),
            window_s=time.perf_counter() - started,
            window_cpu_s=time.process_time() - cpu_before,
            window_stolen_s=stolen_seconds() - stolen_before,
            read_samples=reads,
            samples_beyond_p95=min(
                len(group) - bisect.bisect_right(group, percentile(group, 0.95))
                for group in groups
            ),
            percentile_groups=len(groups),
            passes=passes,
        )
        return info

    # ------------------------------------------------------------------
    def finish(self) -> None:
        """After the last batch: put the graph back, check what is served."""
        if not self.batches:
            return
        if self.undo is not None:
            self._write(self.runner, ())
        self.attempted += 1
        initial = load_snapshot_v2(self.snapshot, mmap=True)
        if _content(self.runner.graph) != _content(initial):
            self.failed += 1
        served = [self._read(self.runner, index, query)[0]
                  for index, query in enumerate(self.queries)]
        self.precision = self._precision(served)

    def update_metrics(self) -> dict[str, float]:
        """Over every batch of the run; zeros on a workload without writes."""
        results = self.update_results
        seconds = [r["wall_seconds"] for r in results] or [0.0]
        stalls = [r["wall_seconds"] for r in results if r["compacted"]]
        return {
            "service.runner.apply_updates_ms": statistics.median(seconds) * 1e3,
            "service.runner.apply_updates_max_ms": max(seconds) * 1e3,
            "service.cache.purged_per_batch": _ratio(
                sum(r["cache_purged"] for r in results), len(results)
            ),
            "service.result_cache.purged_per_batch": _ratio(
                sum(r["result_cache_purged"] for r in results), len(results)
            ),
            "kg.delta.compactions": float(len(stalls)),
            "kg.delta.compact_stall_ms": max(stalls, default=0.0) * 1e3,
        }


def stolen_seconds() -> float:
    """Seconds the host has run something else on this machine's processors
    while they had work, summed over both, since boot."""
    with open("/proc/stat", encoding="ascii") as handle:
        return int(handle.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """This process's own resident-set high-water mark.

    Not ``ru_maxrss``: that one starts at the parent's peak, and the parent
    holds the oracle and the probes.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _content(graph) -> list[tuple]:
    return sorted((t.subject, t.predicate, t.object, t.score) for t in graph.triples())


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def measure_untraced(session: Session, seconds: float) -> tuple[dict, dict]:
    """The end-to-end metrics of a window with tracing off, and its counts."""
    setup = session.set_up()
    window = session.window(seconds)
    window["setup_wall_s"] = setup["setup_wall_s"]
    # Read before the closing checks, which hold two copies of the graph's
    # triples that a server never would.
    peak = peak_rss_mb()
    session.finish()
    metrics = {
        "qps": window.pop("qps"),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": peak,
        "precision_at_k": session.precision,
    }
    return metrics, window


def measure_traced(session: Session, trace_path: Path | None) -> tuple[dict, dict]:
    """The per-layer metrics the served process can see, and span counts.

    Fixed work, so that the counts repeat exactly: one pass through the
    runner itself, then the same reads through its recomposition.
    """
    metrics = session.set_up()
    del metrics["setup_s"], metrics["setup_wall_s"]
    runner, tracer = session.runner, session.tracer
    untraced = session.run_pass(runner)
    recomposed = RecomposedRunner(runner, tracer)
    relaxed = recomposed.warm_plans(session.queries)
    recomposed.adopt_result_cache(session.queries)
    lists_before = runner.cache.stats()
    encoded_before = runner.encoded_store.stats()
    results_before = runner.result_cache.stats() if runner.result_cache else None
    first_span = len(tracer.spans)
    traced = session.run_pass(recomposed, replay=True)
    lists = runner.cache.stats().since(lists_before)
    encoded = runner.encoded_store.stats()
    result_hit_rate = (
        runner.result_cache.stats().since(results_before).hit_rate
        if results_before
        else 0.0
    )
    covered = tracer.child_seconds()
    layer_seconds = [
        covered.get(index, 0.0)
        for index in range(first_span, len(tracer.spans))
        if tracer.spans[index][0] == "request"
    ]
    chosen = tracer.durations("core.executor.execute")
    session.finish()

    counts = recomposed.counts
    executed = counts["executed"]
    metrics.update(session.update_metrics())
    metrics.update(
        {
            "service.result_cache.hit_rate": result_hit_rate,
            "service.runner.plan_cache_hit_rate": _ratio(counts["plan_hits"], executed),
            "core.planner.relaxed_patterns_per_query": relaxed,
            "core.planner.auto_block_share": _ratio(counts["block"], executed),
            "core.executor.chosen_ms": statistics.median(chosen) * 1e3 if chosen else 0.0,
            "operators.tuples_pulled_per_query": _ratio(counts["tuples_pulled"], executed),
            "operators.answer_objects_per_query": _ratio(
                counts["answer_objects"], executed
            ),
            "service.cache.hit_rate": lists.hit_rate,
            "service.cache.evictions": float(lists.evictions),
            "operators.block.encoded_store.hit_rate": _ratio(
                encoded["hits"] - encoded_before["hits"],
                encoded["hits"] - encoded_before["hits"]
                + encoded["misses"] - encoded_before["misses"],
            ),
            "service.runner.overhead_us": (
                statistics.median(untraced) - statistics.median(layer_seconds)
            ) * 1e6,
            "trace.recomposition_gap_frac": 1.0
            - (len(traced) / sum(traced)) / (len(untraced) / sum(untraced)),
        }
    )
    if trace_path is not None:
        tracer.write_jsonl(trace_path)
    return metrics, {"traced_requests": counts["requests"], "spans": len(tracer.spans)}


def measure(
    directory: Path,
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    trace_path: Path | None = None,
) -> dict:
    """Run *workload* once; returns the result object ``run.py`` reports,
    and with it the reads ``Oracle.check_modified`` has still to check."""
    session = Session(directory, workload, seed, trace)
    if trace:
        metrics, info = measure_traced(session, trace_path)
    else:
        metrics, info = measure_untraced(session, seconds)
    info.update(checked_reads=session.checked, update_batches=session.batches)
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
        "info": info,
        "modified_reads": session.modified_reads,
    }


if __name__ == "__main__":
    directory, workload, seed, seconds, trace, trace_path = sys.argv[1:7]
    result = measure(
        Path(directory),
        workload,
        int(seed),
        float(seconds),
        trace == "1",
        Path(trace_path),
    )
    with open(Path(directory) / MODIFIED_NAME, "wb") as handle:
        pickle.dump(result.pop("modified_reads"), handle)
    print(json.dumps(result))
