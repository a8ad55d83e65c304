"""The oracle and the direct probes of single layers.

Both run in the benchmark's parent process, on their own mmap attach of the
snapshot with their own caches, so they neither warm the served runner nor
count towards the served process's resident set.
"""

from __future__ import annotations

import os
import pickle
import statistics
import time
from pathlib import Path

from repro.core.config import EngineConfig
from repro.core.engine import SpecQPEngine
from repro.kg.delta import LiveGraph
from repro.kg.storage import load_snapshot_v2
from repro.operators.block import EncodedListStore
from repro.service.cache import MatchListCache
from repro.service.result_cache import CachedResult, ResultCache, result_key

from bench_inputs import K, SNAPSHOT_NAME, update_pair

ORACLE_NAME = "oracle.pkl"

#: The tuple pipeline and the TriniT baseline cost ~0.1 s a query at the
#: ``large`` scale, so whatever runs them takes every fourth catalogue query.
PROBE_STRIDE = 4


def answer_signature(answers) -> tuple:
    """What "byte-identical" compares: bindings and exact scores, in order
    (``Answer.__eq__`` ignores the score)."""
    return tuple((answer.bindings, answer.score) for answer in answers)


def _median_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e3


class Oracle:
    """Reference answers and true top-k of every catalogue query.

    The reference is the pinned block pipeline on every query, vouched for
    by the pinned tuple pipeline (the paper-faithful one the test suites use
    as their oracle) on every fourth: the tuple pipeline takes 6 s for the
    catalogue and the time allowed for a run leaves no room for that.  As
    ``auto`` serves most requests through the tuple pipeline today, both
    pipelines meet in most comparisons anyway.  The truth is the TriniT
    plan, also through the block pipeline: only its answers matter here.
    """

    def __init__(self, directory: Path, inputs: dict, kept: Path | None = None) -> None:
        """*kept* is the file an earlier oracle over the same inputs and the
        same program saved: its answers are taken over, not computed again."""
        self.rules = inputs["rules"]
        self.queries = inputs["queries"]
        self.support = inputs["support"]
        self.config = EngineConfig(k=K)
        self.snapshot = directory / SNAPSHOT_NAME
        self.graph = load_snapshot_v2(self.snapshot, mmap=True)
        self.cache = MatchListCache(4096)
        self.tuple_engine = SpecQPEngine(
            self.graph,
            self.rules,
            self.config,
            match_list_cache=self.cache,
            executor="tuple",
        )
        if kept is not None:
            with open(kept, "rb") as handle:
                saved = pickle.load(handle)  # written by save(), in this checkout
            self.reference = saved["reference"]
            self.truth = saved["truth"]
            self.vouched = saved["vouched"]
            self.disagreements = saved["disagreements"]
            return
        block_engine = self._engine("block")
        self.reference = [
            answer_signature(block_engine.query(query, K).answers)
            for query in self.queries
        ]
        self.truth = [
            block_engine.query_trinit(query, K).answers for query in self.queries
        ]
        vouched = range(0, len(self.queries), PROBE_STRIDE)
        #: Comparisons of the two pipelines, and how many of them differed;
        #: ``run.py`` adds them to a run's attempted and failed counts.
        self.vouched = len(vouched)
        self.disagreements = sum(
            answer_signature(self.tuple_engine.query(self.queries[index], K).answers)
            != self.reference[index]
            for index in vouched
        )

    def _engine(self, executor: str) -> SpecQPEngine:
        """Another engine over the oracle's graph, cache and statistics."""
        return SpecQPEngine(
            self.graph,
            self.rules,
            self.config,
            catalog=self.tuple_engine.catalog,
            match_list_cache=self.cache,
            executor=executor,
        )

    def save(self, directory: Path) -> None:
        # Renamed into place: the file's presence tells run.py that the
        # directory is complete.
        unfinished = directory / (ORACLE_NAME + ".tmp")
        with open(unfinished, "wb") as handle:
            pickle.dump(
                {
                    "reference": self.reference,
                    "truth": self.truth,
                    "vouched": self.vouched,
                    "disagreements": self.disagreements,
                },
                handle,
            )
        os.replace(unfinished, directory / ORACLE_NAME)

    def check_modified(self, seed: int, log: list) -> dict[str, int]:
        """Check the reads a run served between a batch and its undo.

        *log* holds, per such batch, its pair number, its focus and the
        ``(catalogue index, served signature)`` of every read that followed.
        The oracle applies the same batch to an overlay of its own over the
        untouched snapshot and answers from a fresh engine with fresh
        caches, so nothing the served runner failed to invalidate can agree
        with it by accident.  ``changed`` counts the reads whose answer the
        batch changed: the ones a stale cache would have got wrong.
        """
        counts = {"compared": 0, "different": 0, "changed": 0}
        for pair, focus, reads in log:
            live = LiveGraph(self.graph)
            live.apply_updates(update_pair(seed, pair, self.support, focus)[0])
            engine = SpecQPEngine(
                live,
                self.rules,
                self.config,
                match_list_cache=MatchListCache(4096),
                executor="block",
            )
            for index, served in reads:
                expected = answer_signature(engine.query(self.queries[index], K).answers)
                counts["compared"] += 1
                counts["different"] += served != expected
                counts["changed"] += expected != self.reference[index]
        return counts

    def parent_layers(self, dataset: dict) -> dict[str, float]:
        """Every per-layer metric measured outside the served process;
        *dataset* is what ``write_inputs`` returned."""
        return {
            "datasets.generate_s": dataset["generate_s"],
            "kg.storage.snapshot_write_s": dataset["snapshot_write_s"],
            "kg.storage.snapshot_bytes_per_triple": (
                dataset["snapshot_bytes"] / dataset["triples"]
            ),
            **self.probe_layers(),
        }

    # ------------------------------------------------------------------
    def probe_layers(self) -> dict[str, float]:
        """Time single layers through their public functions.

        What is timed is each layer's steady-state cost per call, on the
        same inputs on every workload: both pipelines run a plan once before
        they are timed on it (lists resident and encoded, "pre-touched"),
        and PLANGEN is timed on its second call, with its statistics
        computed.
        """
        queries = self.queries
        sample = queries[::PROBE_STRIDE]
        metrics: dict[str, float] = {}

        plan_s = []
        for query in queries:
            self.tuple_engine.plan(query, K)
            started = time.perf_counter()
            self.tuple_engine.plan(query, K)
            plan_s.append(time.perf_counter() - started)
        metrics["core.planner.plan_ms"] = _median_ms(plan_s)

        auto_engine = self._engine("auto")
        started = time.perf_counter()
        for query in queries:
            auto_engine.resolve_executor(query)
        metrics["core.planner.choose_executor_us"] = (
            (time.perf_counter() - started) / len(queries) * 1e6
        )

        signature = (frozenset(self.rules), self.config)
        scratch = ResultCache(4096)
        started = time.perf_counter()
        keys = [result_key(query, K, signature) for query in queries]
        metrics["service.result_cache.key_us"] = (
            (time.perf_counter() - started) / len(queries) * 1e6
        )
        for key in keys:
            scratch.put(key, 0, CachedResult((), 0, "", "tuple"))
        started = time.perf_counter()
        for key in keys:
            scratch.get(key, 0)
        metrics["service.result_cache.get_us"] = (
            (time.perf_counter() - started) / len(keys) * 1e6
        )

        executor = self.tuple_engine.executor
        plans = [self.tuple_engine.plan(query, K).plan for query in sample]
        for kind in ("tuple", "block"):
            seconds = []
            for plan in plans:
                executor.execute(plan, K, executor=kind)  # build or encode, untimed
                started = time.perf_counter()
                executor.execute(plan, K, executor=kind)
                seconds.append(time.perf_counter() - started)
            metrics[f"core.executor.{kind}_ms"] = _median_ms(seconds)

        trinit_s, specqp_s = [], []
        for query in sample:
            started = time.perf_counter()
            auto_engine.query_trinit(query, K)
            trinit_s.append(time.perf_counter() - started)
            started = time.perf_counter()
            auto_engine.query(query, K)
            specqp_s.append(time.perf_counter() - started)
        metrics["baselines.trinit.ms"] = _median_ms(trinit_s)
        metrics["baselines.trinit.speedup"] = sum(trinit_s) / sum(specqp_s)

        # Cold builds, on a third attach that has served nothing yet.
        cold = load_snapshot_v2(self.snapshot, mmap=True)
        patterns = sorted(
            {
                leaf
                for query in queries
                for pattern in query.patterns
                for leaf in (
                    pattern,
                    *(rule.range for rule in self.rules.for_pattern(pattern)),
                )
            },
            key=str,
        )
        build_s, rows = [], 0
        for pattern in patterns:
            started = time.perf_counter()
            rows += len(cold.match_list(pattern))
            build_s.append(time.perf_counter() - started)
        store = EncodedListStore(len(patterns))
        encode_s = []
        for pattern in patterns:
            started = time.perf_counter()
            store.get_or_build(cold, pattern)
            encode_s.append(time.perf_counter() - started)
        metrics["kg.columnar.match_list_build_ms"] = _median_ms(build_s)
        metrics["kg.columnar.match_list_rows"] = float(rows)
        metrics["kg.columnar.distinct_patterns"] = float(len(patterns))
        metrics["operators.block.encode_ms"] = _median_ms(encode_s)
        return metrics
