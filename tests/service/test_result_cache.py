"""The versioned whole-answer result cache, alone and inside the runner.

Covers the cache's own contract (version-keyed hits, LRU bound, eager
sweeps, canonical keys), the WorkloadRunner integration (warm repeats
served without execution, ``apply_updates`` invalidation, executor
independence of entries), the warm-up pre-encoding gate, and the
concurrency property: get/put racing a version bump never serves an
answer computed against a superseded graph version.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.datasets.workload import Workload
from repro.errors import ExperimentError
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import GraphUpdate
from repro.kg.pattern import TriplePattern, Variable
from repro.query.answer import Answer
from repro.query.query import TriplePatternQuery
from repro.service import CachedResult, ResultCache, WorkloadRunner, result_key


@pytest.fixture(autouse=True)
def _restore_shared_graph(tiny_xkg_workload):
    yield
    tiny_xkg_workload.graph.detach_match_list_cache()


def make_result(label: str, score: float = 1.0) -> CachedResult:
    answer = Answer(bindings=(("s", label),), score=score)
    return CachedResult(
        answers=(answer,), n_relaxed=0, plan=f"plan-{label}", executor="tuple"
    )


def tp(type_name: str, var: str = "s") -> TriplePattern:
    return TriplePattern(Variable(var), "rdf:type", type_name)


class TestResultCacheUnit:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(0)

    def test_get_put_roundtrip_and_counters(self):
        cache = ResultCache(capacity=4)
        result = make_result("a")
        assert cache.get("key", 1) is None
        cache.put("key", 1, result)
        assert cache.get("key", 1) is result
        assert "key" in cache and len(cache) == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_version_mismatch_misses_and_drops(self):
        cache = ResultCache(capacity=4)
        cache.put("key", 1, make_result("a"))
        assert cache.get("key", 2) is None  # stale: dropped, counted
        assert "key" not in cache
        assert cache.stats().invalidations == 1

    def test_put_at_newer_version_sweeps_older_entries(self):
        cache = ResultCache(capacity=8)
        cache.put("old1", 1, make_result("a"))
        cache.put("old2", 1, make_result("b"))
        cache.put("new", 2, make_result("c"))
        assert len(cache) == 1 and "new" in cache
        assert cache.stats().invalidations == 2

    def test_purge_stale_reports_count(self):
        cache = ResultCache(capacity=8)
        for i in range(3):
            cache.put(f"k{i}", 5, make_result(str(i)))
        assert cache.purge_stale(5) == 0
        assert cache.purge_stale(6) == 3
        assert len(cache) == 0

    def test_lru_eviction_beyond_capacity(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1, make_result("a"))
        cache.put("b", 1, make_result("b"))
        cache.get("a", 1)  # refresh a: b becomes LRU
        cache.put("c", 1, make_result("c"))
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats().evictions == 1

    def test_clear_forgets_entries_and_version_floor(self):
        cache = ResultCache(capacity=4)
        cache.put("a", 7, make_result("a"))
        cache.clear()
        assert len(cache) == 0
        # After clear() the cache accepts an entry at a *lower* version —
        # that is the point: it is used when the graph object itself is
        # replaced and the counter's meaning resets.
        cache.put("b", 3, make_result("b"))
        assert cache.get("b", 3) is not None


class TestResultKeyCanonicalization:
    def test_name_and_pattern_order_never_split_the_cache(self):
        a, b = tp("singer"), tp("lyricist")
        q1 = TriplePatternQuery((a, b), projection=(Variable("s"),), name="one")
        q2 = TriplePatternQuery((b, a), projection=(Variable("s"),), name="two")
        assert result_key(q1, 5, "sig") == result_key(q2, 5, "sig")

    def test_k_projection_and_signature_always_split_it(self):
        q = TriplePatternQuery((tp("singer"), tp("lyricist", var="o")))
        narrow = TriplePatternQuery(
            (tp("singer"), tp("lyricist", var="o")), projection=(Variable("s"),)
        )
        assert result_key(q, 5, "sig") != result_key(q, 6, "sig")
        assert result_key(q, 5, "sig") != result_key(q, 5, "other")
        assert result_key(q, 5, "sig") != result_key(narrow, 5, "sig")

    def test_variable_names_are_significant(self):
        # Different variable names bind different answer columns; they
        # must not share an entry even though the shapes match.
        q1 = TriplePatternQuery((tp("singer", var="s"),))
        q2 = TriplePatternQuery((tp("singer", var="x"),))
        assert result_key(q1, 5, "sig") != result_key(q2, 5, "sig")


class TestRunnerIntegration:
    def test_rejects_negative_capacity(self, tiny_xkg_workload):
        with pytest.raises(ExperimentError):
            WorkloadRunner(tiny_xkg_workload, result_cache_capacity=-1)

    def test_zero_capacity_disables_the_cache(self, tiny_xkg_workload):
        runner = WorkloadRunner(tiny_xkg_workload, result_cache_capacity=0)
        assert runner.result_cache is None
        report = runner.run(k=5)
        assert "result_cache_hits" not in report.extras

    def test_warm_repeats_hit_whole_answers(self, tiny_xkg_workload):
        runner = WorkloadRunner(tiny_xkg_workload)
        queries = list(tiny_xkg_workload.queries)
        first = runner.run(queries, k=5)
        assert first.extras["result_cache_hits"] == 0
        assert first.extras["result_cache_misses"] == len(queries)
        second = runner.run(queries, k=5)
        assert second.extras["result_cache_hits"] == len(queries)
        assert second.extras["result_cache_misses"] == 0
        assert all(o.executor == "cached" for o in second.outcomes)
        # A hit replays the outcome metadata, not just the answers.
        for before, after in zip(first.outcomes, second.outcomes):
            assert (before.n_answers, before.n_relaxed, before.plan) == (
                after.n_answers,
                after.n_relaxed,
                after.plan,
            )
            assert before.top_score == after.top_score

    def test_hits_serve_identical_answers(self, tiny_xkg_workload):
        runner = WorkloadRunner(tiny_xkg_workload)
        query = tiny_xkg_workload.queries[0]
        executed = runner.execute_query(query, k=5)
        cached = runner.execute_query(query, k=5)
        assert cached == executed
        assert runner.result_cache is not None
        assert runner.result_cache.stats().hits >= 1

    def test_entries_serve_across_executor_toggles(self, tiny_xkg_workload):
        """Answers are executor-independent, so one cached entry keeps
        serving after the runner is toggled to the other pipeline."""
        workload = Workload(
            "toggle",
            ColumnarGraph.from_graph(tiny_xkg_workload.graph, name="toggle"),
            tiny_xkg_workload.rules,
            tiny_xkg_workload.queries,
        )
        runner = WorkloadRunner(workload, executor="tuple")
        queries = workload.queries[:4]
        runner.run(queries, k=5)
        runner.executor = "block"
        report = runner.run(queries, k=5)
        assert report.extras["result_cache_hits"] == len(queries)

    def test_different_k_values_never_share_entries(self, tiny_xkg_workload):
        # PLANGEN replans per k (relaxation decisions depend on it), so a
        # k=1 request after a cached k=5 must be a miss, never a
        # truncated replay of the k=5 entry.
        runner = WorkloadRunner(tiny_xkg_workload)
        query = tiny_xkg_workload.queries[0]
        top5 = runner.execute_query(query, k=5)
        top1 = runner.execute_query(query, k=1)
        assert len(top5) <= 5 and len(top1) <= 1
        assert runner.result_cache is not None
        stats = runner.result_cache.stats()
        assert stats.hits == 0 and stats.misses == 2
        assert len(runner.result_cache) == 2

    def test_apply_updates_invalidates_cached_answers(
        self, tiny_xkg_workload
    ):
        workload = Workload(
            "invalidate",
            ColumnarGraph.from_graph(tiny_xkg_workload.graph, name="inv"),
            tiny_xkg_workload.rules,
            tiny_xkg_workload.queries,
        )
        queries = workload.queries[:6]
        runner = WorkloadRunner(workload)
        runner.run(queries, k=5)
        runner.apply_updates([GraphUpdate.add("s_new", "p_new", "o_new", 1.0)])
        report = runner.run(queries, k=5)
        # Every cached entry described the pre-update graph: all misses.
        assert report.extras["result_cache_hits"] == 0
        assert report.extras["result_cache_misses"] == len(queries)
        again = runner.run(queries, k=5)
        assert again.extras["result_cache_hits"] == len(queries)


class TestWarmUpEncodesThroughPlanning:
    """warm_up counts join cardinalities over the runner's shared encoded
    store, so it leaves every workload pattern encoded exactly once —
    whatever the executor or backend, with no separate pre-encoding pass."""

    @pytest.mark.parametrize("mode", ["tuple", "block", "auto"])
    def test_columnar_runner_holds_every_pattern(self, tiny_xkg_workload, mode):
        workload = Workload(
            f"warm-{mode}",
            ColumnarGraph.from_graph(tiny_xkg_workload.graph, name=f"warm-{mode}"),
            tiny_xkg_workload.rules,
            tiny_xkg_workload.queries,
        )
        runner = WorkloadRunner(workload, executor=mode)
        runner.warm_up()
        patterns = {p for q in workload.queries for p in q.patterns}
        stats = runner.encoded_store.stats()
        assert stats["size"] == stats["misses"] == len(patterns)

    def test_object_backend_encodes_through_the_side_table(self, tiny_xkg_workload):
        # No id columns to slice: the codec interns every term, and the
        # counts still come from the shared store.
        runner = WorkloadRunner(tiny_xkg_workload, executor="block")
        runner.warm_up()
        patterns = {p for q in tiny_xkg_workload.queries for p in q.patterns}
        assert len(runner.encoded_store) == len(patterns)
        assert runner.catalog.cardinalities._lists is runner.encoded_store


class TestConcurrencyNeverServesStale:
    def test_version_bump_racing_readers(self):
        """Hammer get/put from a pool while a writer bumps the version:
        every hit must carry the exact version the reader asked for."""
        cache = ResultCache(capacity=64)
        current_version = [1]
        stop = threading.Event()
        violations: list[tuple[int, str]] = []
        keys = [f"q{i}" for i in range(8)]

        def reader(worker: int) -> int:
            served = 0
            while not stop.is_set():
                for key in keys:
                    version = current_version[0]
                    hit = cache.get(key, version)
                    if hit is None:
                        cache.put(key, version, make_result(f"v{version}"))
                    else:
                        served += 1
                        expected = f"v{version}"
                        got = hit.answers[0].as_dict()["s"]
                        # The entry we were handed must have been
                        # computed at the version we asked for — a
                        # stale-version answer here is the bug the
                        # versioned cache exists to prevent.
                        if got != expected:
                            violations.append((worker, f"{got} != {expected}"))
            return served

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(reader, w) for w in range(4)]
            for bump in range(2, 30):
                current_version[0] = bump
                cache.purge_stale(bump)
            stop.set()
            served = sum(f.result() for f in futures)

        assert not violations
        assert served > 0  # the race actually exercised the hit path

    def test_runner_batches_race_apply_updates(self, tiny_xkg_workload):
        """Interleave query batches with update batches from another
        thread; every batch's answers must equal a fresh uncached run
        against the graph state that batch observed."""
        workload = Workload(
            "race",
            ColumnarGraph.from_graph(tiny_xkg_workload.graph, name="race"),
            tiny_xkg_workload.rules,
            tiny_xkg_workload.queries,
        )
        runner = WorkloadRunner(workload, n_workers=2)
        queries = workload.queries[:4]
        errors: list[str] = []

        def write(round_index: int) -> None:
            runner.apply_updates(
                [
                    GraphUpdate.add(
                        f"rs{round_index}", "race:p", f"ro{round_index}", 2.0
                    )
                ]
            )

        for round_index in range(5):
            writer = threading.Thread(target=write, args=(round_index,))
            writer.start()
            runner.run(queries, k=5)
            writer.join()
            # The gate serialized us against the writer: whatever side
            # won, the batch's answers must match an uncached runner at
            # the *current* version (the writer has joined, so if it won
            # the race our batch saw the post-update graph; if we won,
            # re-running now reflects the update and cached entries are
            # version-stale — either way no stale answer may surface).
            oracle = WorkloadRunner(
                Workload("oracle", runner.graph, workload.rules, queries),
                result_cache_capacity=0,
            )
            check = runner.run(queries, k=5)
            fresh = oracle.run(queries, k=5)
            got = [(o.n_answers, o.top_score) for o in check.outcomes]
            want = [(o.n_answers, o.top_score) for o in fresh.outcomes]
            if got != want:
                errors.append(f"round {round_index}: {got} != {want}")
        assert not errors
