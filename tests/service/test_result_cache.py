"""The versioned whole-answer result cache, alone and inside the runner.

Covers canonical keys (the LRU contract itself is in
``test_versioned_lru.py``), the WorkloadRunner integration (warm repeats
served without execution, ``apply_updates`` invalidation), the warm-up
pre-encoding gate, and the concurrency property: get/put racing a
version bump never serves an answer computed against a superseded graph
version.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.engine import SpecQPEngine
from repro.datasets.workload import Workload
from repro.errors import ExperimentError
from repro.kg.columnar import ColumnarGraph, ColumnarStore
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
    whatever the backend, with no separate pre-encoding pass."""

    def test_columnar_runner_holds_every_pattern(self, tiny_xkg_workload):
        workload = Workload(
            "warm",
            ColumnarGraph.from_graph(tiny_xkg_workload.graph, name="warm"),
            tiny_xkg_workload.rules,
            tiny_xkg_workload.queries,
        )
        runner = WorkloadRunner(workload)
        runner.warm_up()
        patterns = {p for q in workload.queries for p in q.patterns}
        stats = runner.encoded_store.stats()
        assert stats["size"] == stats["misses"] == len(patterns)

    def test_object_backend_encodes_through_the_side_table(self, tiny_xkg_workload):
        # No id columns to slice: the codec interns every term, and the
        # counts still come from the shared store.
        runner = WorkloadRunner(tiny_xkg_workload)
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
        """The concurrent-writer oracle.  Two threads serve batches, and
        two more single queries, while the main thread applies update
        batches that move the queries' answers.  Each round's first
        reader holds its query open until the writer has landed (or a
        timeout), so the writer always tries to land mid-batch.  No batch
        is served at two graph versions; after every round each answer —
        bindings and scores — equals the tuple reference over the graph
        at that version; and after the race the runner answers exactly as
        a runner that applied the same batches with no reader running."""
        workload = Workload(
            "race",
            ColumnarGraph.from_graph(tiny_xkg_workload.graph, name="race"),
            tiny_xkg_workload.rules,
            tiny_xkg_workload.queries,
        )
        queries = workload.queries[:8]
        batches = [
            race_batch(workload.graph, query, round_index)
            for round_index, query in enumerate(queries[:4])
        ]
        runner = WorkloadRunner(workload)
        before = [signature(runner.execute_query(q, 5)) for q in queries]
        errors: list[BaseException] = []
        # Batch tag -> every graph version one of its queries saw.
        versions: dict[str, set[int]] = {}
        in_flight = [threading.Event() for _ in batches]
        landed = [threading.Event() for _ in batches]
        serve_warm = runner._serve_warm

        def recording_serve(query, k):
            if "/" not in query.name:  # the checks below, not a reader's
                return serve_warm(query, k)
            tag = query.name.split("/")[0]
            seen = versions.setdefault(tag, set())
            seen.add(runner.graph.version)
            round_index = int(tag.split(".")[0])
            if not in_flight[round_index].is_set():
                # The gate must keep the writer out while this is held.
                in_flight[round_index].set()
                landed[round_index].wait(timeout=0.25)
            served = serve_warm(query, k)
            seen.add(runner.graph.version)
            return served

        runner._serve_warm = recording_serve

        def serve(tag: str) -> None:
            try:
                for run in range(3):
                    batch = [
                        TriplePatternQuery(
                            q.patterns, q.projection, name=f"{tag}.{run}/{q.name}"
                        )
                        for q in queries
                    ]
                    runner.run(batch, k=5)
            except BaseException as error:  # pragma: no cover - fails the test
                errors.append(error)

        def ask(tag: str) -> None:
            try:
                for run in range(3):
                    for q in queries:
                        single = TriplePatternQuery(
                            q.patterns, q.projection, name=f"{tag}.{run}.{q.name}/"
                        )
                        assert 0 < len(runner.execute_query(single, 5)) <= 5
            except BaseException as error:  # pragma: no cover - fails the test
                errors.append(error)

        for round_index, batch in enumerate(batches):
            readers = [
                threading.Thread(target=target, args=(f"{round_index}.{reader}",))
                for reader, target in enumerate((serve, serve, ask, ask))
            ]
            for reader in readers:
                reader.start()
            assert in_flight[round_index].wait(timeout=60)
            runner.apply_updates(batch)
            landed[round_index].set()
            for reader in readers:
                reader.join(timeout=60)
            assert not any(reader.is_alive() for reader in readers)
            assert errors == [], errors
            mixed = {tag: seen for tag, seen in versions.items() if len(seen) > 1}
            assert not mixed, f"batches served at two graph versions: {mixed}"
            # Whichever side won the gate, no answer cached at the old
            # version may surface now.
            fresh = SpecQPEngine(
                ColumnarGraph(ColumnarStore.from_triples(runner.graph.triples())),
                workload.rules,
                runner.config,
                executor="tuple",
            )
            for query in queries:
                assert signature(runner.execute_query(query, 5)) == signature(
                    fresh.query(query, 5).answers
                ), (round_index, query.name)

        after = [signature(runner.execute_query(q, 5)) for q in queries]
        assert after != before, "the update batches never moved an answer"
        sequential = WorkloadRunner(workload)
        for batch in batches:
            sequential.apply_updates(batch)
        assert after == [signature(sequential.execute_query(q, 5)) for q in queries]


def signature(answers) -> list[tuple]:
    return [(answer.bindings, answer.score) for answer in answers]


def race_batch(graph, query, round_index: int) -> list[GraphUpdate]:
    """Updates aimed at *query*'s first pattern: its best match goes, the
    runner-up is re-scored past it, and a fresh subject joins it."""
    pattern = query.patterns[0]
    matching = sorted(
        (triple for triple in graph.triples() if pattern.matches(triple)),
        key=lambda triple: (-triple.score, triple.spo),
    )
    batch = [GraphUpdate.remove(*triple.spo) for triple in matching[:1]]
    if len(matching) > 1:
        batch.append(GraphUpdate.add(*matching[1].spo, 2 * matching[0].score))
    fresh = [
        f"race:e{round_index}" if term is None else term
        for term in pattern.key()
    ]
    batch.append(GraphUpdate.add(*fresh, 1.0))
    return batch
