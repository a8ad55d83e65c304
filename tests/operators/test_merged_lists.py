"""Pre-merged relaxation lists: the stored merge a relaxed pattern is
evaluated over holds the Definition-8 merge of the per-input lists and
the tuple Incremental Merge's rows, on every backend and across the graph's and the rule set's
lifecycle."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import SpecQPEngine
from repro.core.plan import QueryPlan, relaxation_inputs
from repro.errors import ExecutionError
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.pattern import TriplePattern, var
from repro.kg.storage import load_snapshot_v2, save_snapshot_v2
from repro.operators.block import EncodedListStore, build_merged_match_list
from repro.operators.memory import ExecutionContext
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RelaxationRule, RuleSet

from merge_reference import definition8_merge

BACKENDS = ("columnar", "mmap", "live")


def tp(type_name: str, v: str = "s") -> TriplePattern:
    return TriplePattern(var(v), "rdf:type", type_name)


def make_backend(kind: str, graph, tmp_path):
    columnar = ColumnarGraph.from_graph(graph, name=kind)
    if kind == "mmap":
        path = tmp_path / "graph.kg2"
        save_snapshot_v2(columnar, path)
        return load_snapshot_v2(path, mmap=True)
    if kind == "live":
        return LiveGraph(columnar)
    return columnar


def as_live(graph) -> LiveGraph:
    return graph if isinstance(graph, LiveGraph) else LiveGraph(graph)


def relaxed_patterns(workload) -> list[TriplePattern]:
    seen = {p for q in workload.queries for p in q.patterns}
    return sorted(
        (p for p in seen if workload.rules.has_rules_for(p)), key=str
    )


def tuple_stream(graph, rules, pattern):
    """The tuple Incremental Merge's output, canonically ordered."""
    plan = QueryPlan.trinit(TriplePatternQuery((pattern,)))
    tree = plan.build_operator_tree(graph, rules, ExecutionContext())
    return sorted(((a.identity(), a.score) for a in tree), key=lambda r: (-r[1], r[0]))


def block_stream(graph, rules, pattern, store):
    """One relaxed pattern through the block evaluation: decoded rows in
    list order and the efficiency counters."""
    plan = QueryPlan.trinit(TriplePatternQuery((pattern,)))
    codec = store.codec(graph)
    context = ExecutionContext()
    variant = (None, rules, rules.version)
    served = []

    def merged(p, merge):
        served.append(store.get_or_merge(graph, p, variant, merge, codec))
        return served[-1]

    rows = plan.evaluate_block(
        graph,
        rules,
        context,
        codec,
        encoded_lists=lambda p: store.get_or_build(graph, p, expect_codec=codec),
        merged_lists=merged,
    )
    assert rows is served[0]  # a lone relaxed pattern is its merged list as it is
    names = sorted(rows.var_names)
    columns = [rows.columns[rows.var_names.index(name)].tolist() for name in names]
    decoded = [
        (tuple((n, codec.decode(c[row])) for n, c in zip(names, columns)), score)
        for row, score in enumerate(rows.scores.tolist())
    ]
    return decoded, (context.tuples_pulled, context.answer_objects_created)


def reference_stream(graph, rules, pattern, store):
    """The Definition-8 merge of the pattern's inputs, decoded like
    :func:`block_stream`'s rows."""
    codec = store.codec(graph)
    var_names, merged = definition8_merge(
        graph, relaxation_inputs(pattern, rules, None), codec
    )
    names = sorted(var_names)
    return [
        (
            tuple((n, codec.decode(ids[var_names.index(n)])) for n in names),
            score,
        )
        for ids, score in merged
    ]


def assert_streams_agree(graph, workload, store):
    checked = 0
    for pattern in relaxed_patterns(workload):
        reference = reference_stream(graph, workload.rules, pattern, store)
        for _ in range(2):  # a miss, then a hit
            rows, counters = block_stream(graph, workload.rules, pattern, store)
            assert rows == reference  # same rows, same order, bitwise scores
            assert counters == (len(reference), len(reference))
        assert sorted(rows, key=lambda r: (-r[1], r[0])) == tuple_stream(
            graph, workload.rules, pattern
        )
        checked += 1
    assert checked


def update_batch(workload) -> list[GraphUpdate]:
    """Adds, a re-score and a removal inside relaxed match lists."""
    pattern = relaxed_patterns(workload)[0]
    ranges = [rule.range for rule in workload.rules.for_pattern(pattern)]
    victims = workload.graph.match_list(ranges[0]).triples
    batch = [
        GraphUpdate.add("fresh-entity", "rdf:type", pattern.object, 1e6),
        GraphUpdate.add("fresh-entity", "rdf:type", ranges[-1].object, 5.0),
        GraphUpdate.add(*victims[0].spo, victims[0].score * 3 + 1),
    ]
    if len(victims) > 1:
        batch.append(GraphUpdate.remove(*victims[1].spo))
    return batch


class TestStreamEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_premerged_scan_is_the_definition8_merge(
        self, backend, tiny_xkg_workload, tmp_path
    ):
        workload = tiny_xkg_workload
        graph = make_backend(backend, workload.graph, tmp_path)
        store = EncodedListStore(64)
        assert_streams_agree(graph, workload, store)

        # After a batch of updates (a frozen graph is wrapped the way the
        # runner wraps it) and after the delta is compacted away.
        store.release(graph)
        live = as_live(graph)
        live.apply_updates(update_batch(workload))
        assert_streams_agree(live, workload, store)
        live.compact()
        assert live.delta_size == 0
        assert_streams_agree(live, workload, store)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("max_relaxations", (None, 1))
    def test_engine_answers_and_counters(
        self, backend, max_relaxations, tiny_xkg_workload, tmp_path
    ):
        """Whole queries: a merge miss and a hit return the tuple
        pipeline's answers and count the same work."""
        workload = tiny_xkg_workload
        config = EngineConfig(k=5, max_relaxations_per_pattern=max_relaxations)

        def check(graph, block=None):
            block = block or SpecQPEngine(
                graph, workload.rules, config, executor="block"
            )
            oracle = SpecQPEngine(graph, workload.rules, config, executor="tuple")
            for query in workload.queries:
                plan = QueryPlan.trinit(query)
                expected = oracle.executor.execute(plan, 5, executor="tuple").answers
                block.executor.encoded_store.clear()  # the first run misses
                results = [block.executor.execute(plan, 5) for _ in range(2)]
                for result in results:
                    assert [(a.bindings, a.score) for a in result.answers] == [
                        (a.bindings, a.score) for a in expected
                    ]
                miss, hit = results
                assert miss.tuples_pulled == hit.tuples_pulled
                assert miss.answer_objects_created == hit.answer_objects_created

            stats = block.executor.encoded_store.stats()
            assert stats["merged_hits"] >= stats["merged_misses"] > 0
            return block

        graph = make_backend(backend, workload.graph, tmp_path)
        check(graph)
        live = as_live(graph)
        block = check(live)  # one engine across the graph's versions
        live.apply_updates(update_batch(workload))
        check(live, block)
        live.compact()
        check(live, block)


class TestMergedListLifecycle:
    @pytest.fixture
    def columnar(self, music_graph) -> ColumnarGraph:
        return ColumnarGraph.from_graph(music_graph, name="music")

    @staticmethod
    def merge_of(store, graph, rules, pattern):
        codec = store.codec(graph)
        inputs = relaxation_inputs(pattern, rules, None)
        return lambda: build_merged_match_list(graph, inputs, codec)

    def test_hit_miss_accounting_beside_the_list_counters(
        self, columnar, music_rules
    ):
        store = EncodedListStore(8)
        pattern = tp("singer")
        merge = self.merge_of(store, columnar, music_rules, pattern)
        before = store.stats()
        first = store.get_or_merge(columnar, pattern, "v", merge)
        assert store.get_or_merge(columnar, pattern, "v", merge) is first
        assert store.get_or_merge(columnar, pattern, "w", merge) is not first
        stats = store.stats()
        assert (stats["merged_hits"], stats["merged_misses"]) == (1, 2)
        assert stats["merged_size"] == stats["size"] == 2
        # The merges read their inputs from the graph, not the store.
        assert (stats["hits"], stats["misses"]) == (before["hits"], before["misses"])
        assert set(before) == set(stats) >= {
            "hits", "misses", "evictions", "size", "capacity", "version",
        }

    def test_write_drops_the_merged_entries_it_touched_and_release_all(
        self, music_graph, music_rules
    ):
        live = LiveGraph(ColumnarGraph.from_graph(music_graph))
        engine = SpecQPEngine(live, music_rules, executor="block")
        store = engine.executor.encoded_store
        query = TriplePatternQuery((tp("singer"), tp("lyricist")))
        engine.query_trinit(query, k=3)
        assert store.stats()["merged_size"] == 2
        variant = (engine.config.max_relaxations_per_pattern, music_rules, music_rules.version)
        lyricist = store.get_or_merge(live, tp("lyricist"), variant, pytest.fail)
        # A vocalist is an input of the singer merge only.
        # Above the vocalist list's maximum: the merge is dropped, not patched.
        live.apply_updates([GraphUpdate.add("adele", "rdf:type", "vocalist", 500.0)])
        assert store.refresh(live) == {"kept": 1, "patched": 0, "dropped": 1}
        assert store.stats()["merged_size"] == 1
        assert store.get_or_merge(live, tp("lyricist"), variant, pytest.fail) is lyricist
        served = engine.query_trinit(query, k=3).answers
        oracle = SpecQPEngine(live, music_rules, executor="tuple")
        assert served == oracle.query_trinit(query, k=3).answers
        assert store.stats()["merged_size"] == 2
        store.release(live)
        assert store.stats()["merged_size"] == store.stats()["size"] == 0

    def test_rule_added_after_caching_invalidates(self, columnar, music_graph):
        rules = RuleSet([RelaxationRule(tp("singer"), tp("vocalist"), 0.8)])
        engine = SpecQPEngine(columnar, rules, executor="block")
        oracle = SpecQPEngine(music_graph, rules, executor="tuple")
        query = TriplePatternQuery((tp("singer"),))
        stale = engine.query_trinit(query, k=10).answers
        assert stale == oracle.query_trinit(query, k=10).answers
        rules.add(RelaxationRule(tp("singer"), tp("guitarist"), 0.9))
        fresh = engine.query_trinit(query, k=10).answers
        assert fresh == oracle.query_trinit(query, k=10).answers
        assert fresh != stale  # dylan joins through the new rule
        assert engine.executor.encoded_store.stats()["merged_misses"] == 2
        # Re-weighting an existing rule is a new version too.
        rules.add(RelaxationRule(tp("singer"), tp("guitarist"), 0.1))
        assert (
            engine.query_trinit(query, k=10).answers
            == oracle.query_trinit(query, k=10).answers
            != fresh
        )

    def test_relaxation_cap_is_part_of_the_key(self, columnar, music_rules):
        store = EncodedListStore(32)
        query = TriplePatternQuery((tp("singer"),))
        answers = {}
        for cap in (None, 1):
            engine = SpecQPEngine(
                columnar,
                music_rules,
                EngineConfig(max_relaxations_per_pattern=cap),
                executor="block",
                encoded_store=store,
            )
            oracle = SpecQPEngine(
                columnar,
                music_rules,
                EngineConfig(max_relaxations_per_pattern=cap),
                executor="tuple",
            )
            answers[cap] = engine.query_trinit(query, k=10).answers
            assert answers[cap] == oracle.query_trinit(query, k=10).answers
        assert answers[None] != answers[1]
        assert store.stats()["merged_size"] == 2

    def test_merged_entries_count_toward_capacity(self, tiny_xkg_workload):
        workload = tiny_xkg_workload
        graph = ColumnarGraph.from_graph(workload.graph)
        store = EncodedListStore(16)
        engine = SpecQPEngine(
            graph, workload.rules, executor="block", encoded_store=store
        )
        oracle = SpecQPEngine(workload.graph, workload.rules, executor="tuple")
        held_merged = 0
        for query in workload.queries * 2:
            assert (
                engine.query_trinit(query, k=5).answers
                == oracle.query_trinit(query, k=5).answers
            )
            stats = store.stats()
            assert len(store) == stats["size"] <= 16
            assert stats["merged_size"] <= stats["size"]
            held_merged = max(held_merged, stats["merged_size"])
        assert held_merged > 0 and store.stats()["evictions"] > 0

    def test_expect_codec_raises_on_mid_query_mutation(
        self, music_graph, music_rules
    ):
        store = EncodedListStore()
        pattern = tp("singer")
        codec = store.codec(music_graph)
        merge = self.merge_of(store, music_graph, music_rules, pattern)
        before = len(store.get_or_merge(music_graph, pattern, "v", merge, codec))
        music_graph.add("adele", "rdf:type", "singer", score=1.0)  # version bump
        with pytest.raises(ExecutionError, match="graph changed"):
            store.get_or_merge(music_graph, pattern, "v", merge, codec)

        # A write during a merge gives an object graph a new column store,
        # so the merge under the older codec raises too.
        refreshed = self.merge_of(store, music_graph, music_rules, pattern)

        def mutate_then_merge():
            music_graph.add("sia", "rdf:type", "singer", score=1.0)
            return refreshed()

        with pytest.raises(ExecutionError, match="graph changed"):
            store.get_or_merge(music_graph, pattern, "v", mutate_then_merge)

        # A live overlay keeps its store across a write, so a merge the
        # graph outruns is handed to its own query only: the next request
        # merges again, at the version it then finds.
        live = LiveGraph(music_graph)
        live_store = EncodedListStore()
        refreshed = self.merge_of(live_store, live, music_rules, pattern)

        def mutate_live_then_merge():
            live.add("dua", "rdf:type", "singer", score=1.0)
            return refreshed()

        outrun = live_store.get_or_merge(live, pattern, "v", mutate_live_then_merge)
        assert len(outrun) == before + 3
        fresh = self.merge_of(live_store, live, music_rules, pattern)
        assert live_store.get_or_merge(live, pattern, "v", fresh) is not outrun

    def test_racing_builders_agree_on_one_merged_list(self, tiny_xkg_workload):
        workload = tiny_xkg_workload
        graph = ColumnarGraph.from_graph(workload.graph)
        store = EncodedListStore(256)
        pattern = relaxed_patterns(workload)[0]
        n_threads = 8  # more workers than cores
        barrier = threading.Barrier(n_threads)
        results: list = [None] * n_threads
        errors: list[BaseException] = []

        def worker(slot: int) -> None:
            try:
                barrier.wait(timeout=30)
                for _ in range(20):
                    codec = store.codec(graph)
                    context = ExecutionContext()
                    plan = QueryPlan.trinit(TriplePatternQuery((pattern,)))

                    def merged(p, merge):
                        got = store.get_or_merge(graph, p, "v", merge, codec)
                        if results[slot] is None:  # keep the contested one
                            results[slot] = got
                        return got

                    plan.evaluate_block(
                        graph,
                        workload.rules,
                        context,
                        codec,
                        encoded_lists=lambda p: store.get_or_build(
                            graph, p, expect_codec=codec
                        ),
                        merged_lists=merged,
                    )
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        stats = store.stats()
        assert stats["merged_size"] == 1
        assert stats["merged_hits"] + stats["merged_misses"] == n_threads * 20
        winner = store.get_or_merge(graph, pattern, "v", lambda: pytest.fail("held"))
        for merged in results:
            # Losers of the race may keep their own copy for one query;
            # every copy holds the same rows.
            assert merged.var_names == winner.var_names
            assert np.array_equal(merged.scores, winner.scores)
            for mine, theirs in zip(merged.columns, winner.columns):
                assert np.array_equal(mine, theirs)
