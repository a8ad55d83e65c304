"""Pre-merged relaxation lists: the stored merge a relaxed pattern is
evaluated over holds the oracle's Definition-8 merge of the per-input
lists (:meth:`NaiveEngine.rows <repro.baselines.naive.NaiveEngine.rows>`),
and a query over it the oracle's answers, on every backend and across
the graph's and the rule set's lifecycle."""

from __future__ import annotations

import sys
import threading
from unittest import mock

import numpy as np
import pytest

from held_lists import merge_rows

from repro.baselines.naive import NaiveEngine
from repro.core.config import EngineConfig
from repro.core.engine import SpecQPEngine
from repro.core.plan import QueryPlan, relaxation_inputs
from repro.errors import ExecutionError
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, var
from repro.kg.storage import load_snapshot_v2, save_snapshot_v2
from repro.operators.block import EncodedListStore, TermCodec, build_merged_match_list
from repro.operators.memory import ExecutionContext
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RelaxationRule, RuleSet

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


def reference_stream(graph, rules, pattern):
    """The oracle's merge of the pattern's inputs, shaped like
    :func:`block_stream`'s rows."""
    var_names = pattern.variable_names
    names = sorted(var_names)
    return [
        (tuple((n, binding[var_names.index(n)]) for n in names), score)
        for binding, score in NaiveEngine(graph, rules).rows(
            relaxation_inputs(pattern, rules, None)
        )
    ]


def oracle_trinit(graph, rules, query, k, config=None):
    """The oracle's answers to the TriniT plan of *query*."""
    cap = (config or EngineConfig()).max_relaxations_per_pattern
    return NaiveEngine(graph, rules).evaluate(QueryPlan.trinit(query), k, cap)


def answer_rows(answers):
    return [(a.bindings, a.score) for a in answers]


def assert_streams_agree(graph, workload, store):
    checked = 0
    for pattern in relaxed_patterns(workload):
        reference = reference_stream(graph, workload.rules, pattern)
        n_inputs = len(relaxation_inputs(pattern, workload.rules, None))
        for _ in range(2):  # a miss, then a hit
            rows, counters = block_stream(graph, workload.rules, pattern, store)
            # Same rows, bitwise scores; a merged list holds input order.
            assert merge_rows(rows, n_inputs) == merge_rows(reference, n_inputs)
            assert counters == (len(reference), len(reference))
        checked += 1
    assert checked


def update_batch(workload) -> list[GraphUpdate]:
    """Adds, a re-score and a removal inside relaxed match lists."""
    pattern = relaxed_patterns(workload)[0]
    ranges = [rule.range for rule in workload.rules.for_pattern(pattern)]
    victims = list(workload.graph.match(ranges[0]))
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
        """Whole queries: a merge miss and a hit return the oracle's
        answers and count the same work."""
        workload = tiny_xkg_workload
        config = EngineConfig(k=5, max_relaxations_per_pattern=max_relaxations)

        def check(graph, block=None):
            block = block or SpecQPEngine(
                graph, workload.rules, config, executor="block"
            )
            for query in workload.queries:
                plan = QueryPlan.trinit(query)
                expected = oracle_trinit(graph, workload.rules, query, 5, config)
                block.executor.encoded_store.clear()  # the first run misses
                results = [block.executor.execute(plan, 5) for _ in range(2)]
                for result in results:
                    assert answer_rows(result.answers) == answer_rows(expected)
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


class TestInputOrder:
    def test_a_merge_holds_input_order_where_a_later_input_outscores(self):
        """A merged list sorts nothing: each input's kept rows in its own
        list order, input after input, though the second input outscores
        rows of the first.  A binding keeps its best row, on a tie the
        first input's."""
        graph = KnowledgeGraph()
        for s, score in (("a", 10.0), ("b", 5.0), ("f", 4.0), ("c", 1.0)):
            graph.add(s, "rdf:type", "singer", score=score)
        for s, score in (("d", 10.0), ("b", 9.0), ("f", 5.0), ("e", 2.0)):
            graph.add(s, "rdf:type", "vocalist", score=score)
        columnar = ColumnarGraph.from_graph(graph)
        codec = TermCodec(columnar.store)
        merged = build_merged_match_list(
            columnar, [(tp("singer"), 1.0), (tp("vocalist"), 0.8)], codec
        )
        singer, vocalist = (lambda raw: 1.0 * (raw / 10.0)), (lambda raw: 0.8 * (raw / 10.0))
        assert singer(4.0) == vocalist(5.0)  # f ties across the inputs
        rows = list(
            zip(
                [codec.decode(i) for i in merged.columns[0].tolist()],
                merged.scores.tolist(),
                merged.sources.tolist(),
            )
        )
        assert rows == [
            ("a", singer(10.0), 0), ("f", singer(4.0), 0), ("c", singer(1.0), 0),
            ("d", vocalist(10.0), 1), ("b", vocalist(9.0), 1), ("e", vocalist(2.0), 1),
        ]

    def test_a_domain_too_wide_to_address_merges_the_same(self, music_graph, music_rules):
        """The sorting fallback of the dedup keeps the very rows, in the
        very order, that the table keeps."""
        columnar = ColumnarGraph.from_graph(music_graph)
        codec = TermCodec(columnar.store)
        for kind in ("singer", "lyricist", "guitarist"):
            inputs = relaxation_inputs(tp(kind), music_rules, None)
            table = build_merged_match_list(columnar, inputs, codec)
            with mock.patch("repro.operators.block.addressable", return_value=False):
                fallback = build_merged_match_list(columnar, inputs, codec)
            assert [a.tobytes() for a in (*table.columns, table.scores, table.sources)] == [
                a.tobytes() for a in (*fallback.columns, fallback.scores, fallback.sources)
            ], kind


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
        assert answer_rows(served) == answer_rows(
            oracle_trinit(live, music_rules, query, 3)
        )
        assert store.stats()["merged_size"] == 2
        store.release(live)
        assert store.stats()["merged_size"] == store.stats()["size"] == 0

    def test_rule_added_after_caching_invalidates(self, columnar, music_graph):
        rules = RuleSet([RelaxationRule(tp("singer"), tp("vocalist"), 0.8)])
        engine = SpecQPEngine(columnar, rules, executor="block")
        query = TriplePatternQuery((tp("singer"),))

        def served_and_expected():
            served = answer_rows(engine.query_trinit(query, k=10).answers)
            assert served == answer_rows(oracle_trinit(music_graph, rules, query, 10))
            return served

        stale = served_and_expected()
        rules.add(RelaxationRule(tp("singer"), tp("guitarist"), 0.9))
        fresh = served_and_expected()
        assert fresh != stale  # dylan joins through the new rule
        assert engine.executor.encoded_store.stats()["merged_misses"] == 2
        # Re-weighting an existing rule is a new version too.
        rules.add(RelaxationRule(tp("singer"), tp("guitarist"), 0.1))
        assert served_and_expected() != fresh

    def test_relaxation_cap_is_part_of_the_key(self, columnar, music_rules):
        store = EncodedListStore(32)
        query = TriplePatternQuery((tp("singer"),))
        answers = {}
        for cap in (None, 1):
            config = EngineConfig(max_relaxations_per_pattern=cap)
            engine = SpecQPEngine(
                columnar, music_rules, config, executor="block", encoded_store=store
            )
            answers[cap] = answer_rows(engine.query_trinit(query, k=10).answers)
            assert answers[cap] == answer_rows(
                oracle_trinit(columnar, music_rules, query, 10, config)
            )
        assert answers[None] != answers[1]
        assert store.stats()["merged_size"] == 2

    def test_merged_entries_count_toward_capacity(self, tiny_xkg_workload):
        workload = tiny_xkg_workload
        graph = ColumnarGraph.from_graph(workload.graph)
        store = EncodedListStore(16)
        engine = SpecQPEngine(
            graph, workload.rules, executor="block", encoded_store=store
        )
        oracle = NaiveEngine(workload.graph, workload.rules)
        held_merged = 0
        for query in workload.queries * 2:
            assert answer_rows(engine.query_trinit(query, k=5).answers) == answer_rows(
                oracle.evaluate(QueryPlan.trinit(query), 5)
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
