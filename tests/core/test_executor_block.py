"""Engine-level tests for the block execution strategy."""

from __future__ import annotations

import pytest

from repro.baselines.naive import NaiveEngine
from repro.baselines.trinit import TriniTEngine
from repro.core.engine import SpecQPEngine
from repro.core.plan import QueryPlan
from repro.errors import ExecutionError
from repro.experiments.session import ExperimentSession
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.pattern import TriplePattern, var
from repro.operators.block import EncodedListStore
from repro.query.query import TriplePatternQuery


def tp(type_name: str, v: str = "s") -> TriplePattern:
    return TriplePattern(var(v), "rdf:type", type_name)


def rows(result):
    return [(a.bindings, a.score) for a in result.answers]


def served_and_oracle(engine, run, query, k):
    """*engine*'s *run* of *query* (``"query"``, ``"query_trinit"`` or
    ``"query_exact"``) and the oracle's answers to the plan it ran."""
    result = getattr(engine, run)(query, k=k)
    oracle = NaiveEngine(engine.graph, engine.rules)
    expected = [(a.bindings, a.score) for a in oracle.evaluate(result.plan, k)]
    return rows(result), expected


class TestExecutorSelection:
    QUERY = TriplePatternQuery((tp("singer"),))

    def test_unknown_executor_rejected(self, music_graph, music_rules):
        with pytest.raises(ExecutionError):
            SpecQPEngine(music_graph, music_rules, executor="parallel")

    def test_default_is_block(self, music_graph, music_rules):
        engine = SpecQPEngine(music_graph, music_rules)
        assert engine.executor_kind == "block"
        assert engine.resolve_executor(self.QUERY).executor == "block"

    def test_library_engines_serve_from_their_encoded_store(self, tiny_xkg_workload):
        """A default engine, the figures' session engine and TriniT run
        block: serving a query merges relaxation lists in their store
        (planning's statistics read per-pattern lists only)."""
        workload = tiny_xkg_workload
        query = workload.queries[0]
        engine = SpecQPEngine(workload.graph, workload.rules)
        session = ExperimentSession(workload, ks=(5,))
        trinit = TriniTEngine(workload.graph, workload.rules)
        for store, serve in (
            (engine.executor.encoded_store, lambda: engine.query_trinit(query, 5)),
            (session.engine.executor.encoded_store, lambda: session.record(query, 5)),
            (trinit._executor.encoded_store, lambda: trinit.query(query, 5)),
        ):
            assert store.stats()["merged_misses"] == 0
            serve()
            assert store.stats()["merged_misses"] > 0

    def test_block_supported_on_columnar(self, music_graph, music_rules):
        frozen = ColumnarGraph.from_graph(music_graph)
        engine = SpecQPEngine(frozen, music_rules, executor="block")
        assert engine.executor_kind == "block"
        assert engine.resolve_executor(self.QUERY).executor == "block"

    def test_object_graph_runs_block(
        self, music_graph, music_rules, singer_lyricist_query
    ):
        engine = SpecQPEngine(music_graph, music_rules, executor="block")
        assert engine.resolve_executor(self.QUERY).executor == "block"
        served, expected = served_and_oracle(engine, "query", singer_lyricist_query, 10)
        assert served == expected
        assert len(engine.executor.encoded_store) > 0  # served from columns

    def test_live_overlay_supported(self, music_graph, music_rules):
        live = LiveGraph(ColumnarGraph.from_graph(music_graph))
        engine = SpecQPEngine(live, music_rules, executor="block")
        assert engine.resolve_executor(self.QUERY).executor == "block"

    def test_mutation_inside_a_query_raises_on_an_object_graph(
        self, music_graph, music_rules, singer_lyricist_query
    ):
        engine = SpecQPEngine(music_graph, music_rules, executor="block")
        plan = QueryPlan.exact(singer_lyricist_query)  # two leaves, no merges
        store = engine.executor.encoded_store
        build = store.get_or_build

        def build_then_write(graph, pattern, *pins, **named):
            built = build(graph, pattern, *pins, **named)
            music_graph.add("adele", "rdf:type", "singer", score=1.0)
            return built

        store.get_or_build = build_then_write
        with pytest.raises(ExecutionError, match="graph changed"):
            engine.executor.execute(plan, 3)


class TestEncodedCacheLifecycle:
    def test_cache_warm_after_first_execution(self, music_graph, music_rules):
        frozen = ColumnarGraph.from_graph(music_graph)
        engine = SpecQPEngine(frozen, music_rules, executor="block")
        query = TriplePatternQuery((tp("singer"),))
        engine.query_exact(query, k=3)
        stats = engine.executor.encoded_store.stats()
        assert stats["size"] >= 1
        engine.query_exact(query, k=3)
        assert engine.executor.encoded_store.stats()["size"] == stats["size"]

    def test_version_bump_clears_cache(self, music_graph, music_rules):
        live = LiveGraph(ColumnarGraph.from_graph(music_graph))
        engine = SpecQPEngine(live, music_rules, executor="block")
        query = TriplePatternQuery((tp("singer"),))
        before = rows(engine.query_exact(query, k=10))
        live.apply_updates([GraphUpdate.add("newbie", "rdf:type", "singer", 200.0)])
        after = rows(engine.query_exact(query, k=10))
        assert before != after
        assert after[0][0] == (("s", "newbie"),)

    def test_compaction_swaps_store_and_codec(self, music_graph, music_rules):
        live = LiveGraph(ColumnarGraph.from_graph(music_graph))
        engine = SpecQPEngine(live, music_rules, executor="block")
        query = TriplePatternQuery((tp("singer"),))
        live.apply_updates([GraphUpdate.add("newbie", "rdf:type", "singer", 200.0)])
        pre = rows(engine.query_exact(query, k=10))
        live.compact()
        post = rows(engine.query_exact(query, k=10))
        assert pre == post

    def test_cache_capacity_validated(self):
        with pytest.raises(ExecutionError):
            EncodedListStore(0)
