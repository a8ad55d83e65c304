"""Tests for the relax-all-when-insufficient planner extension and the
``executor="auto"`` resolution.

Algorithm 1 tests one relaxation at a time: when the true top-k needs
*simultaneous* relaxations of several patterns (every single-relaxed
query is empty), the paper-faithful planner prunes all relaxations and
misses the answers.  The extension keeps every relaxable pattern whenever
the original query cannot fill the top-k.

The resolution tests pin what ``"auto"`` means since the tuple-vs-block
cost rule was retired: block on every backend (``block-available``) —
whatever is or is not cached, object graphs included — and that either
forced choice, like auto's pick, answers what the oracle answers.
"""

import pytest

from repro.baselines.naive import NaiveEngine
from repro.core.config import EngineConfig
from repro.core.engine import SpecQPEngine
from repro.kg.columnar import ColumnarGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, var
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RelaxationRule, RuleSet
from repro.service import MatchListCache


def tp(name):
    return TriplePattern(var("s"), "rdf:type", name)


def served_and_oracle(engine, query, k):
    """*engine*'s answers to *query* and the oracle's to the same plan."""
    result = engine.query(query, k=k)
    expected = NaiveEngine(engine.graph, engine.rules).evaluate(result.plan, k)
    return (
        [(a.bindings, a.score) for a in result.answers],
        [(a.bindings, a.score) for a in expected],
    )


@pytest.fixture
def multi_relaxation_case():
    """A query whose only answer needs BOTH patterns relaxed at once."""
    kg = KnowledgeGraph()
    # 'winner' matches neither a nor b, but matches both relaxations.
    kg.add("winner", "rdf:type", "a_relax", score=10.0)
    kg.add("winner", "rdf:type", "b_relax", score=10.0)
    # Red herrings so the single lists are non-empty but the joins are not.
    kg.add("only_a", "rdf:type", "a", score=5.0)
    kg.add("only_b", "rdf:type", "b", score=5.0)
    rules = RuleSet(
        [
            RelaxationRule(tp("a"), tp("a_relax"), 0.9),
            RelaxationRule(tp("b"), tp("b_relax"), 0.9),
        ]
    )
    query = TriplePatternQuery((tp("a"), tp("b")), projection=(var("s"),))
    return kg, rules, query


class TestPaperFaithfulBehaviour:
    def test_default_planner_prunes_everything(self, multi_relaxation_case):
        kg, rules, query = multi_relaxation_case
        engine = SpecQPEngine(kg, rules)  # extension off by default
        decision = engine.plan(query, k=1)
        # Each single-relaxed query is empty -> E_Q'(1)=0 -> nothing relaxed.
        assert decision.plan.singletons == ()
        result = engine.query(query, k=1)
        assert result.answers == ()  # the known miss


class TestExtension:
    def test_extension_recovers_the_answer(self, multi_relaxation_case):
        kg, rules, query = multi_relaxation_case
        engine = SpecQPEngine(
            kg, rules, EngineConfig(relax_all_when_insufficient=True)
        )
        decision = engine.plan(query, k=1)
        assert set(decision.plan.singletons) == {0, 1}
        result = engine.query(query, k=1)
        assert len(result.answers) == 1
        assert result.answers[0].as_dict()["s"] == "winner"
        assert result.answers[0].score == pytest.approx(0.9 + 0.9)

    def test_extension_inactive_when_query_sufficient(self):
        """With enough exact answers, the flag must not change plans."""
        kg = KnowledgeGraph()
        for i in range(20):
            score = 100.0 - i
            kg.add(f"e{i}", "rdf:type", "a", score=score)
            kg.add(f"e{i}", "rdf:type", "b", score=score)
        kg.add("r", "rdf:type", "a_relax", score=1.0)
        kg.add("r", "rdf:type", "b", score=1.0)
        rules = RuleSet([RelaxationRule(tp("a"), tp("a_relax"), 0.1)])
        query = TriplePatternQuery((tp("a"), tp("b")))
        plain = SpecQPEngine(kg, rules).plan(query, k=5)
        extended = SpecQPEngine(
            kg, rules, EngineConfig(relax_all_when_insufficient=True)
        ).plan(query, k=5)
        assert plain.plan.singletons == extended.plan.singletons == ()

    def test_extension_respects_unrelaxable_patterns(self, multi_relaxation_case):
        kg, rules, query = multi_relaxation_case
        rules_only_a = RuleSet([RelaxationRule(tp("a"), tp("a_relax"), 0.9)])
        engine = SpecQPEngine(
            kg, rules_only_a, EngineConfig(relax_all_when_insufficient=True)
        )
        decision = engine.plan(query, k=1)
        # Pattern b has no rules: it can never become a singleton.
        assert decision.plan.singletons == (0,)

    def test_config_propagates_through_with_k(self):
        config = EngineConfig(relax_all_when_insufficient=True)
        assert config.with_k(20).relax_all_when_insufficient is True


def long_list_graph(rows_per_type: int = 512):
    """A columnar graph with long match lists."""
    kg = KnowledgeGraph()
    for type_name in ("a", "b"):
        for i in range(rows_per_type):
            kg.add(f"e{i}", "rdf:type", type_name, score=float(i % 97))
    return ColumnarGraph.from_graph(kg, name="long")


class TestAutoExecutorResolution:
    """``auto`` = block on every backend."""

    def test_hot_short_lists_pick_block(self, music_graph):
        """Every match list resident in the shared cache — the retired
        rule's ``tuple`` case — is served by the block pipeline."""
        graph = ColumnarGraph.from_graph(music_graph, name="hot")
        cache = MatchListCache(capacity=64)
        query = TriplePatternQuery((tp("singer"), tp("lyricist")))
        engine = SpecQPEngine(
            graph, RuleSet(), executor="auto", match_list_cache=cache
        )
        for pattern in query.patterns:
            graph.match_list(pattern)  # warm the cache
        engine.catalog.precompute(queries=[query])
        choice = engine.resolve_executor(query)
        assert choice.executor == "block"
        assert choice.reason == "block-available"

    def test_cold_lists_pick_block_measured_or_not(self, music_graph):
        """Nothing resident: long lists, short lists (the retired
        rule's other ``tuple`` case) and unmeasured ones all vectorize."""
        long_query = TriplePatternQuery((tp("a"), tp("b")))
        short_query = TriplePatternQuery((tp("singer"), tp("lyricist")))
        cases = [
            (long_list_graph(), long_query, True),
            (long_list_graph(), long_query, False),
            (ColumnarGraph.from_graph(music_graph, name="short"), short_query, True),
        ]
        for graph, query, measured in cases:
            engine = SpecQPEngine(graph, RuleSet(), executor="auto")
            if measured:
                engine.catalog.precompute(queries=[query])
                graph.invalidate_caches()
            choice = engine.resolve_executor(query)
            assert (choice.executor, choice.reason) == ("block", "block-available")

    def test_object_graph_runs_block(self, music_graph):
        query = TriplePatternQuery((tp("singer"), tp("lyricist")))
        engine = SpecQPEngine(music_graph, RuleSet(), executor="auto")
        choice = engine.resolve_executor(query)
        assert choice.executor == "block"
        assert choice.reason == "block-available"
        served, expected = served_and_oracle(engine, query, 5)
        assert served == expected

    def test_pinned_engines_report_pinned_choices(self, music_graph):
        graph = ColumnarGraph.from_graph(music_graph, name="pinned")
        rules = RuleSet()
        query = TriplePatternQuery((tp("singer"),))
        for kind in ("tuple", "block"):
            engine = SpecQPEngine(graph, rules, executor=kind)
            choice = engine.resolve_executor(query)
            assert choice.executor == kind
            assert choice.reason == "pinned"
        # Pinned block over an object graph runs blocks too.
        object_engine = SpecQPEngine(KnowledgeGraph(), rules, executor="block")
        pinned = object_engine.resolve_executor(query)
        assert pinned.executor == "block"
        assert pinned.reason == "pinned"

    def test_either_forced_executor_matches_autos_pick(self, music_graph):
        """The choice only ever trades speed: forcing tuple, forcing
        block and letting auto decide all answer what the oracle does."""
        hot = ColumnarGraph.from_graph(music_graph, name="force-hot")
        cold = long_list_graph()
        cases = [
            (hot, TriplePatternQuery((tp("singer"), tp("lyricist"))), 5),
            (cold, TriplePatternQuery((tp("a"), tp("b"))), 10),
        ]
        rules = RuleSet(
            [RelaxationRule(tp("singer"), tp("vocalist"), 0.8)]
        )
        for graph, query, k in cases:
            for kind in ("tuple", "block", "auto"):
                engine = SpecQPEngine(graph, rules, executor=kind)
                served, expected = served_and_oracle(engine, query, k)
                assert served == expected, (kind, graph.name)
