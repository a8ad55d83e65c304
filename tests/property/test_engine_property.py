"""Property-based tests for the full engine (hypothesis).

Random small KGs + random relaxation rules + random k: the Spec-QP
engine's structural guarantees must hold regardless of the input —
descending scores, no duplicate answers, scores bounded by the number of
patterns, and Spec-QP's answers never beating the true top-k rank-wise.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core.engine import SpecQPEngine
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, Variable
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RelaxationRule, RuleSet

VAR_S = Variable("s")
TYPES = ["a", "b", "c", "d"]


def tp(name):
    return TriplePattern(VAR_S, "rdf:type", name)


@st.composite
def engines_and_queries(draw):
    kg = KnowledgeGraph()
    n_entities = draw(st.integers(min_value=3, max_value=20))
    for i in range(n_entities):
        mask = draw(st.integers(min_value=1, max_value=15))
        for bit, type_name in enumerate(TYPES):
            if mask & (1 << bit):
                score = draw(st.integers(min_value=1, max_value=500))
                kg.add(f"e{i}", "rdf:type", type_name, score=float(score))
    rules = RuleSet()
    n_rules = draw(st.integers(min_value=0, max_value=3))
    for _ in range(n_rules):
        domain = draw(st.sampled_from(TYPES))
        range_ = draw(st.sampled_from(TYPES))
        if domain != range_:
            weight = draw(st.floats(min_value=0.1, max_value=0.95))
            rules.add(RelaxationRule(tp(domain), tp(range_), weight))
    size = draw(st.integers(min_value=1, max_value=3))
    patterns = tuple(tp(t) for t in TYPES[:size])
    query = TriplePatternQuery(patterns, projection=(VAR_S,))
    k = draw(st.integers(min_value=1, max_value=12))
    engine = SpecQPEngine(kg, rules)
    return engine, query, k


class TestEngineInvariants:
    @given(engines_and_queries())
    @settings(max_examples=50, deadline=None)
    def test_output_contract(self, setup):
        engine, query, k = setup
        for run in (engine.query, engine.query_trinit, engine.query_exact):
            result = run(query, k)
            scores = list(result.scores)
            # Sorted descending, at most k, no duplicate bindings.
            assert scores == sorted(scores, reverse=True)
            assert len(result.answers) <= k
            bindings = [a.bindings for a in result.answers]
            assert len(set(bindings)) == len(bindings)
            # Score bounds: each slot contributes at most 1.0.
            for score in scores:
                assert -1e-9 <= score <= len(query) + 1e-9

    @given(engines_and_queries())
    @settings(max_examples=50, deadline=None)
    def test_spec_never_beats_truth_rankwise(self, setup):
        """Spec-QP explores a subset of TriniT's space, so its answer at
        any rank can never score higher than the true answer at that
        rank."""
        engine, query, k = setup
        spec = engine.query(query, k)
        trinit = engine.query_trinit(query, k)
        for rank, answer in enumerate(spec.answers):
            if rank < len(trinit.answers):
                assert answer.score <= trinit.answers[rank].score + 1e-9

    @given(engines_and_queries())
    @settings(max_examples=50, deadline=None)
    def test_plan_partitions_query(self, setup):
        engine, query, k = setup
        decision = engine.plan(query, k)
        plan = decision.plan
        assert sorted(plan.join_group + plan.singletons) == list(
            range(len(query))
        )

    @given(engines_and_queries())
    @settings(max_examples=30, deadline=None)
    def test_determinism(self, setup):
        engine, query, k = setup
        first = engine.query(query, k)
        second = engine.query(query, k)
        assert [a.bindings for a in first.answers] == [
            a.bindings for a in second.answers
        ]
        assert all(
            math.isclose(x.score, y.score, abs_tol=1e-12)
            for x, y in zip(first.answers, second.answers)
        )
