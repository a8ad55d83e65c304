"""Unit tests for the plan executor."""

import pytest

from repro.core.executor import PlanExecutor
from repro.core.plan import QueryPlan
from repro.errors import ExecutionError
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, var
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RelaxationRule, RuleSet


def tp(name):
    return TriplePattern(var("s"), "rdf:type", name)


@pytest.fixture
def setup():
    kg = KnowledgeGraph()
    for e, score in (("x", 10.0), ("y", 8.0), ("z", 6.0)):
        kg.add(e, "rdf:type", "a", score=score)
        kg.add(e, "rdf:type", "b", score=score / 2)
    kg.add("w", "rdf:type", "a_relax", score=20.0)
    kg.add("w", "rdf:type", "b", score=1.0)
    rules = RuleSet([RelaxationRule(tp("a"), tp("a_relax"), 0.9)])
    query = TriplePatternQuery((tp("a"), tp("b")), projection=(var("s"),))
    return kg, rules, query


class TestExecution:
    def test_exact_plan_excludes_relaxed_answers(self, setup):
        kg, rules, query = setup
        executor = PlanExecutor(kg, rules)
        result = executor.execute(QueryPlan.exact(query), k=10)
        names = {a.as_dict()["s"] for a in result.answers}
        assert names == {"x", "y", "z"}

    def test_trinit_plan_includes_relaxed_answer(self, setup):
        kg, rules, query = setup
        executor = PlanExecutor(kg, rules)
        result = executor.execute(QueryPlan.trinit(query), k=10)
        names = {a.as_dict()["s"] for a in result.answers}
        assert "w" in names

    def test_speculative_plan_with_relaxed_first_pattern(self, setup):
        kg, rules, query = setup
        executor = PlanExecutor(kg, rules)
        result = executor.execute(QueryPlan.speculative(query, (0,)), k=10)
        names = {a.as_dict()["s"] for a in result.answers}
        assert "w" in names  # relaxation of 'a' was processed

    def test_k_truncates(self, setup):
        kg, rules, query = setup
        executor = PlanExecutor(kg, rules)
        result = executor.execute(QueryPlan.trinit(query), k=2)
        assert len(result.answers) == 2

    def test_scores_descending(self, setup):
        kg, rules, query = setup
        executor = PlanExecutor(kg, rules)
        result = executor.execute(QueryPlan.trinit(query), k=10)
        assert list(result.scores) == sorted(result.scores, reverse=True)

    def test_measurements_populated(self, setup):
        kg, rules, query = setup
        executor = PlanExecutor(kg, rules)
        result = executor.execute(QueryPlan.trinit(query), k=10)
        assert result.execution_seconds > 0.0
        assert result.answer_objects_created > 0
        assert result.tuples_pulled > 0

    def test_exact_cheaper_than_trinit(self, setup):
        kg, rules, query = setup
        executor = PlanExecutor(kg, rules)
        exact = executor.execute(QueryPlan.exact(query), k=10)
        trinit = executor.execute(QueryPlan.trinit(query), k=10)
        assert exact.answer_objects_created <= trinit.answer_objects_created

    def test_unknown_executor_rejected_per_call(self, setup):
        kg, rules, query = setup
        with pytest.raises(ExecutionError, match="unknown executor"):
            PlanExecutor(kg, rules).execute(QueryPlan.exact(query), 3, "parallel")
