"""Property: the block executor answers what the oracle answers.

For random graphs and random (star-joined) queries, the block pipeline
must return exactly the ``(bindings, score)`` sequence of the oracle's
evaluation of the same plan
(:meth:`NaiveEngine.evaluate <repro.baselines.naive.NaiveEngine.evaluate>`)
— over the columnar backend, over a plain object graph mutated in place
between reads, and with relaxation rules in play.  This is the invariant
the vectorized engine rests on: blocks are an execution granularity,
never a semantics change.

Scores are drawn as small integers deliberately: ties are then common,
so the canonical tie resolution at the top-k cut (the piece that makes
the answer sequence well-defined at all) is exercised on almost every
example.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveEngine
from repro.core.engine import SpecQPEngine
from repro.datasets.scenarios import build_scenario
from repro.kg.columnar import ColumnarGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, Variable
from repro.kg.triple import Triple
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RelaxationRule, RuleSet

SUBJECTS = [f"s{i}" for i in range(8)]
PREDICATES = [f"p{i}" for i in range(3)]
OBJECTS = [f"o{i}" for i in range(5)]

triples = st.lists(
    st.tuples(
        st.sampled_from(SUBJECTS),
        st.sampled_from(PREDICATES),
        st.sampled_from(OBJECTS),
        st.integers(min_value=0, max_value=20),
    ),
    min_size=3,
    max_size=40,
)

pattern_specs = st.lists(
    st.tuples(
        st.sampled_from(PREDICATES),
        st.one_of(st.none(), st.sampled_from(OBJECTS)),
    ),
    min_size=1,
    max_size=3,
    unique=True,
)


def build_graph(rows) -> ColumnarGraph:
    kg = KnowledgeGraph(name="prop")
    kg.add_triples(Triple(s, p, o, float(score)) for s, p, o, score in rows)
    return ColumnarGraph.from_graph(kg)


def build_query(specs) -> TriplePatternQuery:
    subject = Variable("s")
    patterns = []
    for index, (predicate, obj) in enumerate(specs):
        term = obj if obj is not None else Variable(f"o{index}")
        patterns.append(TriplePattern(subject, predicate, term))
    return TriplePatternQuery(patterns)


def build_rules(specs) -> RuleSet:
    """Relax every object-bound pattern to a sibling object constant."""
    rules = RuleSet()
    subject = Variable("s")
    for predicate, obj in specs:
        if obj is None:
            continue
        sibling = OBJECTS[(OBJECTS.index(obj) + 1) % len(OBJECTS)]
        rules.add(
            RelaxationRule(
                TriplePattern(subject, predicate, obj),
                TriplePattern(subject, predicate, sibling),
                0.7,
            )
        )
    return rules


def answer_rows(answers):
    return [(answer.bindings, answer.score) for answer in answers]


def assert_oracle_answers(engine, query, k, runs=("query", "query_trinit")):
    """Each of *engine*'s *runs* of *query* answers what the oracle
    answers for the plan it ran."""
    oracle = NaiveEngine(engine.graph, engine.rules)
    for run in runs:
        result = getattr(engine, run)(query, k=k)
        expected = oracle.evaluate(result.plan, k)
        assert answer_rows(result.answers) == answer_rows(expected), run
    return answer_rows(result.answers)


@settings(max_examples=30, deadline=None)
@given(rows=triples, specs=pattern_specs, k=st.integers(min_value=1, max_value=6))
def test_block_executor_identical_to_oracle(rows, specs, k):
    graph = build_graph(rows)
    block_engine = SpecQPEngine(graph, build_rules(specs))
    # The TriniT baseline plan (all patterns relaxed) takes the merged
    # relaxation list on every pattern.
    assert_oracle_answers(block_engine, build_query(specs), k)


@settings(max_examples=30, deadline=None)
@given(
    rows=triples,
    writes=triples,
    specs=pattern_specs,
    k=st.integers(min_value=1, max_value=6),
)
def test_block_executor_identical_to_oracle_on_a_mutated_object_graph(
    rows, writes, specs, k
):
    """The object graph interns its triples on the first encoded read
    and again after every write: adds, re-scores and removes between
    reads never let the block answers drift from the oracle's."""
    graph = KnowledgeGraph(name="prop-objects")
    graph.add_triples(Triple(s, p, o, float(score)) for s, p, o, score in rows)
    query = build_query(specs)
    block_engine = SpecQPEngine(graph, build_rules(specs))

    def assert_same_answers():
        assert_oracle_answers(block_engine, query, k)
        codec = block_engine.executor.encoded_store.codec(graph)
        assert codec.store is graph.column_store()

    assert_same_answers()
    for s, p, o, score in writes[:8]:
        if score % 4 == 0:
            graph.remove(s, p, o)
        else:
            graph.add(s, p, o, score=float(score))
        assert_same_answers()


@settings(max_examples=20, deadline=None)
@given(rows=triples, k=st.integers(min_value=1, max_value=50))
def test_block_executor_empty_and_overlarge_k_edges(rows, k):
    """Regression shapes: empty match lists and k > result count."""
    graph = build_graph(rows)
    rules = RuleSet()
    subject = Variable("s")
    query = TriplePatternQuery(
        (
            TriplePattern(subject, PREDICATES[0], Variable("o")),
            TriplePattern(subject, "absent-predicate", Variable("z")),
        )
    )
    block_engine = SpecQPEngine(graph, rules)
    assert assert_oracle_answers(block_engine, query, k, ("query_exact",)) == []
    open_query = TriplePatternQuery(
        (TriplePattern(subject, PREDICATES[0], Variable("o")),)
    )
    assert_oracle_answers(block_engine, open_query, k, ("query_exact",))


# ----------------------------------------------------------------------
# The same invariant on generated scenario traffic: random small graphs
# above give breadth, the adversarial packs below give the *shapes* —
# boundary-tie runs straddling k, k > result-count, empty match lists,
# mined (not hand-planted) relaxation rules.
# ----------------------------------------------------------------------
SCENARIO_MATRIX = ("adversarial-ties", "adversarial-edge-k", "media-relax-heavy")


@functools.lru_cache(maxsize=None)
def _scenario_columnar(name):
    pack = build_scenario(name)
    return pack, ColumnarGraph.from_graph(pack.workload.graph)


@pytest.mark.parametrize("name", SCENARIO_MATRIX)
@pytest.mark.parametrize("executor", ("block", "auto"))
def test_scenario_pack_identical_to_oracle(name, executor):
    pack, graph = _scenario_columnar(name)
    engine = SpecQPEngine(graph, pack.workload.rules, executor=executor)
    for query in pack.workload.queries:
        assert_oracle_answers(engine, query, pack.k, ("query",))

