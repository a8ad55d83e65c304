"""Property: a result-cached runner is answer-invisible.

The whole-answer cache's oracle: for any interleaving of query batches
and ``apply_updates`` batches, a :class:`~repro.service.WorkloadRunner`
with the result cache enabled returns byte-identical answers (bindings
*and* scores) to one with the cache disabled, and both to the oracle's
evaluation of PLANGEN's plan over the same graph — across the object and
columnar backends.  Repeats inside a phase are asked twice on the cached side
specifically so the second ask is served from the cache.

Scores are small integers, as in ``test_mutation_property``, so ties
are common.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveEngine
from repro.core.engine import SpecQPEngine
from repro.datasets.workload import Workload
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import GraphUpdate
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, Variable
from repro.kg.triple import Triple
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RelaxationRule, RuleSet
from repro.service import WorkloadRunner

SUBJECTS = [f"s{i}" for i in range(6)]
PREDICATES = [f"p{i}" for i in range(3)]
OBJECTS = [f"o{i}" for i in range(4)]

triples = st.lists(
    st.tuples(
        st.sampled_from(SUBJECTS),
        st.sampled_from(PREDICATES),
        st.sampled_from(OBJECTS),
        st.integers(min_value=0, max_value=50),
    ),
    min_size=2,
    max_size=20,
)

operations = st.lists(
    st.tuples(
        st.booleans(),
        st.sampled_from(SUBJECTS),
        st.sampled_from(PREDICATES),
        st.sampled_from(OBJECTS),
        st.integers(min_value=0, max_value=99),
    ),
    min_size=2,
    max_size=16,
)

pattern_specs = st.lists(
    st.tuples(
        st.sampled_from(PREDICATES),
        st.one_of(st.none(), st.sampled_from(OBJECTS)),
    ),
    min_size=1,
    max_size=2,
    unique=True,
)


def build_query(specs) -> TriplePatternQuery:
    subject = Variable("s")
    patterns = []
    for index, (predicate, obj) in enumerate(specs):
        term = obj if obj is not None else Variable(f"o{index}")
        patterns.append(TriplePattern(subject, predicate, term))
    return TriplePatternQuery(patterns, name="probe")


def build_rules(specs) -> RuleSet:
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


def backends(rows):
    base = KnowledgeGraph(name="base")
    base.add_triples(Triple(s, p, o, float(score)) for s, p, o, score in rows)
    yield "object", KnowledgeGraph(base.triples(), name="object")
    yield "columnar", ColumnarGraph.from_graph(base, name="columnar")


def answer_rows(answers):
    return [(a.bindings, a.score) for a in answers]


@settings(max_examples=10, deadline=None)
@given(
    rows=triples,
    ops=operations,
    specs=pattern_specs,
    k=st.integers(min_value=1, max_value=5),
)
def test_result_cached_runner_is_answer_invisible(rows, ops, specs, k):
    query = build_query(specs)
    rules = build_rules(specs)
    updates = [
        GraphUpdate.add(s, p, o, float(score))
        if is_add
        else GraphUpdate.remove(s, p, o)
        for is_add, s, p, o, score in ops
    ]
    half = len(updates) // 2
    update_batches = [b for b in (updates[:half], updates[half:]) if b]

    for (backend_name, cached_graph), (_, plain_graph) in zip(
        backends(rows), backends(rows)
    ):
        cached = WorkloadRunner(Workload("cached", cached_graph, rules, (query,)))
        plain = WorkloadRunner(
            Workload("plain", plain_graph, rules, (query,)),
            result_cache_capacity=0,
        )
        assert cached.result_cache is not None
        assert plain.result_cache is None

        phases = [None, *update_batches]
        for phase_index, batch in enumerate(phases):
            if batch is not None:
                cached.apply_updates(batch)
                plain.apply_updates(batch)
            plan = SpecQPEngine(plain.graph, rules).plan(query, k).plan
            expected = answer_rows(NaiveEngine(plain.graph, rules).evaluate(plan, k))
            uncached = answer_rows(plain.execute_query(query, k=k))
            first = answer_rows(cached.execute_query(query, k=k))
            repeat = answer_rows(cached.execute_query(query, k=k))
            assert uncached == expected, (backend_name, phase_index, "uncached")
            assert first == expected, (backend_name, phase_index, "first")
            assert repeat == expected, (backend_name, phase_index, "repeat")
        # The repeats were genuinely served from the cache, not
        # coincidentally re-executed.
        assert cached.result_cache.stats().hits >= len(phases)
