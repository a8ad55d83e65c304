"""Property: mutation then query ≡ query over a from-scratch rebuild.

The mutation-equivalence oracle the live-update subsystem rests on: for
any interleaving of ``add`` (including score overwrites) and ``remove``
operations, querying the mutated graph must equal querying a fresh graph
built from the final triple set — for the object backend mutated in
place, and for :class:`~repro.kg.delta.LiveGraph` overlays over the
columnar and object backends.

Scores are small integers, so ties are common and the canonical tie
resolution is exercised on most examples.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SpecQPEngine
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, Variable
from repro.kg.triple import Triple
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RelaxationRule, RuleSet

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
    max_size=25,
)

# Interleaved mutations: adds (op True, may overwrite) and removes.
operations = st.lists(
    st.tuples(
        st.booleans(),
        st.sampled_from(SUBJECTS),
        st.sampled_from(PREDICATES),
        st.sampled_from(OBJECTS),
        st.integers(min_value=0, max_value=99),
    ),
    min_size=1,
    max_size=30,
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
    return TriplePatternQuery(patterns)


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


def final_scores(rows, ops) -> dict[tuple[str, str, str], float]:
    scores = {(s, p, o): float(score) for s, p, o, score in rows}
    for is_add, s, p, o, score in ops:
        if is_add:
            scores[(s, p, o)] = float(score)
        else:
            scores.pop((s, p, o), None)
    return scores


def answer_rows(result):
    return [(answer.bindings, answer.score) for answer in result.answers]


@settings(max_examples=20, deadline=None)
@given(
    rows=triples,
    ops=operations,
    specs=pattern_specs,
    k=st.integers(min_value=1, max_value=5),
)
def test_mutated_graphs_answer_like_fresh_rebuilds(rows, ops, specs, k):
    initial = KnowledgeGraph(name="initial")
    initial.add_triples(Triple(s, p, o, float(score)) for s, p, o, score in rows)

    fresh = KnowledgeGraph(
        (Triple(s, p, o, sc) for (s, p, o), sc in final_scores(rows, ops).items()),
        name="fresh",
    )
    rules = build_rules(specs)
    query = build_query(specs)

    # The object backend, mutated in place.
    mutated = KnowledgeGraph(initial.triples(), name="mutated")
    updates = []
    for is_add, s, p, o, score in ops:
        if is_add:
            mutated.add(s, p, o, score=float(score))
            updates.append(GraphUpdate.add(s, p, o, float(score)))
        else:
            mutated.remove(s, p, o)
            updates.append(GraphUpdate.remove(s, p, o))

    # Live overlays over the frozen backends, fed the same interleaving.
    overlays = [
        LiveGraph(ColumnarGraph.from_graph(initial)),
        LiveGraph(KnowledgeGraph(initial.triples(), name="base")),
    ]
    for overlay in overlays:
        overlay.apply_updates(updates)
        assert overlay.size == fresh.size

    expected = answer_rows(SpecQPEngine(fresh, rules).query(query, k=k))
    actual = answer_rows(SpecQPEngine(mutated, rules).query(query, k=k))
    assert actual == expected, "object"

    for overlay in overlays:
        actual = answer_rows(SpecQPEngine(overlay, rules).query(query, k=k))
        assert actual == expected, ("live", type(overlay.base).__name__)
        overlay.compact()
        actual = answer_rows(SpecQPEngine(overlay, rules).query(query, k=k))
        assert actual == expected, ("compacted", type(overlay.base).__name__)
