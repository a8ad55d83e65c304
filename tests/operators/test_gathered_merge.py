"""A merged relaxation list gathered straight from the id columns equals
the oracle's Definition-8 merge of its inputs
(:meth:`NaiveEngine.rows <repro.baselines.naive.NaiveEngine.rows>`) —
terms, order and score bits — on every backend, and a merge miss reads
no per-input entry of the store."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveEngine
from repro.core.engine import SpecQPEngine
from repro.core.plan import QueryPlan, relaxation_inputs
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, var
from repro.kg.storage import load_snapshot_v2, save_snapshot_v2
from repro.operators.block import EncodedListStore, build_merged_match_list
from repro.relax.rules import RelaxationRule, RuleSet

ENTITIES = ("a", "b", "c", "d")
PREDICATES = ("p", "q")
#: Terms only updates introduce: outside every store dictionary.
NEW_ENTITIES = ("n0", "n1")
#: Repeated values give score ties within and across lists.
SCORES = (0.0, 1.0, 2.0, 2.0, 5.0)
BACKENDS = (
    "object",
    "columnar",
    "kg2",
    "live",
    "live-object",
    "live-kg2",
    "live-compacted",
)


def attached_kg2(graph):
    """*graph* saved as a ``.kg2`` and attached back over memory-mapped
    columns (the mapping outlives the unlinked file)."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "g.kg2"
        save_snapshot_v2(graph, path)
        return load_snapshot_v2(path, mmap=True)


def backend(kind: str, triples, updates=()):
    graph = KnowledgeGraph(name=kind)
    for s, p, o, score in triples:
        graph.add(s, p, o, score)
    if kind in ("columnar", "live", "live-compacted"):
        graph = ColumnarGraph.from_graph(graph)
    elif kind in ("kg2", "live-kg2"):
        graph = attached_kg2(graph)
    if kind.startswith("live"):
        graph = LiveGraph(graph)
        graph.apply_updates(updates)
    if kind == "live-compacted":
        graph.compact()
    return graph


def merged_and_reference(graph, inputs):
    """The gathered merge — through a store whose per-pattern lookups
    are counted — decoded, and the oracle's merge of *inputs*."""
    store = EncodedListStore()
    lookups = []
    get_or_build = store.get_or_build
    store.get_or_build = lambda *args, **kwargs: (  # type: ignore[method-assign]
        lookups.append(args), get_or_build(*args, **kwargs)
    )[1]
    codec = store.codec(graph)
    merged = store.get_or_merge(
        graph,
        inputs[0][0],
        "v",
        lambda: build_merged_match_list(graph, inputs, codec),
        codec,
    )
    stats = store.stats()
    assert lookups == []
    assert (stats["hits"], stats["misses"], stats["merged_misses"]) == (0, 0, 1)
    assert merged.var_names == inputs[0][0].variable_names
    assert all(column.dtype == np.int64 for column in merged.columns)
    assert merged.scores.dtype == np.float64
    terms = [[codec.decode(i) for i in column.tolist()] for column in merged.columns]
    rows = [
        (tuple(column[row] for column in terms), score)
        for row, score in enumerate(merged.scores.tolist())
    ]
    return merged, rows, NaiveEngine(graph, None).rows(inputs)


def patterns_over(names: tuple[str, ...]):
    """Patterns binding exactly the variables *names*, anywhere — so a
    relaxation can move a variable, and one can repeat in a pattern."""
    return (
        st.tuples(*[st.sampled_from(names + ENTITIES + PREDICATES)] * 3)
        .filter(lambda terms: {t for t in terms if t in names} == set(names))
        .map(lambda terms: TriplePattern(*(var(t) if t in names else t for t in terms)))
    )


@st.composite
def cases(draw):
    triples = draw(
        st.lists(
            st.tuples(
                st.sampled_from(ENTITIES),
                st.sampled_from(PREDICATES),
                st.sampled_from(ENTITIES),
                st.sampled_from(SCORES),
            ),
            min_size=1,
            max_size=14,
        )
    )
    if draw(st.booleans()):  # every score zero
        triples = [(s, p, o, 0.0) for s, p, o, _ in triples]
    known = [(s, p, o) for s, p, o, _ in triples]
    updates = draw(
        st.lists(
            st.one_of(
                # adds, some with terms outside the store dictionary
                st.builds(
                    GraphUpdate.add,
                    st.sampled_from(ENTITIES + NEW_ENTITIES),
                    st.sampled_from(PREDICATES),
                    st.sampled_from(ENTITIES + NEW_ENTITIES),
                    st.sampled_from(SCORES),
                ),
                # re-scores and tombstones of base triples
                st.builds(
                    lambda spo, score: GraphUpdate.add(*spo, score),
                    st.sampled_from(known),
                    st.sampled_from(SCORES),
                ),
                st.builds(lambda spo: GraphUpdate.remove(*spo), st.sampled_from(known)),
            ),
            max_size=6,
        )
    )
    names = draw(st.sampled_from((("x",), ("x", "y"))))
    domain = draw(patterns_over(names))
    ranges = draw(
        st.lists(
            patterns_over(names).filter(lambda p: p != domain),
            max_size=4,
            unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.sampled_from((0.25, 0.5, 0.8, 1.0)),
            min_size=len(ranges),
            max_size=len(ranges),
        )
    )
    rules = RuleSet(
        RelaxationRule(domain, target, weight) for target, weight in zip(ranges, weights)
    )
    cap = draw(st.sampled_from((None, 0, 1, 2)))
    return triples, updates, relaxation_inputs(domain, rules, cap)


@settings(max_examples=120, deadline=None)
@given(case=cases(), kind=st.sampled_from(BACKENDS))
def test_gathered_merge_is_the_definition8_merge(case, kind):
    triples, updates, inputs = case
    graph = backend(kind, triples, updates)
    _, rows, reference = merged_and_reference(graph, inputs)
    assert rows == reference


def x_y(subject, predicate, obj) -> TriplePattern:
    return TriplePattern(
        *(var(t[1:]) if t.startswith("?") else t for t in (subject, predicate, obj))
    )


TRIPLES = [
    ("a", "p", "b", 5.0),
    ("b", "p", "a", 2.0),
    ("c", "p", "c", 2.0),
    ("a", "q", "c", 1.0),
    ("c", "q", "a", 5.0),
    ("d", "q", "d", 1.0),
]
UPDATES = [
    GraphUpdate.add("n0", "p", "a", 9.0),  # side ids
    GraphUpdate.add("c", "q", "a", 0.5),  # re-score
    GraphUpdate.remove("a", "p", "b"),  # tombstone
]
INPUT_SETS = {
    "moved-variable": [
        (x_y("?x", "p", "?y"), 1.0),
        (x_y("?y", "q", "?x"), 0.5),
        (x_y("?x", "q", "?y"), 0.8),
    ],
    "repeated-variable": [(x_y("?x", "q", "?x"), 1.0), (x_y("?x", "p", "?x"), 0.5)],
    "empty-inputs": [(x_y("?x", "p", "zzz"), 1.0), (x_y("zzz", "q", "?x"), 0.5)],
    "one-empty-input": [(x_y("?x", "p", "zzz"), 1.0), (x_y("?x", "p", "a"), 0.5)],
}


@pytest.mark.parametrize("kind", BACKENDS)
@pytest.mark.parametrize("name", sorted(INPUT_SETS))
@pytest.mark.parametrize("zero", (False, True), ids=("scored", "all-zero"))
def test_named_shapes(kind, name, zero):
    triples = [(s, p, o, 0.0 if zero else score) for s, p, o, score in TRIPLES]
    graph = backend(kind, triples, UPDATES)
    merged, rows, reference = merged_and_reference(graph, INPUT_SETS[name])
    assert rows == reference
    if name == "empty-inputs":
        assert len(merged) == 0
    if zero and not kind.startswith("live"):
        assert not merged.scores.any()


def test_relaxation_cap_limits_the_inputs():
    domain = x_y("?x", "p", "?y")
    rules = RuleSet(
        [
            RelaxationRule(domain, x_y("?y", "?x", "c"), 0.5),
            RelaxationRule(domain, x_y("?x", "q", "?y"), 0.8),
        ]
    )
    graph = backend("live", TRIPLES, UPDATES)
    lengths = []
    for cap in (0, 1, None):
        inputs = relaxation_inputs(domain, rules, cap)
        assert len(inputs) == (3 if cap is None else 1 + cap)
        merged, rows, reference = merged_and_reference(graph, inputs)
        assert rows == reference
        lengths.append(len(merged))
    assert lengths[0] < lengths[1] < lengths[2]


@pytest.mark.parametrize("kind", ("columnar", "live"))
def test_executing_relaxed_patterns_reads_no_per_input_list(tiny_xkg_workload, kind):
    """Every pattern of a TriniT plan is relaxed: its execution reads the
    store's merged entries only — a miss gathers from the graph."""
    workload = tiny_xkg_workload
    graph = ColumnarGraph.from_graph(workload.graph)
    if kind == "live":
        graph = LiveGraph(graph)
        graph.apply_updates(UPDATES)
    engine = SpecQPEngine(graph, workload.rules, executor="block")
    store = engine.executor.encoded_store
    for query in workload.queries:
        engine.executor.execute(QueryPlan.trinit(query), 5)
    stats = store.stats()
    assert (stats["hits"], stats["misses"]) == (0, 0)
    assert stats["merged_misses"] > 0
