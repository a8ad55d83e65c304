"""The oracle matrix: input × backend × state × serving, every answer
checked against :meth:`NaiveEngine.evaluate` of the plan that was served
(``tests/oracle_matrix.py``).

Tier-1 runs the cells listed in :data:`TIER1` and :data:`DRAWN_TIER1`;
``make scenarios`` (``-m slow_scenario``) runs the rest of the product.
Set ``SPEC_QP_BENCH_PROFILE=smoke`` to serve the medium synthetic input at
10k-triple scale.
"""

from __future__ import annotations

import functools
import itertools
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_matrix import (
    BACKENDS,
    EXECUTORS,
    SERVINGS,
    STATES,
    Case,
    Cell,
    cells,
    run_cell,
)
from repro.datasets import (
    TwitterConfig,
    XKGConfig,
    generate_scaled_graph,
    generate_twitter,
    generate_xkg,
)
from repro.datasets.scenarios import (
    RELAXED_TIE_KS,
    SCENARIOS,
    build_scenario,
    scenario_names,
)
from repro.kg.delta import GraphUpdate
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, Variable, var
from repro.kg.triple import Triple
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RelaxationRule, RuleSet

PAPER_KS = (10, 15, 20)
PROFILE = os.environ.get("SPEC_QP_BENCH_PROFILE", "medium")


# ----------------------------------------------------------------------
# Inputs: name -> Case builder (given pytest's fixture lookup)
# ----------------------------------------------------------------------
def pack_case(name, fixture=None):
    """A pack at its k; a pack with relaxed tie runs also at the ks they
    straddle."""
    pack = build_scenario(name)
    workload = pack.workload
    ks = (pack.k, *RELAXED_TIE_KS) if "relaxed-ties" in pack.traits else (pack.k,)
    return Case(name, workload.graph, workload.rules, workload.queries, ks,
                pack.updates)


def workload_case(name, workload):
    return Case(name, workload.graph, workload.rules, workload.queries, PAPER_KS)


def tie_case(fixture):
    """Merged and joined orders put a tie run out of binding order: the
    relaxed input's rows tie with the original's last row, and a join
    multiplies the ties; each k cuts through the run."""
    graph = KnowledgeGraph(name="ties")
    for subject, obj, score in [
        ("z", "o1", 10.0), ("y", "o1", 5.0), ("b", "o2", 10.0), ("a", "o2", 10.0),
        ("x", "o2", 5.0),
    ]:
        graph.add(subject, "p", obj, score=score)
    for subject in "zyxba":
        graph.add(subject, "q", "c", score=1.0)
    wanted = TriplePattern(var("s"), "p", "o1")
    rules = RuleSet()
    rules.add(RelaxationRule(wanted, TriplePattern(var("s"), "p", "o2"), 0.5))
    queries = [
        TriplePatternQuery((wanted,), name="relaxed"),
        TriplePatternQuery((TriplePattern(var("s"), "q", var("o")), wanted), name="joined"),
    ]
    return Case("ties", graph, rules, queries, (1, 2, 3, 4))


def music_case(fixture):
    """The running example's edge cases: k from 1 past every result count,
    an empty match list in a join, three relaxable patterns."""
    singer = TriplePattern(var("s"), "rdf:type", "singer")
    ghost = TriplePattern(var("s"), "rdf:type", "ghost")
    queries = [
        fixture("singer_lyricist_query"),
        fixture("three_pattern_query"),
        TriplePatternQuery((singer,), name="small"),
        TriplePatternQuery((singer, ghost), name="empty-side"),
    ]
    return Case("music", fixture("music_graph"), fixture("music_rules"), queries,
                (1, 3, 10, 100))


def diagonal_case(fixture):
    """An open pattern caches the unfiltered list under the key a
    repeated-variable pattern shares; the diagonal query, asked after it,
    must still drop the off-diagonal rows."""
    graph = KnowledgeGraph(name="diagonal")
    for s, p, o, score in [
        ("a", "p", "a", 4.0), ("a", "p", "b", 3.0), ("b", "p", "b", 5.0),
        ("b", "p", "c", 2.0),
    ]:
        graph.add(s, p, o, score=score)
    queries = [
        TriplePatternQuery((TriplePattern(var("x"), "p", var("y")),), name="open"),
        TriplePatternQuery((TriplePattern(var("x"), "p", var("x")),), name="diagonal"),
    ]
    return Case("diagonal", graph, RuleSet(), queries, (10,),
                (GraphUpdate.add("c", "p", "d", 1.0), GraphUpdate.add("c", "p", "c", 6.0)))


def diverse_queries(n_predicates: int = 32) -> list[TriplePatternQuery]:
    """Open scans, object-bound lookups and 2-pattern chain joins."""
    s, o, t = Variable("s"), Variable("o"), Variable("t")
    queries = [
        TriplePatternQuery((TriplePattern(s, f"p{i:03d}", o),), name=f"pred-{i}")
        for i in range(n_predicates)
    ]
    queries += [
        TriplePatternQuery((TriplePattern(s, f"p{i:03d}", f"e{j:05d}"),), name=f"obj-{i}-{j}")
        for i, j in [(0, 0), (1, 1), (2, 0), (0, 2), (3, 1), (1, 0), (2, 2), (4, 0)]
    ]
    queries += [
        TriplePatternQuery(
            (TriplePattern(s, f"p{i:03d}", o), TriplePattern(o, f"p{i + 1:03d}", t)),
            name=f"chain-{i}",
        )
        for i in (0, 5, 9)
    ]
    return queries


def medium_case(fixture):
    """The medium synthetic profile under diverse traffic, served from a
    runner whose list store holds 8 of its 43 distinct patterns."""
    graph = generate_scaled_graph(PROFILE, seed=7)
    sample = [t for _, t in zip(range(8), graph.triples())]
    updates = [GraphUpdate.remove(*t.spo) for t in sample[:4]]
    updates += [GraphUpdate.add(*t.spo, t.score + 3.0) for t in sample[4:]]
    updates += [GraphUpdate.add(f"hot-{i}", "p000", f"e{i:05d}", 90_000.0 + i)
                for i in range(3)]
    return Case("medium", graph, RuleSet(), diverse_queries(), (10,), updates,
                cache_capacity=8)


#: The Tables 2-4 benchmarks' workloads (``benchmarks/conftest.py``).
TABLE_CONFIGS = {
    "tables-xkg": lambda: generate_xkg(XKGConfig(
        n_domains=6, types_per_domain=14, n_entities=1200, n_topics=80,
        n_queries=30, seed=42,
    )),
    "tables-twitter": lambda: generate_twitter(TwitterConfig(
        n_tweets=2500, n_trends=15, vocabulary_per_trend=25, n_queries=24, seed=7,
    )),
}

INPUTS = {
    **{name: functools.partial(pack_case, name) for name in scenario_names()},
    "golden-xkg": lambda fx: workload_case("golden-xkg", fx("tiny_xkg_workload")),
    "golden-twitter": lambda fx: workload_case("golden-twitter", fx("tiny_twitter_workload")),
    **{name: lambda fx, name=name: workload_case(name, TABLE_CONFIGS[name]())
       for name in TABLE_CONFIGS},
    "ties": tie_case,
    "music": music_case,
    "diagonal": diagonal_case,
    "medium": medium_case,
}

_CASES: dict[str, Case] = {}


def case_for(name, request) -> Case:
    """*name*'s input, built once a session (the harness never writes to
    an input's graph)."""
    if name not in _CASES:
        _CASES[name] = INPUTS[name](request.getfixturevalue)
    return _CASES[name]


# ----------------------------------------------------------------------
# Tier-1: the listed slice
# ----------------------------------------------------------------------
UPDATE_PACKS = [name for name in scenario_names() if SCENARIOS[name].n_updates]
ADVERSARIAL = [name for name in scenario_names() if name.startswith("adversarial-")]
HAND_BUILT = ["ties", "music", "diagonal"]

TIER1 = list(dict.fromkeys([
    # Every pack, the golden workloads and the tie graph: the oracle
    # agrees with both pipelines, before and after an update stream.
    *(Cell(name, "object", "static", "engine", executor)
      for name in [*scenario_names(), "golden-xkg", "golden-twitter", "ties"]
      for executor in EXECUTORS),
    *(Cell(name, backend, "live", "engine", executor)
      for name in UPDATE_PACKS
      for backend, executor in [("object", "tuple"), ("columnar", "block")]),
    # Every pack through the runner; the adversarial shapes on columns.
    *(Cell(name, "columnar", "static", "runner") for name in scenario_names()),
    *(Cell(name, "columnar", "static", "engine") for name in ADVERSARIAL),
    *(Cell(name, "kg2", "live", "runner-cached") for name in UPDATE_PACKS),
    # Golden workloads across backends, states and servings.
    *(Cell("golden-xkg", backend, "static", serving)
      for backend in ("columnar", "kg2") for serving in ("engine", "runner")),
    Cell("golden-xkg", "object", "static", "runner"),
    Cell("golden-twitter", "columnar", "static", "engine"),
    Cell("golden-xkg", "kg2", "live", "engine"),
    Cell("golden-xkg", "columnar", "compacted", "engine"),
    Cell("golden-xkg", "kg2", "static", "report"),
    Cell("golden-xkg", "kg2", "live", "report"),
    # The running example's edges, on columns and live.
    Cell("music", "columnar", "static", "engine"),
    Cell("music", "columnar", "live", "engine"),
    Cell("diagonal", "columnar", "live", "engine"),
    # The hand-built edge cases: every state x serving once, the backend
    # rotating, so each input also meets every backend.
    *(Cell(name, list(BACKENDS)[(i + j) % len(BACKENDS)], state, serving)
      for i, name in enumerate(HAND_BUILT)
      for j, (state, serving) in enumerate(itertools.product(STATES, SERVINGS))),
    # The medium profile through a churning list store.
    Cell("medium", "columnar", "static", "report"),
]))


@pytest.mark.parametrize("cell", TIER1, ids=str)
def test_cell(cell, request):
    run_cell(case_for(cell.input, request), cell)


@pytest.mark.slow_scenario
@pytest.mark.parametrize(
    "cell", [cell for cell in cells(INPUTS) if cell not in TIER1], ids=str
)
def test_full_matrix_cell(cell, request):
    run_cell(case_for(cell.input, request), cell)


# ----------------------------------------------------------------------
# One hypothesis draw: rows, query specs, rules, k and update ops.
# Scores are small integers, so ties are common.
# ----------------------------------------------------------------------
SUBJECTS = [f"s{i}" for i in range(8)]
PREDICATES = [f"p{i}" for i in range(3)]
OBJECTS = [f"o{i}" for i in range(5)]

terms = st.tuples(
    st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES), st.sampled_from(OBJECTS),
    st.integers(min_value=0, max_value=20),
)


@st.composite
def drawn_cases(draw):
    rows = draw(st.lists(terms, min_size=3, max_size=40))
    specs = draw(st.lists(
        st.tuples(st.sampled_from(PREDICATES), st.one_of(st.none(), st.sampled_from(OBJECTS))),
        min_size=1, max_size=3, unique=True,
    ))
    ops = draw(st.lists(st.tuples(st.booleans(), terms), min_size=2, max_size=16))
    k = draw(st.integers(min_value=1, max_value=6))

    subject = Variable("s")
    rules = RuleSet()
    patterns = []
    for index, (predicate, obj) in enumerate(specs):
        if obj is None:
            patterns.append(TriplePattern(subject, predicate, Variable(f"o{index}")))
            continue
        pattern = TriplePattern(subject, predicate, obj)
        sibling = OBJECTS[(OBJECTS.index(obj) + 1) % len(OBJECTS)]
        rules.add(RelaxationRule(pattern, TriplePattern(subject, predicate, sibling), 0.7))
        patterns.append(pattern)
    open_scan = TriplePattern(subject, PREDICATES[0], Variable("o"))
    queries = [
        TriplePatternQuery(patterns, name="drawn"),
        TriplePatternQuery((open_scan,), name="open"),
        TriplePatternQuery(
            (open_scan, TriplePattern(subject, "absent", Variable("z"))), name="empty"
        ),
    ]
    updates = [
        GraphUpdate.add(s, p, o, float(score)) if is_add else GraphUpdate.remove(s, p, o)
        for is_add, (s, p, o, score) in ops
    ]
    graph = KnowledgeGraph(Triple(s, p, o, float(score)) for s, p, o, score in rows)
    # k = 50 is past every result count.  Every write is a transition, so
    # a live state is read between every two writes; a drawn stream may
    # change no answer.
    return Case("drawn", graph, rules, queries, (k, 50), updates, batch_size=1,
                stream_changes=False)


#: The tier-1 drawn cells and the examples each draws.
DRAWN_TIER1 = {
    Cell("drawn", "columnar", "static", "engine"): 30,
    Cell("drawn", "object", "live", "engine"): 30,
    Cell("drawn", "columnar", "live", "engine"): 20,
    Cell("drawn", "kg2", "compacted", "engine"): 20,
    Cell("drawn", "object", "live", "runner-cached"): 20,
    Cell("drawn", "columnar", "live", "runner-cached"): 20,
}


@pytest.mark.parametrize("cell", DRAWN_TIER1, ids=str)
def test_drawn_cell(cell):
    @settings(max_examples=DRAWN_TIER1[cell], deadline=None)
    @given(case=drawn_cases())
    def check(case):
        run_cell(case, cell)

    check()


@pytest.mark.slow_scenario
@pytest.mark.parametrize(
    "cell", [cell for cell in cells(["drawn"]) if cell not in DRAWN_TIER1], ids=str
)
@settings(max_examples=30, deadline=None)
@given(case=drawn_cases())
def test_full_matrix_drawn_cell(cell, case):
    run_cell(case, cell)
