"""One oracle agrees with both pipelines.

:meth:`NaiveEngine.evaluate <repro.baselines.naive.NaiveEngine.evaluate>`
is the repository's one independent reference: brute-force lists,
Definition-8 merges, hash joins and a canonical cut in plain Python,
sharing no list, merge, join or cut code with either pipeline.  Here it
is proven against both while both exist: for PLANGEN's plan and the
TriniT plan of every query, the oracle, the tuple pipeline and the block
pipeline return the same bindings with the same score bits.

* Every shipped scenario pack at its k, on its object graph and — for a
  pack with an update stream — on a live overlay after the stream: the
  boundary-tie runs, starved k, empty lists and open joins the
  adversarial packs plant.
* The golden tables' workloads (tier-1) and the Tables 2–4 benchmark
  workloads (``slow_scenario``) at k ∈ {10, 15, 20}.
"""

from __future__ import annotations

import functools

import pytest

from repro.baselines.naive import NaiveEngine
from repro.core.engine import SpecQPEngine
from repro.core.plan import QueryPlan
from repro.datasets import TwitterConfig, XKGConfig, generate_twitter, generate_xkg
from repro.datasets.scenarios import build_scenario, scenario_names
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import LiveGraph
from repro.kg.pattern import TriplePattern, var

PAPER_KS = (10, 15, 20)


def answer_bits(answers):
    return [(answer.bindings, answer.score.hex()) for answer in answers]


def assert_agreement(graph, rules, queries, ks):
    """Oracle, tuple and block agree on PLANGEN's and TriniT's plan of
    every query at every k."""
    engine = SpecQPEngine(graph, rules)
    oracle = NaiveEngine(graph, rules)
    for query in queries:
        for k in ks:
            for plan in (engine.plan(query, k).plan, QueryPlan.trinit(query)):
                expected = answer_bits(oracle.evaluate(plan, k))
                for executor in ("tuple", "block"):
                    served = engine.executor.execute(plan, k, executor=executor)
                    assert answer_bits(served.answers) == expected, (
                        query.name, k, plan.describe(), executor
                    )


@functools.lru_cache(maxsize=None)
def _pack(name):
    return build_scenario(name)


@pytest.mark.parametrize("name", scenario_names())
def test_every_scenario_pack_before_and_after_its_updates(name):
    pack = _pack(name)
    workload = pack.workload
    assert_agreement(workload.graph, workload.rules, workload.queries, (pack.k,))
    if pack.updates:
        live = LiveGraph(ColumnarGraph.from_graph(workload.graph))
        live.apply_updates(pack.updates)
        assert_agreement(live, workload.rules, workload.queries, (pack.k,))


@pytest.mark.parametrize("dataset", ["xkg", "twitter"])
def test_golden_table_workloads(dataset, tiny_xkg_workload, tiny_twitter_workload):
    workload = tiny_xkg_workload if dataset == "xkg" else tiny_twitter_workload
    assert_agreement(workload.graph, workload.rules, workload.queries, PAPER_KS)


#: The Tables 2–4 benchmarks' workloads (``benchmarks/conftest.py``).
TABLE_WORKLOADS = {
    "xkg": lambda: generate_xkg(
        XKGConfig(
            n_domains=6, types_per_domain=14, n_entities=1200, n_topics=80,
            n_queries=30, seed=42,
        )
    ),
    "twitter": lambda: generate_twitter(
        TwitterConfig(
            n_tweets=2500, n_trends=15, vocabulary_per_trend=25, n_queries=24, seed=7
        )
    ),
}


@pytest.mark.slow_scenario
@pytest.mark.parametrize("dataset", sorted(TABLE_WORKLOADS))
def test_table_workloads(dataset):
    workload = TABLE_WORKLOADS[dataset]()
    assert_agreement(workload.graph, workload.rules, workload.queries, PAPER_KS)


def test_boundary_tie_runs_out_of_binding_order():
    """Merged and joined orders put a tie run out of binding order: the
    relaxed input's rows tie with the original's last row, and a join
    multiplies the ties.  Each k cuts through the run, so only the
    canonical ``(-score, bindings)`` cut of the whole run agrees."""
    from repro.kg.graph import KnowledgeGraph
    from repro.query.query import TriplePatternQuery
    from repro.relax.rules import RelaxationRule, RuleSet

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
    assert_agreement(graph, rules, queries, (1, 2, 3, 4))


def type_pattern(name):
    return TriplePattern(var("s"), "rdf:type", name)


class TestOracleLists:
    """The oracle's own lists, on the running example's music graph."""

    def test_single_input_is_the_definition5_list(self, music_graph):
        oracle = NaiveEngine(music_graph, None)
        rows = oracle.rows([(type_pattern("singer"), 1.0)])
        assert rows == [
            (("shakira",), 1.0),
            (("beyonce",), 0.9),
            (("miley",), 0.5),
            (("taher",), 0.01),
        ]

    def test_merge_keeps_each_bindings_best_row(self, music_graph):
        oracle = NaiveEngine(music_graph, None)
        rows = oracle.rows(
            [(type_pattern("singer"), 1.0), (type_pattern("vocalist"), 0.8)]
        )
        # freddie is a vocalist only; shakira's and miley's vocalist rows
        # score below their singer rows and are dropped.
        assert [binding for binding, _ in rows] == [
            ("shakira",), ("beyonce",), ("freddie",), ("miley",), ("taher",)
        ]
        assert rows[2][1] == 0.8 * (95.0 / 95.0)

    def test_lists_follow_the_graph_version(self, music_graph):
        oracle = NaiveEngine(music_graph, None)
        assert len(oracle.rows([(type_pattern("singer"), 1.0)])) == 4
        music_graph.add("adele", "rdf:type", "singer", score=200.0)
        assert oracle.rows([(type_pattern("singer"), 1.0)])[0] == (("adele",), 1.0)
