"""Catalog statistics come from the score column, bit for bit.

``StatisticsCatalog`` computes every pattern's :class:`PatternStats` and
histograms from the normalized score column of the pattern's encoded
list.  On every pattern PLANGEN reads in the decision-freeze workloads
(tiny XKG, tiny Twitter, every scenario pack) they must equal the
string-list computation — the score list of ``graph.match_list`` summed
left to right — on the object, columnar and live backends; and planning
over a store-backed graph must not build one string match list.
"""

from __future__ import annotations

import dataclasses

import pytest

from freeze_decisions import workloads
from repro.core.config import EngineConfig
from repro.core.engine import SpecQPEngine
from repro.datasets.workload import Workload
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.index import MatchList
from repro.service.runner import WorkloadRunner
from repro.stats.catalog import StatisticsCatalog
from repro.stats.histogram import (
    NBucketHistogram,
    PatternStats,
    TwoBucketHistogram,
)


def string_list_stats(scores, mass_fraction: float) -> PatternStats:
    """The four values from a string list's scores, every sum a plain
    left-to-right float loop (the order Python 3.11's ``sum`` uses)."""
    m = len(scores)
    if m == 0:
        return PatternStats(m=0, sigma_r=0.0, s_r=0.0, s_m=0.0, r=0)
    total = 0.0
    for score in scores:
        total += score
    if total <= 0.0:
        return PatternStats(m=m, sigma_r=0.0, s_r=0.0, s_m=0.0, r=m)
    threshold = mass_fraction * total
    running, rank = 0.0, m
    for at, score in enumerate(scores, start=1):
        running += score
        if running >= threshold - 1e-12:
            rank = at
            break
    s_r = 0.0
    for score in scores[:rank]:
        s_r += score
    return PatternStats(m=m, sigma_r=scores[rank - 1], s_r=s_r, s_m=total, r=rank)


def planned_patterns(workload: Workload):
    """Every pattern whose statistics PLANGEN can read: the queries'
    patterns and their relaxations' ranges."""
    patterns = {p for query in workload.queries for p in query.patterns}
    for pattern in list(patterns):
        patterns.update(rule.range for rule in workload.rules.for_pattern(pattern))
    return sorted(patterns, key=str)


def update_batch(workload: Workload) -> list[GraphUpdate]:
    """A re-score, a removal and an add with a fresh term inside the
    first query's lists."""
    pattern = workload.queries[0].patterns[0]
    victims = workload.graph.match_list(pattern).triples
    _, predicate, obj = pattern.key()
    batch = []
    if predicate is not None and obj is not None:
        batch.append(GraphUpdate.add("fresh-entity", predicate, obj, 1e6))
    if victims:
        batch.append(GraphUpdate.add(*victims[0].spo, victims[0].score * 3 + 1))
    if len(victims) > 1:
        batch.append(GraphUpdate.remove(*victims[-1].spo))
    return batch


def serve_as(kind: str, workload: Workload):
    if kind == "object":
        return workload.graph
    columnar = ColumnarGraph.from_graph(workload.graph)
    if kind == "columnar":
        return columnar
    live = LiveGraph(columnar)
    live.apply_updates(update_batch(workload))
    return live


@pytest.fixture(scope="module")
def all_workloads() -> dict[str, Workload]:
    return dict(workloads())


@pytest.mark.parametrize("kind", ("object", "columnar", "live"))
def test_statistics_equal_the_string_list_computation(all_workloads, kind):
    checked = 0
    for name, workload in all_workloads.items():
        graph = serve_as(kind, workload)
        two = StatisticsCatalog(graph)
        many = StatisticsCatalog(graph, histogram_kind="n-bucket")
        for pattern in planned_patterns(workload):
            scores = graph.match_list(pattern).normalized_scores
            expected = string_list_stats(scores, two.mass_fraction)
            where = f"{name}/{kind}/{pattern}"
            assert two.pattern_stats(pattern) == expected, where
            assert two.histogram(pattern) == TwoBucketHistogram.from_stats(expected), where
            assert many.histogram(pattern) == NBucketHistogram.from_scores(
                scores, many.n_buckets
            ), where
            checked += 1
    assert checked > 500


@pytest.fixture
def count_string_lists(monkeypatch):
    """The number of string :class:`MatchList` objects built so far."""
    built = []
    init = MatchList.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MatchList, "__init__", counting_init)
    return built


@pytest.mark.parametrize("histogram_kind", ("two-bucket", "n-bucket"))
def test_planning_builds_no_string_list(
    tiny_xkg_workload, count_string_lists, histogram_kind
):
    workload = dataclasses.replace(
        tiny_xkg_workload, graph=ColumnarGraph.from_graph(tiny_xkg_workload.graph)
    )
    config = EngineConfig(histogram_kind=histogram_kind)
    runner = WorkloadRunner(workload, config, executor="block")
    batch = update_batch(tiny_xkg_workload)
    count_string_lists.clear()  # choosing the batch read string lists

    def plan_every_query():
        engine = SpecQPEngine(
            runner.graph,
            workload.rules,
            config,
            catalog=runner.catalog,
            encoded_store=runner.encoded_store,
            executor="block",
        )
        for query in workload.queries:
            engine.plan(query)

    runner.warm_up()
    plan_every_query()
    assert count_string_lists == []  # columnar graph

    runner.apply_updates(batch[:1])  # wraps it in a LiveGraph
    assert isinstance(runner.graph, LiveGraph)
    runner.warm_up()
    plan_every_query()
    runner.apply_updates(batch[1:])  # a targeted refresh
    plan_every_query()
    assert count_string_lists == []
