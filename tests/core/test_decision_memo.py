"""PLANGEN's decision memo: keyed by the query, k and the rules' version,
validated by the identity of every catalog histogram the decision read.

A hit must be exactly the decision a fresh planner makes; a write that
touches a pattern a decision read must re-plan it while every other
decision keeps hitting; anything else that can move a decision — the
projection, the pattern order, a rule added in place — must miss; the
memo stays within its bound; and a hit reports its own planning time.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from freeze_decisions import GOLDEN_PATH, KS, workloads
from repro.core.engine import SpecQPEngine
from repro.core.estimator import DECISION_MEMO_SIZE
from repro.kg.columnar import ColumnarGraph, ColumnarStore
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.index import touched_pattern_keys
from repro.kg.pattern import TriplePattern, Variable
from repro.query.query import TriplePatternQuery
from repro.query.rewrite import top_weighted_relaxation
from repro.relax.rules import RelaxationRule, RuleSet

GOLDEN = sorted(json.loads(GOLDEN_PATH.read_text()))


def decision_values(decision) -> tuple:
    """Everything a decision decides and every float it read."""
    return (
        decision.plan,
        decision.expected_kth_original.hex(),
        tuple(
            (d.pattern_index, d.tested_rule, d.expected_relaxed_top.hex(), d.relax)
            for d in decision.per_pattern
        ),
    )


def read_keys(query: TriplePatternQuery, rules: RuleSet) -> set[tuple]:
    """The pattern keys of every histogram PLANGEN reads for *query*."""
    patterns = list(query.patterns)
    for pattern in query.patterns:
        rule = top_weighted_relaxation(query, pattern, rules)
        if rule is not None:
            patterns.append(rule.range)
    return {pattern.key() for pattern in patterns}


@pytest.fixture(scope="module")
def golden_workloads():
    return dict(workloads())


@pytest.mark.parametrize("name", GOLDEN)
def test_a_hit_equals_a_fresh_planners_decision(golden_workloads, name):
    workload = golden_workloads[name]
    warm = SpecQPEngine(workload.graph, workload.rules)
    fresh = SpecQPEngine(workload.graph, workload.rules)
    for query in workload.queries:
        for k in KS:
            warm.plan(query, k)
    misses = warm.planner.memo_stats()["misses"]
    for query in workload.queries:
        for k in KS:
            hit = warm.plan(query, k)
            expected = fresh.plan(query, k)
            assert decision_values(hit) == decision_values(expected), query.name
    info = warm.planner.memo_stats()
    assert info["misses"] == misses  # every repeat was a hit
    assert info["hits"] + info["misses"] == 2 * len(workload.queries) * len(KS)


def test_a_write_re_plans_the_queries_that_read_it_and_only_those(
    tiny_xkg_workload,
):
    workload = tiny_xkg_workload
    graph = LiveGraph(ColumnarGraph.from_graph(workload.graph))
    engine = SpecQPEngine(graph, workload.rules)
    reads = {query: read_keys(query, workload.rules) for query in workload.queries}
    # A triple of one query's first pattern that no other query reads.
    touched, untouched, triple = next(
        (query, other, triple)
        for query in workload.queries
        for triple in workload.graph.match(query.patterns[0])
        for other in workload.queries
        if not reads[other] & touched_pattern_keys([triple.spo])
    )
    for query in (touched, untouched):
        engine.plan(query, 5)

    graph.apply_updates([GraphUpdate.add(*triple.spo, triple.score * 3 + 1)])
    before = engine.planner.memo_stats()
    replanned = engine.plan(touched, 5)
    after_touched = engine.planner.memo_stats()
    assert after_touched["misses"] == before["misses"] + 1
    assert after_touched["hits"] == before["hits"]
    engine.plan(untouched, 5)
    assert engine.planner.memo_stats()["hits"] == before["hits"] + 1

    fresh_graph = ColumnarGraph(ColumnarStore.from_triples(graph.triples()))
    expected = SpecQPEngine(fresh_graph, workload.rules).plan(touched, 5)
    assert decision_values(replanned) == decision_values(expected)


def test_projection_order_and_rules_each_miss(tiny_xkg_workload):
    workload = tiny_xkg_workload
    rules = RuleSet(list(workload.rules))
    engine = SpecQPEngine(workload.graph, rules)
    typed = workload.queries[0].patterns[0]
    subject = typed.subject
    query = TriplePatternQuery(
        (typed, TriplePattern(subject, "xkg:hasTopic", Variable("topic"))),
        name="typed-topic",
    )
    variants = [
        TriplePatternQuery(query.patterns, (subject,), query.name),
        TriplePatternQuery(query.patterns[::-1], query.projection, query.name),
    ]
    engine.plan(query, 5)
    for variant in variants:
        before = engine.planner.memo_stats()
        decision = engine.plan(variant, 5)
        assert engine.planner.memo_stats()["misses"] == before["misses"] + 1
        assert decision.plan.query.patterns == variant.patterns
        assert decision.plan.query.projection == variant.projection

    engine.plan(query, 5)
    before = engine.planner.memo_stats()
    rule = next(iter(rules))
    rules.add(RelaxationRule(rule.domain, rule.range, rule.weight))
    engine.plan(query, 5)
    assert engine.planner.memo_stats()["misses"] == before["misses"] + 1


def test_another_name_gets_its_own_query_back(tiny_xkg_workload):
    engine = SpecQPEngine(tiny_xkg_workload.graph, tiny_xkg_workload.rules)
    query = tiny_xkg_workload.queries[0]
    renamed = TriplePatternQuery(query.patterns, query.projection, "renamed")
    engine.plan(query, 5)
    hit = engine.plan(renamed, 5)
    assert engine.planner.memo_stats()["hits"] == 1
    assert hit.plan.query.name == "renamed"


def test_the_memo_stays_within_its_bound(tiny_xkg_workload):
    engine = SpecQPEngine(tiny_xkg_workload.graph, tiny_xkg_workload.rules)
    query = tiny_xkg_workload.queries[0]
    for k in range(1, DECISION_MEMO_SIZE + 11):
        engine.plan(query, k)
    info = engine.planner.memo_stats()
    assert info["size"] == info["capacity"] == DECISION_MEMO_SIZE
    engine.plan(query, DECISION_MEMO_SIZE + 10)  # the newest stays
    assert engine.planner.memo_stats()["hits"] == 1
    engine.plan(query, 1)  # the least recent went first
    assert engine.planner.memo_stats()["misses"] == info["misses"] + 1


def test_a_hit_reports_its_own_planning_time(tiny_xkg_workload, monkeypatch):
    engine = SpecQPEngine(tiny_xkg_workload.graph, tiny_xkg_workload.rules)
    query = tiny_xkg_workload.queries[0]
    expected_kth = engine.estimator.expected_kth

    def slow_expected_kth(*args):
        time.sleep(0.05)
        return expected_kth(*args)

    monkeypatch.setattr(engine.estimator, "expected_kth", slow_expected_kth)
    planned = engine.plan(query, 5)
    started = time.perf_counter()
    hit = engine.plan(query, 5)
    elapsed = time.perf_counter() - started
    assert engine.planner.memo_stats()["hits"] == 1
    assert planned.planning_seconds >= 0.05
    assert 0.0 < hit.planning_seconds <= elapsed < 0.05


def test_workers_sharing_one_planner_lose_no_update(tiny_xkg_workload):
    """The runner's workers share one planner: under forced thread
    switches every call is counted once, the memo keeps its bound and
    every decision equals a lone planner's."""
    workload = tiny_xkg_workload
    shared = SpecQPEngine(workload.graph, workload.rules)
    alone = SpecQPEngine(workload.graph, workload.rules)
    requests = [(query, k) for query in workload.queries for k in KS] * 20
    expected = {
        (query.name, k): decision_values(alone.plan(query, k))
        for query, k in set(requests)
    }
    mismatches: list[tuple] = []

    def serve(offset: int) -> None:
        for query, k in requests[offset:] + requests[:offset]:
            if decision_values(shared.plan(query, k)) != expected[query.name, k]:
                mismatches.append((query.name, k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=serve, args=(offset * 7,)) for offset in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    info = shared.planner.memo_stats()
    assert info["hits"] + info["misses"] == len(threads) * len(requests)
    assert info["size"] == len(expected)
