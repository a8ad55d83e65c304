"""Benchmark: the served block pipeline against the oracle.

On the medium columnar profile under diverse warm serving traffic —
distinct patterns churning bounded list caches — a
:class:`~repro.service.WorkloadRunner` serves a batch through the block
pipeline, its report is printed, and what is asserted is that it answers
what the oracle answers for each query's plan
(:meth:`NaiveEngine.evaluate <repro.baselines.naive.NaiveEngine.evaluate>`).
(The end-to-end benchmark in ``bench/`` is where throughput is measured.)

Byte-identity is additionally pinned across every backend the block
engine covers — columnar, live overlays pre/post compaction — at full
``(bindings, score)`` granularity.

Set ``SPEC_QP_BENCH_PROFILE=smoke`` (the CI smoke job does) to run at
10k-triple scale.
"""

from __future__ import annotations

import os

import pytest

from repro.baselines.naive import NaiveEngine
from repro.core.engine import SpecQPEngine
from repro.datasets import generate_scaled_graph
from repro.datasets.workload import Workload
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.pattern import TriplePattern, Variable
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RuleSet
from repro.service import WorkloadRunner

PROFILE = os.environ.get("SPEC_QP_BENCH_PROFILE", "medium")

#: Small on purpose: served traffic has more distinct patterns than any
#: bounded cache holds, so match lists are (re)built on the hot path —
#: exactly where encoded columns beat object decoding.  It bounds the
#: runner's encoded list store.
CACHE_CAPACITY = 8
BATCH = 120 if PROFILE != "smoke" else 40
K = 10


def diverse_queries(n_predicates: int) -> list[TriplePatternQuery]:
    """Open scans, object-bound lookups and 2-pattern chain joins."""
    s, o, t = Variable("s"), Variable("o"), Variable("t")
    queries = [
        TriplePatternQuery(
            (TriplePattern(s, f"p{i:03d}", o),), name=f"pred-{i}"
        )
        for i in range(min(32, n_predicates))
    ]
    queries += [
        TriplePatternQuery(
            (TriplePattern(s, f"p{i:03d}", f"e{j:05d}"),), name=f"obj-{i}-{j}"
        )
        for i, j in [(0, 0), (1, 1), (2, 0), (0, 2), (3, 1), (1, 0), (2, 2), (4, 0)]
    ]
    queries += [
        TriplePatternQuery(
            (
                TriplePattern(s, f"p{i:03d}", o),
                TriplePattern(o, f"p{i + 1:03d}", t),
            ),
            name=f"chain-{i}",
        )
        for i in (0, 5, 9)
    ]
    return queries


@pytest.fixture(scope="module")
def bench_workload():
    graph = generate_scaled_graph(PROFILE, seed=7)
    return Workload(
        "block-bench", graph, RuleSet(), diverse_queries(n_predicates=32)
    )


def oracle_rows(engine, queries):
    """The oracle's answers to *engine*'s plan of each query."""
    oracle = NaiveEngine(engine.graph, engine.rules)
    return [
        [(a.bindings, a.score) for a in oracle.evaluate(engine.plan(q, K).plan, K)]
        for q in queries
    ]


def test_block_executor_serves_the_oracle_answers(benchmark, bench_workload):
    batch = bench_workload.stretched(BATCH)
    queries = bench_workload.queries
    engine = SpecQPEngine(bench_workload.graph, bench_workload.rules)
    # The batch repeats the queries under new names.
    by_shape = dict(zip((q.patterns for q in queries), oracle_rows(engine, queries)))
    expected = [by_shape[query.patterns] for query in batch]

    def run():
        runner = WorkloadRunner(
            bench_workload, cache_capacity=CACHE_CAPACITY, result_cache_capacity=0
        )
        return runner.run(batch, k=K)

    block_report = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(block_report.render())

    # The served pipeline must not change what the engine answers.
    assert [o.n_answers for o in block_report.outcomes] == [
        len(rows) for rows in expected
    ]
    assert [o.top_score for o in block_report.outcomes] == [
        rows[0][1] if rows else 0.0 for rows in expected
    ]
    assert {o.executor for o in block_report.outcomes} == {"block"}
    assert block_report.n_queries == BATCH


def test_block_answers_byte_identical_across_backends(bench_workload):
    """Full-resolution equivalence: every backend family, against the oracle."""
    store = bench_workload.graph.store
    queries = bench_workload.queries[:3] + bench_workload.queries[-2:]

    def updates():
        sample = [t for _, t in zip(range(8), bench_workload.graph.triples())]
        ups = [GraphUpdate.remove(*t.spo) for t in sample[:4]]
        ups += [
            GraphUpdate.add(t.subject, t.predicate, t.object, t.score + 3.0)
            for t in sample[4:]
        ]
        ups += [
            GraphUpdate.add(f"hot-{i}", "p000", f"e{i:05d}", 90_000.0 + i)
            for i in range(3)
        ]
        return ups

    backends: dict[str, object] = {"columnar": ColumnarGraph(store, name="bench")}
    for stage in ("pre", "post"):
        live = LiveGraph(ColumnarGraph(store, name="bench"))
        live.apply_updates(updates())
        if stage == "post":
            live.compact()
        backends[f"live-{stage}"] = live

    for name, graph in backends.items():
        engine = SpecQPEngine(graph, bench_workload.rules)
        rows = [
            [(a.bindings, a.score) for a in engine.query(q, k=K).answers]
            for q in queries
        ]
        assert rows == oracle_rows(engine, queries), name
