"""Ablation benchmark: histogram resolution (§4.5.2's remark).

The paper chooses 2-bucket histograms and notes multi-bucket histograms
would model the distribution more exactly at higher planning cost.  This
ablation sweeps 2-bucket vs 4- and 8-bucket planning on the XKG workload
and reports precision and planning time per configuration.
"""

import time

from repro.core.config import EngineConfig
from repro.core.engine import SpecQPEngine
from repro.core.estimator import memoised_expected_score
from repro.core.planner import SpecQPPlanner
from repro.metrics.quality import precision_at_k
from repro.metrics.report import render_table


def _evaluate(workload, config, k=10, n_queries=12):
    engine = SpecQPEngine(workload.graph, workload.rules, config)
    truth = SpecQPEngine(workload.graph, workload.rules)
    queries = workload.queries[:n_queries]
    # Warm caches so planning time reflects steady state.
    for query in queries:
        engine.plan(query, k)
    precisions, plan_seconds = [], 0.0
    for query in queries:
        # Statistics stay warm, but every expected score is computed, and
        # the decision too (a fresh planner's memo is empty): the
        # histograms' resolution is what this ablation times.
        planner = SpecQPPlanner(engine.estimator, workload.rules)
        memoised_expected_score.cache_clear()
        started = time.perf_counter()
        planner.plan(query, k)
        plan_seconds += time.perf_counter() - started
        spec = engine.query(query, k)
        true = truth.query_trinit(query, k)
        precisions.append(precision_at_k(spec.answers, true.answers))
    return {
        "precision": sum(precisions) / len(precisions),
        "plan_ms_per_query": 1000 * plan_seconds / len(queries),
    }


def test_ablation_histogram_buckets(benchmark, xkg_workload):
    configurations = [
        ("2-bucket (paper)", EngineConfig()),
        ("4-bucket", EngineConfig(histogram_kind="n-bucket", n_buckets=4)),
        ("8-bucket", EngineConfig(histogram_kind="n-bucket", n_buckets=8)),
    ]

    def run():
        return [
            (label, _evaluate(xkg_workload, config))
            for label, config in configurations
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ("configuration", "precision", "plan ms/query"),
            [
                (label, f"{r['precision']:.2f}", f"{r['plan_ms_per_query']:.1f}")
                for label, r in results
            ],
            title="Ablation — histogram resolution (XKG)",
        )
    )
    two_bucket = results[0][1]
    eight_bucket = results[2][1]
    # The paper's trade-off: finer histograms cost more planning time.
    assert eight_bucket["plan_ms_per_query"] >= two_bucket["plan_ms_per_query"]
    assert two_bucket["precision"] >= 0.5
