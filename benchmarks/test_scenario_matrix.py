"""Benchmark: scenario packs served against the oracle, identical answers.

The scenario packs are the coverage substrate: skewed hot-key traffic,
update-heavy mixes and adversarial shapes (boundary-tie runs, k >
result-count, empty match lists) that the single diverse benchmark
workload never produces.  This benchmark serves a representative pack
selection warm through the runner's block pipeline and pins
byte-identical answers to the oracle's evaluation of each query's plan
(:meth:`NaiveEngine.evaluate <repro.baselines.naive.NaiveEngine.evaluate>`)
at full ``(bindings, score)`` granularity — including through each pack's update stream — so
the equivalence claim is made exactly where tie resolution and edge-of-k
handling are load-bearing.

No timing bar: scenario packs are deliberately small (correctness
coverage, not scale), so a throughput threshold would only measure
fixed costs.  Equivalence is always blocking; the timed run exists to
track the packs' serving cost over time in the benchmark tables.
"""

from __future__ import annotations

import pytest

from repro.baselines.naive import NaiveEngine
from repro.core.engine import SpecQPEngine
from repro.datasets import build_scenario
from repro.datasets.workload import Workload
from repro.kg.columnar import ColumnarGraph
from repro.service import WorkloadRunner

#: One base pack, the hot-key pack, and every adversarial pack — the
#: shapes where a divergence from the oracle would first show.
PACKS = (
    "commerce-base",
    "commerce-hot",
    "adversarial-ties",
    "adversarial-unselective",
    "adversarial-edge-k",
)


def columnar_workload(pack) -> Workload:
    """The pack served from its columnar conversion, the backend a
    served snapshot attaches as."""
    return Workload(
        pack.workload.name,
        ColumnarGraph.from_graph(pack.workload.graph),
        pack.workload.rules,
        pack.workload.queries,
    )


@pytest.mark.parametrize("name", PACKS)
def test_scenario_pack_equivalence_across_executors(name):
    pack = build_scenario(name)
    workload = columnar_workload(pack)
    batch = list(workload.queries)
    runner = WorkloadRunner(workload, result_cache_capacity=0)

    def served_and_reference():
        planner = SpecQPEngine(runner.graph, workload.rules, runner.config)
        oracle = NaiveEngine(runner.graph, workload.rules)
        cap = runner.config.max_relaxations_per_pattern
        served, expected = [], []
        for q in batch:
            served.append(
                [(a.bindings, a.score) for a in runner.execute_query(q, k=pack.k)]
            )
            plan = planner.plan(q, pack.k).plan
            expected.append(
                [(a.bindings, a.score) for a in oracle.evaluate(plan, pack.k, cap)]
            )
        return served, expected

    rows, expected = served_and_reference()
    assert rows == expected, name

    if pack.updates:
        runner.apply_updates(list(pack.updates))
        post, post_expected = served_and_reference()
        assert post == post_expected, name
        assert post_expected != expected, (
            f"{name}: update stream did not change any answer — the pack "
            "is not exercising invalidation"
        )


def test_scenario_matrix_serving_cost(benchmark):
    """Timed: the adversarial-ties pack warm-served by the runner."""
    pack = build_scenario("adversarial-ties")
    workload = columnar_workload(pack)
    runner = WorkloadRunner(workload)
    batch = list(workload.queries)
    runner.run(batch, k=pack.k)  # untimed warm-up

    report = benchmark.pedantic(
        lambda: runner.run(batch, k=pack.k), rounds=1, iterations=1
    )
    print()
    print(report.render())
    assert report.n_queries == len(batch)
