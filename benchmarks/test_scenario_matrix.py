"""Benchmark: scenario packs through the executor matrix, identical answers.

The scenario packs are the coverage substrate: skewed hot-key traffic,
update-heavy mixes and adversarial shapes (boundary-tie runs, k >
result-count, empty match lists) that the single diverse benchmark
workload never produces.  This benchmark serves a representative pack
selection warm across tuple/block/auto and pins byte-identical answers
at full ``(bindings, score)`` granularity — including through each
pack's update stream — so the equivalence claim is made exactly where
tie resolution and edge-of-k handling are load-bearing.

No timing bar: scenario packs are deliberately small (correctness
coverage, not scale), so a throughput threshold would only measure
fixed costs.  Equivalence is always blocking; the timed run exists to
track the packs' serving cost over time in the benchmark tables.
"""

from __future__ import annotations

import pytest

from repro.datasets import build_scenario
from repro.datasets.workload import Workload
from repro.kg.columnar import ColumnarGraph
from repro.service import WorkloadRunner

EXECUTORS = ("tuple", "block", "auto")

#: One base pack, the hot-key pack, and every adversarial pack — the
#: shapes where executor divergence would first show.
PACKS = (
    "commerce-base",
    "commerce-hot",
    "adversarial-ties",
    "adversarial-unselective",
    "adversarial-edge-k",
)


def columnar_workload(pack) -> Workload:
    """The pack served from its columnar conversion, so ``block``
    actually vectorizes instead of falling back to the tuple path."""
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
    rows = {}
    runners = {}
    for executor in EXECUTORS:
        runner = WorkloadRunner(
            workload, executor=executor, result_cache_capacity=0
        )
        runners[executor] = runner
        rows[executor] = [
            [(a.bindings, a.score) for a in runner.execute_query(q, k=pack.k)]
            for q in batch
        ]
    assert rows["block"] == rows["tuple"], name
    assert rows["auto"] == rows["tuple"], name

    if pack.updates:
        post = {}
        for executor in EXECUTORS:
            runner = runners[executor]
            runner.apply_updates(list(pack.updates))
            post[executor] = [
                [(a.bindings, a.score) for a in runner.execute_query(q, k=pack.k)]
                for q in batch
            ]
        assert post["block"] == post["tuple"], name
        assert post["auto"] == post["tuple"], name
        assert post["tuple"] != rows["tuple"], (
            f"{name}: update stream did not change any answer — the pack "
            "is not exercising invalidation"
        )


def test_scenario_matrix_serving_cost(benchmark):
    """Timed: the adversarial-ties pack warm-served under ``auto``."""
    pack = build_scenario("adversarial-ties")
    workload = columnar_workload(pack)
    runner = WorkloadRunner(workload, executor="auto")
    batch = list(workload.queries)
    runner.run(batch, k=pack.k)  # untimed warm-up

    report = benchmark.pedantic(
        lambda: runner.run(batch, k=pack.k), rounds=1, iterations=1
    )
    print()
    print(report.render())
    assert report.n_queries == len(batch)
