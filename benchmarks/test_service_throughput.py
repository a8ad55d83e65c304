"""Benchmark: batch serving throughput, cold vs warm shared caches.

The service layer's claim is that workload-scale execution amortises the
statistics catalog, the shape indexes, the sorted match lists and the
PLANGEN decisions across queries.  The control (``mode="cold"``) rebuilds
all of that per query — the cost the single-query path pays.  Both serve
the same ≥100-query batch; the warm-over-cold speed-up is printed, and
what is asserted is identical answers and a warm cache that hits.
"""

from __future__ import annotations

import pytest

from repro.datasets import XKGConfig, generate_xkg
from repro.service import WorkloadRunner

#: Batch size: one full pass over the query set per round, several rounds,
#: mirroring served traffic where the same queries recur.
BATCH = 100


@pytest.fixture(scope="module")
def service_workload():
    return generate_xkg(
        XKGConfig(n_entities=2400, n_queries=16, n_topics=120, seed=11)
    )


def test_warm_cache_doubles_throughput(benchmark, service_workload):
    runner = WorkloadRunner(service_workload)
    queries = service_workload.stretched(BATCH)

    comparison = benchmark.pedantic(
        lambda: runner.compare(queries, k=5), rounds=1, iterations=1
    )
    cold = comparison["cold"]
    warm = comparison["warm"]
    print()
    print(cold.render())
    print()
    print(warm.render())
    print(f"\nwarm-over-cold speed-up: {comparison['speedup']:.2f}x")

    # Caches must not change what the engine answers.
    assert [o.n_answers for o in warm.outcomes] == [
        o.n_answers for o in cold.outcomes
    ]
    assert [round(o.top_score, 9) for o in warm.outcomes] == [
        round(o.top_score, 9) for o in cold.outcomes
    ]

    assert warm.n_queries == cold.n_queries == BATCH
    assert warm.cache is not None and warm.cache.hit_rate > 0.5
