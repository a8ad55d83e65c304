"""Benchmark: the delta write path vs full rebuild.

Write amplification of the live-update subsystem, timed and printed;
what it asserts is sizes, not timings (the end-to-end ``xkg_update_mix``
workload of ``bench/`` is where the write path's throughput is
measured): a 1% update batch on the medium profile (100k triples)
through the :class:`LiveGraph` delta path against the freeze-thaw
alternative (thaw to an object graph, apply, re-freeze to columns); both
must end at the same graph size.  Answers after compaction are checked
by the oracle matrix (``tests/integration/test_oracle_matrix.py``).
"""

from __future__ import annotations

import time

import pytest

from repro.datasets import generate_scaled_graph
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import GraphUpdate, LiveGraph

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
