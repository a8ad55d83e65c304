"""Benchmark: packed snapshot load vs TSV parse at a million triples.

The columnar storage subsystem's claim is that a graph should load at
disk speed, not at Python-object-churn speed: a ``.kg2`` snapshot
attaches the dictionary-encoded columns as they are (never reparsed), while TSV
parse pays a Triple object and dict insertion per line.  The shape to
show: snapshot load at least 10x faster than TSV parse on the same
million-triple graph, with both loads answering queries identically.
"""

from __future__ import annotations

import time

import pytest

from repro.datasets import generate_scaled_graph
from repro.kg import TriplePattern, Variable
from repro.kg import storage

#: The headline scale from SCALE_PROFILES; see datasets/synthetic.py.
PROFILE = "million"
MIN_SPEEDUP = 10.0


@pytest.fixture(scope="module")
def million_graph():
    return generate_scaled_graph(PROFILE, seed=17)


@pytest.fixture(scope="module")
def stored_paths(million_graph, tmp_path_factory):
    root = tmp_path_factory.mktemp("snapshots")
    tsv_path = root / "million.tsv"
    snapshot_path = root / "million.kg2"
    storage.save_tsv(million_graph, tsv_path)
    storage.save_snapshot_v2(million_graph, snapshot_path)
    return tsv_path, snapshot_path


def test_snapshot_load_10x_faster_than_tsv_parse(million_graph, stored_paths):
    tsv_path, snapshot_path = stored_paths

    start = time.perf_counter()
    from_tsv = storage.load_tsv(tsv_path)
    tsv_seconds = time.perf_counter() - start

    start = time.perf_counter()
    from_snapshot = storage.load_snapshot_v2(snapshot_path)
    snapshot_seconds = time.perf_counter() - start
    print(
        f"\n{PROFILE}: tsv parse {tsv_seconds:.2f}s, "
        f"snapshot load {snapshot_seconds:.2f}s, "
        f"speed-up {tsv_seconds / snapshot_seconds:.1f}x"
    )
    assert from_tsv.size == from_snapshot.size == million_graph.size
    assert tsv_seconds >= MIN_SPEEDUP * snapshot_seconds, (
        f"snapshot load should be >= {MIN_SPEEDUP:.0f}x faster than TSV parse: "
        f"tsv={tsv_seconds:.2f}s snapshot={snapshot_seconds:.2f}s "
        f"({tsv_seconds / snapshot_seconds:.1f}x)"
    )

    # Both loads must be the same graph: spot-check raw scores and one
    # full Definition-5 match list on a heavily used predicate.
    store = million_graph.store
    terms = store.term_list()
    for row in range(0, store.n_triples, store.n_triples // 97):
        s = terms[store.subjects[row]]
        p = terms[store.predicates[row]]
        o = terms[store.objects[row]]
        assert from_tsv.score_of(s, p, o) == from_snapshot.score_of(s, p, o)

    pattern = TriplePattern(Variable("s"), terms[store.predicates[0]], Variable("o"))
    tsv_list = from_tsv.match_list(pattern)
    snapshot_list = from_snapshot.match_list(pattern)
    assert tsv_list.triples == snapshot_list.triples
    assert tsv_list.normalized_scores == snapshot_list.normalized_scores
