"""A write keeps the lists it did not touch, and patches or drops the rest.

The encoded list store and the statistics catalog both read the live
graph's touched-key journal (``LiveGraph.touched_since``) from the
version they hold.  These tests pin the carry-over contract through the
``kept`` / ``patched`` / ``dropped`` counts ``EncodedListStore.refresh``
reports: untouched lists survive a write and a compaction as the same
objects; a touched list is patched — side ids encoded again after a
compaction — unless an input's maximum moved, when it is dropped; a
touched statistic is gone; an unanswerable journal purges everything;
and a query still fails cleanly when the graph moves under it.  (The
patches themselves are checked byte for byte in
``test_maintained_lists.py``.)
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.core.engine import SpecQPEngine
from repro.errors import ExecutionError
from repro.kg.columnar import ColumnarGraph, ColumnarStore
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.pattern import TriplePattern, var
from repro.kg.triple import Triple
from repro.operators.block import EncodedListStore, TermCodec, build_encoded_match_list
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RuleSet
from repro.stats.catalog import StatisticsCatalog

P = TriplePattern(var("s"), "p", var("o"))
Q = TriplePattern(var("s"), "q", var("o"))


def make_live() -> LiveGraph:
    rows = [
        ("a", "p", "x", 5.0),
        ("b", "p", "x", 4.0),
        ("a", "q", "y", 3.0),
        ("c", "q", "y", 2.0),
        ("c", "r", "z", 1.0),
    ]
    base = ColumnarGraph.from_triples([Triple(*row) for row in rows], name="base")
    return LiveGraph(base)


def test_compaction_keeps_untouched_lists_and_re_encodes_side_id_lists():
    live = make_live()
    store = EncodedListStore()
    live.add("fresh", "q", "y", 9.0)  # "fresh" is outside the dictionary
    old_codec = store.codec(live)
    q_list = store.get_or_build(live, Q)
    assert (q_list.columns[0] >= old_codec.n_base).any()  # holds a side id
    p_list = store.get_or_build(live, P)
    p_order = p_list.key_order(("s",), old_codec.n_ids)

    live.compact()
    # The fold touches Q's list: patched under the new codec, not dropped.
    assert store.refresh(live) == {"kept": 1, "patched": 1, "dropped": 0}
    new_codec = store.codec(live)
    assert new_codec is not old_codec and new_codec.store is live.base.store
    # The untouched list and its key order carry over as they are.
    assert store.get_or_build(live, P) is p_list
    assert p_list.key_order(("s",), new_codec.n_ids) is p_order
    patched = store.get_or_build(live, Q)
    assert patched is not q_list
    assert (patched.columns[0] < new_codec.n_base).all()  # all store ids now
    assert [new_codec.decode(i) for i in patched.columns[0]] == ["fresh", "a", "c"]
    assert store.stats()["misses"] == 2  # the two first builds: nothing rebuilt


def test_journal_overflow_purges_every_list(monkeypatch):
    from repro.kg import delta

    live = make_live()
    store = EncodedListStore()
    codec = store.codec(live)
    store.get_or_build(live, P)
    store.get_or_build(live, Q)
    monkeypatch.setattr(delta, "MAX_TOUCHED_JOURNAL", 2)
    # Three keys in one step: past the bound, the journal cannot answer.
    live.apply_updates([GraphUpdate.add(f"n{i}", "r", "z", 1.0) for i in range(3)])
    assert live.touched_since(live.version - 1) is None
    assert store.refresh(live) == {"kept": 0, "patched": 0, "dropped": 2}
    assert store.codec(live) is not codec


def test_catalog_and_store_both_see_one_batch():
    """Neither reader consumes the journal: whichever refreshes first,
    the other still drops what the batch touched."""
    live = make_live()
    store = EncodedListStore()
    catalog = StatisticsCatalog(live, encoded_store=store)
    for pattern in (P, Q):
        catalog.histogram(pattern)
    kept = catalog.histogram(Q)

    # Above P's maximum (5.0): P's list is dropped, not patched.
    live.apply_updates([GraphUpdate.add("d", "p", "x", 7.0)])
    assert store.refresh(live) == {"kept": 1, "patched": 0, "dropped": 1}
    assert catalog.refresh() == {"dropped": 1, "kept": 1}
    assert catalog.histogram(Q) is kept
    assert catalog.histogram(P).count == 3

    # Q's maximum goes: its list is dropped, and rebuilt for the catalog.
    live.apply_updates([GraphUpdate.remove("a", "q", "y")])
    assert catalog.refresh() == {"dropped": 1, "kept": 1}
    assert store.refresh(live) == {"kept": 1, "patched": 0, "dropped": 1}
    assert catalog.match_count(Q) == 1


def test_catalog_recomputes_a_touched_histogram_from_the_patched_list():
    live = make_live()
    store = EncodedListStore()
    catalog = StatisticsCatalog(live, encoded_store=store)
    before = catalog.histogram(P)
    live.apply_updates([GraphUpdate.add("d", "p", "x", 4.5)])  # below P's maximum
    assert store.refresh(live) == {"kept": 0, "patched": 1, "dropped": 0}
    assert catalog.refresh() == {"dropped": 1, "kept": 0}
    misses = store.stats()["misses"]
    after = catalog.histogram(P)
    assert after is not before and catalog.match_count(P) == 3
    assert store.stats()["misses"] == misses  # read from the patched list


def test_expect_codec_rejects_mid_query_mutation_on_a_live_graph():
    # The live twin of the object-graph test in test_block.py: a write
    # that touches nothing a query read keeps the codec, so the pinned
    # version is what catches it.
    live = make_live()
    store = EncodedListStore()
    codec, version = store.pin(live)
    assert len(store.get_or_build(live, P, codec, version)) == 2
    live.add("e9", "r", "z", 1.0)
    assert store.codec(live) is codec
    with pytest.raises(ExecutionError, match="graph changed"):
        store.get_or_build(live, P, expect_codec=codec, expect_version=version)
    with pytest.raises(ExecutionError, match="graph changed"):
        store.get_or_merge(live, P, "v", pytest.fail, codec, version)
    # Without the pins the store serves the new version.
    assert len(store.get_or_build(live, P)) == 2


def test_mutation_inside_a_query_raises_on_a_live_graph():
    live = make_live()
    engine = SpecQPEngine(live, RuleSet(), executor="block")
    store = engine.executor.encoded_store
    build = store.get_or_build

    def build_then_write(graph, pattern, *pins, **named):
        built = build(graph, pattern, *pins, **named)
        if pattern == P:
            live.add("e9", "r", "z", 1.0)
        return built

    store.get_or_build = build_then_write
    query = TriplePatternQuery((P, TriplePattern(var("s"), "q", var("y"))))
    with pytest.raises(ExecutionError, match="graph changed"):
        engine.query_exact(query, k=2)


def test_racing_readers_keep_the_reader_index_whole():
    """Threads racing builds, hits and LRU evictions across writes leave
    every held list indexed under exactly the keys it read, and every
    held list equal to a fresh build."""
    live = make_live()
    store = EncodedListStore(capacity=4)
    patterns = [
        TriplePattern(var("s"), predicate, var("o")) for predicate in "pqrt"
    ] + [TriplePattern(var("s"), var("p"), term) for term in "xyz"]
    n_threads = 8  # more workers than cores
    errors: list[BaseException] = []

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(40):
                store.get_or_build(live, rng.choice(patterns))
        except BaseException as exc:  # surfaced by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(4):
            threads = [
                threading.Thread(target=worker, args=(round_ * n_threads + i,))
                for i in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors and not any(thread.is_alive() for thread in threads)
            # The index starts at the first write, then tracks every entry.
            assert (store._readers is None) == (round_ == 0)
            if round_:
                held = {
                    (read.key(), key)
                    for key, lst in store._lists.items()
                    for read in lst.reads
                }
                indexed = {
                    (read, key) for read, keys in store._readers.items() for key in keys
                }
                assert held == indexed
            live.add(f"n{round_}", "pqrt"[round_], "xyz"[round_ % 3], 6.0)
            if round_ == 2:
                live.compact()
    finally:
        sys.setswitchinterval(interval)
    fresh = ColumnarGraph(ColumnarStore.from_triples(live.triples()))
    codec = store.codec(live)
    for key, held_list in list(store._lists.items()):
        expected = build_encoded_match_list(fresh, key, TermCodec(fresh.store))
        assert [
            [codec.decode(int(i)) for i in column] for column in held_list.columns
        ] == [
            [fresh.store.term_list()[i] for i in column] for column in expected.columns
        ]
        assert held_list.scores.tobytes() == expected.scores.tobytes()


def test_engine_after_writes_equals_a_fresh_engine(tiny_xkg_workload):
    """A standalone engine over a live graph plans and answers every
    query after a write exactly as an engine built over the final
    triples: its catalog refreshes itself when the version moves."""
    workload = tiny_xkg_workload
    live = LiveGraph(ColumnarGraph.from_graph(workload.graph))
    engine = SpecQPEngine(live, workload.rules, executor="block")
    for query in workload.queries:
        engine.query(query, k=5)
    rng = random.Random(1)
    triples = sorted(live.triples(), key=lambda triple: triple.spo)
    live.apply_updates(
        GraphUpdate.add(*triple.spo, float(rng.randint(1, 200)))
        for triple in rng.sample(triples, 300)
    )
    fresh = SpecQPEngine(
        ColumnarGraph(ColumnarStore.from_triples(live.triples())),
        workload.rules,
        executor="block",
    )
    for query in workload.queries:
        served, expected = engine.query(query, k=5), fresh.query(query, k=5)
        assert served.plan.describe() == expected.plan.describe(), query.name
        assert [(a.bindings, a.score) for a in served.answers] == [
            (a.bindings, a.score) for a in expected.answers
        ], query.name
