"""Sorted access on the column store: ``ColumnarStore.ordered_rows``.

The invariant: for every key shape, the slice of the store's lazily
built permutation index equals what the retired ``rows_matching`` →
``score_order`` pair computed — a full-column mask followed by a
lexsort — on every kind of store that reaches serving: interned from
triples (unordered), attached from a ``.kg2`` (ordered: nothing may be
sorted), and produced by ``with_updates`` (ordered, possibly with new
terms).
"""

import tempfile
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.kg import ColumnarGraph, ColumnarStore, Triple
from repro.kg.columnar import ID_DTYPE
from repro.kg.pattern import TriplePattern, Variable
from repro.kg.storage import save_snapshot_v2

#: Few terms and fewer scores: every generated store has long runs of
#: rows tying on score, and most keys match several rows.
TERMS = ("a", "aa", "b", "c", "é", "z")
SCORES = (0.0, 1.0, 1.0, 2.5, 7.0)

spo = st.tuples(*(st.sampled_from(TERMS),) * 3)
triple_maps = st.dictionaries(spo, st.sampled_from(SCORES), max_size=40)

SHAPES = tuple(product((True, False), repeat=3))


def reference_rows(store: ColumnarStore, key) -> np.ndarray:
    """What ``score_order(rows_matching(key))`` returned: one full scan
    per bound position, then a lexsort of the hits by (-score, s, p, o)."""
    mask = np.ones(store.n_triples, dtype=bool)
    for term, column in zip(key, (store.subjects, store.predicates, store.objects)):
        if term is None:
            continue
        term_id = store.term_id(term)
        if term_id is None:
            return np.empty(0, dtype=np.int64)
        mask &= np.asarray(column) == term_id
    rows = np.nonzero(mask)[0]
    ranks = store._ranks()
    order = np.lexsort(
        (
            ranks[store.objects[rows]],
            ranks[store.predicates[rows]],
            ranks[store.subjects[rows]],
            -store.scores[rows],
        )
    )
    return rows[order]


def probe_keys(store: ColumnarStore):
    """Every wildcarding of every stored triple and of a few absent ones
    (known terms in an unstored combination, and an unknown term)."""
    probes = {t.spo for t in store.iter_triples()}
    probes |= {("a", "b", "c"), ("z", "z", "z"), ("nobody", "a", "a")}
    return {
        tuple(term if keep else None for term, keep in zip(probe, shape))
        for probe in probes
        for shape in SHAPES
    }


def assert_sorted_access(store: ColumnarStore) -> None:
    for key in probe_keys(store):
        rows = store.ordered_rows(key)
        assert rows.dtype == ID_DTYPE, key
        np.testing.assert_array_equal(rows, reference_rows(store, key), err_msg=str(key))
        if None not in key:
            assert store.has_row(*key) == (len(rows) == 1)
            assert store.row_of(*key) == (int(rows[0]) if len(rows) else None)


def store_of(triples: dict) -> ColumnarStore:
    return ColumnarStore.from_triples(
        Triple(*key, score) for key, score in triples.items()
    )


def forbid_sorting(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(
        ColumnarStore,
        "score_order",
        lambda *args: pytest.fail("an ordered store was re-sorted"),
    )


@settings(max_examples=60, deadline=None)
@given(triples=triple_maps)
def test_interned_store_in_any_row_order(triples):
    assert_sorted_access(store_of(triples))


@settings(max_examples=40, deadline=None)
@given(triples=triple_maps)
def test_kg2_attach_is_ordered_and_never_sorts(triples):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "graph.kg2"
        save_snapshot_v2(ColumnarGraph(store_of(triples)), path)
        with pytest.MonkeyPatch.context() as monkeypatch:
            forbid_sorting(monkeypatch)
            attached = ColumnarStore.open_mmap(path)
            assert attached._score_rows() is None
            assert_sorted_access(attached)


new_spo = st.tuples(*(st.sampled_from(TERMS + ("new", "Ab", "zz")),) * 3)


@settings(max_examples=60, deadline=None)
@given(
    triples=triple_maps,
    adds=st.dictionaries(new_spo, st.sampled_from(SCORES + (9.0,)), max_size=8),
    drops=st.sets(spo, max_size=8),
)
def test_with_updates_comes_out_ordered(triples, adds, drops):
    assume(adds or drops)  # an empty update returns the store itself
    base = store_of(triples)
    expected = {key: s for key, s in triples.items() if key not in drops} | adds
    with pytest.MonkeyPatch.context() as monkeypatch:
        base._score_rows()  # the unordered base sorts once, on its own time
        forbid_sorting(monkeypatch)
        updated = base.with_updates(adds, drops)
        assert updated._score_rows() is None
        assert_sorted_access(updated)
    assert {t.spo: t.score for t in updated.iter_triples()} == expected
    # ... and so does a second generation, over the now ordered base.
    again = updated.with_updates({("new", "a", "a"): 1.0}, set(list(expected)[:2]))
    assert again._score_rows() is None
    assert_sorted_access(again)


def test_empty_store():
    store = ColumnarStore.from_triples([])
    assert store._score_rows() is None
    for shape in SHAPES:
        key = tuple("a" if keep else None for keep in shape)
        assert len(store.ordered_rows(key)) == 0


def test_ordered_check_rejects_misordered_ties():
    """Scores descending is not enough: rows tying on score must also
    ascend in (s, p, o), or the stored order is not Definition 5."""
    terms = np.array(["a", "b", "p"])
    descending_but_ties_swapped = ColumnarStore.from_arrays(
        terms, [1, 0], [2, 2], [0, 0], [5.0, 5.0]
    )
    assert not descending_but_ties_swapped._is_score_ordered()
    assert descending_but_ties_swapped.ordered_rows((None, "p", None)).tolist() == [1, 0]
    in_order = ColumnarStore.from_arrays(terms, [0, 1], [2, 2], [0, 0], [5.0, 5.0])
    assert in_order._is_score_ordered()
    ascending = ColumnarStore.from_arrays(terms, [0, 1], [2, 2], [0, 0], [1.0, 5.0])
    assert not ascending._is_score_ordered()
    # The tie-break is on term *strings*, not ids: "b" has the smaller id here.
    by_string = ColumnarStore.from_arrays(
        np.array(["b", "a", "p"]), [1, 0], [2, 2], [0, 0], [5.0, 5.0]
    )
    assert by_string._is_score_ordered()


def test_pair_keys_widen_when_the_dictionary_outgrows_int32():
    """Two bound ids pack into ID_DTYPE while ``n_terms ** 2`` fits and
    into int64 beyond; lookups agree either way."""
    n_terms = 46_400  # 46_400 ** 2 > 2 ** 31
    terms = np.array([f"t{i:05d}" for i in range(n_terms)])
    ids = np.array([n_terms - 1, 7, n_terms - 1, 46_341], dtype=ID_DTYPE)
    store = ColumnarStore.from_arrays(
        terms, ids, ids[::-1].copy(), ids, [3.0, 3.0, 1.0, 2.0], validate=False
    )
    keys, rows = store._shape_index((True, True, False))
    assert keys.dtype == np.int64 and rows.dtype == ID_DTYPE
    small = store_of({("a", "b", "c"): 1.0})
    assert small._shape_index((True, True, False))[0].dtype == ID_DTYPE
    for row in range(store.n_triples):
        s, p, o = (terms[c[row]] for c in (store.subjects, store.predicates, store.objects))
        for shape in SHAPES:
            key = tuple(t if keep else None for t, keep in zip((s, p, o), shape))
            np.testing.assert_array_equal(
                store.ordered_rows(key), reference_rows(store, key)
            )


def test_diagonal_pattern_rows_keep_their_order():
    store = store_of(
        {("a", "p", "a"): 1.0, ("b", "p", "b"): 7.0, ("a", "p", "b"): 7.0, ("c", "p", "c"): 7.0}
    )
    x = Variable("x")
    rows = store.lookup((TriplePattern(x, "p", x).list_key(),))[0]
    assert [t.spo for t in store.decode_rows(rows)] == [
        ("b", "p", "b"), ("c", "p", "c"), ("a", "p", "a"),
    ]
    assert len(store.lookup((TriplePattern(x, "p", Variable("y")).list_key(),))[0]) == 4


def test_lookups_are_read_only_views_of_the_index():
    store = store_of({("a", "p", "b"): 2.0, ("c", "p", "b"): 1.0, ("c", "q", "b"): 3.0})
    for key in [(None, "p", None), (None, "p", "b"), (None, None, None)]:
        with pytest.raises(ValueError, match="read-only"):
            store.ordered_rows(key)[0] = 0


def test_concurrent_first_lookups_build_one_consistent_index():
    """Worker threads share a store whose indexes build lazily: racing
    first lookups may build twice but must all read the same rows."""
    import sys
    import threading

    triples = {(f"s{i % 37}", f"p{i % 5}", f"o{i % 11}"): float(i % 7) for i in range(2000)}
    keys = [(None, f"p{i % 5}", f"o{i % 11}") for i in range(55)] + [
        (f"s{i}", None, None) for i in range(37)
    ]
    reference_store = store_of(triples)
    expected = [reference_rows(reference_store, key).tolist() for key in keys]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            store = store_of(triples)
            results: list = [None] * 8
            barrier = threading.Barrier(len(results))

            def work(slot: int) -> None:
                barrier.wait(timeout=30)
                results[slot] = [store.ordered_rows(key).tolist() for key in keys]

            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert all(result == expected for result in results)
    finally:
        sys.setswitchinterval(interval)


def test_row_orders_do_not_depend_on_how_the_ranks_are_sorted(monkeypatch):
    """``spo_order`` packs the three ranks into one int64 key while
    ``n_terms ** 3`` fits and lexsorts them beyond; same order."""
    triples = {(f"s{i % 13}", f"p{i % 3}", f"o{i % 7}"): float(i % 4) for i in range(200)}
    store = store_of(triples)
    by_terms, by_score = store.spo_order(), store.score_order()
    assert [t.spo for t in store.decode_rows(by_terms)] == sorted(triples)
    np.testing.assert_array_equal(by_score, reference_rows(store, (None, None, None)))
    monkeypatch.setattr(ColumnarStore, "n_terms", property(lambda self: 2**21 + 1))
    np.testing.assert_array_equal(store.spo_order(), by_terms)
    np.testing.assert_array_equal(store.score_order(), by_score)
