"""A compacted store inherits its predecessor's permutation indexes.

``ColumnarStore.with_updates`` hands the new store every shape index the
old one had built, patched — surviving rows renumbered, two-id keys
re-packed to the grown dictionary, adds placed within their key run —
instead of re-sorted.  The invariant: every carried ``(keys, rows)``,
dtype included, is exactly what a fresh ``_shape_index`` build on the
same columns makes, on interned (unordered) and ``.kg2``-attached bases,
over two compaction generations, and across the dictionary size where
two-id keys outgrow int32.  The first reads after a compaction then make
no ``stable_argsort`` from ``_shape_index``.
"""

import sys
import tempfile
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg import ColumnarGraph, ColumnarStore, LiveGraph, Triple, columnar
from repro.kg.columnar import ID_DTYPE
from repro.kg.pattern import TriplePattern, Variable
from repro.kg.storage import save_snapshot_v2

#: Few terms and fewer scores: long runs of rows tying on score and key.
TERMS = ("a", "aa", "b", "c", "é", "z")
NEW_TERMS = ("new", "Ab", "zz")
SCORES = (0.0, 1.0, 1.0, 2.5, 7.0)

#: Every shape with an index: one or two bound positions.
SHAPES = tuple(s for s in product((True, False), repeat=3) if 1 <= sum(s) <= 2)

spo = st.tuples(*(st.sampled_from(TERMS),) * 3)
new_spo = st.tuples(*(st.sampled_from(TERMS + NEW_TERMS),) * 3)
batches = st.tuples(
    st.dictionaries(new_spo, st.sampled_from(SCORES + (9.0,)), max_size=8),
    st.sets(spo, max_size=8),
    st.sets(st.sampled_from(SHAPES)),
)


def fresh_copy(store: ColumnarStore) -> ColumnarStore:
    """The same columns, with nothing built or decided."""
    return ColumnarStore(
        store.terms, store.subjects, store.predicates, store.objects, store.scores
    )


def assert_carried(store: ColumnarStore, old: ColumnarStore) -> None:
    """*store*, made by ``old.with_updates``, has every index *old* had
    and each equals a fresh build."""
    assert set(store._shape_indexes) == set(old._shape_indexes)
    assert store._score_rows() is None
    fresh = fresh_copy(store)
    assert fresh._is_score_ordered()
    for shape, (keys, rows) in store._shape_indexes.items():
        expected_keys, expected_rows = fresh._shape_index(shape)
        assert keys.dtype == expected_keys.dtype, shape
        assert rows.dtype == expected_rows.dtype == ID_DTYPE, shape
        np.testing.assert_array_equal(keys, expected_keys, err_msg=str(shape))
        np.testing.assert_array_equal(rows, expected_rows, err_msg=str(shape))
        assert not (keys.flags.writeable or rows.flags.writeable)


def attached(store: ColumnarStore, directory: str) -> ColumnarStore:
    path = Path(directory) / "graph.kg2"
    save_snapshot_v2(ColumnarGraph(store), path)
    return ColumnarStore.open_mmap(path)


@settings(max_examples=80, deadline=None)
@given(
    triples=st.dictionaries(spo, st.sampled_from(SCORES), max_size=40),
    kg2=st.booleans(),
    first=batches,
    second=batches,
)
def test_carried_indexes_equal_fresh_builds(triples, kg2, first, second):
    with tempfile.TemporaryDirectory() as directory:
        store = ColumnarStore.from_triples(Triple(*k, s) for k, s in triples.items())
        if kg2:
            store = attached(store, directory)
        for adds, drops, shapes in (first, second):
            for shape in shapes:
                store._shape_index(shape)
            # Overwrite some stored rows too, not only new keys.
            stored = store.decode_rows(np.arange(min(2, store.n_triples)))
            adds = dict(adds) | {t.spo: t.score + 1.0 for t in stored}
            updated = store.with_updates(adds, drops)
            assert shapes <= set(updated._shape_indexes)
            assert_carried(updated, store)
            store = updated


def test_pair_keys_are_repacked_across_the_int32_boundary(monkeypatch):
    """Two bound ids pack into int32 while ``n_terms ** 2`` fits: a
    compaction that grows the dictionary past that repacks the carried
    keys into int64, in the same order."""
    triples = {
        ("a", "p", "b"): 3.0, ("b", "p", "a"): 3.0, ("a", "q", "a"): 1.0,
        ("c", "p", "b"): 2.0, ("b", "q", "c"): 2.0,
    }
    store = ColumnarStore.from_triples(Triple(*k, s) for k, s in triples.items())
    # The largest dictionary whose pairs still fit int32 (46_340² < 2³¹).
    offset = 46_340 - store.n_terms
    monkeypatch.setattr(
        ColumnarStore, "n_terms", property(lambda self: len(self.terms) + offset)
    )
    for shape in SHAPES:
        store._shape_index(shape)
    assert store._shape_index((True, True, False))[0].dtype == ID_DTYPE
    updated = store.with_updates({("fresh", "p", "b"): 2.5}, {("a", "q", "a")})
    assert updated.n_terms == 46_341
    assert updated._shape_index((True, True, False))[0].dtype == np.int64
    assert updated._shape_index((True, False, False))[0].dtype == ID_DTYPE
    assert_carried(updated, store)


def test_first_reads_after_a_compaction_sort_nothing():
    x, y = Variable("x"), Variable("y")
    patterns = [
        TriplePattern(x, "p", y),
        TriplePattern("a", x, y),
        TriplePattern(x, y, "b"),
        TriplePattern("a", "p", x),
        TriplePattern(x, "q", "a"),
        TriplePattern("b", x, "a"),
    ]
    base = ColumnarGraph.from_triples(
        Triple(s, p, o, float(i % 3))
        for i, (s, p, o) in enumerate(product("abc", "pq", "abc"))
    )
    live = LiveGraph(base)
    for pattern in patterns:
        live.count(pattern)
    live.add("new", "p", "b", score=2.0)
    live.remove("a", "q", "a")
    live.compact()

    callers: list[str] = []
    argsort = columnar.stable_argsort

    def counting(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return argsort(*args, **kwargs)

    with mock.patch.object(columnar, "stable_argsort", counting):
        live.add("newer", "q", "a", score=1.0)
        for pattern in patterns:
            live.list_rows([pattern])
            live.count(pattern)
        assert callers.count("_shape_index") == 0
        # The counter sees a build where no index was carried.
        fresh_copy(live.base.store).ordered_rows(("a", None, None))
    assert callers.count("_shape_index") == 1
