"""The batched read primitives of list building, against per-key references.

``ColumnarStore.lookup`` answers a whole list of keys at once — one
``searchsorted`` pair per key shape, rows back to back with their
lengths — and ``LiveGraph.list_rows`` masks and splices a whole list
of patterns over a live delta the same way.  Each run must equal what
one key at a time computes: the single-key sorted access below (a slice
of the shape's permutation index, filtered on the object when the key is
fully bound) plus the repeated-variable mask, and over a live graph the
brute-force Definition-5 list of the live triples.  ``stable_argsort``, which
now builds every permutation index and key order, must be
``np.argsort(kind="stable")`` bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg import ColumnarGraph, ColumnarStore, LiveGraph, Triple
from repro.kg.columnar import ID_DTYPE, stable_argsort
from repro.kg.index import MatchList
from repro.kg.pattern import TriplePattern, Variable

#: Few terms and fewer scores: long runs of rows tying on score and key.
TERMS = ("a", "aa", "b", "c", "é", "z")
SCORES = (0.0, 1.0, 1.0, 2.5, 7.0)
X, Y = Variable("x"), Variable("y")

spo = st.tuples(*(st.sampled_from(TERMS),) * 3)
triple_maps = st.dictionaries(spo, st.sampled_from(SCORES), max_size=40)
#: A position: a stored term, a term outside the dictionary, or one of two
#: variables (so ``(?x, p, ?x)`` and ``(?x, ?x, ?x)`` come up).
positions = st.one_of(
    st.sampled_from(TERMS), st.just("ghost"), st.sampled_from((X, Y))
)
patterns = st.builds(TriplePattern, positions, positions, positions)
#: Pattern lists with repeats: the same pattern twice, and patterns that
#: share a shape, must each get their own run.
pattern_lists = st.lists(patterns, max_size=10).map(lambda ps: ps + ps[:2])


def single_key_rows(store: ColumnarStore, pattern: TriplePattern) -> np.ndarray:
    """One key's rows as sorted access read them before lookups were
    batched — two ``searchsorted`` into the shape's index and a slice —
    then minus rows where a repeated variable binds inconsistently."""
    key = pattern.key()
    ids = []
    for term in key:
        if term is not None:
            term_id = store.term_id(term)
            if term_id is None:
                return np.empty(0, dtype=ID_DTYPE)
            ids.append(term_id)
    if not ids:
        perm = store._score_rows()
        rows = np.arange(store.n_triples, dtype=ID_DTYPE) if perm is None else perm
    else:
        fully_bound = len(ids) == 3
        keys, rows = store._shape_index(
            (True, True, False) if fully_bound else tuple(t is not None for t in key)
        )
        packed = ids[0] if len(ids) == 1 else ids[0] * store.n_terms + ids[1]
        packed = keys.dtype.type(packed)
        rows = rows[keys.searchsorted(packed, "left") : keys.searchsorted(packed, "right")]
        if fully_bound:
            rows = rows[store.objects[rows] == ids[2]]
    columns = (store.subjects, store.predicates, store.objects)
    for first, other in pattern.repeated_positions:
        rows = rows[columns[first][rows] == columns[other][rows]]
    return rows


def runs_of(rows: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
    assert lengths.dtype == np.int64 and (lengths >= 0).all()
    assert int(lengths.sum()) == len(rows)
    return np.split(rows, np.cumsum(lengths)[:-1]) if len(lengths) else []


def store_of(triples: dict) -> ColumnarStore:
    return ColumnarStore.from_triples(Triple(*key, s) for key, s in triples.items())


# ----------------------------------------------------------------------
# ColumnarStore.lookup
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    triples=triple_maps,
    pattern_list=pattern_lists,
    adds=st.dictionaries(spo, st.sampled_from(SCORES), max_size=4),
    drop_bits=st.lists(st.booleans(), min_size=48, max_size=48),
)
def test_lookup_runs_are_the_single_key_reads(triples, pattern_list, adds, drop_bits):
    # An interned store (arrival order) and the ordered store a
    # compaction makes from it.
    interned = store_of(triples)
    for store in (interned, interned.with_updates(adds)):
        rows, lengths = store.lookup([p.list_key() for p in pattern_list])
        assert rows.dtype == ID_DTYPE and len(lengths) == len(pattern_list)
        for pattern, run in zip(pattern_list, runs_of(rows, lengths)):
            np.testing.assert_array_equal(run, single_key_rows(store, pattern), str(pattern))
            np.testing.assert_array_equal(store.lookup((pattern.list_key(),))[0], run)
        dropped = np.array(drop_bits[: store.n_triples], dtype=bool)
        rows, lengths = store.lookup([p.list_key() for p in pattern_list], dropped)
        for pattern, run in zip(pattern_list, runs_of(rows, lengths)):
            expected = single_key_rows(store, pattern)
            np.testing.assert_array_equal(run, expected[~dropped[expected]], str(pattern))


@settings(max_examples=80, deadline=None)
@given(triples=triple_maps, probes=st.lists(spo, max_size=12))
def test_fully_bound_keys_find_their_one_row(triples, probes):
    store = store_of(triples)
    keys = list(triples) + probes + [("ghost", "a", "a")]
    expected = [
        int(rows[0]) if len(rows) else None
        for rows in (single_key_rows(store, TriplePattern(*key)) for key in keys)
    ]
    assert [store.row_of(*key) for key in keys] == expected
    assert None not in expected[: len(triples)]
    found = store.rows_of(keys)
    assert found.dtype == ID_DTYPE
    assert found.tolist() == [row for row in expected if row is not None]


def test_a_lone_key_is_a_read_only_view_and_an_empty_batch_is_empty():
    store = store_of({("a", "p", "b"): 2.0, ("c", "p", "b"): 1.0})
    rows, lengths = store.lookup([(None, "p", None)])
    assert rows.base is not None and not rows.flags.writeable
    assert lengths.tolist() == [2]
    rows, lengths = store.lookup([])
    assert rows.dtype == ID_DTYPE and len(rows) == 0 and len(lengths) == 0


# ----------------------------------------------------------------------
# LiveGraph.list_rows
# ----------------------------------------------------------------------
keys = st.tuples(
    st.sampled_from(TERMS + ("new",)), st.sampled_from(TERMS[:3]), st.sampled_from(TERMS + ("new",))
)
mutations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), keys, st.sampled_from(SCORES)),
        st.tuples(st.just("remove"), keys, st.just(0.0)),
    ),
    max_size=10,
)


@settings(max_examples=150, deadline=None)
@given(triples=triple_maps, steps=mutations, pattern_list=pattern_lists)
def test_overlay_runs_are_the_brute_force_list(triples, steps, pattern_list):
    live = LiveGraph(ColumnarGraph(store_of(triples)))
    for kind, key, score in steps:
        if kind == "add":
            live.add(*key, score=score)
        else:
            live.remove(*key)
    store = live.base.store
    superseded = set(live._superseded())
    rows, lengths, all_adds, all_slots = live.list_rows(pattern_list)
    assert len(all_adds) == len(all_slots) == len(pattern_list)
    for pattern, run, adds, slots in zip(
        pattern_list, runs_of(rows, lengths), all_adds, all_slots
    ):
        base_rows = single_key_rows(store, pattern)
        kept = [row for row, t in zip(base_rows, store.decode_rows(base_rows))
                if t.spo not in superseded]
        assert run.tolist() == kept, pattern
        assert (slots is None) == (not adds)
        merged = [(t.spo, t.score) for t in store.decode_rows(run)]
        for offset, (slot, add) in enumerate(zip([] if slots is None else slots.tolist(), adds)):
            merged.insert(slot + offset, add)
        reference = MatchList.from_triples(
            pattern.key(), [t for t in live.triples() if pattern.matches(t)]
        )
        assert merged == [(t.spo, t.score) for t in reference.triples], pattern


# ----------------------------------------------------------------------
# stable_argsort
# ----------------------------------------------------------------------
def assert_is_stable_argsort(keys: np.ndarray) -> None:
    expected = np.argsort(keys, kind="stable")
    got = stable_argsort(keys)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def tied(rng, n: int, high: int, low: int, scale: int, offset: int, dtype) -> np.ndarray:
    """*n* keys from few high and low digits: long runs of equal keys and
    of keys equal in one digit only, where an unstable pass would show."""
    keys = rng.integers(0, high, n).astype(np.int64) * scale + rng.integers(0, low, n)
    return (keys + offset).astype(dtype)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize(
    "n, high, low, scale, offset",
    [
        (0, 1, 1, 1, 0),  # empty
        (5, 3, 2, 7, 0),  # n < 64
        (63, 40, 5, 1000, -7),  # n < 64, negative keys
        (64, 1, 1, 1, 123),  # all equal
        (2000, 1, 50, 1, 0),  # span < 2**8
        (2000, 30, 7, 2000, -30_000),  # span < 2**16, negative keys
        (3000, 5, 3, 2**16, 0),  # span < 2**32: ties in the high digit
        (3000, 40, 9, 99_991, -(2**31) + 5),  # span < 2**32 from the int32 floor
        (1000, 2, 3, 2**32 - 3, -(2**31)),  # span 2**32 - 1: the whole int32 range
    ],
)
def test_stable_argsort_is_numpys_stable_argsort(dtype, n, high, low, scale, offset):
    rng = np.random.default_rng(n + high)
    assert_is_stable_argsort(tied(rng, n, high, low, scale, offset, dtype))


@pytest.mark.parametrize("n", [10, 500])
def test_stable_argsort_spans_at_or_above_2_32(n):
    rng = np.random.default_rng(n)
    keys = tied(rng, n, 3, 4, 2**32, -(2**40), np.int64)
    assert int(keys.max()) - int(keys.min()) >= 2**32
    assert_is_stable_argsort(keys)
    assert_is_stable_argsort(np.array([0, 2**32] * 40 + [1] * 40, dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 400),
    high=st.integers(1, 6),
    low=st.integers(1, 6),
    scale=st.sampled_from((1, 255, 2**16, 2**16 + 1, 2**20, 2**31, 2**33)),
    offset=st.integers(-(2**40), 2**40),
    seed=st.integers(0, 2**16),
)
def test_stable_argsort_matches_on_random_keys(n, high, low, scale, offset, seed):
    assert_is_stable_argsort(
        tied(np.random.default_rng(seed), n, high, low, scale, offset, np.int64)
    )
