"""The column-sliced encoded list of a live overlay is, decoded, the
oracle's Definition-5 list of the live triples
(:meth:`NaiveEngine.rows <repro.baselines.naive.NaiveEngine.rows>`):
terms, order, normalised score bits and ``max_score`` — and is built
without a string list."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveEngine
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, var
from repro.kg.storage import load_snapshot_v2, save_snapshot_v2
from repro.kg.triple import Triple
from repro.operators.block import (
    EncodedListStore,
    TermCodec,
    build_encoded_match_list,
)

S_P_O = TriplePattern(var("s"), "p", var("o"))
S_P_X = TriplePattern(var("s"), "p", "x")
ALL = TriplePattern(var("s"), var("r"), var("o"))
DIAGONAL = TriplePattern(var("n"), "p", var("n"))
PATTERNS = (S_P_O, S_P_X, ALL, DIAGONAL, TriplePattern("b", "p", var("o")))


def base_triples() -> list[Triple]:
    return [
        Triple("b", "p", "x", 5.0),
        Triple("d", "p", "x", 5.0),
        Triple("a", "p", "y", 3.0),
        Triple("c", "p", "c", 3.0),
        Triple("e", "p", "x", 1.0),
        Triple("b", "q", "y", 4.0),
    ]


def live_over(kind: str = "columnar", tmp_path=None) -> LiveGraph:
    """A clean overlay over *base_triples* on one kind of serving store:
    interned from triples, attached from a ``.kg2`` (ordered rows, nothing
    sorted), or produced by a compaction's ``with_updates``."""
    base = ColumnarGraph.from_triples(base_triples(), name="base")
    if kind == "kg2":
        save_snapshot_v2(base, tmp_path / "base.kg2")
        return LiveGraph(load_snapshot_v2(tmp_path / "base.kg2", mmap=True))
    if kind == "compacted":
        first, *rest = base_triples()
        live = LiveGraph(ColumnarGraph.from_triples(rest, name="base"))
        live.add(first.subject, first.predicate, first.object, score=first.score)
        live.compact()
        return live
    return LiveGraph(base)


BASES = ("columnar", "kg2", "compacted")


def decoded(encoded, codec) -> list[tuple[tuple[str, ...], float]]:
    """*encoded*'s rows as the oracle's ``(binding, score)`` rows."""
    terms = [[codec.decode(i) for i in column.tolist()] for column in encoded.columns]
    return [
        (tuple(column[row] for column in terms), score)
        for row, score in enumerate(encoded.scores.tolist())
    ]


def assert_sliced_is_oracle_list(live: LiveGraph, pattern, monkeypatch=None):
    codec = TermCodec(live.base.store)
    oracle = NaiveEngine(live, None)
    matches = oracle.matches(pattern)
    if monkeypatch is not None:
        # The sliced build may not fall back on a string list.
        monkeypatch.setattr(
            KnowledgeGraph,
            "_build_match_list",
            lambda *args: pytest.fail("string list built"),
        )
        live.invalidate_caches()
    sliced = build_encoded_match_list(live, pattern, codec)
    assert sliced.var_names == pattern.variable_names
    assert all(column.dtype == np.int64 for column in sliced.columns)
    assert sliced.scores.dtype == np.float64
    assert decoded(sliced, codec) == oracle.rows([(pattern, 1.0)])
    assert sliced.max_score == (matches[0].score if matches else 0.0)
    return sliced, codec


@pytest.mark.parametrize("kind", BASES)
class TestColumnSlicedOverlay:
    def test_clean_overlay_is_the_base_slice(self, kind, tmp_path, monkeypatch):
        live = live_over(kind, tmp_path)
        for pattern in PATTERNS:
            assert_sliced_is_oracle_list(live, pattern)
        assert_sliced_is_oracle_list(live, S_P_O, monkeypatch)

    def test_add_tying_base_rows_on_both_sides(self, kind, tmp_path, monkeypatch):
        # (c, p, x) ties b and d at 5.0 and sorts between them; a..
        # sorts in front of the run, z.. behind it.
        live = live_over(kind, tmp_path)
        live.apply_updates(
            [
                GraphUpdate.add("c", "p", "x", 5.0),
                GraphUpdate.add("a", "p", "x", 5.0),
                GraphUpdate.add("z", "p", "x", 5.0),
                GraphUpdate.add("bb", "p", "a", 3.0),
            ]
        )
        for pattern in PATTERNS:
            assert_sliced_is_oracle_list(live, pattern)
        sliced, codec = assert_sliced_is_oracle_list(live, S_P_X, monkeypatch)
        assert [codec.decode(i) for i in sliced.columns[0].tolist()] == [
            "a", "b", "c", "d", "z", "e",
        ]

    def test_fresh_terms_outside_the_dictionary(self, kind, tmp_path, monkeypatch):
        live = live_over(kind, tmp_path)
        live.apply_updates(
            [
                GraphUpdate.add("fresh-subject", "p", "x", 4.5),
                GraphUpdate.add("b", "p", "fresh-object", 0.5),
                GraphUpdate.add("fresh-subject", "fresh-predicate", "y", 7.0),
            ]
        )
        assert live.base.store.term_id("fresh-subject") is None
        for pattern in PATTERNS:
            assert_sliced_is_oracle_list(live, pattern)
        sliced, codec = assert_sliced_is_oracle_list(live, ALL, monkeypatch)
        side = [i for i in sliced.columns[0].tolist() if i >= codec.n_base]
        assert {codec.decode(i) for i in side} == {"fresh-subject"}

    def test_tombstones_and_overwrites(self, kind, tmp_path, monkeypatch):
        live = live_over(kind, tmp_path)
        live.apply_updates(
            [
                GraphUpdate.remove("d", "p", "x"),
                GraphUpdate.add("e", "p", "x", 4.0),  # overwrite, moves up
                GraphUpdate.add("b", "p", "x", 0.25),  # overwrite, moves down
                GraphUpdate.remove("c", "p", "c"),
            ]
        )
        for pattern in PATTERNS:
            assert_sliced_is_oracle_list(live, pattern)
        sliced, codec = assert_sliced_is_oracle_list(live, S_P_X, monkeypatch)
        assert [codec.decode(i) for i in sliced.columns[0].tolist()] == ["e", "b"]
        assert sliced.max_score == 4.0

    def test_rescored_row_becomes_the_maximum(self, kind, tmp_path, monkeypatch):
        live = live_over(kind, tmp_path)
        live.apply_updates([GraphUpdate.add("e", "p", "x", 40.0)])
        for pattern in PATTERNS:
            assert_sliced_is_oracle_list(live, pattern)
        sliced, _ = assert_sliced_is_oracle_list(live, S_P_O, monkeypatch)
        assert sliced.max_score == 40.0
        assert sliced.scores.tolist()[:2] == [1.0, 5.0 / 40.0]

    def test_empty_lists(self, kind, tmp_path, monkeypatch):
        live = live_over(kind, tmp_path)
        live.apply_updates(
            [GraphUpdate.remove("b", "q", "y"), GraphUpdate.add("k", "p", "x", 2.0)]
        )
        everything_tombstoned = TriplePattern(var("s"), "q", var("o"))
        never_matched = TriplePattern(var("s"), "no-such-predicate", var("o"))
        for pattern in (everything_tombstoned, never_matched):
            sliced, _ = assert_sliced_is_oracle_list(live, pattern)
            assert len(sliced) == 0 and sliced.max_score == 0.0
        assert_sliced_is_oracle_list(live, never_matched, monkeypatch)

    def test_repeated_variable_delta_rows(self, kind, tmp_path, monkeypatch):
        live = live_over(kind, tmp_path)
        live.apply_updates(
            [GraphUpdate.add("m", "p", "m", 3.0), GraphUpdate.add("m", "p", "n", 9.0)]
        )
        sliced, codec = assert_sliced_is_oracle_list(live, DIAGONAL, monkeypatch)
        assert [codec.decode(i) for i in sliced.columns[0].tolist()] == ["c", "m"]

    def test_after_compaction(self, kind, tmp_path, monkeypatch):
        live = live_over(kind, tmp_path)
        live.apply_updates(
            [GraphUpdate.add("fresh", "p", "x", 5.0), GraphUpdate.remove("a", "p", "y")]
        )
        live.compact()
        live.apply_updates([GraphUpdate.add("fresher", "p", "x", 5.0)])
        for pattern in PATTERNS:
            assert_sliced_is_oracle_list(live, pattern)
        assert_sliced_is_oracle_list(live, S_P_X, monkeypatch)


def test_store_serves_the_sliced_list_over_any_base():
    live = live_over()
    live.apply_updates([GraphUpdate.add("fresh", "p", "x", 6.0)])
    store = EncodedListStore()
    served = store.get_or_build(live, S_P_X)
    assert live.index_stats()["match_lists"] == 0  # nothing decoded on the way
    assert decoded(served, store.codec(live)) == NaiveEngine(live, None).rows(
        [(S_P_X, 1.0)]
    )

    # An object base is frozen into columns, so it is sliced the same way.
    over_objects = LiveGraph(KnowledgeGraph(base_triples()))
    assert isinstance(over_objects.base, ColumnarGraph)
    over_objects.apply_updates([GraphUpdate.add("fresh", "p", "x", 6.0)])
    EncodedListStore().get_or_build(over_objects, S_P_X)
    assert over_objects.index_stats()["match_lists"] == 0


TERMS = ("a", "b", "c", "x", "y")
keys = st.tuples(
    st.sampled_from(TERMS + ("new",)),
    st.sampled_from(("p", "q")),
    st.sampled_from(TERMS + ("new",)),
)
# Few distinct scores, so ties — between base rows, between delta rows and
# across the two — are the common case.
scores = st.sampled_from((1.0, 2.0, 2.0, 7.0))
updates = st.lists(
    st.one_of(
        st.builds(lambda key, score: GraphUpdate.add(*key, score), keys, scores),
        st.builds(lambda key: GraphUpdate.remove(*key), keys),
    ),
    max_size=8,
)
terms = st.one_of(st.sampled_from(TERMS + ("new", "p", "q")), st.sampled_from("uv").map(var))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.dictionaries(keys, scores, min_size=1, max_size=12),
    batch=updates,
    pattern=st.builds(TriplePattern, terms, terms, terms),
)
def test_sliced_overlay_matches_the_brute_force_list(seed, batch, pattern):
    live = LiveGraph(ColumnarGraph.from_triples(Triple(*k, s) for k, s in seed.items()))
    live.apply_updates(batch)
    assert_sliced_is_oracle_list(live, pattern)
    oracle = NaiveEngine(live, None)
    match_list = live.match_list(pattern)
    assert match_list.triples == tuple(oracle.matches(pattern))
    assert list(match_list.normalized_scores) == [
        score for _, score in oracle.rows([(pattern, 1.0)])
    ]
