"""The overlay index of a live graph — its superseded-row mask and its
adds filed by pattern key, built once per delta state — follows every
single mutation: each read in between, through ``list_rows``,
``match_list``, ``build_encoded_match_list`` and
``build_merged_match_list``, equals the oracle's Definition-5 list or
Definition-8 merge (:class:`~repro.baselines.naive.NaiveEngine`), with no
version-tagged list cache in between."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveEngine
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import LiveGraph
from repro.kg.pattern import TriplePattern, var
from repro.kg.triple import Triple
from repro.operators.block import (
    TermCodec,
    build_encoded_match_list,
    build_merged_match_list,
)

TERMS = ("a", "b", "c", "x")
S_P_O = TriplePattern(var("s"), "p", var("o"))
PATTERNS = (
    S_P_O,
    TriplePattern(var("s"), "p", "x"),
    TriplePattern("a", var("r"), var("o")),
    TriplePattern(var("s"), var("r"), var("o")),
    TriplePattern(var("n"), "p", var("n")),
    TriplePattern(var("n"), var("r"), var("n")),
    TriplePattern("a", "p", "x"),
)
#: Relaxation inputs: a rule may move a variable, and a diagonal merges too.
MERGES = (
    (
        (S_P_O, 1.0),
        (TriplePattern(var("s"), "q", var("o")), 0.8),
        (TriplePattern(var("o"), "p", var("s")), 0.5),
    ),
    ((TriplePattern(var("n"), "p", var("n")), 1.0), (TriplePattern(var("n"), "q", var("n")), 0.7)),
)

keys = st.tuples(
    st.sampled_from(TERMS + ("new",)),
    st.sampled_from(("p", "q")),
    st.sampled_from(TERMS + ("new",)),
)
# Few distinct scores: ties between base rows, between adds and across.
scores = st.sampled_from((1.0, 2.0, 2.0, 7.0))
#: One mutation at a time: an add (an overwrite when the key is live), a
#: remove, or a compaction.
mutations = st.one_of(
    st.tuples(st.just("add"), keys, scores),
    st.tuples(st.just("remove"), keys, st.just(0.0)),
    st.tuples(st.just("compact"), st.just(None), st.just(0.0)),
)


def spliced(store, rows, adds, slots) -> list[tuple[tuple[str, str, str], float]]:
    """``np.insert(rows, slots, adds)``, decoded."""
    merged = [(t.spo, t.score) for t in store.decode_rows(rows)]
    assert (slots is None) == (not adds)
    for offset, (slot, add) in enumerate(zip(() if slots is None else slots.tolist(), adds)):
        merged.insert(slot + offset, add)
    return merged


def decoded(encoded, codec) -> list[tuple[tuple[str, ...], float]]:
    """*encoded*'s rows as the oracle's ``(binding, score)`` rows."""
    terms = [[codec.decode(i) for i in column.tolist()] for column in encoded.columns]
    return [
        (tuple(column[row] for column in terms), score)
        for row, score in enumerate(encoded.scores.tolist())
    ]


def assert_reads_follow(live: LiveGraph) -> None:
    store = live.base.store
    codec = TermCodec(store)
    oracle = NaiveEngine(live, None)
    rows, lengths, all_adds, all_slots = live.list_rows(PATTERNS)
    assert len(lengths) == len(all_adds) == len(all_slots) == len(PATTERNS)
    assert lengths.sum() == len(rows)
    runs = np.split(rows, np.cumsum(lengths)[:-1])
    for pattern, run, adds, slots in zip(PATTERNS, runs, all_adds, all_slots):
        matches = oracle.matches(pattern)
        reference = oracle.rows([(pattern, 1.0)])
        match_list = live.match_list(pattern)
        assert match_list.triples == tuple(matches), pattern
        assert list(match_list.normalized_scores) == [s for _, s in reference]
        expected = [(t.spo, t.score) for t in matches]
        assert spliced(store, run, adds, slots) == expected, pattern
        sliced = build_encoded_match_list(live, pattern, codec)
        assert decoded(sliced, codec) == reference, pattern
        assert sliced.max_score == match_list.max_score == (matches[0].score if matches else 0.0)
    for inputs in MERGES:
        merged = build_merged_match_list(live, inputs, codec)
        assert merged.var_names == inputs[0][0].variable_names
        assert decoded(merged, codec) == oracle.rows(inputs)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.dictionaries(keys, scores, min_size=1, max_size=14),
    steps=st.lists(mutations, min_size=1, max_size=12),
)
def test_every_read_between_single_mutations_sees_the_delta(seed, steps):
    live = LiveGraph(ColumnarGraph.from_triples(Triple(*k, s) for k, s in seed.items()))
    assert_reads_follow(live)
    for kind, key, score in steps:
        if kind == "add":
            live.add(*key, score=score)
        elif kind == "remove":
            live.remove(*key)
        else:
            live.compact()
        assert_reads_follow(live)


def test_mask_and_adds_are_built_once_per_delta_state():
    live = LiveGraph(ColumnarGraph.from_triples([Triple("a", "p", "x", 2.0)]))
    live.add("a", "p", "x", score=3.0)  # an overwrite: row 0 is superseded
    live.add("n", "p", "n", score=1.0)
    first = live._overlay_index(live.base.store)
    live.list_rows(PATTERNS)
    assert live._overlay_index(live.base.store) is first
    superseded, adds_by_key = first
    assert superseded.tolist() == [True]
    assert adds_by_key[(None, "p", None)] == [(("a", "p", "x"), 3.0), (("n", "p", "n"), 1.0)]
    # Eight keys each, two shared: (None, None, None) and (None, "p", None).
    assert len(adds_by_key) == 14
    live.remove("n", "p", "n")
    assert live._overlay_index(live.base.store) is not first
    assert np.count_nonzero(live._overlay_index(live.base.store)[0]) == 1
