"""A write patches the encoded and merged lists it touches, byte for byte.

``EncodedListStore`` brings a held list to a new graph version by
rewriting only the rows of the bindings the write touched
(``patch_match_lists``).  Every case here checks each held list against
a fresh build under the same codec at the new version — columns, scores,
source inputs, row order, ``max_score`` and every key order
the list caches — and that the list was patched, not dropped, except
where an input's maximum moved.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.pattern import TriplePattern, var
from repro.kg.triple import Triple
from repro.operators.block import (
    EncodedListStore,
    build_encoded_match_list,
    build_merged_match_list,
    sorted_key_order,
)

P = TriplePattern(var("s"), "p", "x")
R = TriplePattern(var("s"), "r", "x")
EDGE = TriplePattern(var("s"), "knows", var("o"))
#: A merged list: P itself, then R at a weight where rows tie across inputs.
MERGED = ((P, 1.0), (R, 0.5))

BASE = [
    ("a", "p", "x", 5.0), ("b", "p", "x", 4.0), ("c", "p", "x", 4.0),
    ("d", "p", "x", 2.5), ("e", "p", "x", 1.0),
    ("a", "r", "x", 3.0), ("f", "r", "x", 6.0), ("g", "r", "x", 6.0),
    ("h", "r", "x", 3.0), ("b", "r", "x", 1.0),
    ("a", "knows", "b", 2.0), ("b", "knows", "c", 2.0), ("c", "knows", "a", 1.0),
]


def make_live(rows=BASE) -> LiveGraph:
    return LiveGraph(ColumnarGraph.from_triples([Triple(*row) for row in rows]))


def hold(store: EncodedListStore, live: LiveGraph) -> dict:
    """Build the three lists and the key orders joins would cache."""
    codec = store.codec(live)
    leaf = store.get_or_build(live, P)
    merged = store.get_or_merge(
        live, P, "v", lambda: build_merged_match_list(live, MERGED, store.codec(live))
    )
    edge = store.get_or_build(live, EDGE)
    for held, join_vars in ((leaf, ("s",)), (merged, ("s",)), (edge, ("s", "o")), (edge, ("o",))):
        held.key_order(join_vars, codec.n_ids)
    return {"leaf": P, "merged": (P, "v"), "edge": EDGE}


def assert_fresh(store: EncodedListStore, live: LiveGraph) -> None:
    """Every held list equals a fresh build under the store's codec."""
    codec = store.codec(live)
    for key, held in list(store._lists.items()):
        if isinstance(key, tuple):
            fresh = build_merged_match_list(live, MERGED, codec)
        else:
            fresh = build_encoded_match_list(live, key, codec)
        assert held.var_names == fresh.var_names, key
        for mine, theirs in zip(held.columns, fresh.columns):
            assert mine.tobytes() == theirs.tobytes(), key
        assert held.scores.tobytes() == fresh.scores.tobytes(), key
        assert (held.sources is None) == (fresh.sources is None), key
        if held.sources is not None:
            assert held.sources.tobytes() == fresh.sources.tobytes(), key
        assert held.max_score == fresh.max_score, key
        for join_vars, (base, order) in held._key_orders.items():
            columns = tuple(fresh.columns[fresh.var_names.index(n)] for n in join_vars)
            expected = sorted_key_order(columns, base or codec.n_ids, len(fresh))
            assert order[0].tobytes() == expected[0].tobytes(), (key, join_vars)
            assert order[1].tobytes() == expected[1].astype(np.int32).tobytes()
            assert order[2] == expected[2]


def write(live: LiveGraph, store: EncodedListStore, *updates: GraphUpdate) -> dict:
    live.apply_updates(updates)
    counts = store.refresh(live)
    assert_fresh(store, live)
    return counts


@pytest.fixture
def served():
    live = make_live()
    store = EncodedListStore()
    keys = hold(store, live)
    return live, store, keys


def test_rescores_and_removes_patch_both_kinds(served):
    live, store, keys = served
    leaf, merged, edge = (store._lists[keys[kind]] for kind in ("leaf", "merged", "edge"))
    counts = write(
        live, store,
        GraphUpdate.add("d", "p", "x", 3.5),  # up, below the maximum
        GraphUpdate.add("b", "p", "x", 1.5),  # down, past a tie
        GraphUpdate.remove("e", "p", "x"),
        GraphUpdate.remove("h", "r", "x"),
    )
    assert counts == {"kept": 1, "patched": 2, "dropped": 0}
    assert store._lists[keys["leaf"]] is not leaf
    assert store._lists[keys["merged"]] is not merged
    assert store._lists[keys["edge"]] is edge  # untouched: the same object


def test_a_row_that_came_from_a_written_input_is_rescored_over_the_others(served):
    live, store, _ = served
    # b's merged row comes from P (0.8); R still holds b at 0.5 * 1/6.
    counts = write(live, store, GraphUpdate.remove("b", "p", "x"))
    assert counts["patched"] == 2 and counts["dropped"] == 0
    # a's merged row comes from P (1.0): after this its R row (0.25) wins.
    counts = write(
        live, store, GraphUpdate.add("a", "p", "x", 0.5), GraphUpdate.add("b", "p", "x", 5.0)
    )
    assert counts["dropped"] == 0


def test_adds_of_known_and_fresh_subjects(served):
    live, store, keys = served
    codec = store.codec(live)
    counts = write(
        live, store,
        GraphUpdate.add("h", "p", "x", 3.0),  # a known subject
        GraphUpdate.add("fresh", "p", "x", 2.0),  # a side id
        GraphUpdate.add("fresh2", "r", "x", 4.0),
        GraphUpdate.add("fresh", "knows", "a", 2.0),
    )
    assert counts == {"kept": 0, "patched": 3, "dropped": 0}
    assert store.codec(live) is codec
    held = store._lists[keys["leaf"]]
    assert (held.columns[0] >= codec.n_base).any()


def test_a_moved_maximum_drops_the_list(served):
    live, store, _ = served
    # Above P's maximum: every normalised P score changes.
    counts = write(live, store, GraphUpdate.add("d", "p", "x", 9.0))
    assert counts == {"kept": 1, "patched": 0, "dropped": 2}
    # R's maximum row goes down and its tie partner is touched too.
    live2 = make_live()
    store2 = EncodedListStore()
    keys2 = hold(store2, live2)
    counts = write(
        live2, store2, GraphUpdate.remove("f", "r", "x"), GraphUpdate.remove("g", "r", "x")
    )
    assert counts == {"kept": 2, "patched": 0, "dropped": 1}
    assert keys2["merged"] not in store2._lists
    # One of two rows at R's maximum goes: the maximum stays, so it patches.
    live3 = make_live()
    store3 = EncodedListStore()
    keys3 = hold(store3, live3)
    counts = write(live3, store3, GraphUpdate.remove("f", "r", "x"))
    assert counts == {"kept": 2, "patched": 1, "dropped": 0}
    assert keys3["merged"] in store3._lists


def test_rows_land_inside_runs_of_equal_scores(served):
    live, store, _ = served
    # 4.0 ties b and c in P (by spo: b < bb < c); 0.8 ties them in the
    # merge too, and R's 6.0 rows tie P's 5.0 row at 1.0 / 0.5.
    counts = write(
        live, store,
        GraphUpdate.add("bb", "p", "x", 4.0),
        GraphUpdate.add("a0", "r", "x", 6.0),
        GraphUpdate.add("zz", "r", "x", 3.0),  # ties a and h in R: a < h < zz
        GraphUpdate.add("e", "p", "x", 2.5),  # ties d in P
    )
    assert counts["patched"] == 2 and counts["dropped"] == 0
    merged = store._lists[(P, "v")]
    ties = np.flatnonzero(merged.scores[1:] == merged.scores[:-1])
    assert len(ties) >= 3 and (merged.sources[ties] != merged.sources[ties + 1]).any()


def test_raw_scores_that_share_a_normalised_score_keep_raw_order():
    """Two raw scores can divide to one normalised score; rows of one
    input scoring alike are then ordered by raw score, not by spo, so a
    patch reads the raw scores of the rows it lands among."""
    low = 6.736025107499303
    high = math.nextafter(low, math.inf)
    assert low / 10.0 == high / 10.0
    live = make_live(
        [("m", "p", "x", 10.0), ("b", "p", "x", low), ("c", "p", "x", low), ("d", "p", "x", 1.0)]
    )
    store = EncodedListStore()
    hold(store, live)
    # c's raw score rises but its normalised score stays: it moves before b.
    assert write(live, store, GraphUpdate.add("c", "p", "x", high))["patched"] == 2
    # z lands between c and b, though by spo it sorts after both.
    assert write(live, store, GraphUpdate.add("z", "p", "x", high))["patched"] == 2
    leaf = store._lists[P]
    codec = store.codec(live)
    assert [codec.decode(int(i)) for i in leaf.columns[0]] == ["m", "c", "z", "b", "d"]


def test_a_key_order_with_repeated_keys_is_sorted_again_when_rows_cross():
    """A re-score only moves a row, so a key order keeps its keys; but
    where keys repeat, a row that moved past another of its key must
    not keep its old place among them."""
    live = make_live(
        [("a", "knows", "z", 3.0), ("b", "knows", "z", 2.0), ("c", "knows", "z", 1.0)]
    )
    store = EncodedListStore()
    edge = store.get_or_build(live, EDGE)
    assert not edge.key_order(("o",), store.codec(live).n_ids)[2]  # o repeats
    assert write(live, store, GraphUpdate.add("c", "knows", "z", 2.5))["patched"] == 1
    assert write(live, store, GraphUpdate.add("c", "knows", "z", 2.4))["patched"] == 1


def test_a_compaction_re_encodes_side_ids_and_patches(served):
    live, store, keys = served
    write(
        live, store,
        GraphUpdate.add("fresh", "p", "x", 2.0), GraphUpdate.add("fresh", "knows", "b", 1.0),
    )
    codec = store.codec(live)
    leaf = store._lists[keys["leaf"]]
    assert (leaf.columns[0] >= codec.n_base).any()
    live.add("a", "p", "x", 5.0)  # a re-score the compaction folds too
    live.compact()
    counts = store.refresh(live)
    assert_fresh(store, live)
    assert counts == {"kept": 0, "patched": 3, "dropped": 0}
    new_codec = store.codec(live)
    assert new_codec is not codec
    for held in store._lists.values():
        assert all((column < new_codec.n_base).all() for column in held.columns)


@pytest.mark.parametrize("seed", range(12))
def test_random_batches_equal_a_fresh_build(seed):
    """Integer scores tie a lot; every batch re-scores, removes and adds
    (known and fresh subjects), with a compaction now and then."""
    rng = random.Random(seed)
    subjects = [f"s{i}" for i in range(14)]
    rows = [
        (s, p, "x", float(rng.randint(1, 6)))
        for p in ("p", "r")
        for s in rng.sample(subjects, 10)
    ] + [(s, "knows", o, float(rng.randint(1, 3))) for s, o in zip(subjects, subjects[1:])]
    live = make_live(rows)
    store = EncodedListStore()
    patched = 0
    for step in range(12):
        hold(store, live)
        triples = sorted(live.triples(), key=lambda t: t.spo)
        batch = [GraphUpdate.add(*t.spo, float(rng.randint(1, 6))) for t in rng.sample(triples, 3)]
        batch += [GraphUpdate.remove(*t.spo) for t in rng.sample(triples, 2)]
        for subject in (f"n{seed}_{step}", rng.choice(subjects)):  # fresh, known
            score = float(rng.randint(1, 6))
            batch.append(GraphUpdate.add(subject, rng.choice("pr"), "x", score))
        live.apply_updates(batch)
        if step % 4 == 3:
            live.compact()
        patched += store.refresh(live)["patched"]
        assert_fresh(store, live)
    assert patched > 0
