"""What the block read path takes from its lists instead of recomputing.

Every stored, merged, live, compacted and joined
:class:`EncodedMatchList` holds distinct full bindings, so a cut that
projects every variable deduplicates nothing and sorts nothing
(:func:`top_k_cut` finds the k-th score with ``np.partition``).  That
fact is checked here against the computation it replaces.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveEngine
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, var
from repro.operators.block import (
    EncodedListStore,
    EncodedMatchList,
    TermCodec,
    build_encoded_match_list,
    build_merged_match_list,
    top_k_cut,
)
from repro.operators.memory import ExecutionContext
from repro.operators.vector_join import join_lists
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RuleSet

EDGE = TriplePattern(var("s"), "p", var("o"))

# ----------------------------------------------------------------------
# The cut
# ----------------------------------------------------------------------


@st.composite
def cut_cases(draw):
    """``(triples, k, projection, seed)``: tie-heavy ``(s, p, o)`` rows."""
    triples = draw(
        st.lists(
            st.tuples(
                st.integers(0, 4), st.integers(0, 3), st.sampled_from((1.0, 2.0, 3.0))
            ),
            max_size=20,
            unique_by=lambda row: row[:2],
        )
    )
    k = draw(st.integers(1, 6))
    # A repeated variable is a valid projection: ``("s", "s")`` keeps one
    # variable, ``("s", "o", "s")`` every one.
    projection = draw(
        st.sampled_from(
            (None, ("s", "o"), ("o", "s"), ("s",), ("o",), ("s", "s"), ("s", "o", "s"))
        )
    )
    return triples, k, projection, draw(st.integers(0, 2**32 - 1))


def padded(rows: EncodedMatchList) -> EncodedMatchList:
    """*rows* with one more variable, bound to one id on every row: a
    projection of the original variables then takes the dedup path."""
    return EncodedMatchList(
        rows.var_names + ("pad",),
        rows.columns + (np.zeros(len(rows), dtype=np.int64),),
        rows.scores,
    )


class TestFastCut:
    @settings(max_examples=300, deadline=None)
    @given(case=cut_cases())
    def test_equals_the_dedup_cut_and_the_oracle(self, case):
        triples, k, projection, seed = case
        kg = KnowledgeGraph()
        for s, o, score in triples:
            kg.add(f"e{s}", "p", f"o{o}", score=score)
        kg.add("e-other", "q", "o-other", score=1.0)  # never an empty store
        frozen = ColumnarGraph.from_graph(kg)
        codec = TermCodec(frozen.store)
        rows = build_encoded_match_list(frozen, EDGE, codec)
        # A join's output is in no score order.
        order = np.random.default_rng(seed).permutation(len(rows))
        shuffled = EncodedMatchList(
            rows.var_names,
            tuple(column[order] for column in rows.columns),
            rows.scores[order],
        )
        actual = top_k_cut(shuffled, k, codec, projection)
        chosen = None if projection is None else [var(name) for name in projection]
        query = TriplePatternQuery((EDGE,), projection=chosen)
        expected = NaiveEngine(frozen, RuleSet()).query(query, k).answers
        assert actual == list(expected)
        assert [a.score for a in actual] == [a.score for a in expected]
        dedup = top_k_cut(padded(shuffled), k, codec, projection or ("s", "o"))
        assert actual == dedup
        assert [a.score for a in actual] == [a.score for a in dedup]

    def test_the_whole_boundary_tie_run_reaches_the_canonical_cut(self):
        """The k-th score's tie run reaches past k, and its canonical
        winners come last in row order: a cut that kept any k rows of the
        run, not all of them, would return the wrong ones."""
        kg = KnowledgeGraph()
        kg.add("top", "p", "o", score=9.0)
        for name in ("zeta", "yak", "alpha", "beta"):
            kg.add(name, "p", "o", score=5.0)
        frozen = ColumnarGraph.from_graph(kg)
        codec = TermCodec(frozen.store)
        rows = build_encoded_match_list(frozen, EDGE, codec)
        reverse = np.arange(len(rows))[::-1]
        reversed_rows = EncodedMatchList(
            rows.var_names,
            tuple(column[reverse] for column in rows.columns),
            rows.scores[reverse],
        )
        for candidate in (rows, reversed_rows):
            answers = top_k_cut(candidate, 3, codec)
            assert [a.as_dict()["s"] for a in answers] == ["top", "alpha", "beta"]


# ----------------------------------------------------------------------
# Distinct bindings in every list
# ----------------------------------------------------------------------

#: Shapes with constants, a repeated variable, a variable predicate and
#: no variable at all.
SHAPES = (
    EDGE,
    TriplePattern(var("s"), var("p"), var("o")),
    TriplePattern(var("s"), "p", var("s")),
    TriplePattern(var("s"), var("p"), "o0"),
    TriplePattern("e0", "p", "o0"),
)
#: Merges of inputs binding the same variables, one moving a variable.
MERGES = (
    ((EDGE, 1.0), (TriplePattern(var("s"), "q", var("o")), 0.5)),
    (
        (EDGE, 1.0),
        (TriplePattern(var("o"), "q", var("s")), 0.8),
        (TriplePattern(var("s"), "r", var("o")), 0.5),
    ),
    (
        (TriplePattern(var("s"), "p", "o0"), 1.0),
        (TriplePattern(var("s"), "q", "o1"), 1.0),
    ),
)

term = st.sampled_from(("e0", "e1", "e2", "o0", "o1"))
triple = st.tuples(term, st.sampled_from(("p", "q", "r")), term, st.integers(1, 4))


def assert_distinct(encoded: EncodedMatchList) -> None:
    bindings = set(zip(*(column.tolist() for column in encoded.columns)))
    if encoded.var_names:
        assert len(bindings) == len(encoded), encoded.var_names
    else:
        assert len(encoded) <= 1


def every_list(graph, codec: TermCodec) -> list[EncodedMatchList]:
    """Every leaf and merged list of *graph*, and joins of them."""
    leaves = [build_encoded_match_list(graph, pattern, codec) for pattern in SHAPES]
    merged = [build_merged_match_list(graph, inputs, codec) for inputs in MERGES]
    n_ids = max(codec.n_ids, 1)
    pairs = ((leaves[0], leaves[1]), (leaves[0], merged[1]), (merged[0], leaves[3]))
    joined = [join_lists(left, right, ExecutionContext(), n_ids) for left, right in pairs]
    joined.append(join_lists(joined[0], merged[0], ExecutionContext(), n_ids))
    return leaves + merged + joined


class TestDistinctBindings:
    @settings(max_examples=60, deadline=None)
    @given(
        base=st.lists(triple, max_size=30, unique_by=lambda row: row[:3]),
        batches=st.lists(
            st.lists(st.tuples(st.booleans(), triple), min_size=1, max_size=6), max_size=3
        ),
    )
    def test_stored_merged_live_compacted_and_joined_lists(self, base, batches):
        kg = KnowledgeGraph()
        for s, p, o, score in base:
            kg.add(s, p, o, score=float(score))
        kg.add("e-other", "p-other", "o-other", score=1.0)
        live = LiveGraph(ColumnarGraph.from_graph(kg))
        store = EncodedListStore()

        def check() -> None:
            for encoded in every_list(live, TermCodec(live.column_store())):
                assert_distinct(encoded)
            # Lists a store holds are patched by a write, not rebuilt.
            codec = store.codec(live)
            for pattern in SHAPES:
                assert_distinct(store.get_or_build(live, pattern))
            for number, inputs in enumerate(MERGES):
                assert_distinct(
                    store.get_or_merge(
                        live, inputs[0][0], number,
                        lambda inputs=inputs: build_merged_match_list(live, inputs, codec),
                    )
                )

        check()
        for batch in batches:
            live.apply_updates(
                [
                    GraphUpdate.add(s, p, o, float(score)) if add else GraphUpdate.remove(s, p, o)
                    for add, (s, p, o, score) in batch
                ]
            )
            check()
        live.compact()
        check()
