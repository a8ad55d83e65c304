"""Differential tests for the star fold against the pairwise fold.

:func:`fold_star` joins lists that all bind one variable alone through
one table over the id domain; the pairwise fold joins the same lists
left-deep through :func:`join_lists`.  They must agree on everything a
reader of the result sees: the columns, the score bits, the row order
and all four counters.  :func:`fold_lists`, which
:meth:`QueryPlan.evaluate_block` calls, takes the star fold only for
such a star over a domain addressable against all its rows, and the
pairwise fold for every other plan.
"""

from __future__ import annotations

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveEngine
from repro.core.engine import SpecQPEngine
from repro.core.plan import QueryPlan
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, var
from repro.operators import vector_join
from repro.operators.block import EncodedMatchList, TermCodec, build_encoded_match_list
from repro.operators.memory import ExecutionContext
from repro.operators.vector_join import fold_star, join_lists
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RuleSet


def single(ids, scores) -> EncodedMatchList:
    """A list binding ``?s`` alone to *ids*."""
    return EncodedMatchList(
        ("s",),
        (np.array(ids, dtype=np.int64),),
        np.array(scores, dtype=np.float64),
    )


def pairwise(lists, n_ids):
    context = ExecutionContext()
    joined = functools.reduce(
        lambda left, right: join_lists(left, right, context, n_ids), lists
    )
    return joined, context.snapshot()


def folded(lists, n_ids):
    context = ExecutionContext()
    return fold_star(lists, context, n_ids), context.snapshot()


def assert_identical(actual, expected):
    """Same variables, columns in the same row order, score bits and
    counters."""
    (rows, counters), (want, want_counters) = actual, expected
    assert rows.var_names == want.var_names
    assert [c.dtype for c in rows.columns] == [c.dtype for c in want.columns]
    assert [c.tolist() for c in rows.columns] == [c.tolist() for c in want.columns]
    assert rows.scores.dtype == want.scores.dtype
    assert rows.scores.tobytes() == want.scores.tobytes()
    assert counters == want_counters


#: Named folds over an 8-id domain: ``[(ids, scores), ...]`` per list.
CASES = {
    "two": [([0, 3, 5, 7], [0.9, 0.8, 0.4, 0.1]), ([7, 5, 2], [1.0, 0.5, 0.5])],
    "three": [
        ([1, 2, 3, 4, 5], [1.0, 0.9, 0.8, 0.7, 0.6]),
        ([5, 4, 3, 6], [0.7, 0.6, 0.5, 0.4]),
        ([3, 0, 5], [0.3, 0.2, 0.1]),
    ],
    "four": [
        ([6, 1, 2, 3, 4], [1.0, 0.9, 0.8, 0.7, 0.6]),
        ([4, 3, 2, 1], [0.7, 0.6, 0.5, 0.4]),
        ([1, 2, 4, 7], [0.9, 0.3, 0.2, 0.1]),
        ([2, 4, 1], [0.5, 0.5, 0.25]),
    ],
    # An id of the first list missing from the second comes back in the
    # third and fourth: it must stay out.
    "missed-then-back": [
        ([0, 1, 2], [1.0, 0.5, 0.25]),
        ([1, 2], [1.0, 0.5]),
        ([0, 1, 2], [1.0, 0.5, 0.25]),
        ([2, 0, 1], [1.0, 0.5, 0.25]),
    ],
    "empty-first": [([], []), ([1, 2], [1.0, 0.5]), ([2], [0.5])],
    "empty-intermediate": [
        ([1, 2, 3], [1.0, 0.5, 0.25]),
        ([], []),
        ([2, 1], [0.5, 0.25]),
        ([1], [0.5]),
    ],
    # No id of the first two lists is shared: the tree empties before
    # the later lists, whose rows still count as attempts.
    "emptied-tree": [
        ([1, 2], [1.0, 0.5]),
        ([3, 4], [1.0, 0.5]),
        ([1, 3], [0.5, 0.25]),
        ([2], [0.5]),
    ],
    "empty-last": [([1, 2], [1.0, 0.5]), ([2, 1], [1.0, 0.5]), ([], [])],
}


class TestFoldEqualsPairwise:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_named_folds(self, name):
        lists = [single(ids, scores) for ids, scores in CASES[name]]
        assert_identical(folded(lists, 8), pairwise(lists, 8))

    @pytest.mark.parametrize("n_lists", [3, 4])
    def test_scores_add_in_plan_order(self, n_lists):
        """Over (0.1, 0.2, 0.3) float addition is not associative: the
        fold must add left-deep in plan order, ``((s1 + s2) + s3)``."""
        values = [0.1, 0.2, 0.3, 0.4][:n_lists]
        assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
        lists = [single([5, 0], [value, value / 2]) for value in values]
        result = folded(lists, 8)
        assert result[0].scores[0] == functools.reduce(lambda a, b: a + b, values)
        assert_identical(result, pairwise(lists, 8))

    def test_side_table_ids_above_the_stores_terms(self, music_graph):
        """Ids a live write interned past the store's dictionary are in
        the table: it spans the codec's whole id domain."""
        store = ColumnarGraph.from_graph(music_graph).store
        codec = TermCodec(store)
        side = [codec.encode(f"fresh-{i}") for i in range(3)]
        assert min(side) >= store.n_terms and codec.n_ids == store.n_terms + 3
        lists = [
            single([side[2], 1, side[0], side[1]], [1.0, 0.8, 0.6, 0.4]),
            single([side[0], side[2], 1], [0.9, 0.7, 0.5]),
            single([side[2], side[0]], [0.3, 0.3]),
        ]
        result = folded(lists, codec.n_ids)
        assert result[0].columns[0].tolist() == [side[2], side[0]]
        assert_identical(result, pairwise(lists, codec.n_ids))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_drawn_folds(self, data):
        n_ids = data.draw(st.integers(1, 12))
        lists = [
            single(
                ids,
                data.draw(
                    st.lists(
                        st.sampled_from((0.1, 0.2, 0.3, 0.7, 1.0)),
                        min_size=len(ids),
                        max_size=len(ids),
                    )
                ),
            )
            for ids in data.draw(
                st.lists(
                    st.lists(st.integers(0, n_ids - 1), unique=True),
                    min_size=2,
                    max_size=4,
                )
            )
        ]
        assert_identical(folded(lists, n_ids), pairwise(lists, n_ids))


class WideCodec(TermCodec):
    """A codec whose id domain is set by the test."""

    width = 0

    @property
    def n_ids(self) -> int:
        return self.width


def evaluate(plan, graph, codec):
    """:meth:`QueryPlan.evaluate_block` over freshly built lists, with
    the calls it made to the fold and the pairwise join."""
    context = ExecutionContext()
    with mock.patch.object(
        vector_join, "fold_star", wraps=fold_star
    ) as fold, mock.patch.object(vector_join, "join_lists", wraps=join_lists) as join:
        rows = plan.evaluate_block(
            graph,
            RuleSet(),
            context,
            codec,
            encoded_lists=lambda pattern: build_encoded_match_list(graph, pattern, codec),
            merged_lists=lambda pattern, merge: merge(),
        )
    return rows, context.snapshot(), fold.call_count, join.call_count


def tp(type_name: str, v: str = "s") -> TriplePattern:
    return TriplePattern(var(v), "rdf:type", type_name)


class TestWhichFoldAPlanTakes:
    @pytest.mark.parametrize(
        "slack, folds, joins", [(0, 1, 0), (1, 0, 2)], ids=["addressed", "too-wide"]
    )
    def test_a_domain_wider_than_64_ids_a_row_folds_pairwise(
        self, music_graph, slack, folds, joins
    ):
        graph = ColumnarGraph.from_graph(music_graph)
        plan = QueryPlan.exact(
            TriplePatternQuery((tp("singer"), tp("lyricist"), tp("musician")))
        )
        codec = WideCodec(graph.store)
        total = sum(
            len(build_encoded_match_list(graph, p, codec)) for p in plan.query.patterns
        )
        codec.width = 64 * total + slack
        rows, counters, fold_calls, join_calls = evaluate(plan, graph, codec)
        assert (fold_calls, join_calls) == (folds, joins)
        lists = [build_encoded_match_list(graph, p, codec) for p in plan.query.patterns]
        want, want_counters = pairwise(lists, codec.width)
        pulled = sum(map(len, lists))
        want_counters["tuples_pulled"] += pulled
        want_counters["answer_objects_created"] += pulled
        assert_identical((rows, counters), (want, want_counters))

    def test_a_plan_binding_two_variables_folds_pairwise(self, music_graph):
        graph = ColumnarGraph.from_graph(music_graph)
        plan = QueryPlan.exact(
            TriplePatternQuery((tp("singer"), TriplePattern(var("s"), "rdf:type", var("t"))))
        )
        _, _, fold_calls, join_calls = evaluate(plan, graph, TermCodec(graph.store))
        assert (fold_calls, join_calls) == (0, 1)

    def test_a_live_star_over_side_ids_answers_what_the_oracle_answers(
        self, music_graph, music_rules
    ):
        fresh = [
            ("newcomer", "rdf:type", "singer", 120.0),
            ("newcomer", "rdf:type", "lyricist", 110.0),
            ("newcomer", "rdf:type", "guitarist", 10.0),
            ("stranger", "rdf:type", "lyricist", 5.0),
        ]
        live = LiveGraph(ColumnarGraph.from_graph(music_graph))
        live.apply_updates([GraphUpdate.add(*row) for row in fresh])
        assert live.base.store.term_id("newcomer") is None
        rebuilt = KnowledgeGraph()
        for triple in music_graph.triples():
            rebuilt.add_triple(triple)
        for s, p, o, score in fresh:
            rebuilt.add(s, p, o, score=score)
        query = TriplePatternQuery((tp("singer"), tp("lyricist"), tp("guitarist")))
        engine = SpecQPEngine(live, music_rules)
        oracle = NaiveEngine(rebuilt, music_rules)
        for plan in (QueryPlan.exact(query), QueryPlan.trinit(query)):
            with mock.patch.object(vector_join, "join_lists", wraps=join_lists) as join:
                served = engine.executor.execute(plan, 10, executor="block").answers
            assert join.call_count == 0
            assert ("s", "newcomer") in {pair for a in served for pair in a.bindings}
            assert [(a.bindings, a.score) for a in served] == [
                (a.bindings, a.score) for a in oracle.evaluate(plan, 10)
            ]
