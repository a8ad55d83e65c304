"""Differential tests for both ways the whole-list join finds partners.

The block join addresses a table over the id domain when the key is one
variable and one side binds nothing else, and otherwise searches the
left side's keys in key order.  Neither may show in the answers: the
suite folds generated lists through :func:`join_lists` — stored lists
and join outputs as either side — against the oracle
(:class:`NaiveEngine`), and checks the match pairs and counter moves of
every single join against a nested loop.  Every shape runs under a
:class:`TermCodec`, whose small id domain is addressed, and under an
:class:`UnpackableCodec`, whose domain is too wide to address or to pack
two columns in, so it is sorted.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveEngine
from repro.core.engine import SpecQPEngine
from repro.core.plan import QueryPlan
from repro.kg.columnar import ColumnarGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, var
from repro.operators import vector_join
from repro.operators.block import (
    EncodedMatchList,
    TermCodec,
    build_encoded_match_list,
    top_k_cut,
)
from repro.operators.memory import ExecutionContext
from repro.operators.vector_join import join_lists
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RuleSet

ALL = 10**6  # a k no generated join reaches: every answer is drained

#: Per shape, the patterns over predicates p0, p1, p2 (subject pool e*,
#: object pool o*).  The third pattern joins the first two's output, so a
#: join-output side meets a stored list.
SHAPES = {
    # ?a alone is the key and no list repeats it.
    "distinct_key": (
        TriplePattern(var("a"), "p0", "o0"),
        TriplePattern(var("a"), "p1", "o0"),
        TriplePattern(var("a"), "p2", "o0"),
    ),
    # ?a is the key and repeats on every side.
    "duplicate_key": (
        TriplePattern(var("a"), "p0", var("b")),
        TriplePattern(var("a"), "p1", var("c")),
        TriplePattern(var("a"), "p2", var("d")),
    ),
    # (?a, ?b) is the key.
    "two_variable_key": (
        TriplePattern(var("a"), "p0", var("b")),
        TriplePattern(var("a"), "p1", var("b")),
        TriplePattern(var("a"), "p2", var("b")),
    ),
    # ?a is the key; a list binding only ?a meets one that repeats it,
    # first as the left side, then as the right, where a right row can
    # match several left rows: more output rows than matched right rows.
    "key_meets_repeated": (
        TriplePattern(var("a"), "p0", "o0"),
        TriplePattern(var("a"), "p1", var("b")),
        TriplePattern(var("a"), "p2", "o0"),
    ),
    # The same the other way round: a repeated key meets a list binding
    # only ?a, whose output then meets another repeated key.
    "repeated_meets_key": (
        TriplePattern(var("a"), "p0", var("b")),
        TriplePattern(var("a"), "p1", "o0"),
        TriplePattern(var("a"), "p2", var("c")),
    ),
    # No shared variable between the first two: a ranked cartesian product.
    "cartesian": (
        TriplePattern(var("a"), "p0", var("b")),
        TriplePattern(var("c"), "p1", var("d")),
        TriplePattern(var("a"), "p2", var("d")),
    ),
}


class UnpackableCodec(TermCodec):
    """An id domain too large to address or to pack two columns into one
    int64."""

    @property
    def n_ids(self) -> int:
        return 2**40


@st.composite
def join_cases(draw):
    """``(shape, n_patterns, triples, unpackable)``."""
    shape = draw(st.sampled_from(sorted(SHAPES)))
    n_patterns = draw(st.sampled_from((2, 2, 3)))
    # Few distinct scores: long tie runs inside lists and join results.
    top_score = draw(st.sampled_from((2, 3, 50)))
    triples = draw(
        st.lists(
            st.tuples(
                st.integers(0, 5),  # subject
                st.integers(0, n_patterns - 1),  # predicate
                st.integers(0, 0 if shape == "distinct_key" else 3),  # object
                st.integers(1, top_score),
            ),
            max_size=40,
            unique_by=lambda row: row[:3],
        )
    )
    unpackable = draw(st.booleans())
    return shape, n_patterns, triples, unpackable


def build_graph(triples) -> ColumnarGraph:
    kg = KnowledgeGraph()
    for s, p, o, score in triples:
        kg.add(f"e{s}", f"p{p}", f"o{o}", score=float(score))
    # A predicate never used keeps the dictionary non-empty for empty cases.
    kg.add("e-other", "p-other", "o-other", score=1.0)
    return ColumnarGraph.from_graph(kg)


def answer_rows(answers):
    return [(a.bindings, a.score) for a in answers]


def oracle_answers(graph, patterns):
    """The oracle's answers to *patterns* joined in order, unrelaxed: the
    left-deep fold the tests make."""
    return NaiveEngine(graph, RuleSet()).query(TriplePatternQuery(patterns), ALL).answers


def rows_of(encoded: EncodedMatchList) -> list[tuple[dict[str, int], float]]:
    return [
        (
            {
                name: int(column[row])
                for name, column in zip(encoded.var_names, encoded.columns)
            },
            float(encoded.scores[row]),
        )
        for row in range(len(encoded))
    ]


def audited_join(left, right, context, n_ids):
    """:func:`join_lists`, its joined rows and counter moves checked
    against a nested loop over the two inputs."""
    before = context.snapshot()
    joined = join_lists(left, right, context, n_ids)
    join_vars = set(left.var_names) & set(right.var_names)
    expected, matched = [], 0
    left_rows = rows_of(left)
    for bindings, score in rows_of(right):
        partners = [
            (other, other_score)
            for other, other_score in left_rows
            if all(other[v] == bindings[v] for v in join_vars)
        ]
        matched += bool(partners)
        for other, other_score in partners:
            merged = {**other, **bindings}
            expected.append(
                (tuple(merged[name] for name in joined.var_names), other_score + score)
            )
    actual = [
        (tuple(bindings[name] for name in joined.var_names), score)
        for bindings, score in rows_of(joined)
    ]
    assert sorted(actual) == sorted(expected)
    after = context.snapshot()
    assert after["joins_attempted"] - before["joins_attempted"] == len(left) + len(right)
    assert after["joins_matched"] - before["joins_matched"] == matched
    assert (
        after["answer_objects_created"] - before["answer_objects_created"] == len(expected)
    )
    return joined


class TestJoinDifferential:
    @settings(max_examples=150, deadline=None)
    @given(case=join_cases())
    def test_block_join_equals_oracle_and_nested_loop(self, case):
        shape, n_patterns, triples, unpackable = case
        graph = build_graph(triples)
        patterns = SHAPES[shape][:n_patterns]
        codec = (UnpackableCodec if unpackable else TermCodec)(graph.store)
        lists = [build_encoded_match_list(graph, p, TermCodec(graph.store)) for p in patterns]

        context = ExecutionContext()
        rows = lists[0]
        for encoded in lists[1:]:
            rows = audited_join(rows, encoded, context, codec.n_ids)
        actual = top_k_cut(rows, ALL, codec)
        assert answer_rows(actual) == answer_rows(oracle_answers(graph, patterns))

    @pytest.mark.parametrize("unpackable", [False, True], ids=["packed", "unpackable"])
    @pytest.mark.parametrize("n_patterns", [2, 3])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_tie_run_folds_answer_what_the_oracle_answers(
        self, shape, n_patterns, unpackable
    ):
        """Over fixed lists with tie runs, whichever key probe each join
        takes, the fold answers what the oracle answers, and each join
        counts its rows as the nested-loop audit does."""
        triples = [
            (s, p, o, 1 + (s + p + o) % 3)
            for p in range(3)
            for s in range(6)
            for o in ((0,) if shape == "distinct_key" else (0, 1))
        ]
        graph = build_graph(triples)
        patterns = SHAPES[shape][:n_patterns]
        codec = (UnpackableCodec if unpackable else TermCodec)(graph.store)
        lists = [build_encoded_match_list(graph, p, TermCodec(graph.store)) for p in patterns]
        # Six subjects, and two objects for an object variable.
        assert [len(encoded) for encoded in lists] == [
            6 * len(p.variable_names) for p in patterns
        ]

        context = ExecutionContext()
        rows = lists[0]
        for encoded in lists[1:]:
            rows = audited_join(rows, encoded, context, codec.n_ids)
        actual = top_k_cut(rows, ALL, codec)
        assert answer_rows(actual) == answer_rows(oracle_answers(graph, patterns))


def key_sorts(run) -> int:
    """How many key sorts the joins *run* makes take."""
    with mock.patch.object(
        vector_join, "_sorted_pairs", wraps=vector_join._sorted_pairs
    ) as spy:
        run()
    return spy.call_count


def single(name: str, ids, scores) -> EncodedMatchList:
    """A list binding *name* alone to *ids*."""
    return EncodedMatchList(
        (name,), (np.array(ids, dtype=np.int64),), np.array(scores, dtype=np.float64)
    )


class TestWhichPathAJoinTakes:
    @pytest.mark.parametrize("projection", [None, ("t",)], ids=["all", "projected"])
    def test_a_chain_query_sorts_no_key(self, music_graph, music_rules, projection):
        """A chain's join meets a list binding only ``?s`` over a small id
        domain: both the exact and the relaxed plan reach
        :func:`join_lists`, address every partner, and answer what the
        oracle answers."""
        query = TriplePatternQuery(
            (
                TriplePattern(var("s"), "rdf:type", "singer"),
                TriplePattern(var("s"), "rdf:type", var("t")),
            ),
            projection=None if projection is None else [var(name) for name in projection],
        )
        engine = SpecQPEngine(music_graph, music_rules)
        oracle = NaiveEngine(music_graph, music_rules)
        relaxed = engine.plan(query, 10).plan
        assert relaxed.singletons
        for plan in (QueryPlan.exact(query), relaxed):
            served: list = []

            def run(plan=plan, served=served):
                served.extend(engine.executor.execute(plan, 10, executor="block").answers)

            with mock.patch.object(vector_join, "join_lists", wraps=join_lists) as spy:
                assert key_sorts(run) == 0
            assert spy.call_count == 1
            assert answer_rows(served) == answer_rows(oracle.evaluate(plan, 10))

    @pytest.mark.parametrize("query", ["singer_lyricist_query", "three_pattern_query"])
    def test_a_star_plan_makes_no_pairwise_join(
        self, music_graph, music_rules, query, request
    ):
        """A star whose lists all bind ``?s`` alone folds through one id
        table: neither the exact nor PLANGEN's relaxed plan calls
        :func:`join_lists`, and both answer what the oracle answers."""
        query = request.getfixturevalue(query)
        engine = SpecQPEngine(music_graph, music_rules)
        oracle = NaiveEngine(music_graph, music_rules)
        relaxed = engine.plan(query, 10).plan
        assert relaxed.singletons
        for plan in (QueryPlan.exact(query), relaxed):
            with mock.patch.object(vector_join, "join_lists", wraps=join_lists) as spy:
                served = engine.executor.execute(plan, 10, executor="block").answers
            assert spy.call_count == 0
            assert answer_rows(served) == answer_rows(oracle.evaluate(plan, 10))

    @pytest.mark.parametrize("slack, sorts", [(0, 0), (1, 1)], ids=["addressed", "sorted"])
    def test_a_domain_wider_than_64_ids_a_row_is_sorted(self, slack, sorts):
        left = single("a", [4, 0, 2], [0.9, 0.5, 0.1])
        right = EncodedMatchList(
            ("a", "b"), (np.array([2, 2, 3, 4]), np.array([7, 8, 9, 7])), np.ones(4)
        )
        n_ids = 64 * (len(left) + len(right)) + slack
        context = ExecutionContext()
        joined: list = []
        assert key_sorts(
            lambda: joined.append(audited_join(left, right, context, n_ids))
        ) == sorts
        assert sorted(zip(*map(np.ndarray.tolist, joined[0].columns))) == [
            (2, 7), (2, 8), (4, 7)
        ]

    def test_joins_matched_counts_right_rows_with_a_partner(self):
        """A right row binding only the key may meet several left rows:
        it is one match however many output rows it makes."""
        left = EncodedMatchList(
            ("a", "b"), (np.array([1, 1, 1, 2]), np.array([5, 6, 7, 5])), np.ones(4)
        )
        right = single("a", [3, 1], [1.0, 0.5])
        context = ExecutionContext()
        joined = join_lists(left, right, context, 8)
        assert sorted(joined.columns[1].tolist()) == [5, 6, 7]
        assert joined.columns[0].tolist() == [1, 1, 1]
        assert context.joins_matched == 1
        assert context.factory.objects_created == 3
        assert context.joins_attempted == 6


class TestStoredListsAreReadOnly:
    def test_writing_to_a_joined_list_raises(self, music_graph):
        """A join reads the stored lists' own arrays: an operator that
        writes to one must fail, not corrupt the list every later query
        reads."""
        store = ColumnarGraph.from_graph(music_graph).store
        codec = TermCodec(store)
        singer, lyricist = (
            build_encoded_match_list(
                ColumnarGraph(store), TriplePattern(var("s"), "rdf:type", kind), codec
            )
            for kind in ("singer", "lyricist")
        )
        before = singer.columns[0].copy(), singer.scores.copy()
        joined = join_lists(singer, lyricist, ExecutionContext(), store.n_terms)
        assert len(joined)
        for array in (singer.columns[0], singer.scores):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert np.array_equal(singer.columns[0], before[0])
        assert np.array_equal(singer.scores, before[1])
