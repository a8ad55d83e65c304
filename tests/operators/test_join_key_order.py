"""Differential and lifecycle tests for the key-ordered whole-list join.

The block join probes in join-key order, takes a stored list's order
from the list itself and answers distinct-key probes with one search.
None of that may show in the answers: the suite folds generated lists
through :func:`join_lists` — stored lists and join outputs as the left
side — against the oracle (:class:`NaiveEngine`), and checks the match
pairs and counter moves of every single join against a nested loop.
"""

from __future__ import annotations

import sys
import threading
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
from repro.operators import block
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
    # ?a alone is the key and no list repeats it: the one-search probe.
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
    # No shared variable between the first two: a ranked cartesian product.
    "cartesian": (
        TriplePattern(var("a"), "p0", var("b")),
        TriplePattern(var("c"), "p1", var("d")),
        TriplePattern(var("a"), "p2", var("d")),
    ),
}


class UnpackableCodec(TermCodec):
    """An id domain too large to pack two columns into one int64."""

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
    unpackable = shape in ("two_variable_key", "cartesian") and draw(st.booleans())
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
        length = 6 if shape == "distinct_key" else 12
        assert [len(encoded) for encoded in lists] == [length] * n_patterns

        context = ExecutionContext()
        rows = lists[0]
        for encoded in lists[1:]:
            rows = audited_join(rows, encoded, context, codec.n_ids)
        actual = top_k_cut(rows, ALL, codec)
        assert answer_rows(actual) == answer_rows(oracle_answers(graph, patterns))


class TestStoredKeyOrder:
    @pytest.fixture
    def live(self, music_graph) -> LiveGraph:
        return LiveGraph(ColumnarGraph.from_graph(music_graph))

    @staticmethod
    def _leaf_argsorts(run) -> int:
        """Key sorts (``stable_argsort``) *run* makes to put rows in key order."""
        callers: list[str] = []

        def spying(sort):
            def counting(*args, **kwargs):
                callers.append(sys._getframe(1).f_code.co_name)
                return sort(*args, **kwargs)

            return counting

        with mock.patch.object(np, "argsort", spying(np.argsort)), mock.patch.object(
            block, "stable_argsort", spying(block.stable_argsort)
        ):
            run()
        # The queries project every variable: the cut sorts nothing.
        assert "top_k_cut" not in callers
        return callers.count("sorted_key_order")

    def test_built_once_and_dropped_with_the_version(
        self, live, music_rules, singer_lyricist_query
    ):
        engine = SpecQPEngine(live, music_rules, executor="block")
        oracle = NaiveEngine(live, music_rules)
        query = singer_lyricist_query

        def run():
            assert answer_rows(engine.query_exact(query, k=10).answers) == answer_rows(
                oracle.evaluate(QueryPlan.exact(query), 10)
            )

        assert self._leaf_argsorts(run) == 2  # one per joined list
        assert self._leaf_argsorts(run) == 0  # both orders are held
        live.apply_updates([GraphUpdate.add("newbie", "rdf:type", "singer", 200.0)])
        live.apply_updates([GraphUpdate.add("newbie", "rdf:type", "lyricist", 200.0)])
        # New version, new lists: the old orders went with the old lists.
        assert self._leaf_argsorts(run) == 2
        assert engine.query_exact(query, k=1).answers[0].bindings == (("s", "newbie"),)

    def test_a_join_output_is_never_re_sorted(self, live, music_rules, three_pattern_query):
        """Both joins of a three-pattern star key on ``?s``: the second
        reads the first's output in the key order it came out in."""
        engine = SpecQPEngine(live, music_rules, executor="block")
        oracle = NaiveEngine(live, music_rules)
        original = EncodedMatchList.key_order
        read_from_joins: list[bool] = []

        def recording(self, join_vars, n_ids):
            read_from_joins.append(self.inputs is None)
            return original(self, join_vars, n_ids)

        def run():
            with mock.patch.object(EncodedMatchList, "key_order", recording):
                served = engine.query_exact(three_pattern_query, k=10).answers
                assert answer_rows(served) == answer_rows(
                    oracle.evaluate(QueryPlan.exact(three_pattern_query), 10)
                )

        assert self._leaf_argsorts(run) == 3  # one per stored list, none for the output
        assert read_from_joins.count(True) == 1  # ... which the second join read
        assert self._leaf_argsorts(run) == 0
        assert read_from_joins.count(True) == 2

    def test_wide_key_is_repacked_when_the_id_domain_grows(self):
        """A two-column key is packed base ``n_ids``; a side-table term
        interned between two queries must not leave a stale order."""
        encoded = EncodedMatchList(
            ("a", "b"),
            (np.array([2, 0, 1, 0]), np.array([0, 1, 1, 0])),
            np.array([1.0, 0.9, 0.8, 0.7]),
            1.0,
        )
        for n_ids in (3, 7):
            keys, order, distinct = encoded.key_order(("a", "b"), n_ids)
            assert keys.tolist() == [0, 1, n_ids + 1, 2 * n_ids]
            assert order.tolist() == [3, 1, 2, 0] and distinct
        narrow = encoded.key_order(("a",), 3)
        assert narrow is encoded.key_order(("a",), 7)
        assert narrow[0].tolist() == [0, 0, 1, 2] and not narrow[2]
        assert narrow[1].tolist() == [1, 3, 2, 0]  # equal keys in row order
        assert encoded.key_order(("a", "b"), 2**40) is None

    def test_first_build_survives_racing_threads(self):
        rng = np.random.default_rng(7)
        n = 50_000
        encoded = EncodedMatchList(
            ("s", "o"),
            (rng.integers(0, 5_000, n), rng.integers(0, 50, n)),
            np.sort(rng.random(n))[::-1].copy(),
            1.0,
        )
        expected = {
            ("s",): np.argsort(encoded.columns[0], kind="stable"),
            ("s", "o"): np.argsort(
                encoded.columns[0] * 5_000 + encoded.columns[1], kind="stable"
            ),
        }
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results: list = [None] * n_threads
        errors: list[BaseException] = []

        def worker(slot: int) -> None:
            try:
                barrier.wait(timeout=30)
                results[slot] = [
                    (join_vars, encoded.key_order(join_vars, 5_000))
                    for join_vars in (("s",), ("s", "o")) * 3
                ]
            except BaseException as error:  # surfaced in the main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(slot,)) for slot in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        for result in results:
            for join_vars, (keys, order, distinct) in result:
                assert order.dtype == np.int32 and not order.flags.writeable
                assert not keys.flags.writeable and not distinct
                assert np.array_equal(order, expected[join_vars])
                assert (keys[:-1] <= keys[1:]).all()
        # After the race one order per key stands and is handed to everyone.
        assert encoded.key_order(("s",), 5_000) is encoded.key_order(("s",), 5_000)


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
        keys, order, _ = singer.key_order(("s",), store.n_terms)
        for array in (keys, order):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert np.array_equal(singer.columns[0], before[0])
        assert np.array_equal(singer.scores, before[1])
