"""Differential and lifecycle tests for the key-ordered block rank join.

The block join probes in join-key order, takes a whole stored list's
order from the list itself and answers distinct-key probes with one
search.  None of that may show in the answers: the suite drives generated
lists through :class:`VectorRankJoin` at block sizes that make prefix
sides, whole-list sides and mixed sides, against the tuple
:class:`RankJoin` and the exhaustive :class:`NaiveEngine`, and checks the
match pairs of every single probe against a nested loop.
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
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, var
from repro.operators import block
from repro.operators.block import (
    DEFAULT_BLOCK_SIZE,
    BlockTopK,
    EncodedMatchList,
    TermCodec,
    build_encoded_match_list,
)
from repro.operators.memory import ExecutionContext
from repro.operators.rank_join import RankJoin
from repro.operators.scan import SortedScan
from repro.operators.topk import TopK
from repro.operators.vector_join import VectorRankJoin
from repro.operators.vector_scan import VectorScan
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
    """``(shape, n_patterns, triples, unpackable, block-size choice)``."""
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
    return shape, n_patterns, triples, unpackable, draw(st.integers(0, 5))


def build_graph(triples) -> ColumnarGraph:
    kg = KnowledgeGraph()
    for s, p, o, score in triples:
        kg.add(f"e{s}", f"p{p}", f"o{o}", score=float(score))
    # A predicate never used keeps the dictionary non-empty for empty cases.
    kg.add("e-other", "p-other", "o-other", score=1.0)
    return ColumnarGraph.from_graph(kg)


def block_size_for(choice: int, lists) -> int:
    longest = max([len(encoded) for encoded in lists] + [2])
    return (1, 2, 7, longest - 1, longest, DEFAULT_BLOCK_SIZE)[choice]


def tuple_answers(graph, patterns):
    context = ExecutionContext()
    tree = SortedScan(graph, patterns[0], 0, context)
    for index, pattern in enumerate(patterns[1:], start=1):
        tree = RankJoin(tree, SortedScan(graph, pattern, index, context), context)
    return TopK(tree, ALL).run()


def block_tree(graph, patterns, codec, block_size, context):
    lists = [build_encoded_match_list(graph, p, TermCodec(graph.store)) for p in patterns]
    tree = VectorScan(lists[0], 0, context, block_size=block_size)
    for index, encoded in enumerate(lists[1:], start=1):
        tree = VectorRankJoin(
            tree,
            VectorScan(encoded, index, context, block_size=block_size),
            context,
            codec,
            block_size=block_size,
        )
    return tree


def block_rows(block) -> list[tuple[dict[str, int], float]]:
    return [
        (
            {name: int(block.column(name)[row]) for name in block.var_names},
            float(block.scores[row]),
        )
        for row in range(len(block))
    ]


class ProbeAudit:
    """Wraps ``VectorRankJoin._probe``: every probe's joined rows and
    counter moves must equal a nested loop over the block and the rows
    the other side has taken in so far."""

    def __init__(self) -> None:
        self.probes = 0
        self._taken: dict[int, list] = {}  # id(side) -> rows inserted so far
        self._joined: list = []
        self._probe = VectorRankJoin._probe
        self._buffer_insert = VectorRankJoin._buffer_insert

    def buffer_insert(self, join, columns, scores):
        self._joined.extend(
            (tuple(int(column[row]) for column in columns), float(scores[row]))
            for row in range(len(scores))
        )
        return self._buffer_insert(join, columns, scores)

    def probe(self, join, block, own, other):
        context = join._context
        matched_before = context.joins_matched
        objects_before = context.factory.objects_created
        outer, self._joined = self._joined, []
        result = self._probe(join, block, own, other)
        joined, self._joined = self._joined, outer

        rows = block_rows(block)
        expected, matched = [], 0
        for bindings, score in rows:
            partners = [
                (other_bindings, other_score)
                for other_bindings, other_score in self._taken.get(id(other), ())
                if all(other_bindings[v] == bindings[v] for v in join.join_variables)
            ]
            matched += bool(partners)
            for other_bindings, other_score in partners:
                merged = {**bindings, **other_bindings}
                expected.append(
                    (tuple(merged[name] for name in join.var_names), score + other_score)
                )
        assert sorted(joined) == sorted(expected)
        assert context.joins_matched - matched_before == matched
        assert context.factory.objects_created - objects_before == len(expected)
        self._taken.setdefault(id(own), []).extend(rows)
        self.probes += 1
        return result


class TestJoinDifferential:
    @settings(max_examples=150, deadline=None)
    @given(case=join_cases())
    def test_block_join_equals_tuple_join_and_nested_loop(self, case):
        shape, n_patterns, triples, unpackable, size_choice = case
        graph = build_graph(triples)
        patterns = SHAPES[shape][:n_patterns]
        codec = (UnpackableCodec if unpackable else TermCodec)(graph.store)
        lists = [build_encoded_match_list(graph, p, TermCodec(graph.store)) for p in patterns]
        block_size = block_size_for(size_choice, lists)

        audit = ProbeAudit()
        context = ExecutionContext()
        with mock.patch.object(
            VectorRankJoin, "_probe", lambda *args: audit.probe(*args)
        ), mock.patch.object(
            VectorRankJoin, "_buffer_insert", lambda *args: audit.buffer_insert(*args)
        ):
            actual = BlockTopK(
                block_tree(graph, patterns, codec, block_size, context), ALL, codec
            ).run()

        expected = tuple_answers(graph, patterns)
        assert actual == expected
        assert [a.score for a in actual] == [a.score for a in expected]
        naive = NaiveEngine(graph, RuleSet()).query(TriplePatternQuery(patterns), ALL)
        assert list(naive.answers) == expected
        assert [a.score for a in naive.answers] == [a.score for a in expected]
        if all(len(encoded) for encoded in lists):
            assert audit.probes  # the audit saw the join work

    @pytest.mark.parametrize("block_size", [1, 2, 7, 11, 12, DEFAULT_BLOCK_SIZE])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_counters_do_not_depend_on_block_size(self, shape, block_size):
        """Drained to the end, a join matches the same pairs whatever the
        pull granularity: 12-row lists as prefix (1, 2, 7, 11) and whole
        (12, default) sides.  (``joins_matched`` counts probing rows that
        found a partner *so far*, which the granularity does decide; the
        probe audit above pins it per probe.)"""
        triples = [
            (s, p, o, 1 + (s + p + o) % 3)
            for p in range(3)
            for s in range(6)
            for o in ((0,) if shape == "distinct_key" else (0, 1))
        ]
        graph = build_graph(triples)
        patterns = SHAPES[shape]
        codec = TermCodec(graph.store)

        def counters(size):
            context = ExecutionContext()
            BlockTopK(block_tree(graph, patterns, codec, size, context), ALL, codec).run()
            return (
                context.joins_attempted,
                context.answer_objects_created,
                context.tuples_pulled,
            )

        assert counters(block_size) == counters(3)


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
        assert "_buffer_insert" in callers  # the patch sees the join
        return callers.count("sorted_key_order")

    def test_built_once_and_dropped_with_the_version(
        self, live, music_rules, singer_lyricist_query
    ):
        engine = SpecQPEngine(live, music_rules, executor="block")
        reference = SpecQPEngine(live, music_rules, executor="tuple")
        query = singer_lyricist_query

        def run():
            assert (
                engine.query_exact(query, k=10).answers
                == reference.query_exact(query, k=10).answers
            )

        assert self._leaf_argsorts(run) == 2  # one per joined list
        assert self._leaf_argsorts(run) == 0  # both orders are held
        live.apply_updates([GraphUpdate.add("newbie", "rdf:type", "singer", 200.0)])
        live.apply_updates([GraphUpdate.add("newbie", "rdf:type", "lyricist", 200.0)])
        # New version, new lists: the old orders went with the old lists.
        assert self._leaf_argsorts(run) == 2
        assert engine.query_exact(query, k=1).answers[0].bindings == (("s", "newbie"),)

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
    @pytest.mark.parametrize("block_size", [2, DEFAULT_BLOCK_SIZE])
    def test_writing_through_a_block_raises(self, music_graph, block_size):
        """A block's columns are the stored list's arrays, or views of
        them: an operator that writes to one must fail, not corrupt the
        list every later query reads."""
        store = ColumnarGraph.from_graph(music_graph).store
        pattern = TriplePattern(var("s"), "rdf:type", "singer")
        encoded = build_encoded_match_list(ColumnarGraph(store), pattern, TermCodec(store))
        before = encoded.columns[0].copy(), encoded.scores.copy()
        block = VectorScan(
            encoded, 0, ExecutionContext(), block_size=block_size
        ).next_block()
        assert np.shares_memory(block.column("s"), encoded.columns[0])
        with pytest.raises(ValueError, match="read-only"):
            block.column("s")[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            encoded.scores[0] = 0.5
        keys, order, _ = encoded.key_order(("s",), store.n_terms)
        for array in (keys, order):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert np.array_equal(encoded.columns[0], before[0])
        assert np.array_equal(encoded.scores, before[1])

    def test_whole_list_block_is_the_list_itself(self, music_graph):
        store = ColumnarGraph.from_graph(music_graph).store
        pattern = TriplePattern(var("s"), "rdf:type", "singer")
        encoded = build_encoded_match_list(ColumnarGraph(store), pattern, TermCodec(store))
        block = VectorScan(encoded, 0, ExecutionContext()).next_block()
        assert block.columns is encoded.columns and block.scores is encoded.scores
        assert block.source is encoded
        weighted = VectorScan(encoded, 0, ExecutionContext(), weight=0.5).next_block()
        assert weighted.source is encoded
        assert weighted.scores.tolist() == [0.5 * s for s in encoded.scores.tolist()]
        prefix = VectorScan(encoded, 0, ExecutionContext(), block_size=3).next_block()
        assert prefix.source is None and len(prefix) == 3
