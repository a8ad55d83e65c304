"""Unit tests for the block HRJN rank join and the merged relaxation list."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.kg.columnar import ColumnarGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, var
from repro.operators.block import (
    BlockTopK,
    TermCodec,
    build_encoded_match_list,
    build_merged_match_list,
)
from repro.operators.incremental_merge import IncrementalMerge, WeightedInput
from repro.operators.memory import ExecutionContext
from repro.operators.rank_join import RankJoin
from repro.operators.scan import SortedScan
from repro.operators.topk import TopK
from repro.operators.vector_join import VectorRankJoin
from repro.operators.vector_scan import VectorScan


def tp(type_name: str, v: str = "s") -> TriplePattern:
    return TriplePattern(var(v), "rdf:type", type_name)


@pytest.fixture
def columnar(music_graph) -> ColumnarGraph:
    return ColumnarGraph.from_graph(music_graph)


def vector_scan(columnar, pattern, index, context, weight=1.0, block_size=1024):
    encoded = build_encoded_match_list(columnar, pattern, TermCodec(columnar.store))
    return VectorScan(encoded, index, context, weight=weight, block_size=block_size)


def tuple_answers(columnar, patterns, k, projection=None):
    context = ExecutionContext()
    tree = SortedScan(columnar, patterns[0], 0, context)
    for index, pattern in enumerate(patterns[1:], start=1):
        tree = RankJoin(tree, SortedScan(columnar, pattern, index, context), context)
    return TopK(tree, k, projection).run()


def block_answers(columnar, patterns, k, projection=None, block_size=1024):
    context = ExecutionContext()
    codec = TermCodec(columnar.store)
    tree = vector_scan(columnar, patterns[0], 0, context, block_size=block_size)
    for index, pattern in enumerate(patterns[1:], start=1):
        tree = VectorRankJoin(
            tree,
            vector_scan(columnar, pattern, index, context, block_size=block_size),
            context,
            codec,
            block_size=block_size,
        )
    return BlockTopK(tree, k, codec, projection).run()


class TestVectorRankJoin:
    @pytest.mark.parametrize("block_size", [1, 2, 1024])
    @pytest.mark.parametrize("k", [1, 3, 100])
    def test_matches_tuple_join(self, columnar, block_size, k):
        patterns = (tp("singer"), tp("lyricist"))
        expected = tuple_answers(columnar, patterns, k)
        actual = block_answers(columnar, patterns, k, block_size=block_size)
        assert actual == expected
        assert [a.score for a in actual] == [a.score for a in expected]

    def test_three_way_join(self, columnar):
        patterns = (tp("singer"), tp("lyricist"), tp("guitarist"))
        expected = tuple_answers(columnar, patterns, 10)
        actual = block_answers(columnar, patterns, 10)
        assert actual == expected
        assert [a.score for a in actual] == [a.score for a in expected]

    def test_variable_disjoint_cartesian_product(self, columnar):
        patterns = (tp("singer", "a"), tp("writer", "b"))
        expected = tuple_answers(columnar, patterns, 100)
        actual = block_answers(columnar, patterns, 100)
        assert actual == expected
        assert [a.score for a in actual] == [a.score for a in expected]
        assert len(actual) == 4 * 3

    def test_empty_side_yields_nothing(self, columnar):
        context = ExecutionContext()
        codec = TermCodec(columnar.store)
        join = VectorRankJoin(
            vector_scan(columnar, tp("singer"), 0, context),
            vector_scan(columnar, tp("missing"), 1, context),
            context,
            codec,
        )
        assert join.next_block() is None
        assert join.upper_bound() == float("-inf")

    def test_blocks_globally_score_sorted(self, columnar):
        context = ExecutionContext()
        codec = TermCodec(columnar.store)
        join = VectorRankJoin(
            vector_scan(columnar, tp("singer"), 0, context, block_size=1),
            vector_scan(columnar, tp("musician"), 1, context, block_size=1),
            context,
            codec,
            block_size=2,
        )
        scores: list[float] = []
        for block in join:
            scores.extend(block.scores.tolist())
        assert scores == sorted(scores, reverse=True)

    def test_upper_bound_never_below_future_emissions(self, columnar):
        """The operator contract: every future row's score <= the bound."""
        context = ExecutionContext()
        codec = TermCodec(columnar.store)
        join = VectorRankJoin(
            vector_scan(columnar, tp("singer"), 0, context, block_size=1),
            vector_scan(columnar, tp("lyricist"), 1, context, block_size=1),
            context,
            codec,
            block_size=1,
        )
        bound = join.upper_bound()
        for block in join:
            assert float(block.scores[0]) <= bound + 1e-12
            bound = join.upper_bound()
        assert join.upper_bound() == float("-inf")

    def test_overlapping_pattern_coverage_rejected(self, columnar):
        context = ExecutionContext()
        codec = TermCodec(columnar.store)
        with pytest.raises(ExecutionError):
            VectorRankJoin(
                vector_scan(columnar, tp("singer"), 0, context),
                vector_scan(columnar, tp("lyricist"), 0, context),
                context,
                codec,
            )

    def test_join_variables_exposed(self, columnar):
        context = ExecutionContext()
        codec = TermCodec(columnar.store)
        join = VectorRankJoin(
            vector_scan(columnar, tp("singer"), 0, context),
            vector_scan(columnar, tp("lyricist"), 1, context),
            context,
            codec,
        )
        assert join.join_variables == ("s",)
        assert join.var_names == ("s",)


class _UnpackableCodec(TermCodec):
    """A codec whose id domain is too large for base-n key packing,
    forcing the exact ``joint_group_ids`` fallback paths."""

    @property
    def n_ids(self) -> int:
        return 2**40


class TestUnpackableKeyFallback:
    @pytest.fixture
    def edge_graph(self) -> ColumnarGraph:
        kg = KnowledgeGraph()
        rows = [
            ("a", "knows", "x", 9.0),
            ("a", "knows", "y", 7.0),
            ("b", "knows", "x", 5.0),
            ("a", "likes", "x", 8.0),
            ("b", "likes", "x", 6.0),
            ("a", "likes", "y", 2.0),
        ]
        for s, p, o, score in rows:
            kg.add(s, p, o, score=score)
        return ColumnarGraph.from_graph(kg)

    def _patterns(self):
        return (
            TriplePattern(var("s"), "knows", var("o")),
            TriplePattern(var("s"), "likes", var("o")),
        )

    def test_join_fallback_matches_packed_path(self, edge_graph):
        """Two shared variables + an unpackable id domain: the join must
        take the joint-group-id probe and still match the tuple engine."""
        knows, likes = self._patterns()
        expected = tuple_answers(edge_graph, (knows, likes), 100)

        context = ExecutionContext()
        codec = _UnpackableCodec(edge_graph.store)
        join = VectorRankJoin(
            VectorScan(
                build_encoded_match_list(edge_graph, knows, TermCodec(edge_graph.store)),
                0, context, block_size=2,
            ),
            VectorScan(
                build_encoded_match_list(edge_graph, likes, TermCodec(edge_graph.store)),
                1, context, block_size=2,
            ),
            context,
            codec,
            block_size=2,
        )
        actual = BlockTopK(join, 100, codec).run()
        assert actual == expected
        assert [a.score for a in actual] == [a.score for a in expected]

    def test_merge_fallback_dedups_exactly(self, edge_graph):
        knows, likes = self._patterns()
        context = ExecutionContext()
        codec = _UnpackableCodec(edge_graph.store)
        merge = merged_scan(edge_graph, [(knows, 1.0), (likes, 0.5)], codec, context)
        reference = IncrementalMerge(
            [
                WeightedInput(
                    SortedScan(edge_graph, knows, 0, ExecutionContext(), 1.0), 1.0
                ),
                WeightedInput(
                    SortedScan(edge_graph, likes, 0, ExecutionContext(), 0.5), 0.5
                ),
            ],
            ExecutionContext(),
        )
        expected = sorted(
            ((item.identity(), item.score) for item in reference),
            key=lambda r: (-r[1], r[0]),
        )
        actual = []
        terms = edge_graph.store.term_list()
        for block in merge:
            for row in range(len(block)):
                identity = tuple(
                    sorted(
                        (name, terms[int(block.column(name)[row])])
                        for name in block.var_names
                    )
                )
                actual.append((identity, float(block.scores[row])))
        assert sorted(actual, key=lambda r: (-r[1], r[0])) == expected


def merged_scan(graph, specs, codec, context, block_size=1024):
    merged = build_merged_match_list(graph, specs, codec)
    return VectorScan(merged, 0, context, block_size=block_size, whole_list_pulled=True)


class TestMergedMatchList:
    def test_matches_tuple_merge(self, columnar):
        specs = [(tp("singer"), 1.0), (tp("vocalist"), 0.8), (tp("musician"), 0.5)]
        context = ExecutionContext()
        codec = TermCodec(columnar.store)
        merge = merged_scan(columnar, specs, codec, context, block_size=2)
        reference = IncrementalMerge(
            [
                WeightedInput(
                    SortedScan(columnar, pattern, 0, ExecutionContext(), weight),
                    weight,
                )
                for pattern, weight in specs
            ],
            ExecutionContext(),
        )
        expected = [(item.identity(), item.score) for item in reference]
        actual: list[tuple[tuple, float]] = []
        terms = columnar.store.term_list()
        for block in merge:
            for row in range(len(block)):
                binding = (("s", terms[int(block.column("s")[row])]),)
                actual.append((binding, float(block.scores[row])))
        assert sorted(actual, key=lambda r: (-r[1], r[0])) == sorted(
            expected, key=lambda r: (-r[1], r[0])
        )
        assert len(actual) == len(expected)
        # A merge reads every input row before its first block leaves.
        assert context.tuples_pulled == len(actual)

    def test_dedup_keeps_maximum_score(self, columnar):
        # shakira appears as singer (1.0 weighted) and vocalist (0.8
        # weighted); the merged list must keep only the higher score.
        specs = [(tp("singer"), 1.0), (tp("vocalist"), 0.8)]
        merged = build_merged_match_list(columnar, specs, TermCodec(columnar.store))
        terms = columnar.store.term_list()
        names = [terms[int(i)] for i in merged.columns[0]]
        assert len(set(names)) == len(names)
        assert merged.scores[names.index("shakira")] == 1.0  # not 0.8 * vocalist

    def test_mismatched_variables_rejected(self, columnar):
        specs = [(tp("singer", "s"), 1.0), (tp("vocalist", "other"), 0.8)]
        with pytest.raises(ExecutionError):
            build_merged_match_list(columnar, specs, TermCodec(columnar.store))
