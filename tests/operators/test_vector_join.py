"""Unit tests for the whole-list block join and the merged relaxation list."""

from __future__ import annotations

import numpy as np
import pytest

from held_lists import merge_rows

from repro.baselines.naive import NaiveEngine
from repro.errors import ExecutionError
from repro.kg.columnar import ColumnarGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, var
from repro.operators.block import (
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


def tp(type_name: str, v: str = "s") -> TriplePattern:
    return TriplePattern(var(v), "rdf:type", type_name)


@pytest.fixture
def columnar(music_graph) -> ColumnarGraph:
    return ColumnarGraph.from_graph(music_graph)


def encoded(columnar, pattern) -> EncodedMatchList:
    return build_encoded_match_list(columnar, pattern, TermCodec(columnar.store))


def oracle_answers(columnar, patterns, k):
    """The oracle's answers to *patterns* joined in order, unrelaxed."""
    query = TriplePatternQuery(patterns)
    return NaiveEngine(columnar, RuleSet()).query(query, k).answers


def answer_rows(answers):
    return [(a.bindings, a.score) for a in answers]


def block_answers(columnar, patterns, k, projection=None):
    context = ExecutionContext()
    codec = TermCodec(columnar.store)
    rows = encoded(columnar, patterns[0])
    for pattern in patterns[1:]:
        rows = join_lists(rows, encoded(columnar, pattern), context, codec.n_ids)
    return top_k_cut(rows, k, codec, projection)


class TestJoinLists:
    @pytest.mark.parametrize("k", [1, 3, 100])
    @pytest.mark.parametrize(
        "types",
        [
            ("singer", "lyricist"),
            ("lyricist", "singer"),  # the shorter list on the right
            ("singer", "vocalist"),  # partners score below non-partners
            ("musician", "guitarist"),
        ],
        ids="-".join,
    )
    def test_matches_oracle_join(self, columnar, types, k):
        patterns = tuple(tp(name) for name in types)
        actual = answer_rows(block_answers(columnar, patterns, k))
        assert actual == answer_rows(oracle_answers(columnar, patterns, k))

    def test_three_way_join(self, columnar):
        patterns = (tp("singer"), tp("lyricist"), tp("guitarist"))
        actual = answer_rows(block_answers(columnar, patterns, 10))
        assert actual == answer_rows(oracle_answers(columnar, patterns, 10))

    def test_variable_disjoint_cartesian_product(self, columnar):
        patterns = (tp("singer", "a"), tp("writer", "b"))
        actual = answer_rows(block_answers(columnar, patterns, 100))
        assert actual == answer_rows(oracle_answers(columnar, patterns, 100))
        assert len(actual) == 4 * 3

    def test_empty_side_yields_nothing(self, columnar):
        context = ExecutionContext()
        singer, missing = encoded(columnar, tp("singer")), encoded(columnar, tp("missing"))
        for left, right in ((singer, missing), (missing, singer)):
            joined = join_lists(left, right, context, columnar.store.n_terms)
            assert len(joined) == 0 and joined.var_names == ("s",)
            assert [column.dtype for column in joined.columns] == [np.int64]
        assert context.joins_attempted == 2 * len(singer)
        assert context.joins_matched == context.answer_objects_created == 0

    def test_output_binds_left_then_right_only_variables(self, columnar):
        context, n_ids = ExecutionContext(), columnar.store.n_terms
        singer = encoded(columnar, tp("singer"))
        typed = encoded(columnar, TriplePattern(var("o"), "rdf:type", var("s")))
        assert join_lists(singer, typed, context, n_ids).var_names == ("s", "o")
        assert join_lists(typed, singer, context, n_ids).var_names == ("o", "s")


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
        take the joint-group-id probe and still match the oracle."""
        knows, likes = self._patterns()
        expected = answer_rows(oracle_answers(edge_graph, (knows, likes), 100))

        codec = TermCodec(edge_graph.store)
        rows = join_lists(
            build_encoded_match_list(edge_graph, knows, codec),
            build_encoded_match_list(edge_graph, likes, codec),
            ExecutionContext(),
            _UnpackableCodec(edge_graph.store).n_ids,
        )
        assert answer_rows(top_k_cut(rows, 100, codec)) == expected

    def test_merge_fallback_dedups_exactly(self, edge_graph):
        knows, likes = self._patterns()
        codec = _UnpackableCodec(edge_graph.store)
        inputs = [(knows, 1.0), (likes, 0.5)]
        merged = build_merged_match_list(edge_graph, inputs, codec)
        expected = NaiveEngine(edge_graph, None).rows(inputs)
        assert decoded_rows(merged, edge_graph) == expected


def decoded_rows(rows: EncodedMatchList, graph) -> list[tuple[tuple[str, ...], float]]:
    """``(binding, score)`` per row of *rows*, the oracle's row shape."""
    terms = graph.store.term_list()
    return [
        (tuple(terms[int(column[row])] for column in rows.columns), float(rows.scores[row]))
        for row in range(len(rows))
    ]


class TestMergedMatchList:
    def test_matches_oracle_merge(self, columnar):
        specs = [(tp("singer"), 1.0), (tp("vocalist"), 0.8), (tp("musician"), 0.5)]
        merged = build_merged_match_list(columnar, specs, TermCodec(columnar.store))
        actual = decoded_rows(merged, columnar)
        reference = NaiveEngine(columnar, None).rows(specs)
        assert merge_rows(actual, len(specs)) == merge_rows(reference, len(specs))

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
