"""Unit tests for the block substrate: codec, encoded lists, leaf lists, sink."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveEngine
from repro.core.plan import QueryPlan
from repro.errors import ExecutionError
from repro.kg.columnar import ColumnarGraph, ColumnarStore
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, Variable, var
from repro.operators.block import (
    EncodedListStore,
    EncodedMatchList,
    TermCodec,
    addressable,
    best_rows,
    build_encoded_match_list,
    joint_group_ids,
    pack_columns,
    top_k_cut,
)
from repro.operators.memory import ExecutionContext
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RuleSet


def oracle_cut(graph, pattern, k, projection=None):
    """The oracle's top-k of the one-pattern query *pattern* projected
    on the names *projection* (every variable: ``None``)."""
    chosen = None if projection is None else [var(name) for name in projection]
    query = TriplePatternQuery((pattern,), projection=chosen)
    return NaiveEngine(graph, RuleSet()).query(query, k).answers


def tp(type_name: str, v: str = "s") -> TriplePattern:
    return TriplePattern(var(v), "rdf:type", type_name)


@pytest.fixture
def graph() -> KnowledgeGraph:
    kg = KnowledgeGraph()
    for i, score in enumerate((10.0, 8.0, 6.0, 4.0, 2.0)):
        kg.add(f"e{i}", "rdf:type", "t", score=score)
    kg.add("e0", "knows", "e1", score=3.0)
    return kg


@pytest.fixture
def columnar(graph) -> ColumnarGraph:
    return ColumnarGraph.from_graph(graph)


class TestTermCodec:
    def test_store_terms_keep_store_ids(self, columnar):
        codec = TermCodec(columnar.store)
        term = columnar.store.term_list()[0]
        assert codec.encode(term) == 0
        assert codec.decode(0) == term
        assert codec.n_ids == columnar.store.n_terms

    def test_side_interning_roundtrip(self, columnar):
        codec = TermCodec(columnar.store)
        base = codec.n_base
        assert codec.encode("never-seen") == base
        assert codec.encode("another") == base + 1
        assert codec.encode("never-seen") == base  # stable
        assert codec.decode(base) == "never-seen"
        assert codec.decode(base + 1) == "another"
        assert codec.n_ids == base + 2

    def test_storeless_codec_interns_everything(self):
        codec = TermCodec(ColumnarStore.from_triples([]))
        assert codec.encode("a") == 0
        assert codec.encode("b") == 1
        assert codec.decode(0) == "a"

    def test_injective(self, columnar):
        codec = TermCodec(columnar.store)
        terms = columnar.store.term_list() + ["x1", "x2"]
        ids = [codec.encode(t) for t in terms]
        assert len(set(ids)) == len(terms)

    def test_concurrent_interning_stays_injective(self, columnar):
        # One codec is shared by every worker thread of a runner, and
        # side-table interning happens outside the store lock: two
        # threads racing to intern must never hand one id to two terms.
        import threading

        codec = TermCodec(columnar.store)
        terms = [f"term-{i}" for i in range(500)]
        barrier = threading.Barrier(4)
        results: list[dict[str, int]] = [{} for _ in range(4)]

        def intern(slot: int) -> None:
            barrier.wait()
            # Each thread walks the terms in a different order so the
            # first-toucher of any given term varies.
            ordered = terms[slot:] + terms[:slot]
            results[slot] = {t: codec.encode(t) for t in ordered}

        threads = [
            threading.Thread(target=intern, args=(slot,)) for slot in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reference = results[0]
        assert min(reference.values()) == codec.n_base  # all side ids
        assert len(set(reference.values())) == len(terms)  # injective
        for other in results[1:]:
            assert other == reference  # and identical across threads
        assert all(codec.decode(i) == t for t, i in reference.items())


class TestPackColumns:
    def test_single_column_passthrough(self):
        column = np.array([3, 1, 2], dtype=np.int64)
        packed = pack_columns([column], 10)
        assert packed.tolist() == [3, 1, 2]

    def test_two_columns_collision_free(self):
        a = np.array([0, 1, 1], dtype=np.int64)
        b = np.array([1, 0, 1], dtype=np.int64)
        packed = pack_columns([a, b], 2)
        assert len(set(packed.tolist())) == 3

    def test_zero_columns_pack_to_constant(self):
        packed = pack_columns([], 10, n_rows=4)
        assert packed.tolist() == [0, 0, 0, 0]

    def test_zero_columns_require_n_rows(self):
        with pytest.raises(ExecutionError):
            pack_columns([], 10)

    def test_overflow_returns_none(self):
        a = np.array([0], dtype=np.int64)
        assert pack_columns([a, a, a], 3_000_000) is None

    def test_equal_rows_pack_equal(self):
        a = np.array([5, 5], dtype=np.int64)
        b = np.array([7, 7], dtype=np.int64)
        packed = pack_columns([a, b], 100)
        assert packed[0] == packed[1]


class TestJointGroupIds:
    def test_consistent_across_row_sets(self):
        a = (np.array([1, 2], dtype=np.int64), np.array([3, 4], dtype=np.int64))
        b = (np.array([2, 1, 1], dtype=np.int64), np.array([4, 3, 9], dtype=np.int64))
        ga, gb = joint_group_ids(a, b)
        assert ga[0] == gb[1]  # (1, 3) in both sets
        assert ga[1] == gb[0]  # (2, 4) in both sets
        assert gb[2] not in (ga[0], ga[1])  # (1, 9) matches nothing


def brute_best_rows(packed: np.ndarray, scores: np.ndarray) -> list[int]:
    """Each key's best row by a dict: the highest score, on a tie the
    lowest index."""
    best: dict[int, int] = {}
    for row, (key, score) in enumerate(zip(packed.tolist(), scores.tolist())):
        if key not in best or score > scores[best[key]]:
            best[key] = row
    return sorted(best.values())


#: Merge inputs: each a list of distinct keys with scores from a few
#: values, so keys repeat across inputs and tie across them.
merge_inputs = st.lists(
    st.lists(
        st.tuples(st.integers(0, 11), st.sampled_from([0.0, 0.25, 0.5, 1.0])),
        max_size=12,
        unique_by=lambda row: row[0],
    ),
    max_size=4,
)


class TestBestRows:
    @settings(max_examples=200, deadline=None)
    @given(inputs=merge_inputs, low=st.sampled_from([0, -5, 8_413, 2**40, -(2**62)]))
    def test_table_fallback_and_brute_force_agree(self, inputs, low):
        rows = [row for rows in inputs for row in rows]
        packed = np.array([low + key for key, _ in rows], dtype=np.int64)
        scores = np.array([score for _, score in rows], dtype=np.float64)
        table = best_rows(packed, scores)  # keys within 12 ids: a table
        with mock.patch("repro.operators.block.addressable", return_value=False):
            with mock.patch.object(np, "unique", wraps=np.unique) as spy:
                fallback = best_rows(packed, scores)
        assert spy.called == bool(len(rows))
        assert table.tolist() == fallback.tolist() == brute_best_rows(packed, scores)

    def test_a_tie_keeps_the_first_input_and_a_higher_score_wins(self):
        # Key 7 ties across inputs (row 0 wins), key 3 scores higher in
        # the second input (row 4 wins), key 9 stands alone.
        packed = np.array([7, 3, 9, 7, 3], dtype=np.int64)
        scores = np.array([0.5, 0.25, 1.0, 0.5, 0.75])
        assert best_rows(packed, scores).tolist() == [0, 2, 4]

    def test_empty_and_single_key(self):
        empty = np.empty(0, dtype=np.int64)
        assert best_rows(empty, np.empty(0)).tolist() == []
        assert best_rows(np.array([5], dtype=np.int64), np.array([0.3])).tolist() == [0]

    @pytest.mark.parametrize("n", [2, 7, 300])
    def test_a_table_addresses_at_most_64_entries_a_row(self, n):
        """The one rule of direct addressing: a domain of 64 entries a row
        is a table, one more entry and the keys are sorted."""
        assert addressable(64 * n, n) and not addressable(64 * n + 1, n)
        scores = np.linspace(0.0, 1.0, n)
        for span, sorted_ in ((64 * n, False), (64 * n + 1, True)):
            packed = np.array([span - 1] + [0] * (n - 1), dtype=np.int64)
            with mock.patch.object(np, "unique", wraps=np.unique) as spy:
                keep = best_rows(packed, scores)
            assert spy.called == sorted_
            assert keep.tolist() == [0, n - 1]

    @pytest.mark.parametrize("n", [1, 7, 5_000])
    def test_all_equal_and_all_distinct_keys(self, n):
        scores = np.ones(n)
        same = np.full(n, 42, dtype=np.int64)
        assert best_rows(same, scores).tolist() == [0]
        for distinct in (
            np.arange(n, dtype=np.int64)[::-1].copy(),  # dense: table
            np.arange(n, dtype=np.int64) * 10**9,  # sparse: np.unique
        ):
            assert best_rows(distinct, scores).tolist() == list(range(n))


class TestEncodedMatchList:
    @pytest.mark.parametrize(
        "pattern", [tp("t"), TriplePattern(var("s"), "knows", var("o"))], ids=str
    )
    def test_sliced_list_is_the_oracle_list(self, columnar, pattern):
        encoded = build_encoded_match_list(columnar, pattern, TermCodec(columnar.store))
        assert encoded.var_names == pattern.variable_names
        terms = columnar.store.term_list()
        decoded = [tuple(terms[i] for i in ids) for ids in zip(*encoded.columns)]
        oracle = NaiveEngine(columnar, None)
        rows = oracle.rows([(pattern, 1.0)])
        assert list(zip(decoded, encoded.scores.tolist())) == rows
        assert encoded.maxima[0] == oracle.matches(pattern)[0].score

    def test_empty_pattern(self, columnar):
        encoded = build_encoded_match_list(columnar, tp("missing"), TermCodec(columnar.store))
        assert len(encoded) == 0
        assert encoded.maxima[0] == 0.0

    def test_repeated_variable_keeps_diagonal(self):
        kg = KnowledgeGraph()
        kg.add("a", "p", "a", score=5.0)
        kg.add("a", "p", "b", score=4.0)
        frozen = ColumnarGraph.from_graph(kg)
        pattern = TriplePattern(var("x"), "p", var("x"))
        encoded = build_encoded_match_list(frozen, pattern, TermCodec(frozen.store))
        assert len(encoded) == 1
        assert encoded.var_names == ("x",)

    def test_repeated_variable_list_is_not_served_its_open_twins(self):
        """Regression (ROADMAP 1(a)): (?x, p, ?x) and (?x, p, ?y) share
        an index key but not a match list — whichever is built first,
        each is served its own, so the encoded list needs no re-filter."""
        kg = KnowledgeGraph()
        for s, p, o, score in [
            ("a", "p", "a", 4.0), ("a", "p", "b", 3.0), ("b", "p", "b", 5.0),
        ]:
            kg.add(s, p, o, score=score)
        open_pattern = TriplePattern(var("x"), "p", var("y"))
        diagonal = TriplePattern(var("x"), "p", var("x"))
        assert len(kg.match_list(open_pattern)) == 3  # built and cached first
        codec = TermCodec(kg.column_store())
        encoded = build_encoded_match_list(kg, diagonal, codec)
        decoded = [codec.decode(i) for i in encoded.columns[0].tolist()]
        assert decoded == ["b", "a"]  # only (b,p,b) and (a,p,a)
        assert encoded.scores.tolist() == [1.0, 0.8]
        assert len(kg.match_list(open_pattern)) == 3

    def test_build_helper_prefers_store(self, columnar):
        codec = TermCodec(columnar.store)
        encoded = build_encoded_match_list(columnar, tp("t"), codec)
        assert len(encoded) == 5

    def test_build_helper_reads_an_object_graphs_column_store(self, graph):
        codec = TermCodec(graph.column_store())
        encoded = build_encoded_match_list(graph, tp("t"), codec)
        assert len(encoded) == 5
        decoded = [codec.decode(i) for i in encoded.columns[0].tolist()]
        assert decoded == ["e0", "e1", "e2", "e3", "e4"]


class TestEncodedListStore:
    def test_hit_miss_accounting(self, columnar):
        store = EncodedListStore(capacity=4)
        pattern = tp("t")
        first = store.get_or_build(columnar, pattern)
        again = store.get_or_build(columnar, pattern)
        assert again is first
        stats = store.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_bound_to_one_graph(self, columnar, graph):
        store = EncodedListStore()
        store.get_or_build(columnar, tp("t"))
        other = ColumnarGraph.from_graph(graph, name="other")
        with pytest.raises(ExecutionError):
            store.get_or_build(other, tp("t"))
        store.release(columnar)
        assert len(store.get_or_build(other, tp("t"))) == 5  # rebound

    def test_capacity_bound_evicts_lru(self, columnar):
        store = EncodedListStore(capacity=1)
        store.get_or_build(columnar, tp("t"))
        store.get_or_build(columnar, TriplePattern(var("s"), "knows", var("o")))
        assert len(store) == 1
        assert store.stats()["evictions"] == 1

    def test_capacity_validated(self):
        with pytest.raises(ExecutionError):
            EncodedListStore(capacity=0)

    def test_expect_codec_rejects_mid_query_mutation(self, graph):
        # A query captures the codec once and decodes with it at the
        # sink; a leaf built after the graph moved on must fail loudly
        # instead of encoding ids the sink cannot decode.
        store = EncodedListStore()
        codec = store.codec(graph)
        assert len(store.get_or_build(graph, tp("t"), expect_codec=codec)) == 5
        graph.add("e9", "rdf:type", "t", score=1.0)  # version bump
        with pytest.raises(ExecutionError, match="graph changed"):
            store.get_or_build(graph, tp("t"), expect_codec=codec)
        # Without the pin the store refreshes and serves the new version.
        assert len(store.get_or_build(graph, tp("t"))) == 6


def evaluate(graph, pattern, context):
    """*pattern*'s one-pattern plan through the block executor's evaluation."""
    codec = TermCodec(graph.store)
    return QueryPlan.exact(TriplePatternQuery((pattern,))).evaluate_block(
        graph,
        RuleSet(),
        context,
        codec,
        encoded_lists=lambda p: build_encoded_match_list(graph, p, codec),
        merged_lists=lambda p, merge: merge(),
    )


class TestLeafLists:
    def test_list_is_the_sorted_scan_stream(self, columnar):
        pattern = tp("t")
        context = ExecutionContext()
        rows = evaluate(columnar, pattern, context)
        reference = NaiveEngine(columnar, None).rows([(pattern, 1.0)])
        assert rows.scores.tolist() == [score for _, score in reference]
        assert context.tuples_pulled == context.answer_objects_created == 5

    def test_empty_list_evaluates_to_no_rows(self, columnar):
        context = ExecutionContext()
        assert len(evaluate(columnar, tp("missing"), context)) == 0
        assert context.tuples_pulled == context.answer_objects_created == 0


class TestTopKCut:
    def _rows(self, columnar, pattern=None):
        pattern = pattern or tp("t")
        return build_encoded_match_list(columnar, pattern, TermCodec(columnar.store))

    def test_collects_k(self, columnar):
        codec = TermCodec(columnar.store)
        answers = top_k_cut(self._rows(columnar), 3, codec)
        assert [a.as_dict()["s"] for a in answers] == ["e0", "e1", "e2"]

    def test_k_larger_than_result_count(self, columnar):
        codec = TermCodec(columnar.store)
        answers = top_k_cut(self._rows(columnar), 100, codec)
        assert len(answers) == 5

    def test_empty_source(self, columnar):
        codec = TermCodec(columnar.store)
        answers = top_k_cut(self._rows(columnar, tp("missing")), 10, codec)
        assert answers == []

    def test_k_must_be_positive(self, columnar):
        codec = TermCodec(columnar.store)
        with pytest.raises(ExecutionError):
            top_k_cut(self._rows(columnar), 0, codec)

    def test_boundary_ties_resolved_canonically(self):
        kg = KnowledgeGraph()
        # Three equal-scored entities straddle the k=2 boundary.
        for name in ("zeta", "alpha", "mid"):
            kg.add(name, "rdf:type", "t", score=5.0)
        kg.add("top", "rdf:type", "t", score=9.0)
        frozen = ColumnarGraph.from_graph(kg)
        codec = TermCodec(frozen.store)
        answers = top_k_cut(self._rows(frozen), 2, codec)
        assert [a.as_dict()["s"] for a in answers] == ["top", "alpha"]

    def test_projection_dedups_on_projected_vars(self, columnar):
        pattern = TriplePattern(var("s"), "rdf:type", var("o"))
        codec = TermCodec(columnar.store)
        answers = top_k_cut(self._rows(columnar, pattern), 10, codec, projection=("o",))
        assert [a.as_dict() for a in answers] == [{"o": "t"}]
        assert answers[0].score == 1.0

    @pytest.mark.parametrize("projection", [None, ("s",), ("o",)], ids=["all", "s", "o"])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_shuffled_rows_cut_like_the_oracle(self, k, projection):
        """Rows in no score order, with tie runs at every depth, cut to
        the oracle's answers."""
        kg = KnowledgeGraph()
        for s in range(4):
            for o in range(3):
                kg.add(f"e{s}", "p", f"o{o}", score=float(1 + (s * o + s) % 3))
        frozen = ColumnarGraph.from_graph(kg)
        pattern = TriplePattern(var("s"), "p", var("o"))
        codec = TermCodec(frozen.store)
        rows = build_encoded_match_list(frozen, pattern, codec)
        order = np.random.default_rng(k).permutation(len(rows))
        shuffled = EncodedMatchList(
            rows.var_names,
            tuple(column[order] for column in rows.columns),
            rows.scores[order],
        )
        expected = oracle_cut(frozen, pattern, k, projection)
        actual = top_k_cut(shuffled, k, codec, projection)
        assert actual == list(expected)
        assert [a.score for a in actual] == [a.score for a in expected]

    @pytest.mark.parametrize("projection", [None, ("o",)], ids=["all", "o"])
    def test_a_cut_over_a_small_id_domain_sorts_nothing(self, columnar, projection):
        """Each projected binding's best row comes from a table and the
        cut from ``np.partition``: no ``argsort`` on the read path."""
        pattern = TriplePattern(var("s"), "rdf:type", var("o"))
        rows = self._rows(columnar, pattern)
        codec = TermCodec(columnar.store)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
            answers = top_k_cut(rows, 2, codec, projection)
        assert spy.call_count == 0
        assert answers == list(oracle_cut(columnar, pattern, 2, projection))

    def test_unsorted_rows_keep_each_maximum_and_drain_the_tie_run(self, columnar):
        """A join's output is in no score order: a projected binding's
        lower row may come first, and the k-th score's tie run may reach
        past k with the canonical winner last in row order."""
        codec = TermCodec(columnar.store)
        rows = [
            ("e0", "e1", 0.2),  # e0's low row first ...
            ("e3", "e1", 0.5),
            ("e0", "e2", 0.9),  # ... its maximum later
            ("e2", "e1", 0.5),
            ("e1", "e2", 0.5),  # the tie run's canonical first, in row order last
            ("e1", "e1", 0.3),
        ]
        rows = EncodedMatchList(
            ("s", "o"),
            tuple(
                np.array([codec.encode(row[at]) for row in rows], dtype=np.int64)
                for at in (0, 1)
            ),
            np.array([row[2] for row in rows]),
        )
        answers = top_k_cut(rows, 2, codec, projection=("s",))
        assert [(a.as_dict()["s"], a.score) for a in answers] == [("e0", 0.9), ("e1", 0.5)]
        with mock.patch("repro.operators.block.addressable", return_value=False):
            assert top_k_cut(rows, 2, codec, projection=("s",)) == answers
