"""Unit tests for the sharded columnar substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import KnowledgeGraphError
from repro.kg.columnar import ColumnarGraph, ColumnarStore
from repro.kg.pattern import TriplePattern, Variable
from repro.kg.sharding import (
    ShardedGraph,
    merge_match_lists,
    partition_rows,
    partition_store,
    subject_shard_ids,
)
from repro.kg.triple import Triple


def small_store() -> ColumnarStore:
    triples = [
        Triple("a", "p", "x", 5.0),
        Triple("a", "p", "y", 3.0),
        Triple("b", "p", "x", 4.0),
        Triple("b", "q", "y", 4.0),
        Triple("c", "p", "z", 1.0),
        Triple("c", "q", "x", 2.0),
        Triple("d", "q", "z", 9.0),
    ]
    return ColumnarStore.from_triples(triples)


VAR_S = Variable("s")
VAR_O = Variable("o")


class TestPartitioning:
    @pytest.mark.parametrize("strategy", ["hash-subject", "score-range"])
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5, 11])
    def test_rows_are_a_partition(self, strategy, n_shards):
        store = small_store()
        rows = partition_rows(store, n_shards, strategy)
        assert len(rows) == n_shards
        combined = np.sort(np.concatenate(rows))
        assert combined.tolist() == list(range(store.n_triples))

    def test_hash_subject_colocates_subjects(self):
        store = small_store()
        shards = partition_store(store, 3, "hash-subject")
        for shard in shards:
            decoded = {t.subject for t in shard.iter_triples()}
            for other in shards:
                if other is shard:
                    continue
                assert decoded.isdisjoint(
                    {t.subject for t in other.iter_triples()}
                )

    def test_hash_subject_is_stable_across_stores(self):
        """The assignment depends on the term string, not on term ids."""
        store = small_store()
        # Same triples interned in a different order -> different ids.
        reordered = ColumnarStore.from_triples(
            sorted(store.iter_triples(), key=lambda t: (-t.score, t.spo))
        )
        by_subject = {}
        for shard_id, s in zip(
            subject_shard_ids(store, 4)[:], store.subjects.tolist()
        ):
            by_subject[store.term_list()[s]] = shard_id
        for shard_id, s in zip(
            subject_shard_ids(reordered, 4)[:], reordered.subjects.tolist()
        ):
            assert by_subject[reordered.term_list()[s]] == shard_id

    def test_score_range_orders_shards(self):
        store = small_store()
        shards = partition_store(store, 3, "score-range")
        for hot, cold in zip(shards, shards[1:]):
            if hot.n_triples and cold.n_triples:
                assert hot.scores.min() >= cold.scores.max()

    def test_shards_share_term_dictionary(self):
        store = small_store()
        shards = partition_store(store, 2, "hash-subject")
        for shard in shards:
            assert shard.terms is store.terms
            assert shard.term_list() is store.term_list()

    def test_more_shards_than_rows(self):
        store = small_store()
        shards = partition_store(store, 20, "score-range")
        assert sum(s.n_triples for s in shards) == store.n_triples
        assert any(s.n_triples == 0 for s in shards)

    def test_empty_store(self):
        store = ColumnarStore.from_triples([])
        shards = partition_store(store, 3, "hash-subject")
        assert all(s.n_triples == 0 for s in shards)

    def test_invalid_arguments(self):
        store = small_store()
        with pytest.raises(KnowledgeGraphError):
            partition_rows(store, 0, "hash-subject")
        with pytest.raises(KnowledgeGraphError):
            partition_rows(store, 2, "round-robin")
        with pytest.raises(KnowledgeGraphError):
            ShardedGraph(store, 2, strategy="bogus")


class TestMergeMatchLists:
    @pytest.mark.parametrize("strategy", ["hash-subject", "score-range"])
    @pytest.mark.parametrize("n_shards", [2, 3, 7])
    @pytest.mark.parametrize(
        "pattern",
        [
            TriplePattern(VAR_S, "p", VAR_O),
            TriplePattern(VAR_S, "q", VAR_O),
            TriplePattern(VAR_S, "p", "x"),
            TriplePattern("a", "p", VAR_O),
            TriplePattern(VAR_S, "nope", VAR_O),
        ],
    )
    def test_merged_list_equals_unsharded(self, strategy, n_shards, pattern):
        store = small_store()
        plain = ColumnarGraph(store)
        sharded = ShardedGraph(store, n_shards, strategy=strategy)
        expected = plain.match_list(pattern)
        actual = sharded.match_list(pattern)
        assert actual.triples == expected.triples
        assert actual.max_score == expected.max_score
        assert actual.normalized_scores == expected.normalized_scores

    def test_empty_parts(self):
        key = (None, "p", None)
        from repro.kg.index import MatchList

        merged = merge_match_lists(key, [MatchList(key, (), 0.0, ())] * 3)
        assert merged.is_empty
        assert merged.max_score == 0.0

    def test_single_nonempty_part_reused(self):
        store = small_store()
        graph = ColumnarGraph(store)
        pattern = TriplePattern(VAR_S, "p", VAR_O)
        part = graph.match_list(pattern)
        merged = merge_match_lists(pattern.key(), [part])
        assert merged.triples is part.triples

    def test_repeated_variable_pattern(self):
        triples = [
            Triple("a", "p", "a", 3.0),
            Triple("a", "p", "b", 9.0),
            Triple("b", "p", "b", 2.0),
        ]
        store = ColumnarStore.from_triples(triples)
        pattern = TriplePattern(VAR_S, "p", VAR_S)
        plain = ColumnarGraph(store).match_list(pattern)
        sharded = ShardedGraph(store, 2, strategy="score-range").match_list(pattern)
        assert sharded.triples == plain.triples
        assert [t.subject for t in sharded.triples] == ["a", "b"]

    def test_shard_leaf_inputs_tell_a_diagonal_from_its_open_twin(self):
        """The per-shard caches are keyed by list key too: a warm open
        list is not handed to the diagonal pattern's leaf scan."""
        store = ColumnarStore.from_triples(
            [
                Triple("a", "p", "a", 3.0),
                Triple("a", "p", "b", 9.0),
                Triple("b", "p", "b", 2.0),
            ]
        )
        graph = ShardedGraph(store, 2, strategy="hash-subject")
        open_twin = TriplePattern(VAR_S, "p", VAR_O)
        diagonal = TriplePattern(VAR_S, "p", VAR_S)
        assert len(graph.match_list(open_twin)) == 3  # warms every shard cache
        global_max, inputs = graph.shard_leaf_inputs(diagonal)
        assert global_max == 3.0
        assert all(leaf.match_list is None for leaf in inputs)  # cold, peeked
        assert sum(leaf.n_matches for leaf in inputs) == 2
        assert len(graph.match_list(diagonal)) == 2
        _, warm = graph.shard_leaf_inputs(diagonal)
        assert sorted(
            t.subject for leaf in warm if leaf.match_list for t in leaf.match_list.triples
        ) == ["a", "b"]


class TestShardedGraph:
    def test_graph_interface(self):
        store = small_store()
        graph = ShardedGraph(store, 3, strategy="hash-subject", name="tiny")
        plain = ColumnarGraph(store)
        assert graph.size == plain.size
        assert graph.entities() == plain.entities()
        assert graph.predicates() == plain.predicates()
        assert ("a", "p", "x") in graph
        assert graph.score_of("d", "q", "z") == 9.0
        assert sum(graph.shard_sizes()) == graph.size
        assert graph.n_shards == 3

    def test_immutable(self):
        graph = ShardedGraph(small_store(), 2)
        with pytest.raises(KnowledgeGraphError):
            graph.add("x", "y", "z")
        with pytest.raises(KnowledgeGraphError):
            graph.remove("a", "p", "x")

    def test_from_object_graph(self):
        from repro.kg.graph import KnowledgeGraph

        kg = KnowledgeGraph(name="obj")
        kg.add("s1", "p", "o1", score=2.0)
        kg.add("s2", "p", "o2", score=4.0)
        graph = ShardedGraph.from_graph(kg, 2, strategy="score-range")
        assert graph.size == 2
        assert graph.name == "obj"
        pattern = TriplePattern(VAR_S, "p", VAR_O)
        assert [t.score for t in graph.match_list(pattern).triples] == [4.0, 2.0]

    def test_shard_leaf_inputs_peek_and_cache(self):
        store = small_store()
        graph = ShardedGraph(store, 2, strategy="score-range")
        pattern = TriplePattern(VAR_S, "p", VAR_O)
        global_max, inputs = graph.shard_leaf_inputs(pattern)
        assert global_max == 5.0
        assert sum(entry.n_matches for entry in inputs) == 4
        # Nothing built yet: peeks only.
        assert all(entry.match_list is None for entry in inputs)
        # Build shard lists (through the merged path), then inputs are warm.
        graph.match_list(pattern)
        _, warm_inputs = graph.shard_leaf_inputs(pattern)
        assert all(
            entry.match_list is not None
            for entry in warm_inputs
            if entry.n_matches
        )

    def test_shard_cache_stats_and_invalidate(self):
        graph = ShardedGraph(small_store(), 2, strategy="hash-subject")
        pattern = TriplePattern(VAR_S, "p", VAR_O)
        graph.match_list(pattern)
        stats = graph.shard_cache_stats()
        assert stats.size > 0
        graph.invalidate_caches()
        assert graph.shard_cache_stats().size == 0

    def test_shard_leaf_inputs_lookup_stats_are_exact(self):
        """The leaf-input probe is one version-aware `get` per shard — a
        cold probe counts one miss per shard and a warm one one hit, with
        no version-blind `__contains__` pre-check skewing the numbers."""
        graph = ShardedGraph(small_store(), 3, strategy="score-range")
        pattern = TriplePattern(VAR_S, "p", VAR_O)

        graph.shard_leaf_inputs(pattern)
        cold = graph.shard_cache_stats()
        assert cold.misses == graph.n_shards
        assert cold.hits == 0

        graph.match_list(pattern)  # builds every shard list through the caches
        graph.shard_leaf_inputs(pattern)
        warm = graph.shard_cache_stats()
        assert warm.hits == graph.n_shards
        assert warm.misses == 2 * graph.n_shards  # cold probe + the builds

    def test_single_shard_degenerates(self):
        store = small_store()
        graph = ShardedGraph(store, 1)
        pattern = TriplePattern(VAR_S, "q", VAR_O)
        plain = ColumnarGraph(store)
        assert graph.match_list(pattern).triples == plain.match_list(pattern).triples
