"""Unit tests for the delta-overlay live graph."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import KnowledgeGraphError
from repro.kg.columnar import ColumnarGraph, ColumnarStore
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, Variable
from repro.kg.sharding import ShardedGraph, shard_of_subject
from repro.kg.triple import Triple

VAR_S = Variable("s")
VAR_O = Variable("o")
P_OPEN = TriplePattern(VAR_S, "p", VAR_O)


def base_triples() -> list[Triple]:
    return [
        Triple("a", "p", "x", 5.0),
        Triple("a", "p", "y", 3.0),
        Triple("b", "p", "x", 4.0),
        Triple("b", "q", "y", 4.0),
        Triple("c", "p", "z", 1.0),
        Triple("d", "q", "z", 9.0),
    ]


def columnar_base() -> ColumnarGraph:
    return ColumnarGraph.from_triples(base_triples(), name="base")


class TestGraphUpdate:
    def test_constructors_and_accessors(self):
        add = GraphUpdate.add("s", "p", "o", 2.0)
        assert add.op == "+" and add.spo == ("s", "p", "o")
        assert add.triple() == Triple("s", "p", "o", 2.0)
        remove = GraphUpdate.remove("s", "p", "o")
        assert remove.op == "-"
        with pytest.raises(KnowledgeGraphError):
            remove.triple()

    def test_bad_op_rejected(self):
        with pytest.raises(KnowledgeGraphError):
            GraphUpdate("~", "s", "p", "o")

    def test_non_finite_scores_rejected(self):
        """The programmatic path matches the TSV parser: a non-finite
        score would poison normalised lists and snapshot validation."""
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(KnowledgeGraphError):
                GraphUpdate.add("s", "p", "o", bad)
        GraphUpdate.remove("s", "p", "o")  # removes never carry a score


class TestLiveGraphSemantics:
    def test_wraps_any_base_and_reads_through(self):
        live = LiveGraph(columnar_base())
        assert live.size == 6
        assert ("a", "p", "x") in live
        assert live.score_of("d", "q", "z") == 9.0
        assert live.delta_size == 0

    def test_add_new_triple(self):
        live = LiveGraph(columnar_base())
        live.add("e", "p", "w", score=7.0)
        assert live.size == 7
        assert live.score_of("e", "p", "w") == 7.0
        assert ("e", "p", "w") in live

    def test_overwrite_keeps_size(self):
        live = LiveGraph(columnar_base())
        live.add("a", "p", "x", score=50.0)
        assert live.size == 6
        assert live.score_of("a", "p", "x") == 50.0

    def test_remove_base_triple_tombstones(self):
        live = LiveGraph(columnar_base())
        assert live.remove("a", "p", "x") is True
        assert live.size == 5
        assert ("a", "p", "x") not in live
        with pytest.raises(KnowledgeGraphError):
            live.score_of("a", "p", "x")
        # Removing again is a no-op.
        assert live.remove("a", "p", "x") is False

    def test_remove_then_readd(self):
        live = LiveGraph(columnar_base())
        live.remove("a", "p", "x")
        live.add("a", "p", "x", score=2.0)
        assert live.size == 6
        assert live.score_of("a", "p", "x") == 2.0

    def test_remove_delta_only_triple(self):
        live = LiveGraph(columnar_base())
        live.add("e", "p", "w", score=7.0)
        assert live.remove("e", "p", "w") is True
        assert live.size == 6
        assert live.remove("never", "was", "there") is False

    def test_version_monotone_per_mutation(self):
        live = LiveGraph(columnar_base())
        versions = [live.version]
        live.add("e", "p", "w")
        versions.append(live.version)
        live.remove("a", "p", "x")
        versions.append(live.version)
        live.add_triples([Triple("f", "p", "w", 1.0), Triple("g", "p", "w", 2.0)])
        versions.append(live.version)
        assert versions == sorted(set(versions))

    def test_apply_updates_counts_and_single_version_bump(self):
        live = LiveGraph(columnar_base())
        before = live.version
        counts = live.apply_updates(
            [
                GraphUpdate.add("e", "p", "w", 7.0),
                GraphUpdate.add("a", "p", "x", 2.0),  # overwrite
                GraphUpdate.remove("b", "q", "y"),
                GraphUpdate.remove("no", "such", "row"),
            ]
        )
        assert counts == {"adds": 2, "removes": 1, "absent_removes": 1}
        assert live.version == before + 1

    def test_midstream_failure_still_bumps_version(self):
        """Updates applied before an iterator failure must invalidate:
        a stale version would pin every cache to the pre-mutation view."""
        live = LiveGraph(columnar_base())
        live.match_list(P_OPEN)
        before = live.version

        def updates():
            yield GraphUpdate.add("landed", "p", "x", 7.0)
            raise KnowledgeGraphError("malformed line mid-stream")

        with pytest.raises(KnowledgeGraphError):
            live.apply_updates(updates())
        assert ("landed", "p", "x") in live
        assert live.version > before
        assert any(t.spo == ("landed", "p", "x") for t in live.match_list(P_OPEN).triples)

        def triples():
            yield Triple("landed2", "p", "x", 8.0)
            raise KnowledgeGraphError("boom")

        before = live.version
        with pytest.raises(KnowledgeGraphError):
            live.add_triples(triples())
        assert live.version > before
        assert ("landed2", "p", "x") in live

    def test_threshold_bounds_delta_within_one_batch(self):
        """compact_threshold is enforced per update, so one huge streamed
        batch cannot grow the delta past the bound."""
        live = LiveGraph(columnar_base(), compact_threshold=3)
        live.apply_updates(
            GraphUpdate.add(f"n{i}", "p", "w", float(i + 1)) for i in range(10)
        )
        assert live.compactions == 3
        assert live.delta_size < 3
        assert live.size == 16

    def test_triples_entities_predicates(self):
        live = LiveGraph(columnar_base())
        live.add("e", "r", "w", score=7.0)
        live.remove("d", "q", "z")
        spos = {t.spo for t in live.triples()}
        assert ("e", "r", "w") in spos and ("d", "q", "z") not in spos
        assert len(spos) == live.size
        assert "e" in live.entities() and "w" in live.entities()
        assert live.predicates() == {"p", "q", "r"}
        # Tombstoning the only q-subject 'd' keeps q alive via b.
        live.remove("b", "q", "y")
        assert live.predicates() == {"p", "r"}

    def test_thaw_matches_live_view(self):
        live = LiveGraph(columnar_base())
        live.apply_updates(
            [GraphUpdate.add("e", "p", "w", 7.0), GraphUpdate.remove("a", "p", "y")]
        )
        thawed = live.thaw()
        assert {t.spo for t in thawed.triples()} == {t.spo for t in live.triples()}

    def test_match_and_count_see_overlay(self):
        live = LiveGraph(columnar_base())
        live.add("e", "p", "x", score=8.0)
        live.remove("a", "p", "x")
        pattern = TriplePattern(VAR_S, "p", "x")
        assert live.count(pattern) == 2
        assert {t.subject for t in live.match(pattern)} == {"b", "e"}

    def test_stacking_overlays_rejected(self):
        live = LiveGraph(columnar_base())
        with pytest.raises(KnowledgeGraphError):
            LiveGraph(live)

    def test_bad_threshold_rejected(self):
        with pytest.raises(KnowledgeGraphError):
            LiveGraph(columnar_base(), compact_threshold=0)


class TestLiveMatchLists:
    def rebuilt(self, live: LiveGraph) -> KnowledgeGraph:
        return KnowledgeGraph(live.triples(), name="rebuilt")

    @pytest.mark.parametrize(
        "pattern",
        [
            P_OPEN,
            TriplePattern(VAR_S, "p", "x"),
            TriplePattern("a", "p", VAR_O),
            TriplePattern(VAR_S, "nope", VAR_O),
        ],
    )
    def test_overlay_list_equals_rebuild(self, pattern):
        live = LiveGraph(columnar_base())
        live.apply_updates(
            [
                GraphUpdate.add("e", "p", "x", 8.0),
                GraphUpdate.add("a", "p", "x", 2.0),
                GraphUpdate.remove("b", "p", "x"),
            ]
        )
        expected = self.rebuilt(live).match_list(pattern)
        actual = live.match_list(pattern)
        assert actual.triples == expected.triples
        assert actual.max_score == expected.max_score
        assert actual.normalized_scores == expected.normalized_scores

    def test_delta_can_raise_the_normaliser(self):
        live = LiveGraph(columnar_base())
        live.add("hot", "p", "x", score=100.0)
        match_list = live.match_list(P_OPEN)
        assert match_list.max_score == 100.0
        assert match_list.normalized_scores[0] == 1.0

    def test_tombstoning_the_maximum_renormalises(self):
        live = LiveGraph(columnar_base())
        live.remove("a", "p", "x")  # was the p-max (5.0)
        match_list = live.match_list(P_OPEN)
        assert match_list.max_score == 4.0
        expected = self.rebuilt(live).match_list(P_OPEN)
        assert match_list.normalized_scores == expected.normalized_scores

    def test_repeated_variable_pattern(self):
        base = ColumnarGraph.from_triples(
            [Triple("a", "p", "a", 3.0), Triple("a", "p", "b", 9.0)]
        )
        live = LiveGraph(base)
        live.add("c", "p", "c", score=5.0)
        live.add("c", "p", "d", score=8.0)
        diagonal = TriplePattern(VAR_S, "p", VAR_S)
        open_twin = TriplePattern(VAR_S, "p", VAR_O)
        assert len(live.match_list(open_twin)) == 4  # same key, cached first
        assert [t.subject for t in live.match_list(diagonal).triples] == ["c", "a"]
        assert len(live.match_list(open_twin)) == 4


class TestVersionedInvalidation:
    def test_external_cache_sees_live_versions(self):
        from repro.service.cache import MatchListCache

        live = LiveGraph(columnar_base())
        cache = MatchListCache(capacity=16)
        live.attach_match_list_cache(cache)
        live.match_list(P_OPEN)
        assert cache.stats().misses == 1
        live.match_list(P_OPEN)
        assert cache.stats().hits == 1
        live.add("e", "p", "w", score=2.0)
        rebuilt = live.match_list(P_OPEN)
        assert cache.stats().misses == 2  # version moved, entry was stale
        assert any(t.spo == ("e", "p", "w") for t in rebuilt.triples)

    def test_compaction_bumps_version_and_invalidates(self):
        from repro.service.cache import MatchListCache

        live = LiveGraph(columnar_base())
        cache = MatchListCache(capacity=16)
        live.attach_match_list_cache(cache)
        live.add("e", "p", "w", score=2.0)
        live.match_list(P_OPEN)
        version = live.version
        live.compact()
        assert live.version > version
        live.match_list(P_OPEN)
        assert cache.stats().invalidations >= 1


class TestCompaction:
    def test_compact_columnar_base(self):
        live = LiveGraph(columnar_base())
        live.apply_updates(
            [
                GraphUpdate.add("e", "p", "x", 8.0),
                GraphUpdate.add("a", "p", "x", 2.0),
                GraphUpdate.remove("b", "q", "y"),
            ]
        )
        expected = sorted((t.spo, t.score) for t in live.triples())
        folded = live.compact()
        assert folded == 3  # 2 delta adds (one an overwrite) + 1 tombstone
        assert live.delta_size == 0
        assert isinstance(live.base, ColumnarGraph)
        live.base.store.validate()
        assert sorted((t.spo, t.score) for t in live.triples()) == expected

    def test_compact_empty_delta_is_noop(self):
        live = LiveGraph(columnar_base())
        version = live.version
        assert live.compact() == 0
        assert live.version == version

    def test_compact_object_base(self):
        live = LiveGraph(KnowledgeGraph(base_triples(), name="obj"))
        live.add("e", "p", "w", score=2.0)
        live.remove("a", "p", "x")
        expected = sorted((t.spo, t.score) for t in live.triples())
        live.compact()
        assert isinstance(live.base, KnowledgeGraph)
        assert sorted((t.spo, t.score) for t in live.triples()) == expected

    def test_compact_sharded_base_rebins(self):
        base = ShardedGraph(
            ColumnarStore.from_triples(base_triples()), 2, strategy="score-range"
        )
        live = LiveGraph(base)
        live.add("hot", "p", "w", score=100.0)
        live.compact()
        assert isinstance(live.base, ShardedGraph)
        assert live.base.strategy == "score-range"
        assert live.base.n_shards == 2
        # Re-binning: the new hottest triple lands in shard 0.
        assert any(
            t.spo == ("hot", "p", "w") for t in live.base.shards[0].triples()
        )

    @pytest.mark.parametrize("sharded", [False, True])
    def test_compact_frees_the_old_base_by_refcount(self, sharded):
        """The superseded base — store, pattern index, decoded lists —
        must go at the swap, not whenever the cyclic collector next runs;
        a caller still holding the base keeps the graph, not its lists."""
        import gc
        import weakref

        store = ColumnarStore.from_triples(base_triples())
        base = ShardedGraph(store, 2) if sharded else ColumnarGraph(store)
        live = LiveGraph(base)
        gc.collect()
        gc.disable()
        try:
            live.add("e", "p", "x", score=8.0)
            live.match_list(P_OPEN)  # decodes the base's list on the way
            first_list = weakref.ref(base.match_list(P_OPEN))
            live.compact()
            assert first_list() is None  # though this test still holds *base*
            second_base = weakref.ref(live.base)
            live.add("f", "p", "x", score=7.0)
            live.match_list(P_OPEN)
            second_list = weakref.ref(live.base.match_list(P_OPEN))
            live.compact()
            assert second_base() is None and second_list() is None
        finally:
            gc.enable()

    def test_auto_compaction_threshold(self):
        live = LiveGraph(columnar_base(), compact_threshold=3)
        live.add("e1", "p", "w", score=1.0)
        live.add("e2", "p", "w", score=2.0)
        assert live.compactions == 0
        live.add("e3", "p", "w", score=3.0)
        assert live.compactions == 1
        assert live.delta_size == 0
        assert live.size == 9

    def test_monotone_version_across_many_compactions(self):
        live = LiveGraph(columnar_base(), compact_threshold=2)
        seen = [live.version]
        for i in range(6):
            live.add(f"n{i}", "p", "w", score=float(i + 1))
            seen.append(live.version)
        assert seen == sorted(set(seen))
        assert live.compactions == 3


class TestShardRouting:
    def test_hash_subject_routing_matches_rebuild(self):
        base = ShardedGraph(
            ColumnarStore.from_triples(base_triples()), 3, strategy="hash-subject"
        )
        live = LiveGraph(base)
        live.add("zebra", "p", "w", score=2.0)
        expected = shard_of_subject("zebra", 3)
        assert live._delta_shard[("zebra", "p", "w")] == expected
        live.compact()
        assert any(
            t.subject == "zebra" for t in live.base.shards[expected].triples()
        )

    def test_score_range_routing_prefers_hot_shard(self):
        base = ShardedGraph(
            ColumnarStore.from_triples(base_triples()), 2, strategy="score-range"
        )
        live = LiveGraph(base)
        live.add("hot", "p", "w", score=50.0)
        live.add("cold", "p", "w", score=0.5)
        assert live._delta_shard[("hot", "p", "w")] == 0
        assert live._delta_shard[("cold", "p", "w")] == 1

    def test_overwrite_reroutes_across_score_bins(self):
        base = ShardedGraph(
            ColumnarStore.from_triples(base_triples()), 2, strategy="score-range"
        )
        live = LiveGraph(base)
        live.add("m", "p", "w", score=0.5)
        assert live._delta_shard[("m", "p", "w")] == 1
        live.add("m", "p", "w", score=50.0)
        assert live._delta_shard[("m", "p", "w")] == 0
        assert live._shard_adds[1].size == 0

    def test_sharded_leaf_inputs_exact_normaliser(self):
        base = ShardedGraph(
            ColumnarStore.from_triples(base_triples()), 2, strategy="score-range"
        )
        live = LiveGraph(base)
        live.remove("a", "p", "x")  # tombstone the p-maximum
        live.add("e", "p", "w", score=4.5)
        global_max, inputs = live.shard_leaf_inputs(P_OPEN)
        assert global_max == live.match_list(P_OPEN).max_score == 4.5
        assert sum(entry.n_matches for entry in inputs) == len(
            live.match_list(P_OPEN)
        )

    def test_shard_delegation_helpers(self):
        sharded = LiveGraph(
            ShardedGraph(ColumnarStore.from_triples(base_triples()), 2)
        )
        assert sum(sharded.shard_sizes()) == 6
        assert sharded.shard_cache_stats().capacity > 0
        plain = LiveGraph(columnar_base())
        with pytest.raises(KnowledgeGraphError):
            plain.shard_sizes()
        # Only sharded bases expose lazy leaf inputs (build_leaf_scan probes).
        assert not hasattr(plain, "shard_leaf_inputs")


class TestTouchedSince:
    def test_every_reader_asks_from_its_own_version(self):
        """The journal is read-only: two readers at different versions
        each see what moved since theirs, as often as they ask."""
        live = LiveGraph(columnar_base())
        start = live.version
        live.add("e", "p", "w", score=1.0)
        middle = live.version
        live.remove("a", "p", "x")
        live.remove("nobody", "p", "x")  # absent: no step, nothing touched
        both = {("e", "p", "w"), ("a", "p", "x")}
        assert live.touched_since(start) == both
        assert live.touched_since(start) == both
        assert live.touched_since(middle) == {("a", "p", "x")}
        assert live.touched_since(live.version) == frozenset()

    def test_versions_it_cannot_answer_are_unknown(self):
        live = LiveGraph(columnar_base())
        live.add("e", "p", "w", score=1.0)
        assert live.touched_since(-1) is None
        assert live.touched_since(live.version + 1) is None

    def test_compaction_journals_the_adds_it_folds(self):
        live = LiveGraph(columnar_base())
        live.add("e", "p", "w", score=1.0)
        live.remove("a", "p", "x")
        before = live.version
        live.compact()
        assert live.version == before + 1
        # The folded add, not the tombstone: only an add can carry a term
        # from outside the old dictionary.
        assert live.touched_since(before) == {("e", "p", "w")}

    def test_overflow_forgets_the_oldest_steps(self, monkeypatch):
        """Past the bound the oldest steps go and older versions read as
        unknown (None) instead of the journal growing without limit."""
        from repro.kg import delta as delta_module

        monkeypatch.setattr(delta_module, "MAX_TOUCHED_JOURNAL", 4)
        live = LiveGraph(columnar_base())
        start = live.version
        for i in range(8):
            live.add(f"n{i}", "p", "w", score=float(i + 1))
        assert live.touched_since(start) is None
        assert live.touched_since(live.version - 4) == {
            (f"n{i}", "p", "w") for i in range(4, 8)
        }
        # One batch over the bound leaves nothing answerable before it.
        recent = live.version
        live.apply_updates(
            [GraphUpdate.add(f"m{i}", "p", "w", 1.0) for i in range(5)]
        )
        assert live.touched_since(recent) is None
        assert live.touched_since(live.version) == frozenset()

    def test_catalog_refresh_handles_overflow(self, monkeypatch):
        from repro.kg import delta as delta_module
        from repro.stats.catalog import StatisticsCatalog

        monkeypatch.setattr(delta_module, "MAX_TOUCHED_JOURNAL", 2)
        live = LiveGraph(columnar_base())
        catalog = StatisticsCatalog(live)
        catalog.pattern_stats(P_OPEN)
        for i in range(5):
            live.add(f"n{i}", "q", "w", score=float(i + 1))
        summary = catalog.refresh()
        assert summary == {"dropped": 1, "kept": 0}  # full invalidation
        assert catalog.match_count(P_OPEN) == live.count(P_OPEN)


class TestColumnarStoreUpdates:
    def test_with_updates_drops_overwrites_and_appends(self):
        store = ColumnarStore.from_triples(base_triples())
        new = store.with_updates(
            {("a", "p", "x"): 2.0, ("new", "p", "w"): 7.0},
            {("b", "q", "y")},
        )
        new.validate()
        decoded = {t.spo: t.score for t in new.iter_triples()}
        assert decoded[("a", "p", "x")] == 2.0
        assert decoded[("new", "p", "w")] == 7.0
        assert ("b", "q", "y") not in decoded
        assert len(decoded) == 6

    def test_with_updates_noop(self):
        store = ColumnarStore.from_triples(base_triples())
        assert store.with_updates({}, frozenset()) is store

    def test_with_updates_rejects_nul_terms(self):
        store = ColumnarStore.from_triples(base_triples())
        with pytest.raises(KnowledgeGraphError):
            store.with_updates({("bad\x00", "p", "o"): 1.0}, frozenset())

    def test_exclude_keys(self):
        store = ColumnarStore.from_triples(base_triples())
        rows = np.arange(store.n_triples, dtype=np.int64)
        kept = store.exclude_keys(rows, {("a", "p", "x"), ("ghost", "p", "x")})
        assert len(kept) == store.n_triples - 1
        decoded = {t.spo for t in store.iter_triples()}
        surviving = {t.spo for t in store.decode_rows(kept)}
        assert decoded - surviving == {("a", "p", "x")}
