"""Unit tests for the delta-overlay live graph."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KnowledgeGraphError
from repro.kg.columnar import ID_DTYPE, ColumnarGraph, ColumnarStore
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.index import MatchList
from repro.kg.pattern import TriplePattern, Variable
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
    def rebuilt(self, live: LiveGraph, pattern: TriplePattern) -> MatchList:
        """The Definition-5 list of the live triples, by brute force."""
        return MatchList.from_triples(
            pattern.key(), [t for t in live.triples() if pattern.matches(t)]
        )

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
        expected = self.rebuilt(live, pattern)
        actual = live.match_list(pattern)
        assert actual.triples == expected.triples
        assert actual.max_score == expected.max_score
        assert actual.normalized_scores == expected.normalized_scores

    def test_kept_base_rows_decode_once_per_store(self):
        """A new version's list re-uses the triples of the base rows it
        keeps; a cold start, and a compaction's new store, decode afresh."""
        live = LiveGraph(columnar_base())
        first = {t.spo: t for t in live.match_list(P_OPEN).triples}
        live.apply_updates(
            [GraphUpdate.add("e", "p", "x", 8.0), GraphUpdate.remove("b", "p", "x")]
        )
        listed = live.match_list(P_OPEN).triples
        assert listed == self.rebuilt(live, P_OPEN).triples
        kept = [t for t in listed if t.spo in first]
        assert [t.spo for t in kept] == [("a", "p", "x"), ("a", "p", "y"), ("c", "p", "z")]
        assert all(t is first[t.spo] for t in kept)
        live.invalidate_caches()
        cold = live.match_list(P_OPEN).triples
        assert cold == listed and not any(t is first.get(t.spo) for t in cold)
        live.compact()
        compacted = live.match_list(P_OPEN).triples
        assert compacted == listed and not any(t is first.get(t.spo) for t in compacted)

    def test_earlier_batches_stay_superseded(self):
        """Each superseded key's base row is looked up once: the rows of
        an earlier batch stay masked in the lists of every later one."""
        live = LiveGraph(columnar_base())
        live.apply_updates([GraphUpdate.remove("a", "p", "x")])
        assert ("a", "p", "x") not in {t.spo for t in live.match_list(P_OPEN).triples}
        live.apply_updates([GraphUpdate.add("b", "p", "x", 7.0)])
        assert live.match_list(P_OPEN).triples == self.rebuilt(live, P_OPEN).triples
        live.apply_updates([GraphUpdate.add("a", "p", "x", 0.5)])
        listed = live.match_list(P_OPEN)
        assert listed.triples == self.rebuilt(live, P_OPEN).triples
        assert [t.score for t in listed.triples] == [7.0, 3.0, 1.0, 0.5]

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
        expected = self.rebuilt(live, P_OPEN)
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
        assert isinstance(live.base, ColumnarGraph)
        live.base.store.validate()
        assert sorted((t.spo, t.score) for t in live.triples()) == expected

    def test_compact_frees_the_old_base_by_refcount(self):
        """The superseded base — store, decoded lists —
        must go at the swap, not whenever the cyclic collector next runs;
        a caller still holding the base keeps the graph, not its lists."""
        import gc
        import weakref

        base = columnar_base()
        live = LiveGraph(base)
        gc.collect()
        gc.disable()
        try:
            live.add("e", "p", "x", score=8.0)
            live.match_list(P_OPEN)
            first_list = weakref.ref(base.match_list(P_OPEN))
            live.compact()
            assert first_list() is None  # though this test still holds *base*
            second_base = weakref.ref(live.base)
            live.add("f", "p", "x", score=7.0)
            live.match_list(P_OPEN)
            second_list = weakref.ref(live.base.match_list(P_OPEN))
            live.compact()
            assert second_base() is None and second_list() is None
            assert live._decoded is None  # nor the overlay's rows decoded from it
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

    def test_nul_term_is_refused_before_it_lands(self):
        """A column store cannot intern a NUL term: the add is refused
        on the spot, so no later compaction trips over it."""
        live = LiveGraph(columnar_base(), compact_threshold=2)
        version = live.version
        for bad in (("bad\x00", "p", "x"), ("a", "p\x00", "x"), ("a", "p", "x\x00")):
            with pytest.raises(KnowledgeGraphError, match="NUL"):
                live.add(*bad, score=1.0)
            with pytest.raises(KnowledgeGraphError, match="NUL"):
                live.apply_updates([GraphUpdate.add(*bad, 1.0)])
            assert bad not in live
        assert live.delta_size == 0 and live.version == version
        for i in range(3):
            live.apply_updates(
                [GraphUpdate.add(f"n{i}", "p", "w", 1.0), GraphUpdate.add(f"m{i}", "p", "w", 2.0)]
            )
        assert live.compactions == 3 and live.size == 12
        # An object base is frozen into columns, so it refuses the term too.
        over_objects = LiveGraph(KnowledgeGraph(base_triples()), compact_threshold=2)
        with pytest.raises(KnowledgeGraphError, match="NUL"):
            over_objects.add("bad\x00", "p", "x", score=1.0)
        assert ("bad\x00", "p", "x") not in over_objects

    def test_monotone_version_across_many_compactions(self):
        live = LiveGraph(columnar_base(), compact_threshold=2)
        seen = [live.version]
        for i in range(6):
            live.add(f"n{i}", "p", "w", score=float(i + 1))
            seen.append(live.version)
        assert seen == sorted(set(seen))
        assert live.compactions == 3


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

    def test_membership_changes_are_adds_of_new_triples_and_removes(self):
        """A re-score of a live triple touches its key without moving it;
        adding a triple that was not live, or removing one, moves it."""
        live = LiveGraph(columnar_base())
        start = live.version
        live.apply_updates(
            [
                GraphUpdate.add("a", "p", "x", 7.0),  # re-score of a base triple
                GraphUpdate.add("e", "p", "w", 1.0),  # new
            ]
        )
        middle = live.version
        live.apply_updates(
            [
                GraphUpdate.add("e", "p", "w", 2.0),  # re-score of a delta add
                GraphUpdate.remove("c", "p", "z"),
            ]
        )
        assert live.membership_since(start) == {("e", "p", "w"), ("c", "p", "z")}
        assert live.membership_since(middle) == {("c", "p", "z")}
        assert live.touched_since(middle) == {("e", "p", "w"), ("c", "p", "z")}
        # Re-adding a removed triple moves it back.
        live.apply_updates([GraphUpdate.add("c", "p", "z", 1.0)])
        assert live.membership_since(live.version - 1) == {("c", "p", "z")}
        # A compaction folds adds without changing the live triple set.
        before = live.version
        live.compact()
        assert live.touched_since(before) == {
            ("a", "p", "x"), ("e", "p", "w"), ("c", "p", "z")
        }
        assert live.membership_since(before) == frozenset()
        assert live.membership_since(-1) is None

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from("+-"),
                    st.sampled_from("abcde"),
                    st.sampled_from("pq"),
                    st.sampled_from("xyzw"),
                    st.integers(1, 9),
                ),
                max_size=6,
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_membership_is_the_touched_keys_whose_liveness_flipped(self, batches):
        """Over random batches and compactions, the membership set of each
        step is within its touched set, and holds every key whose
        liveness differs across the step."""
        live = LiveGraph(columnar_base(), compact_threshold=5)
        for batch in batches:
            before_version = live.version
            before = {t.spo for t in live.triples()}
            live.apply_updates(
                GraphUpdate.add(s, p, o, float(w))
                if op == "+"
                else GraphUpdate.remove(s, p, o)
                for op, s, p, o, w in batch
            )
            after = {t.spo for t in live.triples()}
            touched = live.touched_since(before_version)
            moved = live.membership_since(before_version)
            assert moved <= touched
            assert before ^ after <= moved
        assert live.membership_since(live.version) == frozenset()

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

    def test_rows_of(self):
        """One row per key that names one; unknown terms and known terms
        in an unstored combination are skipped."""
        store = ColumnarStore.from_triples(base_triples())
        rows = store.rows_of(
            [("a", "p", "x"), ("ghost", "p", "x"), ("a", "q", "x"), ("d", "q", "z")]
        )
        assert rows.dtype == ID_DTYPE
        assert {t.spo for t in store.decode_rows(rows)} == {
            ("a", "p", "x"),
            ("d", "q", "z"),
        }
        assert len(store.rows_of([])) == 0
        dropped = np.zeros(store.n_triples, dtype=bool)
        dropped[store.rows_of({("a", "p", "x"), ("ghost", "p", "x")})] = True
        surviving = {t.spo for t in store.decode_rows(np.nonzero(~dropped)[0])}
        assert {t.spo for t in store.iter_triples()} - surviving == {("a", "p", "x")}
