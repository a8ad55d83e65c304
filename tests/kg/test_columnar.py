"""Unit tests for the columnar dictionary-encoded backend."""

import numpy as np
import pytest

from repro.baselines.naive import NaiveEngine
from repro.errors import KnowledgeGraphError
from repro.kg import ColumnarGraph, ColumnarStore, KnowledgeGraph, Triple
from repro.kg.index import MatchList
from repro.kg.pattern import TriplePattern, Variable

VAR_S = Variable("s")
VAR_O = Variable("o")


def assert_oracle_list(match_list, graph, pattern):
    """*match_list* is the oracle's Definition-5 list of *pattern* over
    *graph*: the same triples in order, maximum and normalised scores."""
    oracle = NaiveEngine(graph, None)
    matches = oracle.matches(pattern)
    assert match_list.pattern_key == pattern.key()
    assert match_list.triples == tuple(matches)
    assert match_list.max_score == (matches[0].score if matches else 0.0)
    assert list(match_list.normalized_scores) == [
        score for _, score in oracle.rows([(pattern, 1.0)])
    ]


def oracle_matches_by_spo(graph, pattern):
    return sorted(NaiveEngine(graph, None).matches(pattern), key=lambda t: t.spo)


@pytest.fixture
def object_graph(music_graph) -> KnowledgeGraph:
    music_graph.add("dylan", "likes", "dylan", 3.0)
    music_graph.add("dylan", "likes", "shakira", 7.0)
    return music_graph


@pytest.fixture
def columnar_graph(object_graph) -> ColumnarGraph:
    return ColumnarGraph.from_graph(object_graph)


PATTERNS = [
    TriplePattern(VAR_S, "rdf:type", "singer"),
    TriplePattern(VAR_S, "rdf:type", VAR_O),
    TriplePattern("dylan", "likes", VAR_O),
    TriplePattern(VAR_S, Variable("p"), VAR_O),
    TriplePattern(VAR_S, "likes", VAR_O),  # ... and its off-diagonal twin first
    TriplePattern(VAR_S, "likes", VAR_S),  # repeated variable: diagonal only
    TriplePattern("shakira", "rdf:type", "singer"),  # fully bound
    TriplePattern("nobody", "rdf:type", "singer"),  # unknown term
]


class TestColumnarStore:
    def test_from_triples_interns_and_dedups_last_wins(self):
        store = ColumnarStore.from_triples(
            [Triple("a", "p", "b", 1.0), Triple("a", "p", "b", 9.0)]
        )
        assert store.n_triples == 1
        assert store.scores[0] == 9.0
        assert store.n_terms == 3

    def test_rejects_nul_terms(self):
        with pytest.raises(KnowledgeGraphError, match="NUL"):
            ColumnarStore.from_triples([Triple("a\x00b", "p", "o")])

    def test_rejects_non_triples(self):
        with pytest.raises(KnowledgeGraphError, match="expected Triple"):
            ColumnarStore.from_triples([("a", "p", "b")])  # type: ignore[list-item]

    def test_empty_store(self):
        store = ColumnarStore.from_triples([])
        assert store.n_triples == 0 and store.n_terms == 0
        assert list(store.iter_triples()) == []
        assert len(store.ordered_rows((None, None, None))) == 0

    def test_from_arrays_validates_id_range(self):
        with pytest.raises(KnowledgeGraphError, match="out of range"):
            ColumnarStore.from_arrays(
                np.array(["a", "p"]),
                np.array([0]), np.array([1]), np.array([5]),
                np.array([1.0]),
            )

    def test_from_arrays_validates_scores(self):
        terms = np.array(["a", "p", "b"])
        for bad in (np.array([np.nan]), np.array([np.inf]), np.array([-1.0])):
            with pytest.raises(KnowledgeGraphError):
                ColumnarStore.from_arrays(
                    terms, np.array([0]), np.array([1]), np.array([2]), bad
                )

    def test_from_arrays_validates_duplicate_rows(self):
        terms = np.array(["a", "p", "b"])
        with pytest.raises(KnowledgeGraphError, match="unique"):
            ColumnarStore.from_arrays(
                terms,
                np.array([0, 0]), np.array([1, 1]), np.array([2, 2]),
                np.array([1.0, 2.0]),
            )

    def test_from_arrays_validates_duplicate_terms(self):
        with pytest.raises(KnowledgeGraphError, match="distinct"):
            ColumnarStore.from_arrays(
                np.array(["a", "a", "b"]),
                np.array([0]), np.array([1]), np.array([2]),
                np.array([1.0]),
            )

    def test_row_of_and_term_id(self):
        store = ColumnarStore.from_triples([Triple("a", "p", "b", 2.0)])
        assert store.term_id("a") == 0
        assert store.term_id("zzz") is None
        assert store.row_of("a", "p", "b") == 0
        assert store.row_of("a", "p", "a") is None
        assert store.row_of("zzz", "p", "b") is None


class TestColumnarGraphInterface:
    def test_size_and_len(self, object_graph, columnar_graph):
        assert columnar_graph.size == object_graph.size
        assert len(columnar_graph) == len(object_graph)

    def test_triples_round_trip(self, object_graph, columnar_graph):
        assert set(columnar_graph.triples()) == set(object_graph.triples())
        scores = {t.spo: t.score for t in columnar_graph.triples()}
        for triple in object_graph.triples():
            assert scores[triple.spo] == triple.score

    def test_contains_and_score_of(self, object_graph, columnar_graph):
        assert ("dylan", "likes", "shakira") in columnar_graph
        assert Triple("dylan", "likes", "shakira", 0.0) in columnar_graph
        assert ("dylan", "likes", "nobody") not in columnar_graph
        assert "not-a-triple" not in columnar_graph
        assert columnar_graph.score_of("dylan", "likes", "shakira") == 7.0
        with pytest.raises(KnowledgeGraphError):
            columnar_graph.score_of("dylan", "likes", "nobody")

    def test_entities_and_predicates(self, object_graph, columnar_graph):
        assert columnar_graph.entities() == object_graph.entities()
        assert columnar_graph.predicates() == object_graph.predicates()

    @pytest.mark.parametrize("pattern", PATTERNS, ids=str)
    def test_match_lists_identical_to_object_backend(
        self, object_graph, columnar_graph, pattern
    ):
        for graph in (object_graph, columnar_graph):
            assert_oracle_list(graph.match_list(pattern), object_graph, pattern)

    @pytest.mark.parametrize("pattern", PATTERNS, ids=str)
    def test_match_and_count_identical(self, object_graph, columnar_graph, pattern):
        expected = oracle_matches_by_spo(object_graph, pattern)
        for graph in (object_graph, columnar_graph):
            assert sorted(graph.match(pattern), key=lambda t: t.spo) == expected
            assert graph.count(pattern) == len(expected)

    def test_match_list_cached_per_key(self, columnar_graph):
        first = columnar_graph.match_list(TriplePattern(VAR_S, "rdf:type", "singer"))
        second = columnar_graph.match_list(
            TriplePattern(Variable("other"), "rdf:type", "singer")
        )
        assert first is second

    def test_index_stats_report_cached_lists(self, columnar_graph):
        assert columnar_graph.index_stats() == {"match_lists": 0, "version": -1}
        columnar_graph.match_list(TriplePattern(VAR_S, "rdf:type", "singer"))
        columnar_graph.match_list(TriplePattern(VAR_S, "rdf:type", "singer"))
        assert columnar_graph.index_stats() == {
            "match_lists": 1,
            "version": columnar_graph.version,
        }

    def test_external_cache_hook(self, columnar_graph):
        from repro.service import MatchListCache

        cache = MatchListCache(capacity=4)
        columnar_graph.attach_match_list_cache(cache)
        pattern = TriplePattern(VAR_S, "rdf:type", "singer")
        columnar_graph.match_list(pattern)
        columnar_graph.match_list(pattern)
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        columnar_graph.detach_match_list_cache()

    def test_invalidate_caches_is_safe(self, columnar_graph):
        pattern = TriplePattern(VAR_S, "rdf:type", "singer")
        before = columnar_graph.match_list(pattern)
        columnar_graph.invalidate_caches()
        after = columnar_graph.match_list(pattern)
        assert before.triples == after.triples


@pytest.fixture(params=["kg2", "with-updates"])
def served_graph(request, object_graph, tmp_path) -> ColumnarGraph:
    """The same triples on a store that reaches serving another way:
    attached from a ``.kg2``, or refolded by a compaction's
    ``with_updates`` (half the rows added, fresh terms and all, and a
    stale row dropped)."""
    if request.param == "kg2":
        from repro.kg import storage

        storage.save_snapshot_v2(object_graph, tmp_path / "music.kg2")
        return storage.load_snapshot_v2(tmp_path / "music.kg2", mmap=True)
    triples = sorted(object_graph.triples(), key=lambda t: t.spo)
    half = len(triples) // 2
    stale = Triple("stale", "likes", "nobody", 1.0)
    store = ColumnarStore.from_triples([*triples[:half], stale]).with_updates(
        {t.spo: t.score for t in triples[half:]}, {stale.spo}
    )
    return ColumnarGraph(store)


class TestServingStoresMatchTheObjectBackend:
    @pytest.mark.parametrize("pattern", PATTERNS, ids=str)
    def test_match_lists_identical_to_object_backend(
        self, object_graph, served_graph, pattern
    ):
        assert_oracle_list(served_graph.match_list(pattern), object_graph, pattern)

    @pytest.mark.parametrize("pattern", PATTERNS, ids=str)
    def test_match_and_count_identical(self, object_graph, served_graph, pattern):
        expected = oracle_matches_by_spo(object_graph, pattern)
        assert sorted(served_graph.match(pattern), key=lambda t: t.spo) == expected
        assert served_graph.count(pattern) == len(expected)


class TestFreezeThaw:
    def test_mutation_raises(self, columnar_graph):
        with pytest.raises(KnowledgeGraphError, match="immutable"):
            columnar_graph.add("a", "b", "c")
        with pytest.raises(KnowledgeGraphError, match="immutable"):
            columnar_graph.add_triples([Triple("a", "b", "c")])
        with pytest.raises(KnowledgeGraphError, match="immutable"):
            columnar_graph.remove("shakira", "rdf:type", "singer")

    def test_thaw_round_trip(self, object_graph, columnar_graph):
        thawed = columnar_graph.thaw()
        assert type(thawed) is KnowledgeGraph
        assert set(thawed.triples()) == set(object_graph.triples())
        thawed.add("new", "p", "o")  # mutable again
        assert thawed.size == columnar_graph.size + 1

    def test_from_graph_on_columnar_shares_store(self, columnar_graph):
        again = ColumnarGraph.from_graph(columnar_graph, name="copy")
        assert again.store is columnar_graph.store
        assert again.name == "copy"

    def test_from_triples(self):
        graph = ColumnarGraph.from_triples(
            [Triple("a", "p", "b", 2.0)], name="direct"
        )
        assert graph.size == 1 and graph.name == "direct"


class TestOpenMmap:
    """ColumnarStore.open_mmap: the v2 attach entry point on the store."""

    def test_attach_serves_identical_match_lists(self, columnar_graph, tmp_path):
        from repro.kg import storage

        path = tmp_path / "music.kg2"
        storage.save_snapshot_v2(columnar_graph, path)
        attached = ColumnarStore.open_mmap(path)
        assert attached.n_triples == columnar_graph.store.n_triples
        served = ColumnarGraph(attached, name="mmap")
        for pattern in PATTERNS:
            assert (
                served.match_list(pattern).triples
                == columnar_graph.match_list(pattern).triples
            ), pattern

    def test_attach_does_not_resort_the_dictionary(self, columnar_graph, tmp_path):
        """The persisted term_rank section is used as-is."""
        from repro.kg import storage

        path = tmp_path / "music.kg2"
        storage.save_snapshot_v2(columnar_graph, path)
        attached = ColumnarStore.open_mmap(path)
        assert attached._term_rank is not None  # present before any query
        np.testing.assert_array_equal(
            attached._ranks(), columnar_graph.store._ranks()
        )

    def test_verify_flag_checks_invariants(self, columnar_graph, tmp_path):
        from repro.kg import storage

        path = tmp_path / "music.kg2"
        storage.save_snapshot_v2(columnar_graph, path)
        attached = ColumnarStore.open_mmap(path, verify=True)
        assert attached.n_triples == columnar_graph.store.n_triples

