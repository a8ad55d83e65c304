"""Unit tests for repro.kg.graph."""

import pytest

from repro.errors import KnowledgeGraphError
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, var
from repro.kg.triple import Triple


@pytest.fixture
def small_graph():
    kg = KnowledgeGraph(name="small")
    kg.add("a", "type", "t1", score=10.0)
    kg.add("b", "type", "t1", score=5.0)
    kg.add("c", "type", "t2", score=3.0)
    kg.add("a", "likes", "b", score=1.0)
    return kg


class TestMutation:
    def test_add_and_size(self, small_graph):
        assert small_graph.size == 4
        assert len(small_graph) == 4

    def test_add_duplicate_updates_score(self, small_graph):
        small_graph.add("a", "type", "t1", score=99.0)
        assert small_graph.size == 4
        assert small_graph.score_of("a", "type", "t1") == 99.0

    def test_add_triples_bulk(self):
        kg = KnowledgeGraph()
        n = kg.add_triples([Triple("x", "p", "y"), Triple("y", "p", "z")])
        assert n == 2
        assert kg.size == 2

    def test_add_triples_rejects_non_triples(self):
        kg = KnowledgeGraph()
        with pytest.raises(KnowledgeGraphError):
            kg.add_triples([("x", "p", "y")])  # type: ignore[list-item]

    def test_nul_term_is_refused_at_write_time(self, small_graph, tmp_path):
        """Every list read interns the graph's terms into its column store,
        which cannot hold NUL: the write refuses the term, so reads of the
        graph keep working rather than failing on every later pattern."""
        for bad in (("bad\x00", "p", "x"), ("a", "p\x00", "x"), ("a", "p", "x\x00")):
            version = small_graph.version
            with pytest.raises(KnowledgeGraphError, match="NUL"):
                small_graph.add(*bad, score=1.0)
            assert bad not in small_graph and small_graph.version == version
        # A bulk add keeps the triples before the refused one, and bumps
        # the version for them, so no cached list misses them.
        before = small_graph.count(TriplePattern(var("s"), "p", var("o")))
        version = small_graph.version
        with pytest.raises(KnowledgeGraphError, match="NUL"):
            small_graph.add_triples([Triple("d", "p", "e"), Triple("d", "p\x00", "e")])
        assert small_graph.version > version
        assert small_graph.count(TriplePattern(var("s"), "p", var("o"))) == before + 1
        assert small_graph.size == 5
        assert [t.subject for t in small_graph.match(TriplePattern(var("x"), "type", "t1"))] == [
            "a",
            "b",
        ]
        # Outside input arrives through the same check.
        from repro.kg.storage import load_tsv

        path = tmp_path / "nul.tsv"
        path.write_text("a\tp\tb\t1\nc\tp\td\x00\t2\n", encoding="utf-8")
        with pytest.raises(KnowledgeGraphError, match="NUL"):
            load_tsv(path)

    def test_remove(self, small_graph):
        assert small_graph.remove("a", "likes", "b")
        assert small_graph.size == 3
        assert not small_graph.remove("a", "likes", "b")

    def test_version_increments_on_mutation(self, small_graph):
        before = small_graph.version
        small_graph.add("z", "p", "w")
        assert small_graph.version > before

    def test_constructor_with_triples(self):
        kg = KnowledgeGraph([Triple("a", "p", "b", 2.0)])
        assert ("a", "p", "b") in kg


class TestIntrospection:
    def test_contains_triple_and_tuple(self, small_graph):
        assert Triple("a", "type", "t1") in small_graph
        assert ("a", "type", "t1") in small_graph
        assert ("zz", "type", "t1") not in small_graph
        assert "not-a-triple" not in small_graph

    def test_score_of_missing_raises(self, small_graph):
        with pytest.raises(KnowledgeGraphError):
            small_graph.score_of("no", "such", "triple")

    def test_entities_and_predicates(self, small_graph):
        assert "a" in small_graph.entities()
        assert "t1" in small_graph.entities()
        assert small_graph.predicates() == {"type", "likes"}

    def test_iteration_yields_scored_triples(self, small_graph):
        scores = {t.spo: t.score for t in small_graph}
        assert scores[("a", "type", "t1")] == 10.0


class TestMatching:
    def test_match_by_object(self, small_graph):
        pattern = TriplePattern(var("s"), "type", "t1")
        subjects = {t.subject for t in small_graph.match(pattern)}
        assert subjects == {"a", "b"}

    def test_match_fully_bound(self, small_graph):
        pattern = TriplePattern("a", "type", "t1")
        assert small_graph.count(pattern) == 1

    def test_match_all_variables(self, small_graph):
        pattern = TriplePattern(var("s"), var("p"), var("o"))
        assert small_graph.count(pattern) == 4

    def test_count_empty(self, small_graph):
        assert small_graph.count(TriplePattern(var("s"), "type", "t999")) == 0


class TestMatchList:
    def test_sorted_descending_by_score(self, small_graph):
        ml = small_graph.match_list(TriplePattern(var("s"), "type", "t1"))
        assert [t.subject for t in ml.triples] == ["a", "b"]

    def test_normalization_by_max(self, small_graph):
        ml = small_graph.match_list(TriplePattern(var("s"), "type", "t1"))
        assert ml.max_score == 10.0
        assert ml.normalized_scores == (1.0, 0.5)

    def test_empty_match_list(self, small_graph):
        ml = small_graph.match_list(TriplePattern(var("s"), "type", "none"))
        assert not ml
        assert ml.max_score == 0.0

    def test_match_list_reflects_mutation(self, small_graph):
        pattern = TriplePattern(var("s"), "type", "t1")
        before = len(small_graph.match_list(pattern))
        small_graph.add("d", "type", "t1", score=20.0)
        after = small_graph.match_list(pattern)
        assert len(after) == before + 1
        assert after.triples[0].subject == "d"  # new max re-sorts

    def test_tie_break_is_deterministic(self):
        kg = KnowledgeGraph()
        kg.add("b", "p", "o", score=5.0)
        kg.add("a", "p", "o", score=5.0)
        ml = kg.match_list(TriplePattern(var("s"), "p", "o"))
        assert [t.subject for t in ml.triples] == ["a", "b"]

    def test_normalized_scores(self, small_graph):
        ml = small_graph.match_list(TriplePattern(var("s"), "type", "t1"))
        assert ml.normalized_scores == (1.0, 0.5)


class TestColumnStore:
    def test_one_store_per_version(self, small_graph):
        store = small_graph.column_store()
        assert small_graph.column_store() is store
        assert store.n_triples == small_graph.size
        small_graph.remove("x", "y", "z")  # absent: no version step
        assert small_graph.column_store() is store
        small_graph.add("d", "type", "t1", score=20.0)
        moved = small_graph.column_store()
        assert moved is not store
        assert sorted(t.spo for t in moved.iter_triples()) == sorted(
            t.spo for t in small_graph.triples()
        )

    def test_invalidate_caches_drops_the_store(self, small_graph):
        store = small_graph.column_store()
        small_graph.invalidate_caches()
        rebuilt = small_graph.column_store()
        assert rebuilt is not store
        assert rebuilt.term_list() == store.term_list()

    def test_racing_first_calls_get_one_store(self, monkeypatch):
        import threading
        import time

        from repro.kg.columnar import ColumnarStore

        graph = KnowledgeGraph(
            Triple(f"e{i}", "type", f"t{i % 7}", float(i)) for i in range(500)
        )
        builds = []
        intern = ColumnarStore.from_triples.__func__

        def slow_intern(cls, triples):
            builds.append(None)
            time.sleep(0.05)  # widen the race window
            return intern(cls, triples)

        monkeypatch.setattr(ColumnarStore, "from_triples", classmethod(slow_intern))
        barrier = threading.Barrier(8)  # more threads than cores
        stores = [None] * 8

        def first_read(slot):
            barrier.wait(timeout=10)
            stores[slot] = graph.column_store()

        threads = [threading.Thread(target=first_read, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert len(builds) == 1
        assert all(store is stores[0] for store in stores)
        assert stores[0].n_triples == 500
