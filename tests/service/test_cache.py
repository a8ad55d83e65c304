"""MatchListCache over a graph: binding, attach/detach, version-driven
invalidation.  The LRU contract itself is in ``test_versioned_lru.py``."""

from __future__ import annotations

import pytest

from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, Variable
from repro.service import MatchListCache

VAR = Variable("s")


def pattern(type_name: str) -> TriplePattern:
    return TriplePattern(VAR, "rdf:type", type_name)


def test_graph_mutation_invalidates_entries(music_graph):
    cache = MatchListCache(capacity=8)
    music_graph.attach_match_list_cache(cache)

    before = music_graph.match_list(pattern("singer"))
    assert before.triples[0].subject == "shakira"

    # Mutation bumps the version counter; the stale entry must not be
    # served even though it is still resident.
    music_graph.add("newcomer", "rdf:type", "singer", score=500.0)
    after = music_graph.match_list(pattern("singer"))

    assert after is not before
    assert after.triples[0].subject == "newcomer"
    stats = cache.stats()
    assert stats.invalidations == 1


def test_detach_restores_internal_caching(music_graph):
    cache = MatchListCache(capacity=8)
    music_graph.attach_match_list_cache(cache)
    assert music_graph.match_list_cache is cache

    music_graph.detach_match_list_cache()
    assert music_graph.match_list_cache is None

    music_graph.match_list(pattern("singer"))
    assert cache.stats().lookups == 0  # detached cache sees no traffic


def test_explicit_invalidate_caches(music_graph):
    music_graph.match_list(pattern("singer"))
    assert music_graph.index_stats()["match_lists"] == 1
    music_graph.invalidate_caches()
    assert music_graph.index_stats()["match_lists"] == 0
    # And the next lookup rebuilds transparently.
    assert len(music_graph.match_list(pattern("singer"))) == 4


def test_shared_across_graph_handles_and_engines(music_graph, music_rules):
    """Two engines over one graph share one cache (the runner's layout).
    Only the tuple pipeline reads string match lists, so both name it."""
    from repro.core.engine import SpecQPEngine

    cache = MatchListCache(capacity=64)
    one = SpecQPEngine(
        music_graph, music_rules, match_list_cache=cache, executor="tuple"
    )
    two = SpecQPEngine(
        music_graph, music_rules, match_list_cache=cache, executor="tuple"
    )
    assert one.match_list_cache is two.match_list_cache

    query = "SELECT ?s WHERE { ?s 'rdf:type' <singer>. ?s 'rdf:type' <lyricist> }"
    first = one.query(query, k=3)
    hits_after_first = cache.stats().hits
    second = two.query(query, k=3)

    assert [a.bindings for a in first.answers] == [a.bindings for a in second.answers]
    assert cache.stats().hits > hits_after_first


def test_cache_refuses_second_graph(music_graph):
    """Entries carry no graph identity, so one cache serves one graph."""
    from repro.errors import KnowledgeGraphError

    cache = MatchListCache(capacity=8)
    music_graph.attach_match_list_cache(cache)
    music_graph.match_list(pattern("singer"))

    other = KnowledgeGraph(name="other")
    other.add("bob", "rdf:type", "singer", score=1.0)
    with pytest.raises(KnowledgeGraphError):
        other.attach_match_list_cache(cache)
    # The second graph must not see the first graph's triples.
    assert other.match_list(pattern("singer")).triples[0].subject == "bob"


def test_invalidate_caches_clears_attached_external_cache(music_graph):
    """invalidate_caches() is the cold-start path: version tags alone
    would let external entries survive (the version does not change)."""
    cache = MatchListCache(capacity=8)
    music_graph.attach_match_list_cache(cache)
    music_graph.match_list(pattern("singer"))
    assert len(cache) == 1

    music_graph.invalidate_caches()
    assert len(cache) == 0
    music_graph.match_list(pattern("singer"))
    assert cache.stats().hits == 0  # rebuilt, not served stale


def test_release_allows_rebinding(music_graph):
    from repro.errors import KnowledgeGraphError

    cache = MatchListCache(capacity=8)
    music_graph.attach_match_list_cache(cache)
    music_graph.match_list(pattern("singer"))
    music_graph.detach_match_list_cache()

    other = KnowledgeGraph(name="other")
    other.add("bob", "rdf:type", "singer", score=1.0)
    with pytest.raises(KnowledgeGraphError):
        other.attach_match_list_cache(cache)  # still bound

    cache.release(music_graph)
    assert len(cache) == 0  # old graph's entries went with the binding
    other.attach_match_list_cache(cache)
    assert other.match_list(pattern("singer")).triples[0].subject == "bob"


def test_release_ignores_non_owner(music_graph):
    cache = MatchListCache(capacity=8)
    music_graph.attach_match_list_cache(cache)
    music_graph.match_list(pattern("singer"))
    cache.release(object())  # not the owner: binding and entries survive
    assert len(cache) == 1
    assert music_graph.match_list_cache is cache
