"""The VersionedLRU contract, once for every cache built on it.

The match-list, plan and result caches are thin uses of one core, so the
LRU bound, the version-tagging rule, the purge path and the statistics
shape are checked here for the core and each wrapper alike.  What a
wrapper adds (a graph binding, a default capacity) is tested with it.
"""

from __future__ import annotations

import pytest

from repro.service import MatchListCache, ResultCache
from repro.service.cache import VersionedLRU

CACHES = [VersionedLRU, MatchListCache, ResultCache]


@pytest.fixture(params=CACHES, ids=lambda cls: cls.__name__)
def make(request):
    """A factory for the cache class under test."""
    return request.param


def value(label: str) -> object:
    """Values are opaque to the core: any object will do."""
    return ("value", label)


@pytest.mark.parametrize("capacity", [0, -1])
def test_capacity_must_be_positive(make, capacity):
    with pytest.raises(ValueError, match="capacity must be >= 1"):
        make(capacity)
    assert make(3).capacity == 3


def test_hit_and_miss_counts(make):
    cache = make(4)
    held = value("a")
    assert cache.get("a", 1) is None
    cache.put("a", 1, held)
    assert cache.get("a", 1) is held
    assert "a" in cache and len(cache) == 1
    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.lookups) == (1, 1, 2)
    assert stats.hit_rate == 0.5
    assert (stats.size, stats.capacity) == (1, 4)
    assert make(4).stats().hit_rate == 0.0  # untouched


def test_lru_order(make):
    cache = make(2)
    cache.put("a", 1, value("a"))
    cache.put("b", 1, value("b"))
    cache.get("a", 1)  # refresh a: b becomes least recent
    cache.put("c", 1, value("c"))
    assert [key for key, _, _ in cache.items()] == ["a", "c"]
    assert "b" not in cache
    assert cache.stats().evictions == 1


def test_items_snapshot_entries_with_their_tags(make):
    cache = make(4)
    held = value("a")
    cache.put("a", 3, held)
    assert cache.items() == [("a", 3, held)]


def test_stale_get_misses_and_drops_the_entry(make):
    cache = make(4)
    cache.put("a", 1, value("a"))
    assert cache.get("a", 2) is None
    assert "a" not in cache
    stats = cache.stats()
    assert (stats.misses, stats.invalidations) == (1, 1)


def test_newer_put_sweeps_older_entries(make):
    cache = make(8)
    cache.put("old1", 1, value("old1"))
    cache.put("old2", 1, value("old2"))
    cache.put("new", 2, value("new"))
    assert [key for key, _, _ in cache.items()] == ["new"]
    assert cache.stats().invalidations == 2


def test_purge_stale_returns_its_count(make):
    cache = make(8)
    for i in range(3):
        cache.put(f"k{i}", 5, value(str(i)))
    assert cache.purge_stale(5) == 0
    assert cache.purge_stale(6) == 3
    assert len(cache) == 0
    assert cache.stats().invalidations == 3


def test_late_put_at_an_old_version_keeps_newer_entries(make):
    """An in-flight reader that started before a write finishes late: its
    put lands tagged with the superseded version, sweeps nothing, and is
    dropped by the next get at the current version."""
    cache = make(8)
    cache.put("new", 2, value("new"))
    cache.put("late", 1, value("late"))
    assert "new" in cache and "late" in cache
    cache.put("newer", 2, value("newer"))  # not newer than the floor
    assert "late" in cache
    assert cache.get("late", 2) is None
    assert [key for key, _, _ in cache.items()] == ["new", "newer"]


def test_clear_drops_entries_and_resets_the_floor(make):
    cache = make(4)
    cache.put("a", 7, value("a"))
    cache.get("b", 7)
    cache.clear()
    assert len(cache) == 0
    assert cache.stats().misses == 1  # counters survive
    # After clear() an entry at a *lower* version is accepted and served:
    # the served graph object was replaced, so the counter's meaning reset.
    cache.put("b", 3, value("b"))
    assert cache.get("b", 3) is not None
    cache.put("c", 4, value("c"))  # and 3 is the floor a newer put sweeps
    assert [key for key, _, _ in cache.items()] == ["c"]


def test_since_differences_counters_and_keeps_readings(make):
    cache = make(2)
    cache.put("a", 1, value("a"))
    cache.get("a", 1)
    before = cache.stats()
    cache.get("a", 1)
    cache.get("x", 1)
    cache.put("b", 1, value("b"))
    cache.put("c", 1, value("c"))  # evicts a
    cache.put("d", 2, value("d"))  # sweeps b and c
    window = cache.stats().since(before)
    assert (window.hits, window.misses) == (1, 1)
    assert (window.evictions, window.invalidations) == (1, 2)
    assert (window.size, window.capacity) == (1, 2)
    assert window.as_dict()["hit_rate"] == 0.5
