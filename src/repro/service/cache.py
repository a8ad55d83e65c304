"""One bounded, version-tagged LRU core for every service-layer cache.

The runner caches match lists and whole answers, both through
:class:`VersionedLRU`: every entry is tagged with the graph
version it was built against, a ``get`` at another version misses and
drops the entry, and the first ``put`` at a newer version sweeps every
older entry at once (:meth:`~VersionedLRU.purge_stale`), so a version
bump reclaims memory eagerly instead of waiting out the LRU.  A lock
guards every operation, so threads serving through one runner share one
cache.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Generic, Hashable, TypeVar

from repro.errors import KnowledgeGraphError
from repro.kg.index import MatchList

DEFAULT_CAPACITY = 2048

V = TypeVar("V")


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of cache effectiveness counters."""

    hits: int
    misses: int
    evictions: int
    invalidations: int
    size: int
    capacity: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when untouched)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float | int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": self.hit_rate,
        }

    def since(self, before: "CacheStats") -> "CacheStats":
        """Counters attributable to the window after *before* was taken.

        Size and capacity are point-in-time readings, so they come from
        ``self``; the monotone counters are differenced.  This is how
        :class:`~repro.service.runner.WorkloadRunner` attributes cache
        result-cache activity to one batch.
        """
        return CacheStats(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            evictions=self.evictions - before.evictions,
            invalidations=self.invalidations - before.invalidations,
            size=self.size,
            capacity=self.capacity,
        )


class VersionedLRU(Generic[V]):
    """Thread-safe LRU of at most *capacity* version-tagged entries.

    Entries dropped as stale, by a :meth:`get` or a sweep, count as
    ``invalidations``.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, tuple[int, V]] = OrderedDict()
        self._latest_version: int | None = None
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def get(self, key: Hashable, version: int) -> V | None:
        """The value cached for *key* at *version*, or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            entry_version, value = entry
            if entry_version != version:
                # Built against another graph state: stale, drop it.
                del self._entries[key]
                self._invalidations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, version: int, value: V) -> None:
        """Cache *value* for *key*, tagged with *version*.

        *version* must be captured **before** the value was computed: if
        the graph moved on meanwhile, the entry lands tagged with the
        superseded version and the next :meth:`get` discards it.  A late
        put at an old version never sweeps newer entries.
        """
        with self._lock:
            if self._latest_version is None or version > self._latest_version:
                if self._latest_version is not None:
                    self._purge_stale_locked(version)
                self._latest_version = version
            self._entries[key] = (version, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def purge_stale(self, current_version: int) -> int:
        """Drop every entry not tagged *current_version*; returns how many.

        A writer (:meth:`repro.service.WorkloadRunner.apply_updates`)
        calls this right after a mutation lands.
        """
        with self._lock:
            if self._latest_version is None or current_version > self._latest_version:
                self._latest_version = current_version
            return self._purge_stale_locked(current_version)

    def _purge_stale_locked(self, current_version: int) -> int:
        stale = [
            key
            for key, (version, _) in self._entries.items()
            if version != current_version
        ]
        for key in stale:
            del self._entries[key]
        self._invalidations += len(stale)
        return len(stale)

    def clear(self) -> None:
        """Drop every entry and the version floor; counters survive.

        For when versions stop meaning what they did (the served graph
        object is replaced): afterwards a put at any version is accepted.
        """
        with self._lock:
            self._forget_locked()

    def _forget_locked(self) -> None:
        self._entries.clear()
        self._latest_version = None

    def items(self) -> list[tuple[Hashable, int, V]]:
        """A snapshot of ``(key, version, value)``, least recent first."""
        with self._lock:
            return [
                (key, version, value)
                for key, (version, value) in self._entries.items()
            ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                size=len(self._entries),
                capacity=self.capacity,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"{type(self).__name__}(size={s.size}/{s.capacity}, hits={s.hits}, "
            f"misses={s.misses}, hit_rate={s.hit_rate:.2f})"
        )


class MatchListCache(VersionedLRU[MatchList]):
    """Score-sorted match lists keyed by the pattern's
    :meth:`~repro.kg.pattern.TriplePattern.list_key`, for one graph: the
    bounded, shared :class:`~repro.kg.index.MatchListCacheHook`.

    >>> cache = MatchListCache(capacity=256)
    >>> graph.attach_match_list_cache(cache)  # doctest: +SKIP
    """

    _owner: "weakref.ref[object] | None" = None

    def bind(self, owner: object) -> None:
        """Tie this cache to one graph (called on attach).

        Entries are keyed by list key and graph version only, so one
        cache serving two graphs would hand one graph's triples to the
        other.  Binding rejects that outright; if the previous owner has
        been garbage collected the cache is cleared and rebound.
        """
        with self._lock:
            if self._owner is not None:
                previous = self._owner()
                if previous is owner:
                    return
                if previous is not None:
                    raise KnowledgeGraphError(
                        "MatchListCache is already attached to a different "
                        "graph; use one cache per graph"
                    )
                self._forget_locked()  # old owner is gone, entries are orphans
            self._owner = weakref.ref(owner)

    def release(self, owner: object) -> None:
        """Detach from *owner* so the cache can serve another graph.

        Entries are cleared (they describe the old graph) but counters
        survive.  A no-op when the cache is bound to a different, still
        living owner — releasing someone else's binding would reroute
        their lookups.  Used by
        :meth:`repro.service.WorkloadRunner.apply_updates` when it wraps
        the served graph in a live overlay.
        """
        with self._lock:
            if self._owner is None:
                return
            previous = self._owner()
            if previous is None or previous is owner:
                self._forget_locked()
                self._owner = None
