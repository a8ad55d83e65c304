"""A shared, bounded, version-aware LRU cache for match lists.

The per-graph :class:`~repro.kg.index.PatternIndex` already memoises match
lists, but its dict is unbounded, private to one graph object, and wiped
wholesale on mutation.  Workload-scale serving wants the opposite trade:
one bounded cache shared across every query of a batch (and across the
engines of concurrent workers), with hit/miss statistics the
:class:`~repro.service.report.WorkloadReport` can surface.

:class:`MatchListCache` implements the
:class:`~repro.kg.index.MatchListCacheHook` protocol: every ``get``/``put``
carries the graph version, so entries built against an older graph simply
miss and are replaced — no invalidation callback choreography needed.  On
the first ``put`` at a newer version the cache additionally sweeps every
superseded entry at once (:meth:`MatchListCache.purge_stale`), so a
version bump reclaims memory eagerly instead of waiting out the LRU.
All operations are guarded by a lock, making the cache safe to share
between :class:`~concurrent.futures.ThreadPoolExecutor` workers.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import KnowledgeGraphError
from repro.kg.index import ListKey, MatchList

DEFAULT_CAPACITY = 2048


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
        activity (match-list and result caches alike) to one batch.
        """
        return CacheStats(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            evictions=self.evictions - before.evictions,
            invalidations=self.invalidations - before.invalidations,
            size=self.size,
            capacity=self.capacity,
        )


class MatchListCache:
    """Thread-safe LRU over score-sorted match lists, keyed by the
    pattern's :meth:`~repro.kg.pattern.TriplePattern.list_key`.

    Parameters
    ----------
    capacity:
        Maximum number of match lists retained; least recently used
        entries are evicted beyond it.

    >>> cache = MatchListCache(capacity=256)
    >>> graph.attach_match_list_cache(cache)  # doctest: +SKIP
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[ListKey, tuple[int, MatchList]] = OrderedDict()
        self._owner: "weakref.ref[object] | None" = None
        self._latest_version: int | None = None
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    # ------------------------------------------------------------------
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
                self._entries.clear()  # old owner is gone, entries are orphans
                self._latest_version = None
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
                self._entries.clear()
                self._latest_version = None
                self._owner = None

    # ------------------------------------------------------------------
    # MatchListCacheHook protocol
    # ------------------------------------------------------------------
    def get(self, key: ListKey, version: int) -> MatchList | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            entry_version, match_list = entry
            if entry_version != version:
                # Built against another graph state: stale, drop it.
                del self._entries[key]
                self._invalidations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return match_list

    def put(self, key: ListKey, version: int, match_list: MatchList) -> None:
        with self._lock:
            if self._latest_version is None or version > self._latest_version:
                # First put at a newer graph version: eagerly sweep every
                # entry built against a superseded version instead of
                # letting them linger until LRU eviction or a stale get.
                if self._latest_version is not None:
                    self._purge_stale_locked(version)
                self._latest_version = version
            self._entries[key] = (version, match_list)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def purge_stale(self, current_version: int) -> int:
        """Eagerly drop every entry not built against *current_version*.

        Counted as invalidations (they are — the graph moved on), same
        as the lazy per-``get`` drops.  Returns how many entries went.
        Also called automatically by :meth:`put` on a version bump;
        explicit calls let a writer (e.g.
        :meth:`repro.service.WorkloadRunner.apply_updates`) reclaim the
        memory before any new list is built.
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

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        """Drop all entries (counters are kept; see :meth:`reset_stats`)."""
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self._hits = self._misses = 0
            self._evictions = self._invalidations = 0

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
            f"MatchListCache(size={s.size}/{s.capacity}, hits={s.hits}, "
            f"misses={s.misses}, hit_rate={s.hit_rate:.2f})"
        )
