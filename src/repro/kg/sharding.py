"""Sharded columnar storage: partition a graph, keep answers identical.

Scaling past one match-list index means splitting the triple store into
**shards** that can be scanned, sorted and cached independently — the
plan-level decomposition classic rank-join systems use to parallelise
top-k.  The non-negotiable constraint is *semantic transparency*: a
sharded graph must be indistinguishable from the unsharded one to every
consumer — the statistics catalog, PLANGEN, the operators and the service
caches — down to byte-identical answers and scores.

Two partitioning strategies are provided:

``hash-subject``
    Rows are assigned by a stable hash (CRC-32) of the subject term, so
    the same graph shards the same way in every process.  Star-shaped
    workloads co-locate each candidate answer's triples in one shard.

``score-range``
    Rows are split into contiguous chunks of the global score-descending
    order: shard 0 holds the hottest triples.  Because every match list
    restricted to shard *i* dominates the one restricted to shard *i+1*,
    top-k execution usually terminates before the cold shards' match
    lists are ever built — see
    :func:`repro.operators.shard_merge.build_leaf_scan`.

Transparency is achieved at the match-list level.  Every shard store is a
column slice over the *shared* term dictionary, so per-shard match lists
sort with exactly the Definition-5 key; :func:`merge_match_lists` k-way
merges them back into the global list, bit-for-bit equal (same triples,
same order, same normaliser) to the one an unsharded backend builds.
:class:`ShardedGraph` exposes the full :class:`~repro.kg.graph.KnowledgeGraph`
interface on top of that, with one PR-1 style
:class:`~repro.service.cache.MatchListCache` **per shard** plus the
ordinary external-cache hook for the merged lists.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Literal, NamedTuple

import numpy as np

from repro.errors import KnowledgeGraphError
from repro.kg.columnar import ColumnarGraph, ColumnarPatternIndex, ColumnarStore
from repro.kg.graph import KnowledgeGraph
from repro.kg.index import MatchList, PatternKey, merge_match_lists
from repro.kg.pattern import TriplePattern

__all__ = [
    "DEFAULT_SHARD_CACHE_CAPACITY",
    "SHARD_STRATEGIES",
    "ShardLeafInput",
    "ShardStrategy",
    "ShardedGraph",
    "ShardedPatternIndex",
    "merge_match_lists",
    "partition_rows",
    "partition_store",
    "shard_of_subject",
    "subject_shard_ids",
]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.cache import CacheStats, MatchListCache

#: Supported partitioning strategies.
ShardStrategy = Literal["hash-subject", "score-range"]

SHARD_STRATEGIES: tuple[str, ...] = ("hash-subject", "score-range")

#: Default per-shard match-list cache capacity.
DEFAULT_SHARD_CACHE_CAPACITY = 512


def shard_of_subject(subject: str, n_shards: int) -> int:
    """The shard owning *subject* under the stable CRC-32 subject hash.

    The single-term twin of :func:`subject_shard_ids`, used to route live
    writes (:class:`repro.kg.delta.LiveGraph`) to the shard that would
    hold the triple after a rebuild.
    """
    return zlib.crc32(subject.encode("utf-8")) % n_shards


def subject_shard_ids(store: ColumnarStore, n_shards: int) -> np.ndarray:
    """Shard id per *row* under the stable subject hash.

    CRC-32 of the UTF-8 subject term keeps the assignment independent of
    term-id insertion order and of Python's randomised string hashing, so
    equal graphs shard equally across processes and sessions.  Only the
    terms that actually occur as subjects are hashed — on object-heavy
    graphs that is a small fraction of the dictionary.
    """
    if store.n_triples == 0:
        return np.empty(0, dtype=np.int64)
    terms = store.term_list()
    per_term = np.zeros(store.n_terms, dtype=np.int64)
    for term_id in np.unique(store.subjects).tolist():
        per_term[term_id] = shard_of_subject(terms[term_id], n_shards)
    return per_term[store.subjects]


def partition_rows(
    store: ColumnarStore, n_shards: int, strategy: ShardStrategy
) -> list[np.ndarray]:
    """Row indexes per shard — a disjoint cover of ``range(n_triples)``."""
    if n_shards < 1:
        raise KnowledgeGraphError(f"n_shards must be >= 1, got {n_shards}")
    if strategy not in SHARD_STRATEGIES:
        raise KnowledgeGraphError(
            f"unknown shard strategy {strategy!r}; choose from {SHARD_STRATEGIES}"
        )
    if n_shards == 1:
        return [np.arange(store.n_triples, dtype=np.int64)]
    if strategy == "hash-subject":
        shard_of = subject_shard_ids(store, n_shards)
        return [
            np.nonzero(shard_of == shard)[0] for shard in range(n_shards)
        ]
    # score-range: contiguous chunks of the score-descending order, ties
    # broken by row position (stable sort) for determinism.
    order = np.argsort(-store.scores, kind="stable")
    return [np.sort(chunk) for chunk in np.array_split(order, n_shards)]


def partition_store(
    store: ColumnarStore, n_shards: int, strategy: ShardStrategy
) -> tuple[ColumnarStore, ...]:
    """Slice *store* into shard stores over the **shared** term dictionary.

    Sharing the dictionary (and its lazily built lookup structures) keeps
    per-shard memory at the column slices alone and — crucially — keeps
    term ids and lexicographic ranks identical across shards, so
    per-shard match-list orders interleave into the global order.
    """
    rows_per_shard = partition_rows(store, n_shards, strategy)
    shards = []
    for rows in rows_per_shard:
        shard = ColumnarStore(
            store.terms,
            store.subjects[rows],
            store.predicates[rows],
            store.objects[rows],
            store.scores[rows],
        )
        # Delegate dictionary lookups to the parent *lazily*: nothing is
        # decoded or argsorted here, and whichever shard needs the term
        # map or ranks first resolves to one structure on the parent
        # instead of n_shards rebuilds.  Keeps mmap-attached stores
        # (whose ranks are a snapshot section and whose term map may
        # never be needed) shardable without touching the dictionary.
        shard.share_lexicon_from(store)
        shards.append(shard)
    return tuple(shards)


class ShardLeafInput(NamedTuple):
    """What a lazy per-shard leaf scan needs before building anything.

    ``match_list`` is the shard's cached list when one already exists
    (so the scan starts warm); otherwise ``n_matches``/``max_score``
    come from a vectorised peek — no decode, no sort.  ``graph`` is
    whatever object serves the shard's list on first pull: the shard's
    :class:`~repro.kg.columnar.ColumnarGraph`, or a live overlay slice
    (:mod:`repro.kg.delta`) exposing the same ``match_list`` surface.
    """

    graph: KnowledgeGraph
    n_matches: int
    max_score: float
    match_list: MatchList | None


class ShardedPatternIndex(ColumnarPatternIndex):
    """Serves the *merged* global match list, built shard by shard.

    Candidate retrieval is inherited from the full store (identical
    semantics, one index slice instead of N).  Match-list construction asks each
    shard graph for its list — through the per-shard caches — and merges;
    the merged list is then cached by the inherited machinery (internal
    dict or the attached external cache), so the service layer sees one
    graph with one pattern-keyed cache, exactly as before.
    """

    def _build_match_list(self, pattern: TriplePattern, key: PatternKey) -> MatchList:
        graph: ShardedGraph = self._graph  # type: ignore[assignment]
        parts = [shard.match_list(pattern) for shard in graph.shards]
        return merge_match_lists(key, parts)


class ShardedGraph(ColumnarGraph):
    """A read-only columnar graph partitioned into N independent shards.

    Behaviourally identical to the :class:`~repro.kg.columnar.ColumnarGraph`
    it was built from — every match list it serves is the exact global
    list — but each shard is a fully functional graph of its own (column
    slice + pattern index + bounded match-list cache), which is what the
    engine's sharded leaf scans and the service layer's per-shard caches
    exploit.

    Parameters
    ----------
    store:
        The full column store to partition.
    n_shards:
        Number of shards (>= 1; 1 degenerates to a single-shard wrapper).
    strategy:
        ``"hash-subject"`` or ``"score-range"`` (see the module docs).
    shard_cache_capacity:
        Capacity of each per-shard :class:`~repro.service.cache.MatchListCache`.
    """

    def __init__(
        self,
        store: ColumnarStore,
        n_shards: int,
        strategy: ShardStrategy = "hash-subject",
        name: str = "kg",
        shard_cache_capacity: int = DEFAULT_SHARD_CACHE_CAPACITY,
    ) -> None:
        super().__init__(store, name=name)
        self._index = ShardedPatternIndex(self)
        if strategy not in SHARD_STRATEGIES:
            raise KnowledgeGraphError(
                f"unknown shard strategy {strategy!r}; "
                f"choose from {SHARD_STRATEGIES}"
            )
        self.n_shards = n_shards
        self.strategy: ShardStrategy = strategy
        shard_stores = partition_store(store, n_shards, strategy)
        self.shards: tuple[ColumnarGraph, ...] = tuple(
            ColumnarGraph(shard_store, name=f"{name}#s{i}")
            for i, shard_store in enumerate(shard_stores)
        )
        # One PR-1 cache per shard: lazy import keeps kg -> service a
        # runtime (not import-time) edge, avoiding the package cycle.
        from repro.service.cache import MatchListCache

        self.shard_caches: tuple[MatchListCache, ...] = tuple(
            MatchListCache(shard_cache_capacity) for _ in self.shards
        )
        for shard, cache in zip(self.shards, self.shard_caches):
            shard.attach_match_list_cache(cache)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(  # type: ignore[override]
        cls,
        graph: KnowledgeGraph,
        n_shards: int,
        strategy: ShardStrategy = "hash-subject",
        name: str | None = None,
        shard_cache_capacity: int = DEFAULT_SHARD_CACHE_CAPACITY,
    ) -> "ShardedGraph":
        """Shard any :class:`KnowledgeGraph` (freezing to columns first)."""
        if isinstance(graph, ColumnarGraph):
            store = graph.store
        else:
            store = ColumnarStore.from_triples(graph.triples())
        return cls(
            store,
            n_shards,
            strategy=strategy,
            name=name or graph.name,
            shard_cache_capacity=shard_cache_capacity,
        )

    # ------------------------------------------------------------------
    # Shard-aware access
    # ------------------------------------------------------------------
    def shard_sizes(self) -> tuple[int, ...]:
        """Triples per shard (sums to :attr:`size`)."""
        return tuple(shard.size for shard in self.shards)

    def shard_leaf_inputs(
        self, pattern: TriplePattern
    ) -> tuple[float, list[ShardLeafInput]]:
        """Per-shard leaf-scan inputs plus the global normaliser.

        For each shard: the cached match list when present, otherwise a
        vectorised peek at ``(n_matches, max raw score)`` — so the caller
        can defer (possibly forever, via threshold early termination)
        the expensive decode of cold shards.  The returned
        global maximum is exactly :meth:`match_list`'s normaliser.
        """
        key = pattern.list_key()
        inputs: list[ShardLeafInput] = []
        global_max = 0.0
        for shard, cache in zip(self.shards, self.shard_caches):
            # One version-aware lookup per shard: a plain `get` both serves
            # warm lists and counts the miss, where a version-blind
            # `__contains__` pre-check would skew the cache statistics.
            match_list = cache.get(key, shard.version)
            if match_list is not None:
                n_matches, local_max = len(match_list), match_list.max_score
            else:
                n_matches, local_max = shard.peek_match(pattern)
            inputs.append(ShardLeafInput(shard, n_matches, local_max, match_list))
            if local_max > global_max:
                global_max = local_max
        return global_max, inputs

    def shard_cache_stats(self) -> "CacheStats":
        """Aggregated counters over every per-shard cache."""
        from repro.service.cache import CacheStats

        stats = [cache.stats() for cache in self.shard_caches]
        return CacheStats(
            hits=sum(s.hits for s in stats),
            misses=sum(s.misses for s in stats),
            evictions=sum(s.evictions for s in stats),
            invalidations=sum(s.invalidations for s in stats),
            size=sum(s.size for s in stats),
            capacity=sum(s.capacity for s in stats),
        )

    def invalidate_caches(self) -> None:
        """Drop the merged-list caches *and* every shard's caches."""
        super().invalidate_caches()
        for shard in self.shards:
            shard.invalidate_caches()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedGraph(name={self.name!r}, size={self.size}, "
            f"n_shards={self.n_shards}, strategy={self.strategy!r})"
        )
