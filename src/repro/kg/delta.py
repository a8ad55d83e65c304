"""Delta-overlay live updates over the immutable storage backends.

The columnar and sharded backends trade mutability for scale: their
stores are frozen at construction, so before this module, absorbing a
single new triple meant ``thaw()`` plus a full rebuild of columns, match
lists and statistics.  :class:`LiveGraph` restores the write path with
the classic LSM split — an **immutable base** (any
:class:`~repro.kg.graph.KnowledgeGraph`, typically a
:class:`~repro.kg.columnar.ColumnarGraph` or
:class:`~repro.kg.sharding.ShardedGraph`) under a **mutable delta**:

* *adds/overwrites* live in a small object-backed graph of their own, so
  per-pattern sorted delta match lists come from the ordinary
  :class:`~repro.kg.index.PatternIndex` machinery;
* *removes* become **tombstones**, keys masked out of every base read;
* reads serve the exact Definition-5 view by filtering superseded rows
  out of the (cached, immutable) base match list and k-way merging the
  delta's sorted adds back in — the same
  :func:`~repro.kg.index.merge_match_lists` that reassembles shard
  slices, so overlay reads are bit-for-bit equal to a from-scratch
  rebuild of the final triple set;
* the block pipeline and the join-cardinality counts never see those
  string lists: over a store-backed base, :meth:`LiveGraph.overlay_rows`
  hands :class:`~repro.operators.block.EncodedMatchList` the same view as
  surviving base-store rows plus the delta's few adds and their splice
  positions, all from id columns;
* :meth:`LiveGraph.compact` folds the delta into a fresh immutable base
  (vectorised through :meth:`~repro.kg.columnar.ColumnarStore.with_updates`,
  snapshot-compatible) once it crosses ``compact_threshold`` — the
  LSM merge step.  Range-partitioned bases re-bin on compaction because
  the new base re-partitions from scratch.

Versioning spans base swaps: the overlay's :attr:`~LiveGraph.version`
counter is monotone across every mutation *and* every compaction, so the
version-aware caches (:class:`~repro.service.cache.MatchListCache`, the
plan and result caches) invalidate exactly as they do for a mutated
object graph; the encoded list store and the statistics catalog drop
only what :meth:`LiveGraph.touched_since` says a write touched.

Sharded bases keep their lazy execution: writes are routed to the owning
shard's delta (stable subject hash, or the score-range bin whose floor
the new score clears), and :meth:`LiveGraph.shard_leaf_inputs` serves
per-shard live slices — filtered base list merged with that shard's
delta — so :func:`repro.operators.shard_merge.build_leaf_scan` keeps
threshold early termination over the overlay.

The base must not be mutated behind the overlay's back; ``LiveGraph``
treats it as frozen (columnar and sharded bases enforce that themselves).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import takewhile
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import KnowledgeGraphError
from repro.kg.graph import KnowledgeGraph
from repro.kg.index import MatchList, PatternIndex, PatternKey, merge_match_lists
from repro.kg.pattern import TriplePattern
from repro.kg.triple import Triple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kg.columnar import ColumnarGraph, ColumnarStore
    from repro.kg.sharding import ShardedGraph, ShardLeafInput

#: A fully-bound triple key.
Spo = tuple[str, str, str]

#: Journal bound: touched keys kept over all retained version steps.
#: Past it the oldest steps go and :meth:`LiveGraph.touched_since`
#: answers ``None`` for the versions before them — a full purge for a
#: lagging consumer instead of unbounded memory.
MAX_TOUCHED_JOURNAL = 65536


@dataclass(frozen=True)
class GraphUpdate:
    """One mutation: ``+`` adds or overwrites a scored triple, ``-`` removes.

    The unit the live-update surfaces exchange — the mutation TSV parser
    (:func:`repro.kg.storage.iter_update_tsv`), :meth:`LiveGraph.apply_updates`
    and :meth:`repro.service.WorkloadRunner.apply_updates` all speak it.
    """

    op: str
    subject: str
    predicate: str
    object: str
    score: float = 1.0

    def __post_init__(self) -> None:
        if self.op not in ("+", "-"):
            raise KnowledgeGraphError(
                f"update op must be '+' or '-', got {self.op!r}"
            )
        if self.op == "+" and not math.isfinite(self.score):
            # A non-finite score poisons every normalised match list and
            # makes the compacted base fail snapshot validation; reject it
            # here so the programmatic path matches the TSV parser.
            raise KnowledgeGraphError(
                f"update score must be finite, got {self.score!r}"
            )

    @classmethod
    def add(
        cls, subject: str, predicate: str, object_: str, score: float = 1.0
    ) -> "GraphUpdate":
        """An add/overwrite update."""
        return cls("+", subject, predicate, object_, float(score))

    @classmethod
    def remove(cls, subject: str, predicate: str, object_: str) -> "GraphUpdate":
        """A removal update (the score field is ignored)."""
        return cls("-", subject, predicate, object_)

    @property
    def spo(self) -> Spo:
        return (self.subject, self.predicate, self.object)

    def triple(self) -> Triple:
        """The scored triple a ``+`` update carries."""
        if self.op != "+":
            raise KnowledgeGraphError("only '+' updates carry a triple")
        return Triple(self.subject, self.predicate, self.object, self.score)


class LivePatternIndex(PatternIndex):
    """Serves the overlay-merged view of a :class:`LiveGraph`.

    Candidates are the base's candidates with superseded rows masked out
    plus the delta's; match lists are the base list (immutable, so the
    base's own caches stay warm across live mutations) filtered and
    merged with the delta list.  The inherited machinery — the per-key
    match-list cache, external cache hooks, version-staleness checks —
    keys on the *overlay's* monotone version, so every mutation and
    every compaction invalidates exactly once.
    """

    def candidates(self, key: PatternKey) -> list[Triple]:
        """Triples agreeing with the bound positions of *key* (live view)."""
        self._invalidate_if_stale()
        graph: LiveGraph = self._graph  # type: ignore[assignment]
        superseded = graph._superseded()
        base = graph.base._index.candidates(key)
        merged = (
            [t for t in base if t.spo not in superseded] if superseded else list(base)
        )
        merged.extend(graph.delta._index.candidates(key))
        return merged

    def _build_match_list(self, pattern: TriplePattern, key: PatternKey) -> MatchList:
        graph: LiveGraph = self._graph  # type: ignore[assignment]
        delta = graph.delta
        delta_list = delta.match_list(pattern) if delta.size else None
        return graph._overlay(key, graph.base.match_list(pattern), delta_list)

    def stats(self) -> dict[str, int]:
        base = super().stats()
        base["live"] = 1
        return base


class _LiveShardSlice:
    """One shard's live view: base slice minus superseded rows, plus the
    delta adds routed to that shard.

    Implements exactly the surface a lazy
    :class:`~repro.operators.shard_merge.ShardScan` pulls on first build
    (``match_list``); the shard's own bounded cache still serves the
    base part, so repeated queries over a dirty pattern re-filter a warm
    list instead of re-decoding columns.
    """

    __slots__ = ("_live", "_shard_id")

    def __init__(self, live: "LiveGraph", shard_id: int) -> None:
        self._live = live
        self._shard_id = shard_id

    @property
    def name(self) -> str:
        return f"{self._live.name}#s{self._shard_id}+delta"

    def match_list(self, pattern: TriplePattern) -> MatchList:
        live = self._live
        shard = live.base.shards[self._shard_id]
        delta_graph = live._shard_adds[self._shard_id]
        delta_list = delta_graph.match_list(pattern) if delta_graph.size else None
        return live._overlay(pattern.key(), shard.match_list(pattern), delta_list)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_LiveShardSlice({self.name})"


class LiveGraph(KnowledgeGraph):
    """A mutable delta overlay over an immutable base graph.

    Presents the full :class:`~repro.kg.graph.KnowledgeGraph` interface —
    mutation included — over any frozen backend, serving exact
    Definition-5 match lists for the *merged* view.  See the module docs
    for the design; the headline contract is **rebuild equivalence**:
    after any interleaving of adds, overwrites and removes, every match
    list (triples, order, max score, normalised scores) is bit-for-bit
    the list a graph freshly built from the final triple set serves.

    Parameters
    ----------
    base:
        The frozen graph to overlay.  Sharded bases keep lazy per-shard
        execution (see :meth:`shard_leaf_inputs`); object-backed bases
        work too but must not be mutated directly afterwards.
    compact_threshold:
        Auto-compact once ``delta_size`` (adds + tombstones) reaches this
        bound; ``None`` (default) compacts only on explicit
        :meth:`compact`.

    >>> from repro.kg import ColumnarGraph, KnowledgeGraph, LiveGraph
    >>> kg = KnowledgeGraph()
    >>> kg.add("shakira", "rdf:type", "singer", score=120.0)
    >>> live = LiveGraph(ColumnarGraph.from_graph(kg))
    >>> live.add("freddie", "rdf:type", "singer", score=115.0)
    >>> live.size
    2
    """

    def __init__(
        self,
        base: KnowledgeGraph,
        name: str | None = None,
        compact_threshold: int | None = None,
    ) -> None:
        if isinstance(base, LiveGraph):
            raise KnowledgeGraphError(
                "base is already a LiveGraph; compact() it instead of stacking overlays"
            )
        if compact_threshold is not None and compact_threshold < 1:
            raise KnowledgeGraphError(
                f"compact_threshold must be >= 1, got {compact_threshold}"
            )
        self.name = name or base.name
        self.compact_threshold = compact_threshold
        self._base = base
        self._tombstones: set[Spo] = set()
        self._overwrites: set[Spo] = set()
        self._superseded_cache: frozenset[Spo] | None = None
        #: Packed int64 twin of the superseded set (1-tuple when built;
        #: holds None inside when the base dictionary cannot pack).
        self._superseded_packed: tuple | None = None
        self._version = base.version
        #: Keys touched since the last step, then ``(version, keys the step
        #: to it touched)`` oldest first, answerable from ``_journal_floor``.
        self._touched: set[Spo] = set()
        self._journal: deque[tuple[int, frozenset[Spo]]] = deque()
        self._journal_size = 0
        self._journal_floor = self._version
        self._compactions = 0
        self._index = LivePatternIndex(self)
        self._reset_delta()

    def _reset_delta(self) -> None:
        """Fresh (empty) delta structures over the current base."""
        self._adds = KnowledgeGraph(name=f"{self.name}#delta")
        self._tombstones.clear()
        self._overwrites.clear()
        self._superseded_cache = None
        self._superseded_packed = None
        self._shard_adds: list[KnowledgeGraph] | None = None
        self._delta_shard: dict[Spo, int] = {}
        self._score_floors: tuple[float | None, ...] | None = None
        if getattr(self._base, "shards", None) is not None:
            self._shard_adds = [
                KnowledgeGraph(name=f"{self.name}#delta-s{i}")
                for i in range(self._base.n_shards)  # type: ignore[attr-defined]
            ]
            # Presence of this attribute is what routes leaf construction
            # through the lazy per-shard merge (build_leaf_scan probes it),
            # so only sharded bases expose it.
            self.shard_leaf_inputs = self._live_shard_leaf_inputs

    # ------------------------------------------------------------------
    # Mutation (the write path)
    # ------------------------------------------------------------------
    def add_triple(self, triple: Triple) -> None:
        if not isinstance(triple, Triple):
            raise KnowledgeGraphError(f"expected Triple, got {type(triple).__name__}")
        self._apply_add(triple)
        self._bump_version()
        self._maybe_compact()

    def add_triples(self, triples: Iterable[Triple]) -> int:
        count = 0
        try:
            for triple in triples:
                if not isinstance(triple, Triple):
                    raise KnowledgeGraphError(
                        f"expected Triple, got {type(triple).__name__}"
                    )
                self._apply_add(triple)
                count += 1
                self._maybe_compact()
        finally:
            # A mid-stream failure must still bump the version: some
            # triples landed, and version-tagged caches would otherwise
            # serve the pre-mutation view forever.
            if count:
                self._bump_version()
        if count:
            self._maybe_compact()
        return count

    def remove(self, subject: str, predicate: str, obj: str) -> bool:
        removed = self._apply_remove((subject, predicate, obj))
        if removed:
            self._bump_version()
            self._maybe_compact()
        return removed

    def apply_updates(self, updates: Iterable[GraphUpdate]) -> dict[str, int]:
        """Apply a batch of updates in order; one version bump per batch.

        Returns counters: ``adds`` (including overwrites), ``removes``
        that hit a live triple, and ``absent_removes`` that were no-ops.
        """
        adds = removes = absent = 0
        try:
            for update in updates:
                if not isinstance(update, GraphUpdate):
                    raise KnowledgeGraphError(
                        f"expected GraphUpdate, got {type(update).__name__}"
                    )
                if update.op == "+":
                    self._apply_add(update.triple())
                    adds += 1
                elif self._apply_remove(update.spo):
                    removes += 1
                else:
                    absent += 1
                # Checked per update, not per batch: the threshold bounds
                # peak delta memory even for one huge streamed batch.
                self._maybe_compact()
        finally:
            # A mid-stream failure (e.g. a malformed mutation-TSV line
            # raising from the iterator) must still bump the version —
            # earlier updates landed, and stale version tags would pin
            # every cache to the pre-mutation view.
            if adds or removes:
                self._bump_version()
        return {"adds": adds, "removes": removes, "absent_removes": absent}

    def _apply_add(self, triple: Triple) -> None:
        spo = triple.spo
        self._tombstones.discard(spo)
        if self._shard_adds is not None:
            # Re-route: an overwrite may change the score-range bin.
            previous = self._delta_shard.pop(spo, None)
            if previous is not None:
                self._shard_adds[previous].remove(*spo)
            shard = self._route(triple)
            self._shard_adds[shard].add_triple(triple)
            self._delta_shard[spo] = shard
        self._adds.add_triple(triple)
        if spo in self._base:
            self._overwrites.add(spo)
        self._touched.add(spo)
        self._superseded_cache = None
        self._superseded_packed = None

    def _bump_version(self) -> None:
        """One version step, journaling the keys it touched."""
        self._version += 1
        self._journal.append((self._version, frozenset(self._touched)))
        self._journal_size += len(self._touched)
        self._touched = set()
        while self._journal_size > MAX_TOUCHED_JOURNAL:
            self._journal_floor, keys = self._journal.popleft()
            self._journal_size -= len(keys)

    def _apply_remove(self, spo: Spo) -> bool:
        removed = False
        if spo in self._adds:
            self._adds.remove(*spo)
            self._overwrites.discard(spo)
            if self._shard_adds is not None:
                self._shard_adds[self._delta_shard.pop(spo)].remove(*spo)
            removed = True
        if spo in self._base and spo not in self._tombstones:
            self._tombstones.add(spo)
            removed = True
        if removed:
            self._touched.add(spo)
            self._superseded_cache = None
            self._superseded_packed = None
        return removed

    def _route(self, triple: Triple) -> int:
        """The shard that owns *triple* under the base's strategy."""
        base: "ShardedGraph" = self._base  # type: ignore[assignment]
        if base.strategy == "hash-subject":
            from repro.kg.sharding import shard_of_subject

            return shard_of_subject(triple.subject, base.n_shards)
        # score-range: the hottest shard whose base score floor the new
        # score clears; colder than every floor lands in the last shard.
        if self._score_floors is None:
            self._score_floors = tuple(
                float(shard.store.scores.min()) if shard.size else None
                for shard in base.shards
            )
        for shard_id, floor in enumerate(self._score_floors):
            if floor is not None and triple.score >= floor:
                return shard_id
        return base.n_shards - 1

    def _maybe_compact(self) -> None:
        if (
            self.compact_threshold is not None
            and self.delta_size >= self.compact_threshold
        ):
            self.compact()

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Fold the delta into a fresh immutable base; returns rows folded.

        Columnar and sharded bases fold vectorised
        (:meth:`~repro.kg.columnar.ColumnarStore.with_updates`) and stay
        snapshot-compatible; a sharded base is re-partitioned from
        scratch, which re-bins ``score-range`` shards around the new
        score distribution.  The version counter keeps climbing across
        the swap, so every version-tagged cache entry goes stale at once;
        the step journals every delta add it folds.
        """
        folded = self.delta_size
        if folded == 0:
            return 0
        self._touched.update(self._adds._scores)
        base = self._base
        store = getattr(base, "store", None)
        if store is not None:
            adds = {t.spo: t.score for t in self._adds.triples()}
            new_store = store.with_updates(adds, self._superseded())
            if getattr(base, "shards", None) is not None:
                from repro.kg.sharding import ShardedGraph

                self._base = ShardedGraph(
                    new_store,
                    base.n_shards,  # type: ignore[attr-defined]
                    strategy=base.strategy,  # type: ignore[attr-defined]
                    name=base.name,
                    shard_cache_capacity=base.shard_caches[0].capacity,  # type: ignore[attr-defined]
                )
            else:
                from repro.kg.columnar import ColumnarGraph

                self._base = ColumnarGraph(new_store, name=base.name)
        else:
            self._base = KnowledgeGraph(self.triples(), name=base.name)
        # Whoever still holds the superseded base (the caller's original
        # graph, typically) should not hold its decoded lists with it.
        base.invalidate_caches()
        self._reset_delta()
        self._bump_version()
        self._compactions += 1
        return folded

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def base(self) -> KnowledgeGraph:
        """The current immutable base (swapped by :meth:`compact`)."""
        return self._base

    @property
    def delta(self) -> KnowledgeGraph:
        """The adds overlay as a graph (read it, never mutate it directly)."""
        return self._adds

    @property
    def delta_size(self) -> int:
        """Pending mutations: delta adds plus tombstones."""
        return self._adds.size + len(self._tombstones)

    @property
    def compactions(self) -> int:
        """How many times the delta has been folded into the base."""
        return self._compactions

    @property
    def size(self) -> int:
        return (
            self._base.size
            + self._adds.size
            - len(self._overwrites)
            - len(self._tombstones)
        )

    def _superseded(self) -> frozenset[Spo]:
        """Base keys masked by the delta: overwrites plus tombstones."""
        cached = self._superseded_cache
        if cached is None:
            cached = frozenset(self._overwrites) | frozenset(self._tombstones)
            self._superseded_cache = cached
        return cached

    def touched_since(self, version: int) -> frozenset[Spo] | None:
        """The triple keys written between *version* and :attr:`version`.

        Read-only, so every consumer — the encoded list store, the
        statistics catalog — asks from the version it holds; a compaction
        step lists the delta adds it folds.  ``None`` means unknown:
        *version* is not this graph's, or older than the bounded journal
        (:data:`MAX_TOUCHED_JOURNAL`) still holds, so the caller must
        purge everything.
        """
        if not self._journal_floor <= version <= self._version:
            return None
        recent = takewhile(lambda step: step[0] > version, reversed(self._journal))
        return frozenset().union(*(keys for _, keys in recent))

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Triple):
            item = item.spo
        if not (isinstance(item, tuple) and len(item) == 3):
            return False
        if item in self._adds:
            return True
        return item not in self._tombstones and item in self._base

    def triples(self) -> Iterator[Triple]:
        """Iterate the live view: surviving base rows, then delta adds."""
        superseded = self._superseded()
        for triple in self._base.triples():
            if triple.spo not in superseded:
                yield triple
        yield from self._adds.triples()

    def score_of(self, subject: str, predicate: str, obj: str) -> float:
        spo = (subject, predicate, obj)
        if spo in self._adds:
            return self._adds.score_of(subject, predicate, obj)
        if spo in self._tombstones:
            raise KnowledgeGraphError(
                f"triple ({subject!r}, {predicate!r}, {obj!r}) not in graph"
            )
        return self._base.score_of(subject, predicate, obj)

    def entities(self) -> set[str]:
        if not self._tombstones:
            return self._base.entities() | self._adds.entities()
        result: set[str] = set()
        for triple in self.triples():
            result.add(triple.subject)
            result.add(triple.object)
        return result

    def predicates(self) -> set[str]:
        if not self._tombstones:
            return self._base.predicates() | self._adds.predicates()
        return {triple.predicate for triple in self.triples()}

    def thaw(self) -> KnowledgeGraph:
        """A mutable object-backed copy of the live view."""
        return KnowledgeGraph(self.triples(), name=self.name)

    def shard_sizes(self) -> tuple[int, ...]:
        """Base triples per shard (sharded bases only; excludes the delta)."""
        return self._sharded_base().shard_sizes()

    def shard_cache_stats(self):
        """Aggregated per-shard cache counters of the sharded base."""
        return self._sharded_base().shard_cache_stats()

    def _sharded_base(self) -> "ShardedGraph":
        if getattr(self._base, "shards", None) is None:
            raise KnowledgeGraphError(
                f"base graph {type(self._base).__name__} is not sharded"
            )
        return self._base  # type: ignore[return-value]

    def invalidate_caches(self) -> None:
        """Cold-start: drop overlay, base and delta caches alike."""
        super().invalidate_caches()
        self._base.invalidate_caches()
        self._adds.invalidate_caches()
        for shard_delta in self._shard_adds or ():
            shard_delta.invalidate_caches()

    # ------------------------------------------------------------------
    # Overlay reads
    # ------------------------------------------------------------------
    def _overlay(
        self, key: PatternKey, base_list: MatchList, delta_list: MatchList | None
    ) -> MatchList:
        """*base_list* minus superseded rows, merged with *delta_list*."""
        superseded = self._superseded()
        filtered = base_list
        if superseded and base_list.triples:
            kept = [t for t in base_list.triples if t.spo not in superseded]
            if len(kept) != len(base_list.triples):
                filtered = MatchList.from_triples(key, kept)
        parts = [part for part in (filtered, delta_list) if part]
        if not parts:
            return MatchList(key, (), 0.0, ())
        return merge_match_lists(key, parts)

    def _live_shard_leaf_inputs(
        self, pattern: TriplePattern
    ) -> tuple[float, list["ShardLeafInput"]]:
        """Per-shard live leaf inputs plus the exact global normaliser.

        With an empty delta this is the base's lazy peek, untouched.
        With a dirty delta each shard contributes its live slice: a warm
        base list is filtered and merged eagerly (no sort, no decode), a
        cold one is bounded by a vectorised tombstone-aware peek plus the
        shard's delta maximum — still exact, so
        :class:`~repro.operators.shard_merge.ShardMerge` keeps threshold
        early termination over the overlay.
        """
        from repro.kg.sharding import ShardLeafInput

        base: "ShardedGraph" = self._base  # type: ignore[assignment]
        if self.delta_size == 0:
            return base.shard_leaf_inputs(pattern)
        key = pattern.key()
        global_max = 0.0
        inputs: list[ShardLeafInput] = []
        assert self._shard_adds is not None
        for shard_id, (shard, cache) in enumerate(zip(base.shards, base.shard_caches)):
            shard_delta = self._shard_adds[shard_id]
            delta_list = shard_delta.match_list(pattern) if shard_delta.size else None
            cached = cache.get(pattern.list_key(), shard.version)
            if cached is not None:
                live_list = self._overlay(key, cached, delta_list)
                n_matches, local_max = len(live_list), live_list.max_score
                match_list = live_list if n_matches else None
            else:
                n_base, base_max = self._filtered_peek(shard, pattern)
                n_delta = len(delta_list) if delta_list is not None else 0
                delta_max = delta_list.max_score if delta_list is not None else 0.0
                n_matches = n_base + n_delta
                local_max = max(base_max, delta_max)
                match_list = None
            inputs.append(
                ShardLeafInput(
                    _LiveShardSlice(self, shard_id), n_matches, local_max, match_list
                )
            )
            if local_max > global_max:
                global_max = local_max
        return global_max, inputs

    def _filtered_peek(
        self, shard: "ColumnarGraph", pattern: TriplePattern
    ) -> tuple[int, float]:
        """``(n_matches, max raw score)`` of a shard's *surviving* base rows.

        The tombstone-aware twin of
        :meth:`~repro.kg.columnar.ColumnarPatternIndex.peek`: one index
        slice, one key-exclusion, the first survivor's score — no
        decode, no sort.
        """
        rows = self._surviving_rows(shard.store, pattern)
        if len(rows) == 0:
            return 0, 0.0
        return len(rows), float(shard.store.scores[rows[0]])

    def _surviving_rows(
        self, store: "ColumnarStore", pattern: TriplePattern
    ) -> np.ndarray:
        """Rows of *store* (the base's, or one of its shards') that match
        *pattern* and are not superseded by the delta, in Definition-5
        order (the exclusion is an order-preserving mask)."""
        rows = store.match_rows(pattern)
        keep = self._kept_base_rows(store, rows)
        return rows if keep is None else rows[keep]

    def _kept_base_rows(
        self, store: "ColumnarStore", rows: np.ndarray
    ) -> np.ndarray | None:
        """The mask of *rows* the delta does not supersede (``None``: all)."""
        superseded = self._superseded()
        if not superseded or len(rows) == 0:
            return None
        # The base store and its shard stores share one term dictionary,
        # so the superseded keys pack once per delta state and mask every
        # one of them.
        if self._superseded_packed is None:
            self._superseded_packed = (store.pack_keys(superseded),)
        return store.kept_rows_mask(
            rows, superseded, packed_keys=self._superseded_packed[0]
        )

    def overlay_rows(
        self, patterns: Sequence[TriplePattern]
    ) -> tuple[list[np.ndarray], list[list[tuple[Spo, float]]], list[np.ndarray]]:
        """The live match lists of *patterns* as base-store rows plus adds.

        Only over a base with a column store.  Returns, per pattern,
        ``rows``, ``adds`` and ``slots``: the surviving rows of the
        base's store in Definition-5 order, the delta's matching
        ``(spo, raw score)`` adds in Definition-5 order, and for each add
        the index in *rows* it goes in front of
        (:meth:`~repro.kg.columnar.ColumnarStore.insertion_slots`) —
        ``np.insert(rows_column, slots, adds_column)`` is the merged
        list.  The superseded rows of all the patterns are masked by one
        key exclusion over their concatenated candidates; no triple is
        decoded and nothing is sorted but the adds.
        """
        store: "ColumnarStore" = self._base.store  # type: ignore[attr-defined]
        matched = [store.match_rows(pattern) for pattern in patterns]
        candidates = matched[0] if len(matched) == 1 else np.concatenate(matched)
        keep = self._kept_base_rows(store, candidates)
        if keep is not None:
            # Survivors before each pattern's end split the kept rows back.
            survivors = np.concatenate(([0], np.cumsum(keep)))
            ends = np.cumsum([len(rows) for rows in matched])
            matched = np.split(candidates[keep], survivors[ends[:-1]])
        overlay: tuple[list, list, list] = ([], [], [])
        for pattern, rows in zip(patterns, matched):
            bound = [
                (i, term) for i, term in enumerate(pattern.key()) if term is not None
            ]
            repeated = pattern.repeated_positions
            adds = sorted(
                (
                    (spo, score)
                    for spo, score in self._adds._scores.items()
                    if all(spo[i] == term for i, term in bound)
                    and all(spo[i] == spo[j] for i, j in repeated)
                ),
                key=lambda add: (-add[1], add[0]),
            )
            for part, value in zip(
                overlay, (rows, adds, store.insertion_slots(rows, adds))
            ):
                part.append(value)
        return overlay

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LiveGraph(name={self.name!r}, size={self.size}, "
            f"delta={self.delta_size}, base={type(self._base).__name__}, "
            f"version={self.version})"
        )
