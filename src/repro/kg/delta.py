"""Delta-overlay live updates over the immutable storage backends.

The columnar backend trades mutability for scale: its stores are
frozen at construction, so before this module, absorbing a single new
triple meant ``thaw()`` plus a full rebuild of columns, match
lists and statistics.  :class:`LiveGraph` restores the write path with
the classic LSM split — an **immutable base** (a
:class:`~repro.kg.columnar.ColumnarGraph`; any other graph is frozen into
one) under a **mutable delta**:

* *adds/overwrites* live in a small object-backed graph of their own;
* *removes* become **tombstones**, keys masked out of every base read;
* reads serve the exact Definition-5 view as rows of the base store:
  :meth:`LiveGraph.list_rows` masks the superseded base rows out of one
  :meth:`~repro.kg.columnar.ColumnarStore.lookup` and hands back the
  delta's few adds with their splice positions, all from id columns.
  The block pipeline gathers those rows into
  :class:`~repro.operators.block.EncodedMatchList`, and the one string
  builder (:meth:`~repro.kg.graph.KnowledgeGraph.match_list`) decodes
  them, so overlay reads are bit-for-bit equal to a from-scratch rebuild
  of the final triple set;
* :meth:`LiveGraph.compact` folds the delta into a fresh immutable base
  (vectorised through :meth:`~repro.kg.columnar.ColumnarStore.with_updates`,
  snapshot-compatible) once it crosses ``compact_threshold`` — the
  LSM merge step.

Versioning spans base swaps: the overlay's :attr:`~LiveGraph.version`
counter is monotone across every mutation *and* every compaction, so the
version-aware caches (:class:`~repro.service.cache.MatchListCache`, the
plan and result caches) invalidate exactly as they do for a mutated
object graph.  The encoded list store patches the lists of what
:meth:`LiveGraph.touched_since` says a write touched — re-reading just the
written triples through :meth:`LiveGraph.list_rows` — and drops only
those it cannot patch exactly (an input's maximum moved, or the patch's
read raced a write); the statistics catalog drops only the statistics of
what the write touched, and recomputes them from the patched lists.

The base is immutable: a columnar graph refuses mutation, and any other
base is copied into columns when the overlay is built.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import takewhile
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import KnowledgeGraphError
from repro.kg.columnar import ColumnarGraph, ColumnarStore
from repro.kg.graph import Add, KnowledgeGraph
from repro.kg.index import PatternKey, pattern_keys
from repro.kg.pattern import TriplePattern
from repro.kg.triple import Triple

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


class LiveGraph(KnowledgeGraph):
    """A mutable delta overlay over an immutable columnar base graph.

    Presents the full :class:`~repro.kg.graph.KnowledgeGraph` interface —
    mutation included — over a frozen column store, serving exact
    Definition-5 match lists for the *merged* view.  See the module docs
    for the design; the headline contract is **rebuild equivalence**:
    after any interleaving of adds, overwrites and removes, every match
    list (triples, order, max score, normalised scores) is bit-for-bit
    the list a graph freshly built from the final triple set serves.

    Parameters
    ----------
    base:
        The graph to overlay.  A :class:`~repro.kg.columnar.ColumnarGraph`
        is used as it is; any other graph is frozen into columns first
        (:meth:`~repro.kg.columnar.ColumnarGraph.from_graph`), so the
        overlay owns a copy and later edits to it do not show.
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
        self._version = base.version
        if not isinstance(base, ColumnarGraph):
            base = ColumnarGraph.from_graph(base)
        self._base = base
        self._tombstones: set[Spo] = set()
        self._overwrites: set[Spo] = set()
        self._superseded_cache: frozenset[Spo] | None = None
        #: Per delta state over a store-backed base (:meth:`_overlay_index`):
        #: the mask of superseded base rows (``None``: no row is) and the
        #: adds in Definition-5 order under each pattern key they match.
        self._overlay_state: (
            tuple[np.ndarray | None, dict[PatternKey, list[Add]]] | None
        ) = None
        #: Keys touched since the last step and, of those, the keys whose
        #: membership changed (a triple that was not live added, or any
        #: remove); then ``(version, touched, membership)`` per step,
        #: oldest first, answerable from ``_journal_floor``.
        self._touched: set[Spo] = set()
        self._moved: set[Spo] = set()
        self._journal: deque[tuple[int, frozenset[Spo], frozenset[Spo]]] = deque()
        self._journal_size = 0
        self._journal_floor = self._version
        self._compactions = 0
        self._match_lists = {}
        self._reset_delta()

    def _reset_delta(self) -> None:
        """Fresh (empty) delta structures over the current base."""
        self._adds = KnowledgeGraph(name=f"{self.name}#delta")
        self._tombstones.clear()
        self._overwrites.clear()
        self._superseded_cache = None
        self._overlay_state = None
        #: The superseded keys already looked up, and their base rows.
        self._superseded_rows = (frozenset[Spo](), np.empty(0, np.int64))

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
        An update that raises leaves the ones before it applied; the error
        carries their counters as ``error.applied``.
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
        except Exception as error:
            error.applied = {"adds": adds, "removes": removes, "absent_removes": absent}
            raise
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
        in_base = spo in self._base
        was_live = spo in self._adds or (in_base and spo not in self._tombstones)
        # Refuses a NUL term before anything changes (a compaction would fail on it).
        self._adds.add_triple(triple)
        if not was_live:
            self._moved.add(spo)  # a re-score is not a move
        self._tombstones.discard(spo)
        if in_base:
            self._overwrites.add(spo)
        self._touched.add(spo)
        self._superseded_cache = None
        self._overlay_state = None

    def _bump_version(self) -> None:
        """One version step, journaling the keys it touched and moved."""
        self._version += 1
        self._journal.append(
            (self._version, frozenset(self._touched), frozenset(self._moved))
        )
        self._journal_size += len(self._touched)
        self._touched = set()
        self._moved = set()
        while self._journal_size > MAX_TOUCHED_JOURNAL:
            self._journal_floor, keys, _ = self._journal.popleft()
            self._journal_size -= len(keys)

    def _apply_remove(self, spo: Spo) -> bool:
        removed = False
        if spo in self._adds:
            self._adds.remove(*spo)
            self._overwrites.discard(spo)
            removed = True
        if spo in self._base and spo not in self._tombstones:
            self._tombstones.add(spo)
            removed = True
        if removed:
            self._touched.add(spo)
            self._moved.add(spo)
            self._superseded_cache = None
            self._overlay_state = None
        return removed

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

        The fold is vectorised
        (:meth:`~repro.kg.columnar.ColumnarStore.with_updates`) and the
        new base stays snapshot-compatible.  The version counter keeps
        climbing across the swap, so every version-tagged cache entry goes
        stale at once; the step journals every delta add it folds as
        touched, none as a membership change (the live triple set is the
        same).
        """
        folded = self.delta_size
        if folded == 0:
            return 0
        self._touched.update(self._adds._scores)
        base = self._base
        adds = {t.spo: t.score for t in self._adds.triples()}
        self._base = ColumnarGraph(
            base.store.with_updates(adds, self._superseded()), name=base.name
        )
        # Whoever still holds the superseded base (the caller's original
        # graph, typically) should not hold its decoded lists with it.
        base.invalidate_caches()
        self._decoded = None  # nor should this graph hold its store
        self._reset_delta()
        self._bump_version()
        self._compactions += 1
        return folded

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def base(self) -> ColumnarGraph:
        """The current immutable base (swapped by :meth:`compact`)."""
        return self._base

    def column_store(self) -> ColumnarStore:
        """The base's store: encoded reads slice it and splice the delta
        in (:meth:`list_rows`), so it is the overlay's store, not its
        content."""
        return self._base.store

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
        return self._journal_since(version, 1)

    def membership_since(self, version: int) -> frozenset[Spo] | None:
        """The keys of :meth:`touched_since` whose membership changed (a
        triple added that was not live, or one removed); a re-score and a
        compaction's fold keep the live triple set and any count over it."""
        return self._journal_since(version, 2)

    def _journal_since(self, version: int, slot: int) -> frozenset[Spo] | None:
        if not self._journal_floor <= version <= self._version:
            return None
        recent = takewhile(lambda step: step[0] > version, reversed(self._journal))
        return frozenset().union(*(step[slot] for step in recent))

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

    def invalidate_caches(self) -> None:
        """Cold-start: drop overlay, base and delta caches alike."""
        super().invalidate_caches()
        self._base.invalidate_caches()
        self._adds.invalidate_caches()

    # ------------------------------------------------------------------
    # Overlay reads
    # ------------------------------------------------------------------
    def _overlay_index(
        self, store: ColumnarStore
    ) -> tuple[np.ndarray | None, dict[PatternKey, list[Add]]]:
        """What every overlay read of the current delta state shares,
        built on its first read: the mask of the base *store*'s rows the
        delta supersedes (``None`` when no row is), and the delta's adds
        in Definition-5 order, filed under each of the eight pattern keys
        they match (``pattern_keys``).  Every mutation resets it.  The
        superseded keys only grow until a compaction, so each key's rows
        are looked up once (:meth:`~repro.kg.columnar.ColumnarStore.rows_of`)."""
        overlay = self._overlay_state
        if overlay is None:
            superseded, keys = None, self._superseded()
            known, rows = self._superseded_rows
            if len(keys) > len(known):
                rows = np.concatenate((rows, store.rows_of(keys - known)))
                self._superseded_rows = (keys, rows)
            if len(rows):
                superseded = np.zeros(store.n_triples, dtype=bool)
                superseded[rows] = True
            adds_by_key: dict[PatternKey, list[Add]] = {}
            for add in sorted(self._adds._scores.items(), key=lambda a: (-a[1], a[0])):
                for key in pattern_keys(add[0]):
                    adds_by_key.setdefault(key, []).append(add)
            overlay = self._overlay_state = (superseded, adds_by_key)
        return overlay

    def list_rows(
        self, patterns: Sequence[TriplePattern]
    ) -> tuple[np.ndarray, np.ndarray, list[Sequence[Add]], list[np.ndarray | None]]:
        """The live match lists of *patterns* as base-store rows plus adds.

        Returns ``rows`` and ``lengths``: every pattern's surviving
        base-store rows, back to back, each run in Definition-5 order (one
        :meth:`~repro.kg.columnar.ColumnarStore.lookup` masking the
        superseded rows of :meth:`_overlay_index`); and per pattern the
        delta's matching ``(spo, raw score)`` adds in that order (shared,
        read them only) and their ``slots`` in the run
        (:meth:`~repro.kg.columnar.ColumnarStore.insertion_slots`,
        ``None`` without adds).  No triple is decoded, nothing sorted.
        """
        store = self._base.store
        superseded, adds_by_key = self._overlay_index(store)
        rows, lengths = store.lookup([p.list_key() for p in patterns], superseded)
        all_adds: list[Sequence[Add]] = []
        all_slots: list[np.ndarray | None] = []
        for pattern, end, length in zip(patterns, np.cumsum(lengths).tolist(), lengths.tolist()):
            adds: Sequence[Add] = adds_by_key.get(pattern.key(), ())
            if adds and pattern.repeated_positions:
                adds = [add for add in adds if pattern.matches(Triple(*add[0]))]
            all_adds.append(adds)
            all_slots.append(
                store.insertion_slots(rows[end - length : end], adds) if adds else None
            )
        return rows, lengths, all_adds, all_slots

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LiveGraph(name={self.name!r}, size={self.size}, "
            f"delta={self.delta_size}, base={type(self._base).__name__}, "
            f"version={self.version})"
        )
