"""The in-memory scored triple store (Definition 1).

:class:`KnowledgeGraph` stores triples, exposes pattern matching, and
serves score-sorted match lists — the substrate interface the paper
obtained from PostgreSQL with an ``ORDER BY score DESC``.  Every list is
built one way, for every backend: :meth:`KnowledgeGraph.list_rows` names
the pattern's rows of the graph's column store in Definition-5 order, and
:meth:`KnowledgeGraph.match_list` decodes them.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import KnowledgeGraphError
from repro.kg.index import ListKey, MatchList, MatchListCacheHook
from repro.kg.pattern import TriplePattern
from repro.kg.triple import Triple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kg.columnar import ColumnarStore

#: A write outside the column store as list rows carry it: its key and
#: raw score (a live overlay's delta add).
Add = tuple[tuple[str, str, str], float]


class KnowledgeGraph:
    """A set of scored triples serving Definition-5 match lists.

    Adding an existing triple replaces its score; triples can also be
    removed.  The column store and the match lists are built lazily and
    invalidated on mutation (via the :attr:`version` counter), so bulk
    loading stays linear.

    >>> kg = KnowledgeGraph()
    >>> kg.add("shakira", "rdf:type", "singer", score=120.0)
    >>> kg.size
    1
    """

    #: ``(version, store)`` of :meth:`column_store`, built on first use.
    _column_snapshot: "tuple[int, ColumnarStore] | None" = None
    #: ``(store, triple per row or None)`` of :meth:`_decode`.
    _decoded: "tuple[ColumnarStore, list[Triple | None]] | None" = None
    #: The version :attr:`_match_lists` holds lists of.
    _lists_version = -1
    _external_cache: MatchListCacheHook | None = None

    def __init__(self, triples: Iterable[Triple] | None = None, name: str = "kg") -> None:
        self.name = name
        self._scores: dict[tuple[str, str, str], float] = {}
        self._match_lists: dict[ListKey, MatchList] = {}
        self._version = 0
        self._column_lock = threading.Lock()
        if triples is not None:
            self.add_triples(triples)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, subject: str, predicate: str, obj: str, score: float = 1.0) -> None:
        """Add one triple (or update its score if already present)."""
        self.add_triple(Triple(subject, predicate, obj, score))

    def add_triple(self, triple: Triple) -> None:
        self.add_triples((triple,))

    def add_triples(self, triples: Iterable[Triple]) -> int:
        """Bulk-add; returns the number of triples processed.  A term
        holding NUL is refused, keeping the triples before it: every list
        read interns the terms into a column store, which cannot hold one."""
        count = 0
        try:
            for triple in triples:
                if not isinstance(triple, Triple):
                    raise KnowledgeGraphError(f"expected Triple, got {type(triple).__name__}")
                if "\x00" in "".join(spo := triple.spo):
                    raise KnowledgeGraphError(
                        f"{spo!r} has a term containing NUL, unsupported by columnar storage"
                    )
                self._scores[spo] = float(triple.score)
                count += 1
        finally:
            if count:  # the triples before a refused one landed
                self._version += 1
        return count

    def remove(self, subject: str, predicate: str, obj: str) -> bool:
        """Remove a triple; returns True if it was present."""
        removed = self._scores.pop((subject, predicate, obj), None) is not None
        if removed:
            self._version += 1
        return removed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of distinct triples."""
        return len(self._scores)

    @property
    def version(self) -> int:
        """Monotonic mutation counter; used by caches to detect staleness."""
        return self._version

    def __len__(self) -> int:
        return self.size

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Triple):
            return item.spo in self._scores
        if isinstance(item, tuple) and len(item) == 3:
            return item in self._scores
        return False

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def triples(self) -> Iterator[Triple]:
        """Iterate over all triples (arbitrary but stable order)."""
        for (s, p, o), score in self._scores.items():
            yield Triple(s, p, o, score)

    def score_of(self, subject: str, predicate: str, obj: str) -> float:
        """Raw score of a triple; raises if absent."""
        try:
            return self._scores[(subject, predicate, obj)]
        except KeyError:
            raise KnowledgeGraphError(
                f"triple ({subject!r}, {predicate!r}, {obj!r}) not in graph"
            ) from None

    def entities(self) -> set[str]:
        """All subjects and objects."""
        result: set[str] = set()
        for s, _, o in self._scores:
            result.add(s)
            result.add(o)
        return result

    def predicates(self) -> set[str]:
        return {p for _, p, _ in self._scores}

    # ------------------------------------------------------------------
    # Pattern matching
    # ------------------------------------------------------------------
    def match(self, pattern: TriplePattern) -> Iterator[Triple]:
        """All triples matching *pattern*: its match list's triples."""
        return iter(self.match_list(pattern).triples)

    def count(self, pattern: TriplePattern) -> int:
        """Number of matches of *pattern* (``m_i`` in the paper)."""
        return len(self.match_list(pattern))

    def match_list(self, pattern: TriplePattern) -> MatchList:
        """The score-sorted, score-normalised match list of *pattern*.

        This is the sorted input stream the paper's operators read
        (Definition 5: matches normalised by the list's maximum raw score,
        sorted descending).  Cached by the pattern's
        :meth:`~repro.kg.pattern.TriplePattern.list_key` (the key, told
        apart from a repeated-variable twin's) until the graph mutates —
        in the attached external cache, version-tagged so stale entries
        miss, or else in a per-version dict.
        """
        version = self._version
        if self._lists_version != version:
            self._match_lists = {}
            self._lists_version = version
        list_key = pattern.list_key()
        cache = self._external_cache
        cached = (
            self._match_lists.get(list_key) if cache is None else cache.get(list_key, version)
        )
        if cached is None:
            cached = self._build_match_list(pattern)
            if cache is None:
                self._match_lists[list_key] = cached
            else:
                cache.put(list_key, version, cached)
        return cached

    def _build_match_list(self, pattern: TriplePattern) -> MatchList:
        """Decode *pattern*'s :meth:`list_rows`, splice in its adds, and
        normalise by the first raw score with :func:`_gather_rows`' float
        operations (:mod:`repro.operators.block`)."""
        store = self.column_store()
        rows, _, (adds,), (slots,) = self.list_rows((pattern,))
        triples = self._decode(store, rows)
        raw = store.scores[rows]
        if adds:
            # Slots ascend with the adds; last first keeps them in place.
            for at, (spo, score) in reversed(list(zip(slots.tolist(), adds))):
                triples.insert(at, Triple(*spo, score))
            raw = np.insert(raw, slots, [score for _, score in adds])
        if not triples:
            return MatchList(pattern.key(), (), 0.0, ())
        max_score = float(raw[0])
        normalized = raw / max_score if max_score > 0 else np.zeros(len(raw))
        return MatchList(pattern.key(), tuple(triples), max_score, tuple(normalized.tolist()))

    def _decode(self, store: "ColumnarStore", rows: np.ndarray) -> list[Triple]:
        """*rows* of *store* as triples, each row decoded once while the graph
        reads *store* (until :meth:`invalidate_caches`): a live overlay's new
        versions share the triples of the base rows they keep."""
        memo = self._decoded
        if memo is None or memo[0] is not store:
            memo = self._decoded = (store, [None] * store.n_triples)
        decoded, wanted = memo[1], rows.tolist()
        missing = [row for row in wanted if decoded[row] is None]
        for row, triple in zip(missing, store.decode_rows(np.array(missing, dtype=np.int64))):
            decoded[row] = triple
        return [decoded[row] for row in wanted]  # type: ignore[misc]

    def list_rows(
        self, patterns: Sequence[TriplePattern]
    ) -> tuple[np.ndarray, np.ndarray, list[Sequence[Add]], list[np.ndarray | None]]:
        """The match lists of *patterns* as rows of :meth:`column_store`.

        Returns ``rows`` and ``lengths``: every pattern's rows back to
        back, each run in Definition-5 order (one
        :meth:`~repro.kg.columnar.ColumnarStore.lookup` of the patterns'
        list keys); and per pattern the ``(spo, raw score)`` adds from
        outside the store, in that order too, with their ``slots`` in
        the run (``None`` without adds).  Here there are none: every
        triple is a row.  No triple is decoded, nothing sorted.
        """
        rows, lengths = self.column_store().lookup([p.list_key() for p in patterns])
        return rows, lengths, [()] * len(patterns), [None] * len(patterns)

    def column_store(self) -> "ColumnarStore":
        """The :class:`~repro.kg.columnar.ColumnarStore` the graph's encoded
        reads slice: here its triples interned at the current
        :attr:`version`, built on first use and again after a mutation.
        Racing first calls get one object."""
        snapshot = self._column_snapshot
        if snapshot is None or snapshot[0] != self._version:
            with self._column_lock:
                snapshot = self._column_snapshot
                if snapshot is None or snapshot[0] != self._version:
                    from repro.kg.columnar import ColumnarStore

                    version = self._version  # read first: a racing write rebuilds
                    store = ColumnarStore.from_triples(self.triples())
                    snapshot = self._column_snapshot = (version, store)
        return snapshot[1]

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def attach_match_list_cache(self, cache: MatchListCacheHook) -> None:
        """Serve match lists through *cache* instead of the internal dict.

        The attached cache sees every lookup together with the current
        graph version, so a bounded, shared, statistics-reporting cache
        (:class:`repro.service.WorkloadRunner` shares one across every
        query of a batch) can replace the unbounded per-version dict.
        Attaching drops the internal dict so hit/miss accounting in
        *cache* is exact.

        Entries are version-tagged but carry no graph identity, so a cache
        instance must serve exactly one graph: if *cache* exposes a
        ``bind`` method it is called with the graph and may refuse a
        second graph (``MatchListCache`` does).
        """
        bind = getattr(cache, "bind", None)
        if callable(bind):
            bind(self)
        self._external_cache = cache
        self._match_lists = {}

    def detach_match_list_cache(self) -> None:
        """Go back to the internal per-version match-list dict."""
        self._external_cache = None

    @property
    def match_list_cache(self) -> MatchListCacheHook | None:
        """The attached external match-list cache, if any."""
        return self._external_cache

    def touched_since(self, version: int) -> frozenset[tuple[str, str, str]] | None:
        """The triple keys written since *version*; ``None``: unknown, so a
        consumer holding anything from *version* must drop all of it.  A
        graph without a write journal always answers ``None``
        (:class:`~repro.kg.delta.LiveGraph` keeps one)."""
        return None

    def membership_since(self, version: int) -> frozenset[tuple[str, str, str]] | None:
        """The keys of :meth:`touched_since` whose membership changed;
        ``None`` without a journal."""
        return None

    def invalidate_caches(self) -> None:
        """Drop all cached match lists, decoded rows and the column store.

        Mutations invalidate automatically (via :attr:`version`); this is
        the explicit cold-start path used for cold-cache measurements.  An
        attached external cache is emptied too (via its ``clear`` method,
        if it has one) — version tags alone would let its entries survive,
        since the graph version does not change here.
        """
        self._match_lists = {}
        self._column_snapshot = None
        self._decoded = None
        clear = getattr(self._external_cache, "clear", None)
        if callable(clear):
            clear()

    def index_stats(self) -> dict[str, int]:
        """Diagnostics: how many match lists the internal dict holds, and
        the graph version they are for (-1: none built yet)."""
        return {"match_lists": len(self._match_lists), "version": self._lists_version}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KnowledgeGraph(name={self.name!r}, size={self.size})"
