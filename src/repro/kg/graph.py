"""The in-memory scored triple store (Definition 1).

:class:`KnowledgeGraph` stores triples, exposes pattern matching, and owns
a :class:`~repro.kg.index.PatternIndex` that serves score-sorted match
lists — the substrate interface the paper obtained from PostgreSQL with an
``ORDER BY score DESC``.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import KnowledgeGraphError
from repro.kg.index import MatchList, MatchListCacheHook, PatternIndex
from repro.kg.pattern import TriplePattern
from repro.kg.triple import Triple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kg.columnar import ColumnarStore


class KnowledgeGraph:
    """A set of scored triples with pattern-match indexes.

    Adding an existing triple replaces its score; triples can also be
    removed.  Indexes are built lazily and invalidated on mutation (via
    the :attr:`version` counter), so bulk loading stays linear.

    >>> kg = KnowledgeGraph()
    >>> kg.add("shakira", "rdf:type", "singer", score=120.0)
    >>> kg.size
    1
    """

    #: ``(version, store)`` of :meth:`column_store`, built on first use.
    _column_snapshot: "tuple[int, ColumnarStore] | None" = None

    def __init__(self, triples: Iterable[Triple] | None = None, name: str = "kg") -> None:
        self.name = name
        self._scores: dict[tuple[str, str, str], float] = {}
        self._index = PatternIndex(self)
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
        self._scores[triple.spo] = float(triple.score)
        self._version += 1

    def add_triples(self, triples: Iterable[Triple]) -> int:
        """Bulk-add; returns the number of triples processed."""
        count = 0
        for triple in triples:
            if not isinstance(triple, Triple):
                raise KnowledgeGraphError(f"expected Triple, got {type(triple).__name__}")
            self._scores[triple.spo] = float(triple.score)
            count += 1
        if count:
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
        """All triples matching *pattern* (unsorted).

        Uses the index for constant-position lookup, then filters for
        repeated-variable consistency.
        """
        for triple in self._index.candidates(pattern.key()):
            if pattern.matches(triple):
                yield triple

    def count(self, pattern: TriplePattern) -> int:
        """Number of matches of *pattern* (``m_i`` in the paper)."""
        return sum(1 for _ in self.match(pattern))

    def match_list(self, pattern: TriplePattern) -> MatchList:
        """The score-sorted, score-normalised match list of *pattern*.

        This is the sorted input stream the paper's operators read
        (Definition 5: matches normalised by the list's maximum raw score,
        sorted descending).  Cached per pattern key.
        """
        return self._index.match_list(pattern)

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
        """Route match-list lookups through an external (shared) cache.

        Used by :class:`repro.service.WorkloadRunner` to share one bounded
        LRU across every query of a batch; see
        :meth:`repro.kg.index.PatternIndex.attach_match_list_cache`.
        """
        self._index.attach_match_list_cache(cache)

    def detach_match_list_cache(self) -> None:
        self._index.detach_match_list_cache()

    @property
    def match_list_cache(self) -> MatchListCacheHook | None:
        """The attached external match-list cache, if any."""
        return self._index.match_list_cache

    def invalidate_caches(self) -> None:
        """Drop all lazily built indexes, match lists and the column store.

        Mutations invalidate automatically (via :attr:`version`); this is
        the explicit cold-start path used for cold-cache measurements.
        """
        self._index.invalidate()
        self._column_snapshot = None

    def index_stats(self) -> dict[str, int]:
        """Diagnostics from the underlying pattern index."""
        return self._index.stats()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KnowledgeGraph(name={self.name!r}, size={self.size})"
