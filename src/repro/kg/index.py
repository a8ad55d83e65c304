"""Pattern indexes and score-sorted match lists.

The operators in :mod:`repro.operators` consume one thing from the
substrate: for each triple pattern, a list of its matching triples sorted
by *normalised* score in descending order (Definition 5).  The paper got
this from PostgreSQL; here a :class:`PatternIndex` provides it from memory.

Index structure
---------------
For candidate retrieval we keep hash indexes on each non-empty subset of
bound positions that actually occurs in queries: S, P, O, SP, SO, PO, SPO.
They are built lazily the first time a key shape is used and rebuilt when
the graph mutates (detected via the graph's version counter).

Match lists
-----------
A :class:`MatchList` is an immutable snapshot: the pattern's matches sorted
by raw score descending (ties broken by the triple's terms for
determinism), the list's maximum raw score, and the normalised scores.  It
also precomputes the summary statistics the two-bucket histograms need.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence

from repro.errors import KnowledgeGraphError
from repro.kg.pattern import TriplePattern
from repro.kg.triple import Triple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kg.graph import KnowledgeGraph

#: Which positions are bound: a 3-bit mask over (S, P, O).
KeyShape = tuple[bool, bool, bool]

#: A concrete pattern key: ``(s, p, o)`` with ``None`` at variable positions.
PatternKey = tuple[str | None, str | None, str | None]

#: What match lists are cached under
#: (:meth:`~repro.kg.pattern.TriplePattern.list_key`): the pattern key,
#: extended by the repeated positions when a variable repeats.
ListKey = tuple


def touched_pattern_keys(touched: Iterable[tuple[str, str, str]]) -> set[PatternKey]:
    """Every pattern key whose match list a write of *touched* can change:
    each triple's eight wildcardings, since a pattern key matches a triple
    iff it equals the triple with some positions wildcarded."""
    return {
        tuple(term if keep else None for term, keep in zip(spo, mask))
        for spo in touched
        for mask in product((True, False), repeat=3)
    }


class MatchListCacheHook(Protocol):
    """What :class:`PatternIndex` needs from an external match-list cache.

    The index passes the graph version with every call so the cache can
    drop entries built against an older graph without the index having to
    orchestrate invalidation.  :class:`repro.service.MatchListCache` is the
    canonical implementation (bounded LRU with hit/miss statistics); any
    object with these two methods works.
    """

    def get(self, key: ListKey, version: int) -> "MatchList | None": ...

    def put(self, key: ListKey, version: int, match_list: "MatchList") -> None: ...


@dataclass(frozen=True)
class MatchList:
    """An immutable score-sorted match list for one triple-pattern key.

    Attributes
    ----------
    pattern_key:
        The ``(s, p, o)`` key with ``None`` for variable positions.
    triples:
        Matches sorted by raw score descending (stable tie-break on terms).
    max_score:
        The maximum *raw* score in the list (the Definition-5 normaliser);
        0.0 for an empty list.
    normalized_scores:
        ``S(t|q) = S(t) / max_score`` per triple, in list order.
    """

    pattern_key: tuple[str | None, str | None, str | None]
    triples: tuple[Triple, ...]
    max_score: float
    normalized_scores: tuple[float, ...]

    @classmethod
    def from_triples(
        cls,
        pattern_key: tuple[str | None, str | None, str | None],
        triples: Iterable[Triple],
    ) -> "MatchList":
        ordered = sorted(triples, key=lambda t: (-t.score, t.spo))
        max_score = ordered[0].score if ordered else 0.0
        if max_score > 0:
            normalized = tuple(t.score / max_score for t in ordered)
        else:
            normalized = tuple(0.0 for _ in ordered)
        return cls(pattern_key, tuple(ordered), max_score, normalized)

    def __len__(self) -> int:
        return len(self.triples)

    def __bool__(self) -> bool:
        return bool(self.triples)

    @property
    def is_empty(self) -> bool:
        return not self.triples

    def normalized(self, rank: int) -> float:
        """Normalised score at 0-based *rank* (rank 0 is the best match)."""
        return self.normalized_scores[rank]

    def total_normalized_score(self) -> float:
        """``S^i_{m_i}``: sum of normalised scores over the whole list."""
        return float(sum(self.normalized_scores))

    def cumulative_normalized_scores(self) -> list[float]:
        """Prefix sums of normalised scores (``S^i_r`` for every rank r)."""
        sums: list[float] = []
        running = 0.0
        for value in self.normalized_scores:
            running += value
            sums.append(running)
        return sums


def definition5_key(triple: Triple) -> tuple[float, tuple[str, str, str]]:
    """The global match-list sort key (raw score desc, terms asc)."""
    return (-triple.score, triple.spo)


def merge_match_lists(key: PatternKey, parts: Sequence[MatchList]) -> MatchList:
    """K-way merge sorted match-list parts into the global Definition-5 list.

    Each part must be sorted by ``(-raw score, spo)`` — which every
    backend in this package guarantees — and the parts must cover
    disjoint triple sets (shard slices of one partition, or a filtered
    base list plus a delta overlay).  The merged list is then bit-for-bit
    the list an unpartitioned backend builds: same triple order (the sort
    key is a total order because ``spo`` is unique) and the same
    normaliser (the global maximum raw score).
    """
    nonempty = [part for part in parts if part.triples]
    if not nonempty:
        return MatchList(key, (), 0.0, ())
    if len(nonempty) == 1:
        part = nonempty[0]
        return MatchList(key, part.triples, part.max_score, part.normalized_scores)
    merged = tuple(
        heapq.merge(*(part.triples for part in nonempty), key=definition5_key)
    )
    max_score = merged[0].score
    if max_score > 0:
        normalized = tuple(triple.score / max_score for triple in merged)
    else:
        normalized = tuple(0.0 for _ in merged)
    return MatchList(key, merged, max_score, normalized)


class PatternIndex:
    """Lazy hash indexes over a :class:`~repro.kg.graph.KnowledgeGraph`.

    One index per key *shape* (which of S/P/O are bound).  Each index maps
    the bound-term tuple to the list of matching triples.  Match lists are
    additionally cached per concrete pattern key.
    """

    def __init__(self, graph: "KnowledgeGraph") -> None:
        # Weak: the graph owns its index, and a strong reference back
        # would leave every dropped graph — its store and decoded match
        # lists with it — to the cyclic collector instead of refcounting.
        self._graph_ref = weakref.ref(graph)
        self._built_version = -1
        self._shape_indexes: dict[KeyShape, dict[tuple[str, ...], list[Triple]]] = {}
        self._match_lists: dict[ListKey, MatchList] = {}
        self._external_cache: MatchListCacheHook | None = None

    @property
    def _graph(self) -> "KnowledgeGraph":
        graph = self._graph_ref()
        assert graph is not None  # only the graph itself holds its index
        return graph

    # ------------------------------------------------------------------
    # Cache hooks
    # ------------------------------------------------------------------
    def attach_match_list_cache(self, cache: MatchListCacheHook) -> None:
        """Serve match lists through *cache* instead of the internal dict.

        The attached cache sees every lookup together with the current
        graph version, so a bounded, shared, statistics-reporting cache
        (e.g. one shared by a whole workload runner) can replace the
        unbounded per-index dict.  Attaching drops the internal match-list
        cache so hit/miss accounting in *cache* is exact.

        Entries are version-tagged but carry no graph identity, so a cache
        instance must serve exactly one graph: if *cache* exposes a
        ``bind`` method it is called with the graph and may refuse a
        second graph (``MatchListCache`` does).
        """
        bind = getattr(cache, "bind", None)
        if callable(bind):
            bind(self._graph)
        self._external_cache = cache
        self._match_lists.clear()

    def detach_match_list_cache(self) -> None:
        """Go back to the internal unbounded match-list dict."""
        self._external_cache = None

    @property
    def match_list_cache(self) -> MatchListCacheHook | None:
        return self._external_cache

    def invalidate(self) -> None:
        """Drop every shape index and cached match list unconditionally.

        Mutation is detected automatically via the graph's version counter;
        this explicit path exists for callers that want cold-cache
        measurements or to bound memory without mutating the graph.  An
        attached external cache is emptied too (via its ``clear`` method,
        if it has one) — version tags alone would let its entries survive,
        since the graph version does not change here.
        """
        self._shape_indexes.clear()
        self._match_lists.clear()
        self._built_version = -1
        if self._external_cache is not None:
            clear = getattr(self._external_cache, "clear", None)
            if callable(clear):
                clear()

    # ------------------------------------------------------------------
    def _invalidate_if_stale(self) -> None:
        if self._built_version != self._graph.version:
            self._shape_indexes.clear()
            self._match_lists.clear()
            self._built_version = self._graph.version

    @staticmethod
    def _shape_of(key: Sequence[str | None]) -> KeyShape:
        return tuple(term is not None for term in key)  # type: ignore[return-value]

    def _index_for_shape(self, shape: KeyShape) -> dict[tuple[str, ...], list[Triple]]:
        index = self._shape_indexes.get(shape)
        if index is None:
            index = {}
            for triple in self._graph.triples():
                bound = tuple(
                    term
                    for term, is_bound in zip(triple.spo, shape)
                    if is_bound
                )
                index.setdefault(bound, []).append(triple)
            self._shape_indexes[shape] = index
        return index

    # ------------------------------------------------------------------
    def candidates(
        self, key: tuple[str | None, str | None, str | None]
    ) -> list[Triple]:
        """Triples agreeing with the bound positions of *key*.

        A fully-unbound key returns every triple (a full scan, as in any
        store); a fully-bound key returns zero or one triple.
        """
        self._invalidate_if_stale()
        shape = self._shape_of(key)
        if not any(shape):
            return list(self._graph.triples())
        index = self._index_for_shape(shape)
        bound = tuple(term for term in key if term is not None)
        return index.get(bound, [])

    def match_list(self, pattern: TriplePattern) -> MatchList:
        """Score-sorted match list for *pattern*, cached by its
        :meth:`~repro.kg.pattern.TriplePattern.list_key` (the key, told
        apart from a repeated-variable twin's).

        With an attached external cache the lookup goes through it
        (version-tagged, so stale entries miss); otherwise the internal
        per-index dict serves repeats until the graph mutates.
        """
        self._invalidate_if_stale()
        list_key = pattern.list_key()
        if self._external_cache is not None:
            cached = self._external_cache.get(list_key, self._built_version)
            if cached is None:
                cached = self._build_match_list(pattern, pattern.key())
                self._external_cache.put(list_key, self._built_version, cached)
            return cached
        cached = self._match_lists.get(list_key)
        if cached is None:
            cached = self._build_match_list(pattern, pattern.key())
            self._match_lists[list_key] = cached
        return cached

    def peek_match_list(self, pattern: TriplePattern) -> MatchList | None:
        """The cached match list for *pattern*, or ``None`` — never builds.

        Lets callers (the sharded leaf builder) take a cached-list fast
        path without forcing construction on a miss.  With an external
        cache, membership is probed first (when the hook supports it) so
        a peek does not register as a statistical miss.
        """
        self._invalidate_if_stale()
        list_key = pattern.list_key()
        cache = self._external_cache
        if cache is not None:
            contains = getattr(type(cache), "__contains__", None)
            if contains is not None and list_key not in cache:  # type: ignore[operator]
                return None
            return cache.get(list_key, self._built_version)
        return self._match_lists.get(list_key)

    def _build_match_list(self, pattern: TriplePattern, key: PatternKey) -> MatchList:
        if len(set(pattern.variable_names)) != len(
            [t for t in pattern.terms if not isinstance(t, str)]
        ):
            # Repeated variables: fall back to full predicate matching
            # so that e.g. (?x, p, ?x) only keeps diagonal triples.
            matches = [t for t in self.candidates(key) if pattern.matches(t)]
        else:
            matches = self.candidates(key)
        return MatchList.from_triples(key, matches)

    def stats(self) -> dict[str, int]:
        """Diagnostics: how many shape indexes / match lists are cached."""
        return {
            "shape_indexes": len(self._shape_indexes),
            "match_lists": len(self._match_lists),
            "version": self._built_version,
        }
