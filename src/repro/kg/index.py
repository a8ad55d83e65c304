"""Score-sorted match lists and the keys they are cached under.

The operators in :mod:`repro.operators` consume one thing from the
substrate: for each triple pattern, a list of its matching triples sorted
by *normalised* score in descending order (Definition 5).  The paper got
this from PostgreSQL; here every graph reads it from its column store.

Where lists come from
---------------------
There is one builder, :meth:`~repro.kg.graph.KnowledgeGraph.match_list`:
the graph's :meth:`~repro.kg.graph.KnowledgeGraph.list_rows` names the
pattern's column rows in Definition-5 order (plus a live overlay's
spliced adds), and the builder decodes them.  The column store's
permutation indexes are the only index.

Match lists
-----------
A :class:`MatchList` is an immutable snapshot: the pattern's matches sorted
by raw score descending (ties broken by the triple's terms for
determinism), the list's maximum raw score, and the normalised scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol

from repro.kg.triple import Triple

#: A concrete pattern key: ``(s, p, o)`` with ``None`` at variable positions.
PatternKey = tuple[str | None, str | None, str | None]

#: What match lists are cached under
#: (:meth:`~repro.kg.pattern.TriplePattern.list_key`): the pattern key,
#: extended by the repeated positions when a variable repeats.
ListKey = tuple


def pattern_keys(spo: tuple[str, str, str]) -> tuple[PatternKey, ...]:
    """The eight pattern keys matching the triple *spo*: *spo* with some
    positions wildcarded."""
    s, p, o = spo
    return (
        (s, p, o), (s, p, None), (s, None, o), (s, None, None),
        (None, p, o), (None, p, None), (None, None, o), (None, None, None),
    )


def touched_pattern_keys(touched: Iterable[tuple[str, str, str]]) -> set[PatternKey]:
    """The :func:`pattern_keys` of *touched*: the lists a write of them can change."""
    return {key for spo in touched for key in pattern_keys(spo)}


class MatchListCacheHook(Protocol):
    """What :meth:`~repro.kg.graph.KnowledgeGraph.match_list` needs from an
    external match-list cache.

    The graph passes its version with every call so the cache can drop
    entries built against an older graph without the graph having to
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
