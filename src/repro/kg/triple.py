"""Scored triples (Definition 1 of the paper).

A triple is ``⟨s p o⟩`` with a non-negative raw score ``S(t)``.  Raw scores
are counts in both of the paper's datasets (occurrence counts / inlink
counts for XKG, retweet counts for Twitter); the engine never interprets
them directly — all operator-level scores are *normalised per match list*
(Definition 5), which happens in
:meth:`repro.kg.graph.KnowledgeGraph.match_list`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import KnowledgeGraphError


@dataclass(frozen=True, slots=True)
class Triple:
    """An immutable ``(subject, predicate, object)`` triple with a score.

    Equality and hashing ignore the score: the KG treats a triple's
    identity as its three terms, and re-adding a triple updates its score
    rather than duplicating it.
    """

    subject: str
    predicate: str
    object: str
    score: float = 1.0

    def __post_init__(self) -> None:
        for field_name in ("subject", "predicate", "object"):
            value = getattr(self, field_name)
            if not isinstance(value, str) or not value:
                raise KnowledgeGraphError(
                    f"triple {field_name} must be a non-empty string, got {value!r}"
                )
        if not isinstance(self.score, (int, float)):
            raise KnowledgeGraphError(f"triple score must be numeric, got {self.score!r}")
        if self.score < 0:
            raise KnowledgeGraphError(f"triple score must be >= 0, got {self.score}")

    @property
    def spo(self) -> tuple[str, str, str]:
        """The identity of the triple: its three terms."""
        return (self.subject, self.predicate, self.object)

    def with_score(self, score: float) -> "Triple":
        """Return a copy of this triple carrying *score*."""
        return Triple(self.subject, self.predicate, self.object, score)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        return self.spo == other.spo

    def __hash__(self) -> int:
        return hash(self.spo)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Triple({self.subject!r}, {self.predicate!r}, {self.object!r}, score={self.score:g})"
