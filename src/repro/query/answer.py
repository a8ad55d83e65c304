"""Answers and partial answers (Definitions 4, 6, 8).

An :class:`Answer` is a mapping from variable names to KG terms plus a
score.  During evaluation, operators pass around :class:`PartialAnswer`
objects — answers covering only a subset of the query's patterns — and the
memory metric of the paper ("number of answer objects created") counts
every one of them, so construction goes through
:meth:`PartialAnswer.create` which notifies an accounting hook.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.errors import ExecutionError


@dataclass(frozen=True, slots=True)
class Answer:
    """A final, projected answer.

    ``bindings`` maps variable names (no ``?`` prefix) to terms; ``score``
    is the (possibly relaxation-discounted) aggregate score of Definition
    6/8.  Equality ignores the score: an answer's identity is its bindings,
    which is what lets "first occurrence in descending-score order" realise
    ``S(A) = max over relaxations``.
    """

    bindings: tuple[tuple[str, str], ...]
    score: float

    @classmethod
    def from_mapping(cls, bindings: Mapping[str, str], score: float) -> "Answer":
        return cls(tuple(sorted(bindings.items())), float(score))

    def as_dict(self) -> dict[str, str]:
        return dict(self.bindings)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Answer):
            return NotImplemented
        return self.bindings == other.bindings

    def __hash__(self) -> int:
        return hash(self.bindings)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"?{k}={v}" for k, v in self.bindings)
        return f"Answer({inner}, score={self.score:.4f})"


class AnswerFactory:
    """Creates :class:`PartialAnswer` objects and counts every creation.

    The paper's memory metric is "the total number of answer objects
    created … including all the intermediate answer objects encountered by
    Incremental Merges and Rank Joins".  All operators share one factory
    per execution, so the counter is exactly that number.
    """

    __slots__ = ("objects_created",)

    def __init__(self) -> None:
        self.objects_created = 0

    def make(
        self,
        bindings: Mapping[str, str],
        score: float,
        patterns_covered: frozenset[int],
    ) -> "PartialAnswer":
        self.objects_created += 1
        return PartialAnswer(
            bindings=dict(bindings),
            score=float(score),
            patterns_covered=patterns_covered,
        )

    def join(self, left: "PartialAnswer", right: "PartialAnswer") -> "PartialAnswer | None":
        """Join two partial answers if their shared bindings agree.

        Returns ``None`` on conflict.  Scores add (Definition 6: an
        answer's score is the sum of its per-pattern triple scores, and
        relaxation weights were already folded in per-triple).
        """
        overlap = left.patterns_covered & right.patterns_covered
        if overlap:
            raise ExecutionError(
                f"joining partial answers covering overlapping patterns {sorted(overlap)}"
            )
        for name, value in right.bindings.items():
            existing = left.bindings.get(name)
            if existing is not None and existing != value:
                return None
        merged = dict(left.bindings)
        merged.update(right.bindings)
        self.objects_created += 1
        return PartialAnswer(
            bindings=merged,
            score=left.score + right.score,
            patterns_covered=left.patterns_covered | right.patterns_covered,
        )


@dataclass(slots=True)
class PartialAnswer:
    """A binding covering a subset of the query's patterns.

    ``patterns_covered`` holds the indexes (into the query's pattern
    tuple) this partial answer accounts for; the executor uses it to
    assert that a plan's joins are well-formed.

    Construct through :class:`AnswerFactory` so the memory metric stays
    accurate.
    """

    bindings: dict[str, str]
    score: float
    patterns_covered: frozenset[int]

    def identity(self) -> tuple[tuple[str, str], ...]:
        """Binding identity used for duplicate elimination."""
        return tuple(sorted(self.bindings.items()))

    def to_answer(self, projection: tuple[str, ...] | None = None) -> Answer:
        if projection is None:
            return Answer(self.identity(), self.score)
        kept = tuple(
            (name, self.bindings[name])
            for name in sorted(projection)
            if name in self.bindings
        )
        return Answer(kept, self.score)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"?{k}={v}" for k, v in sorted(self.bindings.items()))
        return f"PartialAnswer({inner}, score={self.score:.4f})"
