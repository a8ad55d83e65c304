"""Triple-pattern queries (Definition 3).

A :class:`TriplePatternQuery` is an ordered collection of distinct triple
patterns sharing variables.  Order matters only for determinism (plan
shapes, tie-breaking); set semantics govern equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.errors import QueryError
from repro.kg.pattern import TriplePattern, Variable


@dataclass(frozen=True)
class TriplePatternQuery:
    """An ordered, duplicate-free sequence of triple patterns.

    Parameters
    ----------
    patterns:
        The triple patterns.  Must be non-empty and duplicate-free.
    projection:
        Variables to report in answers.  Defaults to all variables.
    name:
        Optional label used by workloads and reports.
    """

    patterns: tuple[TriplePattern, ...]
    projection: tuple[Variable, ...] = ()
    name: str = ""

    def __init__(
        self,
        patterns: Sequence[TriplePattern],
        projection: Sequence[Variable] | None = None,
        name: str = "",
    ) -> None:
        patterns = tuple(patterns)
        if not patterns:
            raise QueryError("a query must contain at least one triple pattern")
        if len(set(patterns)) != len(patterns):
            raise QueryError("duplicate triple patterns in query")
        all_vars = _ordered_variables(patterns)
        if projection is None:
            projection_tuple = all_vars
        else:
            projection_tuple = tuple(projection)
            unknown = [v for v in projection_tuple if v not in all_vars]
            if unknown:
                raise QueryError(
                    f"projection variables not in query: "
                    f"{', '.join(str(v) for v in unknown)}"
                )
        object.__setattr__(self, "patterns", patterns)
        object.__setattr__(self, "projection", projection_tuple)
        object.__setattr__(self, "name", name)

    # ------------------------------------------------------------------
    @property
    def variables(self) -> tuple[Variable, ...]:
        """All distinct variables in first-occurrence order."""
        return _ordered_variables(self.patterns)

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self) -> Iterator[TriplePattern]:
        return iter(self.patterns)

    def __contains__(self, pattern: object) -> bool:
        return pattern in self.patterns

    def index_of(self, pattern: TriplePattern) -> int:
        try:
            return self.patterns.index(pattern)
        except ValueError:
            raise QueryError(f"pattern {pattern} not in query") from None

    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    def replace(self, old: TriplePattern, new: TriplePattern) -> "TriplePatternQuery":
        """Return a copy with *old* swapped for *new* (Definition 8's
        ``(Q \\ q) ∪ q'``), preserving position and projection."""
        idx = self.index_of(old)
        if new in self.patterns and new != old:
            raise QueryError(f"pattern {new} already present in query")
        new_patterns = list(self.patterns)
        new_patterns[idx] = new
        projection = tuple(v for v in self.projection)
        surviving = _ordered_variables(tuple(new_patterns))
        projection = tuple(v for v in projection if v in surviving) or surviving
        return TriplePatternQuery(new_patterns, projection, self.name)

    def without(self, pattern: TriplePattern) -> "TriplePatternQuery":
        """Return a copy lacking *pattern*."""
        idx = self.index_of(pattern)
        rest = self.patterns[:idx] + self.patterns[idx + 1:]
        if not rest:
            raise QueryError("cannot remove the only pattern of a query")
        surviving = _ordered_variables(rest)
        projection = tuple(v for v in self.projection if v in surviving) or surviving
        return TriplePatternQuery(rest, projection, self.name)

    def subquery(self, patterns: Sequence[TriplePattern], name: str = "") -> "TriplePatternQuery":
        """Build a query from a subset of this query's patterns."""
        for pattern in patterns:
            if pattern not in self.patterns:
                raise QueryError(f"pattern {pattern} not in query")
        surviving = _ordered_variables(tuple(patterns))
        projection = tuple(v for v in self.projection if v in surviving) or surviving
        return TriplePatternQuery(tuple(patterns), projection, name or self.name)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriplePatternQuery):
            return NotImplemented
        return set(self.patterns) == set(other.patterns) and set(
            self.projection
        ) == set(other.projection)

    def __hash__(self) -> int:
        return hash((frozenset(self.patterns), frozenset(self.projection)))

    def __str__(self) -> str:
        body = " . ".join(str(p) for p in self.patterns)
        proj = " ".join(str(v) for v in self.projection)
        return f"SELECT {proj} WHERE {{ {body} }}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" name={self.name!r}" if self.name else ""
        return f"TriplePatternQuery({len(self.patterns)} patterns{label})"


def _ordered_variables(patterns: Sequence[TriplePattern]) -> tuple[Variable, ...]:
    seen: dict[Variable, None] = {}
    for pattern in patterns:
        for v in pattern.variables:
            seen.setdefault(v)
    return tuple(seen)
