"""Triple patterns and variables (Definition 2 of the paper).

A triple pattern is ``⟨S P O⟩`` where each position is either a constant
term from the KG or a :class:`Variable`.  A pattern matches every triple
that agrees with it on the constant positions; matching binds the
variables to the triple's values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.errors import PatternError
from repro.kg.triple import Triple


@dataclass(frozen=True, slots=True)
class Variable:
    """A SPARQL-style variable, printed with a leading question mark."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise PatternError("variable name must be non-empty")
        if self.name.startswith("?"):
            raise PatternError(
                f"variable name should not include the '?' prefix: {self.name!r}"
            )

    def __str__(self) -> str:
        return f"?{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Variable({self.name!r})"


Term = str | Variable


def is_variable(term: object) -> bool:
    """True iff *term* is a :class:`Variable`."""
    return isinstance(term, Variable)


def var(name: str) -> Variable:
    """Shorthand constructor: ``var('s') == Variable('s')``."""
    return Variable(name)


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """An ``⟨S P O⟩`` pattern over constants and variables.

    The pattern's :meth:`key` — the three positions with every variable
    replaced by ``None`` — names its candidates in the KG index: two
    patterns with the same key and no repeated variable match exactly
    the same triples, even if their variables are named differently.
    Match lists are cached under :meth:`list_key`, which also tells a
    repeated-variable pattern from its unconstrained twin.
    """

    subject: Term
    predicate: Term
    object: Term
    #: :meth:`key`, :meth:`list_key` and the hash, computed once at
    #: construction: planning reads them on every catalog lookup, join
    #: count and dict probe.
    _key: tuple = field(init=False, repr=False, compare=False)
    _list_key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    #: :meth:`variable_positions`, computed on first use: list building
    #: reads it for every input of every merge, most (rule) patterns never.
    _positions: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for position, value in zip("SPO", self.terms):
            if isinstance(value, Variable):
                continue
            if not isinstance(value, str) or not value:
                raise PatternError(
                    f"pattern position {position} must be a Variable or a "
                    f"non-empty string, got {value!r}"
                )
        key = tuple(None if isinstance(t, Variable) else t for t in self.terms)
        terms = self.terms
        # A variable needs two positions to repeat; terms.index finds its first.
        repeated = tuple(
            (terms.index(term), position)
            for position, term in enumerate(terms)
            if isinstance(term, Variable) and terms.index(term) != position
        ) if key.count(None) >= 2 else ()
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_list_key", key + (repeated,) if repeated else key)
        # The hash of the fields equality compares, as the dataclass's own.
        object.__setattr__(self, "_hash", hash(terms))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Pickle the three terms only: unpickling runs the constructor,
        # which validates them and recomputes the cached keys and hash.
        return (type(self), (self.subject, self.predicate, self.object))

    @property
    def terms(self) -> tuple[Term, Term, Term]:
        return (self.subject, self.predicate, self.object)

    @property
    def variables(self) -> tuple[Variable, ...]:
        """The distinct variables, in S-P-O position order."""
        return tuple(self.terms[position] for position in self.variable_positions()[1])

    @property
    def variable_names(self) -> tuple[str, ...]:
        return self.variable_positions()[0]

    def variable_positions(self) -> tuple[tuple[str, ...], tuple[int, ...]]:
        """The distinct variable names in S-P-O order, and the first
        position each one holds."""
        if self._positions is None:
            terms = self.terms
            first = tuple(
                position
                for position, term in enumerate(terms)
                if isinstance(term, Variable) and terms.index(term) == position
            )
            names = tuple(terms[position].name for position in first)
            object.__setattr__(self, "_positions", (names, first))
        return self._positions

    @property
    def repeated_positions(self) -> tuple[tuple[int, int], ...]:
        """``(first, later)`` position pairs that hold the same variable
        and so must bind equally; empty unless a variable repeats."""
        return self._list_key[3] if len(self._list_key) > 3 else ()

    def key(self) -> tuple[str | None, str | None, str | None]:
        """Constants with variables wildcarded — the index lookup key."""
        return self._key  # type: ignore[return-value]

    def list_key(self) -> tuple:
        """What identifies this pattern's *match list*: :meth:`key`, plus
        the repeated positions when a variable repeats — ``(?x p ?x)``
        matches only the diagonal of what ``(?x p ?y)`` matches, so the
        two must not share a cache entry.  ``list_key()[:3]`` is always
        :meth:`key`, and for every pattern without a repeated variable
        the two are equal."""
        return self._list_key

    def matches(self, triple: Triple) -> bool:
        """True iff *triple* agrees with this pattern's constant positions
        and repeated variables bind consistently."""
        return self.bind(triple) is not None

    def bind(self, triple: Triple) -> dict[str, str] | None:
        """Return the variable bindings for *triple*, or ``None`` on mismatch.

        Handles repeated variables (``?x p ?x``) by requiring consistency.
        """
        bindings: dict[str, str] = {}
        for term, value in zip(self.terms, triple.spo):
            if isinstance(term, Variable):
                bound = bindings.get(term.name)
                if bound is None:
                    bindings[term.name] = value
                elif bound != value:
                    return None
            elif term != value:
                return None
        return bindings

    def substitute(self, bindings: Mapping[str, str]) -> "TriplePattern":
        """Replace every variable that *bindings* covers with its value."""
        new_terms = []
        for term in self.terms:
            if isinstance(term, Variable) and term.name in bindings:
                new_terms.append(bindings[term.name])
            else:
                new_terms.append(term)
        return TriplePattern(*new_terms)

    def rename(self, mapping: Mapping[str, str]) -> "TriplePattern":
        """Rename variables according to *mapping* (old name -> new name)."""
        new_terms: list[Term] = []
        for term in self.terms:
            if isinstance(term, Variable) and term.name in mapping:
                new_terms.append(Variable(mapping[term.name]))
            else:
                new_terms.append(term)
        return TriplePattern(*new_terms)

    def shares_variable_with(self, other: "TriplePattern") -> bool:
        return bool(set(self.variable_names) & set(other.variable_names))

    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms)

    def __str__(self) -> str:
        return " ".join(str(t) for t in self.terms)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TriplePattern({self.subject!r}, {self.predicate!r}, {self.object!r})"
