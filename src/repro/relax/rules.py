"""Weighted relaxation rules (Definition 7).

A rule ``r = (q, q', w)`` relaxes the *domain* pattern ``q`` into the
*range* pattern ``q'``; ``w ∈ (0, 1]`` is the score discount applied to
answers obtained through the relaxation.  A :class:`RuleSet` indexes rules
by the domain pattern's key so lookup is independent of variable naming.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
from typing import Iterable, Iterator

from repro.errors import RelaxationError
from repro.kg.pattern import TriplePattern, Variable


@dataclass(frozen=True)
class RelaxationRule:
    """``(domain, range, weight)`` with structural validation.

    The range must bind the same variables as the domain (otherwise the
    relaxed query would change its answer schema), and the weight must lie
    in ``(0, 1]`` — a zero-weight rule can never contribute to any top-k
    and is rejected outright.
    """

    domain: TriplePattern
    range: TriplePattern
    weight: float

    def __post_init__(self) -> None:
        if not 0.0 < self.weight <= 1.0:
            raise RelaxationError(
                f"relaxation weight must be in (0, 1], got {self.weight}"
            )
        if set(self.domain.variable_names) != set(self.range.variable_names):
            raise RelaxationError(
                f"relaxation must preserve variables: domain uses "
                f"{sorted(self.domain.variable_names)}, range uses "
                f"{sorted(self.range.variable_names)}"
            )
        if self.domain == self.range:
            raise RelaxationError("a rule must change the pattern")

    def rename_to(self, domain: TriplePattern) -> "RelaxationRule":
        """Re-express this rule with *domain*'s variable names.

        Rules are stored keyed by pattern structure; when a query uses
        different variable names than the stored rule, the range pattern's
        variables are renamed positionally to match.
        """
        if domain.key() != self.domain.key():
            raise RelaxationError(
                f"cannot retarget rule for key {self.domain.key()} onto "
                f"pattern with key {domain.key()}"
            )
        mapping: dict[str, str] = {}
        for stored_term, new_term in zip(self.domain.terms, domain.terms):
            if isinstance(stored_term, Variable) and isinstance(new_term, Variable):
                mapping[stored_term.name] = new_term.name
        return RelaxationRule(domain, self.range.rename(mapping), self.weight)

    def __str__(self) -> str:
        return f"({self.domain}  ~>  {self.range}, w={self.weight:.3f})"


#: Patterns :meth:`RuleSet.for_pattern` memoises before it starts over.
_MEMO_LIMIT = 4096


class RuleSet:
    """A collection of relaxation rules indexed by domain-pattern key.

    Lookups are variable-name agnostic: a rule stored for
    ``?x rdf:type singer`` applies to ``?s rdf:type singer`` (with its
    range renamed accordingly).

    :attr:`version` counts the mutations: anything derived from the
    set's content (the :meth:`for_pattern` memo here, the block
    executor's pre-merged relaxation lists) is keyed on it, so a rule
    added later can never be answered from a stale derivation.
    """

    def __init__(self, rules: Iterable[RelaxationRule] | None = None) -> None:
        self._by_key: dict[tuple[str | None, str | None, str | None], list[RelaxationRule]] = {}
        self._count = 0
        self.version = 0
        self._renamed: dict[TriplePattern, tuple[RelaxationRule, ...]] = {}
        if rules is not None:
            for rule in rules:
                self.add(rule)

    def add(self, rule: RelaxationRule) -> None:
        """Add *rule*; replaces an existing rule with the same domain/range."""
        bucket = self._by_key.setdefault(rule.domain.key(), [])
        for i, existing in enumerate(bucket):
            if existing.range.key() == rule.range.key():
                bucket[i] = rule
                break
        else:
            bucket.append(rule)
            self._count += 1
        # A replacement can move the rule's rank too: re-sort either way.
        # Ties on weight order by range key, a variable after any term.
        bucket.sort(
            key=lambda r: (
                -r.weight,
                tuple((term is None, term or "") for term in r.range.key()),
            )
        )
        self.version += 1
        # A fresh dict, not clear(): a reader racing this add then fills
        # the dict it started with, which nobody reads again.
        self._renamed = {}

    def add_all(self, rules: Iterable[RelaxationRule]) -> None:
        for rule in rules:
            self.add(rule)

    def for_pattern(self, pattern: TriplePattern) -> list[RelaxationRule]:
        """Rules applicable to *pattern*, best weight first, retargeted to
        *pattern*'s variable names (memoised per pattern until the next
        :meth:`add`; the returned list is the caller's own)."""
        return list(self._retargeted(pattern))

    def top_for_pattern(self, pattern: TriplePattern) -> RelaxationRule | None:
        """The highest-weight rule of :meth:`for_pattern`; of tied weights
        the last, i.e. ``max`` by :meth:`add`'s range-key order."""
        rules = self._retargeted(pattern)
        ties = list(takewhile(lambda rule: rule.weight == rules[0].weight, rules))
        return ties[-1] if ties else None

    def _retargeted(self, pattern: TriplePattern) -> tuple[RelaxationRule, ...]:
        renamed = self._renamed
        rules = renamed.get(pattern)
        if rules is None:
            if len(renamed) >= _MEMO_LIMIT:  # fresh variable names forever
                renamed = self._renamed = {}
            rules = renamed[pattern] = tuple(
                rule.rename_to(pattern)
                for rule in self._by_key.get(pattern.key(), ())
            )
        return rules

    def has_rules_for(self, pattern: TriplePattern) -> bool:
        return bool(self._by_key.get(pattern.key()))

    def n_rules_for(self, pattern: TriplePattern) -> int:
        return len(self._by_key.get(pattern.key(), []))

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[RelaxationRule]:
        for bucket in self._by_key.values():
            yield from bucket

    def domains(self) -> list[tuple[str | None, str | None, str | None]]:
        """All domain keys with at least one rule."""
        return sorted(self._by_key, key=lambda k: tuple(t or "" for t in k))

    def merged_with(self, other: "RuleSet") -> "RuleSet":
        merged = RuleSet(self)
        merged.add_all(other)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RuleSet({self._count} rules over {len(self._by_key)} domains)"
