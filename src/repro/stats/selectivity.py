"""Join cardinalities and selectivities.

§3.1.2 combines per-pattern densities using the answer count of the
combined query, ``m12 = m · m' · φ12``, and footnote 3 states the paper
uses *exact* join selectivity values (precomputed offline, as a
traditional optimizer would precompute statistics).  We provide both:

* **exact** — cached distinct-binding counts, joined over the patterns'
  dictionary-encoded id columns
  (:class:`~repro.operators.block.EncodedMatchList`; offline
  precomputation — the planner only reads the cache at plan time), and
* **independence** — the classic textbook estimate
  ``φ ≈ 1 / max(V(A, left), V(A, right))`` per shared variable,
  available for ablation.

Both read their lists from an
:class:`~repro.operators.block.EncodedListStore` — the one the block
executor serves from when the service layer hands it in, so counting a
query warms exactly the lists that executing it reads next.
"""

from __future__ import annotations

from typing import AbstractSet, Literal, Sequence

import numpy as np

from repro.errors import StatisticsError
from repro.kg.graph import KnowledgeGraph
from repro.kg.index import PatternKey
from repro.kg.pattern import TriplePattern
from repro.operators.block import (
    EncodedListStore,
    EncodedMatchList,
    expand_matches,
    joint_group_ids,
    pack_columns,
)
from repro.query.query import TriplePatternQuery

SelectivityMode = Literal["exact", "independence"]


class JoinCardinalityEstimator:
    """Answer-count estimates for triple-pattern (sub)queries.

    ``mode='exact'`` counts by joining the patterns' encoded match lists
    (cached per pattern set); ``mode='independence'`` multiplies match
    counts by per-join-variable selectivities estimated from
    distinct-value counts.  *encoded_store* serves the lists; by default
    the estimator keeps a private bounded store.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        mode: SelectivityMode = "exact",
        encoded_store: EncodedListStore | None = None,
    ) -> None:
        if mode not in ("exact", "independence"):
            raise StatisticsError(f"unknown selectivity mode {mode!r}")
        self._graph = graph
        self.mode = mode
        # ``is None``, not truthiness: an empty store has length 0.
        self._lists = EncodedListStore() if encoded_store is None else encoded_store
        self._exact_cache: dict[frozenset[TriplePattern], int] = {}
        #: Distinct values per ``(pattern.list_key(), column)``: the column
        #: is the variable's position among the pattern's variables, so
        #: ``(?s p ?o)`` and ``(?o p ?s)`` read their own columns.
        self._distinct_cache: dict[tuple[tuple, int], int] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def cardinality(
        self, query: TriplePatternQuery | tuple[TriplePattern, ...]
    ) -> int:
        """(Estimated) number of answers of *query* (or of a tuple of
        distinct patterns)."""
        patterns = query if isinstance(query, tuple) else query.patterns
        if self.mode == "exact":
            return self._exact_cardinality(patterns)
        return self._independence_cardinality(patterns)

    def precompute(self, queries: Sequence[TriplePatternQuery]) -> int:
        """Warm the exact cache with the answer count of each of *queries*
        (the offline phase) — the one join count PLANGEN reads of a query;
        returns the number of cache entries afterwards."""
        for query in queries:
            self.cardinality(query)
        return len(self._exact_cache)

    @property
    def cache_size(self) -> int:
        return len(self._exact_cache)

    def clear(self) -> None:
        """Forget every cached count (the graph changed arbitrarily)."""
        self._exact_cache.clear()
        self._distinct_cache.clear()

    def drop_matching(self, touched: AbstractSet[PatternKey]) -> None:
        """Forget every cached count that reads a pattern keyed in *touched*.

        A count depends on its own patterns' match-list *rows* only, so
        after a write that changed just the row sets of the *touched* keys
        every other entry is still exact; a write that only re-scored
        rows changes no count, so callers pass the keys whose membership
        changed.
        """
        for patterns in [
            patterns
            for patterns in self._exact_cache
            if any(pattern.key() in touched for pattern in patterns)
        ]:
            del self._exact_cache[patterns]
        for entry in [e for e in self._distinct_cache if e[0][:3] in touched]:
            del self._distinct_cache[entry]

    def _encoded(self, pattern: TriplePattern) -> EncodedMatchList:
        return self._lists.get_or_build(self._graph, pattern)

    # ------------------------------------------------------------------
    # Exact counting (joins over encoded id columns)
    # ------------------------------------------------------------------
    def _exact_cardinality(self, patterns: tuple[TriplePattern, ...]) -> int:
        key = frozenset(patterns)
        cached = self._exact_cache.get(key)
        if cached is None:
            cached = self._exact_cache[key] = self._count_bindings(patterns)
        return cached

    def _count_bindings(self, patterns: Sequence[TriplePattern]) -> int:
        """Distinct full-variable bindings of *patterns* (Definition 4: an
        answer is a mapping, so duplicates collapse): the row count of
        their join, as a list's rows are distinct bindings
        (:class:`~repro.operators.block.EncodedMatchList`) and every join
        below maps distinct rows to distinct rows."""
        # One codec and one graph version for the whole count: the ids of
        # two lists compare only under the same side table.
        codec, version = self._lists.pin(self._graph)
        lists = [
            self._lists.get_or_build(self._graph, pattern, codec, version)
            for pattern in dict.fromkeys(patterns)
        ]
        # Every list is built, so the id domain is final.
        n_ids = codec.n_ids
        # Start from the smallest match list for speed, then join the rest
        # greedily preferring connected patterns.
        remaining = sorted(lists, key=len)
        first = remaining.pop(0)
        bound = dict(zip(first.var_names, first.columns))
        n_rows = len(first)
        while remaining and n_rows:
            other = remaining.pop(
                next(
                    (
                        position
                        for position, candidate in enumerate(remaining)
                        if not bound.keys().isdisjoint(candidate.var_names)
                    ),
                    0,
                )
            )
            columns = dict(zip(other.var_names, other.columns))
            # Sorted, so the key order is the one the block join keeps.
            shared = tuple(sorted(name for name in columns if name in bound))
            own = [bound[name] for name in shared]
            # Zero shared variables pack to one constant key: every row
            # matches every row, the cartesian product.
            own_keys = pack_columns(own, n_ids, n_rows=n_rows)
            held = None if own_keys is None else other.key_order(shared, n_ids)
            if held is None:  # too many key columns to pack into int64
                own_keys, other_keys = joint_group_ids(
                    own, [columns[name] for name in shared]
                )
                order = np.argsort(other_keys, kind="stable")
                sorted_keys = other_keys[order]
            else:
                sorted_keys, order, _ = held
            if len(shared) == len(columns):
                # The list binds nothing new (every star join): a semi-join.
                # *other* is not empty, or the smallest list, joined
                # first, would have left no row.
                slots = np.searchsorted(sorted_keys, own_keys)
                keep = sorted_keys[np.minimum(slots, len(sorted_keys) - 1)] == own_keys
                bound = {name: column[keep] for name, column in bound.items()}
                n_rows = int(np.count_nonzero(keep))
                continue
            lo = np.searchsorted(sorted_keys, own_keys, side="left")
            counts = np.searchsorted(sorted_keys, own_keys, side="right") - lo
            own_rows, positions = expand_matches(lo, counts)
            other_rows = order[positions]
            n_rows = len(own_rows)
            bound = {name: column[own_rows] for name, column in bound.items()}
            for name, column in columns.items():
                if name not in bound:
                    bound[name] = column[other_rows]
        return n_rows

    # ------------------------------------------------------------------
    # Independence-assumption estimation
    # ------------------------------------------------------------------
    def _distinct_values(self, pattern: TriplePattern, variable: str) -> int:
        names = pattern.variable_names
        if variable not in names:
            return 0
        # The variable's column, not its name: two patterns with one key
        # may bind the same name at different positions.
        cache_key = (pattern.list_key(), names.index(variable))
        cached = self._distinct_cache.get(cache_key)
        if cached is None:
            encoded = self._encoded(pattern)
            cached = len(np.unique(encoded.columns[cache_key[1]]))
            self._distinct_cache[cache_key] = cached
        return cached

    def _independence_cardinality(self, patterns: tuple[TriplePattern, ...]) -> int:
        estimate = 1.0
        seen: list[TriplePattern] = []
        for pattern in patterns:
            estimate *= len(self._encoded(pattern))
            for variable in pattern.variable_names:
                for previous in seen:
                    if variable in previous.variable_names:
                        v_left = self._distinct_values(previous, variable)
                        v_right = self._distinct_values(pattern, variable)
                        denominator = max(v_left, v_right)
                        if denominator > 0:
                            estimate /= denominator
                        else:
                            estimate = 0.0
                        break  # one factor per (pattern, variable)
            seen.append(pattern)
        return max(int(round(estimate)), 0)
