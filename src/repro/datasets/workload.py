"""The workload bundle experiments run against.

A :class:`Workload` packages a generated KG, its mined relaxation rules
and a named query set, plus light self-validation mirroring the paper's
workload constraints (non-empty result sets, minimum relaxations per
pattern).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.errors import DatasetError
from repro.kg.graph import KnowledgeGraph
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RuleSet


@dataclass
class Workload:
    """A dataset + rule set + query set, ready for the harness."""

    name: str
    graph: KnowledgeGraph
    rules: RuleSet
    queries: list[TriplePatternQuery] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.queries:
            raise DatasetError(f"workload {self.name!r} has no queries")
        names = [q.name for q in self.queries]
        if len(set(names)) != len(names):
            raise DatasetError(f"workload {self.name!r} has duplicate query names")

    # ------------------------------------------------------------------
    def queries_by_size(self) -> dict[int, list[TriplePatternQuery]]:
        """Group queries by number of triple patterns (the figures' x-axis)."""
        grouped: dict[int, list[TriplePatternQuery]] = {}
        for query in self.queries:
            grouped.setdefault(len(query), []).append(query)
        return dict(sorted(grouped.items()))

    # ------------------------------------------------------------------
    # Batch iteration (the service layer's input shapes)
    # ------------------------------------------------------------------
    def iter_batches(
        self,
        batch_size: int,
        queries: Sequence[TriplePatternQuery] | None = None,
    ) -> Iterator[list[TriplePatternQuery]]:
        """Yield successive batches of at most *batch_size* queries.

        The final batch may be short.  Pass *queries* to batch an
        alternative stream (e.g. :meth:`stretched`).
        """
        if batch_size < 1:
            raise DatasetError(f"batch_size must be >= 1, got {batch_size}")
        source = list(queries if queries is not None else self.queries)
        for start in range(0, len(source), batch_size):
            yield source[start : start + batch_size]

    def stretched(
        self, n_queries: int, seed: int | None = None
    ) -> list[TriplePatternQuery]:
        """At least *n_queries* queries, cycling the set as needed.

        Repeats keep their original name plus a round suffix so batch
        reports stay attributable.  Cycling is the standard way to drive a
        workload-scale run from a fixed query set — repeats are exactly
        what shared caches exist to exploit.

        With an explicit *seed* the stream is shuffled deterministically
        (same seed, same stream), interleaving the rounds the way served
        traffic actually arrives instead of replaying the set in order;
        ``None`` keeps the plain cycling order.
        """
        if n_queries < 1:
            raise DatasetError(f"n_queries must be >= 1, got {n_queries}")
        stream: list[TriplePatternQuery] = []
        round_no = 0
        while len(stream) < n_queries:
            for query in self.queries:
                if round_no == 0:
                    stream.append(query)
                else:
                    stream.append(
                        TriplePatternQuery(
                            query.patterns,
                            query.projection,
                            name=f"{query.name}#r{round_no}",
                        )
                    )
                if len(stream) == n_queries:
                    break
            round_no += 1
        if seed is not None:
            random.Random(seed).shuffle(stream)
        return stream

    def validate(
        self,
        min_relaxations_per_pattern: int = 0,
        require_nonempty: bool = False,
    ) -> list[str]:
        """Check the paper's workload constraints; returns violations
        (empty list = all good)."""
        problems: list[str] = []
        for query in self.queries:
            for pattern in query.patterns:
                n_rules = self.rules.n_rules_for(pattern)
                if n_rules < min_relaxations_per_pattern:
                    problems.append(
                        f"{query.name}: pattern '{pattern}' has {n_rules} "
                        f"relaxations (< {min_relaxations_per_pattern})"
                    )
            if require_nonempty:
                if not all(self.graph.count(pattern) for pattern in query.patterns):
                    problems.append(
                        f"{query.name}: some pattern has an empty match list"
                    )
        return problems

    def summary(self) -> dict[str, object]:
        sizes = {size: len(qs) for size, qs in self.queries_by_size().items()}
        return {
            "name": self.name,
            "triples": self.graph.size,
            "rules": len(self.rules),
            "queries": len(self.queries),
            "queries_by_size": sizes,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Workload({self.name!r}, triples={self.graph.size}, "
            f"queries={len(self.queries)}, rules={len(self.rules)})"
        )
