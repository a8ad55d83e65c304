"""The TriniT baseline engine (§2.1).

TriniT processes every triple pattern through an Incremental Merge over
the pattern and *all* its relaxations, then rank-joins the merged streams
(Figure 2).  It produces the exact top-k under the relaxation scoring
semantics and is therefore the ground truth for the quality metrics.

This class is a thin convenience wrapper over the shared plan/executor
machinery — the TriniT plan is :meth:`QueryPlan.trinit` — so both engines
run through identical operator code, keeping the comparison fair.  Like a
default :class:`~repro.core.engine.SpecQPEngine` it runs the block
pipeline: it merges each pattern's relaxations into one stored list and
joins the whole lists, with answers byte-identical to the paper's
pull-based pipeline.
"""

from __future__ import annotations

from repro.core.executor import ExecutionResult, PlanExecutor
from repro.core.plan import QueryPlan
from repro.kg.graph import KnowledgeGraph
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RuleSet


class TriniTEngine:
    """Non-speculative top-k engine: all relaxations, always."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        rules: RuleSet,
        max_relaxations_per_pattern: int | None = None,
    ) -> None:
        self.graph = graph
        self.rules = rules
        self._executor = PlanExecutor(graph, rules, max_relaxations_per_pattern)

    def plan(self, query: TriplePatternQuery) -> QueryPlan:
        """The TriniT plan: every pattern is a singleton."""
        return QueryPlan.trinit(query)

    def query(self, query: TriplePatternQuery, k: int) -> ExecutionResult:
        """Evaluate *query* to its true top-k."""
        return self._executor.execute(self.plan(query), k)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TriniTEngine(graph={self.graph.name!r}, rules={len(self.rules)})"
