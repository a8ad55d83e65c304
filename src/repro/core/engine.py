"""The public engine facade.

:class:`SpecQPEngine` wires the statistics catalog, the estimator, PLANGEN
and the executor together behind a two-call API::

    engine = SpecQPEngine(graph, rules)
    result = engine.query(query, k=10)

It also exposes :meth:`query_trinit` (the non-speculative baseline run
through the same operators) so experiments compare like with like.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.config import EngineConfig
from repro.core.estimator import ExpectedScoreEstimator
from repro.core.executor import (
    EXECUTOR_MODES,
    ExecutorChoice,
    ExecutorMode,
    PlanExecutor,
)
from repro.core.plan import QueryPlan
from repro.core.planner import PlannerDecision, SpecQPPlanner
from repro.errors import ExecutionError
from repro.kg.graph import KnowledgeGraph
from repro.kg.index import MatchListCacheHook
from repro.operators.block import EncodedListStore
from repro.query.answer import Answer
from repro.query.query import TriplePatternQuery
from repro.query.sparql import parse_sparql
from repro.relax.rules import RuleSet
from repro.stats.catalog import StatisticsCatalog


@dataclass(frozen=True)
class QueryResult:
    """Everything one engine run produced.

    ``planning_seconds`` is 0.0 for non-speculative plans (TriniT spends
    no time planning); ``total_seconds`` is the paper's "time taken to
    plan and execute each query".
    """

    answers: tuple[Answer, ...]
    plan: QueryPlan
    decision: PlannerDecision | None
    planning_seconds: float
    execution_seconds: float
    answer_objects_created: int
    tuples_pulled: int

    @property
    def total_seconds(self) -> float:
        return self.planning_seconds + self.execution_seconds

    @property
    def scores(self) -> tuple[float, ...]:
        return tuple(answer.score for answer in self.answers)

    @property
    def n_relaxed(self) -> int:
        return self.plan.n_relaxed


class SpecQPEngine:
    """Speculative top-k query engine over a scored KG with relaxations.

    Parameters
    ----------
    graph:
        The knowledge graph.
    rules:
        The mined weighted relaxation rules.
    config:
        Engine knobs; ``EngineConfig()`` reproduces the paper's setup.
    catalog:
        Optionally share a prebuilt :class:`StatisticsCatalog` (e.g. one
        warmed offline for a whole workload); by default the engine builds
        its own from *config*.
    match_list_cache:
        Optionally route the graph's match-list lookups through a shared
        external cache (see :class:`repro.service.MatchListCache`); the
        engine attaches it to *graph* on construction.  Several engines
        over the same graph may share one cache.  Attaching a *different* cache than the one
        already on the graph raises, because it would silently reroute
        every other engine's lookups; engines built without this
        argument simply use whatever the graph already has attached.
    executor:
        ``"block"`` (default) — the vectorized engine that joins whole
        lists of dictionary-encoded id arrays and decodes only at the
        top-k cut — ``"auto"``, which is block made explicit
        (:meth:`resolve_executor` reports it), or ``"tuple"``, the
        paper's pull-based object pipeline, kept as the reference and
        run only when named.  Answers and scores are byte-identical under
        all three.  Every backend runs the block engine over its column
        store (an object graph interns its triples on the first encoded
        read).  See :mod:`repro.operators.block`.
    encoded_store:
        Optionally share one :class:`~repro.operators.block.EncodedListStore`
        across engines (the block twin of *match_list_cache*): the store
        the block executor serves from and a catalog the engine builds
        itself counts join cardinalities over.  By default the engine
        keeps a private one of the store's default capacity.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        rules: RuleSet,
        config: EngineConfig | None = None,
        catalog: StatisticsCatalog | None = None,
        match_list_cache: MatchListCacheHook | None = None,
        executor: ExecutorMode = "block",
        encoded_store: "EncodedListStore | None" = None,
    ) -> None:
        if executor not in EXECUTOR_MODES:
            raise ExecutionError(
                f"unknown executor {executor!r}; choose from {EXECUTOR_MODES}"
            )
        self.config = config or EngineConfig()
        self.graph = graph
        self.rules = rules
        self.match_list_cache = match_list_cache
        if match_list_cache is not None:
            attached = graph.match_list_cache
            if attached is not None and attached is not match_list_cache:
                raise ValueError(
                    "graph already has a different match-list cache attached; "
                    "share one cache across engines or detach the old one first"
                )
            graph.attach_match_list_cache(match_list_cache)
        if encoded_store is None:
            encoded_store = EncodedListStore()
        self.catalog = catalog or StatisticsCatalog(
            graph,
            mass_fraction=self.config.mass_fraction,
            histogram_kind=self.config.histogram_kind,  # type: ignore[arg-type]
            n_buckets=self.config.n_buckets,
            selectivity_mode=self.config.selectivity_mode,  # type: ignore[arg-type]
            # Planning then warms the lists execution reads next.
            encoded_store=encoded_store,
        )
        self.estimator = ExpectedScoreEstimator(self.catalog)
        self.planner = SpecQPPlanner(
            self.estimator,
            rules,
            relax_all_when_insufficient=self.config.relax_all_when_insufficient,
        )
        self._executor_mode: ExecutorMode = executor
        self.executor = PlanExecutor(
            graph,
            rules,
            self.config.max_relaxations_per_pattern,
            encoded_store=encoded_store,
        )

    @property
    def executor_kind(self) -> ExecutorMode:
        """The configured execution mode (``"tuple"``/``"block"``/``"auto"``)."""
        return self._executor_mode

    def resolve_executor(self, query: TriplePatternQuery) -> ExecutorChoice:
        """The concrete pipeline that will serve *query*, and why.

        Block unless the engine is pinned to ``"tuple"``; the same for
        every query of one engine.
        """
        mode = self._executor_mode
        if mode == "auto":
            return ExecutorChoice("block", "block-available")
        return ExecutorChoice(mode, "pinned")

    # ------------------------------------------------------------------
    def parse(self, text: str) -> TriplePatternQuery:
        """Parse mini-SPARQL text (convenience passthrough)."""
        return parse_sparql(text)

    def plan(self, query: TriplePatternQuery, k: int | None = None) -> PlannerDecision:
        """Run PLANGEN only (no execution)."""
        return self.planner.plan(query, self.config.k if k is None else k)

    def query(
        self, query: TriplePatternQuery | str, k: int | None = None
    ) -> QueryResult:
        """Speculatively plan and execute *query*, returning top-k."""
        return self._run(query, k, None)

    def query_trinit(
        self, query: TriplePatternQuery | str, k: int | None = None
    ) -> QueryResult:
        """Run the TriniT baseline plan (all patterns relaxed; true top-k)."""
        return self._run(query, k, QueryPlan.trinit)

    def query_exact(
        self, query: TriplePatternQuery | str, k: int | None = None
    ) -> QueryResult:
        """Run without any relaxations (plain rank joins)."""
        return self._run(query, k, QueryPlan.exact)

    # ------------------------------------------------------------------
    def _run(
        self,
        query: TriplePatternQuery | str,
        k: int | None,
        fixed_plan: Callable[[TriplePatternQuery], QueryPlan] | None,
    ) -> QueryResult:
        """Execute *fixed_plan* of *query*, or PLANGEN's plan when ``None``."""
        if isinstance(query, str):
            query = self.parse(query)
        k = self.config.k if k is None else k
        decision = None if fixed_plan else self.planner.plan(query, k)
        plan = fixed_plan(query) if fixed_plan else decision.plan
        execution = self.executor.execute(
            plan, k, executor=self.resolve_executor(query).executor
        )
        return QueryResult(
            answers=execution.answers,
            plan=plan,
            decision=decision,
            planning_seconds=decision.planning_seconds if decision else 0.0,
            execution_seconds=execution.execution_seconds,
            answer_objects_created=execution.answer_objects_created,
            tuples_pulled=execution.tuples_pulled,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpecQPEngine(graph={self.graph.name!r}, k={self.config.k}, "
            f"rules={len(self.rules)})"
        )
