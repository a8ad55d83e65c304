"""Per-query evaluation records shared by all tables and figures.

An :class:`ExperimentSession` evaluates every workload query at every
``k`` with both engines — Spec-QP and TriniT — under the paper's warm-
cache timing protocol, and derives all quality metrics once.  Table and
figure runners then only aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import EngineConfig
from repro.core.engine import QueryResult, SpecQPEngine
from repro.datasets.workload import Workload
from repro.errors import ExperimentError
from repro.metrics.efficiency import TimingProtocol
from repro.metrics.quality import (
    ScoreError,
    precision_at_k,
    prediction_is_exact,
    required_relaxations,
    score_error,
)
from repro.query.answer import Answer
from repro.query.query import TriplePatternQuery


@dataclass(frozen=True)
class QueryRecord:
    """Everything measured for one (query, k) pair."""

    dataset: str
    query_name: str
    k: int
    n_patterns: int

    # Spec-QP
    spec_answers: tuple[Answer, ...]
    spec_plan: str
    predicted_relaxed: frozenset[int]
    spec_planning_seconds: float
    spec_total_seconds: float
    spec_answer_objects: int

    # TriniT (true top-k)
    trinit_answers: tuple[Answer, ...]
    trinit_total_seconds: float
    trinit_answer_objects: int

    # Quality
    required_relaxed: frozenset[int]
    precision: float
    error: ScoreError

    @property
    def n_relaxed_by_spec(self) -> int:
        return len(self.predicted_relaxed)

    @property
    def n_required_relaxations(self) -> int:
        return len(self.required_relaxed)

    @property
    def prediction_correct(self) -> bool:
        return prediction_is_exact(self.predicted_relaxed, self.required_relaxed)


@dataclass
class ExperimentSession:
    """Evaluates a workload and caches :class:`QueryRecord` objects.

    Parameters
    ----------
    workload:
        The dataset bundle to evaluate.
    ks:
        The k values to sweep (the paper uses 10, 15, 20).
    protocol:
        Timing protocol; the default is the paper's 5-runs-keep-3.
    config:
        Engine configuration template (``k`` is overridden per sweep).
    """

    workload: Workload
    ks: tuple[int, ...] = (10, 15, 20)
    protocol: TimingProtocol = field(default_factory=TimingProtocol)
    config: EngineConfig = field(default_factory=EngineConfig)
    _records: dict[tuple[str, int], QueryRecord] = field(default_factory=dict)
    _engine: SpecQPEngine | None = None

    def __post_init__(self) -> None:
        if not self.ks:
            raise ExperimentError("ks must be non-empty")
        if any(k < 1 for k in self.ks):
            raise ExperimentError(f"all ks must be >= 1, got {self.ks}")

    # ------------------------------------------------------------------
    @property
    def engine(self) -> SpecQPEngine:
        """One engine (and statistics catalog) shared across the session,
        mirroring the paper's single warm system under test."""
        if self._engine is None:
            self._engine = SpecQPEngine(
                self.workload.graph, self.workload.rules, self.config
            )
        return self._engine

    def record(self, query: TriplePatternQuery, k: int) -> QueryRecord:
        """The cached record for (query, k), computing it on first use."""
        key = (query.name, k)
        cached = self._records.get(key)
        if cached is None:
            cached = self._evaluate(query, k)
            self._records[key] = cached
        return cached

    def records(self, k: int) -> list[QueryRecord]:
        """Records for every workload query at *k* (computing as needed)."""
        return [self.record(query, k) for query in self.workload.queries]

    # ------------------------------------------------------------------
    def _evaluate(self, query: TriplePatternQuery, k: int) -> QueryRecord:
        engine = self.engine

        # Spec-QP and TriniT take turns, so drift reaches both alike.
        spec_outcome, trinit_outcome = self.protocol.measure_alternating(
            (lambda: engine.query(query, k), lambda: engine.query_trinit(query, k)),
            lambda result: result.total_seconds,
        )
        spec: QueryResult = spec_outcome.result  # type: ignore[assignment]
        trinit: QueryResult = trinit_outcome.result  # type: ignore[assignment]

        required = required_relaxations(
            self.workload.graph, query, trinit.answers
        )
        return QueryRecord(
            dataset=self.workload.name,
            query_name=query.name,
            k=k,
            n_patterns=len(query),
            spec_answers=spec.answers,
            spec_plan=spec.plan.describe(),
            predicted_relaxed=frozenset(spec.plan.singletons),
            spec_planning_seconds=spec.planning_seconds,
            spec_total_seconds=spec_outcome.mean_seconds,
            spec_answer_objects=spec.answer_objects_created,
            trinit_answers=trinit.answers,
            trinit_total_seconds=trinit_outcome.mean_seconds,
            trinit_answer_objects=trinit.answer_objects_created,
            required_relaxed=required,
            precision=precision_at_k(spec.answers, trinit.answers),
            error=score_error(spec.answers, trinit.answers, len(query)),
        )
