"""Plan execution (§3.2.2) with timing and memory accounting.

The executor evaluates a plan to its top-k distinct answers, recording
wall-clock time, the answer-object count (the paper's memory metric), and
operator pull statistics.

Two interchangeable execution strategies produce byte-identical answers:

``"tuple"``
    The paper's pipeline: pull-based operators exchanging one
    :class:`~repro.query.answer.PartialAnswer` per call, HRJN rank joins
    stopping once the k-th answer is safe, drained through a dedup Top-K
    sink.

``"block"``
    The vectorized pipeline (:mod:`repro.operators.block`): each
    operand's stored list of dictionary-encoded id columns, folded
    left-deep in the tuple pipeline's join order by one whole-list join
    a step (:func:`~repro.operators.vector_join.join_lists`), then cut
    once to top-k (:func:`~repro.operators.block.top_k_cut`), which
    decodes to strings only the winning rows.  It slices every graph's
    :meth:`~repro.kg.graph.KnowledgeGraph.column_store` — a columnar
    graph's own, a live overlay's base, or an object graph's triples
    interned on the first encoded read.

For the block path the executor reads encoded match lists (and the term
codec) from an :class:`~repro.operators.block.EncodedListStore` — a
private one by default, or a shared one injected by the service layer so
every query of a batch encodes each pattern at most once.  After
a write the store patches the lists it touched to equal a fresh build
(or drops those it cannot), so stale ids can never leak across mutations
or compactions; a graph that changes *mid-query* makes the affected
query raise :class:`~repro.errors.ExecutionError` instead of silently
decoding wrong terms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Literal

from repro.core.plan import QueryPlan
from repro.errors import ExecutionError
from repro.kg.graph import KnowledgeGraph
from repro.operators.block import EncodedListStore, top_k_cut
from repro.operators.memory import ExecutionContext
from repro.operators.topk import TopK
from repro.query.answer import Answer
from repro.relax.rules import RuleSet

#: The two concrete execution strategies.
ExecutorKind = Literal["tuple", "block"]

EXECUTOR_KINDS: tuple[str, ...] = ("tuple", "block")

#: What callers may *request*: a concrete strategy, or ``"auto"`` — block.
ExecutorMode = Literal["tuple", "block", "auto"]

EXECUTOR_MODES: tuple[str, ...] = EXECUTOR_KINDS + ("auto",)


@dataclass(frozen=True)
class ExecutorChoice:
    """Which pipeline serves a query, and why: ``"pinned"`` (the mode
    names it) or ``"block-available"`` (``"auto"``)."""

    executor: ExecutorKind
    reason: str

#: Entry bound of the per-executor encoded match-list cache.
DEFAULT_ENCODED_CACHE_CAPACITY = 512


@dataclass(frozen=True)
class ExecutionResult:
    """Top-k answers plus the efficiency measurements the paper reports."""

    answers: tuple[Answer, ...]
    execution_seconds: float
    answer_objects_created: int
    tuples_pulled: int
    joins_attempted: int
    joins_matched: int

    @property
    def scores(self) -> tuple[float, ...]:
        return tuple(answer.score for answer in self.answers)


class PlanExecutor:
    """Executes :class:`~repro.core.plan.QueryPlan` objects to top-k."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        rules: RuleSet,
        max_relaxations_per_pattern: int | None = None,
        executor: ExecutorKind = "tuple",
        encoded_cache_capacity: int = DEFAULT_ENCODED_CACHE_CAPACITY,
        encoded_store: EncodedListStore | None = None,
    ) -> None:
        if executor not in EXECUTOR_KINDS:
            raise ExecutionError(
                f"unknown executor {executor!r}; choose from {EXECUTOR_KINDS}"
            )
        if encoded_cache_capacity < 1:
            raise ExecutionError(
                f"encoded cache capacity must be >= 1, got {encoded_cache_capacity}"
            )
        self._graph = graph
        self._rules = rules
        self._max_relaxations = max_relaxations_per_pattern
        self._executor: ExecutorKind = executor
        # ``is None``, not truthiness: an empty store has length 0.
        self._encoded_store = (
            EncodedListStore(encoded_cache_capacity)
            if encoded_store is None
            else encoded_store
        )

    @property
    def executor(self) -> ExecutorKind:
        return self._executor

    def execute(
        self, plan: QueryPlan, k: int, executor: ExecutorKind | None = None
    ) -> ExecutionResult:
        """Run *plan*, returning the top-k distinct answers by score.

        *executor* overrides the configured strategy for this call only:
        one executor carries both pipelines, so ``"auto"`` engines, the
        tuple reference and the block path share it.  Answers are
        byte-identical either way.
        """
        if executor is not None and executor not in EXECUTOR_KINDS:
            raise ExecutionError(
                f"unknown executor {executor!r}; choose from {EXECUTOR_KINDS}"
            )
        if (executor or self._executor) == "block":
            return self._execute_block(plan, k)
        return self._execute_tuple(plan, k)

    # ------------------------------------------------------------------
    def _execute_tuple(self, plan: QueryPlan, k: int) -> ExecutionResult:
        context = ExecutionContext()
        started = time.perf_counter()
        tree = plan.build_operator_tree(
            self._graph,
            self._rules,
            context,
            max_relaxations_per_pattern=self._max_relaxations,
        )
        projection = tuple(v.name for v in plan.query.projection)
        answers = TopK(tree, k, projection).run()
        return self._result(answers, context, started)

    def _execute_block(self, plan: QueryPlan, k: int) -> ExecutionResult:
        context = ExecutionContext()
        started = time.perf_counter()
        codec, version = self._encoded_store.pin(self._graph)
        rows = plan.evaluate_block(
            self._graph,
            self._rules,
            context,
            codec,
            max_relaxations_per_pattern=self._max_relaxations,
            # Pin every list to the codec and version captured above: a list
            # served after the graph moved (mutated mid-query) must fail
            # loudly instead of binding wrong terms or mixing versions.
            encoded_lists=lambda pattern: self._encoded_store.get_or_build(
                self._graph, pattern, expect_codec=codec, expect_version=version
            ),
            # A relaxed pattern's merged list depends, beyond the pattern
            # and the graph the store tracks, on exactly these.
            merged_lists=lambda pattern, merge: self._encoded_store.get_or_merge(
                self._graph,
                pattern,
                (self._max_relaxations, self._rules, self._rules.version),
                merge,
                expect_codec=codec,
                expect_version=version,
            ),
        )
        projection = tuple(v.name for v in plan.query.projection)
        answers = top_k_cut(rows, k, codec, projection)
        return self._result(answers, context, started)

    def _result(
        self, answers: list[Answer], context: ExecutionContext, started: float
    ) -> ExecutionResult:
        elapsed = time.perf_counter() - started
        return ExecutionResult(
            answers=tuple(answers),
            execution_seconds=elapsed,
            answer_objects_created=context.answer_objects_created,
            tuples_pulled=context.tuples_pulled,
            joins_attempted=context.joins_attempted,
            joins_matched=context.joins_matched,
        )

    # ------------------------------------------------------------------
    # Encoded match-list store (block path only)
    # ------------------------------------------------------------------
    @property
    def encoded_store(self) -> EncodedListStore:
        """The encoded match-list store serving the block path."""
        return self._encoded_store

