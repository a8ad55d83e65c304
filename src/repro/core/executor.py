"""Plan execution (§3.2.2) with timing and memory accounting.

The executor materialises a plan's operator tree and drains it through a
dedup Top-K sink, recording wall-clock time, the answer-object count (the
paper's memory metric), and operator pull statistics.

Two interchangeable execution strategies produce byte-identical answers:

``"tuple"``
    The paper's pipeline: pull-based operators exchanging one
    :class:`~repro.query.answer.PartialAnswer` per call.

``"block"``
    The vectorized pipeline (:mod:`repro.operators.block`): operators
    exchange score-sorted blocks of dictionary-encoded id arrays and
    decode to strings only at the top-k sink.  Available whenever the
    graph is backed by encoded columns — columnar, sharded, or a live
    overlay over either; the plain object graph silently falls back to
    the tuple pipeline (it has no id columns to slice).

For the block path the executor reads encoded match lists (and the term
codec) from an :class:`~repro.operators.block.EncodedListStore` — a
private one by default, or a shared one injected by the service layer so
every worker engine of a batch encodes each pattern at most once.  The
store drops what a write touched, so stale ids can never leak across
mutations or compactions; a graph that changes *mid-query* makes the
affected query raise :class:`~repro.errors.ExecutionError` instead of
silently decoding wrong terms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Literal

from repro.core.plan import QueryPlan
from repro.errors import ExecutionError
from repro.kg.graph import KnowledgeGraph
from repro.operators.block import BlockTopK, EncodedListStore
from repro.operators.memory import ExecutionContext
from repro.operators.topk import TopK
from repro.query.answer import Answer
from repro.relax.rules import RuleSet

#: The two concrete execution strategies.
ExecutorKind = Literal["tuple", "block"]

EXECUTOR_KINDS: tuple[str, ...] = ("tuple", "block")

#: What callers may *request*: a concrete strategy, or ``"auto"`` — block
#: wherever the backend has id columns (:meth:`PlanExecutor.can_execute_block`),
#: tuple otherwise.
ExecutorMode = Literal["tuple", "block", "auto"]

EXECUTOR_MODES: tuple[str, ...] = EXECUTOR_KINDS + ("auto",)


@dataclass(frozen=True)
class ExecutorChoice:
    """Which pipeline serves a query, and why: ``"pinned"`` (the mode
    names it), or under ``"auto"`` ``"block-available"`` /
    ``"block-unavailable"`` (object graph)."""

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


def supports_block_execution(graph: KnowledgeGraph) -> bool:
    """Whether the block pipeline can run over *graph*.

    True for every backend with encoded columns in reach — columnar,
    sharded, and live overlays (even over an object base: the codec then
    interns every term into its side table).  False only for the plain
    object graph, which the block planner has nothing to slice from.
    """
    return (
        getattr(graph, "store", None) is not None
        or getattr(graph, "base", None) is not None
    )


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

    def can_execute_block(self) -> bool:
        """Whether the block pipeline is available at all on this executor
        (columnar-backed graph) — independent of the configured strategy.
        It is all ``"auto"`` decides on."""
        return supports_block_execution(self._graph)

    def uses_block_path(self, executor: ExecutorKind | None = None) -> bool:
        """Whether :meth:`execute` will take the vectorized pipeline
        (for the configured strategy, or for the *executor* override)."""
        kind = executor if executor is not None else self._executor
        return kind == "block" and self.can_execute_block()

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
        if self.uses_block_path(executor):
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
        tree = plan.build_block_operator_tree(
            self._graph,
            self._rules,
            context,
            codec,
            max_relaxations_per_pattern=self._max_relaxations,
            # Pin every leaf to the codec and version captured above: a leaf
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
        answers = BlockTopK(tree, k, codec, projection).run()
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

    def encoded_cache_stats(self) -> dict[str, int]:
        """Diagnostics from the encoded match-list store."""
        stats = self._encoded_store.stats()
        stats["encoded_lists"] = stats["size"]
        return stats
