"""Query plans (§3.2) and operator-tree construction (§3.2.2).

A plan is a partition of the query's patterns into one *join group*
(patterns whose relaxations were pruned) and *singletons* (patterns whose
relaxations are kept).  Execution:

1. the join group becomes left-deep rank joins over plain sorted scans;
2. each singleton becomes an Incremental Merge over the pattern's scan
   plus one weighted scan per relaxation;
3. further left-deep rank joins combine the group with the singletons;
4. a dedup Top-K sink materialises the answers.

The block executor evaluates the same partition in the same join order
over whole encoded lists (:meth:`QueryPlan.evaluate_block`): one
pre-merged list per singleton, one vectorized fold of the lists, then one
top-k cut over the full result.

The TriniT baseline plan is the special case where *every* pattern is a
singleton (§2.1, Figure 2), so both engines share this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Callable

from repro.errors import PlanError
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern
from repro.operators.base import Operator
from repro.operators.block import EncodedMatchList, TermCodec, build_merged_match_list
from repro.operators.incremental_merge import IncrementalMerge, WeightedInput
from repro.operators.memory import ExecutionContext
from repro.operators.rank_join import RankJoin
from repro.operators.scan import SortedScan
from repro.operators.vector_join import fold_lists
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RuleSet


@dataclass(frozen=True)
class QueryPlan:
    """A partition ``{join_group} ∪ singletons`` of a query's patterns.

    ``join_group`` and ``singletons`` store indexes into
    ``query.patterns``.  The paper's plan notation ``{{q1,q3},{q2}}`` maps
    to ``join_group=(0, 2), singletons=(1,)``.
    """

    query: TriplePatternQuery
    join_group: tuple[int, ...]
    singletons: tuple[int, ...]

    def __post_init__(self) -> None:
        indexes = sorted(self.join_group) + sorted(self.singletons)
        expected = list(range(len(self.query)))
        if sorted(indexes) != expected:
            raise PlanError(
                f"plan is not a partition of the query: join_group="
                f"{self.join_group}, singletons={self.singletons}, "
                f"query has {len(self.query)} patterns"
            )

    # ------------------------------------------------------------------
    @classmethod
    def speculative(
        cls, query: TriplePatternQuery, relaxed_indexes: tuple[int, ...]
    ) -> "QueryPlan":
        """Plan relaxing exactly *relaxed_indexes* (PLANGEN's output)."""
        join_group = tuple(
            i for i in range(len(query)) if i not in set(relaxed_indexes)
        )
        return cls(query, join_group, tuple(sorted(relaxed_indexes)))

    @classmethod
    def trinit(cls, query: TriplePatternQuery) -> "QueryPlan":
        """The TriniT plan: all patterns are singletons (Figure 2)."""
        return cls(query, (), tuple(range(len(query))))

    @classmethod
    def exact(cls, query: TriplePatternQuery) -> "QueryPlan":
        """No relaxations anywhere: pure rank joins (the no-relaxation
        fast path §3 opens with)."""
        return cls(query, tuple(range(len(query))), ())

    # ------------------------------------------------------------------
    @property
    def n_relaxed(self) -> int:
        return len(self.singletons)

    @property
    def relaxed_patterns(self) -> tuple[TriplePattern, ...]:
        return tuple(self.query.patterns[i] for i in self.singletons)

    def describe(self) -> str:
        """The paper's set notation, e.g. ``{{q1, q3}, {q2}}``."""
        parts = []
        if self.join_group:
            parts.append(
                "{" + ", ".join(f"q{i + 1}" for i in sorted(self.join_group)) + "}"
            )
        for index in self.singletons:
            parts.append(f"{{q{index + 1}}}")
        return "{" + ", ".join(parts) + "}"

    # ------------------------------------------------------------------
    # Operator-tree construction (§3.2.2)
    # ------------------------------------------------------------------
    def build_operator_tree(
        self,
        graph: KnowledgeGraph,
        rules: RuleSet,
        context: ExecutionContext,
        max_relaxations_per_pattern: int | None = None,
    ) -> Operator:
        """Materialise the plan as a pull-based operator tree.

        Join order is left-deep following pattern order, but join-group
        patterns are joined first (they are the cheap, non-relaxed side),
        then each singleton's Incremental Merge is joined in.  Within each
        stage, variable-connected operands are preferred to avoid
        accidental cartesian products.
        """
        group_ops: list[Operator] = [
            SortedScan(graph, self.query.patterns[i], i, context)
            for i in sorted(self.join_group)
        ]
        merge_ops: list[Operator] = [
            self._build_incremental_merge(
                graph, rules, context, i, max_relaxations_per_pattern
            )
            for i in self.singletons
        ]
        return self._join_left_deep(
            group_ops + merge_ops, lambda left, right: RankJoin(left, right, context)
        )

    # ------------------------------------------------------------------
    # Whole-list evaluation (the vectorized executor)
    # ------------------------------------------------------------------
    def evaluate_block(
        self,
        graph: KnowledgeGraph,
        rules: RuleSet,
        context: ExecutionContext,
        codec: TermCodec,
        *,
        encoded_lists: Callable[[TriplePattern], EncodedMatchList],
        merged_lists: Callable[
            [TriplePattern, Callable[[], EncodedMatchList]], EncodedMatchList
        ],
        max_relaxations_per_pattern: int | None = None,
    ) -> EncodedMatchList:
        """The plan's whole join result as id columns, for the block cut.

        The vectorized twin of :meth:`build_operator_tree`: the same plan
        partition and the same join order (join-group patterns first, then
        singletons, variable-connected operands preferred) — so answer
        scores accumulate through the identical left-deep additions — but
        each operand is a stored list, folded by
        :func:`~repro.operators.vector_join.fold_lists`: a star through
        one id table, any other tree one whole-list join a step.

        *encoded_lists* serves a join-group pattern's (cached) encoded
        match list.  *merged_lists* ``(pattern, merge)`` serves a relaxed
        pattern's pre-merged relaxation list, the block twin of its
        Incremental Merge, calling *merge* — one
        :func:`~repro.operators.block.build_merged_match_list` over the
        pattern and its rules' range patterns — only when it holds none
        (:meth:`~repro.operators.block.EncodedListStore.get_or_merge`), so a
        held list costs neither the rule lookup nor a read of the graph.
        Every list row counts as pulled and as an answer object.
        """
        lists = [encoded_lists(self.query.patterns[i]) for i in sorted(self.join_group)]
        for i in self.singletons:
            pattern = self.query.patterns[i]
            # *merge* runs, if at all, inside this call.
            merged = merged_lists(
                pattern,
                lambda: build_merged_match_list(
                    graph,
                    relaxation_inputs(pattern, rules, max_relaxations_per_pattern),
                    codec,
                ),
            )
            lists.append(merged)
        pulled = sum(map(len, lists))
        context.tuples_pulled += pulled
        context.factory.objects_created += pulled
        # Every list is built, so the codec's id domain is final.
        return fold_lists(lists, context, max(codec.n_ids, 1))

    def _join_left_deep(self, operands: list, join: Callable):
        """Fold *operands* (one operator per pattern, the join group's in
        index order, then the singletons') into one left-deep tree of
        ``join(tree, operand)``: starting from the first, always the first
        remaining operand sharing a variable with the tree so far, else
        the first remaining — the order
        :func:`~repro.operators.vector_join.fold_lists` joins lists in."""
        if not operands:
            raise PlanError("plan has no operands")
        indexes = sorted(self.join_group) + list(self.singletons)
        pending = [
            (operand, frozenset(self.query.patterns[i].variable_names))
            for i, operand in zip(indexes, operands)
        ]
        tree, tree_vars = pending.pop(0)
        while pending:
            pick = next(
                (at for at, (_, names) in enumerate(pending) if tree_vars & names), 0
            )
            operand, variables = pending.pop(pick)
            tree = join(tree, operand)
            tree_vars |= variables
        return tree

    def _build_incremental_merge(
        self,
        graph: KnowledgeGraph,
        rules: RuleSet,
        context: ExecutionContext,
        pattern_index: int,
        max_relaxations: int | None,
    ) -> Operator:
        pattern = self.query.patterns[pattern_index]
        return IncrementalMerge(
            [
                WeightedInput(
                    scan=SortedScan(
                        graph, source, pattern_index, context, weight=weight
                    ),
                    weight=weight,
                    label=str(source) if at else "original",
                )
                for at, (source, weight) in enumerate(
                    relaxation_inputs(pattern, rules, max_relaxations)
                )
            ],
            context,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryPlan({self.describe()})"


def relaxation_inputs(
    pattern: TriplePattern, rules: RuleSet, max_relaxations: int | None
) -> list[tuple[TriplePattern, float]]:
    """The weighted inputs of *pattern*'s Incremental Merge: the pattern
    itself at weight 1.0, then each applicable rule's range pattern (the
    first *max_relaxations* of them when capped)."""
    applicable = rules.for_pattern(pattern)
    if max_relaxations is not None:
        applicable = applicable[:max_relaxations]
    return [(pattern, 1.0)] + [(rule.range, rule.weight) for rule in applicable]
