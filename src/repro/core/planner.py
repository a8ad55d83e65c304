"""PLANGEN — the speculative query planner (Algorithm 1, §3.2.1).

For each triple pattern ``q_i`` of the query, the planner tests whether
the *top-weighted* relaxation of ``q_i`` could place an answer in the
top-k: it compares the expected best score of the relaxed query,
``E_Q'(1)``, against the expected k-th best score of the original query,
``E_Q(k)``.  Only the top-weighted rule needs testing because per-list
normalisation makes each relaxation's best achievable score equal its
weight, so the top-weighted relaxation dominates all others for the
pattern.

Patterns whose test succeeds become singletons (their relaxations will be
processed by Incremental Merge); the rest form the join group.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from operator import is_

from repro.core.estimator import (
    DECISION_MEMO_SIZE,
    ExpectedScoreEstimator,
    QueryDistribution,
)
from repro.core.plan import QueryPlan
from repro.errors import PlanError
from repro.kg.pattern import TriplePattern
from repro.query.query import TriplePatternQuery
from repro.query.rewrite import top_weighted_relaxation
from repro.relax.rules import RelaxationRule, RuleSet


@dataclass(frozen=True)
class PatternDecision:
    """Why one pattern was (not) marked for relaxation.

    ``relaxed`` is the distribution of ``Q'``, the query with the tested
    rule's range in place of the pattern (``None`` without a rule).
    """

    pattern: TriplePattern
    pattern_index: int
    tested_rule: RelaxationRule | None
    relaxed: QueryDistribution | None
    relax: bool

    @property
    def expected_relaxed_top(self) -> float:
        """``E_Q'(1)``, estimated when read: a decision against an
        ``E_Q(k)`` of 0 needs only ``Q'``'s count."""
        return 0.0 if self.relaxed is None else self.relaxed.expected_top()


@dataclass(frozen=True)
class PlannerDecision:
    """The full outcome of one PLANGEN run, for reports and debugging."""

    plan: QueryPlan
    expected_kth_original: float
    per_pattern: tuple[PatternDecision, ...]
    planning_seconds: float

    @property
    def relaxed_indexes(self) -> tuple[int, ...]:
        return self.plan.singletons


class SpecQPPlanner:
    """Algorithm 1 (PLANGEN) over an expected-score estimator.  Threads
    may share a planner."""

    def __init__(self, estimator: ExpectedScoreEstimator, rules: RuleSet) -> None:
        self._estimator = estimator
        self._rules = rules
        #: key -> (decision, list keys read, histograms read); oldest plan first.
        self._memo: dict[tuple, tuple[PlannerDecision, tuple, tuple]] = {}
        self._lock = threading.Lock()
        self._counts = {"hits": 0, "misses": 0}

    @property
    def estimator(self) -> ExpectedScoreEstimator:
        return self._estimator

    def memo_stats(self) -> dict[str, int]:
        """The decision memo's hits, misses, size and bound."""
        with self._lock:
            size = len(self._memo)
            return {**self._counts, "size": size, "capacity": DECISION_MEMO_SIZE}

    def plan(self, query: TriplePatternQuery, k: int) -> PlannerDecision:
        """Generate the speculative plan for *query* at the given *k*.

        A pattern with no applicable relaxation rules can never be a
        singleton (there is nothing to merge), matching the paper's
        Twitter observation that predicates without relaxations stay
        unrelaxed by construction.

        A repeat of the patterns (in order), projection and k under the
        same ``RuleSet.version`` replays the memoised decision, with its own
        ``planning_seconds``, while the catalog (refreshed first) holds the
        very histograms it read for every query pattern and tested range.
        No write needs to invalidate it: a write drops the histograms of
        the patterns it touches, and a join count moves only on a
        membership change, among those touched.  ``DECISION_MEMO_SIZE``
        decisions are kept, least recently planned out.
        """
        if k < 1:
            raise PlanError(f"k must be >= 1, got {k}")
        started = time.perf_counter()
        # The version first: a rule added while planning re-keys the entry.
        key = (query.patterns, query.projection, k, self._rules.version)
        catalog = self._estimator.catalog
        entry = self._memo.get(key)  # one dict read: atomic without the lock
        if entry is not None and all(
            map(is_, catalog.held_histograms(entry[1]), entry[2])
        ):
            stored = entry[0]
            plan = stored.plan
            if plan.query.name != query.name:  # the key holds all but the name
                plan = QueryPlan(query, plan.join_group, plan.singletons)
            with self._lock:
                self._counts["hits"] += 1
            return PlannerDecision(
                plan,
                stored.expected_kth_original,
                stored.per_pattern,
                time.perf_counter() - started,
            )

        tested = [
            top_weighted_relaxation(query, pattern, self._rules)
            for pattern in query.patterns
        ]
        # Read before planning: a write racing the plan fails the next hit.
        read = [*query.patterns, *(rule.range for rule in tested if rule)]
        reads = {pattern.list_key(): catalog.histogram(pattern) for pattern in read}
        expected_kth = self._estimator.expected_kth(query, k)

        decisions: list[PatternDecision] = []
        for index, (pattern, rule) in enumerate(zip(query.patterns, tested)):
            relaxed, relax = None, False
            if rule is not None:
                relaxed = self._estimator.query_distribution(
                    query, replace={pattern: (rule.range, rule.weight)}
                )
                # Against an E_Q(k) of 0, E_Q'(1) > 0 exactly when Q' has an
                # answer: its count is 0 already when a slot is degenerate.
                relax = (
                    relaxed.count >= 1
                    if expected_kth == 0.0
                    else relaxed.expected_top() > expected_kth
                )
            decisions.append(PatternDecision(pattern, index, rule, relaxed, relax))
        relaxed_indexes = tuple(d.pattern_index for d in decisions if d.relax)

        plan = QueryPlan.speculative(query, relaxed_indexes)
        elapsed = time.perf_counter() - started
        decision = PlannerDecision(
            plan=plan,
            expected_kth_original=expected_kth,
            per_pattern=tuple(decisions),
            planning_seconds=elapsed,
        )
        with self._lock:
            self._counts["misses"] += 1
            self._memo.pop(key, None)  # a re-plan goes to the back
            self._memo[key] = (decision, tuple(reads), tuple(reads.values()))
            if len(self._memo) > DECISION_MEMO_SIZE:
                del self._memo[next(iter(self._memo))]
        return decision
