"""PLANGEN decides against an ``E_Q(k)`` of 0 by ``Q'``'s answer count.

Algorithm 1 relaxes ``q_i`` iff ``E_Q'(1) > E_Q(k)``.  When the original
query cannot fill the top-k, ``E_Q(k)`` is exactly 0, and ``E_Q'(1) > 0``
holds exactly when ``Q'`` has an answer and none of its slots holds a
degenerate histogram — and
:meth:`~repro.core.estimator.ExpectedScoreEstimator.query_distribution`
already gives such a ``Q'`` a count of 0.  So the planner decides by the
count and convolves nothing; ``PatternDecision.expected_relaxed_top``
estimates ``E_Q'(1)`` only when it is read.  The property below checks
the equivalence over drawn histograms, and the planner tests check that
nothing is convolved and that the value read later is the eager value,
bit for bit.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.estimator as estimator_module
from freeze_decisions import KS, workloads
from repro.core.engine import SpecQPEngine
from repro.core.estimator import ExpectedScoreEstimator
from repro.core.planner import SpecQPPlanner
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, var
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RelaxationRule, RuleSet
from repro.stats.catalog import StatisticsCatalog
from repro.stats.histogram import (
    DEFAULT_MASS_FRACTION,
    NBucketHistogram,
    TwoBucketHistogram,
)
from repro.stats.order_statistics import expected_kth_score


def eager_relaxed_top(estimator, query, pattern_decision) -> float:
    """``E_Q'(1)`` as the planner computed it before deciding by count:
    a fresh distribution of ``Q'``, its density convolved without the memo."""
    rule = pattern_decision.tested_rule
    relaxed = estimator.query_distribution(
        query, replace={pattern_decision.pattern: (rule.range, rule.weight)}
    )
    if relaxed.count < 1:
        return 0.0
    return expected_kth_score(relaxed.density, 1, relaxed.count)


# ----------------------------------------------------------------------
# The proof obligation: E_Q'(1) > 0 iff count >= 1 and no slot degenerate
# ----------------------------------------------------------------------
class StubCatalog:
    """What the estimator reads of a catalog: one histogram per pattern
    and one answer count for whatever is counted."""

    mass_fraction = DEFAULT_MASS_FRACTION

    def __init__(self, histograms: dict, count: int) -> None:
        self._histograms = histograms
        self._count = count

    def histogram(self, pattern):
        return self._histograms[pattern]

    def cardinality(self, patterns) -> int:
        return self._count


#: A descending normalised score list (best score 1.0, others down to
#: 1e-9), or a degenerate one: empty, or every score 0.
score_lists = st.one_of(
    st.lists(st.floats(1e-9, 1.0), max_size=40).map(
        lambda rest: [1.0, *sorted(rest, reverse=True)]
    ),
    st.just([]),
    st.integers(1, 5).map(lambda n: [0.0] * n),
)
histograms = st.one_of(
    st.builds(TwoBucketHistogram.from_scores, score_lists),
    st.builds(NBucketHistogram.from_scores, score_lists, st.integers(2, 6)),
)
weights = st.one_of(st.just(1.0), st.floats(1e-6, 1.0))


@settings(max_examples=400, deadline=None)
@given(
    slots=st.lists(st.tuples(histograms, weights), min_size=1, max_size=4),
    count=st.one_of(st.just(0), st.integers(1, 10**6)),
)
def test_expected_top_is_positive_iff_an_answer_is_counted(slots, count):
    """The first slot is relaxed through ``replace`` with its weight, the
    others enter scaled by theirs."""
    patterns = tuple(
        TriplePattern(var("s"), "p", f"o{i}") for i in range(len(slots))
    )
    relaxed_range = TriplePattern(var("s"), "p", "range")
    held = {
        pattern: histogram.scaled(weight)
        for pattern, (histogram, weight) in zip(patterns[1:], slots[1:])
    }
    held[relaxed_range] = slots[0][0]
    estimator = ExpectedScoreEstimator(StubCatalog(held, count))
    relaxed = estimator.query_distribution(
        TriplePatternQuery(patterns),
        replace={patterns[0]: (relaxed_range, slots[0][1])},
    )
    degenerate = any(histogram.is_degenerate for histogram, _ in slots)
    assert (relaxed.count >= 1) == (count >= 1 and not degenerate)
    assert (relaxed.expected_top() > 0.0) == (relaxed.count >= 1)


# ----------------------------------------------------------------------
# The planner decides by the count and estimates E_Q'(1) on read
# ----------------------------------------------------------------------
@pytest.fixture
def scores_read(monkeypatch):
    """The ranks of every expected score read through the memo."""
    ranks: list[int] = []
    memoised = estimator_module.memoised_expected_score

    def spy(params, count, mass_fraction, rank):
        ranks.append(rank)
        return memoised(params, count, mass_fraction, rank)

    monkeypatch.setattr(estimator_module, "memoised_expected_score", spy)
    return ranks


@pytest.fixture(scope="module")
def golden_workloads():
    return list(workloads())


def test_zero_kth_convolves_no_relaxed_distribution(golden_workloads, scores_read):
    """Every frozen workload at every frozen k: a plan against an
    ``E_Q(k)`` of 0 reads no expected score, and each ``E_Q'(1)`` read
    afterwards is the eager value, which decided the pattern."""
    tested = 0
    for name, workload in golden_workloads:
        engine = SpecQPEngine(workload.graph, workload.rules)
        estimator = ExpectedScoreEstimator(StatisticsCatalog(workload.graph))
        for query in workload.queries:
            for k in KS:
                scores_read.clear()
                decision = engine.planner.plan(query, k)
                if decision.expected_kth_original != 0.0:
                    continue
                assert scores_read == [], (name, query.name, k)
                for pattern_decision in decision.per_pattern:
                    if pattern_decision.tested_rule is None:
                        assert pattern_decision.relaxed is None
                        assert pattern_decision.expected_relaxed_top == 0.0
                        continue
                    tested += 1
                    eager = eager_relaxed_top(estimator, query, pattern_decision)
                    read = pattern_decision.expected_relaxed_top
                    assert read.hex() == eager.hex(), (name, query.name, k)
                    assert pattern_decision.relax == (eager > 0.0)
    assert tested > 100  # the regime is common on the frozen workloads


def tp(name):
    return TriplePattern(var("s"), "rdf:type", name)


@pytest.fixture
def short_graph():
    """``a ⋈ b`` has one answer, so at k = 5 ``E_Q(k)`` is 0."""
    kg = KnowledgeGraph()
    kg.add("only", "rdf:type", "a", score=10.0)
    kg.add("only", "rdf:type", "b", score=10.0)
    for i in range(6):
        kg.add(f"r{i}", "rdf:type", "a_wide", score=20.0 - i)
        kg.add(f"r{i}", "rdf:type", "b", score=20.0 - i)
        kg.add(f"x{i}", "rdf:type", "a_apart", score=5.0 + i)
    return kg


@pytest.mark.parametrize(
    "relaxed_range, relaxes",
    [
        ("a_wide", True),  # Q' = a_wide ⋈ b has six answers
        ("a_apart", False),  # a_apart shares no entity with b: Q' is empty
        ("a_missing", False),  # no triple matches: a degenerate slot
    ],
)
def test_zero_kth_relaxes_exactly_when_q_prime_has_an_answer(
    short_graph, scores_read, relaxed_range, relaxes
):
    rules = RuleSet([RelaxationRule(tp("a"), tp(relaxed_range), 0.5)])
    estimator = ExpectedScoreEstimator(StatisticsCatalog(short_graph))
    query = TriplePatternQuery((tp("a"), tp("b")))
    decision = SpecQPPlanner(estimator, rules).plan(query, 5)
    assert decision.expected_kth_original == 0.0 and scores_read == []
    tested = decision.per_pattern[0]
    assert tested.relax is relaxes
    assert decision.plan.singletons == ((0,) if relaxes else ())
    assert (tested.relaxed.count >= 1) is relaxes
    assert (tested.expected_relaxed_top > 0.0) is relaxes
    assert tested.expected_relaxed_top == eager_relaxed_top(estimator, query, tested)

