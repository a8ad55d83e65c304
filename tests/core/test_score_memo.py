"""The expected-score memo: keyed by values, so it needs no invalidation.

:func:`repro.core.estimator.memoised_expected_score` keys an expected
score by each slot's histogram parameters in slot order, the answer
count, the mass fraction and the rank.  These tests pin that every one
of those is part of the key, and that PLANGEN decisions read through the
memo are bit for bit the decisions of a memo-less planner over a fresh
catalog, across interleaved writes.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.estimator import (
    EXPECTED_SCORE_MEMO_SIZE,
    ExpectedScoreEstimator,
    QueryDistribution,
    memoised_expected_score,
)
from repro.core.planner import SpecQPPlanner
from repro.kg.columnar import ColumnarGraph, ColumnarStore
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.stats.catalog import StatisticsCatalog
from repro.stats.histogram import NBucketHistogram, TwoBucketHistogram
from repro.stats.order_statistics import expected_kth_score


def direct_score(distribution: QueryDistribution, rank: int) -> float:
    """The expected score at *rank* computed without the memo."""
    if distribution.count <= 0 or distribution.count < rank:
        return 0.0
    return expected_kth_score(distribution.density, rank, distribution.count)


@contextmanager
def memo_less():
    """PLANGEN with every expected score computed afresh."""
    with mock.patch.object(QueryDistribution, "expected_score_at", direct_score):
        yield


def decision_values(decision) -> tuple:
    """Everything a decision decides and every float it read."""
    return (
        decision.relaxed_indexes,
        decision.expected_kth_original.hex(),
        tuple(
            (d.pattern_index, d.tested_rule, d.expected_relaxed_top.hex(), d.relax)
            for d in decision.per_pattern
        ),
    )


HISTOGRAMS = (
    TwoBucketHistogram(sigma=0.3, high=1.0, beta=0.8, count=40),
    TwoBucketHistogram(sigma=0.55, high=0.9, beta=0.7, count=12),
    TwoBucketHistogram(sigma=0.1, high=0.6, beta=0.85, count=300),
)


class TestMemoKey:
    def test_count_is_part_of_the_key(self):
        memoised_expected_score.cache_clear()
        few = QueryDistribution(HISTOGRAMS[:2], 5, 0.8)
        many = QueryDistribution(HISTOGRAMS[:2], 9, 0.8)
        assert direct_score(few, 1) != direct_score(many, 1)
        for rank in (1, 3, 5):
            for distribution in (few, many, few):
                assert distribution.expected_score_at(rank) == direct_score(
                    distribution, rank
                )

    def test_slot_order_is_part_of_the_key(self):
        """Convolve→refit runs in slot order, so a permutation of the same
        histograms is a different estimate."""
        memoised_expected_score.cache_clear()
        scores = set()
        for order in itertools.permutations(HISTOGRAMS):
            distribution = QueryDistribution(order, 50, 0.8)
            for rank in (1, 10):
                expected = direct_score(distribution, rank)
                assert distribution.expected_score_at(rank) == expected
                scores.add((rank, expected))
        assert len(scores) > 2  # the orders do disagree

    def test_mass_fraction_and_rank_are_part_of_the_key(self):
        memoised_expected_score.cache_clear()
        for fraction in (0.8, 0.6):
            distribution = QueryDistribution(HISTOGRAMS, 20, fraction)
            for rank in (1, 2, 20):
                assert distribution.expected_score_at(rank) == direct_score(
                    distribution, rank
                )

    def test_n_bucket_histograms_rebuild_bit_for_bit(self):
        memoised_expected_score.cache_clear()
        histograms = (
            NBucketHistogram.from_scores([1.0, 0.8, 0.5, 0.4, 0.1], 3),
            NBucketHistogram.from_scores([1.0, 0.9, 0.2], 3).scaled(0.7),
        )
        distribution = QueryDistribution(histograms, 7, 0.8)
        assert type(histograms[1])(*histograms[1].params) == histograms[1]
        for rank in (1, 4, 7):
            expected = direct_score(distribution, rank)
            assert distribution.expected_score_at(rank) == expected

    def test_a_repeat_is_a_hit_and_the_memo_is_bounded(self):
        memoised_expected_score.cache_clear()
        distribution = QueryDistribution(HISTOGRAMS, 30, 0.8)
        first = distribution.expected_score_at(2)
        again = QueryDistribution(tuple(HISTOGRAMS), 30, 0.8).expected_score_at(2)
        info = memoised_expected_score.cache_info()
        assert (first, info.hits, info.misses) == (again, 1, 1)
        assert info.maxsize == EXPECTED_SCORE_MEMO_SIZE == 4096


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    batches=st.lists(
        st.tuples(
            st.integers(0, 2**16),
            st.integers(0, 4),  # re-scores
            st.integers(0, 2),  # removes
            st.integers(0, 2),  # new triples
            st.booleans(),  # compact afterwards
        ),
        min_size=1,
        max_size=5,
    )
)
def test_memoised_decisions_equal_memo_less_ones_across_writes(
    tiny_xkg_workload, batches
):
    """A planner over one catalog refreshed across writes, reading scores
    through the memo, decides exactly what a memo-less planner over a
    fresh catalog at the same version decides."""
    workload = tiny_xkg_workload
    live = LiveGraph(ColumnarGraph.from_graph(workload.graph))
    catalog = StatisticsCatalog(live)
    warm = SpecQPPlanner(ExpectedScoreEstimator(catalog), workload.rules)
    queries = workload.queries[:8]
    new_terms = 0
    for seed, n_rescored, n_removed, n_new, compact in batches:
        for query in queries:
            warm.plan(query, 5)
        rng = random.Random(seed)
        triples = sorted(live.triples(), key=lambda triple: triple.spo)
        picked = rng.sample(triples, n_rescored + n_removed)
        batch = [
            GraphUpdate.add(*triple.spo, float(rng.randint(1, 60)))
            for triple in picked[:n_rescored]
        ]
        batch += [GraphUpdate.remove(*triple.spo) for triple in picked[n_rescored:]]
        for _ in range(n_new):
            like = rng.choice(triples)
            new_terms += 1
            batch.append(
                GraphUpdate.add(f"new{new_terms}", like.predicate, like.object, 7.0)
            )
        live.apply_updates(batch)
        if compact and live.delta_size:
            live.compact()
        fresh_graph = ColumnarGraph(ColumnarStore.from_triples(live.triples()))
        fresh = SpecQPPlanner(
            ExpectedScoreEstimator(StatisticsCatalog(fresh_graph)), workload.rules
        )
        for query in queries:
            for k in (1, 5, 10):
                served = warm.plan(query, k)
                with memo_less():  # E_Q'(1) is estimated when read
                    expected = decision_values(fresh.plan(query, k))
                assert decision_values(served) == expected, query.name
