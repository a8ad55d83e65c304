"""Unit tests for the order-statistics estimator."""

import pytest

from repro.errors import EstimationError
from repro.stats.order_statistics import (
    expected_kth_score,
    expected_order_statistic,
    expected_score_at_rank,
)
from repro.stats.piecewise import Bucket, PiecewiseConstantDensity


def uniform01():
    return PiecewiseConstantDensity([Bucket(0.0, 1.0, 1.0)])


class TestExpectedOrderStatistic:
    def test_uniform_closed_form(self):
        # For U(0,1): E[X_(i)] = i/(m+1) exactly.
        for m in (1, 5, 10):
            for i in range(1, m + 1):
                assert expected_order_statistic(uniform01(), i, m) == pytest.approx(
                    i / (m + 1)
                )

    def test_empty_sample(self):
        assert expected_order_statistic(uniform01(), 1, 0) == 0.0

    def test_out_of_range_index(self):
        with pytest.raises(EstimationError):
            expected_order_statistic(uniform01(), 6, 5)
        with pytest.raises(EstimationError):
            expected_order_statistic(uniform01(), 0, 5)


class TestRankHelpers:
    def test_rank1_is_max(self):
        # E[max of 9 uniforms] = 9/10
        assert expected_score_at_rank(uniform01(), 1, 9) == pytest.approx(0.9)

    def test_kth_rank(self):
        # rank 3 of 9: ascending index 7 -> 0.7
        assert expected_score_at_rank(uniform01(), 3, 9) == pytest.approx(0.7)

    def test_rank_beyond_sample_is_zero(self):
        assert expected_score_at_rank(uniform01(), 10, 5) == 0.0

    def test_rank_must_be_positive(self):
        with pytest.raises(EstimationError):
            expected_score_at_rank(uniform01(), 0, 5)

    def test_kth_alias(self):
        assert expected_kth_score(uniform01(), 1, 9) == pytest.approx(0.9)
        assert expected_kth_score(uniform01(), 2, 9) == pytest.approx(0.8)

    def test_monotone_in_rank(self):
        values = [expected_score_at_rank(uniform01(), r, 20) for r in range(1, 21)]
        assert values == sorted(values, reverse=True)

    def test_monotone_in_sample_size(self):
        tops = [expected_kth_score(uniform01(), 1, n) for n in (1, 5, 50, 500)]
        assert tops == sorted(tops)
