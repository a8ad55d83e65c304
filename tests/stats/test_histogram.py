"""Unit tests for two-bucket and n-bucket score-mass histograms."""

import pytest

from repro.errors import HistogramError
from repro.stats.histogram import (
    NBucketHistogram,
    PatternStats,
    TwoBucketHistogram,
    stats_from_scores,
)
from repro.stats.piecewise import convolve


class TestStatsFromScores:
    def test_power_law_example(self):
        # Scores: 1.0, then a long tail — 80% mass within first ranks.
        scores = [1.0, 0.9, 0.8, 0.1, 0.05, 0.05, 0.04, 0.03, 0.02, 0.01]
        stats = stats_from_scores(scores)
        assert stats.m == 10
        total = sum(scores)
        assert stats.s_m == pytest.approx(total)
        assert stats.s_r >= 0.8 * total
        # Check r is the *smallest* such rank.
        assert sum(scores[: stats.r - 1]) < 0.8 * total
        assert stats.sigma_r == scores[stats.r - 1]

    def test_empty_scores(self):
        stats = stats_from_scores([])
        assert stats.m == 0
        assert stats.s_m == 0.0

    def test_all_zero_scores(self):
        stats = stats_from_scores([0.0, 0.0])
        assert stats.m == 2
        assert stats.sigma_r == 0.0

    def test_uniform_scores(self):
        stats = stats_from_scores([1.0] * 10)
        assert stats.r == 8  # 80% of mass needs 8 of 10 equal scores

    def test_unsorted_rejected(self):
        with pytest.raises(HistogramError):
            stats_from_scores([0.5, 0.9])

    def test_out_of_range_rejected(self):
        with pytest.raises(HistogramError):
            stats_from_scores([1.5, 0.5])

    def test_bad_mass_fraction(self):
        with pytest.raises(HistogramError):
            stats_from_scores([1.0], mass_fraction=1.0)

    def test_custom_mass_fraction(self):
        scores = [1.0, 0.5, 0.25, 0.25]
        stats = stats_from_scores(scores, mass_fraction=0.5)
        assert stats.r == 1  # 1.0 >= 0.5 * 2.0


class TestTwoBucketHistogram:
    def test_from_scores_beta(self):
        scores = [1.0, 0.9, 0.8, 0.1, 0.05, 0.05, 0.04, 0.03, 0.02, 0.01]
        hist = TwoBucketHistogram.from_scores(scores)
        assert hist.high == 1.0
        assert hist.count == 10
        assert 0.8 <= hist.beta <= 1.0
        assert hist.sigma == stats_from_scores(scores).sigma_r

    def test_degenerate_empty(self):
        hist = TwoBucketHistogram.from_scores([])
        assert hist.is_degenerate
        assert hist.count == 0

    def test_density_masses(self):
        hist = TwoBucketHistogram(sigma=0.5, high=1.0, beta=0.8, count=100)
        density = hist.to_density()
        assert density.mass() == pytest.approx(1.0)
        # mass above sigma = beta
        assert 1.0 - density.cdf(0.5) == pytest.approx(0.8, abs=1e-9)

    def test_validation(self):
        with pytest.raises(HistogramError):
            TwoBucketHistogram(sigma=1.5, high=1.0, beta=0.8, count=1)
        with pytest.raises(HistogramError):
            TwoBucketHistogram(sigma=0.5, high=1.0, beta=1.2, count=1)
        with pytest.raises(HistogramError):
            TwoBucketHistogram(sigma=0.5, high=1.0, beta=0.8, count=-1)
        with pytest.raises(HistogramError):
            TwoBucketHistogram(sigma=0.5, high=0.0, beta=0.8, count=1)

    def test_scaled_by_weight(self):
        hist = TwoBucketHistogram(sigma=0.5, high=1.0, beta=0.8, count=10)
        scaled = hist.scaled(0.5)
        assert scaled.sigma == 0.25
        assert scaled.high == 0.5
        assert scaled.beta == 0.8
        assert scaled.count == 10

    def test_scaled_invalid_weight(self):
        hist = TwoBucketHistogram(sigma=0.5, high=1.0, beta=0.8, count=10)
        with pytest.raises(HistogramError):
            hist.scaled(0.0)

    def test_cdf_inverse_cdf(self):
        hist = TwoBucketHistogram(sigma=0.6, high=1.0, beta=0.8, count=50)
        for p in (0.1, 0.3, 0.7, 0.95):
            x = hist.inverse_cdf(p)
            assert hist.cdf(x) == pytest.approx(p, abs=1e-9)

    def test_mean_between_bounds(self):
        hist = TwoBucketHistogram(sigma=0.6, high=1.0, beta=0.8, count=50)
        assert 0.0 < hist.mean() < 1.0


class TestRefit:
    def test_refit_recovers_mass_split(self):
        base = TwoBucketHistogram(sigma=0.5, high=1.0, beta=0.8, count=100)
        convolved = convolve(base.to_density(), base.to_density())
        refit = TwoBucketHistogram.refit(convolved, count=500)
        assert refit.count == 500
        assert refit.beta == pytest.approx(0.8)
        assert 0.0 < refit.sigma < refit.high
        # By construction, 80% of the expected score mass lies above sigma.
        normalized = convolved.normalized()
        above = normalized.partial_expectation(refit.sigma)
        total = normalized.partial_expectation(0.0)
        assert above / total == pytest.approx(0.8, abs=1e-6)

    def test_refit_support(self):
        base = TwoBucketHistogram(sigma=0.5, high=1.0, beta=0.8, count=100)
        convolved = convolve(base.to_density(), base.to_density())
        refit = TwoBucketHistogram.refit(convolved, count=10)
        assert refit.high == pytest.approx(2.0)

    def test_refit_of_a_constant_density(self):
        # U(0,1): ∫_c^1 t dt = (1 - c²)/2 = 0.8 · 1/2  →  c = √0.2.
        uniform = TwoBucketHistogram(sigma=0.5, high=1.0, beta=0.5, count=1)
        refit = TwoBucketHistogram.refit(uniform.to_density(), count=3)
        assert refit.sigma == pytest.approx(0.2**0.5, abs=1e-15)
        assert (refit.high, refit.beta, refit.count) == (1.0, 0.8, 3)

    def test_refit_ignores_the_density_scale(self):
        base = TwoBucketHistogram(sigma=0.5, high=1.0, beta=0.8, count=100)
        convolved = convolve(base.to_density(), base.to_density())
        assert TwoBucketHistogram.refit(convolved.normalized(), count=1) == (
            TwoBucketHistogram.refit(convolved, count=1)
        )

    def test_density_is_built_once_per_histogram(self):
        two = TwoBucketHistogram(sigma=0.6, high=1.0, beta=0.8, count=50)
        assert two.to_density() is two.to_density()
        assert two.scaled(0.5).to_density() is not two.to_density()
        many = NBucketHistogram.from_scores([1.0, 0.8, 0.5, 0.3, 0.2, 0.1], n_buckets=3)
        assert many.to_density() is many.to_density()
        assert two == TwoBucketHistogram(sigma=0.6, high=1.0, beta=0.8, count=50)

    def test_refit_bad_fraction(self):
        base = TwoBucketHistogram(sigma=0.5, high=1.0, beta=0.8, count=100)
        convolved = convolve(base.to_density(), base.to_density())
        with pytest.raises(HistogramError):
            TwoBucketHistogram.refit(convolved, count=10, mass_fraction=0.0)


class TestNBucketHistogram:
    def test_from_scores_masses_sum_to_one(self):
        scores = [1.0, 0.8, 0.5, 0.3, 0.2, 0.1, 0.05, 0.03]
        hist = NBucketHistogram.from_scores(scores, n_buckets=4)
        assert sum(hist.masses) == pytest.approx(1.0)
        assert hist.count == 8

    def test_boundaries_descending_scores(self):
        scores = [1.0, 0.8, 0.5, 0.3, 0.2, 0.1]
        hist = NBucketHistogram.from_scores(scores, n_buckets=3)
        assert len(hist.boundaries) == 2
        assert all(0.0 <= b <= 1.0 for b in hist.boundaries)

    def test_two_bucket_special_case_agrees(self):
        # With n=2 at the default mass split there is no exact equivalence
        # (n-bucket uses 1/2 quantiles), but the density must be valid.
        scores = [1.0, 0.7, 0.3, 0.1, 0.05]
        hist = NBucketHistogram.from_scores(scores, n_buckets=2)
        assert hist.to_density().mass() == pytest.approx(1.0)

    def test_empty_degenerate(self):
        hist = NBucketHistogram.from_scores([], n_buckets=3)
        assert hist.is_degenerate

    def test_scaled(self):
        scores = [1.0, 0.5, 0.25]
        hist = NBucketHistogram.from_scores(scores, n_buckets=2).scaled(0.5)
        assert hist.high == 0.5
        assert all(b <= 0.5 for b in hist.boundaries)

    def test_too_few_buckets_rejected(self):
        with pytest.raises(HistogramError):
            NBucketHistogram.from_scores([1.0], n_buckets=1)

    def test_mass_count_mismatch_rejected(self):
        with pytest.raises(HistogramError):
            NBucketHistogram(boundaries=(0.5,), masses=(1.0,), high=1.0, count=2)
