"""Property-based tests for the statistics substrate (hypothesis)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.histogram import TwoBucketHistogram, stats_from_scores
from repro.stats.order_statistics import expected_score_at_rank
from repro.stats.piecewise import Bucket, PiecewiseConstantDensity, convolve

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
scores_lists = st.lists(
    st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=60,
).map(lambda xs: sorted([1.0] + xs, reverse=True))
# Always include 1.0: normalised match lists always have max = 1.


@st.composite
def two_bucket_histograms(draw):
    sigma = draw(st.floats(min_value=0.01, max_value=0.99))
    beta = draw(st.floats(min_value=0.05, max_value=0.95))
    count = draw(st.integers(min_value=1, max_value=10_000))
    return TwoBucketHistogram(sigma=sigma, high=1.0, beta=beta, count=count)


@st.composite
def constant_densities(draw):
    # Edges live on a 1/1000 grid so bucket widths stay realistic (>= 1e-3)
    # — sub-epsilon widths are covered by dedicated point-mass unit tests.
    n = draw(st.integers(min_value=1, max_value=4))
    edge_grid = draw(
        st.lists(
            st.integers(min_value=0, max_value=1000),
            min_size=n + 1,
            max_size=n + 1,
            unique=True,
        )
    )
    edges = sorted(e / 1000 for e in edge_grid)
    masses = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0),
            min_size=n,
            max_size=n,
        )
    )
    buckets = [
        Bucket(lo, hi, mass) for lo, hi, mass in zip(edges, edges[1:], masses)
    ]
    return PiecewiseConstantDensity(buckets).normalized()


# ----------------------------------------------------------------------
# stats_from_scores invariants
# ----------------------------------------------------------------------
class TestStatsInvariants:
    @given(scores_lists)
    @settings(max_examples=150)
    def test_boundary_rank_captures_mass_fraction(self, scores):
        stats = stats_from_scores(scores)
        assert stats.s_r >= 0.8 * stats.s_m - 1e-9
        if stats.r > 1:
            assert sum(scores[: stats.r - 1]) < 0.8 * stats.s_m

    @given(scores_lists)
    @settings(max_examples=150)
    def test_sigma_is_a_real_score(self, scores):
        stats = stats_from_scores(scores)
        assert stats.sigma_r in scores

    @given(scores_lists)
    @settings(max_examples=100)
    def test_histogram_valid_density(self, scores):
        hist = TwoBucketHistogram.from_scores(scores)
        density = hist.to_density()
        assert density.mass() == math.isclose(density.mass(), 1.0, abs_tol=1e-9) or True
        assert abs(density.mass() - 1.0) < 1e-9


# ----------------------------------------------------------------------
# Density invariants
# ----------------------------------------------------------------------
class TestDensityInvariants:
    @given(constant_densities(), st.floats(min_value=-0.5, max_value=1.5))
    @settings(max_examples=150)
    def test_cdf_monotone_bounded(self, density, x):
        value = density.cdf(x)
        assert -1e-9 <= value <= 1.0 + 1e-9
        assert density.cdf(x + 0.1) >= value - 1e-9

    @given(constant_densities(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=150)
    def test_inverse_cdf_round_trip(self, density, p):
        x = density.inverse_cdf(p)
        lo, hi = density.support
        assert lo - 1e-9 <= x <= hi + 1e-9
        assert abs(density.cdf(x) - p) < 1e-6

    @given(constant_densities())
    @settings(max_examples=100)
    def test_mean_within_support(self, density):
        lo, hi = density.support
        assert lo - 1e-9 <= density.mean() <= hi + 1e-9

    @given(constant_densities(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_partial_expectation_decreasing(self, density, c):
        assert (
            density.partial_expectation(c)
            >= density.partial_expectation(c + 0.05) - 1e-9
        )


# ----------------------------------------------------------------------
# Convolution invariants
# ----------------------------------------------------------------------
class TestConvolutionInvariants:
    """n×m buckets (1–4 each): the sum of trapezoids is evaluated exactly,
    so mass, mean and support add to rounding, not to a grid error."""

    @given(constant_densities(), constant_densities())
    @settings(max_examples=80, deadline=None)
    def test_mass_preserved(self, d1, d2):
        result = convolve(d1, d2)
        assert abs(result.mass() - 1.0) < 1e-12

    @given(constant_densities(), constant_densities())
    @settings(max_examples=80, deadline=None)
    def test_mean_additive(self, d1, d2):
        result = convolve(d1, d2)
        assert abs(result.mean() - (d1.mean() + d2.mean())) < 1e-12

    @given(constant_densities(), constant_densities())
    @settings(max_examples=80, deadline=None)
    def test_support_additive(self, d1, d2):
        result = convolve(d1, d2)
        lo, hi = result.support
        assert abs(lo - (d1.support[0] + d2.support[0])) < 1e-12
        assert abs(hi - (d1.support[1] + d2.support[1])) < 1e-12

    @given(constant_densities(), constant_densities())
    @settings(max_examples=60, deadline=None)
    def test_refit_preserves_count_and_support(self, d1, d2):
        convolved = convolve(d1, d2)
        refit = TwoBucketHistogram.refit(convolved, count=42)
        assert refit.count == 42
        assert 0.0 <= refit.sigma <= refit.high + 1e-9


# ----------------------------------------------------------------------
# The refit's σ against exact rational arithmetic
# ----------------------------------------------------------------------
def exact_score_mass_above(c, d1, d2) -> Fraction:
    """``∫_c^∞ t·(d1 ∗ d2)(t) dt`` in exact rational arithmetic, straight
    from the two bucket lists — the independent quadrature: it shares no
    code, breakpoints or floating-point step with ``convolve``/``refit``.

    A pair of buckets is a sum of two uniforms: a trapezoid, a box when
    one bucket has zero width, a point mass when both do.
    """
    c = Fraction(c)
    total = Fraction(0)
    for b1 in d1.buckets:
        for b2 in d2.buckets:
            mass = Fraction(b1.mass) * Fraction(b2.mass)
            lo = Fraction(b1.lo) + Fraction(b2.lo)
            hi = Fraction(b1.hi) + Fraction(b2.hi)
            narrow, wide = sorted(
                (Fraction(b1.hi) - Fraction(b1.lo), Fraction(b2.hi) - Fraction(b2.lo))
            )
            if wide == 0:
                total += mass * lo if lo >= c else 0
                continue
            peak = mass / wide
            for x0, x1, y0, y1 in (
                (lo, lo + narrow, Fraction(0), peak),
                (lo + narrow, hi - narrow, peak, peak),
                (hi - narrow, hi, peak, Fraction(0)),
            ):
                start = max(c, x0)
                if start >= x1:
                    continue
                slope = (y1 - y0) / (x1 - x0)
                intercept = y0 - slope * x0
                total += intercept * (x1**2 - start**2) / 2
                total += slope * (x1**3 - start**3) / 3
    return total


def exact_sigma(d1, d2, mass_fraction) -> float:
    """The σ with *mass_fraction* of the exact score mass above it, by
    rational bisection (a point mass is a jump: its position is found)."""
    lo, hi = Fraction(0), Fraction(d1.support[1]) + Fraction(d2.support[1])
    target = Fraction(mass_fraction) * exact_score_mass_above(0, d1, d2)
    for _ in range(70):
        mid = (lo + hi) / 2
        if exact_score_mass_above(mid, d1, d2) >= target:
            lo = mid
        else:
            hi = mid
    return float(lo)


def refit_sigma(d1, d2, mass_fraction):
    """The kernel's σ, or ``None`` where the refit clamped it: the target
    fell inside a top bucket thinner than the refit's own minimum bucket
    width, and σ is pushed below it, never above."""
    refit = TwoBucketHistogram.refit(
        convolve(d1, d2), count=1, mass_fraction=mass_fraction
    )
    assert refit.beta == mass_fraction
    assert refit.high == pytest.approx(d1.support[1] + d2.support[1], abs=1e-11)
    if refit.sigma == refit.high * (1.0 - 1e-9):
        assert refit.sigma <= exact_sigma(d1, d2, mass_fraction)
        return None
    return refit.sigma


def score_mass_share_above(sigma, d1, d2) -> float:
    return float(
        exact_score_mass_above(sigma, d1, d2) / exact_score_mass_above(0, d1, d2)
    )


def two_buckets(sigma, beta, high=1.0):
    return TwoBucketHistogram(sigma=sigma, high=high, beta=beta, count=9).to_density()


#: Degenerate shapes the estimator can meet; ``True`` where ``convolve``
#: widens a point-mass-like bucket to a 1e-12 sliver before anything else.
DEGENERATE = {
    "beta-one": (two_buckets(0.4, 1.0), False),
    "sigma-zero": (two_buckets(0.0, 0.8), False),
    "sigma-high": (two_buckets(1.0, 0.8), False),
    "equal-scores": (TwoBucketHistogram.from_scores([1.0] * 7).to_density(), False),
    "relaxed-equal-scores": (
        TwoBucketHistogram.from_scores([1.0] * 3).scaled(0.35).to_density(), False
    ),
    "zero-width-bucket": (
        PiecewiseConstantDensity([Bucket(0.5, 0.5, 0.3), Bucket(0.5, 1.0, 0.7)]), True
    ),
    "sub-epsilon-width": (
        PiecewiseConstantDensity([Bucket(0.5, 0.5 + 5e-13, 1.0)]), True
    ),
    "lone-point-mass": (PiecewiseConstantDensity([Bucket(0.25, 0.25, 1.0)]), True),
}


class TestRefitSplitsExactScoreMass:
    """``partial_expectation(σ) = mass_fraction · total`` — checked
    against :func:`exact_score_mass_above`, not the kernel's integrals."""

    @given(
        constant_densities(),
        constant_densities(),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=120, deadline=None)
    def test_n_by_m_buckets(self, d1, d2, mass_fraction):
        sigma = refit_sigma(d1, d2, mass_fraction)
        assert sigma is not None
        assert abs(score_mass_share_above(sigma, d1, d2) - mass_fraction) <= 1e-12

    @given(two_bucket_histograms(), two_bucket_histograms())
    @settings(max_examples=120, deadline=None)
    def test_two_by_two_buckets(self, h1, h2):
        d1, d2 = h1.to_density(), h2.to_density()
        sigma = refit_sigma(d1, d2, 0.8)
        assert sigma is not None
        assert abs(score_mass_share_above(sigma, d1, d2) - 0.8) <= 1e-12

    @pytest.mark.parametrize("left", sorted(DEGENERATE))
    @pytest.mark.parametrize("right", sorted(DEGENERATE))
    def test_degenerate_inputs(self, left, right):
        (d1, widened1), (d2, widened2) = DEGENERATE[left], DEGENERATE[right]
        widened = widened1 or widened2
        convolved = convolve(d1, d2)
        tolerance = 1e-11 if widened else 1e-14
        assert convolved.mass() == pytest.approx(1.0, abs=tolerance)
        assert convolved.mean() == pytest.approx(d1.mean() + d2.mean(), abs=tolerance)
        sigma = refit_sigma(d1, d2, 0.8)
        if sigma is None:
            return
        if widened:
            # A sliver moves mass by its width: σ is right to that width
            # (the share is not — inside a 1e-9-wide spike 1e-12 of σ is
            # 1e-3 of the spike's mass).
            assert sigma == pytest.approx(exact_sigma(d1, d2, 0.8), abs=1e-11)
        else:
            assert abs(score_mass_share_above(sigma, d1, d2) - 0.8) <= 1e-12


# ----------------------------------------------------------------------
# Order statistics invariants
# ----------------------------------------------------------------------
class TestOrderStatisticsInvariants:
    @given(two_bucket_histograms(), st.integers(min_value=1, max_value=50))
    @settings(max_examples=100)
    def test_rank_monotone(self, hist, n):
        density = hist.to_density()
        values = [expected_score_at_rank(density, r, n) for r in range(1, n + 1)]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    @given(two_bucket_histograms(), st.integers(min_value=1, max_value=50))
    @settings(max_examples=100)
    def test_expected_scores_within_support(self, hist, n):
        density = hist.to_density()
        top = expected_score_at_rank(density, 1, n)
        assert 0.0 <= top <= hist.high + 1e-9
