"""Unit tests for piecewise densities and exact convolution."""

import math
from fractions import Fraction

import pytest

from repro.errors import HistogramError
from repro.stats.piecewise import (
    Bucket,
    PiecewiseConstantDensity,
    PiecewiseLinearDensity,
    Segment,
    convolve,
)


def uniform(lo=0.0, hi=1.0, mass=1.0):
    return PiecewiseConstantDensity([Bucket(lo, hi, mass)])


class TestBucket:
    def test_density(self):
        assert Bucket(0.0, 2.0, 1.0).density == 0.5

    def test_inverted_bounds_rejected(self):
        with pytest.raises(HistogramError):
            Bucket(1.0, 0.5, 1.0)

    def test_negative_mass_rejected(self):
        with pytest.raises(HistogramError):
            Bucket(0.0, 1.0, -0.1)


class TestPiecewiseConstant:
    def test_mass_and_support(self):
        d = PiecewiseConstantDensity([Bucket(0, 0.5, 0.2), Bucket(0.5, 1.0, 0.8)])
        assert d.mass() == pytest.approx(1.0)
        assert d.support == (0.0, 1.0)

    def test_overlapping_buckets_rejected(self):
        with pytest.raises(HistogramError):
            PiecewiseConstantDensity([Bucket(0, 0.6, 0.5), Bucket(0.5, 1.0, 0.5)])

    def test_empty_rejected(self):
        with pytest.raises(HistogramError):
            PiecewiseConstantDensity([])

    def test_pdf_values(self):
        d = PiecewiseConstantDensity([Bucket(0, 0.5, 0.2), Bucket(0.5, 1.0, 0.8)])
        assert d.pdf(0.25) == pytest.approx(0.4)
        assert d.pdf(0.75) == pytest.approx(1.6)
        assert d.pdf(2.0) == 0.0

    def test_cdf_monotone_and_bounded(self):
        d = PiecewiseConstantDensity([Bucket(0, 0.5, 0.2), Bucket(0.5, 1.0, 0.8)])
        values = [d.cdf(x / 10) for x in range(11)]
        assert values == sorted(values)
        assert values[0] == 0.0
        assert values[-1] == pytest.approx(1.0)

    def test_inverse_cdf_inverts_cdf(self):
        d = PiecewiseConstantDensity([Bucket(0, 0.5, 0.2), Bucket(0.5, 1.0, 0.8)])
        for p in (0.1, 0.2, 0.5, 0.9, 0.999):
            x = d.inverse_cdf(p)
            assert d.cdf(x) == pytest.approx(p, abs=1e-9)

    def test_inverse_cdf_clamps(self):
        d = uniform()
        assert d.inverse_cdf(-1.0) == 0.0
        assert d.inverse_cdf(2.0) == 1.0

    def test_mean_uniform(self):
        assert uniform().mean() == pytest.approx(0.5)

    def test_mean_two_buckets(self):
        d = PiecewiseConstantDensity([Bucket(0, 0.5, 0.2), Bucket(0.5, 1.0, 0.8)])
        # 0.2 * 0.25 + 0.8 * 0.75
        assert d.mean() == pytest.approx(0.65)

    def test_partial_expectation_full_is_mean(self):
        d = PiecewiseConstantDensity([Bucket(0, 0.5, 0.2), Bucket(0.5, 1.0, 0.8)])
        assert d.partial_expectation(0.0) == pytest.approx(d.mean())

    def test_partial_expectation_decreasing(self):
        d = uniform()
        values = [d.partial_expectation(c / 10) for c in range(11)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_partial_expectation_uniform_closed_form(self):
        # ∫_c^1 t dt = (1 - c^2)/2 for U(0,1)
        d = uniform()
        for c in (0.0, 0.3, 0.7, 1.0):
            assert d.partial_expectation(c) == pytest.approx((1 - c * c) / 2)

    def test_normalized(self):
        d = PiecewiseConstantDensity([Bucket(0, 1, 2.0)])
        assert d.normalized().mass() == pytest.approx(1.0)

    def test_scaled_domain(self):
        d = uniform().scaled(0.5)
        assert d.support == (0.0, 0.5)
        assert d.mass() == pytest.approx(1.0)
        assert d.mean() == pytest.approx(0.25)

    def test_scaled_invalid_factor(self):
        with pytest.raises(HistogramError):
            uniform().scaled(0.0)


class TestSegment:
    def test_mass_trapezoid(self):
        s = Segment(0.0, 1.0, 0.0, 2.0)
        assert s.mass == pytest.approx(1.0)

    def test_value_interpolates(self):
        s = Segment(0.0, 2.0, 0.0, 1.0)
        assert s.value_at(1.0) == pytest.approx(0.5)

    def test_score_mass_constant_piece(self):
        s = Segment(0.0, 1.0, 1.0, 1.0)
        assert s.score_mass_from(0.0) == pytest.approx(0.5)
        assert s.score_mass_from(0.5) == pytest.approx((1 - 0.25) / 2)

    def test_degenerate_rejected(self):
        with pytest.raises(HistogramError):
            Segment(1.0, 1.0, 1.0, 1.0)


class TestConvolution:
    def test_uniform_uniform_is_triangle(self):
        # U(0,1) + U(0,1) has the triangular density on [0, 2] peaking at 1.
        result = convolve(uniform(), uniform())
        assert result.support == (0.0, 2.0)
        assert result.mass() == pytest.approx(1.0)
        assert result.pdf(1.0) == pytest.approx(1.0, abs=1e-6)
        assert result.pdf(0.5) == pytest.approx(0.5, abs=1e-6)
        assert result.pdf(1.5) == pytest.approx(0.5, abs=1e-6)

    def test_convolution_mean_adds(self):
        d1 = PiecewiseConstantDensity([Bucket(0, 0.5, 0.2), Bucket(0.5, 1.0, 0.8)])
        d2 = PiecewiseConstantDensity([Bucket(0, 0.3, 0.5), Bucket(0.3, 1.0, 0.5)])
        result = convolve(d1, d2)
        assert result.mean() == pytest.approx(d1.mean() + d2.mean(), rel=1e-6)

    def test_convolution_support_adds(self):
        result = convolve(uniform(0, 0.5), uniform(0.2, 0.9))
        lo, hi = result.support
        assert lo == pytest.approx(0.2)
        assert hi == pytest.approx(1.4)

    def test_asymmetric_widths_trapezoid(self):
        # U(0,1) + U(0,3): plateau of height 1/3 between 1 and 3.
        result = convolve(uniform(0, 1), uniform(0, 3))
        assert result.pdf(2.0) == pytest.approx(1 / 3, abs=1e-6)

    def test_cdf_at_support_ends(self):
        result = convolve(uniform(), uniform())
        assert result.cdf(0.0) == pytest.approx(0.0, abs=1e-9)
        assert result.cdf(2.0) == pytest.approx(1.0, abs=1e-9)

    def test_inverse_cdf_round_trip(self):
        result = convolve(uniform(), uniform())
        for p in (0.05, 0.25, 0.5, 0.75, 0.95):
            x = result.inverse_cdf(p)
            assert result.cdf(x) == pytest.approx(p, abs=1e-6)

    def test_near_point_mass_shifts(self):
        # Convolving with a tiny-width bucket is approximately a shift.
        spike = PiecewiseConstantDensity([Bucket(0.5, 0.5 + 1e-9, 1.0)])
        result = convolve(uniform(), spike)
        assert result.mean() == pytest.approx(1.0, abs=1e-6)

    def test_zero_width_bucket_is_a_shift(self):
        # A true point mass is widened to a 1e-12 sliver, no further.
        point = PiecewiseConstantDensity([Bucket(0.5, 0.5, 1.0)])
        result = convolve(uniform(), point)
        assert result.mass() == pytest.approx(1.0, abs=1e-12)
        assert result.mean() == pytest.approx(1.0, abs=2e-12)
        lo, hi = result.support
        assert (lo, hi) == (0.5, pytest.approx(1.5, abs=3e-12))

    def test_two_point_masses(self):
        point = PiecewiseConstantDensity([Bucket(0.25, 0.25, 1.0)])
        result = convolve(point, point)
        assert result.mass() == pytest.approx(1.0, abs=1e-12)
        assert result.mean() == pytest.approx(0.5, abs=4e-12)

    def test_corners_an_ulp_apart_are_not_merged(self):
        # 0.4 + (1 - 1e-9) and (1 + (1 - 1e-9)) - 0.6 are the same corner
        # along two float paths.  On the 1e-9-wide ramp beside it one ulp
        # is 2e-7 of the height, so merging the two (or evaluating the
        # ramp at the wrong one) costs 1e-9 of the mean; kept apart the
        # sum is exact to rounding.
        thin_top = PiecewiseConstantDensity(
            [Bucket(0.0, 1.0 - 1e-9, 1 / 7), Bucket(1.0 - 1e-9, 1.0, 6 / 7)]
        )
        other = uniform(0.4, 1.0)
        result = convolve(thin_top, other)
        assert result.mass() == pytest.approx(1.0, abs=1e-14)
        assert result.mean() == pytest.approx(thin_top.mean() + other.mean(), abs=1e-14)

    def test_zero_mass_rejected(self):
        empty = PiecewiseConstantDensity([Bucket(0.0, 1.0, 0.0)])
        with pytest.raises(HistogramError):
            convolve(empty, uniform())


class TestInversePartialExpectation:
    def test_triangle_closed_form(self):
        # U(0,1)+U(0,1): ∫_c^2 t f = 1 - c³/3 for c <= 1.
        triangle = convolve(uniform(), uniform())
        for c in (0.2, 0.5, 0.9, 1.0):
            assert triangle.inverse_partial_expectation(1 - c**3 / 3) == pytest.approx(
                c, abs=1e-14
            )
        # At c = 0 the score mass is flat to third order: any c with c³/3
        # below an ulp is a solution.
        assert triangle.inverse_partial_expectation(1.0) < 1e-5

    def test_round_trip_through_every_segment(self):
        d1 = PiecewiseConstantDensity([Bucket(0, 0.5, 0.2), Bucket(0.5, 1.0, 0.8)])
        d2 = PiecewiseConstantDensity([Bucket(0, 0.3, 0.5), Bucket(0.3, 1.0, 0.5)])
        density = convolve(d1, d2)
        total = density.partial_expectation(0.0)
        for i in range(1, 100):
            c = density.inverse_partial_expectation(total * i / 100)
            assert density.partial_expectation(c) == pytest.approx(
                total * i / 100, rel=1e-14
            )

    def test_gap_of_zero_density_bisects(self):
        # Newton has no slope inside the gap; the bracket still closes.
        density = PiecewiseLinearDensity(
            [Segment(0.0, 1.0, 0.5, 0.5), Segment(1.0, 2.0, 0.0, 0.0),
             Segment(2.0, 3.0, 0.5, 0.5)]
        )
        above_gap = density.partial_expectation(2.0)
        c = density.inverse_partial_expectation(above_gap * 0.5)
        assert 2.0 < c < 3.0
        assert density.partial_expectation(c) == pytest.approx(above_gap * 0.5, rel=1e-14)
        c = density.inverse_partial_expectation(above_gap + 0.1)
        assert 0.0 < c < 1.0
        assert density.partial_expectation(c) == pytest.approx(above_gap + 0.1, rel=1e-14)

    def test_negative_support_is_clamped_at_zero(self):
        density = PiecewiseLinearDensity([Segment(-1.0, 1.0, 0.5, 0.5)])
        assert density.inverse_partial_expectation(10.0) == pytest.approx(0.0, abs=1e-15)

    def test_thin_slice_does_not_cancel(self):
        # hi³ - c³ would lose nine digits here; the product form loses none.
        segment = Segment(0.0, 2.0, 0.25, 0.75)
        c = 2.0 - 1e-9
        lo, hi, y_lo, y_hi, x = map(Fraction, (0.0, 2.0, 0.25, 0.75, c))
        slope = (y_hi - y_lo) / (hi - lo)
        exact = y_lo * (hi**2 - x**2) / 2 + slope * (hi**3 - x**3) / 3
        assert segment.score_mass_from(c) == pytest.approx(float(exact), rel=1e-15)
