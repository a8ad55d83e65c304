"""Piecewise densities with exact convolution.

The paper models each triple pattern's score distribution as a two-bucket
histogram (a piecewise-*constant* density) and builds the query-level
distribution as the convolution of the per-pattern densities (§3.1.2).
The convolution of two piecewise-constant densities is piecewise *linear*
(a sum of trapezoids, one per bucket pair), which this module computes
analytically — no sampling, no grids.

Both density classes share the operations the estimator needs:

``mass()``        total probability mass (≈ 1 after normalisation)
``cdf(x)``        cumulative distribution
``inverse_cdf(p)`` quantile function (used by the order-statistics rule)
``mean()``        expectation
``partial_expectation(c)``  ``∫_c^∞ t·f(t) dt`` — the *score mass* above
                  ``c``, which drives the two-bucket refit (the linear
                  density also inverts it: ``inverse_partial_expectation``)
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

from repro.errors import HistogramError

#: Widths below this are treated as point masses when convolving.
_EPS = 1e-12


@dataclass(frozen=True)
class Bucket:
    """A uniform-density piece: probability *mass* spread over [lo, hi)."""

    lo: float
    hi: float
    mass: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise HistogramError("bucket bounds must be finite")
        if self.hi < self.lo:
            raise HistogramError(f"bucket hi < lo: [{self.lo}, {self.hi})")
        if self.mass < 0:
            raise HistogramError(f"bucket mass must be >= 0, got {self.mass}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def density(self) -> float:
        if self.width <= _EPS:
            return math.inf if self.mass > 0 else 0.0
        return self.mass / self.width

    @property
    def sliver_hi(self) -> float:
        """``hi`` — or, for a point-mass-like bucket, ``lo + _EPS``: as a
        sliver it is a proper (if extremely tall) uniform piece, and the
        widening shifts means by at most ``_EPS / 2``."""
        return self.hi if self.width > _EPS else self.lo + _EPS


class PiecewiseConstantDensity:
    """A density made of uniform buckets (a histogram's pdf).

    Buckets must be sorted, non-overlapping, with non-negative masses and
    at least one bucket of positive mass.  Masses need not sum to 1; use
    :meth:`normalized` to rescale.
    """

    def __init__(self, buckets: Sequence[Bucket]) -> None:
        buckets = [b for b in buckets if b.mass > 0 or b.width > 0]
        if not buckets:
            raise HistogramError("density needs at least one bucket")
        for left, right in zip(buckets, buckets[1:]):
            if right.lo < left.hi - _EPS:
                raise HistogramError(
                    f"buckets overlap: [{left.lo}, {left.hi}) and "
                    f"[{right.lo}, {right.hi})"
                )
        self.buckets = tuple(buckets)
        self._cum: list[float] = []
        running = 0.0
        for bucket in self.buckets:
            running += bucket.mass
            self._cum.append(running)

    # ------------------------------------------------------------------
    @property
    def support(self) -> tuple[float, float]:
        return (self.buckets[0].lo, self.buckets[-1].hi)

    def mass(self) -> float:
        return self._cum[-1]

    def normalized(self) -> "PiecewiseConstantDensity":
        total = self.mass()
        if total <= 0:
            raise HistogramError("cannot normalise a zero-mass density")
        if abs(total - 1.0) < 1e-12:
            return self
        return PiecewiseConstantDensity(
            [Bucket(b.lo, b.hi, b.mass / total) for b in self.buckets]
        )

    def scaled(self, factor: float) -> "PiecewiseConstantDensity":
        """Scale the *domain* by ``factor > 0`` (X → factor·X).

        Masses are preserved.  This is how a relaxation weight ``w`` is
        applied to a pattern's score distribution: relaxed scores are
        ``w · S(t|q')``, i.e. the density's support shrinks by ``w``.
        """
        if factor <= 0:
            raise HistogramError(f"scale factor must be > 0, got {factor}")
        return PiecewiseConstantDensity(
            [Bucket(b.lo * factor, b.hi * factor, b.mass) for b in self.buckets]
        )

    # ------------------------------------------------------------------
    def pdf(self, x: float) -> float:
        for bucket in self.buckets:
            if bucket.lo <= x < bucket.hi:
                return bucket.density
        if self.buckets and x == self.buckets[-1].hi:
            return self.buckets[-1].density
        return 0.0

    def cdf(self, x: float) -> float:
        total = 0.0
        for bucket in self.buckets:
            if bucket.width <= _EPS:
                # Point mass at bucket.lo.
                if x >= bucket.lo:
                    total += bucket.mass
                else:
                    break
            elif x >= bucket.hi:
                total += bucket.mass
            elif x > bucket.lo:
                total += bucket.mass * (x - bucket.lo) / bucket.width
                break
            else:
                break
        return total

    def inverse_cdf(self, p: float) -> float:
        """Smallest ``x`` with ``cdf(x) >= p`` (p clamped to [0, mass])."""
        total = self.mass()
        p = min(max(p, 0.0), total)
        idx = bisect.bisect_left(self._cum, p - 1e-15)
        if idx >= len(self.buckets):
            return self.buckets[-1].hi
        bucket = self.buckets[idx]
        prior = self._cum[idx] - bucket.mass
        within = p - prior
        if bucket.mass <= _EPS or bucket.width <= _EPS:
            return bucket.lo
        return bucket.lo + bucket.width * (within / bucket.mass)

    def mean(self) -> float:
        return sum(b.mass * (b.lo + b.hi) / 2.0 for b in self.buckets)

    def partial_expectation(self, c: float) -> float:
        """``∫_c^∞ t f(t) dt`` — expected score mass above ``c``."""
        total = 0.0
        for bucket in self.buckets:
            lo = max(bucket.lo, c)
            if lo >= bucket.hi:
                if bucket.width <= _EPS and bucket.lo >= c:
                    total += bucket.mass * bucket.lo
                continue
            if bucket.width <= _EPS:
                total += bucket.mass * bucket.lo
                continue
            total += bucket.density * (bucket.hi**2 - lo**2) / 2.0
        return total

    def to_linear(self) -> "PiecewiseLinearDensity":
        """The same density as flat linear pieces (a point-mass-like
        bucket as a sliver of its mass)."""
        segments = []
        for bucket in self.buckets:
            height = bucket.mass / (bucket.sliver_hi - bucket.lo)
            segments.append(Segment(bucket.lo, bucket.sliver_hi, height, height))
        return PiecewiseLinearDensity(segments)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(
            f"[{b.lo:.3g},{b.hi:.3g}):{b.mass:.3g}" for b in self.buckets
        )
        return f"PiecewiseConstantDensity({inner})"


@dataclass(frozen=True)
class Segment:
    """A linear density piece: ``f`` interpolates ``y_lo → y_hi`` on [lo, hi)."""

    lo: float
    hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self) -> None:
        if self.hi <= self.lo:
            raise HistogramError(f"segment needs hi > lo, got [{self.lo}, {self.hi})")
        if self.y_lo < -1e-9 or self.y_hi < -1e-9:
            raise HistogramError("segment density must be non-negative")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def slope(self) -> float:
        return (self.y_hi - self.y_lo) / self.width

    @property
    def mass(self) -> float:
        return (self.y_lo + self.y_hi) / 2.0 * self.width

    def value_at(self, x: float) -> float:
        return self.y_lo + (self.y_hi - self.y_lo) * (x - self.lo) / (self.hi - self.lo)

    def mass_up_to(self, x: float) -> float:
        """``∫_lo^x f`` for ``x`` within the segment."""
        dx = x - self.lo
        return self.y_lo * dx + self.slope * dx * dx / 2.0

    def score_mass_from(self, c: float) -> float:
        """``∫_max(c,lo)^hi t f(t) dt``.

        With ``f`` linear from ``y`` at ``x = max(c, lo)`` to ``y_hi`` at
        ``hi`` this is ``(hi - x)·(y·(2x + hi) + y_hi·(x + 2hi)) / 6`` —
        a sum of same-signed terms for ``x >= 0``, so nothing cancels
        however thin the slice.
        """
        if c >= self.hi:
            return 0.0
        x, y = (self.lo, self.y_lo) if c <= self.lo else (c, self.value_at(c))
        hi, y_hi = self.hi, self.y_hi
        return (hi - x) * (y * (2.0 * x + hi) + y_hi * (x + 2.0 * hi)) / 6.0


class PiecewiseLinearDensity:
    """A density made of linear pieces — the result of convolving two
    piecewise-constant densities."""

    def __init__(self, segments: Sequence[Segment]) -> None:
        if not segments:
            raise HistogramError("density needs at least one segment")
        ordered = sorted(segments, key=lambda s: s.lo)
        for left, right in zip(ordered, ordered[1:]):
            if right.lo < left.hi - 1e-9:
                raise HistogramError("segments overlap")
        self.segments = tuple(ordered)
        self._cum: list[float] = []
        running = 0.0
        for segment in self.segments:
            running += segment.mass
            self._cum.append(running)

    # ------------------------------------------------------------------
    @property
    def support(self) -> tuple[float, float]:
        return (self.segments[0].lo, self.segments[-1].hi)

    def mass(self) -> float:
        return self._cum[-1]

    def normalized(self) -> "PiecewiseLinearDensity":
        total = self.mass()
        if total <= 0:
            raise HistogramError("cannot normalise a zero-mass density")
        if abs(total - 1.0) < 1e-12:
            return self
        return PiecewiseLinearDensity(
            [
                Segment(s.lo, s.hi, s.y_lo / total, s.y_hi / total)
                for s in self.segments
            ]
        )

    def pdf(self, x: float) -> float:
        for segment in self.segments:
            if segment.lo <= x < segment.hi:
                return segment.value_at(x)
        if x == self.segments[-1].hi:
            return self.segments[-1].y_hi
        return 0.0

    def cdf(self, x: float) -> float:
        total = 0.0
        for segment in self.segments:
            if x >= segment.hi:
                total += segment.mass
            elif x > segment.lo:
                total += segment.mass_up_to(x)
                break
            else:
                break
        return total

    def inverse_cdf(self, p: float) -> float:
        total = self.mass()
        p = min(max(p, 0.0), total)
        idx = bisect.bisect_left(self._cum, p - 1e-15)
        if idx >= len(self.segments):
            return self.segments[-1].hi
        segment = self.segments[idx]
        prior = self._cum[idx] - segment.mass
        target = p - prior
        if segment.mass <= _EPS:
            return segment.lo
        # Solve y_lo*d + slope*d^2/2 = target for d = x - lo.
        slope = segment.slope
        if abs(slope) < 1e-15:
            d = target / segment.y_lo if segment.y_lo > 0 else 0.0
        else:
            a = slope / 2.0
            b = segment.y_lo
            disc = b * b + 4.0 * a * target
            if disc < 0:
                disc = 0.0
            d = (-b + math.sqrt(disc)) / (2.0 * a)
            if d < 0 or d > segment.width + 1e-9:
                d = (-b - math.sqrt(disc)) / (2.0 * a)
        return segment.lo + min(max(d, 0.0), segment.width)

    def mean(self) -> float:
        return self.partial_expectation(self.support[0])

    def partial_expectation(self, c: float) -> float:
        return sum(segment.score_mass_from(c) for segment in self.segments)

    def inverse_partial_expectation(self, target: float) -> float:
        """The ``c >= max(lo, 0)`` with ``partial_expectation(c) = target``
        (clamped to the non-negative support) — what the refit asks for.

        Score mass accumulates segment by segment from the top, each
        term in closed form, and the one segment where the running sum
        crosses *target* is the only one solved: inside it
        ``∫_c^hi t·f`` is a cubic in ``c`` that falls monotonically for
        ``c >= 0`` (its derivative is ``-c·f(c)``), so Newton steps kept
        inside a shrinking bracket converge in a handful of iterations,
        and a step that leaves the bracket (flat density) bisects.
        """
        floor = max(self.support[0], 0.0)
        above = 0.0
        for segment in reversed(self.segments):
            inside = segment.score_mass_from(floor)
            if above + inside >= target or segment.lo <= floor:
                break
            above += inside
        lo, hi = max(segment.lo, floor), segment.hi
        c = (lo + hi) / 2.0
        for _ in range(64):
            excess = above + segment.score_mass_from(c) - target
            if excess >= 0.0:
                lo = c
            else:
                hi = c
            descent = c * segment.value_at(c)
            step = c + excess / descent if descent > 0.0 else math.inf
            if not lo <= step <= hi:
                step = (lo + hi) / 2.0
            if abs(step - c) <= 4e-16 * hi:
                break
            c = step
        return c

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lo, hi = self.support
        return (
            f"PiecewiseLinearDensity({len(self.segments)} segments on "
            f"[{lo:.3g}, {hi:.3g}], mass={self.mass():.4f})"
        )


# ----------------------------------------------------------------------
# Convolution
# ----------------------------------------------------------------------
def convolve(
    d1: PiecewiseConstantDensity, d2: PiecewiseConstantDensity
) -> PiecewiseLinearDensity:
    """Exact convolution of two piecewise-constant densities.

    Each pair of buckets contributes a trapezoid.  Their sum is
    *continuous* and linear between trapezoid corners, so its values at
    the corners determine it: one evaluation per breakpoint, each segment
    taking its ends from its two breakpoints.  A trapezoid is compared
    with its own corners as floats, never re-derived from a ratio: on a
    ramp 1e-9 wide one ulp of ``x`` is 2e-7 of the height, so corners are
    neither merged by a tolerance nor recomputed.  The result has total
    mass ``d1.mass() * d2.mass()``.
    """
    # (lo, p1, p2, hi, peak): the density of a sum of two uniforms rises
    # over the narrower width, is flat until p2, falls over the narrower
    # width again.  The peak is the one that gives the trapezoid over its
    # *rounded* corners the pair's mass (mass / wider width, to rounding),
    # so every pair keeps its share however thin its ramps.
    trapezoids: list[tuple[float, float, float, float, float]] = []
    for b1, b2 in product(d1.buckets, d2.buckets):
        hi1, hi2 = b1.sliver_hi, b2.sliver_hi
        lo, hi = b1.lo + b2.lo, hi1 + hi2
        ramp = min(hi1 - b1.lo, hi2 - b2.lo)
        # Equal widths make a triangle: keep p1 <= p2 to the last ulp.
        p1 = lo + ramp
        p2 = max(p1, hi - ramp)
        if b1.mass * b2.mass > 0 and lo < p1 and p2 < hi:
            peak = 2.0 * b1.mass * b2.mass / ((hi - lo) + (p2 - p1))
            trapezoids.append((lo, p1, p2, hi, peak))
    if not trapezoids:
        raise HistogramError("cannot convolve zero-mass densities")

    xs = sorted({x for trapezoid in trapezoids for x in trapezoid[:4]})
    ys = [0.0] * len(xs)
    for lo, p1, p2, hi, peak in trapezoids:
        for i, x in enumerate(xs):
            if lo < x < hi:
                if x < p1:
                    ys[i] += peak * (x - lo) / (p1 - lo)
                elif x <= p2:
                    ys[i] += peak
                else:
                    ys[i] += peak * (hi - x) / (hi - p2)
    return PiecewiseLinearDensity(
        [Segment(*piece) for piece in zip(xs, xs[1:], ys, ys[1:])]
    )
