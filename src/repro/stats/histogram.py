"""Score-mass histograms (§3.1.1) and the post-convolution refit (§3.1.2).

The paper's key modelling decision: per triple pattern, store only four
numbers — ``m`` (match count), ``σ_r`` (the normalised score at the rank
``r`` within which 80% of the *score mass* lies), ``S_r`` (cumulative
score through rank ``r``) and ``S_m`` (total score) — and model the score
pdf as two uniform buckets whose probability masses equal the score-mass
fractions (0.8 above ``σ_r``, 0.2 below).

After convolving per-pattern densities into a query-level density, the
paper refits a two-bucket histogram so multi-pattern queries stay cheap;
:meth:`TwoBucketHistogram.refit` does that by finding the σ with 80% of
the *expected score mass* (``∫ t·f``) above it.

:class:`NBucketHistogram` generalises to any number of score-mass
quantile buckets — the "multi-bucket histograms" the paper suggests in
§4.5.2 as an accuracy/planning-time trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.errors import HistogramError
from repro.stats.piecewise import (
    Bucket,
    PiecewiseConstantDensity,
    PiecewiseLinearDensity,
)

#: The 80/20 rule the paper adopts for the bucket boundary.
DEFAULT_MASS_FRACTION = 0.8

#: Minimum relative bucket width, to keep densities well-defined when all
#: scores are (nearly) equal.
_MIN_REL_WIDTH = 1e-9


@dataclass(frozen=True)
class PatternStats:
    """The four stored values of §3.1.1 (plus the boundary rank).

    All scores are *normalised* (Definition 5), so ``high == 1.0`` for any
    non-empty match list.
    """

    m: int              # number of matches
    sigma_r: float      # score at the boundary rank r
    s_r: float          # cumulative score through rank r
    s_m: float          # total score over all m matches
    r: int              # the boundary rank itself (1-based)

    def __post_init__(self) -> None:
        if self.m < 0:
            raise HistogramError("match count must be >= 0")
        if self.m > 0:
            if not (0.0 <= self.sigma_r <= 1.0):
                raise HistogramError(f"sigma_r must be in [0,1], got {self.sigma_r}")
            if self.s_r < 0 or self.s_m < self.s_r - 1e-9:
                raise HistogramError(
                    f"inconsistent cumulative scores: S_r={self.s_r}, S_m={self.s_m}"
                )


def stats_from_scores(
    normalized_scores: Sequence[float],
    mass_fraction: float = DEFAULT_MASS_FRACTION,
) -> PatternStats:
    """Compute :class:`PatternStats` from a descending normalised score list.

    ``r`` is the smallest rank whose cumulative score reaches
    ``mass_fraction`` of the total; ``σ_r`` is the score at that rank.
    Every sum is a prefix of one left-to-right ``np.cumsum``, so the
    statistics are the same bits whatever order the interpreter's
    ``sum()`` adds floats in.
    """
    if not 0.0 < mass_fraction < 1.0:
        raise HistogramError(f"mass_fraction must be in (0,1), got {mass_fraction}")
    scores = np.asarray(normalized_scores, dtype=np.float64)
    if ((scores < -1e-12) | (scores > 1.0 + 1e-9)).any():
        raise HistogramError("normalised scores must lie in [0, 1]")
    if (scores[:-1] < scores[1:] - 1e-9).any():
        raise HistogramError("scores must be sorted in descending order")
    m = len(scores)
    if m == 0:
        return PatternStats(m=0, sigma_r=0.0, s_r=0.0, s_m=0.0, r=0)
    running = np.cumsum(scores)
    total = float(running[-1])
    if total <= 0.0:
        return PatternStats(m=m, sigma_r=0.0, s_r=0.0, s_m=0.0, r=m)
    reached = running >= mass_fraction * total - 1e-12
    boundary_rank = int(reached.argmax()) + 1 if reached.any() else m
    s_r = float(running[boundary_rank - 1])
    return PatternStats(
        m=m,
        sigma_r=float(scores[boundary_rank - 1]),
        s_r=s_r,
        s_m=total,
        r=boundary_rank,
    )


@dataclass(frozen=True)
class TwoBucketHistogram:
    """The paper's two-bucket score-mass histogram.

    The pdf is uniform on ``[0, sigma)`` with probability mass
    ``1 - beta`` and uniform on ``[sigma, high]`` with mass ``beta``,
    where ``beta = S_r / S_m`` (≈ 0.8 by construction).  ``count`` is the
    number of answers the distribution describes (``m`` for patterns, the
    estimated join cardinality for queries).

    ``high`` is 1.0 for normalised pattern lists and grows to the number
    of patterns for query-level (convolved) distributions.
    """

    sigma: float
    high: float
    beta: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise HistogramError("count must be >= 0")
        if self.high <= 0:
            raise HistogramError(f"high must be > 0, got {self.high}")
        if not (0.0 <= self.beta <= 1.0):
            raise HistogramError(f"beta must be in [0,1], got {self.beta}")
        if not (0.0 <= self.sigma <= self.high + 1e-9):
            raise HistogramError(
                f"sigma must be in [0, high], got sigma={self.sigma}, high={self.high}"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_scores(
        cls,
        normalized_scores: Sequence[float],
        mass_fraction: float = DEFAULT_MASS_FRACTION,
    ) -> "TwoBucketHistogram":
        """Build from a descending list of normalised scores."""
        stats = stats_from_scores(normalized_scores, mass_fraction)
        return cls.from_stats(stats)

    @classmethod
    def from_stats(cls, stats: PatternStats) -> "TwoBucketHistogram":
        if stats.m == 0 or stats.s_m <= 0:
            # Degenerate: an empty (or all-zero) match list.  Keep a valid
            # object; the estimator treats count == 0 as "no answers".
            return cls(sigma=0.0, high=1.0, beta=0.0, count=stats.m)
        return cls(
            sigma=float(stats.sigma_r),
            high=1.0,
            beta=float(stats.s_r / stats.s_m),
            count=stats.m,
        )

    @classmethod
    def refit(
        cls,
        density: PiecewiseLinearDensity | PiecewiseConstantDensity,
        count: int,
        mass_fraction: float = DEFAULT_MASS_FRACTION,
    ) -> "TwoBucketHistogram":
        """Refit a two-bucket histogram to an arbitrary density (§3.1.2).

        Finds ``σ`` such that the *expected score mass* above it,
        ``∫_σ^hi t·f(t) dt``, is ``mass_fraction`` of the total, then
        assigns bucket probability masses ``(1 - mass_fraction,
        mass_fraction)`` — mirroring how the per-pattern histograms assign
        probability equal to score-mass share.
        """
        if not 0.0 < mass_fraction < 1.0:
            raise HistogramError(
                f"mass_fraction must be in (0,1), got {mass_fraction}"
            )
        if isinstance(density, PiecewiseConstantDensity):
            density = density.to_linear()
        lo, hi = density.support
        if hi <= 0:
            return cls(sigma=0.0, high=1.0, beta=0.0, count=count)
        # σ is a ratio of score masses, so the density's scale drops out:
        # nothing is normalised here.
        total_score_mass = density.partial_expectation(max(lo, 0.0))
        if total_score_mass <= 0:
            return cls(sigma=0.0, high=hi, beta=0.0, count=count)
        sigma = density.inverse_partial_expectation(mass_fraction * total_score_mass)
        sigma = min(max(sigma, 0.0), hi * (1.0 - _MIN_REL_WIDTH))
        return cls(sigma=sigma, high=hi, beta=mass_fraction, count=count)

    @property
    def params(self) -> tuple:  # TwoBucketHistogram(*h.params) == h
        return (self.sigma, self.high, self.beta, self.count)

    # ------------------------------------------------------------------
    # Density view
    # ------------------------------------------------------------------
    @cached_property
    def _density(self) -> PiecewiseConstantDensity:
        sigma = min(max(self.sigma, self.high * _MIN_REL_WIDTH),
                    self.high * (1.0 - _MIN_REL_WIDTH))
        return PiecewiseConstantDensity(
            [
                Bucket(0.0, sigma, max(1.0 - self.beta, 0.0)),
                Bucket(sigma, self.high, self.beta),
            ]
        )

    def to_density(self) -> PiecewiseConstantDensity:
        """The pdf of §3.1.1 as a piecewise-constant density (built and
        validated once per histogram)."""
        return self._density

    def scaled(self, weight: float) -> "TwoBucketHistogram":
        """Apply a relaxation weight: scores scale by ``w``, so the whole
        support contracts by ``w`` (masses and count unchanged)."""
        if not 0.0 < weight <= 1.0:
            raise HistogramError(f"weight must be in (0,1], got {weight}")
        return TwoBucketHistogram(
            sigma=self.sigma * weight,
            high=self.high * weight,
            beta=self.beta,
            count=self.count,
        )

    # ------------------------------------------------------------------
    # Distribution interface (delegates to the density)
    # ------------------------------------------------------------------
    def pdf(self, x: float) -> float:
        return self.to_density().pdf(x)

    def cdf(self, x: float) -> float:
        return self.to_density().cdf(x)

    def inverse_cdf(self, p: float) -> float:
        return self.to_density().inverse_cdf(p)

    def mean(self) -> float:
        return self.to_density().mean()

    @property
    def is_degenerate(self) -> bool:
        return self.count == 0 or self.beta <= 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TwoBucketHistogram(sigma={self.sigma:.4f}, high={self.high:.4f}, "
            f"beta={self.beta:.3f}, count={self.count})"
        )


@dataclass(frozen=True)
class NBucketHistogram:
    """Generalised score-mass histogram with ``n`` quantile buckets.

    Bucket boundaries sit at the ranks where the cumulative score mass
    crosses each fraction in ``fractions`` (ascending, in (0,1)); bucket
    probability masses equal the score-mass shares, exactly generalising
    the two-bucket construction (fractions = (0.8,)).
    """

    boundaries: tuple[float, ...]   # descending score boundaries, len n-1
    masses: tuple[float, ...]       # probability mass per bucket, low→high
    high: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise HistogramError("count must be >= 0")
        if len(self.masses) != len(self.boundaries) + 1:
            raise HistogramError(
                "need exactly len(boundaries)+1 masses "
                f"({len(self.boundaries)} boundaries, {len(self.masses)} masses)"
            )
        if any(m < 0 for m in self.masses):
            raise HistogramError("bucket masses must be >= 0")
        edges = (0.0, *sorted(self.boundaries), self.high)
        for left, right in zip(edges, edges[1:]):
            if right < left - 1e-12:
                raise HistogramError("histogram boundaries out of order")

    @classmethod
    def from_scores(
        cls,
        normalized_scores: Sequence[float],
        n_buckets: int = 4,
    ) -> "NBucketHistogram":
        """Build with bucket boundaries at equal score-mass quantiles."""
        if n_buckets < 2:
            raise HistogramError(f"need >= 2 buckets, got {n_buckets}")
        # Plain floats from an array or a list alike: ``sum`` may add
        # ``float`` and ``np.float64`` items in different ways.
        scores = np.asarray(normalized_scores, dtype=np.float64).tolist()
        m = len(scores)
        if m == 0 or sum(scores) <= 0:
            return cls(
                boundaries=tuple(0.0 for _ in range(n_buckets - 1)),
                masses=tuple(0.0 for _ in range(n_buckets)),
                high=1.0,
                count=m,
            )
        total = float(sum(scores))
        # Fractions of score mass *above* each boundary, from the top:
        # e.g. 4 buckets -> top bucket holds 1/4 of mass, etc.  We express
        # them as cumulative-from-top fractions (1/n, 2/n, ..., (n-1)/n).
        fractions = [i / n_buckets for i in range(1, n_buckets)]
        boundaries: list[float] = []
        running = 0.0
        idx = 0
        for fraction in fractions:
            threshold = fraction * total
            while idx < m and running < threshold - 1e-12:
                running += scores[idx]
                idx += 1
            boundary_rank = max(idx, 1)
            boundaries.append(float(scores[boundary_rank - 1]))
        # Masses: score-mass share per bucket from low scores to high.
        edges_desc = boundaries  # descending
        cum_at_boundary: list[float] = []
        running = 0.0
        idx = 0
        for boundary in edges_desc:
            while idx < m and scores[idx] >= boundary - 1e-12:
                running += scores[idx]
                idx += 1
            cum_at_boundary.append(running)
        shares_from_top: list[float] = []
        prev = 0.0
        for value in cum_at_boundary:
            shares_from_top.append((value - prev) / total)
            prev = value
        shares_from_top.append((total - prev) / total)
        masses_low_to_high = tuple(reversed(shares_from_top))
        return cls(
            boundaries=tuple(boundaries),
            masses=masses_low_to_high,
            high=1.0,
            count=m,
        )

    @property
    def params(self) -> tuple:  # NBucketHistogram(*h.params) == h
        return (self.boundaries, self.masses, self.high, self.count)

    @cached_property
    def _density(self) -> PiecewiseConstantDensity:
        # Equal edges are merged, their masses pooled into one bucket.
        edges = [0.0]
        masses: list[float] = []
        pending = 0.0
        for hi, mass in zip((*sorted(self.boundaries), self.high), self.masses):
            pending += mass
            if hi - edges[-1] > 1e-12:
                edges.append(hi)
                masses.append(pending)
                pending = 0.0
        if not masses:
            return PiecewiseConstantDensity([Bucket(0.0, self.high, 1.0)])
        masses[-1] += pending
        return PiecewiseConstantDensity(
            [Bucket(lo, hi, mass) for lo, hi, mass in zip(edges, edges[1:], masses)]
        )

    def to_density(self) -> PiecewiseConstantDensity:
        return self._density

    def scaled(self, weight: float) -> "NBucketHistogram":
        if not 0.0 < weight <= 1.0:
            raise HistogramError(f"weight must be in (0,1], got {weight}")
        return NBucketHistogram(
            boundaries=tuple(b * weight for b in self.boundaries),
            masses=self.masses,
            high=self.high * weight,
            count=self.count,
        )

    @property
    def is_degenerate(self) -> bool:
        return self.count == 0 or sum(self.masses) <= 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NBucketHistogram({len(self.masses)} buckets, high={self.high:.3f}, "
            f"count={self.count})"
        )
