"""The expected-score estimator (§3.1).

Given the statistics catalog, the estimator builds the score distribution
of a query's answers by repeatedly convolving per-pattern densities
(§3.1.2) and refitting a two-bucket histogram after each step, then reads
expected scores at ranks off the final distribution using the
order-statistics rule (§3.1.3).  The answer count is read first: a rank
the query cannot fill scores 0.0 without any density being convolved.

Relaxations enter through :meth:`query_distribution`'s ``replace``
argument: the planner substitutes one pattern's histogram with the
top-weighted relaxation's histogram scaled by its weight (the relaxed
scores are ``w · S(t|q')``, so the support contracts by ``w``).

An expected score is a pure function of plain values, so
:func:`memoised_expected_score` keeps it under exactly those values: it
needs no graph version and no invalidation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.errors import EstimationError
from repro.kg.pattern import TriplePattern
from repro.query.query import TriplePatternQuery
from repro.stats.catalog import StatisticsCatalog
from repro.stats.histogram import NBucketHistogram, TwoBucketHistogram
from repro.stats.order_statistics import expected_kth_score
from repro.stats.piecewise import PiecewiseConstantDensity, convolve

Histogram = TwoBucketHistogram | NBucketHistogram

#: Expected scores :func:`memoised_expected_score` keeps.
EXPECTED_SCORE_MEMO_SIZE = 4096

#: Decisions a :class:`~repro.core.planner.SpecQPPlanner` memoises.
DECISION_MEMO_SIZE = 1024

#: A slot in a memo key: the histogram's kind and its four ``params``.
_SLOT = 5


def refit_convolution(
    histograms: tuple[Histogram, ...], count: int, mass_fraction: float
) -> PiecewiseConstantDensity:
    """The slots' densities convolved in slot order, refitting a
    two-bucket histogram after each step (§3.1.2); total mass 1."""
    current = histograms[0].to_density().normalized()
    for histogram in histograms[1:]:
        current = TwoBucketHistogram.refit(
            convolve(current, histogram.to_density()),
            count=count,
            mass_fraction=mass_fraction,
        ).to_density()
    return current


@lru_cache(maxsize=EXPECTED_SCORE_MEMO_SIZE)
def memoised_expected_score(
    params: tuple, count: int, mass_fraction: float, rank: int
) -> float:
    """Expected score at *rank* of *count* answers whose slots hold the
    histograms ``kind(*values)``: *params* is each slot's ``kind,
    *values`` in slot order, flat (a key that small keeps 4 096 entries
    near a megabyte).  It holds no histogram or density: a miss rebuilds
    the histograms from their parameters, bit for bit."""
    histograms = tuple(
        params[i](*params[i + 1 : i + _SLOT]) for i in range(0, len(params), _SLOT)
    )
    density = refit_convolution(histograms, count, mass_fraction)
    return expected_kth_score(density, rank, count)


@dataclass(frozen=True)
class QueryDistribution:
    """The estimated score distribution of a query's answer set.

    ``count`` is the estimated number of answers; ``count == 0`` means
    the estimator believes the query has no answers at all, and every
    expected score is 0.  ``histograms`` holds one (weight-scaled)
    histogram per pattern slot; ``density`` — their repeated
    convolve→refit, total mass 1 — is computed when first read.
    :meth:`expected_score_at` reads the memo instead, which convolves
    only on a miss and only for a rank the query can fill.
    """

    histograms: tuple[Histogram, ...]
    count: int
    mass_fraction: float

    @cached_property
    def density(self) -> PiecewiseConstantDensity | None:
        if self.count <= 0:
            return None
        return refit_convolution(self.histograms, self.count, self.mass_fraction)

    def expected_score_at(self, rank: int) -> float:
        """Expected score of the answer at *rank* (1 = best), read from
        :func:`memoised_expected_score`."""
        if self.count <= 0 or self.count < rank:
            # Order statistics give 0.0 whatever the density is.
            return 0.0
        params: tuple = ()
        for histogram in self.histograms:
            params += (type(histogram), *histogram.params)
        return memoised_expected_score(params, self.count, self.mass_fraction, rank)

    def expected_top(self) -> float:
        return self.expected_score_at(1)


class ExpectedScoreEstimator:
    """Builds query-level score distributions from catalog statistics."""

    def __init__(self, catalog: StatisticsCatalog) -> None:
        self._catalog = catalog

    @property
    def catalog(self) -> StatisticsCatalog:
        return self._catalog

    # ------------------------------------------------------------------
    def pattern_histogram(
        self, pattern: TriplePattern, weight: float = 1.0
    ) -> Histogram:
        """The (possibly weight-scaled) histogram of one pattern."""
        histogram = self._catalog.histogram(pattern)
        if weight != 1.0:
            histogram = histogram.scaled(weight)
        return histogram

    def query_distribution(
        self,
        query: TriplePatternQuery,
        replace: dict[TriplePattern, tuple[TriplePattern, float]] | None = None,
    ) -> QueryDistribution:
        """Estimate the distribution of the answer scores of *query*.

        ``replace`` maps an original pattern to ``(relaxed_pattern, w)``;
        the relaxed pattern's histogram (scaled by ``w``) and match count
        stand in for the original's, and the cardinality is computed for
        the substituted query — this is how PLANGEN evaluates ``E_Q'(1)``.
        """
        replace = replace or {}
        for original in replace:
            if original not in query.patterns:
                raise EstimationError(
                    f"replacement target {original} not in query"
                )

        effective_patterns: list[TriplePattern] = []
        histograms: list[Histogram] = []
        for pattern in query.patterns:
            relaxed, weight = replace.get(pattern, (pattern, 1.0))
            effective_patterns.append(relaxed)
            histograms.append(self.pattern_histogram(relaxed, weight))

        if any(h.is_degenerate for h in histograms):
            # Some pattern has no matches: the whole query is empty.
            return QueryDistribution((), 0, self._catalog.mass_fraction)

        # Two slots may hold the same pattern (a relaxation may collide
        # with another slot's pattern); duplicates do not change the
        # answer set, so they are dropped for counting while still
        # contributing their histogram to the sum.
        count = self._catalog.cardinality(tuple(dict.fromkeys(effective_patterns)))
        return QueryDistribution(
            tuple(histograms), count, self._catalog.mass_fraction
        )

    # ------------------------------------------------------------------
    def expected_kth(self, query: TriplePatternQuery, k: int) -> float:
        """``E_Q(k)``: expected k-th best answer score of *query*."""
        if k < 1:
            raise EstimationError(f"k must be >= 1, got {k}")
        return self.query_distribution(query).expected_score_at(k)
