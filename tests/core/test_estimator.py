"""Unit tests for the expected-score estimator."""

import pytest

from repro.core.estimator import ExpectedScoreEstimator, memoised_expected_score
from repro.errors import EstimationError
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, var
from repro.query.query import TriplePatternQuery
from repro.stats.catalog import StatisticsCatalog
from repro.stats.histogram import TwoBucketHistogram


def tp(name, v="s"):
    return TriplePattern(var(v), "rdf:type", name)


@pytest.fixture
def graph():
    kg = KnowledgeGraph()
    # Two type lists with power-law scores and partial overlap.
    scores = [100, 60, 30, 20, 10, 8, 5, 3, 2, 1]
    for i, score in enumerate(scores):
        kg.add(f"e{i}", "rdf:type", "t1", score=score)
    for i, score in enumerate(scores[:6]):
        kg.add(f"e{i}", "rdf:type", "t2", score=score * 2)
    for i in range(4):
        kg.add(f"e{i}", "rdf:type", "broad", score=50 - i)
    return kg


@pytest.fixture
def estimator(graph):
    return ExpectedScoreEstimator(StatisticsCatalog(graph))


class TestPatternHistogram:
    def test_unweighted(self, estimator):
        hist = estimator.pattern_histogram(tp("t1"))
        assert hist.high == 1.0
        assert hist.count == 10

    def test_weight_scales_support(self, estimator):
        hist = estimator.pattern_histogram(tp("t1"), weight=0.5)
        assert hist.high == 0.5


class TestQueryDistribution:
    def test_single_pattern_count(self, estimator):
        q = TriplePatternQuery((tp("t1"),))
        dist = estimator.query_distribution(q)
        assert dist.count == 10
        assert dist.density is not None

    def test_join_count_exact(self, estimator):
        q = TriplePatternQuery((tp("t1"), tp("t2")))
        dist = estimator.query_distribution(q)
        assert dist.count == 6

    def test_support_grows_with_patterns(self, estimator):
        q1 = TriplePatternQuery((tp("t1"),))
        q2 = TriplePatternQuery((tp("t1"), tp("t2")))
        d1 = estimator.query_distribution(q1)
        d2 = estimator.query_distribution(q2)
        assert d2.density.support[1] == pytest.approx(2.0, abs=1e-6)
        assert d1.density.support[1] == pytest.approx(1.0, abs=1e-6)

    def test_empty_pattern_gives_zero(self, estimator):
        q = TriplePatternQuery((tp("t1"), tp("missing")))
        dist = estimator.query_distribution(q)
        assert dist.count == 0
        assert dist.expected_top() == 0.0

    def test_replacement_substitutes_histogram(self, estimator):
        q = TriplePatternQuery((tp("t1"), tp("t2")))
        replaced = estimator.query_distribution(
            q, replace={tp("t2"): (tp("broad"), 0.5)}
        )
        # Join of t1 with broad: entities e0..e3 -> count 4.
        assert replaced.count == 4
        # Max achievable score: 1.0 + 0.5.
        assert replaced.density.support[1] == pytest.approx(1.5, abs=1e-6)

    def test_replacement_target_must_exist(self, estimator):
        q = TriplePatternQuery((tp("t1"),))
        with pytest.raises(EstimationError):
            estimator.query_distribution(q, replace={tp("zz"): (tp("t2"), 0.5)})

    def test_colliding_replacement_ok(self, estimator):
        # Relaxing t2 into t1 (already present) must not crash; the count
        # dedups to the single-pattern count.
        q = TriplePatternQuery((tp("t1"), tp("t2")))
        dist = estimator.query_distribution(q, replace={tp("t2"): (tp("t1"), 0.9)})
        assert dist.count == 10


class TestExpectedScores:
    def test_expected_kth_decreases_with_k(self, estimator):
        q = TriplePatternQuery((tp("t1"), tp("t2")))
        values = [estimator.expected_kth(q, k) for k in (1, 2, 4, 6)]
        assert values == sorted(values, reverse=True)

    def test_expected_kth_zero_beyond_count(self, estimator):
        q = TriplePatternQuery((tp("t1"), tp("t2")))
        assert estimator.expected_kth(q, 100) == 0.0

    def test_k_validation(self, estimator):
        q = TriplePatternQuery((tp("t1"),))
        with pytest.raises(EstimationError):
            estimator.expected_kth(q, 0)

    def test_relaxed_top_below_weight_times_patterns(self, estimator):
        q = TriplePatternQuery((tp("t1"), tp("t2")))
        top = estimator.query_distribution(
            q, replace={tp("t2"): (tp("broad"), 0.5)}
        ).expected_top()
        assert 0.0 < top <= 1.5

    def test_bounds_within_support(self, estimator):
        q = TriplePatternQuery((tp("t1"), tp("t2")))
        dist = estimator.query_distribution(q)
        top = dist.expected_top()
        lo, hi = dist.density.support
        assert lo <= top <= hi


class TestCountIsReadFirst:
    """A rank the query cannot fill scores 0.0 whatever the density is, so
    none is built: no convolution, no refit, no histogram density."""

    @pytest.fixture
    def no_densities(self, monkeypatch):
        def touched(*args, **kwargs):
            raise AssertionError("a density was built")

        monkeypatch.setattr("repro.core.estimator.convolve", touched)
        monkeypatch.setattr(TwoBucketHistogram, "refit", touched)
        monkeypatch.setattr(TwoBucketHistogram, "to_density", touched)
        # A memoised score needs no density either: start from a miss.
        memoised_expected_score.cache_clear()

    def test_rank_beyond_count_is_exactly_zero(self, estimator, no_densities):
        q = TriplePatternQuery((tp("t1"), tp("t2")))  # 6 answers
        assert estimator.expected_kth(q, 7) == 0.0
        assert estimator.query_distribution(q).expected_score_at(100) == 0.0

    def test_empty_relaxed_query_is_exactly_zero(self, estimator, no_densities):
        q = TriplePatternQuery((tp("t1"), tp("t2")))
        dist = estimator.query_distribution(q, replace={tp("t2"): (tp("missing"), 0.5)})
        assert dist.expected_top() == 0.0
        assert (dist.count, dist.density) == (0, None)

    def test_fillable_rank_does_build_one(self, estimator, no_densities):
        q = TriplePatternQuery((tp("t1"), tp("t2")))
        with pytest.raises(AssertionError, match="a density was built"):
            estimator.expected_kth(q, 6)

    def test_only_the_full_query_join_is_counted(self, estimator):
        q = TriplePatternQuery((tp("t1"), tp("t2"), tp("broad")))
        estimator.expected_kth(q, 1)
        assert estimator.catalog.cardinalities.cache_size == 1
