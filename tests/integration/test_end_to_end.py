"""End-to-end integration tests across the whole pipeline.

These exercise the full stack — dataset generation → rule mining →
statistics → planning → operator execution → metrics — and assert the
*shape* properties the paper's evaluation relies on.
"""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import SpecQPEngine
from repro.experiments.session import ExperimentSession
from repro.metrics.efficiency import TimingProtocol
from repro.metrics.quality import precision_at_k


@pytest.fixture(scope="module")
def xkg_engine(tiny_xkg_workload):
    return SpecQPEngine(tiny_xkg_workload.graph, tiny_xkg_workload.rules)


@pytest.fixture(scope="module")
def twitter_engine(tiny_twitter_workload):
    return SpecQPEngine(
        tiny_twitter_workload.graph, tiny_twitter_workload.rules
    )


class TestXKGEndToEnd:
    def test_all_queries_run_under_both_engines(self, tiny_xkg_workload, xkg_engine):
        for query in tiny_xkg_workload.queries:
            spec = xkg_engine.query(query, k=5)
            trinit = xkg_engine.query_trinit(query, k=5)
            assert len(spec.answers) <= 5
            assert len(trinit.answers) <= 5
            assert list(spec.scores) == sorted(spec.scores, reverse=True)
            assert list(trinit.scores) == sorted(trinit.scores, reverse=True)

    def test_spec_never_uses_more_memory(self, tiny_xkg_workload, xkg_engine):
        """Spec-QP prunes work: it must never create more answer objects
        than TriniT on the same query (plans coincide in the worst case,
        modulo join-order; allow a small tolerance)."""
        worse = 0
        for query in tiny_xkg_workload.queries:
            spec = xkg_engine.query(query, k=5)
            trinit = xkg_engine.query_trinit(query, k=5)
            if spec.answer_objects_created > trinit.answer_objects_created * 1.05:
                worse += 1
        assert worse <= len(tiny_xkg_workload.queries) // 4

    def test_average_precision_in_paper_band(self, tiny_xkg_workload, xkg_engine):
        precisions = []
        for query in tiny_xkg_workload.queries:
            spec = xkg_engine.query(query, k=5)
            trinit = xkg_engine.query_trinit(query, k=5)
            precisions.append(precision_at_k(spec.answers, trinit.answers))
        assert sum(precisions) / len(precisions) >= 0.6

    def test_spec_answers_are_valid_trinit_answers(self, tiny_xkg_workload, xkg_engine):
        """Every Spec-QP answer must carry its true score: the same
        binding evaluated by the full engine has at least that score
        (Spec-QP can only *miss* relaxations, never inflate scores)."""
        query = tiny_xkg_workload.queries[0]
        spec = xkg_engine.query(query, k=5)
        trinit = xkg_engine.query_trinit(query, k=50)
        true_scores = {a.bindings: a.score for a in trinit.answers}
        for answer in spec.answers:
            if answer.bindings in true_scores:
                assert answer.score <= true_scores[answer.bindings] + 1e-9


class TestTwitterEndToEnd:
    def test_sparse_regime_relaxes_aggressively(
        self, tiny_twitter_workload, twitter_engine
    ):
        """Twitter terms match few tweets, so most queries cannot fill a
        top-10 exactly and Spec-QP must relax most patterns (§4.5.2)."""
        relaxed_fractions = []
        for query in tiny_twitter_workload.queries:
            decision = twitter_engine.plan(query, k=10)
            relaxed_fractions.append(decision.plan.n_relaxed / len(query))
        assert sum(relaxed_fractions) / len(relaxed_fractions) > 0.5

    def test_quality_against_ground_truth(
        self, tiny_twitter_workload, twitter_engine
    ):
        precisions = []
        for query in tiny_twitter_workload.queries:
            spec = twitter_engine.query(query, k=5)
            trinit = twitter_engine.query_trinit(query, k=5)
            precisions.append(precision_at_k(spec.answers, trinit.answers))
        assert sum(precisions) / len(precisions) >= 0.6


class TestKSweepShape:
    def test_higher_k_requires_no_fewer_relaxations(self, tiny_xkg_workload):
        """§4.5.2: as k grows, queries increasingly require relaxations.
        The *predicted* relaxation count must be monotone-ish: on average
        not decreasing from k=3 to k=10."""
        w = tiny_xkg_workload
        engine = SpecQPEngine(w.graph, w.rules)
        mean_relaxed = {}
        for k in (3, 10):
            counts = [engine.plan(q, k).plan.n_relaxed for q in w.queries]
            mean_relaxed[k] = sum(counts) / len(counts)
        assert mean_relaxed[10] >= mean_relaxed[3] - 1e-9


class TestSessionIntegration:
    def test_full_session_on_twitter(self, tiny_twitter_workload):
        session = ExperimentSession(
            tiny_twitter_workload,
            ks=(3,),
            protocol=TimingProtocol(n_runs=2, n_keep=1),
        )
        records = session.records(3)
        assert len(records) == len(tiny_twitter_workload.queries)
        assert all(r.trinit_total_seconds > 0 for r in records)


class TestConfigVariants:
    def test_nbucket_engine_runs(self, tiny_xkg_workload):
        w = tiny_xkg_workload
        engine = SpecQPEngine(
            w.graph, w.rules, EngineConfig(histogram_kind="n-bucket", n_buckets=6)
        )
        result = engine.query(w.queries[0], k=5)
        assert len(result.answers) <= 5

    def test_independence_selectivity_engine_runs(self, tiny_xkg_workload):
        w = tiny_xkg_workload
        engine = SpecQPEngine(
            w.graph, w.rules, EngineConfig(selectivity_mode="independence")
        )
        result = engine.query(w.queries[0], k=5)
        assert len(result.answers) <= 5

    def test_relaxation_cap_reduces_memory(self, tiny_xkg_workload):
        w = tiny_xkg_workload
        capped = SpecQPEngine(
            w.graph, w.rules, EngineConfig(max_relaxations_per_pattern=2)
        )
        full = SpecQPEngine(w.graph, w.rules)
        query = max(w.queries, key=len)
        capped_result = capped.query_trinit(query, k=5)
        full_result = full.query_trinit(query, k=5)
        assert (
            capped_result.answer_objects_created
            <= full_result.answer_objects_created
        )
