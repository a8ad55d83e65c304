"""Unit tests for the experiment session."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.session import ExperimentSession
from repro.metrics.efficiency import TimingProtocol


@pytest.fixture(scope="module")
def session(tiny_xkg_workload):
    return ExperimentSession(
        tiny_xkg_workload,
        ks=(3, 5),
        protocol=TimingProtocol(n_runs=2, n_keep=1),
    )


class TestSession:
    def test_validation(self, tiny_xkg_workload):
        with pytest.raises(ExperimentError):
            ExperimentSession(tiny_xkg_workload, ks=())
        with pytest.raises(ExperimentError):
            ExperimentSession(tiny_xkg_workload, ks=(0,))

    def test_records_one_per_query(self, session):
        records = session.records(3)
        assert len(records) == len(session.workload.queries)

    def test_records_cached(self, session):
        query = session.workload.queries[0]
        assert session.record(query, 3) is session.record(query, 3)

    def test_record_fields_consistent(self, session):
        record = session.records(3)[0]
        assert record.dataset == "xkg"
        assert record.k == 3
        assert record.n_patterns >= 2
        assert 0.0 <= record.precision <= 1.0
        assert record.spec_total_seconds > 0
        assert record.trinit_total_seconds > 0
        assert record.spec_answer_objects > 0
        assert record.trinit_answer_objects > 0
        assert record.error.mean >= 0.0

    def test_trinit_is_ground_truth_length(self, session):
        for record in session.records(3):
            assert len(record.trinit_answers) <= 3

    def test_predicted_vs_required_sets_valid(self, session):
        for record in session.records(3):
            assert record.predicted_relaxed <= set(range(record.n_patterns))
            assert record.required_relaxed <= set(range(record.n_patterns))

    def test_prediction_correct_property(self, session):
        for record in session.records(3):
            expected = record.predicted_relaxed == record.required_relaxed
            assert record.prediction_correct == expected

    def test_perfect_precision_implies_zero_error(self, session):
        for record in session.records(3):
            if record.precision == 1.0 and len(record.spec_answers) == len(
                record.trinit_answers
            ):
                # Same answer sets in the same order implies tiny error.
                if [a.bindings for a in record.spec_answers] == [
                    a.bindings for a in record.trinit_answers
                ]:
                    assert record.error.mean == pytest.approx(0.0, abs=1e-9)
