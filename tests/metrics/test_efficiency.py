"""Unit tests for the timing protocol."""

import pytest

from repro.errors import ExperimentError
from repro.metrics.efficiency import TimingProtocol


class TestTimingProtocol:
    def test_paper_defaults(self):
        protocol = TimingProtocol()
        assert protocol.n_runs == 5
        assert protocol.n_keep == 3

    def test_runs_and_averages_last_k(self):
        calls = []

        def run():
            calls.append(len(calls))
            return len(calls)  # 1, 2, 3, 4, 5

        outcome = TimingProtocol(5, 3).measure(run, float)
        assert len(calls) == 5
        assert outcome.mean_seconds == pytest.approx((3 + 4 + 5) / 3)
        assert outcome.all_seconds == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_keeps_last_result_object(self):
        counter = iter(range(10))
        outcome = TimingProtocol(3, 2).measure(lambda: next(counter), float)
        assert outcome.result == 2  # third call returned 2

    def test_single_run(self):
        outcome = TimingProtocol(1, 1).measure(lambda: 7.0, float)
        assert outcome.mean_seconds == 7.0

    def test_alternating_runs_take_turns(self):
        calls = []

        def run(name):
            def call():
                calls.append(name)
                return float(len(calls))

            return call

        spec, trinit = TimingProtocol(3, 2).measure_alternating(
            (run("S"), run("T")), float
        )
        assert calls == ["S", "T"] * 3
        assert spec.all_seconds == (1.0, 3.0, 5.0)
        assert trinit.all_seconds == (2.0, 4.0, 6.0)
        assert (spec.mean_seconds, trinit.mean_seconds) == (4.0, 5.0)
        assert (spec.result, trinit.result) == (5.0, 6.0)

    @pytest.mark.parametrize("n_runs,n_keep", [(0, 1), (3, 0), (3, 4)])
    def test_invalid_settings(self, n_runs, n_keep):
        with pytest.raises(ExperimentError):
            TimingProtocol(n_runs, n_keep)
