"""WorkloadReport and QueryOutcome aggregation arithmetic."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.service import QueryOutcome, WorkloadReport, percentile
from repro.service.cache import CacheStats


def outcome(
    name: str,
    seconds: float,
    n_relaxed: int = 0,
    n_patterns: int = 2,
    n_answers: int = 5,
) -> QueryOutcome:
    return QueryOutcome(
        query_name=name,
        k=5,
        n_patterns=n_patterns,
        seconds=seconds,
        n_answers=n_answers,
        n_relaxed=n_relaxed,
        plan=f"plan-{name}",
    )


@pytest.fixture
def report() -> WorkloadReport:
    outcomes = tuple(
        outcome(f"q{i}", seconds=(i + 1) / 100.0, n_relaxed=i % 3)
        for i in range(10)
    )
    return WorkloadReport(
        outcomes=outcomes,
        wall_seconds=0.5,
        dataset="unit",
        extras={
            "result_cache_hits": 30,
            "result_cache_misses": 10,
            "result_cache_size": 9,
        },
    )


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 11)]  # 1..10
    assert percentile(values, 50) == 5.0
    assert percentile(values, 90) == 9.0
    assert percentile(values, 99) == 10.0
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 10.0
    assert percentile([3.0], 50) == 3.0
    with pytest.raises(ExperimentError):
        percentile([], 50)
    with pytest.raises(ExperimentError):
        percentile([1.0], 150)


def test_empty_report_rejected():
    with pytest.raises(ExperimentError):
        WorkloadReport(outcomes=(), wall_seconds=1.0)


def test_latency_aggregates(report):
    assert report.n_queries == 10
    assert report.mean_latency == pytest.approx(0.055)
    assert report.max_latency == pytest.approx(0.10)
    assert report.latency_percentile(50) == pytest.approx(0.05)
    assert report.latency_percentile(99) == pytest.approx(0.10)
    assert report.queries_per_second == pytest.approx(20.0)


def test_plan_mix_and_relaxation_counts(report):
    # n_relaxed cycles 0,1,2 over n_patterns=2: 2 => all-relaxed.
    assert report.plan_mix == {"exact": 4, "partial": 3, "all-relaxed": 3}
    assert report.mean_relaxed == pytest.approx(0.9)
    assert report.total_answers == 50


def test_plan_kind_boundaries():
    assert outcome("q", 0.1, n_relaxed=0).plan_kind == "exact"
    assert outcome("q", 0.1, n_relaxed=1).plan_kind == "partial"
    assert outcome("q", 0.1, n_relaxed=2).plan_kind == "all-relaxed"


def test_as_dict_is_flat_and_complete(report):
    summary = report.as_dict()
    assert summary["n_queries"] == 10
    assert summary["p50_latency"] == pytest.approx(0.05)
    assert summary["plan_mix"]["exact"] == 4
    assert summary["result_cache_hits"] == 30
    # One pipeline on one thread: no worker count, no match-list cache.
    assert "n_workers" not in summary and "cache" not in summary


def test_render_mentions_everything(report):
    text = report.render()
    assert "unit" in text
    assert "queries/s" in text
    assert "p50 / p90 / p99" in text
    assert "exact=4 partial=3 all-relaxed=3" in text
    assert "result cache            30 hits / 10 misses (9 answers cached)" in text
    assert text.splitlines()[0] == "WorkloadReport — unit"
    assert "match-list cache" not in text


def test_render_reports_plan_cache_hits_and_size(report):
    assert "plan cache" not in report.render()
    report.extras.update(plan_cache_hits=12, plan_cache_size=5)
    assert "plan cache              12 hits, 5 plans" in report.render()


def test_render_reports_merged_relaxation_lists(report):
    assert "merged relaxation lists" not in report.render()
    report.extras.update(
        merged_list_hits=7, merged_list_misses=2, merged_list_size=2
    )
    assert "merged relaxation lists 7 hits / 2 misses (2 held)" in report.render()
    assert report.as_dict()["merged_list_hits"] == 7


def test_render_reports_live_updates_and_refreshed_statistics(report):
    assert "live updates" not in report.render()
    report.extras.update(
        updates_applied=16,
        update_batches=2,
        update_compactions=1,
        graph_version=9,
        update_stats_dropped=5,
        update_stats_kept=120,
        update_lists_patched=6,
        update_lists_dropped=3,
        update_lists_kept=40,
    )
    assert (
        "16 applied in 2 batches, 1 compactions (graph v9); "
        "statistics 5 dropped, 120 kept; lists 6 patched, 3 dropped, 40 kept"
        in report.render()
    )


def test_cache_stats_hit_rate_zero_when_untouched():
    stats = CacheStats(
        hits=0, misses=0, evictions=0, invalidations=0, size=0, capacity=4
    )
    assert stats.hit_rate == 0.0
    assert stats.lookups == 0
