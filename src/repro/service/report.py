"""Workload-level aggregation: latencies, throughput, cache and plan mix.

One :class:`QueryOutcome` per executed query, one :class:`WorkloadReport`
per batch.  The report is what ``python -m repro.experiments workload``
prints and what the throughput benchmark asserts on: nearest-rank latency
percentiles, queries/second over the batch wall clock, the match-list
cache hit rate, and how PLANGEN's decisions distributed over the batch
(exact / partially relaxed / fully relaxed plans).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.service.cache import CacheStats

#: Percentiles the report renders by default.
REPORT_PERCENTILES = (50, 90, 99)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of *values*.

    Nearest-rank keeps every reported latency an actually observed one,
    which is the convention serving systems use for tail latencies.
    """
    if not values:
        raise ExperimentError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ExperimentError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))  # ceil without math import
    return ordered[int(rank) - 1]


@dataclass(frozen=True)
class QueryOutcome:
    """What one query run contributed to the batch."""

    query_name: str
    k: int
    n_patterns: int
    seconds: float
    n_answers: int
    n_relaxed: int
    plan: str
    top_score: float = 0.0
    #: Which pipeline served this query: ``"tuple"``, ``"block"``, or
    #: ``"cached"`` when the whole-answer result cache answered it
    #: without executing anything.  Empty for reports predating the
    #: field (it never affects equality-of-answers comparisons).
    executor: str = ""

    @property
    def plan_kind(self) -> str:
        """``exact`` (nothing relaxed), ``partial``, or ``all-relaxed``."""
        if self.n_relaxed == 0:
            return "exact"
        if self.n_relaxed >= self.n_patterns:
            return "all-relaxed"
        return "partial"


@dataclass(frozen=True)
class WorkloadReport:
    """Aggregates a batch run; everything derived is a property.

    ``wall_seconds`` is the end-to-end batch time (including planning and
    any pool scheduling), which with ``n_workers > 1`` is less than the
    sum of per-query latencies — that is the point of the pool.
    """

    outcomes: tuple[QueryOutcome, ...]
    wall_seconds: float
    n_workers: int = 1
    cache: CacheStats | None = None
    warmup_seconds: float = 0.0
    dataset: str = ""
    extras: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise ExperimentError("a WorkloadReport needs at least one outcome")

    # ------------------------------------------------------------------
    @property
    def n_queries(self) -> int:
        return len(self.outcomes)

    @property
    def latencies(self) -> list[float]:
        return [outcome.seconds for outcome in self.outcomes]

    @property
    def mean_latency(self) -> float:
        return sum(self.latencies) / self.n_queries

    @property
    def max_latency(self) -> float:
        return max(self.latencies)

    def latency_percentile(self, q: float) -> float:
        return percentile(self.latencies, q)

    @property
    def queries_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return float("inf")
        return self.n_queries / self.wall_seconds

    @property
    def plan_mix(self) -> dict[str, int]:
        """How PLANGEN's decisions distributed over the batch."""
        mix = {"exact": 0, "partial": 0, "all-relaxed": 0}
        for outcome in self.outcomes:
            mix[outcome.plan_kind] += 1
        return mix

    @property
    def mean_relaxed(self) -> float:
        return sum(o.n_relaxed for o in self.outcomes) / self.n_queries

    @property
    def total_answers(self) -> int:
        return sum(o.n_answers for o in self.outcomes)

    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, object]:
        """A flat, JSON-ready summary (used by tests and exporters)."""
        summary: dict[str, object] = {
            "dataset": self.dataset,
            "n_queries": self.n_queries,
            "n_workers": self.n_workers,
            "wall_seconds": self.wall_seconds,
            "warmup_seconds": self.warmup_seconds,
            "queries_per_second": self.queries_per_second,
            "mean_latency": self.mean_latency,
            "max_latency": self.max_latency,
            "plan_mix": self.plan_mix,
            "mean_relaxed": self.mean_relaxed,
            "total_answers": self.total_answers,
        }
        for q in REPORT_PERCENTILES:
            summary[f"p{q}_latency"] = self.latency_percentile(q)
        if self.cache is not None:
            summary["cache"] = self.cache.as_dict()
        summary.update(self.extras)
        return summary

    def render(self) -> str:
        """A human-readable block, the CLI's output."""
        width = 23
        lines = [
            f"WorkloadReport — {self.dataset or 'workload'} "
            f"[{self.n_workers} worker"
            f"{'s' if self.n_workers != 1 else ''}]",
            "-" * 60,
            f"{'queries':<{width}} {self.n_queries}",
            f"{'wall time':<{width}} {self.wall_seconds:.3f} s"
            + (
                f"  (+{self.warmup_seconds:.3f} s warm-up)"
                if self.warmup_seconds
                else ""
            ),
            f"{'throughput':<{width}} {self.queries_per_second:.1f} queries/s",
            f"{'latency mean / max':<{width}} "
            f"{self.mean_latency * 1e3:.2f} / {self.max_latency * 1e3:.2f} ms",
        ]
        percentiles = " / ".join(
            f"{self.latency_percentile(q) * 1e3:.2f}" for q in REPORT_PERCENTILES
        )
        labels = " / ".join(f"p{q}" for q in REPORT_PERCENTILES)
        lines.append(f"{'latency ' + labels:<{width}} {percentiles} ms")
        mix = self.plan_mix
        lines.append(
            f"{'plan mix':<{width}} "
            f"exact={mix['exact']} partial={mix['partial']} "
            f"all-relaxed={mix['all-relaxed']} "
            f"(mean relaxed {self.mean_relaxed:.2f})"
        )
        lines.append(f"{'answers':<{width}} {self.total_answers}")
        if self.cache is not None:
            lines.append(
                f"{'match-list cache':<{width}} "
                f"{self.cache.hits} hits / {self.cache.misses} misses "
                f"(hit rate {self.cache.hit_rate:.1%}, "
                f"size {self.cache.size}/{self.cache.capacity}, "
                f"evictions {self.cache.evictions})"
            )
        if "plan_cache_hits" in self.extras:
            lines.append(
                f"{'plan cache':<{width}} "
                f"{self.extras['plan_cache_hits']} hits, "
                f"{self.extras['plan_cache_size']} plans"
            )
        if "result_cache_hits" in self.extras:
            lines.append(
                f"{'result cache':<{width}} "
                f"{self.extras['result_cache_hits']} hits / "
                f"{self.extras['result_cache_misses']} misses "
                f"({self.extras['result_cache_size']} answers cached)"
            )
        if "merged_list_hits" in self.extras:
            lines.append(
                f"{'merged relaxation lists':<{width}} "
                f"{self.extras['merged_list_hits']} hits / "
                f"{self.extras['merged_list_misses']} misses "
                f"({self.extras['merged_list_size']} held)"
            )
        if "updates_applied" in self.extras:
            lines.append(
                f"{'live updates':<{width}} "
                f"{self.extras['updates_applied']} applied in "
                f"{self.extras['update_batches']} batches, "
                f"{self.extras['update_compactions']} compactions "
                f"(graph v{self.extras['graph_version']}); statistics "
                f"{self.extras['update_stats_dropped']} dropped, "
                f"{self.extras['update_stats_kept']} kept; lists "
                f"{self.extras['update_lists_patched']} patched, "
                f"{self.extras['update_lists_dropped']} dropped, "
                f"{self.extras['update_lists_kept']} kept"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkloadReport(n_queries={self.n_queries}, "
            f"qps={self.queries_per_second:.1f})"
        )
