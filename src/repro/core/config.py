"""Engine configuration.

One frozen dataclass collects every knob the planner/executor pair
exposes, with the paper's settings as defaults so a bare
``EngineConfig()`` reproduces the published system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ExperimentError


@dataclass(frozen=True)
class EngineConfig:
    """Configuration for :class:`~repro.core.engine.SpecQPEngine`.

    Attributes
    ----------
    k:
        Number of answers to return (the paper evaluates 10, 15, 20).
    mass_fraction:
        The score-mass fraction defining the histogram bucket boundary
        (the 80/20 rule → 0.8).
    histogram_kind / n_buckets:
        ``"two-bucket"`` is the paper's model; ``"n-bucket"`` enables the
        §4.5.2 multi-bucket ablation with *n_buckets* buckets.
    selectivity_mode:
        ``"exact"`` join cardinalities (footnote 3) or ``"independence"``
        estimates (ablation).
    max_relaxations_per_pattern:
        Cap on how many relaxation lists an Incremental Merge consumes
        (``None`` = all mined rules, the paper's behaviour).
    """

    k: int = 10
    mass_fraction: float = 0.8
    histogram_kind: str = "two-bucket"
    n_buckets: int = 4
    selectivity_mode: str = "exact"
    max_relaxations_per_pattern: int | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ExperimentError(f"k must be >= 1, got {self.k}")
        if not 0.0 < self.mass_fraction < 1.0:
            raise ExperimentError(
                f"mass_fraction must be in (0,1), got {self.mass_fraction}"
            )
        if self.histogram_kind not in ("two-bucket", "n-bucket"):
            raise ExperimentError(
                f"histogram_kind must be 'two-bucket' or 'n-bucket', "
                f"got {self.histogram_kind!r}"
            )
        if self.n_buckets < 2:
            raise ExperimentError(f"n_buckets must be >= 2, got {self.n_buckets}")
        if self.selectivity_mode not in ("exact", "independence"):
            raise ExperimentError(
                f"selectivity_mode must be 'exact' or 'independence', "
                f"got {self.selectivity_mode!r}"
            )
        if (
            self.max_relaxations_per_pattern is not None
            and self.max_relaxations_per_pattern < 1
        ):
            raise ExperimentError(
                "max_relaxations_per_pattern must be >= 1 or None, got "
                f"{self.max_relaxations_per_pattern}"
            )

    def with_k(self, k: int) -> "EngineConfig":
        """A copy with a different *k* (the common sweep axis)."""
        return replace(self, k=k)
