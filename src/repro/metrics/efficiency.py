"""Efficiency measurement — the paper's timing protocol (§4.4).

"To have a warm cache, we conducted 5 consecutive runs for each query and
considered the average of the last 3 runs for each technique."
:class:`TimingProtocol` encapsulates that: call an engine function
``n_runs`` times, average the timings of the last ``n_keep`` runs, and
keep the final run's result object (answers and memory counts are
deterministic across runs, so any run's result is representative).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from repro.errors import ExperimentError

R = TypeVar("R")


@dataclass(frozen=True)
class TimedOutcome:
    """The averaged timing plus the last run's result object."""

    result: object
    mean_seconds: float
    all_seconds: tuple[float, ...]


@dataclass(frozen=True)
class TimingProtocol:
    """Run-and-average harness mirroring §4.4.

    ``n_runs=5, n_keep=3`` is the paper's protocol; tests use smaller
    values to stay fast.
    """

    n_runs: int = 5
    n_keep: int = 3

    def __post_init__(self) -> None:
        if self.n_runs < 1:
            raise ExperimentError(f"n_runs must be >= 1, got {self.n_runs}")
        if not 1 <= self.n_keep <= self.n_runs:
            raise ExperimentError(
                f"n_keep must be in 1..{self.n_runs}, got {self.n_keep}"
            )

    def measure(
        self,
        run: Callable[[], R],
        seconds_of: Callable[[R], float],
    ) -> TimedOutcome:
        """Execute *run* ``n_runs`` times; average the last ``n_keep``
        values of ``seconds_of(result)``."""
        return self.measure_alternating((run,), seconds_of)[0]

    def measure_alternating(
        self,
        runs: Sequence[Callable[[], R]],
        seconds_of: Callable[[R], float],
    ) -> tuple[TimedOutcome, ...]:
        """:meth:`measure` each of *runs*, taking turns run by run, so
        that drift in the machine's speed reaches every one alike.  The
        garbage collector is paused meanwhile, as :mod:`timeit` pauses
        it: one full collection costs more than a whole run."""
        results: list[list[R]] = [[] for _ in runs]
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(self.n_runs):
                for run, done in zip(runs, results):
                    done.append(run())
        finally:
            if collecting:
                gc.enable()
        outcomes = []
        for done in results:
            timings = tuple(seconds_of(result) for result in done)
            kept = timings[-self.n_keep:]
            outcomes.append(
                TimedOutcome(
                    result=done[-1],
                    mean_seconds=sum(kept) / len(kept),
                    all_seconds=timings,
                )
            )
        return tuple(outcomes)
