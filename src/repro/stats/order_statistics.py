"""Order-statistics approximations (§3.1).

For i.i.d. samples ``X_1..X_m`` with cdf ``F``, the expected value of the
``i``-th order statistic (ascending) is approximately ``F⁻¹(i / (m+1))``
(David & Nagaraja).  The planner asks two questions:

* *expected score at rank k from the top* of a query with ``n`` answers —
  the ascending index is ``n - k + 1``, so ``E ≈ F⁻¹((n - k + 1)/(n + 1))``;
* *expected top score* — rank 1 from the top, ``E ≈ F⁻¹(n/(n + 1))``.

When the sample is smaller than the requested rank (``n < k``), there is
no k-th answer at all; we return 0.0, which makes PLANGEN treat the
original query as unable to fill the top-k (so relaxations are kept) —
exactly the regime the paper's Twitter dataset exercises.
"""

from __future__ import annotations

from typing import Protocol

from repro.errors import EstimationError


class Distribution(Protocol):
    """Anything with an ``inverse_cdf`` over a normalised [0,1] mass."""

    def inverse_cdf(self, p: float) -> float:  # pragma: no cover - protocol
        ...


def expected_order_statistic(distribution: Distribution, i: int, m: int) -> float:
    """``E[X_(i)] ≈ F⁻¹(i/(m+1))`` for the i-th *ascending* order statistic
    of a sample of size ``m``."""
    if m <= 0:
        return 0.0
    if not 1 <= i <= m:
        raise EstimationError(f"order statistic index {i} outside 1..{m}")
    return float(distribution.inverse_cdf(i / (m + 1)))


def expected_score_at_rank(distribution: Distribution, rank: int, n: int) -> float:
    """Expected score of the answer at *rank* (1 = best) among ``n`` answers.

    Returns 0.0 when ``n < rank`` (no such answer exists).
    """
    if rank < 1:
        raise EstimationError(f"rank must be >= 1, got {rank}")
    if n < rank:
        return 0.0
    return expected_order_statistic(distribution, n - rank + 1, n)


def expected_kth_score(distribution: Distribution, k: int, n: int) -> float:
    """Expected k-th best score among ``n`` answers — ``E_Q(k)`` in §3.2.1."""
    return expected_score_at_rank(distribution, k, n)
