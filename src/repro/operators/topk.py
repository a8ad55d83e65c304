"""Top-k sink with duplicate elimination and canonical tie resolution.

Collects the top ``k`` *distinct* answers from a sorted stream.  Because
upstream operators emit in non-increasing score order and an answer's
identity is its variable bindings, keeping the first occurrence of each
binding realises ``S(A) = max over relaxations`` (Definition 8) while a
plain counter realises the top-k cut-off.

Tie resolution is *canonical*: operators only guarantee non-increasing
scores, so the order among equal-scored answers — and which of several
equal-scored answers straddling the ``k`` boundary survive the cut — is
otherwise an artifact of pull scheduling.  The sink therefore keeps
draining while incoming scores still equal the k-th distinct score, then
orders everything it collected by ``(-score, bindings)`` and cuts to
``k``.  The result is a pure function of the answer multiset, which is
what lets two executors with entirely different internals (the
tuple-at-a-time operators and the whole-list vectorized engine, see
:mod:`repro.operators.block`) return byte-identical answer sequences.

The extra work is bounded by the boundary tie run.  On real scored data
ties are rare and the sink still stops after ~k pulls; the degenerate
worst case — every answer sharing one score, e.g. a constant-score
pattern — drains the whole stream before cutting.  That is the price of
determinism, and it is paid identically by both executors.
"""

from __future__ import annotations

from repro.errors import ExecutionError
from repro.operators.base import Operator
from repro.query.answer import Answer, PartialAnswer


def finalize_canonical(results: list[Answer], k: int) -> list[Answer]:
    """Order *results* by ``(-score, bindings)`` and cut to *k*.

    Callers must have collected every distinct answer whose score is at
    least the k-th distinct score (boundary ties included); the sort key
    is a total order because answer identities are distinct after dedup.
    """
    results.sort(key=lambda answer: (-answer.score, answer.bindings))
    return results[:k]


class TopK:
    """Drain an operator into the top-k distinct answers.

    Not an :class:`Operator` itself — it is the plan root that materialises
    the result list the user sees.
    """

    def __init__(self, source: Operator, k: int, projection: tuple[str, ...] | None = None) -> None:
        if k < 1:
            raise ExecutionError(f"k must be >= 1, got {k}")
        self._source = source
        self._k = k
        self._projection = projection

    def run(self) -> list[Answer]:
        """Pull until k distinct answers (plus boundary ties) are collected.

        Distinctness is evaluated on the *projected* bindings when a
        projection is given — two full bindings that agree on the
        projection are the same answer to the user, and the higher-scored
        one arrives first.  After the k-th distinct answer, pulling
        continues while scores still equal the boundary score so the
        canonical cut sees the full tie run.
        """
        results: list[Answer] = []
        seen: set[tuple[tuple[str, str], ...]] = set()
        last_score = float("inf")
        while True:
            item = self._source.next()
            if item is None:
                break
            answer = item.to_answer(self._projection)
            if answer.score > last_score + 1e-9:
                raise ExecutionError(
                    "operator emitted answers out of score order: "
                    f"{answer.score:.6f} after {last_score:.6f}"
                )
            last_score = answer.score
            if len(results) >= self._k and answer.score < results[self._k - 1].score:
                break
            if answer.bindings in seen:
                continue
            seen.add(answer.bindings)
            results.append(answer)
        return finalize_canonical(results, self._k)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TopK(k={self._k})"
