"""Quality metrics (§4.3): precision/recall, prediction ground truth,
score error.

Precision and recall coincide in the paper's setup (both divide the size
of the intersection of Spec-QP's top-k with the true top-k by k), so one
function serves both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ExperimentError
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern
from repro.query.answer import Answer
from repro.query.query import TriplePatternQuery


def precision_at_k(
    approx: Sequence[Answer], truth: Sequence[Answer]
) -> float:
    """|approx ∩ truth| / |truth| over answer identities (bindings).

    Equals recall in this setting (same denominator).  Empty truth gives
    1.0 when the approximation is also empty, else 0.0.
    """
    truth_keys = {answer.bindings for answer in truth}
    if not truth_keys:
        return 1.0 if not approx else 0.0
    approx_keys = {answer.bindings for answer in approx}
    return len(approx_keys & truth_keys) / len(truth_keys)


@dataclass(frozen=True)
class ScoreError:
    """Average absolute rank-wise score deviation (Table 4).

    ``percent`` normalises the mean error by the query's maximum possible
    answer score (= number of triple patterns, since each normalised
    triple score is at most 1) — the convention behind the percentages in
    the paper's Table 4.
    """

    mean: float
    std: float
    percent: float


def score_error(
    approx: Sequence[Answer],
    truth: Sequence[Answer],
    n_patterns: int,
) -> ScoreError:
    """Rank-wise ``mean |score_approx_i - score_truth_i|`` with std.

    Ranks present in the truth but missing from the approximation count
    the full truth score as error (the approximation returned nothing at
    that rank).
    """
    if n_patterns < 1:
        raise ExperimentError(f"n_patterns must be >= 1, got {n_patterns}")
    if not truth:
        return ScoreError(0.0, 0.0, 0.0)
    deviations: list[float] = []
    for rank, true_answer in enumerate(truth):
        approx_score = approx[rank].score if rank < len(approx) else 0.0
        deviations.append(abs(approx_score - true_answer.score))
    mean = sum(deviations) / len(deviations)
    variance = sum((d - mean) ** 2 for d in deviations) / len(deviations)
    return ScoreError(
        mean=mean,
        std=math.sqrt(variance),
        percent=100.0 * mean / n_patterns,
    )


def required_relaxations(
    graph: KnowledgeGraph,
    query: TriplePatternQuery,
    truth: Sequence[Answer],
) -> frozenset[int]:
    """Ground truth for Table 3: which pattern slots *required* relaxation.

    A slot requires relaxation when at least one true top-k answer's
    bindings do not satisfy the slot's original pattern — i.e. that answer
    could only have been produced through a relaxation of the slot.
    """
    required: set[int] = set()
    for index, pattern in enumerate(query.patterns):
        for answer in truth:
            if not _answer_satisfies(graph, pattern, answer):
                required.add(index)
                break
    return frozenset(required)


def _answer_satisfies(
    graph: KnowledgeGraph, pattern: TriplePattern, answer: Answer
) -> bool:
    """Does *answer* have a KG triple matching the original *pattern*?"""
    bound = pattern.substitute(answer.as_dict())
    if bound.variables:
        # The answer does not bind every variable of the pattern (possible
        # under projection); fall back to counting its matches.
        return graph.count(bound) > 0
    return bound.terms in graph  # type: ignore[comparison-overlap]


def prediction_is_exact(
    predicted: Sequence[int] | frozenset[int], required: frozenset[int]
) -> bool:
    """Table 3's criterion: Spec-QP identified *exactly* the required set."""
    return frozenset(predicted) == required
