"""A versioned whole-answer top-k result cache (the serving fast path).

Under the paper's exact threshold semantics a top-k answer set is a pure
function of ``(graph state, planning inputs, query, k)``, and served
traffic is dominated by exact repeats.  So the last cache level holds
whole answers: a hit skips planning and execution entirely and costs one
dict lookup.  Coherence is the :class:`~repro.service.cache.VersionedLRU`
discipline every service cache shares; the runner tags each entry with
the graph version captured *before* execution.

Cache-key canonicalization (see :func:`result_key`): two requests share
an entry exactly when they are the same query under the repo's query
set-semantics — same *set* of triple patterns (variable names included:
they name the answer bindings), same *set* of projection variables, same
``k`` — and the same planning inputs (rule set + planner configuration,
folded into an opaque *plan signature* by the runner).  Query names and
pattern order never split the cache; a different ``k``, rule set or
planner config always does.  The cached answers are executor-independent
by the block engine's byte-identity guarantee, so one entry serves the
tuple pipeline, the block pipeline and the cost-based ``"auto"`` mode
alike — the signature deliberately excludes the executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.query.answer import Answer
from repro.query.query import TriplePatternQuery
from repro.service.cache import VersionedLRU

#: Entry bound of the runner's whole-answer cache.  Entries are small
#: (k answers, not match lists), so the default is roomier than the
#: match-list cache's.
DEFAULT_RESULT_CAPACITY = 4096

#: An opaque, hashable digest of everything besides the query and the
#: graph version that determines the answers (rules + planner config).
PlanSignature = Hashable

#: The canonical cache key — see :func:`result_key`.
ResultKey = tuple[frozenset, frozenset, int, PlanSignature]


def result_key(
    query: TriplePatternQuery, k: int, plan_signature: PlanSignature
) -> ResultKey:
    """The canonical cache key for *query* at *k*.

    Patterns and projection collapse to frozensets — exactly the
    equality/hash semantics :class:`~repro.query.query.TriplePatternQuery`
    itself uses, under which answers are equal.  The query's display
    name is irrelevant to its answers and is excluded on purpose.
    """
    return (
        frozenset(query.patterns),
        frozenset(query.projection),
        k,
        plan_signature,
    )


@dataclass(frozen=True)
class CachedResult:
    """One cached top-k answer set plus the outcome metadata a
    :class:`~repro.service.report.QueryOutcome` needs — a hit must be
    able to produce a full report row without replanning."""

    answers: tuple[Answer, ...]
    n_relaxed: int
    plan: str
    executor: str

    @property
    def top_score(self) -> float:
        return self.answers[0].score if self.answers else 0.0


class ResultCache(VersionedLRU[CachedResult]):
    """The whole-answer level: :class:`CachedResult` entries keyed by
    :func:`result_key`, with a roomier default capacity."""

    def __init__(self, capacity: int = DEFAULT_RESULT_CAPACITY) -> None:
        super().__init__(capacity)
