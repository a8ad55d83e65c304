"""One differential harness: every served answer against the oracle.

:meth:`NaiveEngine.evaluate <repro.baselines.naive.NaiveEngine.evaluate>`
computes a plan's top-k answers in plain Python, sharing no list, merge,
join or cut code with either pipeline.  A cell of the matrix serves an
input's queries at each of its ks and compares every answer, bindings and
score bits, with the oracle's answers to the plan that was served:

* an **input** (:class:`Case`): a graph, its rules, queries, ks and an
  update stream;
* a **backend** (:data:`BACKENDS`): object, columnar, or columns attached
  from a ``.kg2`` snapshot over ``mmap``;
* a **state** (:data:`STATES`): ``static``; ``live``, checked before the
  first write and after each batch of the stream; or ``compacted``,
  checked once the stream has landed and the delta was folded into a
  fresh base.  A state changes only by those transitions, and the oracle
  of a changed state reads a graph rebuilt from the replayed triple set,
  never the served graph.  Unless an input says otherwise, its stream
  must change some answer, or the changed states would check nothing
  the static one does not;
* a **serving** surface (:data:`SERVINGS`) under an executor
  (:data:`EXECUTORS`).

Test modules in different directories share no package, so the harness
lives here, beside ``conftest.py``, whose directory pytest puts on the
import path.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.baselines.naive import NaiveEngine
from repro.core.engine import SpecQPEngine
from repro.datasets.workload import Workload
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import Variable
from repro.kg.storage import load_snapshot_v2, save_snapshot_v2
from repro.kg.triple import Triple
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RuleSet
from repro.service import WorkloadRunner
from repro.service.cache import DEFAULT_CAPACITY


def answer_rows(answers) -> list[tuple]:
    return [(answer.bindings, answer.score) for answer in answers]


def aimed_updates(graph: KnowledgeGraph, queries) -> tuple[GraphUpdate, ...]:
    """Writes aimed at what the first six queries read: per query, its
    first pattern's best match removed, its second re-scored and a fresh
    match added above both."""
    updates: list[GraphUpdate] = []
    for index, query in enumerate(queries[:6]):
        pattern = query.patterns[0]
        best = sorted(graph.match(pattern), key=lambda t: (-t.score, t.spo))[:2]
        updates += [GraphUpdate.remove(*t.spo) for t in best[:1]]
        updates += [GraphUpdate.add(*t.spo, t.score / 2 + 1.0) for t in best[1:]]
        fresh = [
            f"fresh{index}-{term.name}" if isinstance(term, Variable) else term
            for term in pattern.terms
        ]
        top = best[0].score if best else 1.0
        updates.append(GraphUpdate.add(*fresh, top + 1.0))
    return tuple(updates)


def replayed(graph: KnowledgeGraph, updates) -> KnowledgeGraph:
    """The triple set after *updates*, built from scratch."""
    scores = {t.spo: t.score for t in graph.triples()}
    for update in updates:
        if update.op == "+":
            scores[update.spo] = update.score
        else:
            scores.pop(update.spo, None)
    return KnowledgeGraph(
        (Triple(*spo, score) for spo, score in scores.items()), name="replayed"
    )


class Oracle:
    """:meth:`NaiveEngine.evaluate` over one graph state, memoised by plan
    and k: every cell of an input shares the oracle of each state."""

    def __init__(self, graph: KnowledgeGraph, rules: RuleSet) -> None:
        self.graph = graph
        self.naive = NaiveEngine(graph, rules)
        self._rows: dict[tuple, list[tuple]] = {}
        self._planner: SpecQPEngine | None = None

    def rows(self, plan, k: int, cap: int | None) -> list[tuple]:
        key = (plan.query.patterns, plan.query.projection, plan.join_group,
               plan.singletons, k, cap)
        if key not in self._rows:
            self._rows[key] = answer_rows(self.naive.evaluate(plan, k, cap))
        return self._rows[key]

    def planned_rows(self, query, k: int) -> list[tuple]:
        """The rows of PLANGEN's plan for *query* over this state."""
        if self._planner is None:
            self._planner = SpecQPEngine(self.graph, self.naive.rules)
        plan = self._planner.plan(query, k).plan
        return self.rows(plan, k, self._planner.config.max_relaxations_per_pattern)


@dataclass
class Case:
    """One input: its graph is never served itself, only copied into a
    backend.  Without an update stream, :func:`aimed_updates` makes one."""

    name: str
    graph: KnowledgeGraph
    rules: RuleSet
    queries: tuple[TriplePatternQuery, ...]
    ks: tuple[int, ...]
    updates: tuple[GraphUpdate, ...] = ()
    #: Entry bound of a runner's list store.
    cache_capacity: int = DEFAULT_CAPACITY
    #: Writes per transition; 0 splits the stream into two halves.
    batch_size: int = 0
    #: Whether the stream must change some answer (a drawn one may not).
    stream_changes: bool = True
    _oracles: dict[int, Oracle] = field(default_factory=dict, repr=False)
    _changed: bool | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.queries = tuple(self.queries)
        self.updates = tuple(self.updates) or aimed_updates(self.graph, self.queries)

    def batches(self) -> list[tuple[GraphUpdate, ...]]:
        """The update stream as transitions of :attr:`batch_size` writes."""
        size = self.batch_size or max(1, (len(self.updates) + 1) // 2)
        return [self.updates[i:i + size] for i in range(0, len(self.updates), size)]

    def oracle(self, landed: int = 0) -> Oracle:
        """The oracle once the stream's first *landed* writes landed."""
        if landed not in self._oracles:
            graph = replayed(self.graph, self.updates[:landed]) if landed else self.graph
            self._oracles[landed] = Oracle(graph, self.rules)
        return self._oracles[landed]

    def changed_by_stream(self) -> bool:
        """Whether the whole stream changes the oracle's rows for PLANGEN's
        plan of some query at some k."""
        if self._changed is None:
            before, after = self.oracle(), self.oracle(len(self.updates))
            self._changed = any(
                before.planned_rows(query, k) != after.planned_rows(query, k)
                for query in self.queries for k in self.ks
            )
        return self._changed


def _attached(graph: KnowledgeGraph) -> ColumnarGraph:
    """*graph* saved as a ``.kg2`` and attached back over memory-mapped
    columns (the mapping outlives the unlinked file)."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "base.kg2"
        save_snapshot_v2(graph, path)
        return load_snapshot_v2(path, mmap=True)


BACKENDS = {
    "object": lambda graph: KnowledgeGraph(graph.triples(), name=graph.name),
    "columnar": ColumnarGraph.from_graph,
    "kg2": _attached,
}

STATES = ("static", "live", "compacted")


class EngineServing:
    """``engine.query`` under PLANGEN's, TriniT's and the exact plan (the
    tuple pipeline under the first two only).

    The engine is built before the first write and writes go straight to
    its graph: an object graph takes them in place, other backends through
    a :class:`LiveGraph` overlay (a compacted state overlays every
    backend)."""

    RUNS = ("query", "query_trinit", "query_exact")

    def __init__(self, case: Case, base, backend: str, state: str, executor: str):
        if state == "compacted" or (state == "live" and backend != "object"):
            base = LiveGraph(base)
        self.graph = base
        self.engine = SpecQPEngine(base, case.rules, executor=executor)
        self.runs = self.RUNS if executor == "block" else self.RUNS[:2]

    def write(self, index: int, batch, compact: bool) -> None:
        if isinstance(self.graph, LiveGraph):
            self.graph.apply_updates(batch)
            if compact:
                self.graph.compact()
            return
        for update in batch:
            if update.op == "+":
                self.graph.add(*update.spo, score=update.score)
            else:
                self.graph.remove(*update.spo)

    def check(self, case: Case, oracle: Oracle, where: tuple) -> None:
        cap = self.engine.config.max_relaxations_per_pattern
        for query in case.queries:
            for k in case.ks:
                for run in self.runs:
                    result = getattr(self.engine, run)(query, k=k)
                    assert answer_rows(result.answers) == oracle.rows(
                        result.plan, k, cap
                    ), (*where, query.name, k, run)
        if type(self.graph) is KnowledgeGraph and self.engine.executor_kind == "block":
            # An object graph re-interns its triples after every write:
            # the block pipeline must read them through its current store.
            codec = self.engine.executor.encoded_store.codec(self.graph)
            assert codec.store is self.graph.column_store(), where


class RunnerServing:
    """``runner.execute_query``, result cache off (``runner``) or on
    (``runner-cached``: every query is asked twice, the second ask a
    cache hit).  Even batches go through ``runner.apply_updates``, odd ones
    straight to the runner's live graph, as a writer outside the runner:
    cached answers must not survive either."""

    result_cache_capacity = 0

    def __init__(self, case: Case, base, backend: str, state: str, executor: str):
        assert executor == "block", executor
        self.runner = WorkloadRunner(
            Workload(case.name, base, case.rules, list(case.queries)),
            cache_capacity=case.cache_capacity,
            result_cache_capacity=self.result_cache_capacity,
        )

    def write(self, index: int, batch, compact: bool) -> None:
        if index % 2 and not compact:
            self.runner.graph.apply_updates(batch)
        else:
            self.runner.apply_updates(batch, compact=compact)

    def planner(self, case: Case) -> SpecQPEngine:
        """A fresh planner over the runner's graph: it plans what the
        runner serves."""
        return SpecQPEngine(self.runner.graph, case.rules, self.runner.config)

    def check(self, case: Case, oracle: Oracle, where: tuple) -> None:
        cap = self.runner.config.max_relaxations_per_pattern
        cache = self.runner.result_cache
        hits = cache.stats().hits if cache is not None else 0
        planner = self.planner(case)
        for query in case.queries:
            for k in case.ks:
                expected = oracle.rows(planner.plan(query, k).plan, k, cap)
                for ask in range(1 if cache is None else 2):
                    served = answer_rows(self.runner.execute_query(query, k))
                    assert served == expected, (*where, query.name, k, ask)
        if cache is not None:
            asked = len(case.queries) * len(case.ks)
            assert cache.stats().hits - hits >= asked, where


class CachedRunnerServing(RunnerServing):
    result_cache_capacity = 4096


class ReportServing(CachedRunnerServing):
    """``runner.run``'s report rows, twice per k (the second run served
    by the result cache): ``n_answers``, ``top_score`` and ``plan``."""

    def check(self, case: Case, oracle: Oracle, where: tuple) -> None:
        cap = self.runner.config.max_relaxations_per_pattern
        planner = self.planner(case)
        for k in case.ks:
            plans = [planner.plan(query, k).plan for query in case.queries]
            expected = []
            for plan in plans:
                rows = oracle.rows(plan, k, cap)
                top = rows[0][1] if rows else 0.0
                expected.append((len(rows), top, plan.describe()))
            for ask in range(2):
                report = self.runner.run(case.queries, k=k)
                assert [
                    (o.n_answers, o.top_score, o.plan) for o in report.outcomes
                ] == expected, (*where, k, ask)
                assert {o.executor for o in report.outcomes} <= {"block", "cached"}


SERVINGS = {
    "engine": EngineServing,
    "runner": RunnerServing,
    "runner-cached": CachedRunnerServing,
    "report": ReportServing,
}

#: The executor axis, as the backends and servings each executor serves:
#: block all of them; the tuple pipeline only ``engine.query`` on the
#: object backend, enough to prove the oracle against both pipelines.
EXECUTORS = {
    "block": (tuple(BACKENDS), tuple(SERVINGS)),
    "tuple": (("object",), ("engine",)),
}


@dataclass(frozen=True)
class Cell:
    """One cell of the matrix, named by its coordinates."""

    input: str
    backend: str
    state: str
    serving: str
    executor: str = "block"

    def __str__(self) -> str:
        parts = [self.input, self.backend, self.state, self.serving]
        return "-".join(parts + ([self.executor] if self.executor != "block" else []))


def cells(inputs) -> Iterator[Cell]:
    """The product of *inputs*, the backends, the states and the
    servings, each under every executor that serves its backend."""
    for name in inputs:
        for backend in BACKENDS:
            for state in STATES:
                for executor, (backends, servings) in EXECUTORS.items():
                    if backend in backends:
                        for serving in servings:
                            yield Cell(name, backend, state, serving, executor)


def run_cell(case: Case, cell: Cell) -> None:
    """Serve *case* in *cell*'s backend, state and serving, and check
    every answer against the oracle at each checkpoint."""
    surface = SERVINGS[cell.serving](
        case, BACKENDS[cell.backend](case.graph), cell.backend, cell.state,
        cell.executor,
    )
    where = (str(cell),)
    if cell.state != "compacted":
        surface.check(case, case.oracle(), (*where, "initial"))
    if cell.state == "static":
        return
    batches = case.batches()
    landed = 0
    for index, batch in enumerate(batches):
        last = index == len(batches) - 1
        surface.write(index, batch, compact=cell.state == "compacted" and last)
        landed += len(batch)
        if cell.state == "live" or last:
            surface.check(case, case.oracle(landed), (*where, f"batch {index}"))
    if case.stream_changes:
        assert case.changed_by_stream(), (*where, "the update stream changed no answer")
