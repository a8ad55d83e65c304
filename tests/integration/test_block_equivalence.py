"""Equivalence suite: block executor × backends × live updates.

The acceptance bar for the vectorized engine: for every backend the
block path runs on — in-memory columns, columns attached from a
``.kg2``, and live overlays over each, before and after compaction —
the block pipeline returns byte-identical ``(bindings, score)``
sequences to the oracle's evaluation of the same plan
(:meth:`NaiveEngine.evaluate <repro.baselines.naive.NaiveEngine.evaluate>`),
on a real generated workload with mined rules.

The scenario-matrix section below makes the same claim on generated
coverage traffic: the adversarial packs (boundary-tie runs straddling
k, k > result-count, empty match lists, unselective joins) run in the
default suite across block/auto × object/columnar, and
the full every-pack sweep — including each pack's update stream — runs
under the ``slow_scenario`` marker (``make scenarios``).
"""

from __future__ import annotations

import functools

import pytest

from repro.baselines.naive import NaiveEngine
from repro.core.engine import SpecQPEngine
from repro.datasets.scenarios import build_scenario, scenario_names
from repro.datasets.workload import Workload
from repro.errors import ExperimentError
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.storage import load_snapshot_v2, save_snapshot_v2
from repro.service import WorkloadRunner

BASE_KINDS = ("columnar", "kg2")


def answer_rows(answers):
    return [(answer.bindings, answer.score) for answer in answers]


def served_and_expected(engine, query, k):
    """*engine*'s answers to *query* and the oracle's to the same plan."""
    result = engine.query(query, k=k)
    oracle = NaiveEngine(engine.graph, engine.rules)
    expected = oracle.evaluate(
        result.plan, k, engine.config.max_relaxations_per_pattern
    )
    return answer_rows(result.answers), answer_rows(expected)


@pytest.fixture(scope="module")
def store_graph(tiny_xkg_workload):
    return ColumnarGraph.from_graph(tiny_xkg_workload.graph)


@pytest.fixture(scope="module")
def kg2_path(store_graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("block-eq") / "eq.kg2"
    save_snapshot_v2(store_graph, path)
    return path


def _base(kind, store_graph, kg2_path):
    """A fresh static base of one kind over the same triples."""
    if kind == "kg2":
        return load_snapshot_v2(kg2_path, name="eq", mmap=True)
    return ColumnarGraph(store_graph.store, name="eq")


def _updates(graph):
    """A small mutation batch touching existing and fresh terms."""
    sample = [t for _, t in zip(range(12), graph.triples())]
    updates = [GraphUpdate.remove(*t.spo) for t in sample[:6]]
    updates += [
        GraphUpdate.add(t.subject, t.predicate, t.object, t.score + 5.0)
        for t in sample[6:]
    ]
    updates += [
        GraphUpdate.add(f"fresh-{i}", "rdf:type", sample[0].object, 40.0 + i)
        for i in range(4)
    ]
    return updates


@pytest.mark.parametrize("base_kind", BASE_KINDS)
def test_block_equals_oracle_on_static_backends(
    tiny_xkg_workload, store_graph, kg2_path, base_kind
):
    graph = _base(base_kind, store_graph, kg2_path)
    block_engine = SpecQPEngine(graph, tiny_xkg_workload.rules)
    for query in tiny_xkg_workload.queries:
        for k in (3, 10):
            actual, expected = served_and_expected(block_engine, query, k)
            assert actual == expected, (query.name, k, base_kind)


@pytest.mark.parametrize("base_kind", BASE_KINDS)
@pytest.mark.parametrize("stage", ["pre-compaction", "post-compaction"])
def test_block_equals_oracle_on_live_overlays(
    tiny_xkg_workload, store_graph, kg2_path, base_kind, stage
):
    live = LiveGraph(_base(base_kind, store_graph, kg2_path))
    live.apply_updates(_updates(store_graph))
    if stage == "post-compaction":
        live.compact()
    block_engine = SpecQPEngine(live, tiny_xkg_workload.rules)
    for query in tiny_xkg_workload.queries[:6]:
        actual, expected = served_and_expected(block_engine, query, 10)
        assert actual == expected, (query.name, base_kind, stage)


# ----------------------------------------------------------------------
# Scenario matrix
# ----------------------------------------------------------------------
ADVERSARIAL_PACKS = (
    "adversarial-ties",
    "adversarial-edge-k",
    "adversarial-unselective",
)
EXECUTORS = ("block", "auto")


@functools.lru_cache(maxsize=None)
def _scenario_pack(name):
    return build_scenario(name)


def _scenario_backends(pack):
    """The backend families for one pack: the object graph the generator
    built and its columnar conversion."""
    return {
        "object": pack.workload.graph,
        "columnar": ColumnarGraph.from_graph(pack.workload.graph),
    }


def _scenario_rows(pack, graph, executor):
    """*executor*'s answers to every query of *pack* over *graph*, each
    checked against the oracle's evaluation of its plan."""
    engine = SpecQPEngine(graph, pack.workload.rules, executor=executor)
    rows = []
    for query in pack.workload.queries:
        actual, expected = served_and_expected(engine, query, pack.k)
        assert actual == expected, (pack.name, query.name, executor)
        rows.append(actual)
    return rows


@pytest.mark.parametrize("name", ADVERSARIAL_PACKS)
def test_adversarial_packs_identical_across_executors_and_backends(name):
    """Tier-1: the shapes executor divergence would first show on —
    boundary ties at the k cut, starved k, empty lists, open joins —
    must agree byte-identically everywhere."""
    pack = _scenario_pack(name)
    backends = _scenario_backends(pack)
    reference = _scenario_rows(pack, backends["columnar"], "block")
    for backend_name, graph in backends.items():
        for executor in EXECUTORS:
            rows = _scenario_rows(pack, graph, executor)
            assert rows == reference, (name, backend_name, executor)


@pytest.mark.slow_scenario
@pytest.mark.parametrize("name", scenario_names())
def test_every_pack_identical_across_executors_and_backends(name):
    """The full sweep `make scenarios` runs: every shipped pack across
    every backend family and executor, plus — for update-carrying packs
    — the same matrix again on a live overlay pre and post compaction."""
    pack = _scenario_pack(name)
    backends = _scenario_backends(pack)
    reference = _scenario_rows(pack, backends["columnar"], "block")
    for backend_name, graph in backends.items():
        for executor in EXECUTORS:
            rows = _scenario_rows(pack, graph, executor)
            assert rows == reference, (name, backend_name, executor)

    if not pack.updates:
        return
    for stage in ("pre-compaction", "post-compaction"):
        live = LiveGraph(backends["columnar"])
        live.apply_updates(pack.updates)
        if stage == "post-compaction":
            live.compact()
        expected = _scenario_rows(pack, live, "block")
        assert expected != reference, f"{name}: update stream changed no answer"
        assert _scenario_rows(pack, live, "auto") == expected, (name, stage)


def oracle_answers(runner, workload, queries, k=10):
    """The oracle's answers to PLANGEN's plan of each query over the
    runner's graph at its current version."""
    planner = SpecQPEngine(runner.graph, workload.rules, runner.config)
    oracle = NaiveEngine(runner.graph, workload.rules)
    cap = runner.config.max_relaxations_per_pattern
    return [oracle.evaluate(planner.plan(query, k).plan, k, cap) for query in queries]


class TestWorkloadRunnerExecutor:
    def test_unknown_executor_rejected(self, tiny_xkg_workload):
        with pytest.raises(ExperimentError):
            WorkloadRunner(tiny_xkg_workload, executor="simd")

    def test_reports_identical_across_executors(self, tiny_xkg_workload, store_graph):
        workload = Workload(
            "block-eq",
            ColumnarGraph(store_graph.store, name="eq"),
            tiny_xkg_workload.rules,
            tiny_xkg_workload.queries,
        )
        queries = workload.stretched(30)
        runner = WorkloadRunner(workload)
        block_report = runner.run(queries, k=10)
        expected = oracle_answers(runner, workload, queries)
        assert {o.executor for o in block_report.outcomes} <= {"block", "cached"}
        assert [o.n_answers for o in block_report.outcomes] == [
            len(answers) for answers in expected
        ]
        assert [o.top_score for o in block_report.outcomes] == [
            answers[0].score if answers else 0.0 for answers in expected
        ]

    def test_apply_updates_then_block_serving_stays_equivalent(
        self, tiny_xkg_workload, store_graph
    ):
        workload = Workload(
            "block-live",
            ColumnarGraph(store_graph.store, name="eq"),
            tiny_xkg_workload.rules,
            tiny_xkg_workload.queries,
        )
        queries = workload.queries[:6]
        runner = WorkloadRunner(workload)
        runner.apply_updates(_updates(store_graph))
        block_report = runner.run(queries, k=10)
        expected = oracle_answers(runner, workload, queries)
        assert [o.top_score for o in block_report.outcomes] == [
            answers[0].score if answers else 0.0 for answers in expected
        ]
        assert [o.n_answers for o in block_report.outcomes] == [
            len(answers) for answers in expected
        ]
        for query, answers in zip(queries, expected):
            served = runner.execute_query(query, 10)
            assert answer_rows(served) == answer_rows(answers), query.name
