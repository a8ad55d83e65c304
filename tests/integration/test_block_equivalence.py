"""Equivalence suite: block executor × backends × live updates.

The acceptance bar for the vectorized engine: for every backend the
block path runs on — in-memory columns, columns attached from a
``.kg2``, and live overlays over each, before and after compaction —
``executor="block"``
returns byte-identical ``(bindings, score)`` sequences to
``executor="tuple"``, on a real generated workload with mined rules.

The scenario-matrix section below makes the same claim on generated
coverage traffic: the adversarial packs (boundary-tie runs straddling
k, k > result-count, empty match lists, unselective joins) run in the
default suite across tuple/block/auto × object/columnar, and
the full every-pack sweep — including each pack's update stream — runs
under the ``slow_scenario`` marker (``make scenarios``).
"""

from __future__ import annotations

import functools

import pytest

from repro.core.engine import SpecQPEngine
from repro.datasets.scenarios import build_scenario, scenario_names
from repro.datasets.workload import Workload
from repro.errors import ExperimentError
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.storage import load_snapshot_v2, save_snapshot_v2
from repro.service import WorkloadRunner

BASE_KINDS = ("columnar", "kg2")


def answer_rows(result):
    return [(answer.bindings, answer.score) for answer in result.answers]


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
def test_block_equals_tuple_on_static_backends(
    tiny_xkg_workload, store_graph, kg2_path, base_kind
):
    graph = _base(base_kind, store_graph, kg2_path)
    tuple_engine = SpecQPEngine(graph, tiny_xkg_workload.rules, executor="tuple")
    block_engine = SpecQPEngine(graph, tiny_xkg_workload.rules, executor="block")
    query = tiny_xkg_workload.queries[0]
    assert block_engine.resolve_executor(query).executor == "block"
    for query in tiny_xkg_workload.queries:
        for k in (3, 10):
            expected = answer_rows(tuple_engine.query(query, k=k))
            actual = answer_rows(block_engine.query(query, k=k))
            assert actual == expected, (query.name, k, base_kind)


@pytest.mark.parametrize("base_kind", BASE_KINDS)
@pytest.mark.parametrize("stage", ["pre-compaction", "post-compaction"])
def test_block_equals_tuple_on_live_overlays(
    tiny_xkg_workload, store_graph, kg2_path, base_kind, stage
):
    live = LiveGraph(_base(base_kind, store_graph, kg2_path))
    live.apply_updates(_updates(store_graph))
    if stage == "post-compaction":
        live.compact()
    tuple_engine = SpecQPEngine(live, tiny_xkg_workload.rules, executor="tuple")
    block_engine = SpecQPEngine(live, tiny_xkg_workload.rules, executor="block")
    query = tiny_xkg_workload.queries[0]
    assert block_engine.resolve_executor(query).executor == "block"
    for query in tiny_xkg_workload.queries[:6]:
        expected = answer_rows(tuple_engine.query(query, k=10))
        actual = answer_rows(block_engine.query(query, k=10))
        assert actual == expected, (query.name, base_kind, stage)


# ----------------------------------------------------------------------
# Scenario matrix
# ----------------------------------------------------------------------
ADVERSARIAL_PACKS = (
    "adversarial-ties",
    "adversarial-edge-k",
    "adversarial-unselective",
)
EXECUTORS = ("tuple", "block", "auto")


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


def _scenario_rows(pack, graph, executor, queries=None):
    engine = SpecQPEngine(graph, pack.workload.rules, executor=executor)
    return [
        answer_rows(engine.query(query, k=pack.k))
        for query in (queries or pack.workload.queries)
    ]


@pytest.mark.parametrize("name", ADVERSARIAL_PACKS)
def test_adversarial_packs_identical_across_executors_and_backends(name):
    """Tier-1: the shapes executor divergence would first show on —
    boundary ties at the k cut, starved k, empty lists, open joins —
    must agree byte-identically everywhere."""
    pack = _scenario_pack(name)
    backends = _scenario_backends(pack)
    reference = _scenario_rows(pack, backends["columnar"], "tuple")
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
    reference = _scenario_rows(pack, backends["columnar"], "tuple")
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
        expected = _scenario_rows(pack, live, "tuple")
        assert expected != reference, f"{name}: update stream changed no answer"
        for executor in ("block", "auto"):
            rows = _scenario_rows(pack, live, executor)
            assert rows == expected, (name, stage, executor)


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
        tuple_report = WorkloadRunner(workload, executor="tuple").run(queries, k=10)
        block_report = WorkloadRunner(workload, executor="block").run(queries, k=10)
        assert block_report.extras["executor"] == "block"
        assert [o.n_answers for o in block_report.outcomes] == [
            o.n_answers for o in tuple_report.outcomes
        ]
        assert [o.top_score for o in block_report.outcomes] == [
            o.top_score for o in tuple_report.outcomes
        ]

    def test_executor_toggle_never_replays_stale_plans(
        self, tiny_xkg_workload, store_graph
    ):
        """Toggling ``executor=`` on one shared runner rebuilds its worker
        engines and keeps the planner's decisions, which no executor
        changes: after every toggle each answer equals a fresh engine's
        under the new strategy.  The result cache is disabled here — it
        is executor-independent by design, so with it on the toggled
        batches would be served whole and never reach the executors."""
        workload = Workload(
            "block-toggle",
            ColumnarGraph(store_graph.store, name="eq"),
            tiny_xkg_workload.rules,
            tiny_xkg_workload.queries,
        )
        runner = WorkloadRunner(workload, executor="tuple", result_cache_capacity=0)
        queries = workload.queries[:4]
        for kind in ("tuple", "block", "tuple"):
            runner.executor = kind
            assert runner.run(queries, k=5).extras["executor"] == kind
            fresh = SpecQPEngine(workload.graph, workload.rules, executor=kind)
            for query in queries:
                served = runner.execute_query(query, 5)
                expected = answer_rows(fresh.query(query, 5))
                assert [(a.bindings, a.score) for a in served] == expected

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
        tuple_runner = WorkloadRunner(workload, executor="tuple")
        block_runner = WorkloadRunner(workload, executor="block")
        updates = _updates(store_graph)
        tuple_runner.apply_updates(updates)
        block_runner.apply_updates(updates)
        tuple_report = tuple_runner.run(queries, k=10)
        block_report = block_runner.run(queries, k=10)
        assert [o.top_score for o in block_report.outcomes] == [
            o.top_score for o in tuple_report.outcomes
        ]
        assert [o.n_answers for o in block_report.outcomes] == [
            o.n_answers for o in tuple_report.outcomes
        ]
