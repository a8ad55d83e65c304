"""Mmap-backend equivalence: the tier-1 acceptance bar for v2 snapshots.

A graph attached from a packed v2 snapshot (``ColumnarStore.open_mmap``,
memory-mapped columns, persisted dictionary ranks, score-ordered rows)
must be indistinguishable — byte-identical answers — from the same graph
served off in-memory columns or the object backend, and from the
oracle's evaluation of the same plan, before and after live updates.
"""

import pytest

from repro.baselines.naive import NaiveEngine
from repro.core.engine import SpecQPEngine
from repro.kg import ColumnarGraph, storage
from repro.kg.delta import GraphUpdate
from repro.service import WorkloadRunner


def _answer_rows(answers):
    return [(a.bindings, a.score) for a in answers]


def _oracle_rows(graph, rules, query, k):
    """The oracle's answers to PLANGEN's plan of *query* over *graph*."""
    plan = SpecQPEngine(graph, rules).plan(query, k).plan
    return _answer_rows(NaiveEngine(graph, rules).evaluate(plan, k))


@pytest.fixture(scope="module")
def workload(tiny_xkg_workload):
    return tiny_xkg_workload


@pytest.fixture(scope="module")
def snapshot_dir(workload, tmp_path_factory):
    root = tmp_path_factory.mktemp("mmap-backend")
    storage.save_snapshot_v2(workload.graph, root / "g.kg2")
    return root


def _runner(workload, graph, **kwargs):
    from repro.datasets.workload import Workload

    served = Workload(
        name=workload.name,
        graph=graph,
        rules=workload.rules,
        queries=list(workload.queries),
    )
    return WorkloadRunner(served, **kwargs)


class TestAnswersAcrossBackends:
    def test_mmap_matches_columnar_and_object(self, workload, snapshot_dir):
        object_runner = _runner(workload, workload.graph)
        columnar_runner = _runner(workload, ColumnarGraph.from_graph(workload.graph))
        mmap_runner = _runner(
            workload, storage.load_snapshot_v2(snapshot_dir / "g.kg2")
        )
        for query in workload.queries:
            expected = _oracle_rows(workload.graph, workload.rules, query, 5)
            assert (
                _answer_rows(object_runner.execute_query(query, 5)) == expected
            ), (query.name, "object")
            assert (
                _answer_rows(columnar_runner.execute_query(query, 5)) == expected
            ), (query.name, "columnar")
            assert (
                _answer_rows(mmap_runner.execute_query(query, 5)) == expected
            ), (query.name, "mmap")

    def test_reports_agree_on_answer_counts(self, workload, snapshot_dir):
        mmap_runner = _runner(
            workload, storage.load_snapshot_v2(snapshot_dir / "g.kg2")
        )
        columnar_runner = _runner(workload, ColumnarGraph.from_graph(workload.graph))
        mmap_report = mmap_runner.run(workload.queries, k=5)
        columnar_report = columnar_runner.run(workload.queries, k=5)
        for ours, theirs in zip(mmap_report.outcomes, columnar_report.outcomes):
            assert ours.n_answers == theirs.n_answers
            assert ours.top_score == theirs.top_score
            assert ours.plan == theirs.plan


class TestUpdatesOverMmap:
    """apply_updates on an mmap-attached graph: copy-on-write overlay."""

    UPDATES = [
        GraphUpdate.add("mmap:new-entity", "rel:linked_to", "mmap:hub", 0.95),
        GraphUpdate.add("mmap:hub", "rel:linked_to", "mmap:new-entity", 0.5),
    ]

    def test_post_update_answers_identical(self, workload, snapshot_dir):
        object_runner = _runner(workload, workload.graph)
        mmap_runner = _runner(
            workload, storage.load_snapshot_v2(snapshot_dir / "g.kg2")
        )
        removals = [
            GraphUpdate.remove(t.subject, t.predicate, t.object)
            for t in list(workload.graph.triples())[:5]
        ]
        batch = self.UPDATES + removals
        object_runner.apply_updates(batch)
        mmap_runner.apply_updates(batch)
        for query in workload.queries:
            expected = _oracle_rows(mmap_runner.graph, workload.rules, query, 5)
            assert _answer_rows(mmap_runner.execute_query(query, 5)) == expected, (
                query.name
            )
            assert _answer_rows(object_runner.execute_query(query, 5)) == expected, (
                query.name
            )

    def test_snapshot_file_untouched_by_updates(self, workload, snapshot_dir):
        before = (snapshot_dir / "g.kg2").read_bytes()
        runner = _runner(
            workload, storage.load_snapshot_v2(snapshot_dir / "g.kg2")
        )
        runner.apply_updates(self.UPDATES)
        runner.run(workload.queries[:4], k=5)
        assert (snapshot_dir / "g.kg2").read_bytes() == before
