"""Mmap-backend equivalence: the tier-1 acceptance bar for v2 snapshots.

A graph attached from a packed v2 snapshot (``ColumnarStore.open_mmap``,
memory-mapped columns, persisted dictionary ranks, score-ordered rows)
must be indistinguishable — byte-identical answers — from the same graph
served off in-memory columns or the object backend, across every
executor, sharded and unsharded, before and after live updates.
"""

import pytest

from repro.kg import ColumnarGraph, storage
from repro.kg.delta import GraphUpdate
from repro.service import WorkloadRunner


def _answer_rows(answers):
    return [(a.bindings, a.score) for a in answers]


@pytest.fixture(scope="module")
def workload(tiny_xkg_workload):
    return tiny_xkg_workload


@pytest.fixture(scope="module")
def snapshot_dir(workload, tmp_path_factory):
    root = tmp_path_factory.mktemp("mmap-backend")
    storage.save_snapshot_v2(workload.graph, root / "g.kg2")
    return root


def _runner(workload, graph, *, executor="tuple", shards=1, **kwargs):
    from repro.datasets.workload import Workload

    served = Workload(
        name=workload.name,
        graph=graph,
        rules=workload.rules,
        queries=list(workload.queries),
    )
    return WorkloadRunner(served, executor=executor, shards=shards, **kwargs)


class TestAnswersAcrossBackends:
    @pytest.mark.parametrize("executor", ["tuple", "block", "auto"])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_mmap_matches_columnar_and_object(
        self, workload, snapshot_dir, executor, shards
    ):
        object_runner = _runner(
            workload, workload.graph, executor=executor, shards=shards
        )
        columnar_runner = _runner(
            workload,
            ColumnarGraph.from_graph(workload.graph),
            executor=executor,
            shards=shards,
        )
        mmap_runner = _runner(
            workload,
            storage.load_snapshot_v2(snapshot_dir / "g.kg2"),
            executor=executor,
            shards=shards,
        )
        for query in workload.queries:
            expected = _answer_rows(object_runner.execute_query(query, 5))
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

    @pytest.mark.parametrize("shards", [1, 4])
    def test_post_update_answers_identical(self, workload, snapshot_dir, shards):
        object_runner = _runner(workload, workload.graph, shards=shards)
        mmap_runner = _runner(
            workload,
            storage.load_snapshot_v2(snapshot_dir / "g.kg2"),
            shards=shards,
        )
        removals = [
            GraphUpdate.remove(t.subject, t.predicate, t.object)
            for t in list(workload.graph.triples())[:5]
        ]
        batch = self.UPDATES + removals
        object_runner.apply_updates(batch)
        mmap_runner.apply_updates(batch)
        for query in workload.queries:
            assert _answer_rows(mmap_runner.execute_query(query, 5)) == _answer_rows(
                object_runner.execute_query(query, 5)
            ), query.name

    def test_snapshot_file_untouched_by_updates(self, workload, snapshot_dir):
        before = (snapshot_dir / "g.kg2").read_bytes()
        runner = _runner(
            workload, storage.load_snapshot_v2(snapshot_dir / "g.kg2")
        )
        runner.apply_updates(self.UPDATES)
        runner.run(workload.queries[:4], k=5)
        assert (snapshot_dir / "g.kg2").read_bytes() == before
