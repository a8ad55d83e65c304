"""The multiprocess worker pool: ``WorkloadRunner(worker_model="process")``.

Covers the contract laid out in ``repro.service.procpool``: answers
byte-identical to thread serving, one shared snapshot (reused when the
graph came from a ``.kg2`` file), versioned delta shipping for live
updates — including the no-mixed-versions oracle under a concurrent
writer — generation re-export, and deterministic teardown.
"""

import threading

import pytest

from repro.kg import storage
from repro.kg.delta import GraphUpdate
from repro.service import WorkloadRunner
from repro.service import procpool
import repro.service.runner as runner_mod


def _rows(answers):
    return [(a.bindings, a.score) for a in answers]


@pytest.fixture(scope="module")
def workload(tiny_xkg_workload):
    return tiny_xkg_workload


@pytest.fixture(scope="module")
def queries(workload):
    return workload.stretched(24)


@pytest.fixture(scope="module")
def reference_answers(workload, queries):
    runner = WorkloadRunner(workload, n_workers=1)
    return [_rows(runner.execute_query(q, 5)) for q in queries]


class TestChunking:
    def test_empty_batch(self):
        assert procpool.make_chunks(0, 4) == []

    def test_bounds_are_contiguous_and_complete(self):
        for n_queries in (1, 7, 24, 100):
            for n_workers in (1, 3, 8):
                bounds = procpool.make_chunks(n_queries, n_workers)
                assert bounds[0][0] == 0
                assert bounds[-1][1] == n_queries
                for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                    assert stop == start

    def test_aims_for_chunks_per_worker(self):
        bounds = procpool.make_chunks(1000, 4)
        assert len(bounds) == 4 * procpool.CHUNKS_PER_WORKER


class TestWireTypesPickle:
    def test_worker_spec_and_task_round_trip(self, workload):
        import pickle

        from repro.core.config import EngineConfig

        spec = procpool.WorkerSpec(
            graph_name=workload.graph.name,
            rules=workload.rules,
            config=EngineConfig(),
            cache_capacity=64,
            plan_cache=True,
            executor="tuple",
            warm_queries=tuple(workload.queries),
        )
        assert pickle.loads(pickle.dumps(spec)).graph_name == spec.graph_name
        task = procpool.ChunkTask(
            generation=0,
            snapshot_path="/tmp/x.kg2",
            log=(GraphUpdate.add("a", "p", "b", 1.0),),
            log_len=1,
            queries=tuple(workload.queries[:2]),
            k=5,
        )
        again = pickle.loads(pickle.dumps(task))
        assert again.queries == task.queries and again.log == task.log


class TestProcessServing:
    def test_rejects_unknown_worker_model(self, workload):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError, match="worker model"):
            WorkloadRunner(workload, worker_model="fibers")

    def test_answers_identical_to_thread_model(
        self, workload, queries, reference_answers
    ):
        with WorkloadRunner(workload, n_workers=2, worker_model="process") as proc:
            report = proc.run(queries, k=5)
            assert [
                _rows(proc.execute_query(q, 5)) for q in queries
            ] == reference_answers
        thread_report = WorkloadRunner(workload, n_workers=2).run(queries, k=5)
        for ours, theirs in zip(report.outcomes, thread_report.outcomes):
            assert ours.query_name == theirs.query_name
            assert ours.n_answers == theirs.n_answers
            assert ours.top_score == theirs.top_score
            assert ours.plan == theirs.plan

    def test_report_extras_describe_the_fleet(self, workload, queries):
        with WorkloadRunner(workload, n_workers=2, worker_model="process") as proc:
            report = proc.run(queries, k=5)
            assert report.extras["worker_model"] == "process"
            assert report.extras["process_generation"] == 0
            assert 1 <= report.extras["process_workers_used"] <= 2
            assert report.extras["process_chunks"] >= 2
            # one batch, one version — the oracle the merge relies on
            assert len(report.extras["process_graph_versions"]) == 1
            assert report.cache is None  # match-list caches live in workers

    def test_master_result_cache_fronts_the_pool(self, workload, queries):
        with WorkloadRunner(workload, n_workers=2, worker_model="process") as proc:
            proc.run(queries, k=5)
            repeat = proc.run(queries, k=5)
            assert repeat.extras["result_cache_hits"] == len(queries)
            assert repeat.extras["process_chunks"] == 0  # nothing dispatched
            assert all(o.executor == "cached" for o in repeat.outcomes)

    @pytest.mark.parametrize("executor", ["block", "auto"])
    def test_executors_identical_through_the_fleet(
        self, workload, queries, reference_answers, executor
    ):
        with WorkloadRunner(
            workload, n_workers=2, worker_model="process", executor=executor
        ) as proc:
            assert [
                _rows(proc.execute_query(q, 5)) for q in queries
            ] == reference_answers

    def test_kg2_loaded_graph_reuses_the_file(
        self, workload, queries, reference_answers, tmp_path
    ):
        from repro.datasets.workload import Workload

        path = tmp_path / "g.kg2"
        storage.save_snapshot_v2(workload.graph, path)
        served = Workload(
            name=workload.name,
            graph=storage.load_snapshot_v2(path, name=workload.graph.name),
            rules=workload.rules,
            queries=list(workload.queries),
        )
        with WorkloadRunner(served, n_workers=2, worker_model="process") as proc:
            proc.run(queries, k=5)
            assert proc._proc_snapshot == str(path)  # shared, not re-exported
            assert proc._proc_dir is None
            assert [
                _rows(proc.execute_query(q, 5)) for q in queries
            ] == reference_answers

    def test_executor_toggle_respawns_fleet(self, workload, queries):
        with WorkloadRunner(workload, n_workers=2, worker_model="process") as proc:
            proc.run(queries[:6], k=5)
            assert proc._fleet is not None
            proc.executor = "block"
            assert proc._fleet is None  # workers were pinned to "tuple"
            report = proc.run(queries[:6], k=5)
            assert report.extras["executor"] == "block"

    def test_close_is_idempotent_and_removes_exports(self, workload, queries):
        import os

        proc = WorkloadRunner(workload, n_workers=2, worker_model="process")
        proc.run(queries[:6], k=5)
        exported = proc._proc_dir
        assert exported is not None and os.path.isdir(exported)
        proc.close()
        assert not os.path.exists(exported)
        proc.close()  # second close is a no-op


class TestProcessUpdates:
    """Versioned delta shipping across the process boundary."""

    def _batch(self, workload, offset):
        adds = [
            GraphUpdate.add(f"proc:e{offset}-{i}", "rel:linked_to", "proc:hub", 0.9)
            for i in range(3)
        ]
        removes = [
            GraphUpdate.remove(t.subject, t.predicate, t.object)
            for t in list(workload.graph.triples())[offset : offset + 2]
        ]
        return adds + removes

    def test_updates_reach_workers_and_answers_match(self, workload, queries):
        oracle = WorkloadRunner(workload, n_workers=1)
        with WorkloadRunner(workload, n_workers=2, worker_model="process") as proc:
            proc.run(queries, k=5)
            batch = self._batch(workload, 0)
            oracle.apply_updates(batch)
            proc.apply_updates(batch)
            assert len(proc._proc_log) == len(batch)  # shipped, not re-exported
            report = proc.run(queries, k=5)
            assert len(report.extras["process_graph_versions"]) == 1
            assert [_rows(proc.execute_query(q, 5)) for q in queries] == [
                _rows(oracle.execute_query(q, 5)) for q in queries
            ]

    def test_reexport_threshold_rolls_the_generation(
        self, workload, queries, monkeypatch
    ):
        monkeypatch.setattr(runner_mod, "REEXPORT_THRESHOLD", 4)
        oracle = WorkloadRunner(workload, n_workers=1)
        with WorkloadRunner(workload, n_workers=2, worker_model="process") as proc:
            proc.run(queries, k=5)
            batch = self._batch(workload, 10)  # 5 updates >= threshold 4
            oracle.apply_updates(batch)
            proc.apply_updates(batch)
            assert proc._proc_generation == 1
            assert proc._proc_log == []  # folded into the new snapshot
            proc.run(queries, k=5)
            assert [_rows(proc.execute_query(q, 5)) for q in queries] == [
                _rows(oracle.execute_query(q, 5)) for q in queries
            ]

    def test_no_mixed_versions_under_concurrent_writer(self, workload, queries):
        """The threaded + multiprocess oracle: batches race a writer
        thread; every batch must still be served at exactly one graph
        version, and in-flight batches finish on the old version (the
        writer gate holds the writer out until they drain)."""
        with WorkloadRunner(workload, n_workers=2, worker_model="process") as proc:
            proc.run(queries[:8], k=5)  # fleet up before the race
            reports = []
            errors = []

            def serve():
                try:
                    for _ in range(4):
                        reports.append(proc.run(queries[:8], k=5))
                except Exception as error:  # pragma: no cover - fails the test
                    errors.append(error)

            def write():
                try:
                    for offset in range(3):
                        proc.apply_updates(self._batch(workload, 20 + 5 * offset))
                except Exception as error:  # pragma: no cover - fails the test
                    errors.append(error)

            threads = [threading.Thread(target=serve) for _ in range(2)]
            threads.append(threading.Thread(target=write))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            assert len(reports) == 8
            for report in reports:
                versions = report.extras["process_graph_versions"]
                assert len(versions) <= 1, "a batch mixed graph versions"
            # After the dust settles: answers equal a sequential oracle
            # that applied the same updates.
            oracle = WorkloadRunner(workload, n_workers=1)
            for offset in range(3):
                oracle.apply_updates(self._batch(workload, 20 + 5 * offset))
            assert [_rows(proc.execute_query(q, 5)) for q in queries[:8]] == [
                _rows(oracle.execute_query(q, 5)) for q in queries[:8]
            ]
