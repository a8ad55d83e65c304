"""Multiprocess warm serving: N workers, one physical graph copy.

The thread pool in :class:`~repro.service.runner.WorkloadRunner` shares
the GIL, so adding workers mostly adds scheduling.  This module is the
process-model substrate behind ``WorkloadRunner(worker_model="process")``:

* the master exports (or reuses) one **v2 packed snapshot** of the served
  graph (:func:`repro.kg.storage.save_snapshot_v2`);
* each worker process attaches it read-only via
  :meth:`~repro.kg.columnar.ColumnarStore.open_mmap` — an O(ms)
  ``np.memmap``, so all workers share a single physical copy of the
  columns through the page cache — and builds its own serving substrate
  (catalog, match-list/encoded/plan caches, engine) over it;
* batches are dispatched as contiguous chunks over a
  :class:`~concurrent.futures.ProcessPoolExecutor` and re-assembled in
  submission order, so the merged report (and the canonical top-k answer
  tuples) are byte-identical to single-worker serving;
* live updates travel by **versioned delta shipping**: every task carries
  the snapshot generation plus the master's update log, and a worker
  replays exactly the log prefix the task names before serving — all
  chunks of one batch name the same prefix (the master's writer gate
  guarantees no update lands mid-batch), so no worker ever serves a mix
  of versions.  When the log grows past the re-export threshold the
  master writes a fresh snapshot (generation + 1) and workers re-attach.

Worker-side state lives in module globals (one serving substrate per
worker process, reused across chunks); everything crossing the process
boundary — :class:`WorkerSpec`, queries, updates, outcomes, answers — is
plain picklable data.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Sequence

from repro.core.config import EngineConfig
from repro.kg.delta import GraphUpdate
from repro.query.answer import Answer
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RuleSet
from repro.service.report import QueryOutcome

#: Chunks submitted per worker per batch: enough to rebalance skewed
#: chunks, few enough that per-chunk pickling stays amortised.
CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to rebuild the serving substrate.

    Shipped once, through the pool initializer.  The snapshot itself
    never crosses the boundary — only its path does.
    """

    graph_name: str
    rules: RuleSet
    config: EngineConfig
    cache_capacity: int
    plan_cache: bool
    executor: str
    warm_queries: tuple[TriplePatternQuery, ...]


@dataclass(frozen=True)
class ChunkTask:
    """One contiguous slice of a batch, stamped with the graph epoch.

    ``generation``/``snapshot_path`` name the base snapshot; ``log``
    is the master's update log for that generation and ``log_len`` the
    prefix to replay before serving.  Every chunk of one batch carries
    the same ``(generation, log_len)`` pair — that is the cross-process
    version barrier.
    """

    generation: int
    snapshot_path: str
    log: tuple[GraphUpdate, ...]
    log_len: int
    queries: tuple[TriplePatternQuery, ...]
    k: int


@dataclass(frozen=True)
class ChunkResult:
    """What a worker sends back: report rows plus the answers themselves."""

    outcomes: tuple[QueryOutcome, ...]
    answers: tuple[tuple[Answer, ...], ...]
    pid: int
    generation: int
    log_len: int
    graph_version: int
    attach_seconds: float
    plan_hits: int


# One serving substrate per worker process, reused across chunks.
_STATE: dict = {}


def _init_worker(spec: WorkerSpec) -> None:
    _STATE.clear()
    _STATE["spec"] = spec
    _STATE["runner"] = None
    _STATE["generation"] = -1
    _STATE["log_len"] = 0
    _STATE["attach_seconds"] = 0.0


def _ensure_runner(generation: int, snapshot_path: str):
    """The worker's local runner over the named snapshot generation.

    (Re)attaches when this process has never served, or when the master
    re-exported a fresh snapshot: the mmap columns of the old generation
    are dropped and the new file is attached — O(ms), no copies.
    """
    from repro.datasets.workload import Workload
    from repro.kg.storage import load_snapshot_v2
    from repro.service.runner import WorkloadRunner

    if _STATE["runner"] is not None and _STATE["generation"] == generation:
        return _STATE["runner"]
    spec: WorkerSpec = _STATE["spec"]
    started = time.perf_counter()
    graph = load_snapshot_v2(snapshot_path, name=spec.graph_name)
    workload = Workload(
        name=spec.graph_name,
        graph=graph,
        rules=spec.rules,
        queries=list(spec.warm_queries),
    )
    _STATE["runner"] = WorkloadRunner(
        workload,
        config=spec.config,
        n_workers=1,
        cache_capacity=spec.cache_capacity,
        plan_cache=spec.plan_cache,
        executor=spec.executor,  # type: ignore[arg-type]
        # The master's result cache fronts the pool; a second level here
        # would only hide worker execution from benchmarks.
        result_cache_capacity=0,
    )
    _STATE["generation"] = generation
    _STATE["log_len"] = 0
    _STATE["attach_seconds"] = time.perf_counter() - started
    return _STATE["runner"]


def run_chunk(task: ChunkTask) -> ChunkResult:
    """Serve one chunk at exactly the version the task names.

    Replays ``task.log[:task.log_len]`` (the part this worker has not
    applied yet) through the local runner's own
    :meth:`~repro.service.runner.WorkloadRunner.apply_updates` — the
    same delta-overlay write path the master used, so the worker's graph
    state equals the master's state at dispatch time and answers stay
    byte-identical.
    """
    runner = _ensure_runner(task.generation, task.snapshot_path)
    attach_seconds = _STATE.pop("attach_seconds", 0.0)
    applied: int = _STATE["log_len"]
    if task.log_len < applied:  # pragma: no cover - master never rewinds
        raise RuntimeError(
            f"update log rewound: worker at {applied}, task names {task.log_len}"
        )
    if task.log_len > applied:
        runner.apply_updates(list(task.log[applied : task.log_len]))
        _STATE["log_len"] = task.log_len
    plan_hits_before = runner._plan_hits
    served = [runner._serve_query_locally(query, task.k) for query in task.queries]
    return ChunkResult(
        outcomes=tuple(outcome for outcome, _ in served),
        answers=tuple(answers for _, answers in served),
        pid=os.getpid(),
        generation=task.generation,
        log_len=task.log_len,
        graph_version=runner.graph.version,
        attach_seconds=attach_seconds,
        plan_hits=runner._plan_hits - plan_hits_before,
    )


def make_chunks(
    n_queries: int, n_workers: int
) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` chunk bounds for a batch.

    Aims for :data:`CHUNKS_PER_WORKER` chunks per worker so a slow chunk
    cannot serialise the batch, while keeping chunks contiguous — the
    master reassembles results by chunk order, preserving submission
    order exactly.
    """
    if n_queries == 0:
        return []
    target = max(1, n_workers * CHUNKS_PER_WORKER)
    size = max(1, -(-n_queries // target))
    return [
        (start, min(start + size, n_queries))
        for start in range(0, n_queries, size)
    ]
