"""Smoke test of the benchmark on the ``small`` scale.

Collected by the tier-1 run.  It drives the functions ``run.py`` drives — in
this process where only their output matters, through the served child
process once — and checks the benchmark's own contract: the names it emits,
finite values, inputs and counts that repeat with the seed, a correctness
gate that can fail, and the verdicts of ``--compare``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
import types
from contextlib import contextmanager
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import bench_clock  # noqa: E402
import bench_inputs  # noqa: E402
import bench_serve  # noqa: E402
import run  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

#: Per-layer metrics that are counts of work done, not times: with the same
#: seed they must repeat exactly.
EXACT = (
    "core.planner.relaxed_patterns_per_query",
    "core.planner.auto_block_share",
    "operators.tuples_pulled_per_query",
    "operators.answer_objects_per_query",
    "service.cache.hit_rate",
    "service.cache.evictions",
    "service.cache.purged_per_batch",
    "service.result_cache.hit_rate",
    "service.result_cache.purged_per_batch",
    "service.runner.plan_cache_hit_rate",
    "operators.block.encoded_store.hit_rate",
    "kg.delta.compactions",
)


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    return run.Prepared(tmp_path_factory.mktemp("bench_inputs"), "small")


@pytest.fixture(scope="module")
def untraced(prepared):
    """Every workload once with tracing off, seed 42.

    The windows are 0.3 s and the 200-read minimum is lifted: what is
    asserted does not depend on how long a window is, and the tier-1 run
    should not wait for statistics nobody reads.
    """
    minimum, bench_serve.MIN_READS = bench_serve.MIN_READS, 0
    try:
        return {
            workload: bench_serve.measure(
                prepared.directory, workload, 42, 0.3, trace=False
            )
            for workload in WORKLOADS
        }
    finally:
        bench_serve.MIN_READS = minimum


@pytest.fixture(scope="module")
def traced_update_mix(prepared):
    return bench_serve.measure(prepared.directory, "xkg_update_mix", 42, 0.3, trace=True)


def test_benchmark_json_names_the_workloads():
    assert sorted(WORKLOADS) == sorted(bench_inputs.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_exactly_the_declared_end_to_end_metrics(untraced, workload):
    result = untraced[workload]
    metrics = run.with_units(result["metrics"], SPEC["end_to_end"], workload)
    for name, entry in metrics.items():
        assert math.isfinite(entry["value"]) and entry["value"] > 0, name
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


def test_reads_on_a_modified_graph_are_checked(prepared, untraced):
    log = untraced["xkg_update_mix"]["modified_reads"]
    counts = prepared.oracle.check_modified(42, log)
    assert counts["compared"] == sum(len(reads) for _, _, reads in log) > 0
    assert counts["different"] == 0
    # The gate sees the write path: the updates changed answers that were
    # then served, and a served answer that missed its update is counted.
    assert counts["changed"] > 0
    pair, focus, reads = log[0]
    stale = [(index, prepared.oracle.reference[index]) for index, _ in reads]
    assert prepared.oracle.check_modified(42, [(pair, focus, stale)])["different"] > 0


def test_a_served_process_emits_the_layers_and_repeats_the_counts(
    prepared, traced_update_mix, tmp_path, monkeypatch
):
    monkeypatch.setattr(run, "OUT", tmp_path)
    served = prepared.run("xkg_update_mix", 42, 0.3, trace=True)
    assert served["correct"] and served["failed"] == 0
    assert served["info"]["reads_an_update_changed"] > 0
    assert served["info"]["input_checksum"] == bench_inputs.input_checksum(
        "xkg_update_mix", 42, prepared.inputs
    )
    spans = (tmp_path / "trace_xkg_update_mix.jsonl").read_text().splitlines()
    assert len(spans) == served["info"]["spans"]
    served["metrics"].update(prepared.oracle.parent_layers(prepared.info))
    metrics = run.with_units(served["metrics"], SPEC["per_layer"], "xkg_update_mix")
    for name, entry in metrics.items():
        assert math.isfinite(entry["value"]), name
    assert {name: served["metrics"][name] for name in EXACT} == {
        name: traced_update_mix["metrics"][name] for name in EXACT
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_seed_decides_the_inputs(prepared, workload):
    inputs = prepared.inputs
    assert bench_inputs.input_checksum(workload, 42, inputs) == (
        bench_inputs.input_checksum(workload, 42, inputs)
    )
    assert bench_inputs.input_checksum(workload, 42, inputs) != (
        bench_inputs.input_checksum(workload, 43, inputs)
    )


def test_kept_inputs_give_the_same_oracle(prepared):
    again = run.Prepared(prepared.directory, "small")
    assert again.info == prepared.info
    assert again.oracle.reference == prepared.oracle.reference
    assert again.oracle.vouched == prepared.oracle.vouched > 0


def test_the_clock_counts_a_slowed_stretch_as_less(monkeypatch):
    """Work timed beside probes that take twice the reference counts half."""
    monkeypatch.setattr(bench_clock, "probe", lambda: 2 * bench_clock.REFERENCE_PROBE_S)
    clock = bench_clock.SpeedClock()
    started = clock.start()
    time.sleep(0.001)
    assert clock.stop(started) >= 0.001
    clock.close()
    # Less whatever the thread waited for a processor after its sleep.
    assert clock.wall / 2 * 0.9 < clock.seconds <= clock.wall / 2


def test_a_second_run_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    with run.run_lock():
        with pytest.raises(SystemExit):
            with run.run_lock():
                pass


def _result_file(path: Path, values: dict[str, list[float]], failed: int = 0) -> str:
    """A suite result file in which every workload has *values*' repeats."""
    repeats = len(next(iter(values.values())))
    runs = [
        {
            "end_to_end": {name: {"value": values[name][i]} for name in values},
            "attempted": 100,
            "failed": failed,
        }
        for i in range(repeats)
    ]
    path.write_text(json.dumps({"workloads": {w: {"runs": runs} for w in WORKLOADS}}))
    return str(path)


def test_compare_says_ok_regressed_or_unresolved(tmp_path, capsys):
    steady = {m["name"]: [1.0, 1.0, 1.0] for m in SPEC["end_to_end"]}
    slower = {**steady, "qps": [0.5, 0.5, 0.5]}
    noisy = {**steady, "setup_s": [1.0, 2.0, 3.0]}
    a = _result_file(tmp_path / "a.json", steady)

    assert run.compare(a, a, SPEC) == 0
    assert set(_verdicts(capsys)) == {"ok"}
    assert run.compare(a, _result_file(tmp_path / "b.json", slower), SPEC) == 1
    assert _verdicts(capsys, "qps") == ["regressed"] * len(WORKLOADS)
    assert run.compare(a, _result_file(tmp_path / "c.json", noisy), SPEC) == 0
    assert _verdicts(capsys, "setup_s") == ["unresolved"] * len(WORKLOADS)
    assert run.compare(a, _result_file(tmp_path / "d.json", steady, failed=1), SPEC) == 1
    assert _verdicts(capsys, "failed_frac") == ["regressed"] * len(WORKLOADS)


def _verdicts(capsys, metric: str | None = None) -> list[str]:
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    return [
        row[-1]
        for row in rows
        if row and row[0] in WORKLOADS and (metric is None or row[1] == metric)
    ]


def test_a_wrong_answer_makes_the_driver_form_exit_non_zero(monkeypatch, capsys):
    values = {m["name"]: 1.0 for m in SPEC["end_to_end"]}

    @contextmanager
    def one_wrong_answer(fresh):
        yield types.SimpleNamespace(
            info={},
            run=lambda *_: {
                "correct": False,
                "attempted": 10,
                "failed": 1,
                "metrics": dict(values),
                "info": {},
            },
        )

    monkeypatch.setattr(run, "prepared", one_wrong_answer)
    args = types.SimpleNamespace(
        workload="xkg_hot_repeat", seed=1, seconds=1.0, trace=0
    )
    assert run.run_one(args, SPEC) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["failed"] == 1


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "xkg_hot_repeat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert not completed.stdout.strip()
