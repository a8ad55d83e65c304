#!/usr/bin/env python3
"""The benchmark's one command.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
        One run of one workload; the last line printed is its result object
        (end-to-end metrics with --trace 0, per-layer metrics with --trace 1).

    python3 bench/run.py --seed 42 --repeats 3 --out bench/out/result.json
        All four workloads one after another, each run in a fresh process,
        both untraced and traced, every repeat stored with its environment.

    python3 bench/run.py --compare A.json B.json
        One row per workload and end-to-end metric: both medians, the ratio
        with its base, the bound, and ok | regressed | unresolved.

See bench/README.md for what is measured and why.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@contextmanager
def run_lock():
    """Refuse to measure while another run of the benchmark is measuring."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "lock", "w") as handle:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            sys.exit(f"another benchmark run holds {OUT / 'lock'}; not measuring")
        yield


class Prepared:
    """The generated inputs and the oracle, shared by every run of a command.

    *directory* either is empty or holds what an earlier command left there
    complete (the oracle's file is written last), which is then used as it
    is: the dataset does not depend on ``--seed``.
    """

    def __init__(self, directory: Path, scale: str) -> None:
        from bench_inputs import load_inputs, write_inputs
        from bench_layers import ORACLE_NAME, Oracle

        self.directory = directory
        kept = directory / ORACLE_NAME
        complete = kept.exists()
        if not complete:
            write_inputs(directory, scale)
        self.inputs = load_inputs(directory)
        self.info = self.inputs["info"]
        self.oracle = Oracle(directory, self.inputs, kept if complete else None)
        if not complete:
            self.oracle.save(directory)

    def run(self, workload: str, seed: int, seconds: float, trace: bool) -> dict:
        """One run of *workload* in a fresh process; its result object."""
        from bench_inputs import input_checksum
        from bench_serve import MODIFIED_NAME

        completed = subprocess.run(
            [
                sys.executable,
                str(BENCH / "bench_serve.py"),
                str(self.directory),
                workload,
                str(seed),
                str(seconds),
                "1" if trace else "0",
                str(OUT / f"trace_{workload}.jsonl"),
            ],
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        with open(self.directory / MODIFIED_NAME, "rb") as handle:
            modified = pickle.load(handle)  # written by the process that just ended
        on_modified = self.oracle.check_modified(seed, modified)
        result["attempted"] += self.oracle.vouched
        result["failed"] += self.oracle.disagreements + on_modified["different"]
        result["correct"] = result["failed"] == 0
        result["info"].update(
            checked_reads=result["info"]["checked_reads"] + on_modified["compared"],
            reads_an_update_changed=on_modified["changed"],
            input_checksum=input_checksum(workload, seed, self.inputs),
        )
        return result


def program_fingerprint() -> str:
    """A digest of everything the generated inputs and the oracle's answers
    depend on: the program's source and the benchmark's input modules."""
    digest = hashlib.sha256()
    sources = sorted((ROOT / "src").rglob("*.py"))
    for path in [*sources, BENCH / "bench_inputs.py", BENCH / "bench_layers.py"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@contextmanager
def prepared(fresh: bool):
    """Take the lock and prepare the inputs and the oracle.

    Generating them takes 8 s, of which an untraced run measures nothing, and
    the driver's time for all its runs is short.  So an untraced run keeps
    them in ``bench/out/inputs-<fingerprint>`` for the next one; a change to
    the program or to the input modules changes the fingerprint.  *fresh*
    (the traced run and the suite, which report ``datasets.generate_s`` and
    ``kg.storage.snapshot_write_s``) generates them anew and removes them.
    """
    with run_lock():
        if fresh:
            with tempfile.TemporaryDirectory(dir=OUT, prefix="fresh-") as tmp:
                yield Prepared(Path(tmp), "large")
            return
        kept = OUT / f"inputs-{program_fingerprint()}"
        for other in OUT.glob("inputs-*"):
            if other != kept:
                shutil.rmtree(other)
        kept.mkdir(exist_ok=True)
        yield Prepared(kept, "large")


def with_units(values: dict[str, float], declared: list[dict], what: str) -> dict:
    """*values* as the result line's ``metrics``; exactly the declared names."""
    names = [metric["name"] for metric in declared]
    if sorted(values) != sorted(names):
        sys.exit(
            f"{what} metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(names))}"
        )
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }


def print_metrics(workload: str, metrics: dict, info: dict) -> None:
    for name, entry in metrics.items():
        print(f"{workload:20s} {name:42s} {entry['value']:.6g} {entry['unit']}")
    beyond = info.get("samples_beyond_p95")
    if beyond is not None:
        flag = "" if beyond >= 10 else "  (fewer than ten: p95 is not supported)"
        print(
            f"{workload:20s} latency p50 {info['latency_p50_ms']:.6g} ms, "
            f"p90 {info['latency_p90_ms']:.6g} ms, p95 {info['latency_p95_ms']:.6g} ms "
            "(reported, not bounded): medians over "
            f"{info['percentile_groups']} group(s) of passes, {info['read_samples']} "
            f"reads in all, at least {beyond} samples beyond p95 in each{flag}"
        )
    gap = metrics.get("trace.recomposition_gap_frac")
    if gap is not None and abs(gap["value"]) > 0.25:
        print(
            f"{workload:20s} WARNING recomposition gap {gap['value']:.2f}: the "
            "layer numbers do not add up to the served path"
        )


def environment(seed: int, seconds: float, dataset: dict) -> dict:
    import numpy
    from bench_clock import REFERENCE_PROBE_S

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
        "window_seconds": seconds,
        "reference_probe_s": REFERENCE_PROBE_S,
        "dataset": dataset,
    }


# ----------------------------------------------------------------------
# The three commands
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace, spec: dict) -> int:
    """The driver's contract: one workload, one run, one result line."""
    with prepared(fresh=bool(args.trace)) as inputs:
        result = inputs.run(args.workload, args.seed, args.seconds, args.trace)
        if args.trace:
            result["metrics"].update(inputs.oracle.parent_layers(inputs.info))
            declared = spec["per_layer"]
        else:
            declared = spec["end_to_end"]
        info = result.pop("info")
        result["metrics"] = with_units(result["metrics"], declared, args.workload)
        print_metrics(args.workload, result["metrics"], info)
        print(f"# {json.dumps({**info, **inputs.info})}")
        print(json.dumps(result))
    return 1 if result["failed"] else 0


def run_suite(args: argparse.Namespace, spec: dict) -> int:
    names = [workload["name"] for workload in spec["workloads"]]
    failed = 0
    with prepared(fresh=True) as inputs:
        document = {
            "environment": environment(args.seed, args.seconds, inputs.info),
            "workloads": {name: {"runs": []} for name in names},
        }
        for repeat in range(args.repeats):
            parent_layers = inputs.oracle.parent_layers(inputs.info)
            for name in names:
                untraced = inputs.run(name, args.seed, args.seconds, False)
                traced = inputs.run(name, args.seed, args.seconds, True)
                traced["metrics"].update(parent_layers)
                end_to_end = with_units(untraced["metrics"], spec["end_to_end"], name)
                per_layer = with_units(traced["metrics"], spec["per_layer"], name)
                attempted = untraced["attempted"] + traced["attempted"]
                failures = untraced["failed"] + traced["failed"]
                failed += failures
                info = {**untraced["info"], **traced["info"]}
                print(f"--- {name}, repeat {repeat + 1} of {args.repeats}")
                print_metrics(name, {**end_to_end, **per_layer}, info)
                print(
                    f"{name:20s} attempted {attempted} failed {failures} "
                    f"failed_frac {failures / attempted:.6f}"
                )
                document["workloads"][name]["runs"].append(
                    {
                        "end_to_end": end_to_end,
                        "per_layer": per_layer,
                        "attempted": attempted,
                        "failed": failures,
                        "info": info,
                    }
                )
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
        print(f"wrote {args.out}")
    return 1 if failed else 0


def _spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def compare(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a, encoding="utf-8") as a, open(path_b, encoding="utf-8") as b:
        runs_a, runs_b = json.load(a)["workloads"], json.load(b)["workloads"]
    regressed = 0
    print(f"A = {path_a}\nB = {path_b}")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = (
                [run["end_to_end"][name]["value"] for run in runs[workload]["runs"]]
                for runs in (runs_a, runs_b)
            )
            base, other = statistics.median(a), statistics.median(b)
            worse = (other - base) / base
            if metric["better"] == "higher":
                worse = -worse
            if max(_spread(a), _spread(b)) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "ok"
            print(
                f"{workload:20s} {name:16s} A {base:<12.6g} B {other:<12.6g} "
                f"B/A {other / base:.4f} (base A = {base:.6g} {metric['unit']})  "
                f"spread A {_spread(a):.3f} B {_spread(b):.3f}  "
                f"bound {bound}  {verdict}"
            )
        # failed_frac is 0 on a correct run, so it has no ratio and no
        # relative bound: any failure in B is a regression.
        a, b = (
            sum(run["failed"] for run in runs[workload]["runs"])
            / sum(run["attempted"] for run in runs[workload]["runs"])
            for runs in (runs_a, runs_b)
        )
        verdict = "regressed" if b > 0 else "ok"
        regressed += b > 0
        print(
            f"{workload:20s} {'failed_frac':16s} A {a:<12.6g} B {b:<12.6g} "
            f"absolute, bound 0  {verdict}"
        )
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=42, help="draws the traffic")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", help="suite result file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec)

    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"the program's source is not at {ROOT / 'src'}; nothing to measure")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    return run_one(args, spec) if args.workload else run_suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
