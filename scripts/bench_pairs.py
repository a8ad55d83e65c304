#!/usr/bin/env python
"""Parent/change pairs of one benchmark workload, and whether a gain holds.

The protocol a performance claim is judged by, which PRs 15-17 each ran
by hand: run the ``BENCHMARK.json`` command on one workload alternately
from two checkouts — each with its own ``bench/``,
``src/`` and ``bench/out/`` — alternating which side goes first, so that
drift of the machine falls on both sides alike.  Prints every pair, then
per metric each side's median and quartiles and the change's wins and
ties, and for a ``--claim`` metric the rule a gain must meet: the change
wins at least nine tenths of the pairs *and* the medians differ by more
than the distance between the parent's own quartiles.  Last comes the
benchmark's own ``--compare`` verdict (bound and spread per end-to-end
metric), from the change checkout's ``bench/run.py``.

    python scripts/bench_pairs.py --parent ../parent --claim qps \
        --workload xkg_relax_resident
    make bench-pairs PARENT=../parent W=xkg_relax_resident N=10 SEED=42 CLAIM=qps

Exits 1 when a run failed a request, a claim does not hold or
``--compare`` reads ``regressed``.  One run at a time per checkout: the
runs are sequential, ~17 s each.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of the driver's form from *checkout*: the result
    object of its last line, with ``qps_wall`` from the info line."""
    done = subprocess.run(
        ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(
            f"{checkout}: bench/run.py exited {done.returncode} without a "
            f"result line\n{done.stdout}\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    info = next((json.loads(l[2:]) for l in lines if l.startswith("# {")), {})
    if "qps_wall" in info:
        result["metrics"]["qps_wall"] = {"value": info["qps_wall"], "unit": "1/s"}
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def judge(parent: list[float], change: list[float], higher_is_better: bool) -> dict:
    """Wins and ties of the change over the pairs, and the claim rule."""
    sign = 1 if higher_is_better else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    first, median, third = quartiles(parent)
    gain = sign * (quartiles(change)[1] - median)
    return {
        "wins": wins,
        "ties": ties,
        "pairs": len(parent),
        "parent_iqr": third - first,
        "median_gain": gain,
        "holds": wins >= 0.9 * len(parent) and gain > third - first,
    }


def suite_document(runs: list[dict], spec: dict) -> dict:
    """*runs* of one workload in the shape ``bench/run.py --compare`` reads."""
    names = [metric["name"] for metric in spec["end_to_end"]]
    return {
        "runs": [
            {
                "end_to_end": {name: run["metrics"][name] for name in names},
                "attempted": run["attempted"],
                "failed": run["failed"],
            }
            for run in runs
        ]
    }


def load_bench_run(checkout: Path):
    """*checkout*'s ``bench/run.py`` as a module, for its ``compare``."""
    path = checkout / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--parent", required=True, type=Path, help="checkout of the parent commit"
    )
    parser.add_argument(
        "--change", type=Path, default=ROOT, help="checkout of the change (default: this)"
    )
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument(
        "--claim",
        choices=[m["name"] for m in spec["end_to_end"]] + ["qps_wall"],
        help="a metric the change claims a gain on",
    )
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.pairs < 1 or sides["parent"] == sides["change"]:
        parser.error("need --pairs >= 1 and two different checkouts")

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(
                run_once(sides[side], args.workload, args.seed, args.seconds)
            )
        p, c = runs["parent"][-1], runs["change"][-1]
        moves = "  ".join(
            f"{name} {value['value']:.6g} -> {c['metrics'][name]['value']:.6g}"
            for name, value in p["metrics"].items()
        )
        print(
            f"pair {pair + 1:2d} ({order[0]} first): {moves}  "
            f"failed {p['failed']} -> {c['failed']}",
            flush=True,
        )

    better = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    better["qps_wall"] = True
    print(f"\n{args.workload}, seed {args.seed}, {args.seconds:g} s, {args.pairs} pairs")
    verdicts = {}
    for name in runs["parent"][0]["metrics"]:
        values = {
            side: [run["metrics"][name]["value"] for run in runs[side]] for side in runs
        }
        verdicts[name] = verdict = judge(
            values["parent"], values["change"], better[name]
        )
        p1, p2, p3 = quartiles(values["parent"])
        c1, c2, c3 = quartiles(values["change"])
        print(
            f"{name:16s} parent {p2:.6g} [{p1:.6g}, {p3:.6g}]  "
            f"change {c2:.6g} [{c1:.6g}, {c3:.6g}]  "
            f"change/parent {c2 / p2:.4f} (base parent = {p2:.6g})  "
            f"wins {verdict['wins']} ties {verdict['ties']} of {verdict['pairs']}"
        )
    claim = verdicts[args.claim] if args.claim else None
    if claim is not None:
        print(
            f"claim on {args.claim}: wins {claim['wins']}/{claim['pairs']} "
            f"(need >= {0.9 * claim['pairs']:g}), median gain "
            f"{claim['median_gain']:.6g} against parent quartile distance "
            f"{claim['parent_iqr']:.6g}: "
            f"{'holds' if claim['holds'] else 'does NOT hold'}"
        )

    out = sides["change"] / "bench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for side in runs:
        paths[side] = out / f"pairs_{side}_{args.workload}_{args.seed}.json"
        with open(paths[side], "w", encoding="utf-8") as handle:
            document = {"workloads": {args.workload: suite_document(runs[side], spec)}}
            json.dump(document, handle, indent=1)
    # --compare walks every workload its spec names; these files hold one.
    one = {
        **spec,
        "workloads": [w for w in spec["workloads"] if w["name"] == args.workload],
    }
    regressed = load_bench_run(sides["change"]).compare(
        str(paths["parent"]), str(paths["change"]), one
    )
    failed = sum(run["failed"] for side in runs for run in runs[side])
    unmet = claim is not None and not claim["holds"]
    return 1 if failed or regressed or unmet else 0


if __name__ == "__main__":
    sys.exit(main())
