#!/usr/bin/env python
"""Run the perf benchmark matrix and persist a machine-readable baseline.

``make bench`` invokes this after the pytest benchmark suite to write
``BENCH_PR9.json``: warm serving throughput (qps, latency percentiles)
for every executor × cache-capacity combination on the
diverse medium-profile workload — including ``executor="auto"`` (block
wherever the backend has id columns) — plus the whole-answer
result-cache hit path, and the headline speed-up ratios.  Future PRs
diff their numbers against this file instead of re-deriving the baseline from prose in old commit
messages; ``--diff PRIOR.json`` renders that comparison directly.

Methodology: every cell primes once (catalog warm-up plus one untimed
batch, so list caches reach their steady state) and then keeps the best
of ``--repeats`` timed batches — single-run numbers on shared hardware
are noise.  Within each cache-capacity group the three
executors' timed batches are *interleaved* (tuple, block, auto, tuple,
block, auto, ...) rather than run back to back, so machine-load drift
hits all three equally and the block-over-tuple ratios compare like
with like.  The executor matrix runs with
the result cache *disabled* so it measures execution strategy, not
whole-answer reuse; the result cache gets its own section.  Equivalence
across executors is asserted here too and is always blocking — a
baseline produced by engines that disagree would be meaningless.  The
``--diff`` table, by contrast, is informational: CI hardware timing
drifts, answers must not.

Usage::

    PYTHONPATH=src python scripts/bench_summary.py --output BENCH_PR9.json
    PYTHONPATH=src python scripts/bench_summary.py --profile smoke  # quick
    PYTHONPATH=src python scripts/bench_summary.py --diff BENCH_PR6.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import numpy as np  # noqa: E402

from repro.datasets import generate_scaled_graph  # noqa: E402
from repro.datasets.workload import Workload  # noqa: E402
from repro.relax.rules import RuleSet  # noqa: E402
from repro.service import WorkloadRunner  # noqa: E402

# The baseline serves exactly the traffic the asserted benchmark serves —
# import its query set rather than copying it, so editing the benchmark's
# traffic can never silently desynchronize the baseline JSON.
from test_block_executor import diverse_queries  # noqa: E402

SEED = 7
K = 10
BOUNDED_CACHE = 8
FULL_CACHE = 2048
EXECUTORS = ("tuple", "block", "auto")


def best_timed_run(runner: WorkloadRunner, batch, repeats: int):
    """Prime once, then the best-qps report of *repeats* timed batches."""
    runner.run(batch, k=K, mode="warm")  # untimed: warm-up + steady state
    best = None
    for _ in range(repeats):
        report = runner.run(batch, k=K, mode="warm")
        if best is None or report.queries_per_second > best.queries_per_second:
            best = report
    return best


def run_matrix(workload: Workload, batch, repeats: int) -> tuple[list, dict]:
    runs: list[dict] = []
    outcomes_by_key: dict[tuple, list] = {}
    for cache_capacity in (BOUNDED_CACHE, FULL_CACHE):
        # Prime all three executors' runners first, then interleave
        # their timed batches: load drift between back-to-back cells
        # would otherwise masquerade as an executor effect.
        runners = {}
        for executor in EXECUTORS:
            runners[executor] = WorkloadRunner(
                workload,
                cache_capacity=cache_capacity,
                executor=executor,
                result_cache_capacity=0,  # measure strategy, not reuse
            )
            runners[executor].run(batch, k=K, mode="warm")  # untimed
        best: dict[str, object] = {}
        for _ in range(repeats):
            for executor in EXECUTORS:
                report = runners[executor].run(batch, k=K, mode="warm")
                prior = best.get(executor)
                if prior is None or report.queries_per_second > prior.queries_per_second:
                    best[executor] = report
        for executor in EXECUTORS:
            report = best[executor]
            row = {
                "executor": executor,
                # Kept so --diff still matches the cells of older baselines.
                "shards": 1,
                "cache_capacity": cache_capacity,
                "qps": round(report.queries_per_second, 1),
                "mean_ms": round(report.mean_latency * 1e3, 3),
                "p50_ms": round(report.latency_percentile(50) * 1e3, 3),
                "p99_ms": round(report.latency_percentile(99) * 1e3, 3),
                "wall_s": round(report.wall_seconds, 3),
            }
            runs.append(row)
            outcomes_by_key[(cache_capacity, executor)] = [
                (o.n_answers, o.top_score) for o in report.outcomes
            ]
            print(
                f"cache={cache_capacity:<4d} "
                f"executor={executor:<5s} "
                f"{report.queries_per_second:9.1f} qps  "
                f"p50 {report.latency_percentile(50) * 1e3:7.3f} ms  "
                f"p99 {report.latency_percentile(99) * 1e3:7.3f} ms"
            )

    # Executors must agree before the numbers mean anything (blocking).
    for cache_capacity in (BOUNDED_CACHE, FULL_CACHE):
        tuple_rows = outcomes_by_key[(cache_capacity, "tuple")]
        for executor in ("block", "auto"):
            if outcomes_by_key[(cache_capacity, executor)] != tuple_rows:
                raise SystemExit(
                    f"executor outcomes diverge ({executor} vs tuple) at "
                    f"cache={cache_capacity} — baseline aborted"
                )

    def qps(cache_capacity: int, executor: str) -> float:
        for run in runs:
            if run["cache_capacity"] == cache_capacity and run["executor"] == executor:
                return run["qps"]
        raise KeyError((cache_capacity, executor))

    speedups = {
        "block_over_tuple_1shard_bounded_cache": round(
            qps(BOUNDED_CACHE, "block") / qps(BOUNDED_CACHE, "tuple"), 2
        ),
        "block_over_tuple_1shard_full_cache": round(
            qps(FULL_CACHE, "block") / qps(FULL_CACHE, "tuple"), 2
        ),
    }
    return runs, speedups


def run_result_cache_section(workload: Workload, batch, repeats: int) -> dict:
    """The whole-answer hit path vs uncached steady-state tuple serving.

    Both runners serve the same repeated-query batch at full match-list
    cache; the uncached one re-executes every repeat, the cached one
    answers from the result cache.  The ratio is the price of a pipeline
    walk the cache skips.
    """
    uncached = WorkloadRunner(
        workload,
        cache_capacity=FULL_CACHE,
        executor="tuple",
        result_cache_capacity=0,
    )
    base = best_timed_run(uncached, batch, repeats)

    cached = WorkloadRunner(
        workload, cache_capacity=FULL_CACHE, executor="tuple"
    )
    hits = best_timed_run(cached, batch, repeats)
    if hits.extras["result_cache_hits"] != len(batch):
        raise SystemExit(
            f"result-cache section expected an all-hit batch, got "
            f"{hits.extras['result_cache_hits']}/{len(batch)} hits"
        )
    base_rows = [(o.n_answers, o.top_score) for o in base.outcomes]
    hit_rows = [(o.n_answers, o.top_score) for o in hits.outcomes]
    if base_rows != hit_rows:
        raise SystemExit("result-cache answers diverge from uncached — aborted")

    section = {
        "uncached_tuple_full_cache_qps": round(base.queries_per_second, 1),
        "warm_hit_qps": round(hits.queries_per_second, 1),
        "warm_hit_p50_ms": round(hits.latency_percentile(50) * 1e3, 4),
        "hit_over_uncached": round(
            hits.queries_per_second / base.queries_per_second, 2
        ),
    }
    print(
        f"result cache: uncached {base.queries_per_second:9.1f} qps, "
        f"all-hit {hits.queries_per_second:9.1f} qps "
        f"({section['hit_over_uncached']}x)"
    )
    return section


def run_scenario_section(name: str, repeats: int) -> dict:
    """One scenario pack through the executor matrix, equivalence blocking.

    The pack is served from its columnar conversion (so ``block`` really
    vectorizes instead of falling back to the tuple pipeline), at the
    pack's own ``k``.  All three executors must produce identical
    outcome rows — on the adversarial packs this is exactly the
    boundary-tie / edge-of-k regime the canonical tie cut exists for, so
    a divergence here aborts the baseline.  Update-carrying packs replay
    their stream and re-assert equivalence on the post-update version.
    """
    from repro.datasets import build_scenario
    from repro.kg.columnar import ColumnarGraph

    pack = build_scenario(name)
    columnar = Workload(
        pack.workload.name,
        ColumnarGraph.from_graph(pack.workload.graph),
        pack.workload.rules,
        pack.workload.queries,
    )
    batch = list(columnar.queries)
    section: dict = {"manifest": pack.manifest()}
    runners = {}
    for executor in EXECUTORS:
        runners[executor] = WorkloadRunner(
            columnar,
            cache_capacity=FULL_CACHE,
            executor=executor,
            result_cache_capacity=0,
        )
        runners[executor].run(batch, k=pack.k, mode="warm")  # untimed
    outcomes = {}
    for executor in EXECUTORS:
        best = None
        for _ in range(repeats):
            report = runners[executor].run(batch, k=pack.k, mode="warm")
            if best is None or report.queries_per_second > best.queries_per_second:
                best = report
        outcomes[executor] = [(o.n_answers, o.top_score) for o in best.outcomes]
        section[f"{executor}_qps"] = round(best.queries_per_second, 1)
        print(
            f"scenario={name:<24s} executor={executor:<5s} "
            f"{best.queries_per_second:9.1f} qps"
        )
    for executor in ("block", "auto"):
        if outcomes[executor] != outcomes["tuple"]:
            raise SystemExit(
                f"scenario {name}: executor outcomes diverge "
                f"({executor} vs tuple) — baseline aborted"
            )
    if pack.updates:
        post = {}
        for executor in EXECUTORS:
            runner = runners[executor]
            counts = runner.apply_updates(list(pack.updates))
            report = runner.run(batch, k=pack.k, mode="warm")
            post[executor] = [(o.n_answers, o.top_score) for o in report.outcomes]
            section["updates_applied"] = counts["adds"] + counts["removes"]
        for executor in ("block", "auto"):
            if post[executor] != post["tuple"]:
                raise SystemExit(
                    f"scenario {name}: post-update outcomes diverge "
                    f"({executor} vs tuple) — baseline aborted"
                )
    return section


def render_diff(current: dict, prior_path: Path) -> str:
    """An informational qps table against a prior baseline JSON.

    Matches matrix cells on (executor, shards, cache_capacity); cells
    only one side has (e.g. the prior file predates ``auto``) are listed
    as new/dropped.  Never fails the run — timing drifts with hardware,
    and the blocking guarantees (equivalence, all-hit batches) already
    ran above.
    """
    prior = json.loads(prior_path.read_text())
    prior_runs = {
        (r["executor"], r["shards"], r["cache_capacity"]): r
        for r in prior.get("runs", [])
    }
    current_runs = {
        (r["executor"], r["shards"], r["cache_capacity"]): r
        for r in current["runs"]
    }
    lines = [
        f"qps vs {prior_path.name} ({prior.get('bench', 'unnamed baseline')}):",
        f"  {'cell':<34} {'prior':>10} {'now':>10} {'ratio':>7}",
    ]
    for key in sorted(current_runs, key=str):
        executor, shards, cache_capacity = key
        cell = f"executor={executor} shards={shards} cache={cache_capacity}"
        now = current_runs[key]["qps"]
        before = prior_runs.get(key)
        if before is None:
            lines.append(f"  {cell:<34} {'—':>10} {now:>10.1f} {'new':>7}")
            continue
        ratio = now / before["qps"] if before["qps"] else float("inf")
        lines.append(
            f"  {cell:<34} {before['qps']:>10.1f} {now:>10.1f} {ratio:>6.2f}x"
        )
    for key in sorted(set(prior_runs) - set(current_runs), key=str):
        executor, shards, cache_capacity = key
        cell = f"executor={executor} shards={shards} cache={cache_capacity}"
        lines.append(
            f"  {cell:<34} {prior_runs[key]['qps']:>10.1f} {'—':>10} "
            f"{'gone':>7}"
        )
    return "\n".join(lines)


def build_summary(
    profile: str, batch_size: int, repeats: int,
    scenarios: list[str] | None = None,
) -> dict:
    graph = generate_scaled_graph(profile, seed=SEED)
    workload = Workload(
        f"bench-{profile}", graph, RuleSet(), diverse_queries(n_predicates=32)
    )
    batch = workload.stretched(batch_size)
    runs, speedups = run_matrix(workload, batch, repeats)
    result_cache = run_result_cache_section(workload, batch, repeats)
    scenario_sections = {
        name: run_scenario_section(name, repeats) for name in scenarios or []
    }
    summary = {
        "bench": "executor x cache-capacity matrix + result-cache hit path",
        "profile": profile,
        "seed": SEED,
        "k": K,
        "batch": batch_size,
        "repeats": repeats,
        "n_triples": graph.size,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "runs": runs,
        "result_cache": result_cache,
        "speedups": speedups,
    }
    if scenario_sections:
        summary["scenarios"] = scenario_sections
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_PR9.json"), metavar="PATH"
    )
    parser.add_argument(
        "--profile", default="medium", choices=("smoke", "medium", "million")
    )
    parser.add_argument("--batch", type=int, default=120)
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed batches per cell; the best is reported (default 3)",
    )
    parser.add_argument(
        "--diff", default=None, metavar="PRIOR.json",
        help="also print an informational qps comparison against a prior "
        "baseline file (equivalence checks stay blocking regardless)",
    )
    parser.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        dest="scenarios",
        help="also run the named scenario pack through the executor matrix "
        "(repeatable; equivalence is blocking, incl. post-update); adds a "
        "per-scenario section to the JSON",
    )
    args = parser.parse_args(argv)

    summary = build_summary(
        args.profile, args.batch, args.repeats, scenarios=args.scenarios
    )
    output = Path(args.output)
    output.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {output} ({output.stat().st_size} bytes)")
    for name, value in summary["speedups"].items():
        print(f"  {name}: {value}x")
    print(
        f"  result_cache_hit_over_uncached: "
        f"{summary['result_cache']['hit_over_uncached']}x"
    )
    if args.diff:
        print()
        print(render_diff(summary, Path(args.diff)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
