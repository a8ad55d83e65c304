"""Command-line entry point: ``spec-qp`` / ``python -m repro.experiments``.

Examples::

    spec-qp table2 --dataset xkg
    spec-qp all --dataset twitter --scale small
    spec-qp fig7 --dataset xkg --ks 10 20
    spec-qp workload --min-queries 200 --workers 4 --mode both
    spec-qp workload --shards 4 --shard-strategy score-range
    spec-qp workload --scenario adversarial-ties --executor auto
    spec-qp convert --input graph.tsv --output graph.npz
    spec-qp update --input graph.npz --updates edits.tsv --output graph2.npz
    spec-qp update --scenario social-update-heavy
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.datasets import (
    TwitterConfig,
    Workload,
    XKGConfig,
    build_scenario,
    generate_twitter,
    generate_xkg,
    scenario_names,
)
from repro.errors import ExperimentError
from repro.experiments import table2, table3, table4
from repro.experiments.figures import render as render_figure
from repro.experiments.session import ExperimentSession
from repro.metrics.efficiency import TimingProtocol

EXPERIMENTS = (
    "table2", "table3", "table4", "fig6", "fig7", "fig8", "fig9", "all",
    "workload", "convert", "update",
)

#: Scales for quick runs vs full reproduction.
SCALES = {
    "small": dict(
        xkg=XKGConfig(n_entities=800, n_queries=24, n_topics=60),
        twitter=TwitterConfig(n_tweets=1500, n_queries=20),
    ),
    "default": dict(xkg=XKGConfig(), twitter=TwitterConfig()),
    "large": dict(
        xkg=XKGConfig(n_entities=8000, n_topics=300),
        twitter=TwitterConfig(n_tweets=20000, n_trends=50),
    ),
}


def build_workload(dataset: str, scale: str, seed: int | None) -> Workload:
    configs = SCALES.get(scale)
    if configs is None:
        raise ExperimentError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    if dataset == "xkg":
        config = configs["xkg"]
        if seed is not None:
            config = XKGConfig(**{**config.__dict__, "seed": seed})
        return generate_xkg(config)  # type: ignore[arg-type]
    if dataset == "twitter":
        config = configs["twitter"]
        if seed is not None:
            config = TwitterConfig(**{**config.__dict__, "seed": seed})
        return generate_twitter(config)  # type: ignore[arg-type]
    raise ExperimentError(f"unknown dataset {dataset!r}; choose 'xkg' or 'twitter'")


def _figures_for(dataset: str) -> dict[str, tuple[str, str]]:
    """experiment name -> (axis, figure label) valid for *dataset*."""
    if dataset == "xkg":
        return {"fig6": ("patterns", "Figure 6"), "fig7": ("relaxed", "Figure 7")}
    return {"fig8": ("patterns", "Figure 8"), "fig9": ("relaxed", "Figure 9")}


def run_experiment(
    name: str, session: ExperimentSession, chart: bool = False
) -> str:
    dataset = session.workload.name
    figures = _figures_for(dataset)
    if name == "table2":
        return table2.render(session)
    if name == "table3":
        return table3.render(session)
    if name == "table4":
        return table4.render(session)
    if name in figures:
        axis, label = figures[name]
        text = render_figure(session, axis, label)  # type: ignore[arg-type]
        if chart:
            from repro.experiments.figures import _figure
            from repro.experiments.plotting import render_chart

            groups = _figure(session, axis)  # type: ignore[arg-type]
            text += "\n\n" + render_chart(
                groups, "runtime", f"{label} — runtimes"
            )
            text += "\n\n" + render_chart(
                groups, "memory", f"{label} — answer objects"
            )
        return text
    if name in ("fig6", "fig7", "fig8", "fig9"):
        raise ExperimentError(
            f"{name} is reported on the "
            f"{'XKG' if name in ('fig6', 'fig7') else 'Twitter'} dataset; "
            f"current dataset is {dataset!r}"
        )
    raise ExperimentError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")


def _storage_format(path: str) -> str:
    """``'snapshot'``, ``'snapshot-v2'`` or ``'tsv'`` from a file name, or raise."""
    lowered = path.lower()
    if lowered.endswith(".npz"):
        return "snapshot"
    if lowered.endswith(".kg2"):
        return "snapshot-v2"
    if lowered.endswith((".tsv", ".tsv.gz")):
        return "tsv"
    raise ExperimentError(
        f"cannot infer storage format of {path!r}: "
        "use .tsv / .tsv.gz (scored TSV), .npz (v1 snapshot) or "
        ".kg2 (v2 packed snapshot, mmap-attachable)"
    )


def run_convert(args: "argparse.Namespace") -> int:
    """The ``convert`` subcommand: TSV ⇄ binary snapshot (v1 ⇄ v2).

    Formats are inferred from the file suffixes: ``.tsv``/``.tsv.gz``
    (scored TSV), ``.npz`` (v1 snapshot), ``.kg2`` (v2 packed snapshot —
    mmap-attachable in O(ms)).  Any input format converts to any output
    format.  TSV input streams straight into the columnar backend
    (interned once, never an object-per-triple dict), so converting a
    large graph to a snapshot is a one-time cost that every later load
    skips.
    """
    import time

    from repro.errors import KnowledgeGraphError
    from repro.kg import storage

    if not args.input or not args.output:
        raise ExperimentError("convert requires --input and --output")
    in_format = _storage_format(args.input)
    out_format = _storage_format(args.output)
    started = time.perf_counter()
    try:
        graph = _load_graph(args.input, args.graph_name)
        if out_format == "snapshot":
            count = storage.save_snapshot(graph, args.output)
        elif out_format == "snapshot-v2":
            count = storage.save_snapshot_v2(graph, args.output)
        else:
            count = storage.save_tsv(graph, args.output)
    except (KnowledgeGraphError, OSError) as error:
        raise ExperimentError(f"convert failed: {error}") from None
    seconds = time.perf_counter() - started
    print(
        f"converted {args.input} ({in_format}) -> {args.output} ({out_format}): "
        f"{count} triples, {graph.store.n_terms} terms, {seconds:.2f}s"
    )
    return 0


def _load_graph(path: str, name: str | None):
    """Load a TSV or snapshot graph straight into the columnar backend."""
    from pathlib import Path

    from repro.kg import storage
    from repro.kg.columnar import ColumnarGraph

    fmt = _storage_format(path)
    if fmt == "snapshot-v2":
        return storage.load_snapshot_v2(path, name=name)
    if fmt == "snapshot":
        # content-dispatches, so a v2 file renamed .npz still loads
        return storage.load_snapshot(path, name=name)
    return ColumnarGraph.from_triples(
        storage.iter_tsv(path), name=name or Path(path).stem
    )


def run_update(args: "argparse.Namespace") -> int:
    """The ``update`` subcommand: apply a mutation TSV through the delta path.

    Loads the base graph (TSV or snapshot), overlays a
    :class:`~repro.kg.delta.LiveGraph` with the requested
    ``--compact-threshold``, streams the ``+``/``-`` mutations through
    it, compacts whatever delta remains (the written graph is always a
    plain columnar store) and saves the result — never a full
    object-graph rebuild.
    """
    import time

    from repro.errors import KnowledgeGraphError
    from repro.kg import storage
    from repro.kg.delta import LiveGraph

    if args.scenario:
        return _run_scenario_update(args)
    if not args.input or not args.updates or not args.output:
        raise ExperimentError(
            "update requires --input, --updates and --output (or --scenario)"
        )
    out_format = _storage_format(args.output)
    started = time.perf_counter()
    try:
        base = _load_graph(args.input, args.graph_name)
        live = LiveGraph(base, compact_threshold=args.compact_threshold)
        counts = live.apply_updates(storage.iter_update_tsv(args.updates))
        live.compact()
        result = live.base  # the folded columnar graph, snapshot-ready
        if out_format == "snapshot":
            storage.save_snapshot(result, args.output)
        elif out_format == "snapshot-v2":
            storage.save_snapshot_v2(result, args.output)
        else:
            storage.save_tsv(result, args.output)
    except (KnowledgeGraphError, OSError) as error:
        raise ExperimentError(f"update failed: {error}") from None
    seconds = time.perf_counter() - started
    print(
        f"applied {counts['adds']} adds / {counts['removes']} removes "
        f"({counts['absent_removes']} absent) from {args.updates} to {args.input}: "
        f"{result.size} triples, {live.compactions} compactions, "
        f"wrote {args.output} ({out_format}), {seconds:.2f}s"
    )
    return 0


def _run_scenario_update(args: "argparse.Namespace") -> int:
    """``update --scenario NAME``: drive the pack's own update stream.

    Streams the pack's generated mutations over its graph through the
    same :class:`~repro.kg.delta.LiveGraph` path the file-based update
    command uses, then compacts; ``--output`` optionally persists the
    post-update graph.  The pack's graph and stream are seed-deterministic,
    so this is a reproducible end-to-end smoke of the write path.
    """
    import time

    from repro.errors import KnowledgeGraphError
    from repro.kg import storage
    from repro.kg.delta import LiveGraph

    pack = build_scenario(args.scenario, seed=args.seed)
    if not pack.updates:
        raise ExperimentError(
            f"scenario {pack.name!r} ships no update stream; "
            "choose an update-carrying pack (e.g. social-update-heavy)"
        )
    started = time.perf_counter()
    try:
        live = LiveGraph(
            pack.workload.graph, compact_threshold=args.compact_threshold
        )
        counts = live.apply_updates(pack.updates)
        live.compact()
        result = live.base
        if args.output:
            fmt = _storage_format(args.output)
            if fmt == "snapshot":
                storage.save_snapshot(result, args.output)
            elif fmt == "snapshot-v2":
                storage.save_snapshot_v2(result, args.output)
            else:
                storage.save_tsv(result, args.output)
    except (KnowledgeGraphError, OSError) as error:
        raise ExperimentError(f"update failed: {error}") from None
    seconds = time.perf_counter() - started
    wrote = f", wrote {args.output}" if args.output else ""
    print(
        f"scenario {pack.name} (seed {pack.seed}): applied {counts['adds']} adds "
        f"/ {counts['removes']} removes ({counts['absent_removes']} absent): "
        f"{result.size} triples, {live.compactions} compactions{wrote}, "
        f"{seconds:.2f}s"
    )
    return 0


def run_workload(args: "argparse.Namespace") -> int:
    """The ``workload`` subcommand: batch serving through the service layer."""
    from repro.service import WorkloadRunner

    pack = None
    if args.scenario:
        pack = build_scenario(args.scenario, seed=args.seed)
        workload = pack.workload
        print(f"# scenario: {pack.name} (seed {pack.seed}) — {pack.description}")
    else:
        workload = build_workload(args.dataset, args.scale, args.seed)
    if args.k is None:
        args.k = pack.k if pack else 10
    queries = workload.stretched(max(args.min_queries, len(workload.queries)))
    runner_kwargs: dict = {}
    if args.result_cache is not None:
        runner_kwargs["result_cache_capacity"] = args.result_cache
    runner = WorkloadRunner(
        workload,
        n_workers=args.workers,
        worker_model=args.worker_model,
        shards=args.shards,
        shard_strategy=args.shard_strategy,
        executor=args.executor,
        **runner_kwargs,
    )
    print(f"# workload: {workload.summary()}")
    print(
        f"# batch: {len(queries)} queries, k={args.k}, mode={args.mode}, "
        f"executor={args.executor}, worker-model={args.worker_model}"
    )
    if args.executor in ("block", "auto") and args.shards == 1 and not hasattr(
        runner.graph, "store"
    ):
        print(
            "# note: the workload graph is object-backed; the block "
            "executor falls back to the tuple pipeline (convert to the "
            "columnar backend or pass --shards >= 2 to vectorize)"
        )
    if args.shards > 1:
        sizes = runner.graph.shard_sizes()
        print(
            f"# sharding: {args.shards} shards ({args.shard_strategy}), "
            f"sizes={list(sizes)}"
        )

    try:
        if args.mode == "both":
            comparison = runner.compare(queries, k=args.k)
            print()
            print(comparison["cold"].render())  # type: ignore[union-attr]
            print()
            print(comparison["warm"].render())  # type: ignore[union-attr]
            print()
            print(f"warm-over-cold speed-up: {comparison['speedup']:.2f}x")
            if args.workers > 1:
                print(
                    f"# note: warm ran on {args.workers} workers, cold is always "
                    "sequential; use --workers 1 to attribute the speed-up to "
                    "caching alone"
                )
        else:
            report = runner.run(queries, k=args.k, mode=args.mode)
            print()
            print(report.render())
        if pack is not None and pack.updates and args.mode != "cold":
            # Update-carrying packs smoke the full serve → write → re-serve
            # loop: the second warm batch runs on the post-update version.
            counts = runner.apply_updates(list(pack.updates))
            print()
            print(
                f"# scenario update stream: {counts['adds']} adds / "
                f"{counts['removes']} removes ({counts['absent_removes']} absent), "
                f"graph version {counts['graph_version']}"
            )
            post = runner.run(queries, k=args.k, mode="warm")
            print()
            print(post.render())
    finally:
        runner.close()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spec-qp",
        description="Reproduce Spec-QP's tables and figures on synthetic workloads.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--dataset", choices=("xkg", "twitter"), default="xkg")
    parser.add_argument("--scale", choices=sorted(SCALES), default="default")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--ks", type=int, nargs="+", default=[10, 15, 20], metavar="K"
    )
    parser.add_argument(
        "--runs", type=int, default=5,
        help="timing runs per query (paper: 5, average of last 3)",
    )
    parser.add_argument(
        "--chart", action="store_true",
        help="append ASCII bar charts to figure outputs",
    )
    service = parser.add_argument_group(
        "workload", "options for the batch-serving 'workload' experiment"
    )
    service.add_argument(
        "--min-queries", type=int, default=100,
        help="stretch the query set to at least this many queries (default 100)",
    )
    service.add_argument(
        "--workers", type=int, default=1,
        help="workers for warm batches (default 1)",
    )
    service.add_argument(
        "--worker-model", choices=("thread", "process"), default="thread",
        help="warm-batch worker pool: GIL-sharing threads (default), or "
        "processes that each mmap-attach one shared v2 snapshot of the "
        "graph (true multi-core; answers identical)",
    )
    service.add_argument(
        "--k", type=int, default=None,
        help="top-k per query (default 10, or the scenario pack's k)",
    )
    service.add_argument(
        "--scenario", choices=scenario_names(), default=None, metavar="NAME",
        help="serve a named scenario pack instead of --dataset/--scale "
        "(seed-deterministic coverage workloads; --seed overrides the "
        "pack's frozen seed; update-carrying packs replay their update "
        "stream after the batch).  One of: " + ", ".join(scenario_names()),
    )
    service.add_argument(
        "--mode", choices=("warm", "cold", "both"), default="warm",
        help="shared caches (warm), per-query rebuild (cold), or both",
    )
    service.add_argument(
        "--shards", type=int, default=1,
        help="partition the graph into N shards with lazy per-shard "
        "top-k merging (default 1 = unsharded)",
    )
    service.add_argument(
        "--shard-strategy", choices=("hash-subject", "score-range"),
        default="score-range",
        help="row partitioning: stable subject hash, or contiguous "
        "score ranges (default; hottest triples in shard 0)",
    )
    service.add_argument(
        "--executor", choices=("tuple", "block", "auto"), default="tuple",
        help="execution strategy: tuple-at-a-time operators (default), "
        "the vectorized block-at-a-time engine over encoded columns, or "
        "'auto' = block where the backend has id columns, tuple otherwise "
        "(identical answers under all three)",
    )
    service.add_argument(
        "--result-cache", type=int, default=None, metavar="N",
        help="capacity of the versioned whole-answer result cache "
        "(0 disables it; default: the runner's built-in capacity)",
    )
    convert = parser.add_argument_group(
        "convert", "options for the 'convert' storage subcommand (TSV ⇄ snapshot)"
    )
    convert.add_argument(
        "--input", default=None, metavar="PATH",
        help="source graph: .tsv / .tsv.gz (scored TSV), .npz (v1 snapshot) "
        "or .kg2 (v2 packed snapshot)",
    )
    convert.add_argument(
        "--output", default=None, metavar="PATH",
        help="destination graph; format inferred from the suffix",
    )
    convert.add_argument(
        "--graph-name", default=None,
        help="name for the converted graph (default: input stem / stored name)",
    )
    update = parser.add_argument_group(
        "update", "options for the 'update' live-mutation subcommand"
    )
    update.add_argument(
        "--updates", default=None, metavar="PATH",
        help="mutation TSV: '+<TAB>s<TAB>p<TAB>o[<TAB>score]' adds or "
        "overwrites, '-<TAB>s<TAB>p<TAB>o' removes (applied in order to "
        "the --input graph, result written to --output)",
    )
    update.add_argument(
        "--compact-threshold", type=int, default=None, metavar="N",
        help="fold the delta into a fresh columnar base every N pending "
        "mutations while applying (default: one compaction at the end)",
    )
    args = parser.parse_args(argv)

    try:
        return _dispatch(args)
    except ExperimentError as error:
        print(f"spec-qp: error: {error}", file=sys.stderr)
        return 2


def _dispatch(args: "argparse.Namespace") -> int:
    if args.experiment == "convert":
        return run_convert(args)
    if args.experiment == "update":
        return run_update(args)
    if args.experiment == "workload":
        return run_workload(args)

    workload = build_workload(args.dataset, args.scale, args.seed)
    # Paper protocol: discard warm-up runs.  Keep the last 3 runs when
    # possible, and never keep the cold first run unless it is the only one.
    n_keep = min(3, max(args.runs - 2, 1))
    protocol = TimingProtocol(n_runs=args.runs, n_keep=n_keep)
    session = ExperimentSession(
        workload, ks=tuple(args.ks), protocol=protocol
    )

    if args.experiment == "all":
        names = ["table2", "table3", "table4", *sorted(_figures_for(args.dataset))]
    else:
        names = [args.experiment]

    print(f"# workload: {workload.summary()}")
    for name in names:
        print()
        print(run_experiment(name, session, chart=args.chart))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
