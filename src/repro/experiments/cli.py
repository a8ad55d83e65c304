"""Command-line entry point: ``spec-qp`` / ``python -m repro.experiments``.

Examples::

    spec-qp table2 --dataset xkg
    spec-qp all --dataset twitter --scale small
    spec-qp fig7 --dataset xkg --ks 10 20
    spec-qp workload --min-queries 200
    spec-qp workload --scenario adversarial-ties
    spec-qp convert --input graph.tsv --output graph.kg2
    spec-qp update --input graph.kg2 --updates edits.tsv --output graph2.kg2
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
    """``'snapshot-v2'`` or ``'tsv'`` from a file name, or raise."""
    lowered = path.lower()
    if lowered.endswith(".kg2"):
        return "snapshot-v2"
    if lowered.endswith((".tsv", ".tsv.gz")):
        return "tsv"
    raise ExperimentError(
        f"cannot infer storage format of {path!r}: "
        "use .tsv / .tsv.gz (scored TSV) or .kg2 (packed snapshot, "
        "mmap-attachable)"
    )


def _save_graph(graph, path: str) -> int:
    from repro.kg import storage

    if _storage_format(path) == "snapshot-v2":
        return storage.save_snapshot_v2(graph, path)
    return storage.save_tsv(graph, path)


def run_convert(args: "argparse.Namespace") -> int:
    """The ``convert`` subcommand: TSV ⇄ packed snapshot.

    Formats are inferred from the file suffixes: ``.tsv``/``.tsv.gz``
    (scored TSV) and ``.kg2`` (packed snapshot — mmap-attachable in O(ms)).  TSV
    input streams straight into the columnar backend (interned once,
    never an object-per-triple dict), so converting a large graph to a
    snapshot is a one-time cost that every later load skips.
    """
    import time

    from repro.errors import KnowledgeGraphError

    if not args.input or not args.output:
        raise ExperimentError("convert requires --input and --output")
    in_format = _storage_format(args.input)
    out_format = _storage_format(args.output)
    started = time.perf_counter()
    try:
        graph = _load_graph(args.input, args.graph_name)
        count = _save_graph(graph, args.output)
    except (KnowledgeGraphError, OSError) as error:
        raise ExperimentError(f"convert failed: {error}") from None
    seconds = time.perf_counter() - started
    print(
        f"converted {args.input} ({in_format}) -> {args.output} ({out_format}): "
        f"{count} triples, {graph.store.n_terms} terms, {seconds:.2f}s"
    )
    return 0


def _load_graph(path: str, name: str | None):
    """Load a TSV or packed-snapshot graph straight into the columnar
    backend."""
    from pathlib import Path

    from repro.kg import storage
    from repro.kg.columnar import ColumnarGraph

    fmt = _storage_format(path)
    if fmt == "snapshot-v2":
        return storage.load_snapshot_v2(path, name=name)
    return ColumnarGraph.from_triples(
        storage.iter_tsv(path), name=name or Path(path).stem
    )


def run_update(args: "argparse.Namespace") -> int:
    """The ``update`` subcommand: apply mutations through the delta path.

    Loads the base graph (TSV or snapshot) and its ``--updates`` mutation
    TSV — or, with ``--scenario``, the pack's graph and its own generated
    update stream (seed-deterministic, so a reproducible end-to-end smoke
    of the write path).  Overlays a :class:`~repro.kg.delta.LiveGraph`
    with the requested ``--compact-threshold``, streams the ``+``/``-``
    mutations through it, compacts whatever delta remains (the written
    graph is always a plain columnar store) and saves the result to
    ``--output`` (optional with ``--scenario``) — never a full
    object-graph rebuild.
    """
    import time

    from repro.errors import KnowledgeGraphError
    from repro.kg import storage
    from repro.kg.delta import LiveGraph

    pack = build_scenario(args.scenario, seed=args.seed) if args.scenario else None
    if pack is not None and not pack.updates:
        raise ExperimentError(
            f"scenario {pack.name!r} ships no update stream; "
            "choose an update-carrying pack (e.g. social-update-heavy)"
        )
    if pack is None and not (args.input and args.updates and args.output):
        raise ExperimentError(
            "update requires --input, --updates and --output (or --scenario)"
        )
    out_format = _storage_format(args.output) if args.output else None
    started = time.perf_counter()
    try:
        if pack is not None:
            base, updates = pack.workload.graph, pack.updates
        else:
            base = _load_graph(args.input, args.graph_name)
            updates = storage.iter_update_tsv(args.updates)
        live = LiveGraph(base, compact_threshold=args.compact_threshold)
        counts = live.apply_updates(updates)
        live.compact()
        result = live.base  # the folded columnar graph, snapshot-ready
        if args.output:
            _save_graph(result, args.output)
    except (KnowledgeGraphError, OSError) as error:
        raise ExperimentError(f"update failed: {error}") from None
    seconds = time.perf_counter() - started
    source = f" from {args.updates} to {args.input}" if pack is None else ""
    wrote = f", wrote {args.output} ({out_format})" if args.output else ""
    print(
        (f"scenario {pack.name} (seed {pack.seed}): " if pack is not None else "")
        + f"applied {counts['adds']} adds / {counts['removes']} removes "
        f"({counts['absent_removes']} absent){source}: {result.size} triples, "
        f"{live.compactions} compactions{wrote}, {seconds:.2f}s"
    )
    return 0


def run_workload(args: "argparse.Namespace") -> int:
    """The ``workload`` subcommand: batch serving through the service layer.

    The generated graph is frozen into columns before serving — nothing
    here mutates it outside :meth:`~repro.service.WorkloadRunner.apply_updates`,
    which overlays it — and served by the block pipeline.
    """
    from dataclasses import replace

    from repro.kg.columnar import ColumnarGraph
    from repro.service import WorkloadRunner

    pack = None
    if args.scenario:
        pack = build_scenario(args.scenario, seed=args.seed)
        workload = pack.workload
        print(f"# scenario: {pack.name} (seed {pack.seed}) — {pack.description}")
    else:
        workload = build_workload(args.dataset, args.scale, args.seed)
    workload = replace(workload, graph=ColumnarGraph.from_graph(workload.graph))
    if args.k is None:
        args.k = pack.k if pack else 10
    queries = workload.stretched(max(args.min_queries, len(workload.queries)))
    runner_kwargs: dict = {}
    if args.result_cache is not None:
        runner_kwargs["result_cache_capacity"] = args.result_cache
    runner = WorkloadRunner(workload, **runner_kwargs)
    print(f"# workload: {workload.summary()}")
    print(f"# batch: {len(queries)} queries, k={args.k}")
    report = runner.run(queries, k=args.k)
    print()
    print(report.render())
    if pack is not None and pack.updates:
        # Update-carrying packs smoke the full serve → write → re-serve
        # loop: the second warm batch runs on the post-update version.
        counts = runner.apply_updates(list(pack.updates))
        print()
        print(
            f"# scenario update stream: {counts['adds']} adds / "
            f"{counts['removes']} removes ({counts['absent_removes']} absent), "
            f"graph version {counts['graph_version']}"
        )
        post = runner.run(queries, k=args.k)
        print()
        print(post.render())
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
        "--result-cache", type=int, default=None, metavar="N",
        help="capacity of the versioned whole-answer result cache "
        "(0 disables it; default: the runner's built-in capacity)",
    )
    convert = parser.add_argument_group(
        "convert", "options for the 'convert' storage subcommand (TSV ⇄ snapshot)"
    )
    convert.add_argument(
        "--input", default=None, metavar="PATH",
        help="source graph: .tsv / .tsv.gz (scored TSV) or .kg2 (packed "
        "snapshot)",
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
