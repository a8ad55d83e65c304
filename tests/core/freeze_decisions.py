#!/usr/bin/env python
"""Freeze PLANGEN's decisions and expected scores into ``golden_decisions.json``.

The fixture beside this script was written **at commit b85563a** (the
parent of the closed-form convolve→refit kernel), where one step was a
1e-9-inset trapezoid evaluation followed by 48 bisection halvings.  It
records, for the tiny XKG and Twitter workloads and every scenario pack
at k ∈ {3, 5, 10}, what Algorithm 1 decided for each query
(``relaxed_indexes``) and the two quantities it compared
(``expected_kth_original`` and each pattern's ``expected_relaxed_top``).
``test_decision_freeze.py`` replays the same workloads through the
current planner: every decision must repeat exactly and every value to
1e-8 relative, so a change to the statistics arithmetic cannot move a
plan unnoticed.

``thin_bucket`` marks the queries where a tested histogram has
``σ_r`` equal to its top score (tied best matches), so that
``to_density`` clamps a bucket to a relative width of 1e-9.  On a ramp
that narrow one ulp of a corner's position is 2e-7 of the height, and
the old kernel merged corners within 1e-12 and evaluated beside them:
the frozen values themselves are off by up to 6.2e-8 relative there
(elsewhere the two kernels agree to 8e-11), which exact rational
arithmetic settles in ``tests/property/test_stats_property.py``.  The
replay holds those queries to 1e-7.

Only the public engine surface is used, so the script runs unchanged at
any commit::

    PYTHONPATH=src python tests/core/freeze_decisions.py --write

Regenerate only when an estimator change is *meant* to move decisions,
and say so in the commit.  ``--write`` keeps every frozen value whose
fresh twin repeats the decision and lies inside the replay's tolerance,
so a rewrite changes only what moved.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Iterator

from repro.core.engine import SpecQPEngine
from repro.datasets import (
    TwitterConfig,
    XKGConfig,
    build_scenario,
    generate_twitter,
    generate_xkg,
    scenario_names,
)
from repro.datasets.workload import Workload
from repro.query.query import TriplePatternQuery
from repro.query.rewrite import top_weighted_relaxation

GOLDEN_PATH = Path(__file__).parent / "golden_decisions.json"

KS = (3, 5, 10)

#: The relative tolerances ``test_decision_freeze.py`` replays with: on
#: every value, and on the values of the ``thin_bucket`` queries.
REL_TOL = 1e-8
THIN_REL_TOL = 1e-7

#: The ``tiny_xkg_workload`` / ``tiny_twitter_workload`` fixtures of
#: ``tests/conftest.py`` (what the golden tables are frozen on).
TINY_XKG = XKGConfig(
    n_domains=4, types_per_domain=12, n_entities=400, n_topics=40,
    n_queries=12, seed=11,
)
TINY_TWITTER = TwitterConfig(
    n_tweets=800, n_trends=10, vocabulary_per_trend=20, n_queries=10, seed=13,
)


def workloads() -> Iterator[tuple[str, Workload]]:
    yield "tiny-xkg", generate_xkg(TINY_XKG)
    yield "tiny-twitter", generate_twitter(TINY_TWITTER)
    for name in scenario_names():
        yield name, build_scenario(name).workload


def _has_thin_bucket(engine: SpecQPEngine, query: TriplePatternQuery) -> bool:
    """Whether PLANGEN reads, for *query*, a histogram whose boundary sits
    on an end of its support (``to_density`` then clamps a bucket to a
    relative width of 1e-9)."""
    tested = list(query.patterns)
    for pattern in query.patterns:
        rule = top_weighted_relaxation(query, pattern, engine.rules)
        if rule is not None:
            tested.append(rule.range)
    histograms = [engine.catalog.histogram(pattern) for pattern in tested]
    return any(
        h.count > 0 and not h.high * 1e-9 < h.sigma < h.high * (1.0 - 1e-9)
        for h in histograms
    )


def freeze(workload: Workload) -> dict[str, dict[str, object]]:
    """``{query name: {"thin_bucket": ..., "plans": {k: decision record}}}``
    from a fresh engine."""
    engine = SpecQPEngine(workload.graph, workload.rules)
    frozen: dict[str, dict[str, object]] = {}
    for query in workload.queries:
        plans = {}
        for k in KS:
            decision = engine.plan(query, k)
            plans[str(k)] = {
                "relaxed_indexes": list(decision.relaxed_indexes),
                "expected_kth_original": decision.expected_kth_original,
                "expected_relaxed_top": [
                    d.expected_relaxed_top for d in decision.per_pattern
                ],
            }
        frozen[query.name] = {
            "thin_bucket": _has_thin_bucket(engine, query),
            "plans": plans,
        }
    return frozen


def _within(fresh: float, frozen: float, rel: float) -> bool:
    """Whether *fresh* replays *frozen* to *rel* (``pytest.approx``'s
    test with no absolute slack)."""
    return fresh == frozen or abs(fresh - frozen) <= rel * abs(frozen)


def keep_frozen(
    fresh: dict[str, dict[str, object]], frozen: dict[str, dict[str, object]]
) -> dict[str, dict[str, object]]:
    """*fresh* with each value that replays its *frozen* twin — same
    ``thin_bucket``, same decision, inside the tolerance — set back to
    the frozen one."""
    for query_name, record in fresh.items():
        old = frozen.get(query_name)
        if old is None or old["thin_bucket"] != record["thin_bucket"]:
            continue
        rel = THIN_REL_TOL if record["thin_bucket"] else REL_TOL
        for k, plan in record["plans"].items():
            was = old["plans"].get(k)
            if was is None or was["relaxed_indexes"] != plan["relaxed_indexes"]:
                continue
            if _within(plan["expected_kth_original"], was["expected_kth_original"], rel):
                plan["expected_kth_original"] = was["expected_kth_original"]
            plan["expected_relaxed_top"] = [
                before if _within(now, before, rel) else now
                for now, before in zip(
                    plan["expected_relaxed_top"], was["expected_relaxed_top"], strict=True
                )
            ]
    return fresh


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true",
        help="overwrite golden_decisions.json instead of printing a summary",
    )
    args = parser.parse_args(argv)
    frozen = {name: freeze(workload) for name, workload in workloads()}
    for name, queries in frozen.items():
        print(f"{name:<26s} queries={len(queries):<4d} plans={len(queries) * len(KS)}")
    if args.write:
        golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        frozen = {
            name: keep_frozen(queries, golden.get(name, {}))
            for name, queries in frozen.items()
        }
        GOLDEN_PATH.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
