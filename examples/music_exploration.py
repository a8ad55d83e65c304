#!/usr/bin/env python
"""Exploring a generated XKG-style knowledge graph with mined relaxations.

This example exercises the *offline pipeline* a downstream user would run
on their own data:

1. generate (or load) a scored knowledge graph,
2. mine weighted relaxation rules from instance overlap,
3. build the statistics catalog,
4. interactively answer top-k queries, inspecting the speculative plans.

Run:  python examples/music_exploration.py
"""

from repro import EngineConfig, SpecQPEngine
from repro.datasets import XKGConfig, generate_xkg
from repro.query.rewrite import space_size


def main() -> None:
    # 1-2. Generate a KG + mined rules + example queries in one call.
    workload = generate_xkg(
        XKGConfig(n_domains=5, n_entities=1200, n_topics=80, n_queries=10, seed=3)
    )
    print("workload:", workload.summary())

    engine = SpecQPEngine(workload.graph, workload.rules, EngineConfig(k=10))

    # 3. Warm the statistics catalog offline (the paper's precomputation).
    stats = engine.catalog.precompute(queries=workload.queries)
    print("catalog warmed:", stats)

    # 4. Run every query; show the plan and the quality of its answers.
    for query in workload.queries[:6]:
        variants = space_size(query, workload.rules)
        decision = engine.plan(query)
        spec = engine.query(query)
        trinit = engine.query_trinit(query)
        overlap = {a.bindings for a in spec.answers} & {
            a.bindings for a in trinit.answers
        }
        precision = len(overlap) / max(len(trinit.answers), 1)

        print(f"\n{query.name}: {len(query)} patterns, "
              f"{variants} relaxation variants")
        print(f"  plan {decision.plan.describe()} "
              f"(E_Q(k)={decision.expected_kth_original:.3f})")
        for pattern_decision in decision.per_pattern:
            marker = "RELAX" if pattern_decision.relax else "keep "
            rule = pattern_decision.tested_rule
            tested = f"w={rule.weight:.2f}" if rule else "no rules"
            print(f"    [{marker}] {pattern_decision.pattern}  "
                  f"({tested}, E_Q'(1)={pattern_decision.expected_relaxed_top:.3f})")
        print(f"  precision@10={precision:.2f}  "
              f"objects S={spec.answer_objects_created} "
              f"T={trinit.answer_objects_created}  "
              f"time S={spec.total_seconds * 1000:.1f}ms "
              f"T={trinit.total_seconds * 1000:.1f}ms")


if __name__ == "__main__":
    main()
