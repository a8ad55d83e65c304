"""One fixed, seeded stream of writes over the served write path.

The deterministic twin of the write-path state machine
(``test_write_path_machine.py``), collected before it: a
:class:`~repro.service.WorkloadRunner` serves a tiny XKG ``.kg2``
snapshot attached by ``mmap``, and one stream of update batches —
re-scores, removes, adds of subjects no dictionary holds, and one
compaction — is replayed over it.  Before the first batch and after each
one:

* every list the encoded store holds has a fresh build's rows
  (:func:`held_lists.assert_held_list`), so a patch, a carried list or a
  merge that keeps the wrong row fails here;
* every query's served answers equal the oracle's
  (:meth:`~repro.baselines.naive.NaiveEngine.evaluate`) for the plan a
  fresh engine picks at that version.

A wrong list fails on a named batch in seconds, where the machine may
first shrink its failing sequence for minutes.
"""

from __future__ import annotations

import random

from held_lists import assert_held_list

from repro.baselines.naive import NaiveEngine
from repro.core.config import EngineConfig
from repro.core.engine import SpecQPEngine
from repro.core.plan import relaxation_inputs
from repro.datasets.workload import Workload
from repro.kg.columnar import ColumnarGraph, ColumnarStore
from repro.kg.delta import GraphUpdate
from repro.kg.storage import load_snapshot_v2, save_snapshot_v2
from repro.operators.block import (
    TermCodec,
    build_encoded_match_list,
    build_merged_match_list,
)
from repro.relax.rules import RuleSet
from repro.service import WorkloadRunner

K = 5
SEED = 20
N_BATCHES = 8
#: The batch that also compacts the overlay into a new base.
COMPACT_AT = 4


def seeded_batch(rng: random.Random, graph, new_terms: int) -> list[GraphUpdate]:
    """Five re-scores, two removes and two adds of new subjects, each
    new subject typed like an existing triple."""
    triples = sorted(graph.triples(), key=lambda triple: triple.spo)
    picked = rng.sample(triples, 7)
    batch = [GraphUpdate.add(*t.spo, float(rng.randint(1, 60))) for t in picked[:5]]
    batch += [GraphUpdate.remove(*t.spo) for t in picked[5:]]
    for at in range(2):
        like = rng.choice(triples)
        batch.append(
            GraphUpdate.add(
                f"new{new_terms + at}", like.predicate, like.object,
                float(rng.randint(1, 60)),
            )
        )
    return batch


def assert_store_and_reads_exact(runner: WorkloadRunner, rules: RuleSet, stage: str):
    graph = runner.graph
    fresh = ColumnarGraph(ColumnarStore.from_triples(graph.triples()))
    fresh_codec = TermCodec(fresh.store)
    store = runner.encoded_store
    codec = store.codec(graph)
    for key, held in list(store._lists.items()):
        if isinstance(key, tuple):  # a merged list: (pattern, variant)
            pattern, (cap, _, rules_version) = key
            if rules_version != rules.version:
                continue  # merged under a superseded rule set
            expected = build_merged_match_list(
                fresh, relaxation_inputs(pattern, rules, cap), fresh_codec
            )
        else:
            expected = build_encoded_match_list(fresh, key, fresh_codec)
        assert_held_list(held, expected, codec, fresh_codec, (stage, key))
    engine = SpecQPEngine(fresh, rules, runner.config, executor="block")
    oracle = NaiveEngine(graph, rules)
    for query in runner.workload.queries:
        served = runner.execute_query(query, K)
        expected = oracle.evaluate(engine.plan(query, K).plan, K)
        assert [(a.bindings, a.score) for a in served] == [
            (a.bindings, a.score) for a in expected
        ], (stage, query.name)


def test_a_fixed_write_stream_keeps_held_lists_and_reads_exact(
    tiny_xkg_workload, tmp_path
):
    path = tmp_path / "tiny.kg2"
    save_snapshot_v2(tiny_xkg_workload.graph, path)
    rules = RuleSet(list(tiny_xkg_workload.rules))
    runner = WorkloadRunner(
        Workload(
            tiny_xkg_workload.name,
            load_snapshot_v2(path, mmap=True),
            rules,
            tiny_xkg_workload.queries,
        ),
        config=EngineConfig(k=K),
    )
    rng = random.Random(SEED)
    assert_store_and_reads_exact(runner, rules, "before any batch")
    for at in range(N_BATCHES):
        before = runner.graph.version
        stats = runner.apply_updates(
            seeded_batch(rng, runner.graph, 2 * at), compact=at == COMPACT_AT
        )
        assert runner.graph.version > before
        assert bool(stats.get("compacted")) == (at == COMPACT_AT)
        assert_store_and_reads_exact(runner, rules, f"batch {at}")
