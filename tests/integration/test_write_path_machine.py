"""A state machine over the served write path.

Reads, update batches — some failing midway —, compactions and rule adds
interleave in any order over a :class:`~repro.service.WorkloadRunner`
serving a tiny XKG ``.kg2`` snapshot.  The writer gate, the versioned graph, the touched-key journal,
the versioned rule set and the caches that read them form a small
data-aware transition system (in the sense of DB-nets); its invariants
are checked after every step:

* every read equals a fresh engine over
  ``ColumnarStore.from_triples(graph.triples())`` at that version;
* the graph version rises with every write and never falls;
* every list the encoded store holds decodes — terms and score bytes —
  equal to a fresh build at the current version, so a list patched or
  carried across a write or a compaction is never stale, and every key
  order it caches equals ``sorted_key_order`` over a fresh build under
  the store's codec;
* every decision in the runner planner's decision memo that a request
  would replay now — keyed under the current rule set, every histogram
  it read still the catalog's — equals, in relaxed indexes, ``E_Q(k)``
  and every tested ``E_Q'(1)`` to the bit, a fresh planner's over a
  fresh catalog at the current version, computed without the
  expected-score memo; so join counts a write kept, and scores the memo
  served, are never stale;
* every answer set in the runner's result cache equals a fresh engine's,
  and every answer entry is tagged with the current graph version.  The
  check covers the entries a request would find now, by the keys the
  runner builds; one keyed under a superseded rule set is never served
  again;
* no stored array is writable.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from operator import is_not
from unittest import mock

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.config import EngineConfig
from repro.core.engine import SpecQPEngine
from repro.core.estimator import QueryDistribution
from repro.core.plan import relaxation_inputs
from repro.core.planner import SpecQPPlanner
from repro.datasets.workload import Workload
from repro.errors import KnowledgeGraphError
from repro.kg.columnar import ColumnarGraph, ColumnarStore
from repro.kg.delta import GraphUpdate
from repro.kg.storage import load_snapshot_v2, save_snapshot_v2
from repro.operators.block import (
    EncodedMatchList,
    TermCodec,
    build_encoded_match_list,
    build_merged_match_list,
    sorted_key_order,
)
from repro.relax.rules import RelaxationRule, RuleSet
from repro.service import WorkloadRunner, result_key
from repro.stats.order_statistics import expected_kth_score

K = 5


def decoded(encoded: EncodedMatchList, codec: TermCodec) -> tuple:
    rows = [tuple(codec.decode(int(i)) for i in row) for row in zip(*encoded.columns)]
    return encoded.var_names, rows, encoded.scores.tobytes(), encoded.max_score


def direct_score(distribution: QueryDistribution, rank: int) -> float:
    if distribution.count <= 0 or distribution.count < rank:
        return 0.0
    return expected_kth_score(distribution.density, rank, distribution.count)


@contextmanager
def memo_less():
    """PLANGEN with every expected score computed afresh."""
    with mock.patch.object(QueryDistribution, "expected_score_at", direct_score):
        yield


def answer_values(answers) -> list[tuple]:
    return [(answer.bindings, answer.score) for answer in answers]


def decision_values(decision) -> tuple:
    return (
        decision.relaxed_indexes,
        decision.expected_kth_original.hex(),
        tuple(
            (d.pattern_index, d.tested_rule, d.expected_relaxed_top.hex(), d.relax)
            for d in decision.per_pattern
        ),
    )


class WritePathMachine(RuleBasedStateMachine):
    #: Set by the test: the workload and the path of its ``.kg2`` snapshot.
    workload: Workload
    snapshot: str

    def __init__(self) -> None:
        super().__init__()
        graph = load_snapshot_v2(self.snapshot, mmap=True)
        workload = self.workload
        # The machine's own copy: add_rule must not touch the shared fixture.
        self.rules = RuleSet(list(workload.rules))
        self.runner = WorkloadRunner(
            Workload(workload.name, graph, self.rules, workload.queries),
            config=EngineConfig(k=K),
            compact_threshold=24,
        )
        self.version = graph.version
        self.new_terms = 0
        self._fresh: tuple | None = None

    @property
    def graph(self):
        return self.runner.graph

    def fresh(self) -> tuple[ColumnarGraph, SpecQPEngine]:
        """A graph and engine built from scratch at the current graph and
        rule-set versions."""
        state = (self.graph.version, self.rules.version)
        if self._fresh is None or self._fresh[0] != state:
            graph = ColumnarGraph(ColumnarStore.from_triples(self.graph.triples()))
            engine = SpecQPEngine(
                graph, self.rules, self.runner.config, executor="block"
            )
            self._fresh = (state, graph, engine, {})
        return self._fresh[1], self._fresh[2]

    def fresh_planner(self) -> SpecQPPlanner:
        """A planner over the fresh engine's catalog with an empty memo."""
        return SpecQPPlanner(self.fresh()[1].estimator, self.rules)

    def served_keys(self, key_of) -> dict:
        """``key_of(query, k)`` -> ``(query, k)`` for every request the
        machine makes: the cache keys a request would find now."""
        return {
            key_of(query, k): (query, k)
            for query in self.workload.queries
            for k in (1, 3, K, 10)
        }

    def expected(self, query, k: int) -> list[tuple]:
        """The fresh engine's answers, memoised until a version moves."""
        engine = self.fresh()[1]
        memo = self._fresh[3]
        key = (query, k)
        if key not in memo:
            memo[key] = answer_values(engine.query(query, k).answers)
        return memo[key]

    # ------------------------------------------------------------------
    @rule(index=st.integers(min_value=0, max_value=63))
    def read(self, index: int) -> None:
        query = self.workload.queries[index % len(self.workload.queries)]
        served = self.runner.execute_query(query, K)
        assert answer_values(served) == self.expected(query, K), query.name

    @rule(
        index=st.integers(min_value=0, max_value=63),
        k=st.sampled_from([1, 3, K, 10]),
    )
    def plan(self, index: int, k: int) -> None:
        """PLANGEN through the runner's warm planner (its refreshed
        catalog and both memos) decides what a fresh one decides."""
        query = self.workload.queries[index % len(self.workload.queries)]
        with self.runner._gate.reader():
            self.runner._prepare()
            served = self.runner._engine.planner.plan(query, k)
        with memo_less():  # E_Q'(1) is estimated when read
            expected = decision_values(self.fresh_planner().plan(query, k))
        assert decision_values(served) == expected, query.name

    @rule(
        seed=st.integers(min_value=0, max_value=2**16),
        n_rescored=st.integers(min_value=1, max_value=5),
        n_removed=st.integers(min_value=0, max_value=2),
        n_new=st.integers(min_value=0, max_value=2),
    )
    def apply_updates(
        self, seed: int, n_rescored: int, n_removed: int, n_new: int
    ) -> None:
        rng = random.Random(seed)
        triples = sorted(self.graph.triples(), key=lambda triple: triple.spo)
        picked = rng.sample(triples, n_rescored + n_removed)
        batch = [
            GraphUpdate.add(*triple.spo, float(rng.randint(1, 60)))
            for triple in picked[:n_rescored]
        ]
        batch += [GraphUpdate.remove(*triple.spo) for triple in picked[n_rescored:]]
        for _ in range(n_new):
            # A subject no dictionary holds, typed like an existing triple.
            like = rng.choice(triples)
            self.new_terms += 1
            batch.append(
                GraphUpdate.add(
                    f"new{self.new_terms}", like.predicate, like.object,
                    float(rng.randint(1, 60)),
                )
            )
        before = self.graph.version
        self.runner.apply_updates(batch)
        assert self.graph.version > before

    @rule(
        seed=st.integers(min_value=0, max_value=2**16),
        n_prefix=st.integers(min_value=1, max_value=4),
    )
    def apply_failing_batch(self, seed: int, n_prefix: int) -> None:
        """Re-scores, then an add the graph refuses (a NUL term).  The
        batch raises with its landed prefix counted in ``error.applied``,
        and that prefix moves the version and is invalidated and counted
        like any batch: in DB-nets terms the caches' refresh belongs to
        the transition, even one that fails midway."""
        rng = random.Random(seed)
        triples = sorted(self.graph.triples(), key=lambda triple: triple.spo)
        batch = [
            GraphUpdate.add(*triple.spo, float(rng.randint(1, 60)))
            for triple in rng.sample(triples, n_prefix)
        ]
        batch.append(GraphUpdate.add("bad\x00term", "rdf:type", "topic", 1.0))
        before, counted = self.graph.version, self.runner.update_stats
        with pytest.raises(KnowledgeGraphError, match="NUL") as raised:
            self.runner.apply_updates(batch)
        applied = {"adds": n_prefix, "removes": 0, "absent_removes": 0}
        assert raised.value.applied == applied
        assert self.graph.version > before
        stats = self.runner.update_stats
        assert stats["update_batches"] == counted["update_batches"] + 1
        assert stats["updates_applied"] == counted["updates_applied"] + n_prefix

    @rule(
        index=st.integers(min_value=0, max_value=63),
        position=st.integers(min_value=0, max_value=3),
        pick=st.integers(min_value=0, max_value=2**16),
        weight=st.sampled_from([0.3, 0.6, 0.9, 1.0]),
    )
    def add_rule(self, index: int, position: int, pick: int, weight: float) -> None:
        """Relax one of a query's patterns into some other rule's range
        (or re-weigh a rule it already has), in place in the served set."""
        query = self.workload.queries[index % len(self.workload.queries)]
        domain = query.patterns[position % len(query.patterns)]
        ranges = sorted(
            {
                rule.range
                for rule in self.workload.rules
                if rule.range != domain
                and set(rule.range.variable_names) == set(domain.variable_names)
            },
            key=str,
        )
        before = self.rules.version
        self.rules.add(RelaxationRule(domain, ranges[pick % len(ranges)], weight))
        assert self.rules.version > before

    @precondition(lambda self: getattr(self.graph, "delta_size", 0) > 0)
    @rule()
    def compact(self) -> None:
        before = self.graph.version
        assert self.runner.apply_updates([], compact=True)["compacted"]
        assert self.graph.version > before

    # ------------------------------------------------------------------
    @invariant()
    def version_never_falls(self) -> None:
        assert self.graph.version >= self.version
        self.version = self.graph.version

    @invariant()
    def stored_lists_equal_a_fresh_build(self) -> None:
        store = self.runner.encoded_store
        codec = store.codec(self.graph)
        graph = self.fresh()[0]
        fresh_codec = TermCodec(graph.store)
        for key, held in list(store._lists.items()):
            if isinstance(key, tuple):  # a merged list: (pattern, variant)
                pattern, (cap, rules, rules_version) = key
                if rules_version != rules.version:
                    continue  # merged under a superseded rule set
                inputs = relaxation_inputs(pattern, rules, cap)
                expected = build_merged_match_list(graph, inputs, fresh_codec)
                ids = build_merged_match_list(self.graph, inputs, codec)
            else:
                expected = build_encoded_match_list(graph, key, fresh_codec)
                ids = build_encoded_match_list(self.graph, key, codec)
            assert decoded(held, codec) == decoded(expected, fresh_codec), key
            # Key orders sort ids, so they are checked under the store's codec.
            for join_vars, (base, order) in list(held._key_orders.items()):
                columns = tuple(ids.columns[ids.var_names.index(n)] for n in join_vars)
                fresh = sorted_key_order(columns, base or codec.n_ids, len(ids))
                assert (order is None) == (fresh is None), (key, join_vars)
                if order is not None:
                    assert order[0].tobytes() == fresh[0].tobytes(), (key, join_vars)
                    assert order[1].tobytes() == fresh[1].astype("int32").tobytes()
                    assert order[2] == fresh[2], (key, join_vars)

    @invariant()
    def memoised_decisions_equal_a_fresh_planner(self) -> None:
        if self.runner._engine is None:
            return
        planner = self.runner._engine.planner
        catalog = planner.estimator.catalog
        fresh = self.fresh_planner()
        for key, (decision, list_keys, read) in list(planner._memo.items()):
            held = catalog.held_histograms(list_keys)
            if key[3] != self.rules.version or any(map(is_not, held, read)):
                continue  # the next request for it re-plans
            with memo_less():
                expected = decision_values(fresh.plan(decision.plan.query, key[2]))
            assert decision_values(decision) == expected, key

    @invariant()
    def cached_answers_equal_a_fresh_engine(self) -> None:
        signature = self.runner._signature()[1]
        served = self.served_keys(
            lambda query, k: result_key(query, k, signature)
        )
        for key, version, cached in self.runner.result_cache.items():
            assert version == self.graph.version  # a write purges the rest
            if key in served:
                expected = self.expected(*served[key])
                assert answer_values(cached.answers) == expected, key

    @invariant()
    def stored_arrays_stay_read_only(self) -> None:
        for held in list(self.runner.encoded_store._lists.values()):
            arrays = [*held.columns, held.scores]
            for _, order in list(held._key_orders.values()):
                if order is not None:
                    arrays += order[:2]
            assert not any(array.flags.writeable for array in arrays)


def test_write_path_state_machine(tiny_xkg_workload, tmp_path_factory):
    path = tmp_path_factory.mktemp("write-path") / "tiny.kg2"
    save_snapshot_v2(tiny_xkg_workload.graph, path)
    WritePathMachine.workload = tiny_xkg_workload
    WritePathMachine.snapshot = str(path)
    run_state_machine_as_test(
        WritePathMachine,
        settings=settings(max_examples=20, stateful_step_count=20, deadline=None),
    )
