"""A state machine over the served write path.

Reads, update batches and compactions interleave in any order over a
:class:`~repro.service.WorkloadRunner` serving a tiny XKG ``.kg2``
snapshot.  The writer gate, the versioned graph, the touched-key journal
and the caches that read it form a small data-aware transition system
(in the sense of DB-nets); its invariants are checked after every step:

* every read equals a fresh engine over
  ``ColumnarStore.from_triples(graph.triples())`` at that version;
* the graph version rises with every write and never falls;
* every list the encoded store holds decodes — terms and score bytes —
  equal to a fresh build at the current version, so a list carried
  across a write or a compaction is never stale;
* no stored array is writable.
"""

from __future__ import annotations

import random

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
from repro.core.plan import relaxation_inputs
from repro.datasets.workload import Workload
from repro.kg.columnar import ColumnarGraph, ColumnarStore
from repro.kg.delta import GraphUpdate
from repro.kg.storage import load_snapshot_v2, save_snapshot_v2
from repro.operators.block import EncodedMatchList, TermCodec, build_merged_match_list
from repro.service import WorkloadRunner

K = 5


def decoded(encoded: EncodedMatchList, codec: TermCodec) -> tuple:
    rows = [tuple(codec.decode(int(i)) for i in row) for row in zip(*encoded.columns)]
    return encoded.var_names, rows, encoded.scores.tobytes(), encoded.max_score


class WritePathMachine(RuleBasedStateMachine):
    #: Set by the test: the workload and the path of its ``.kg2`` snapshot.
    workload: Workload
    snapshot: str

    def __init__(self) -> None:
        super().__init__()
        graph = load_snapshot_v2(self.snapshot, mmap=True)
        workload = self.workload
        self.runner = WorkloadRunner(
            Workload(workload.name, graph, workload.rules, workload.queries),
            config=EngineConfig(k=K),
            executor="block",
            compact_threshold=24,
        )
        self.version = graph.version
        self.new_terms = 0
        self._fresh: tuple | None = None

    @property
    def graph(self):
        return self.runner.graph

    def fresh(self) -> tuple[ColumnarGraph, SpecQPEngine]:
        """A graph and engine built from scratch at the current version."""
        if self._fresh is None or self._fresh[0] != self.graph.version:
            graph = ColumnarGraph(ColumnarStore.from_triples(self.graph.triples()))
            engine = SpecQPEngine(
                graph, self.workload.rules, self.runner.config, executor="block"
            )
            self._fresh = (self.graph.version, graph, engine)
        return self._fresh[1], self._fresh[2]

    # ------------------------------------------------------------------
    @rule(index=st.integers(min_value=0, max_value=63))
    def read(self, index: int) -> None:
        query = self.workload.queries[index % len(self.workload.queries)]
        served = self.runner.execute_query(query, K)
        expected = self.fresh()[1].query(query, K).answers
        assert [(a.bindings, a.score) for a in served] == [
            (a.bindings, a.score) for a in expected
        ], query.name

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
                pattern, (cap, rules, _) = key
                expected = build_merged_match_list(
                    graph, relaxation_inputs(pattern, rules, cap), fresh_codec
                )
            else:
                expected = EncodedMatchList.from_store(graph.store, key)
            assert decoded(held, codec) == decoded(expected, fresh_codec), key

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
