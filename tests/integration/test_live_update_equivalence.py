"""Mutation-equivalence suite: live overlays hold exactly what a rebuild would.

The live-update subsystem's headline contract: after applying randomized
update batches (adds, removes, score overwrites) to a :class:`LiveGraph`,
the match lists are byte-identical to a graph freshly rebuilt from the
final triple set, across the object/columnar/``.kg2``-attached backends,
both before and after :meth:`LiveGraph.compact`.  The answers served over
them are checked by the oracle matrix (``test_oracle_matrix.py``).
"""

from __future__ import annotations

import random

import pytest

from oracle_matrix import BACKENDS, replayed
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, Variable

VAR_S = Variable("s")


#: The base backends the overlay must hold exactness on.
BASE_FACTORIES = [pytest.param(BACKENDS[name], id=name) for name in BACKENDS]


def seed_graph(rng: random.Random, n: int = 350) -> KnowledgeGraph:
    kg = KnowledgeGraph(name="seed")
    while kg.size < n:
        kg.add(
            f"s{rng.randrange(30)}",
            f"p{rng.randrange(4)}",
            f"o{rng.randrange(15)}",
            score=float(rng.randrange(1, 60)),
        )
    return kg


def random_batch(rng: random.Random, graph: KnowledgeGraph, size: int):
    """A randomized mix of fresh adds, score overwrites and removes."""
    existing = [t.spo for t in graph.triples()]
    batch: list[GraphUpdate] = []
    for _ in range(size):
        roll = rng.random()
        if roll < 0.35 and existing:
            batch.append(GraphUpdate.remove(*rng.choice(existing)))
        elif roll < 0.6 and existing:
            spo = rng.choice(existing)
            batch.append(GraphUpdate.add(*spo, float(rng.randrange(1, 150))))
        else:
            batch.append(
                GraphUpdate.add(
                    f"s{rng.randrange(45)}",
                    f"p{rng.randrange(4)}",
                    f"o{rng.randrange(18)}",
                    float(rng.randrange(1, 150)),
                )
            )
    return batch


PATTERNS = [
    TriplePattern(VAR_S, f"p{i}", Variable("o")) for i in range(4)
] + [
    TriplePattern(VAR_S, "p0", "o1"),
    TriplePattern("s1", Variable("p"), Variable("o")),
    TriplePattern(Variable("x"), "p2", Variable("x")),
]


@pytest.mark.parametrize("make_base", BASE_FACTORIES)
@pytest.mark.parametrize("seed", [3, 17])
def test_match_lists_identical_to_rebuild(make_base, seed):
    rng = random.Random(seed)
    kg = seed_graph(rng)
    batches = [random_batch(rng, kg, 40), random_batch(rng, kg, 40)]
    oracle = replayed(kg, [update for batch in batches for update in batch])

    live = LiveGraph(make_base(kg))
    for batch in batches:
        live.apply_updates(batch)

    def check(stage: str):
        assert live.size == oracle.size, stage
        for pattern in PATTERNS:
            actual = live.match_list(pattern)
            expected = oracle.match_list(pattern)
            assert actual.triples == expected.triples, (stage, pattern)
            assert actual.max_score == expected.max_score, (stage, pattern)
            assert actual.normalized_scores == expected.normalized_scores, (
                stage,
                pattern,
            )

    check("dirty")
    live.compact()
    check("compacted")


def test_incremental_batches_stay_exact_through_compactions():
    """Many small batches with a tight auto-compact threshold: the overlay
    must stay exact across repeated base swaps."""
    rng = random.Random(41)
    kg = seed_graph(rng, n=200)
    live = LiveGraph(ColumnarGraph.from_graph(kg), compact_threshold=25)
    batches = [random_batch(rng, kg, 15) for _ in range(6)]
    seen_versions = [live.version]
    for batch in batches:
        live.apply_updates(batch)
        seen_versions.append(live.version)
    assert live.compactions >= 2
    assert seen_versions == sorted(set(seen_versions))

    oracle = replayed(kg, [update for batch in batches for update in batch])
    for pattern in PATTERNS:
        actual = live.match_list(pattern)
        expected = oracle.match_list(pattern)
        assert actual.triples == expected.triples
        assert actual.normalized_scores == expected.normalized_scores


def test_statistics_catalog_refresh_tracks_overlay():
    """refresh() drops exactly the touched patterns; rebuilt stats match a
    from-scratch catalog over the final graph."""
    from repro.stats.catalog import StatisticsCatalog

    rng = random.Random(5)
    kg = seed_graph(rng, n=250)
    live = LiveGraph(ColumnarGraph.from_graph(kg))
    catalog = StatisticsCatalog(live)
    untouched = TriplePattern(VAR_S, "p3", Variable("o"))
    touched = TriplePattern(VAR_S, "p0", Variable("o"))
    catalog.pattern_stats(untouched)
    catalog.histogram(touched)
    kept_stats = catalog.pattern_stats(untouched)

    live.apply_updates([GraphUpdate.add("fresh", "p0", "o9", 42.0)])
    summary = catalog.refresh()
    assert summary["dropped"] >= 1

    # Untouched pattern kept its cached stats object (no recompute).
    assert catalog.pattern_stats(untouched) is kept_stats
    # Touched pattern rebuilt and agrees with a cold catalog.
    reference = StatisticsCatalog(live.thaw())
    assert catalog.pattern_stats(touched) == reference.pattern_stats(touched)
    assert catalog.match_count(touched) == reference.match_count(touched)


def test_refresh_falls_back_to_invalidate_without_journal(music_graph):
    from repro.stats.catalog import StatisticsCatalog

    catalog = StatisticsCatalog(music_graph)
    catalog.pattern_stats(TriplePattern(VAR_S, "rdf:type", "singer"))
    summary = catalog.refresh()
    assert summary == {"dropped": 1, "kept": 0}
