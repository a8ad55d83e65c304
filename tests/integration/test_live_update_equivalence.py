"""Mutation-equivalence suite: live overlays serve exactly what a rebuild would.

The live-update subsystem's headline contract: after applying randomized
update batches (adds, removes, score overwrites) to a :class:`LiveGraph`,
answers and scores — and the match lists under them — are byte-identical
to a graph freshly rebuilt from the final triple set, across the
object/columnar/``.kg2``-attached backends, both before and after :meth:`LiveGraph.compact`.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import pytest

from repro.core.engine import SpecQPEngine
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, Variable
from repro.kg.storage import load_snapshot_v2, save_snapshot_v2
from repro.kg.triple import Triple
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RelaxationRule, RuleSet

VAR_S = Variable("s")


def attached_kg2(kg: KnowledgeGraph) -> ColumnarGraph:
    """*kg* saved as a ``.kg2`` and attached back over memory-mapped
    columns (the mapping outlives the unlinked file)."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "base.kg2"
        save_snapshot_v2(kg, path)
        return load_snapshot_v2(path, mmap=True)


#: The base backends the overlay must hold exactness on.
BASE_FACTORIES = [
    pytest.param(lambda kg: KnowledgeGraph(kg.triples(), name="obj"), id="object"),
    pytest.param(lambda kg: ColumnarGraph.from_graph(kg), id="columnar"),
    pytest.param(attached_kg2, id="kg2"),
]


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


def replay(kg: KnowledgeGraph, batches) -> KnowledgeGraph:
    """The oracle: the final triple set, built from scratch."""
    scores = {t.spo: t.score for t in kg.triples()}
    for batch in batches:
        for update in batch:
            if update.op == "+":
                scores[update.spo] = update.score
            else:
                scores.pop(update.spo, None)
    return KnowledgeGraph(
        (Triple(s, p, o, score) for (s, p, o), score in scores.items()),
        name="oracle",
    )


def query_set() -> tuple[RuleSet, list[TriplePatternQuery]]:
    rules = RuleSet()
    rules.add(
        RelaxationRule(
            TriplePattern(VAR_S, "p0", "o1"), TriplePattern(VAR_S, "p0", "o2"), 0.7
        )
    )
    rules.add(
        RelaxationRule(
            TriplePattern(VAR_S, "p1", "o3"), TriplePattern(VAR_S, "p1", "o4"), 0.8
        )
    )
    queries = [
        TriplePatternQuery(
            (TriplePattern(VAR_S, "p0", "o1"), TriplePattern(VAR_S, "p1", Variable("o"))),
            name="join",
        ),
        TriplePatternQuery(
            (
                TriplePattern(VAR_S, "p0", "o1"),
                TriplePattern(VAR_S, "p1", "o3"),
                TriplePattern(VAR_S, "p2", Variable("o2")),
            ),
            name="three",
        ),
        TriplePatternQuery((TriplePattern(VAR_S, "p3", Variable("o")),), name="single"),
    ]
    return rules, queries


def answer_rows(engine: SpecQPEngine, query: TriplePatternQuery, k: int):
    result = engine.query(query, k=k)
    return [(answer.bindings, answer.score) for answer in result.answers]


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
    oracle = replay(kg, batches)

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


@pytest.mark.parametrize("make_base", BASE_FACTORIES)
def test_answers_identical_to_rebuild(make_base):
    rng = random.Random(29)
    kg = seed_graph(rng)
    batches = [random_batch(rng, kg, 50)]
    oracle = replay(kg, batches)
    rules, queries = query_set()

    live = LiveGraph(make_base(kg))
    live.apply_updates(batches[0])

    expected_engine = SpecQPEngine(oracle, rules)
    live_engine = SpecQPEngine(live, rules)
    for query in queries:
        for k in (3, 10):
            assert answer_rows(live_engine, query, k) == answer_rows(
                expected_engine, query, k
            ), (query.name, k)

    live.compact()
    post_engine = SpecQPEngine(live, rules)
    reference = SpecQPEngine(oracle, rules)
    for query in queries:
        assert answer_rows(post_engine, query, 5) == answer_rows(
            reference, query, 5
        ), (query.name, "post-compact")


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

    oracle = replay(kg, batches)
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
