"""Scenario packs: a schemas × intents × augmentation workload generator.

Every perf and correctness claim so far rests on one synthetic diverse
workload, so the test net cannot tell whether the cost rule, tie
resolution or cache invalidation hold under skewed, update-heavy or
adversarial traffic.  This module is the coverage substrate that fixes
that, following the schemas → intents → augmentation → deterministic
export pipeline:

* **schemas** — four hand-written graph domains (commerce, social, geo,
  media), each a :class:`DomainSchema` naming its entity classes and
  typed, Zipf-skewed predicates;
* **intents** — per-domain query generators reading the schema: point
  lookups over hot constants, star joins seeded from real entities
  (non-empty by construction), chain joins along class-compatible
  predicate pairs, and relaxation-heavy probes over sparse conjunctions;
* **augmentation** — passes that multiply the base traffic: Zipf-skewed
  hot-key repeats, an update stream (removes + score bumps + fresh adds
  aimed at the queried constants), and adversarial shapes — boundary-tie
  score runs, unselective open joins, ``k`` > result-count and empty
  match lists — exactly the query shapes a single distribution never
  produces and optimizer decisions flip on;
* **deterministic export** — each named :class:`ScenarioPack` is
  bit-reproducible from its seed and exposes a content-checksummed
  :meth:`~ScenarioPack.manifest`, so golden tests fail loudly on any
  generator drift.

Packs are registered in :data:`SCENARIOS` and built with
:func:`build_scenario`; the ``workload``/``update`` CLI subcommands
(``--scenario NAME``) and the executor equivalence suites consume
them, so every claim is made across a
scenario matrix instead of one distribution.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np

from repro.datasets.synthetic import (
    make_rng,
    name_series,
    weighted_sample_without_replacement,
    zipf_rank_weights,
    zipf_scores,
)
from repro.datasets.workload import Workload
from repro.errors import DatasetError
from repro.kg.delta import GraphUpdate
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, Variable
from repro.query.query import TriplePatternQuery
from repro.relax.mining import mine_object_relaxations
from repro.relax.rules import RuleSet

VAR_S = Variable("s")
VAR_O = Variable("o")
VAR_T = Variable("t")

#: Raw score shared by every row of an adversarial boundary-tie run.
TIE_SCORE = 64.0

#: Intent names the packs can mix (keys of :data:`INTENT_GENERATORS`).
INTENTS = ("point", "star", "chain", "relax")

#: Adversarial traits a pack can carry.
ADVERSARIAL_TRAITS = ("ties", "unselective", "over-k", "empty-match")


# ----------------------------------------------------------------------
# Schemas — hand-written domain descriptors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EntityClass:
    """A named entity population (``prefix000 … prefixNNN``)."""

    name: str
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise DatasetError(f"entity class {self.name!r} needs count >= 1")

    def names(self) -> list[str]:
        return name_series(f"{self.name}", self.count)


@dataclass(frozen=True)
class PredicateSpec:
    """One typed edge family: ``subject_class --name--> object_class``.

    ``fanout`` bounds the edges drawn per subject (inclusive);
    ``object_exponent`` is the Zipf skew of object popularity (higher =
    hotter heads); ``relaxable`` predicates get instance-overlap rules
    mined over their object constants, making their patterns the
    relaxation surface of the domain.
    """

    name: str
    subject_class: str
    object_class: str
    fanout: tuple[int, int]
    object_exponent: float = 1.0
    relaxable: bool = False

    def __post_init__(self) -> None:
        lo, hi = self.fanout
        if not 1 <= lo <= hi:
            raise DatasetError(
                f"predicate {self.name!r} fanout must satisfy 1 <= lo <= hi"
            )


@dataclass(frozen=True)
class DomainSchema:
    """A graph domain: entity classes plus the predicates joining them."""

    name: str
    entities: tuple[EntityClass, ...]
    predicates: tuple[PredicateSpec, ...]
    score_alpha: float = 1.1

    def __post_init__(self) -> None:
        class_names = {c.name for c in self.entities}
        if len(class_names) != len(self.entities):
            raise DatasetError(f"domain {self.name!r} has duplicate entity classes")
        for spec in self.predicates:
            for side in (spec.subject_class, spec.object_class):
                if side not in class_names:
                    raise DatasetError(
                        f"domain {self.name!r}: predicate {spec.name!r} "
                        f"references unknown class {side!r}"
                    )

    def entity_class(self, name: str) -> EntityClass:
        for entity_class in self.entities:
            if entity_class.name == name:
                return entity_class
        raise DatasetError(f"domain {self.name!r} has no class {name!r}")

    def predicates_of(self, subject_class: str) -> list[PredicateSpec]:
        return [p for p in self.predicates if p.subject_class == subject_class]


#: The four shipped domains.  Sizes are deliberately small — packs are a
#: correctness/coverage substrate first; the scale knobs live in
#: :data:`~repro.datasets.synthetic.SCALE_PROFILES`, not here.
DOMAINS: dict[str, DomainSchema] = {
    "commerce": DomainSchema(
        name="commerce",
        entities=(
            EntityClass("product", 240),
            EntityClass("category", 18),
            EntityClass("brand", 24),
            EntityClass("shopper", 120),
        ),
        predicates=(
            PredicateSpec("co:category", "product", "category", (1, 3),
                          object_exponent=1.1, relaxable=True),
            PredicateSpec("co:brand", "product", "brand", (1, 1),
                          object_exponent=1.2, relaxable=True),
            PredicateSpec("co:viewedWith", "product", "product", (1, 4),
                          object_exponent=1.3),
            PredicateSpec("co:bought", "shopper", "product", (2, 6),
                          object_exponent=1.2),
        ),
    ),
    "social": DomainSchema(
        name="social",
        entities=(
            EntityClass("user", 220),
            EntityClass("tag", 28),
            EntityClass("community", 12),
        ),
        predicates=(
            PredicateSpec("so:likes", "user", "tag", (2, 5),
                          object_exponent=1.1, relaxable=True),
            PredicateSpec("so:memberOf", "user", "community", (1, 2),
                          object_exponent=0.9, relaxable=True),
            PredicateSpec("so:follows", "user", "user", (1, 5),
                          object_exponent=1.4),
        ),
    ),
    "geo": DomainSchema(
        name="geo",
        entities=(
            EntityClass("place", 230),
            EntityClass("region", 14),
            EntityClass("amenity", 20),
        ),
        predicates=(
            PredicateSpec("geo:locatedIn", "place", "region", (1, 2),
                          object_exponent=0.8, relaxable=True),
            PredicateSpec("geo:amenity", "place", "amenity", (1, 4),
                          object_exponent=1.0, relaxable=True),
            PredicateSpec("geo:nearby", "place", "place", (1, 3),
                          object_exponent=1.2),
        ),
    ),
    "media": DomainSchema(
        name="media",
        entities=(
            EntityClass("track", 240),
            EntityClass("genre", 16),
            EntityClass("artist", 40),
            EntityClass("playlist", 36),
        ),
        predicates=(
            PredicateSpec("me:genre", "track", "genre", (1, 3),
                          object_exponent=1.0, relaxable=True),
            PredicateSpec("me:by", "track", "artist", (1, 2),
                          object_exponent=1.2, relaxable=True),
            PredicateSpec("me:features", "playlist", "track", (3, 8),
                          object_exponent=1.1),
        ),
    ),
}


# ----------------------------------------------------------------------
# Graph construction from a schema
# ----------------------------------------------------------------------
#: predicate name -> subject -> that subject's objects (insertion order).
Adjacency = dict[str, dict[str, list[str]]]


def _build_domain_graph(
    rng: np.random.Generator, schema: DomainSchema
) -> tuple[KnowledgeGraph, Adjacency]:
    """Materialise the schema: every subject draws Zipf-skewed edges.

    Rows are generated class by class, subject by subject, in name order,
    so the triple sequence (and therefore every score draw) is a pure
    function of the schema and the rng state.
    """
    graph = KnowledgeGraph(name=schema.name)
    adjacency: Adjacency = {spec.name: {} for spec in schema.predicates}
    rows: list[tuple[str, str, str]] = []
    for spec in schema.predicates:
        subjects = schema.entity_class(spec.subject_class).names()
        objects = schema.entity_class(spec.object_class).names()
        weights = zipf_rank_weights(len(objects), spec.object_exponent)
        lo, hi = spec.fanout
        for subject in subjects:
            n_edges = int(rng.integers(lo, hi + 1))
            chosen = weighted_sample_without_replacement(
                rng, objects, weights, n_edges
            )
            chosen = [obj for obj in chosen if obj != subject]  # no self loops
            adjacency[spec.name][subject] = chosen
            rows.extend((subject, spec.name, obj) for obj in chosen)
    scores = zipf_scores(rng, len(rows), alpha=schema.score_alpha)
    for (s, p, o), score in zip(rows, scores):
        graph.add(s, p, o, score=float(score))
    return graph, adjacency


def _mine_domain_rules(graph: KnowledgeGraph, schema: DomainSchema) -> RuleSet:
    rules = RuleSet()
    for spec in schema.predicates:
        if spec.relaxable:
            rules = rules.merged_with(
                mine_object_relaxations(
                    graph, spec.name, min_weight=0.02, max_rules_per_constant=12
                )
            )
    return rules


def _popular_constants(
    adjacency: Adjacency, predicate: str
) -> list[str]:
    """The predicate's object constants, most-matched first (ties by name)."""
    counts: dict[str, int] = {}
    for objects in adjacency[predicate].values():
        for obj in objects:
            counts[obj] = counts.get(obj, 0) + 1
    return sorted(counts, key=lambda obj: (-counts[obj], obj))


# ----------------------------------------------------------------------
# Intents — per-domain query generators
# ----------------------------------------------------------------------
def _point_lookups(
    rng: np.random.Generator,
    schema: DomainSchema,
    adjacency: Adjacency,
    rules: RuleSet,
    n: int,
) -> list[TriplePatternQuery]:
    """Single-pattern object-bound lookups over hot relaxable constants."""
    queries: list[TriplePatternQuery] = []
    relaxable = [p for p in schema.predicates if p.relaxable]
    for i in range(n):
        spec = relaxable[i % len(relaxable)]
        constants = _popular_constants(adjacency, spec.name)
        head = constants[: max(4, len(constants) // 3)]
        constant = head[int(rng.integers(len(head)))]
        queries.append(
            TriplePatternQuery(
                (TriplePattern(VAR_S, spec.name, constant),),
                projection=(VAR_S,),
                name=f"{schema.name}-point{i:02d}",
            )
        )
    return queries


def _star_joins(
    rng: np.random.Generator,
    schema: DomainSchema,
    adjacency: Adjacency,
    rules: RuleSet,
    n: int,
) -> list[TriplePatternQuery]:
    """2–3 same-subject patterns seeded from a real entity's own edges,
    so the unrelaxed query has at least one answer by construction."""
    queries: list[TriplePatternQuery] = []
    seen: set[frozenset[TriplePattern]] = set()
    classes = sorted(
        {c for c in (e.name for e in schema.entities)
         if len(schema.predicates_of(c)) >= 2}
    )
    if not classes:
        raise DatasetError(f"domain {schema.name!r} has no star-joinable class")
    attempts = 0
    while len(queries) < n:
        attempts += 1
        if attempts > 60 * n:
            raise DatasetError(
                f"domain {schema.name!r}: could not build {n} distinct star joins"
            )
        subject_class = classes[attempts % len(classes)]
        specs = schema.predicates_of(subject_class)
        subjects = schema.entity_class(subject_class).names()
        subject = subjects[int(rng.integers(len(subjects)))]
        candidates = [
            TriplePattern(VAR_S, spec.name, obj)
            for spec in specs
            for obj in adjacency[spec.name].get(subject, [])
        ]
        size = int(rng.integers(2, 4))
        if len(candidates) < size:
            continue
        chosen = rng.choice(len(candidates), size=size, replace=False)
        patterns = tuple(candidates[j] for j in sorted(chosen))
        key = frozenset(patterns)
        if key in seen or len(key) < size:
            continue
        seen.add(key)
        queries.append(
            TriplePatternQuery(
                patterns,
                projection=(VAR_S,),
                name=f"{schema.name}-star{len(queries):02d}",
            )
        )
    return queries


def _chain_joins(
    rng: np.random.Generator,
    schema: DomainSchema,
    adjacency: Adjacency,
    rules: RuleSet,
    n: int,
) -> list[TriplePatternQuery]:
    """``?s p1 ?o . ?o p2 ?t`` along class-compatible predicate pairs."""
    pairs = [
        (a, b)
        for a in schema.predicates
        for b in schema.predicates
        if a.object_class == b.subject_class and a.name != b.name
    ]
    if not pairs:
        raise DatasetError(f"domain {schema.name!r} has no chainable predicates")
    queries = []
    for i in range(n):
        first, second = pairs[i % len(pairs)]
        patterns = (
            TriplePattern(VAR_S, first.name, VAR_O),
            TriplePattern(VAR_O, second.name, VAR_T),
        )
        queries.append(
            TriplePatternQuery(
                patterns,
                projection=(VAR_S, VAR_O),
                name=f"{schema.name}-chain{i:02d}",
            )
        )
    return queries


def _relaxation_probes(
    rng: np.random.Generator,
    schema: DomainSchema,
    adjacency: Adjacency,
    rules: RuleSet,
    n: int,
) -> list[TriplePatternQuery]:
    """Sparse conjunctions over rule-covered constants.

    Constants come from the *tail* of two relaxable predicates'
    popularity ranking and from different seed subjects, so the exact
    conjunction is small (often empty) while every pattern carries mined
    rules — the regime where the relaxation frontier, not the exact
    lists, decides the top-k.
    """
    pools = {
        spec.name: (spec, _ruled_tail_constants(adjacency, rules, spec))
        for spec in schema.predicates
        if spec.relaxable
    }
    # A fanout-(1,1) predicate has disjoint subject sets per constant, so
    # mining yields nothing for it — probe only rule-bearing predicates.
    ruled = [name for name, (_, pool) in sorted(pools.items()) if pool]
    if not ruled:
        raise DatasetError(
            f"domain {schema.name!r} mined no rules on any relaxable predicate"
        )
    queries: list[TriplePatternQuery] = []
    seen: set[frozenset[TriplePattern]] = set()
    attempts = 0
    while len(queries) < n:
        attempts += 1
        if attempts > 80 * n:
            raise DatasetError(
                f"domain {schema.name!r}: could not build {n} relaxation probes"
            )
        spec_a, pool_a = pools[ruled[attempts % len(ruled)]]
        spec_b, pool_b = pools[ruled[(attempts + 1) % len(ruled)]]
        const_a = pool_a[int(rng.integers(len(pool_a)))]
        const_b = pool_b[int(rng.integers(len(pool_b)))]
        if spec_a.name == spec_b.name and const_a == const_b:
            continue
        patterns = (
            TriplePattern(VAR_S, spec_a.name, const_a),
            TriplePattern(VAR_S, spec_b.name, const_b),
        )
        key = frozenset(patterns)
        if key in seen or len(key) < 2:
            continue
        seen.add(key)
        queries.append(
            TriplePatternQuery(
                patterns,
                projection=(VAR_S,),
                name=f"{schema.name}-relax{len(queries):02d}",
            )
        )
    return queries


def _ruled_tail_constants(
    adjacency: Adjacency, rules: RuleSet, spec: PredicateSpec
) -> list[str]:
    """Low-popularity constants of *spec* that still carry mined rules.

    Falls back to any ruled constant when the unpopular half carries no
    rules at all (mining weights can concentrate on the head).
    """
    ranked = _popular_constants(adjacency, spec.name)
    ruled = [
        c for c in ranked
        if rules.has_rules_for(TriplePattern(VAR_S, spec.name, c))
    ]
    tail = [c for c in ruled if c in set(ranked[len(ranked) // 2:])]
    return tail or ruled


IntentGenerator = Callable[
    [np.random.Generator, DomainSchema, Adjacency, RuleSet, int],
    list[TriplePatternQuery],
]

INTENT_GENERATORS: dict[str, IntentGenerator] = {
    "point": _point_lookups,
    "star": _star_joins,
    "chain": _chain_joins,
    "relax": _relaxation_probes,
}


# ----------------------------------------------------------------------
# Augmentation passes
# ----------------------------------------------------------------------
def _augment_hot_keys(
    rng: np.random.Generator,
    queries: list[TriplePatternQuery],
    rounds: int,
    exponent: float = 1.2,
) -> list[TriplePatternQuery]:
    """Append Zipf-skewed repeats: hot queries dominate the stream.

    Each round draws ``len(queries)`` repeats under a Zipf rank law over
    the base set, renamed ``…#hN`` so the Workload name-uniqueness
    invariant holds while (query, k) result-cache keys still collide —
    exactly the reuse profile served traffic has.
    """
    base = list(queries)
    weights = zipf_rank_weights(len(base), exponent)
    stream = list(base)
    counter = 0
    for _ in range(rounds):
        picks = rng.choice(len(base), size=len(base), p=weights)
        for index in picks:
            origin = base[int(index)]
            stream.append(
                TriplePatternQuery(
                    origin.patterns,
                    origin.projection,
                    name=f"{origin.name}#h{counter}",
                )
            )
            counter += 1
    return stream


def _augment_update_stream(
    rng: np.random.Generator,
    graph: KnowledgeGraph,
    queries: list[TriplePatternQuery],
    n_updates: int,
) -> list[GraphUpdate]:
    """An update stream aimed at the traffic: removes and score bumps of
    existing rows plus fresh adds landing on the constants the queries
    read, so applying it actually invalidates hot cache entries."""
    triples = sorted(graph.triples(), key=lambda t: t.spo)
    queried_constants = sorted(
        {
            (p.predicate, p.object)
            for q in queries
            for p in q.patterns
            if isinstance(p.predicate, str) and isinstance(p.object, str)
        }
    )
    updates: list[GraphUpdate] = []
    n_removes = n_updates // 3
    n_bumps = n_updates // 3
    n_adds = n_updates - n_removes - n_bumps
    picked = rng.choice(len(triples), size=min(n_removes + n_bumps, len(triples)),
                        replace=False)
    removed = [triples[int(i)] for i in picked[:n_removes]]
    bumped = [triples[int(i)] for i in picked[n_removes:]]
    updates += [GraphUpdate.remove(*t.spo) for t in removed]
    updates += [
        GraphUpdate.add(t.subject, t.predicate, t.object, t.score + 7.0)
        for t in bumped
    ]
    for i in range(n_adds):
        if queried_constants:
            predicate, obj = queried_constants[
                int(rng.integers(len(queried_constants)))
            ]
        else:  # pragma: no cover - every pack queries constants
            predicate, obj = "adv:pred", "adv:obj"
        updates.append(
            GraphUpdate.add(
                f"fresh{i:03d}", predicate, obj, float(zipf_scores(rng, 1)[0])
            )
        )
    return updates


def _augment_boundary_ties(
    graph: KnowledgeGraph,
    schema: DomainSchema,
    k: int,
) -> list[TriplePatternQuery]:
    """Inject score runs that straddle the top-k boundary.

    A dedicated tie bucket gets ``k + 6`` rows at exactly
    :data:`TIE_SCORE` under 3 rows that beat it — the k-th answer then
    falls *inside* an equal-score run, the shape the canonical tie cut
    (sort ``(-score, bindings)``, cut ``k``) exists for and the shape
    where a non-canonical executor diverges first.  A second bucket
    drives a two-pattern join whose joined scores tie as well.
    """
    for i in range(3):
        graph.add(f"{schema.name}-tietop{i:02d}", "adv:tied", "adv:tie-bucket",
                  score=TIE_SCORE * 2 + i)
    for i in range(k + 6):
        graph.add(f"{schema.name}-tiesub{i:02d}", "adv:tied", "adv:tie-bucket",
                  score=TIE_SCORE)
    for i in range(k + 2):
        graph.add(f"{schema.name}-tiesub{i:02d}", "adv:tied2", "adv:tie-bucket2",
                  score=TIE_SCORE / 2)
    return [
        TriplePatternQuery(
            (TriplePattern(VAR_S, "adv:tied", "adv:tie-bucket"),),
            projection=(VAR_S,),
            name=f"{schema.name}-adv-ties-scan",
        ),
        TriplePatternQuery(
            (
                TriplePattern(VAR_S, "adv:tied", "adv:tie-bucket"),
                TriplePattern(VAR_S, "adv:tied2", "adv:tie-bucket2"),
            ),
            projection=(VAR_S,),
            name=f"{schema.name}-adv-ties-join",
        ),
    ]


def _augment_unselective(
    schema: DomainSchema,
) -> list[TriplePatternQuery]:
    """Open scans and open joins over the fattest predicates: every
    pattern matches a large fraction of the graph, so selectivity
    estimates are near-useless and join buffers actually fill."""
    by_fanout = sorted(
        schema.predicates, key=lambda p: (-(p.fanout[0] + p.fanout[1]), p.name)
    )
    first, second = by_fanout[0], by_fanout[1 % len(by_fanout)]
    queries = [
        TriplePatternQuery(
            (TriplePattern(VAR_S, first.name, VAR_O),),
            name=f"{schema.name}-adv-open-scan",
        ),
        TriplePatternQuery(
            (
                TriplePattern(VAR_S, first.name, VAR_O),
                TriplePattern(VAR_S, second.name, VAR_T),
            ),
            projection=(VAR_S,),
            name=f"{schema.name}-adv-open-star",
        ),
    ]
    chain_pairs = [
        (a, b)
        for a in schema.predicates
        for b in schema.predicates
        if a.object_class == b.subject_class
    ]
    if chain_pairs:
        a, b = chain_pairs[0]
        queries.append(
            TriplePatternQuery(
                (
                    TriplePattern(VAR_S, a.name, VAR_O),
                    TriplePattern(VAR_O, b.name, VAR_T),
                ),
                projection=(VAR_S, VAR_O),
                name=f"{schema.name}-adv-open-chain",
            )
        )
    return queries


def _augment_edge_k(
    graph: KnowledgeGraph,
    schema: DomainSchema,
    adjacency: Adjacency,
) -> list[TriplePatternQuery]:
    """``k`` > result-count and empty-match-list shapes.

    A two-row private bucket can never fill a default ``k``; a pattern
    over an absent constant has an empty match list; their conjunction
    with a live pattern must come back empty without tripping any
    executor.
    """
    graph.add(f"{schema.name}-rare0", "adv:rare", "adv:rare-bucket", score=9.0)
    graph.add(f"{schema.name}-rare1", "adv:rare", "adv:rare-bucket", score=5.0)
    live_pred = schema.predicates[0].name
    return [
        TriplePatternQuery(
            (TriplePattern(VAR_S, "adv:rare", "adv:rare-bucket"),),
            projection=(VAR_S,),
            name=f"{schema.name}-adv-overk",
        ),
        TriplePatternQuery(
            (TriplePattern(VAR_S, "adv:rare", "adv:absent-bucket"),),
            projection=(VAR_S,),
            name=f"{schema.name}-adv-empty-scan",
        ),
        TriplePatternQuery(
            (
                TriplePattern(VAR_S, live_pred, VAR_O),
                TriplePattern(VAR_S, "adv:absent-predicate", VAR_T),
            ),
            projection=(VAR_S,),
            name=f"{schema.name}-adv-empty-join",
        ),
    ]


# ----------------------------------------------------------------------
# Packs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """The recipe for one named pack — everything but the seed's dice."""

    name: str
    domain: str
    description: str
    seed: int = 1009
    k: int = 10
    intents: Mapping[str, int] = field(
        default_factory=lambda: {"point": 6, "star": 6, "chain": 2, "relax": 4}
    )
    hot_rounds: int = 0
    n_updates: int = 0
    adversarial: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.domain not in DOMAINS:
            raise DatasetError(
                f"scenario {self.name!r}: unknown domain {self.domain!r}"
            )
        for intent in self.intents:
            if intent not in INTENT_GENERATORS:
                raise DatasetError(
                    f"scenario {self.name!r}: unknown intent {intent!r}"
                )
        for trait in self.adversarial:
            if trait not in ADVERSARIAL_TRAITS:
                raise DatasetError(
                    f"scenario {self.name!r}: unknown adversarial trait {trait!r}"
                )
        if self.k < 1:
            raise DatasetError(f"scenario {self.name!r}: k must be >= 1")


@dataclass(frozen=True)
class ScenarioPack:
    """A built scenario: workload + update stream, seed-deterministic.

    The same ``(spec, seed)`` always yields byte-identical content —
    :meth:`manifest` checksums the full export so golden tests catch any
    generator drift, and :meth:`validate` re-checks the structural
    contract each pack ships under.
    """

    name: str
    description: str
    seed: int
    k: int
    workload: Workload
    updates: tuple[GraphUpdate, ...]
    traits: frozenset[str]

    # ------------------------------------------------------------------
    def export_lines(self) -> Iterator[str]:
        """The pack's full content as deterministic text lines.

        Triples sorted by ``(s, p, o)``, queries and updates in stream
        order; scores rendered with ``repr`` (exact for doubles).  This
        is the byte stream the manifest checksum is defined over.
        """
        for triple in sorted(self.workload.graph.triples(), key=lambda t: t.spo):
            yield (
                f"T\t{triple.subject}\t{triple.predicate}\t{triple.object}"
                f"\t{triple.score!r}"
            )
        for query in self.workload.queries:
            yield f"Q\t{query.name}\t{query}"
        for update in self.updates:
            yield (
                f"U\t{update.op}\t{update.subject}\t{update.predicate}"
                f"\t{update.object}\t{update.score!r}"
            )

    def checksum(self) -> str:
        digest = hashlib.sha256()
        for line in self.export_lines():
            digest.update(line.encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()[:16]

    def manifest(self) -> dict[str, object]:
        """Counts + content checksum — the golden-test contract."""
        return {
            "name": self.name,
            "seed": self.seed,
            "k": self.k,
            "triples": self.workload.graph.size,
            "queries": len(self.workload.queries),
            "updates": len(self.updates),
            "rules": len(self.workload.rules),
            "checksum": self.checksum(),
        }

    # ------------------------------------------------------------------
    def validate(self) -> list[str]:
        """Structural problems with the pack (empty list = all good)."""
        problems = self.workload.validate()
        if "empty-match" not in self.traits:
            problems += self.workload.validate(require_nonempty=True)
        if "ties" in self.traits:
            pattern = TriplePattern(VAR_S, "adv:tied", "adv:tie-bucket")
            scores = [t.score for t in self.workload.graph.match(pattern)]
            if scores.count(TIE_SCORE) <= self.k:
                problems.append(
                    f"{self.name}: tie run does not straddle k={self.k}"
                )
        if "over-k" in self.traits:
            pattern = TriplePattern(VAR_S, "adv:rare", "adv:rare-bucket")
            if self.workload.graph.count(pattern) >= self.k:
                problems.append(f"{self.name}: over-k probe fills k")
        for update in self.updates:
            if update.op not in ("+", "-"):  # pragma: no cover - constructor guards
                problems.append(f"{self.name}: invalid update op {update.op!r}")
        return problems

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScenarioPack({self.name!r}, triples={self.workload.graph.size}, "
            f"queries={len(self.workload.queries)}, updates={len(self.updates)})"
        )


#: The shipped packs: one base pack per domain, a hot-key pack, an
#: update-heavy pack, a relaxation-heavy pack, and three adversarial
#: packs covering the shapes the equivalence suites must survive.
SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            "commerce-base", "commerce",
            "balanced commerce traffic: lookups, star and chain joins",
            seed=101,
        ),
        ScenarioSpec(
            "social-base", "social",
            "balanced social-graph traffic over likes/membership/follows",
            seed=211,
        ),
        ScenarioSpec(
            "geo-base", "geo",
            "balanced geo traffic over containment, amenities and proximity",
            seed=307,
        ),
        ScenarioSpec(
            "media-base", "media",
            "balanced media traffic over genres, artists and playlists",
            seed=401,
        ),
        ScenarioSpec(
            "commerce-hot", "commerce",
            "Zipf-skewed hot-key repeats: a few queries dominate the stream",
            seed=523,
            intents={"point": 8, "star": 6, "chain": 2},
            hot_rounds=3,
        ),
        ScenarioSpec(
            "social-update-heavy", "social",
            "update-heavy mix: removes, score bumps and fresh adds aimed "
            "at the queried constants",
            seed=613,
            intents={"point": 6, "star": 6, "chain": 2},
            n_updates=240,
        ),
        ScenarioSpec(
            "media-relax-heavy", "media",
            "relaxation-heavy probes: sparse conjunctions where the mined "
            "rule frontier decides the top-k",
            seed=701,
            intents={"point": 2, "relax": 12},
        ),
        ScenarioSpec(
            "adversarial-ties", "commerce",
            "boundary-tie score runs straddling k: the canonical tie cut "
            "is load-bearing on every query",
            seed=809,
            intents={"point": 4, "star": 4},
            adversarial=("ties",),
        ),
        ScenarioSpec(
            "adversarial-unselective", "geo",
            "open scans and unselective joins: estimates are useless and "
            "join buffers fill",
            seed=907,
            intents={"star": 4, "chain": 2},
            adversarial=("unselective",),
        ),
        ScenarioSpec(
            "adversarial-edge-k", "social",
            "k > result-count, empty match lists and empty joins, plus a "
            "small update stream over them",
            seed=1013,
            k=25,
            intents={"point": 4, "star": 4},
            n_updates=60,
            adversarial=("over-k", "empty-match"),
        ),
    )
}


def scenario_names() -> list[str]:
    """The shipped pack names, sorted."""
    return sorted(SCENARIOS)


def build_scenario(name: str, seed: int | None = None) -> ScenarioPack:
    """Build the named pack, deterministically.

    ``seed=None`` uses the spec's default seed — the configuration the
    golden manifests freeze; any other seed yields the same shapes over
    different dice (distinct content, same structural contract).
    """
    try:
        spec = SCENARIOS[name]
    except KeyError:
        raise DatasetError(
            f"unknown scenario {name!r}; choose from {scenario_names()}"
        ) from None
    seed = spec.seed if seed is None else seed
    schema = DOMAINS[spec.domain]
    rng = make_rng(seed)

    # schemas -> graph + rules
    graph, adjacency = _build_domain_graph(rng, schema)
    rules = _mine_domain_rules(graph, schema)

    # intents -> base queries (generation order fixed by INTENTS order)
    queries: list[TriplePatternQuery] = []
    for intent in INTENTS:
        count = spec.intents.get(intent, 0)
        if count:
            queries += INTENT_GENERATORS[intent](
                rng, schema, adjacency, rules, count
            )

    # augmentation passes (adversarial first: their graph rows exist
    # before the update stream samples the triple population)
    traits = frozenset(spec.adversarial)
    if "ties" in traits:
        queries += _augment_boundary_ties(graph, schema, spec.k)
    if "unselective" in traits:
        queries += _augment_unselective(schema)
    if "over-k" in traits or "empty-match" in traits:
        queries += _augment_edge_k(graph, schema, adjacency)
    if spec.hot_rounds:
        queries = _augment_hot_keys(rng, queries, spec.hot_rounds)
    updates: tuple[GraphUpdate, ...] = ()
    if spec.n_updates:
        updates = tuple(
            _augment_update_stream(rng, graph, queries, spec.n_updates)
        )

    workload = Workload(
        name=f"scenario:{name}", graph=graph, rules=rules, queries=queries
    )
    return ScenarioPack(
        name=name,
        description=spec.description,
        seed=seed,
        k=spec.k,
        workload=workload,
        updates=updates,
        traits=traits,
    )


def build_all_scenarios(seed: int | None = None) -> dict[str, ScenarioPack]:
    """Every shipped pack, by name (the ``make scenarios`` smoke surface)."""
    return {name: build_scenario(name, seed=seed) for name in scenario_names()}
