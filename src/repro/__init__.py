"""Spec-QP — speculative query planning for top-k joins over scored
knowledge graphs.

Reproduction of Mohanty, Ramanath, Yahya & Weikum, *Spec-QP: Speculative
Query Planning for Joins over Knowledge Graphs* (EDBT 2019).

Quickstart (complete and copy-pasteable)::

    from repro import (
        KnowledgeGraph, RelaxationRule, RuleSet, SpecQPEngine,
        TriplePattern, Variable,
    )

    kg = KnowledgeGraph()
    kg.add("shakira", "rdf:type", "singer", score=120)
    kg.add("shakira", "rdf:type", "lyricist", score=90)
    kg.add("freddie", "rdf:type", "vocalist", score=115)
    kg.add("freddie", "rdf:type", "lyricist", score=80)
    kg.add("dylan", "rdf:type", "singer", score=70)
    kg.add("dylan", "rdf:type", "lyricist", score=100)

    s = Variable("s")
    rules = RuleSet()
    rules.add(RelaxationRule(
        TriplePattern(s, "rdf:type", "singer"),
        TriplePattern(s, "rdf:type", "vocalist"),
        weight=0.8,
    ))

    engine = SpecQPEngine(kg, rules)
    result = engine.query(
        "SELECT ?s WHERE { ?s 'rdf:type' <singer>. ?s 'rdf:type' <lyricist> }",
        k=3,
    )
    for answer in result.answers:
        print(answer.as_dict()["s"], round(answer.score, 3))

Batches of queries are served through :class:`repro.service.WorkloadRunner`,
which runs the block pipeline over one statistics catalog, encoded list
store and whole-answer result cache shared across the whole workload —
see ``docs/api.md`` for the full public surface.
"""

from repro.baselines import NaiveEngine, TriniTEngine
from repro.core import (
    EngineConfig,
    ExpectedScoreEstimator,
    QueryPlan,
    QueryResult,
    SpecQPEngine,
    SpecQPPlanner,
)
from repro.kg import KnowledgeGraph, Triple, TriplePattern, Variable
from repro.query import Answer, TriplePatternQuery, parse_sparql
from repro.relax import RelaxationRule, RuleSet
from repro.service import MatchListCache, WorkloadReport, WorkloadRunner
from repro.stats import StatisticsCatalog, TwoBucketHistogram

__version__ = "1.1.0"

__all__ = [
    "Answer",
    "EngineConfig",
    "ExpectedScoreEstimator",
    "KnowledgeGraph",
    "MatchListCache",
    "NaiveEngine",
    "QueryPlan",
    "QueryResult",
    "RelaxationRule",
    "RuleSet",
    "SpecQPEngine",
    "SpecQPPlanner",
    "StatisticsCatalog",
    "TriniTEngine",
    "Triple",
    "TriplePattern",
    "TriplePatternQuery",
    "TwoBucketHistogram",
    "Variable",
    "WorkloadReport",
    "WorkloadRunner",
    "parse_sparql",
    "__version__",
]
