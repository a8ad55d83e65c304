"""Unit tests for instance-overlap relaxation mining."""

import pytest

from repro.errors import RelaxationError
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, var
from repro.relax.mining import (
    containment_weight,
    mine_object_relaxations,
)


@pytest.fixture
def typed_graph():
    kg = KnowledgeGraph()
    # 4 singers; 3 of them also vocalists; 2 also musicians.
    for e in ("a", "b", "c", "d"):
        kg.add(e, "rdf:type", "singer")
    for e in ("a", "b", "c"):
        kg.add(e, "rdf:type", "vocalist")
    for e in ("a", "b"):
        kg.add(e, "rdf:type", "musician")
    kg.add("z", "rdf:type", "vocalist")  # vocalist-only entity
    return kg


class TestContainment:
    def test_full_containment(self):
        assert containment_weight({"a", "b"}, {"a", "b", "c"}) == 1.0

    def test_partial(self):
        assert containment_weight({"a", "b", "c", "d"}, {"a", "b"}) == 0.5

    def test_empty_a(self):
        assert containment_weight(set(), {"a"}) == 0.0

    def test_asymmetry(self):
        a, b = {"a", "b", "c", "d"}, {"a", "b", "c"}
        assert containment_weight(a, b) != containment_weight(b, a)


class TestObjectMining:
    def test_weights_match_overlap(self, typed_graph):
        rules = mine_object_relaxations(typed_graph, "rdf:type", min_weight=0.05)
        singer = TriplePattern(var("s"), "rdf:type", "singer")
        by_target = {r.range.object: r.weight for r in rules.for_pattern(singer)}
        assert by_target["vocalist"] == pytest.approx(3 / 4)
        assert by_target["musician"] == pytest.approx(2 / 4)

    def test_min_weight_filters(self, typed_graph):
        rules = mine_object_relaxations(typed_graph, "rdf:type", min_weight=0.6)
        singer = TriplePattern(var("s"), "rdf:type", "singer")
        targets = {r.range.object for r in rules.for_pattern(singer)}
        assert targets == {"vocalist"}

    def test_max_rules_cap(self, typed_graph):
        rules = mine_object_relaxations(
            typed_graph, "rdf:type", min_weight=0.05, max_rules_per_constant=1
        )
        singer = TriplePattern(var("s"), "rdf:type", "singer")
        assert len(rules.for_pattern(singer)) == 1

    def test_constants_filter(self, typed_graph):
        rules = mine_object_relaxations(
            typed_graph, "rdf:type", constants=["vocalist"]
        )
        assert not rules.has_rules_for(TriplePattern(var("s"), "rdf:type", "singer"))
        assert rules.has_rules_for(TriplePattern(var("s"), "rdf:type", "vocalist"))

    def test_full_containment_excluded(self, typed_graph):
        # weight 1.0 rules are excluded (weight must be < 1 for mined rules)
        kg = typed_graph
        kg.add("e", "rdf:type", "duplicate_singer")
        rules = mine_object_relaxations(kg, "rdf:type")
        for rule in rules:
            assert rule.weight < 1.0

    def test_bad_min_weight_raises(self, typed_graph):
        with pytest.raises(RelaxationError):
            mine_object_relaxations(typed_graph, "rdf:type", min_weight=1.0)
