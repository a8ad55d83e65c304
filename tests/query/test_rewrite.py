"""Unit tests for relaxed-query construction and space enumeration."""

import pytest

from repro.errors import RelaxationError
from repro.kg.pattern import TriplePattern, var
from repro.query.query import TriplePatternQuery
from repro.query.rewrite import (
    apply_rule,
    enumerate_space,
    relax_single,
    space_size,
    top_weighted_relaxation,
)
from repro.relax.rules import RelaxationRule, RuleSet


def tp(name):
    return TriplePattern(var("s"), "rdf:type", name)


@pytest.fixture
def rules():
    rs = RuleSet()
    rs.add(RelaxationRule(tp("singer"), tp("vocalist"), 0.8))
    rs.add(RelaxationRule(tp("singer"), tp("jazz_singer"), 0.6))
    rs.add(RelaxationRule(tp("singer"), tp("artist"), 0.3))
    rs.add(RelaxationRule(tp("lyricist"), tp("writer"), 0.7))
    rs.add(RelaxationRule(tp("guitarist"), tp("musician"), 0.9))
    rs.add(RelaxationRule(tp("guitarist"), tp("instrumentalist"), 0.5))
    rs.add(RelaxationRule(tp("pianist"), tp("percussionist"), 0.4))
    return rs


@pytest.fixture
def query():
    return TriplePatternQuery(
        (tp("singer"), tp("lyricist"), tp("guitarist"), tp("pianist"))
    )


class TestApplyRule:
    def test_substitutes_domain(self, query, rules):
        rule = rules.for_pattern(tp("singer"))[0]
        relaxed = apply_rule(query, rule)
        assert tp("vocalist") in relaxed.patterns
        assert tp("singer") not in relaxed.patterns

    def test_rule_not_applicable_raises(self, query):
        rule = RelaxationRule(tp("drummer"), tp("musician"), 0.5)
        with pytest.raises(RelaxationError):
            apply_rule(query, rule)


class TestRelaxSingle:
    def test_yields_one_variant_per_rule(self, query, rules):
        variants = list(relax_single(query, tp("singer"), rules))
        assert len(variants) == 3
        assert {v.weight for v in variants} == {0.8, 0.6, 0.3}

    def test_variant_slot_patterns(self, query, rules):
        variant = next(iter(relax_single(query, tp("singer"), rules)))
        assert variant.slot_patterns[0] != tp("singer")
        assert variant.slot_patterns[1:] == query.patterns[1:]

    def test_missing_pattern_raises(self, query, rules):
        with pytest.raises(RelaxationError):
            list(relax_single(query, tp("zz"), rules))


class TestEnumerateSpace:
    def test_papers_48_queries(self, query, rules):
        # 4 options for singer, 2 for lyricist, 3 for guitarist, 2 for
        # pianist -> 48 unique queries (§1).
        assert space_size(query, rules) == 48
        variants = enumerate_space(query, rules)
        assert len(variants) == 48

    def test_original_first(self, query, rules):
        variants = enumerate_space(query, rules)
        assert variants[0].weight == 1.0
        assert variants[0].n_relaxed == 0

    def test_ordered_by_descending_weight(self, query, rules):
        weights = [v.weight for v in enumerate_space(query, rules)]
        assert weights == sorted(weights, reverse=True)

    def test_max_variants_cap(self, query, rules):
        assert len(enumerate_space(query, rules, max_variants=5)) == 5

    def test_no_rules_space_is_one(self, query):
        assert space_size(query, RuleSet()) == 1

    def test_query_property_none_on_collision(self):
        rs = RuleSet()
        rs.add(RelaxationRule(tp("a"), tp("x"), 0.5))
        rs.add(RelaxationRule(tp("b"), tp("x"), 0.5))
        q = TriplePatternQuery((tp("a"), tp("b")))
        variants = enumerate_space(q, rs)
        collided = [v for v in variants if v.n_relaxed == 2]
        assert len(collided) == 1
        assert collided[0].query is None
        assert collided[0].slot_patterns == (tp("x"), tp("x"))


class TestTopWeighted:
    def test_picks_best_weight(self, query, rules):
        rule = top_weighted_relaxation(query, tp("singer"), rules)
        assert rule is not None
        assert rule.weight == 0.8

    def test_none_without_rules(self, query):
        assert top_weighted_relaxation(query, tp("singer"), RuleSet()) is None

    def test_weight_tie_goes_to_the_greatest_range_key(self):
        rs = RuleSet()
        for name in ("b", "c", "a"):
            rs.add(RelaxationRule(tp("singer"), tp(name), 0.5))
        q = TriplePatternQuery((tp("singer"),))
        assert top_weighted_relaxation(q, tp("singer"), rs).range == tp("c")
        # The memo is dropped by the next add.
        rs.add(RelaxationRule(tp("singer"), tp("d"), 0.5))
        assert top_weighted_relaxation(q, tp("singer"), rs).range == tp("d")
        rs.add(RelaxationRule(tp("singer"), tp("a"), 0.9))
        assert top_weighted_relaxation(q, tp("singer"), rs).range == tp("a")

    def test_tie_between_a_variable_and_a_constant_range_term(self):
        """Two tied ranges that differ variable-against-constant in one
        position: the variable sorts after any term, as in the bucket."""
        x, y = var("x"), var("y")
        domain = TriplePattern(x, "type", y)
        kind = RelaxationRule(domain, TriplePattern(x, "kind", y), 0.5)
        thing = RelaxationRule(domain, TriplePattern(x, y, "thing"), 0.5)
        rs = RuleSet([kind, thing])
        q = TriplePatternQuery((domain,))
        assert top_weighted_relaxation(q, domain, rs) == thing
        assert rs.for_pattern(domain) == [kind, thing]
