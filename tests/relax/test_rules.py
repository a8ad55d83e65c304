"""Unit tests for repro.relax.rules."""

import pytest

from repro.errors import RelaxationError
from repro.kg.pattern import TriplePattern, var
from repro.relax.rules import RelaxationRule, RuleSet


def tp(name, v="s"):
    return TriplePattern(var(v), "rdf:type", name)


class TestRuleValidation:
    def test_valid_rule(self):
        rule = RelaxationRule(tp("singer"), tp("vocalist"), 0.8)
        assert rule.weight == 0.8

    @pytest.mark.parametrize("weight", [0.0, -0.5, 1.5])
    def test_bad_weights_rejected(self, weight):
        with pytest.raises(RelaxationError):
            RelaxationRule(tp("a"), tp("b"), weight)

    def test_weight_one_allowed(self):
        assert RelaxationRule(tp("a"), tp("b"), 1.0).weight == 1.0

    def test_variable_change_rejected(self):
        with pytest.raises(RelaxationError):
            RelaxationRule(tp("a", "s"), tp("b", "other"), 0.5)

    def test_identity_rule_rejected(self):
        with pytest.raises(RelaxationError):
            RelaxationRule(tp("a"), tp("a"), 0.5)


class TestRetargeting:
    def test_rename_to_other_variable(self):
        rule = RelaxationRule(tp("singer", "s"), tp("vocalist", "s"), 0.8)
        retargeted = rule.rename_to(tp("singer", "x"))
        assert retargeted.domain == tp("singer", "x")
        assert retargeted.range == tp("vocalist", "x")
        assert retargeted.weight == 0.8

    def test_rename_to_wrong_key_raises(self):
        rule = RelaxationRule(tp("singer"), tp("vocalist"), 0.8)
        with pytest.raises(RelaxationError):
            rule.rename_to(tp("pianist"))


class TestRuleSet:
    def test_add_and_lookup(self):
        rs = RuleSet([RelaxationRule(tp("a"), tp("b"), 0.5)])
        assert len(rs) == 1
        assert rs.has_rules_for(tp("a"))
        assert not rs.has_rules_for(tp("zz"))

    def test_lookup_is_variable_agnostic(self):
        rs = RuleSet([RelaxationRule(tp("a", "s"), tp("b", "s"), 0.5)])
        rules = rs.for_pattern(tp("a", "x"))
        assert len(rules) == 1
        assert rules[0].range == tp("b", "x")

    def test_sorted_best_weight_first(self):
        rs = RuleSet()
        rs.add(RelaxationRule(tp("a"), tp("low"), 0.2))
        rs.add(RelaxationRule(tp("a"), tp("high"), 0.9))
        weights = [r.weight for r in rs.for_pattern(tp("a"))]
        assert weights == [0.9, 0.2]

    def test_same_domain_range_replaces(self):
        rs = RuleSet()
        rs.add(RelaxationRule(tp("a"), tp("b"), 0.5))
        rs.add(RelaxationRule(tp("a"), tp("b"), 0.7))
        rules = rs.for_pattern(tp("a"))
        assert len(rules) == 1
        assert rules[0].weight == 0.7

    def test_replacement_keeps_best_weight_first(self):
        """Re-adding a (domain, range) pair with another weight moves its
        rank too: a truncation to the best rules must not keep it."""
        rs = RuleSet()
        rs.add(RelaxationRule(tp("a"), tp("b"), 0.9))
        rs.add(RelaxationRule(tp("a"), tp("c"), 0.5))
        rs.add(RelaxationRule(tp("a"), tp("b"), 0.1))
        rules = rs.for_pattern(tp("a"))
        assert [(r.range, r.weight) for r in rules] == [(tp("c"), 0.5), (tp("b"), 0.1)]
        assert len(rs) == 2

    def test_version_counts_every_mutation(self):
        rs = RuleSet()
        assert rs.version == 0
        rs.add(RelaxationRule(tp("a"), tp("b"), 0.5))
        rs.add(RelaxationRule(tp("a"), tp("b"), 0.6))  # a replacement too
        assert rs.version == 2
        rs.add_all([RelaxationRule(tp("a"), tp("c"), 0.4)])
        assert rs.version == 3
        assert RuleSet(rs).version == 2  # a copy counts its own adds

    def test_for_pattern_memo_follows_adds_and_stays_private(self):
        rs = RuleSet([RelaxationRule(tp("a"), tp("b"), 0.5)])
        first = rs.for_pattern(tp("a", "x"))
        again = rs.for_pattern(tp("a", "x"))
        assert first == again and first is not again
        assert first[0] is again[0]  # renamed once, served twice
        first.clear()  # the caller's list, not the memo
        assert len(rs.for_pattern(tp("a", "x"))) == 1
        assert rs.for_pattern(tp("a", "y"))[0].range == tp("b", "y")
        rs.add(RelaxationRule(tp("a"), tp("c"), 0.9))
        assert [r.range for r in rs.for_pattern(tp("a", "x"))] == [
            tp("c", "x"),
            tp("b", "x"),
        ]

    def test_n_rules_for(self):
        rs = RuleSet()
        rs.add(RelaxationRule(tp("a"), tp("b"), 0.5))
        rs.add(RelaxationRule(tp("a"), tp("c"), 0.4))
        assert rs.n_rules_for(tp("a")) == 2
        assert rs.n_rules_for(tp("zz")) == 0

    def test_iteration_and_domains(self):
        rs = RuleSet()
        rs.add(RelaxationRule(tp("a"), tp("b"), 0.5))
        rs.add(RelaxationRule(tp("x"), tp("y"), 0.4))
        assert len(list(rs)) == 2
        assert len(rs.domains()) == 2

    def test_merged_with(self):
        rs1 = RuleSet([RelaxationRule(tp("a"), tp("b"), 0.5)])
        rs2 = RuleSet([RelaxationRule(tp("x"), tp("y"), 0.4)])
        merged = rs1.merged_with(rs2)
        assert merged.has_rules_for(tp("a"))
        assert merged.has_rules_for(tp("x"))
        # Originals untouched
        assert not rs1.has_rules_for(tp("x"))
