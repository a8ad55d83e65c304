"""Unit tests for repro.kg.triple."""

import pytest

from repro.errors import KnowledgeGraphError
from repro.kg.triple import Triple


class TestConstruction:
    def test_basic_fields(self):
        t = Triple("a", "p", "b", 2.5)
        assert t.subject == "a"
        assert t.predicate == "p"
        assert t.object == "b"
        assert t.score == 2.5

    def test_default_score_is_one(self):
        assert Triple("a", "p", "b").score == 1.0

    def test_spo_property(self):
        assert Triple("a", "p", "b").spo == ("a", "p", "b")

    @pytest.mark.parametrize("field", ["subject", "predicate", "object"])
    def test_empty_term_rejected(self, field):
        kwargs = {"subject": "a", "predicate": "p", "object": "b"}
        kwargs[field] = ""
        with pytest.raises(KnowledgeGraphError):
            Triple(**kwargs)

    @pytest.mark.parametrize("field", ["subject", "predicate", "object"])
    def test_non_string_term_rejected(self, field):
        kwargs = {"subject": "a", "predicate": "p", "object": "b"}
        kwargs[field] = 42
        with pytest.raises(KnowledgeGraphError):
            Triple(**kwargs)

    def test_negative_score_rejected(self):
        with pytest.raises(KnowledgeGraphError):
            Triple("a", "p", "b", -0.1)

    def test_non_numeric_score_rejected(self):
        with pytest.raises(KnowledgeGraphError):
            Triple("a", "p", "b", "high")

    def test_zero_score_allowed(self):
        assert Triple("a", "p", "b", 0.0).score == 0.0


class TestIdentity:
    def test_equality_ignores_score(self):
        assert Triple("a", "p", "b", 1.0) == Triple("a", "p", "b", 99.0)

    def test_hash_ignores_score(self):
        assert hash(Triple("a", "p", "b", 1.0)) == hash(Triple("a", "p", "b", 7.0))

    def test_inequality_on_terms(self):
        assert Triple("a", "p", "b") != Triple("a", "p", "c")

    def test_not_equal_to_tuple(self):
        assert Triple("a", "p", "b") != ("a", "p", "b")

    def test_usable_in_sets(self):
        triples = {Triple("a", "p", "b", 1), Triple("a", "p", "b", 2)}
        assert len(triples) == 1
