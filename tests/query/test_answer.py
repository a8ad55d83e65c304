"""Unit tests for repro.query.answer."""

import pytest

from repro.errors import ExecutionError
from repro.query.answer import Answer, AnswerFactory, PartialAnswer


class TestAnswer:
    def test_from_mapping_sorts_bindings(self):
        a = Answer.from_mapping({"z": "1", "a": "2"}, 1.5)
        assert a.bindings == (("a", "2"), ("z", "1"))

    def test_equality_ignores_score(self):
        a = Answer.from_mapping({"s": "x"}, 1.0)
        b = Answer.from_mapping({"s": "x"}, 2.0)
        assert a == b
        assert hash(a) == hash(b)

    def test_as_dict(self):
        a = Answer.from_mapping({"s": "x"}, 1.0)
        assert a.as_dict() == {"s": "x"}


class TestAnswerFactory:
    def test_make_counts(self):
        factory = AnswerFactory()
        factory.make({"s": "x"}, 1.0, frozenset({0}))
        factory.make({"s": "y"}, 0.5, frozenset({1}))
        assert factory.objects_created == 2

    def test_join_merges_and_counts(self):
        factory = AnswerFactory()
        left = factory.make({"s": "x"}, 1.0, frozenset({0}))
        right = factory.make({"s": "x", "o": "y"}, 0.5, frozenset({1}))
        joined = factory.join(left, right)
        assert joined is not None
        assert joined.bindings == {"s": "x", "o": "y"}
        assert joined.score == pytest.approx(1.5)
        assert joined.patterns_covered == frozenset({0, 1})
        assert factory.objects_created == 3

    def test_join_conflict_returns_none(self):
        factory = AnswerFactory()
        left = factory.make({"s": "x"}, 1.0, frozenset({0}))
        right = factory.make({"s": "OTHER"}, 0.5, frozenset({1}))
        assert factory.join(left, right) is None

    def test_join_overlapping_coverage_raises(self):
        factory = AnswerFactory()
        left = factory.make({"s": "x"}, 1.0, frozenset({0}))
        right = factory.make({"s": "x"}, 0.5, frozenset({0}))
        with pytest.raises(ExecutionError):
            factory.join(left, right)


class TestPartialAnswer:
    def test_identity_sorted(self):
        pa = PartialAnswer({"z": "1", "a": "2"}, 1.0, frozenset({0}))
        assert pa.identity() == (("a", "2"), ("z", "1"))

    def test_to_answer_projection(self):
        pa = PartialAnswer({"s": "x", "o": "y"}, 2.0, frozenset({0}))
        assert pa.to_answer(("s",)).bindings == (("s", "x"),)
        assert pa.to_answer().bindings == (("o", "y"), ("s", "x"))
