"""Unit tests for repro.query.query."""

import pytest

from repro.errors import QueryError
from repro.kg.pattern import TriplePattern, var
from repro.query.query import TriplePatternQuery


def tp(type_name, v="s"):
    return TriplePattern(var(v), "rdf:type", type_name)


class TestConstruction:
    def test_basic(self):
        q = TriplePatternQuery((tp("a"), tp("b")))
        assert len(q) == 2
        assert q.variable_names == ("s",)

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            TriplePatternQuery(())

    def test_duplicates_rejected(self):
        with pytest.raises(QueryError):
            TriplePatternQuery((tp("a"), tp("a")))

    def test_default_projection_all_variables(self):
        q = TriplePatternQuery((TriplePattern(var("s"), "p", var("o")),))
        assert set(q.projection) == {var("s"), var("o")}

    def test_explicit_projection(self):
        q = TriplePatternQuery(
            (TriplePattern(var("s"), "p", var("o")),), projection=(var("s"),)
        )
        assert q.projection == (var("s"),)

    def test_unknown_projection_rejected(self):
        with pytest.raises(QueryError):
            TriplePatternQuery((tp("a"),), projection=(var("zz"),))

    def test_name_label(self):
        q = TriplePatternQuery((tp("a"),), name="my-query")
        assert q.name == "my-query"


class TestStructure:
    def test_contains_and_index_of(self):
        q = TriplePatternQuery((tp("a"), tp("b")))
        assert tp("a") in q
        assert q.index_of(tp("b")) == 1

    def test_index_of_missing_raises(self):
        q = TriplePatternQuery((tp("a"),))
        with pytest.raises(QueryError):
            q.index_of(tp("zz"))


class TestRewriting:
    def test_replace_preserves_position(self):
        q = TriplePatternQuery((tp("a"), tp("b"), tp("c")))
        q2 = q.replace(tp("b"), tp("x"))
        assert q2.patterns == (tp("a"), tp("x"), tp("c"))

    def test_replace_missing_raises(self):
        q = TriplePatternQuery((tp("a"),))
        with pytest.raises(QueryError):
            q.replace(tp("zz"), tp("x"))

    def test_replace_to_existing_raises(self):
        q = TriplePatternQuery((tp("a"), tp("b")))
        with pytest.raises(QueryError):
            q.replace(tp("a"), tp("b"))

    def test_without(self):
        q = TriplePatternQuery((tp("a"), tp("b")))
        assert q.without(tp("a")).patterns == (tp("b"),)

    def test_without_last_pattern_raises(self):
        q = TriplePatternQuery((tp("a"),))
        with pytest.raises(QueryError):
            q.without(tp("a"))

    def test_subquery(self):
        q = TriplePatternQuery((tp("a"), tp("b"), tp("c")))
        sub = q.subquery((tp("c"), tp("a")))
        assert sub.patterns == (tp("c"), tp("a"))

    def test_subquery_foreign_pattern_raises(self):
        q = TriplePatternQuery((tp("a"),))
        with pytest.raises(QueryError):
            q.subquery((tp("zz"),))


class TestIdentity:
    def test_set_semantics_equality(self):
        q1 = TriplePatternQuery((tp("a"), tp("b")))
        q2 = TriplePatternQuery((tp("b"), tp("a")))
        assert q1 == q2
        assert hash(q1) == hash(q2)

    def test_str_format(self):
        q = TriplePatternQuery((tp("a"),))
        assert str(q) == "SELECT ?s WHERE { ?s rdf:type a }"
