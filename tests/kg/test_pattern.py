"""Unit tests for repro.kg.pattern."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PatternError
from repro.kg.pattern import TriplePattern, Variable, is_variable, var
from repro.kg.triple import Triple


class TestVariable:
    def test_str_has_question_mark(self):
        assert str(Variable("s")) == "?s"

    def test_empty_name_rejected(self):
        with pytest.raises(PatternError):
            Variable("")

    def test_prefixed_name_rejected(self):
        with pytest.raises(PatternError):
            Variable("?s")

    def test_var_shorthand(self):
        assert var("x") == Variable("x")

    def test_is_variable(self):
        assert is_variable(Variable("x"))
        assert not is_variable("x")


class TestPatternBasics:
    def test_terms(self):
        p = TriplePattern(var("s"), "rdf:type", "singer")
        assert p.terms == (var("s"), "rdf:type", "singer")

    def test_variables_in_position_order(self):
        p = TriplePattern(var("s"), var("p"), var("o"))
        assert p.variable_names == ("s", "p", "o")

    def test_repeated_variable_counted_once(self):
        p = TriplePattern(var("x"), "p", var("x"))
        assert p.variable_names == ("x",)

    def test_key_wildcard_positions(self):
        p = TriplePattern(var("s"), "rdf:type", "singer")
        assert p.key() == (None, "rdf:type", "singer")

    def test_key_variable_name_independent(self):
        a = TriplePattern(var("s"), "p", "o")
        b = TriplePattern(var("x"), "p", "o")
        assert a.key() == b.key()

    def test_empty_constant_rejected(self):
        with pytest.raises(PatternError):
            TriplePattern("", "p", "o")

    def test_str(self):
        p = TriplePattern(var("s"), "rdf:type", "singer")
        assert str(p) == "?s rdf:type singer"


class TestMatching:
    def test_constant_match(self):
        p = TriplePattern("a", "p", "b")
        assert p.matches(Triple("a", "p", "b"))
        assert not p.matches(Triple("a", "p", "c"))

    def test_variable_binds(self):
        p = TriplePattern(var("s"), "rdf:type", "singer")
        t = Triple("shakira", "rdf:type", "singer")
        assert p.bind(t) == {"s": "shakira"}

    def test_bind_mismatch_returns_none(self):
        p = TriplePattern(var("s"), "rdf:type", "singer")
        assert p.bind(Triple("x", "rdf:type", "pianist")) is None

    def test_repeated_variable_consistency(self):
        p = TriplePattern(var("x"), "knows", var("x"))
        assert p.bind(Triple("a", "knows", "a")) == {"x": "a"}
        assert p.bind(Triple("a", "knows", "b")) is None

    def test_all_variables_matches_everything(self):
        p = TriplePattern(var("s"), var("p"), var("o"))
        assert p.matches(Triple("any", "thing", "atall"))


class TestSubstituteRename:
    def test_substitute_full(self):
        p = TriplePattern(var("s"), "rdf:type", var("t"))
        q = p.substitute({"s": "shakira", "t": "singer"})
        assert q == TriplePattern("shakira", "rdf:type", "singer")

    def test_substitute_partial(self):
        p = TriplePattern(var("s"), "rdf:type", var("t"))
        q = p.substitute({"t": "singer"})
        assert q == TriplePattern(var("s"), "rdf:type", "singer")

    def test_rename(self):
        p = TriplePattern(var("s"), "p", var("o"))
        q = p.rename({"s": "x"})
        assert q == TriplePattern(var("x"), "p", var("o"))

    def test_shares_variable_with(self):
        a = TriplePattern(var("s"), "p1", "o1")
        b = TriplePattern(var("s"), "p2", "o2")
        c = TriplePattern(var("t"), "p3", "o3")
        assert a.shares_variable_with(b)
        assert not a.shares_variable_with(c)


class TestIdentity:
    def test_equal_patterns(self):
        assert TriplePattern(var("s"), "p", "o") == TriplePattern(var("s"), "p", "o")

    def test_different_variable_names_not_equal(self):
        assert TriplePattern(var("s"), "p", "o") != TriplePattern(var("x"), "p", "o")

    def test_hashable(self):
        patterns = {TriplePattern(var("s"), "p", "o"), TriplePattern(var("s"), "p", "o")}
        assert len(patterns) == 1


def computed_key(pattern):
    """:meth:`TriplePattern.key` as computed on every call before the
    keys were cached."""
    return tuple(None if isinstance(t, Variable) else t for t in pattern.terms)


def computed_list_key(pattern):
    key = computed_key(pattern)
    if key.count(None) < 2:
        return key
    repeated = pattern.repeated_positions
    return key + (repeated,) if repeated else key


#: A position: one of three variables (so repeats are common) or a constant.
terms = st.one_of(
    st.sampled_from(["x", "y", "z"]).map(Variable), st.sampled_from(["a", "p", "b"])
)
patterns = st.builds(TriplePattern, terms, terms, terms)


class TestCachedKeys:
    """The keys computed once at construction are the keys computed on
    demand, and every way of copying a pattern keeps them right."""

    @given(patterns)
    def test_cached_keys_equal_the_computed_form(self, pattern):
        assert pattern.key() == computed_key(pattern)
        assert pattern.list_key() == computed_list_key(pattern)
        assert pattern.list_key()[:3] == pattern.key()

    @given(patterns, terms)
    def test_keys_survive_pickling_copying_and_replace(self, pattern, term):
        for copied in (
            pickle.loads(pickle.dumps(pattern)),
            copy.copy(pattern),
            copy.deepcopy(pattern),
        ):
            assert copied == pattern and hash(copied) == hash(pattern)
            assert copied.list_key() == computed_list_key(pattern)
        replaced = dataclasses.replace(pattern, object=term)
        assert replaced.key() == computed_key(replaced)
        assert replaced.list_key() == computed_list_key(replaced)

    def test_keys_stay_out_of_equality_and_repr(self):
        pattern = TriplePattern(Variable("x"), "p", Variable("x"))
        assert pattern.list_key() == (None, "p", None, ((0, 2),))
        assert pattern == TriplePattern(Variable("x"), "p", Variable("x"))
        assert pattern != TriplePattern(Variable("x"), "p", Variable("y"))
        assert repr(pattern) == "TriplePattern(Variable('x'), 'p', Variable('x'))"
        # Pickled as its three terms; loading validates them again.
        assert pickle.loads(pickle.dumps(pattern)).list_key() == pattern.list_key()

    @given(patterns)
    def test_hash_is_the_hash_of_the_three_terms(self, pattern):
        rebuilt = TriplePattern(*pattern.terms)
        assert rebuilt is not pattern
        assert rebuilt == pattern and hash(rebuilt) == hash(pattern)
        assert hash(pattern) == hash((pattern.subject, pattern.predicate, pattern.object))

    @given(patterns, patterns)
    def test_equality_and_repr_read_the_terms_only(self, pattern, other):
        assert (pattern == other) == (pattern.terms == other.terms)
        subject, predicate, object_ = pattern.terms
        assert repr(pattern) == (
            f"TriplePattern({subject!r}, {predicate!r}, {object_!r})"
        )

    def test_hash_survives_a_pickle_from_another_hash_seed(self):
        """String hashes differ between processes, so a pickle must carry
        the terms and never the hash: the loaded pattern hashes as one
        built here and finds it in a dict."""
        pattern = TriplePattern(Variable("x"), "p", "an object")
        script = (
            "import pickle, sys; from repro.kg.pattern import TriplePattern, Variable; "
            "sys.stdout.write(pickle.dumps("
            "TriplePattern(Variable('x'), 'p', 'an object')).hex())"
        )
        env = {**os.environ, "PYTHONHASHSEED": "12345"}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        dumped = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        loaded = pickle.loads(bytes.fromhex(dumped))
        assert loaded == pattern and hash(loaded) == hash(pattern)
        assert hash(loaded) == hash((Variable("x"), "p", "an object"))
        assert {pattern: 1}[loaded] == 1
