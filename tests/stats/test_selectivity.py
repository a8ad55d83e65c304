"""Unit tests for join cardinality estimation."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.estimator import ExpectedScoreEstimator
from repro.errors import StatisticsError
from repro.kg.columnar import ColumnarGraph
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, var
from repro.kg.storage import load_snapshot_v2, save_snapshot_v2
from repro.kg.triple import Triple
from repro.operators.block import EncodedListStore
from repro.query.query import TriplePatternQuery
from repro.stats.catalog import StatisticsCatalog
from repro.stats.selectivity import JoinCardinalityEstimator


def tp(name, v="s"):
    return TriplePattern(var(v), "rdf:type", name)


@pytest.fixture
def graph():
    kg = KnowledgeGraph()
    # t1: a b c ; t2: b c d ; t3: c d e
    for e in ("a", "b", "c"):
        kg.add(e, "rdf:type", "t1")
    for e in ("b", "c", "d"):
        kg.add(e, "rdf:type", "t2")
    for e in ("c", "d", "e"):
        kg.add(e, "rdf:type", "t3")
    return kg


class TestExactMode:
    def test_single_pattern(self, graph):
        est = JoinCardinalityEstimator(graph, "exact")
        assert est.cardinality(TriplePatternQuery((tp("t1"),))) == 3

    def test_two_way_join(self, graph):
        est = JoinCardinalityEstimator(graph, "exact")
        q = TriplePatternQuery((tp("t1"), tp("t2")))
        assert est.cardinality(q) == 2  # {b, c}

    def test_three_way_join(self, graph):
        est = JoinCardinalityEstimator(graph, "exact")
        q = TriplePatternQuery((tp("t1"), tp("t2"), tp("t3")))
        assert est.cardinality(q) == 1  # {c}

    def test_empty_join(self, graph):
        graph.add("z", "rdf:type", "t_only_z")
        est = JoinCardinalityEstimator(graph, "exact")
        q = TriplePatternQuery((tp("t1"), tp("t_only_z")))
        assert est.cardinality(q) == 0

    def test_order_invariance(self, graph):
        est = JoinCardinalityEstimator(graph, "exact")
        a = est.cardinality(TriplePatternQuery((tp("t1"), tp("t2"))))
        b = est.cardinality(TriplePatternQuery((tp("t2"), tp("t1"))))
        assert a == b

    def test_cartesian_product(self, graph):
        est = JoinCardinalityEstimator(graph, "exact")
        q = TriplePatternQuery((tp("t1", "s"), tp("t2", "other")))
        assert est.cardinality(q) == 9

    def test_cardinalities_of_growing_subqueries(self, graph):
        est = JoinCardinalityEstimator(graph, "exact")
        q = TriplePatternQuery((tp("t1"), tp("t2"), tp("t3")))
        counts = [est.cardinality(q.subquery(q.patterns[:n])) for n in (1, 2, 3)]
        assert counts == [3, 2, 1]

    def test_cache_grows_and_hits(self, graph):
        est = JoinCardinalityEstimator(graph, "exact")
        q = TriplePatternQuery((tp("t1"), tp("t2")))
        est.cardinality(q)
        size = est.cache_size
        est.cardinality(q)
        assert est.cache_size == size

    def test_precompute_warms_the_full_query_count_only(self, graph):
        est = JoinCardinalityEstimator(graph, "exact")
        q = TriplePatternQuery((tp("t1"), tp("t2"), tp("t3")))
        assert est.precompute([q]) == 1
        assert est.cardinality(q) == 1
        assert est.cache_size == 1

    def test_chain_join_on_objects(self):
        kg = KnowledgeGraph()
        kg.add("a", "knows", "b")
        kg.add("b", "knows", "c")
        kg.add("c", "knows", "d")
        est = JoinCardinalityEstimator(kg, "exact")
        p1 = TriplePattern(var("x"), "knows", var("y"))
        p2 = TriplePattern(var("y"), "knows", var("z"))
        q = TriplePatternQuery((p1, p2))
        assert est.cardinality(q) == 2  # a-b-c, b-c-d


class TestIndependenceMode:
    def test_single_pattern_exactish(self, graph):
        est = JoinCardinalityEstimator(graph, "independence")
        assert est.cardinality(TriplePatternQuery((tp("t1"),))) == 3

    def test_join_estimate_formula(self, graph):
        est = JoinCardinalityEstimator(graph, "independence")
        q = TriplePatternQuery((tp("t1"), tp("t2")))
        # 3 * 3 / max(V=3, V=3) = 3
        assert est.cardinality(q) == 3

    def test_never_negative(self, graph):
        est = JoinCardinalityEstimator(graph, "independence")
        q = TriplePatternQuery((tp("t1"), tp("t2"), tp("t3")))
        assert est.cardinality(q) >= 0


class TestValidation:
    def test_unknown_mode(self, graph):
        with pytest.raises(StatisticsError):
            JoinCardinalityEstimator(graph, "magic")  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# The vectorised count against a brute-force distinct-binding count
# ----------------------------------------------------------------------
ENTITIES = ("e0", "e1", "e2", "e3")
PREDICATES = ("p0", "p1")
#: Terms a pattern or an update may name; the last two are in no seed graph.
PATTERN_TERMS = ENTITIES + PREDICATES + ("fresh", "absent")

spo_keys = st.tuples(
    st.sampled_from(ENTITIES), st.sampled_from(PREDICATES), st.sampled_from(ENTITIES)
)
seed_triples = st.dictionaries(
    spo_keys, st.sampled_from((1.0, 2.0, 3.0)), min_size=1, max_size=14
)
update_keys = st.tuples(
    st.sampled_from(ENTITIES + ("fresh",)),
    st.sampled_from(PREDICATES),
    st.sampled_from(ENTITIES + ("fresh",)),
)
update_batches = st.lists(
    st.one_of(
        st.builds(
            lambda key, score: GraphUpdate.add(*key, score),
            update_keys,
            st.sampled_from((1.0, 2.0, 5.0)),
        ),
        st.builds(lambda key: GraphUpdate.remove(*key), update_keys),
    ),
    max_size=6,
)
# Star, chain, cartesian, repeated-variable (?x p ?x), fully-bound and
# empty patterns all come out of three variable names over this universe.
pattern_terms = st.one_of(
    st.sampled_from(PATTERN_TERMS), st.sampled_from(("x", "y", "z")).map(var)
)
#: Slots, not a query: two slots may hold the same pattern, as
#: ``query_distribution`` has it when a relaxation collides with a slot.
pattern_slots = st.lists(
    st.builds(TriplePattern, pattern_terms, pattern_terms, pattern_terms),
    min_size=1,
    max_size=3,
)


def brute_force_count(graph, patterns) -> int:
    """Distinct variable bindings under which every pattern names a triple
    of *graph*, by nested loops over ``TriplePattern.bind``."""
    bindings = [{}]
    for pattern in patterns:
        bindings = [
            {**binding, **bound}
            for binding in bindings
            for triple in graph.triples()
            if (bound := pattern.bind(triple)) is not None
            and all(binding.get(name, value) == value for name, value in bound.items())
        ]
    return len({tuple(sorted(binding.items())) for binding in bindings})


def exact_count(graph, patterns) -> int:
    return JoinCardinalityEstimator(graph, "exact")._exact_cardinality(tuple(patterns))


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=seed_triples, updates=update_batches, patterns=pattern_slots)
def test_vectorised_count_is_the_brute_force_count_on_every_backend(
    seed, updates, patterns
):
    reference = KnowledgeGraph(Triple(*spo, score) for spo, score in seed.items())
    expected = brute_force_count(reference, patterns)
    columnar = ColumnarGraph.from_graph(reference)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "graph.kg2"
        save_snapshot_v2(columnar, path)
        mapped = load_snapshot_v2(path, mmap=True)
        for graph in (reference, columnar, mapped):
            assert exact_count(graph, patterns) == expected

        live = LiveGraph(mapped)
        live.apply_updates(updates)
        expected_live = brute_force_count(live.thaw(), patterns)
        assert exact_count(live, patterns) == expected_live
        # One estimator across the compaction: the store notices the new
        # base, the count cache is the catalog's business.
        estimator = JoinCardinalityEstimator(live, "exact")
        assert estimator._exact_cardinality(tuple(patterns)) == expected_live
        live.compact()
        estimator.clear()
        assert estimator._exact_cardinality(tuple(patterns)) == expected_live
        del live, mapped  # unmap before the directory goes


class TestVectorisedCountCorners:
    def test_fully_bound_patterns_filter(self, graph):
        present = TriplePattern("a", "rdf:type", "t1")
        missing = TriplePattern("e", "rdf:type", "t1")
        assert exact_count(graph, (present,)) == 1
        assert exact_count(graph, (missing,)) == 0
        assert exact_count(graph, (present, tp("t2"))) == 3
        assert exact_count(graph, (missing, tp("t2"))) == 0

    def test_repeated_variable_keeps_the_diagonal(self):
        kg = KnowledgeGraph()
        kg.add("a", "knows", "a")
        kg.add("a", "knows", "b")
        kg.add("b", "knows", "b")
        diagonal = TriplePattern(var("x"), "knows", var("x"))
        assert exact_count(kg, (diagonal,)) == 2
        columnar = ColumnarGraph.from_graph(kg)
        assert exact_count(columnar, (diagonal,)) == 2
        # Id columns are sliced per pattern, not per key: both shapes of
        # one key in one count.
        both = (diagonal, TriplePattern(var("x"), "knows", var("y")))
        assert exact_count(columnar, both) == 3

    def test_cyclic_join_carries_the_new_bindings(self):
        # The closing pattern joins on bindings the fan-out join added,
        # so the rows gathered for ?z have to be the matching ones.
        kg = KnowledgeGraph()
        for s, o in (("a", "b"), ("b", "c"), ("b", "d"), ("c", "a")):
            kg.add(s, "p", o)
        triangle = (
            TriplePattern(var("x"), "p", var("y")),
            TriplePattern(var("y"), "p", var("z")),
            TriplePattern(var("z"), "p", var("x")),
        )
        assert brute_force_count(kg, triangle) == 3  # a-b-c, rotated
        assert exact_count(kg, triangle) == 3
        assert exact_count(ColumnarGraph.from_graph(kg), triangle) == 3

    def test_more_key_columns_than_int64_packs(self, monkeypatch):
        # Force the unpackable-key fallback (joint group ids) on a join
        # over two shared variables.
        from repro.stats import selectivity

        kg = KnowledgeGraph()
        for s, o in (("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")):
            kg.add(s, "p", o)
            kg.add(o, "q", s)
        kg.add("b", "q", "b")
        patterns = (
            TriplePattern(var("x"), "p", var("y")),
            TriplePattern(var("y"), "q", var("x")),
            TriplePattern(var("x"), var("r"), var("y")),
        )
        expected = brute_force_count(kg, patterns)
        monkeypatch.setattr(
            selectivity, "pack_columns", lambda columns, n_ids, n_rows=None: None
        )
        assert exact_count(kg, patterns) == expected

    def test_duplicate_slots_from_query_distribution(self, graph):
        # Relaxing t1 to t2 in {t1, t2} leaves two slots holding t2: the
        # estimator counts the deduplicated set.
        catalog = StatisticsCatalog(graph)
        query = TriplePatternQuery((tp("t1"), tp("t2")))
        distribution = ExpectedScoreEstimator(catalog).query_distribution(
            query, replace={tp("t1"): (tp("t2"), 0.5)}
        )
        assert distribution.count == brute_force_count(graph, (tp("t2"),)) == 3

    def test_counting_warms_the_shared_store(self, graph):
        store = EncodedListStore()
        columnar = ColumnarGraph.from_graph(graph)
        estimator = JoinCardinalityEstimator(columnar, "exact", store)
        estimator.cardinality(TriplePatternQuery((tp("t1"), tp("t2"))))
        assert store.stats()["size"] == 2
        # ... and a cached count reads no list at all.
        before = store.stats()
        estimator.cardinality(TriplePatternQuery((tp("t2"), tp("t1"))))
        assert store.stats() == before

    def test_drop_matching_is_targeted(self, graph):
        estimator = JoinCardinalityEstimator(graph, "exact")
        for patterns in (
            (tp("t1"),),
            (tp("t1"), tp("t2")),
            (tp("t1"), tp("t2"), tp("t3")),
            (tp("t3"),),
        ):
            estimator.cardinality(TriplePatternQuery(patterns))
        estimator.drop_matching({tp("t2").key()})
        assert set(estimator._exact_cache) == {
            frozenset((tp("t1"),)),
            frozenset((tp("t3"),)),
        }


class TestDistinctValues:
    """The independence estimate's distinct-value counts are cached per
    pattern *column*, not per variable name."""

    @pytest.fixture
    def three(self):
        kg = KnowledgeGraph()
        for subject in ("a", "b", "c"):
            kg.add(subject, "p", "x")
        return kg

    def test_swapped_names_read_their_own_columns(self, three):
        forward = TriplePattern(var("s"), "p", var("o"))  # o: {x}
        backward = TriplePattern(var("o"), "p", var("s"))  # o: {a, b, c}
        fresh = JoinCardinalityEstimator(three, "independence")
        assert fresh._distinct_values(backward, "o") == 3
        warmed = JoinCardinalityEstimator(three, "independence")
        assert warmed._distinct_values(forward, "o") == 1
        assert warmed._distinct_values(backward, "o") == 3
        assert warmed._distinct_values(backward, "s") == 1
        assert warmed._distinct_values(backward, "absent") == 0

    def test_a_diagonal_is_not_its_open_twin(self):
        kg = KnowledgeGraph()
        kg.add("a", "p", "a")
        for subject, obj in (("a", "b"), ("b", "c"), ("c", "d")):
            kg.add(subject, "p", obj)
        open_ = TriplePattern(var("x"), "p", var("y"))
        diagonal = TriplePattern(var("x"), "p", var("x"))
        estimator = JoinCardinalityEstimator(kg, "independence")
        assert estimator._distinct_values(open_, "x") == 3
        assert estimator._distinct_values(diagonal, "x") == 1

    def test_independence_counts_do_not_depend_on_what_was_counted_first(self, three):
        backward = TriplePattern(var("o"), "p", var("s"))
        query = TriplePatternQuery((backward, TriplePattern(var("o"), "q", var("z"))))
        three.add("a", "q", "y")
        fresh = JoinCardinalityEstimator(three, "independence").cardinality(query)
        warmed = JoinCardinalityEstimator(three, "independence")
        forward = TriplePattern(var("s"), "p", var("o"))
        warmed.cardinality(
            TriplePatternQuery((forward, TriplePattern(var("o"), "r", var("z"))))
        )
        assert warmed.cardinality(query) == fresh
