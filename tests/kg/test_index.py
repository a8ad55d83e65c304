"""Unit tests for repro.kg.index."""

import pytest

from repro.baselines.naive import NaiveEngine
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, var
from repro.kg.triple import Triple


def assert_oracle_list(match_list, triples, pattern):
    """*match_list* is the oracle's Definition-5 list of *pattern* over
    *triples*: the same triples in order, maximum and normalised scores."""
    oracle = NaiveEngine(KnowledgeGraph(triples), None)
    matches = oracle.matches(pattern)
    assert match_list.triples == tuple(matches)
    assert match_list.max_score == (matches[0].score if matches else 0.0)
    assert list(match_list.normalized_scores) == [
        score for _, score in oracle.rows([(pattern, 1.0)])
    ]


@pytest.fixture
def graph():
    kg = KnowledgeGraph()
    kg.add("a", "p1", "x", score=4.0)
    kg.add("a", "p2", "y", score=3.0)
    kg.add("b", "p1", "x", score=2.0)
    kg.add("b", "p1", "z", score=1.0)
    return kg


class TestCandidates:
    def test_subject_only(self, graph):
        pattern = TriplePattern("a", var("p"), var("o"))
        assert graph.count(pattern) == 2

    def test_predicate_only(self, graph):
        pattern = TriplePattern(var("s"), "p1", var("o"))
        assert graph.count(pattern) == 3

    def test_subject_object(self, graph):
        pattern = TriplePattern("b", var("p"), "x")
        assert graph.count(pattern) == 1

    def test_full_scan(self, graph):
        pattern = TriplePattern(var("s"), var("p"), var("o"))
        assert graph.count(pattern) == 4

    def test_no_match_shape_cached(self, graph):
        pattern = TriplePattern(var("s"), "p9", var("o"))
        assert graph.count(pattern) == 0
        assert graph.count(pattern) == 0  # second call hits cache


class TestMatchListCaching:
    def test_same_key_shares_cache(self, graph):
        a = graph.match_list(TriplePattern(var("s"), "p1", "x"))
        b = graph.match_list(TriplePattern(var("q"), "p1", "x"))
        assert a is b  # variable names don't matter

    def test_cache_invalidated_on_write(self, graph):
        pattern = TriplePattern(var("s"), "p1", "x")
        before = graph.match_list(pattern)
        graph.add("c", "p1", "x", score=9.0)
        after = graph.match_list(pattern)
        assert after is not before
        assert len(after) == len(before) + 1


def _knows_triples():
    return [
        Triple("a", "knows", "a", 2.0),
        Triple("a", "knows", "b", 5.0),
        Triple("b", "knows", "b", 5.0),
        Triple("c", "knows", "a", 1.0),
    ]


def _object(tmp_path):
    return KnowledgeGraph(_knows_triples())


def _columnar(tmp_path):
    from repro.kg.columnar import ColumnarGraph

    return ColumnarGraph.from_triples(_knows_triples())


def _mmap(tmp_path):
    from repro.kg.storage import load_snapshot_v2, save_snapshot_v2

    save_snapshot_v2(_columnar(tmp_path), tmp_path / "knows.kg2")
    return load_snapshot_v2(tmp_path / "knows.kg2", mmap=True)


def _live(make_base):
    def make(tmp_path):
        from repro.kg.delta import LiveGraph

        live = LiveGraph(make_base(tmp_path))
        live.remove("c", "knows", "a")
        live.add("c", "knows", "a", score=1.0)  # dirty delta, same triples
        return live

    make.__name__ = f"_live{make_base.__name__}"
    return make


def _compacted(make_base):
    def make(tmp_path):
        from repro.kg.delta import LiveGraph

        live = LiveGraph(make_base(tmp_path))
        live.remove("c", "knows", "a")
        live.compact()  # the base is refolded without the triple
        live.add("c", "knows", "a", score=1.0)  # which the delta holds
        return live

    make.__name__ = f"_compacted{make_base.__name__}"
    return make


STATIC_BACKENDS = (_object, _columnar, _mmap)
BACKENDS = list(STATIC_BACKENDS)
BACKENDS += [_live(make_base) for make_base in STATIC_BACKENDS]
BACKENDS += [_compacted(make_base) for make_base in STATIC_BACKENDS]


class TestRepeatedVariables:
    def test_diagonal_only(self):
        kg = KnowledgeGraph()
        kg.add("a", "knows", "a", score=2.0)
        kg.add("a", "knows", "b", score=5.0)
        ml = kg.match_list(TriplePattern(var("x"), "knows", var("x")))
        assert [t.spo for t in ml.triples] == [("a", "knows", "a")]

    @pytest.mark.parametrize("shared_cache", [False, True], ids=["own", "shared"])
    @pytest.mark.parametrize("diagonal_first", [False, True])
    @pytest.mark.parametrize("make_graph", BACKENDS, ids=lambda make: make.__name__)
    def test_diagonal_and_open_twin_on_one_graph(
        self, make_graph, diagonal_first, shared_cache, tmp_path
    ):
        """(?x knows ?x) and (?x knows ?y) share an index key; one graph
        must serve each its own list, whichever is asked for first and
        whichever cache holds them (ROADMAP 1(a))."""
        from repro.service.cache import MatchListCache

        graph = make_graph(tmp_path)
        if shared_cache:
            graph.attach_match_list_cache(MatchListCache(capacity=8))
        twins = [
            TriplePattern(var("x"), "knows", var("y")),
            TriplePattern(var("x"), "knows", var("x")),
        ]
        if diagonal_first:
            twins.reverse()
        for pattern in twins * 2:  # second round: served from the cache
            assert_oracle_list(graph.match_list(pattern), _knows_triples(), pattern)

    def test_statistics_tell_the_twins_apart(self):
        from repro.stats.catalog import StatisticsCatalog

        catalog = StatisticsCatalog(KnowledgeGraph(_knows_triples()))
        open_twin = TriplePattern(var("x"), "knows", var("y"))
        diagonal = TriplePattern(var("x"), "knows", var("x"))
        assert catalog.pattern_stats(open_twin).m == 4
        assert catalog.pattern_stats(diagonal).m == 2
        assert catalog.histogram(diagonal) is not catalog.histogram(open_twin)
        assert catalog.match_count(open_twin) == 4


_MERGE_TRIPLES = [
    Triple("a", "p", "x", 5.0),
    Triple("a", "p", "a", 3.0),
    Triple("b", "p", "x", 4.0),
    Triple("b", "q", "y", 4.0),
    Triple("c", "p", "z", 4.0),
    Triple("c", "q", "x", 2.0),
    Triple("d", "q", "z", 9.0),
    Triple("d", "p", "d", 1.0),
]

#: Ways to cut one triple set into disjoint parts: interleaved, grouped
#: by subject, in score bands (ties inside a part), and one triple a part
#: in reverse order (every score tie straddles two parts, the later part
#: holding the smaller ``spo``).
_SPLITS = {
    "halves": lambda triples: [triples[0::2], triples[1::2]],
    "thirds": lambda triples: [triples[i::3] for i in range(3)],
    "by-subject": lambda triples: [
        [t for t in triples if t.subject == s] for s in sorted({t.subject for t in triples})
    ],
    "by-score": lambda triples: [
        [t for t in triples if t.score >= 4.0],
        [t for t in triples if t.score < 4.0],
    ],
    "singletons": lambda triples: [[t] for t in reversed(triples)],
}


def _adds(part):
    from repro.kg.delta import GraphUpdate

    return [GraphUpdate.add(*t.spo, t.score) for t in part]


class TestSplicedMatchLists:
    """A live graph's list is its base's column rows with the delta's adds
    spliced in at their slots; over disjoint parts of one triple set it
    must be the brute-force Definition-5 list of the whole set."""

    def test_empty_parts(self):
        from repro.kg.columnar import ColumnarGraph
        from repro.kg.delta import LiveGraph

        pattern = TriplePattern(var("s"), "p", var("o"))
        live = LiveGraph(ColumnarGraph.from_triples([Triple("a", "q", "x", 2.0)]))
        live.apply_updates(_adds([Triple("b", "q", "y", 3.0)]))
        merged = live.match_list(pattern)
        assert not merged
        assert merged.max_score == 0.0
        assert merged.normalized_scores == ()

    def test_single_nonempty_part(self):
        """All matches in the base rows, or all in the adds: either way the
        list is that part's list."""
        from repro.kg.columnar import ColumnarGraph
        from repro.kg.delta import LiveGraph

        pattern = TriplePattern(var("s"), "p", var("o"))
        matching = [t for t in _MERGE_TRIPLES if t.predicate == "p"]
        other = [t for t in _MERGE_TRIPLES if t.predicate != "p"]
        for base, added in ((matching, other), (other, matching)):
            live = LiveGraph(ColumnarGraph.from_triples(base))
            live.apply_updates(_adds(added))
            assert_oracle_list(live.match_list(pattern), matching, pattern)

    @pytest.mark.parametrize("layout", ["adds", "alternating", "compacted"])
    @pytest.mark.parametrize("split", sorted(_SPLITS))
    @pytest.mark.parametrize(
        "pattern",
        [
            TriplePattern(var("s"), "p", var("o")),
            TriplePattern(var("s"), "q", var("o")),
            TriplePattern(var("s"), "p", "x"),
            TriplePattern("a", "p", var("o")),
            TriplePattern(var("s"), "p", var("s")),
            TriplePattern(var("s"), "nope", var("o")),
        ],
    )
    def test_disjoint_parts_equal_the_full_list(self, pattern, split, layout):
        """However the set is cut and however the parts land in base rows
        and adds ("adds": the first part is a columnar base, each later
        part one batch of adds; "alternating": the even parts form an
        object base the overlay freezes, the odd parts are added;
        "compacted": the first two parts are compacted into the base, the
        rest added), the live list is the list of the whole set."""
        from repro.kg.columnar import ColumnarGraph
        from repro.kg.delta import LiveGraph

        parts = _SPLITS[split](_MERGE_TRIPLES)
        assert sorted(t.spo for part in parts for t in part) == sorted(
            t.spo for t in _MERGE_TRIPLES
        )
        if layout == "alternating":
            live = LiveGraph(KnowledgeGraph(t for part in parts[0::2] for t in part))
            batches = parts[1::2]
        else:
            live = LiveGraph(ColumnarGraph.from_triples(parts[0]))
            batches = parts[1:]
        for at, part in enumerate(batches):
            live.apply_updates(_adds(part))
            if layout == "compacted" and at == 0:
                live.compact()
        assert_oracle_list(live.match_list(pattern), _MERGE_TRIPLES, pattern)
