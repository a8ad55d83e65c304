"""Property-based storage tests (hypothesis).

The invariant: any graph survives TSV → snapshot → load unchanged —
same triples, same scores, and identical Definition-5 match lists (hence
identical query answers) whichever backend serves them.
"""

from hypothesis import given, settings, strategies as st

from repro.kg import ColumnarGraph, KnowledgeGraph, TriplePattern, Variable
from repro.kg import storage

# Terms: printable-ish, no TSV structure characters (tab/newline are the
# format's field/record separators, NUL is unsupported by the snapshot
# dictionary), and not starting with '#' (the TSV comment marker).
_term = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\t\n\r\x00"
    ),
    min_size=1,
    max_size=12,
).filter(lambda term: not term.startswith("#"))

# Scores: non-negative, finite, and stable under the TSV writer's %.10g
# formatting so equality across round trips is exact.
_score = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
).map(lambda value: float(f"{value:.10g}"))

_triples = st.lists(
    st.tuples(_term, _term, _term, _score), min_size=0, max_size=40
)


def _graph_from(rows) -> KnowledgeGraph:
    graph = KnowledgeGraph(name="prop")
    for s, p, o, score in rows:
        graph.add(s, p, o, score=score)
    return graph


def _contents(graph) -> set:
    return {(t.subject, t.predicate, t.object, t.score) for t in graph.triples()}


@settings(max_examples=60, deadline=None)
@given(rows=_triples)
def test_tsv_snapshot_load_round_trip(rows, tmp_path_factory):
    graph = _graph_from(rows)
    root = tmp_path_factory.mktemp("roundtrip")

    tsv_path = root / "graph.tsv"
    storage.save_tsv(graph, tsv_path)
    from_tsv = storage.load_tsv(tsv_path)
    assert _contents(from_tsv) == _contents(graph)

    snapshot_path = root / "graph.kg2"
    storage.save_snapshot_v2(from_tsv, snapshot_path)
    from_snapshot = storage.load_snapshot_v2(snapshot_path)
    assert isinstance(from_snapshot, ColumnarGraph)
    assert _contents(from_snapshot) == _contents(graph)
    assert from_snapshot.size == graph.size


@settings(max_examples=40, deadline=None)
@given(rows=_triples)
def test_backends_answer_queries_identically(rows, tmp_path_factory):
    graph = _graph_from(rows)
    root = tmp_path_factory.mktemp("answers")
    snapshot_path = root / "graph.kg2"
    storage.save_snapshot_v2(graph, snapshot_path)
    columnar = storage.load_snapshot_v2(snapshot_path, mmap=False)

    patterns = [TriplePattern(Variable("s"), Variable("p"), Variable("o"))]
    for predicate in sorted(graph.predicates()):
        patterns.append(TriplePattern(Variable("s"), predicate, Variable("o")))
    for triple in list(graph.triples())[:5]:
        patterns.append(TriplePattern(triple.subject, triple.predicate, Variable("o")))
        patterns.append(TriplePattern(Variable("x"), triple.predicate, triple.object))

    for pattern in patterns:
        expected = graph.match_list(pattern)
        actual = columnar.match_list(pattern)
        assert actual.triples == expected.triples
        assert actual.max_score == expected.max_score
        assert actual.normalized_scores == expected.normalized_scores


@settings(max_examples=40, deadline=None)
@given(rows=_triples)
def test_v2_snapshot_round_trip(rows, tmp_path_factory):
    """Any graph survives the packed mmap format unchanged — contents,
    match lists, and the TSV bytes it exports."""
    graph = _graph_from(rows)
    root = tmp_path_factory.mktemp("v2")

    packed = root / "graph.kg2"
    storage.save_snapshot_v2(graph, packed)
    attached = storage.load_snapshot_v2(packed, verify=True)
    assert isinstance(attached, ColumnarGraph)
    assert _contents(attached) == _contents(graph)

    # The attached snapshot exports the TSV the object graph does.
    object_tsv, v2_tsv = root / "object.tsv", root / "v2.tsv"
    storage.save_tsv(graph, object_tsv)
    storage.save_tsv(attached, v2_tsv)
    assert object_tsv.read_bytes() == v2_tsv.read_bytes()

    pattern = TriplePattern(Variable("s"), Variable("p"), Variable("o"))
    assert attached.match_list(pattern).triples == graph.match_list(pattern).triples
