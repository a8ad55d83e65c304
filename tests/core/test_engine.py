"""Unit tests for the SpecQPEngine facade, on the music fixture."""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import SpecQPEngine
from repro.errors import ReproError
from repro.kg.columnar import ColumnarGraph


@pytest.fixture
def engine(music_graph, music_rules):
    return SpecQPEngine(music_graph, music_rules)


class TestQueryInterface:
    def test_accepts_sparql_text(self, engine):
        result = engine.query(
            "SELECT ?s WHERE { ?s 'rdf:type' <singer> . ?s 'rdf:type' <lyricist> }",
            k=3,
        )
        assert len(result.answers) >= 1

    def test_accepts_query_object(self, engine, singer_lyricist_query):
        result = engine.query(singer_lyricist_query, k=3)
        assert len(result.answers) >= 1

    def test_default_k_from_config(self, music_graph, music_rules):
        engine = SpecQPEngine(music_graph, music_rules, EngineConfig(k=2))
        result = engine.query_trinit("SELECT ?s WHERE { ?s <rdf:type> <musician> }")
        assert len(result.answers) == 2

    def test_result_metadata(self, engine, singer_lyricist_query):
        result = engine.query(singer_lyricist_query, k=3)
        assert result.decision is not None
        assert result.planning_seconds >= 0
        assert result.total_seconds >= result.execution_seconds
        assert result.n_relaxed == len(result.plan.singletons)

    @pytest.mark.parametrize("executor", ["tuple", "block"])
    @pytest.mark.parametrize("method", ["plan", "query", "query_trinit", "query_exact"])
    def test_nonpositive_k_is_rejected_not_defaulted(
        self, music_graph, music_rules, singer_lyricist_query, method, executor
    ):
        """``k=0`` is a bad k like ``k=-1``, in both pipelines; only
        ``None`` means the config's k."""
        engine = SpecQPEngine(
            ColumnarGraph.from_graph(music_graph), music_rules, executor=executor
        )
        call = getattr(engine, method)
        for k in (0, -1):
            with pytest.raises(ReproError, match=f"k must be >= 1, got {k}"):
                call(singer_lyricist_query, k=k)
        assert call(singer_lyricist_query) is not None

    def test_trinit_has_no_decision(self, engine, singer_lyricist_query):
        result = engine.query_trinit(singer_lyricist_query, k=3)
        assert result.decision is None
        assert result.planning_seconds == 0.0
        assert result.plan.n_relaxed == len(singer_lyricist_query)


class TestSemantics:
    def test_exact_subset_of_trinit_answer_space(self, engine, singer_lyricist_query):
        exact = engine.query_exact(singer_lyricist_query, k=10)
        trinit = engine.query_trinit(singer_lyricist_query, k=10)
        # Every exact answer appears in the trinit answer space with at
        # least the exact score (relaxations can only add answers).
        trinit_bindings = {a.bindings: a.score for a in trinit.answers}
        for answer in exact.answers:
            if answer.bindings in trinit_bindings:
                assert trinit_bindings[answer.bindings] >= answer.score - 1e-9

    def test_exact_top1_shakira(self, engine, singer_lyricist_query):
        # shakira: singer 100/100=1.0, lyricist 70/99; beyonce: 0.9 + 60/99.
        exact = engine.query_exact(singer_lyricist_query, k=1)
        assert exact.answers[0].as_dict()["s"] == "shakira"

    def test_spec_matches_trinit_on_easy_query(self, engine, three_pattern_query):
        spec = engine.query(three_pattern_query, k=2)
        trinit = engine.query_trinit(three_pattern_query, k=2)
        assert [a.bindings for a in spec.answers] == [
            a.bindings for a in trinit.answers
        ]
        for s, t in zip(spec.answers, trinit.answers):
            assert s.score == pytest.approx(t.score)

    def test_relaxed_scores_discounted(self, engine):
        # Query for pianists: none exist... use lyricist-only query where
        # 'writer' relaxation brings dylan's writer triple at weight 0.7.
        result = engine.query_trinit(
            "SELECT ?s WHERE { ?s <rdf:type> <lyricist> }", k=10
        )
        scores = {a.as_dict()["s"]: a.score for a in result.answers}
        # dylan matches lyricist directly with normalized 1.0 (99/99).
        assert scores["dylan"] == pytest.approx(1.0)

    def test_plan_only_interface(self, engine, three_pattern_query):
        decision = engine.plan(three_pattern_query, k=5)
        assert decision.plan.query == three_pattern_query

    def test_parse_passthrough(self, engine):
        q = engine.parse("SELECT ?s WHERE { ?s <rdf:type> <singer> }")
        assert len(q) == 1
