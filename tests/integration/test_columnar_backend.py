"""Backend-equivalence integration tests.

The acceptance bar for the columnar subsystem: the full engine —
statistics catalog, estimator, PLANGEN, operators — must produce
*identical* answers whether the substrate is the object-backed
:class:`KnowledgeGraph` or a :class:`ColumnarGraph` (including one that
took a round trip through a binary snapshot).
"""

import pytest

from repro.core.engine import SpecQPEngine
from repro.kg import ColumnarGraph
from repro.kg import storage


def _answer_rows(result):
    return [(answer.bindings, answer.score) for answer in result.answers]


@pytest.fixture(scope="module", params=["xkg", "twitter"])
def workload(request, tiny_xkg_workload, tiny_twitter_workload):
    return tiny_xkg_workload if request.param == "xkg" else tiny_twitter_workload


@pytest.fixture(scope="module")
def columnar_graph(workload, tmp_path_factory):
    """The workload graph, frozen and round-tripped through a snapshot."""
    path = tmp_path_factory.mktemp("backend") / f"{workload.name}.kg2"
    storage.save_snapshot_v2(workload.graph, path)
    return storage.load_snapshot_v2(path, mmap=False)


class TestEngineAnswersAcrossBackends:
    def test_snapshot_round_trip_preserves_graph(self, workload, columnar_graph):
        assert isinstance(columnar_graph, ColumnarGraph)
        assert columnar_graph.size == workload.graph.size
        assert columnar_graph.predicates() == workload.graph.predicates()

    @pytest.mark.parametrize("k", [3, 10])
    def test_specqp_answers_identical(self, workload, columnar_graph, k):
        object_engine = SpecQPEngine(workload.graph, workload.rules)
        columnar_engine = SpecQPEngine(columnar_graph, workload.rules)
        for query in workload.queries:
            expected = object_engine.query(query, k=k)
            actual = columnar_engine.query(query, k=k)
            assert _answer_rows(actual) == _answer_rows(expected), query.name
            assert actual.plan.describe() == expected.plan.describe(), query.name

    def test_trinit_and_exact_answers_identical(self, workload, columnar_graph):
        object_engine = SpecQPEngine(workload.graph, workload.rules)
        columnar_engine = SpecQPEngine(columnar_graph, workload.rules)
        for query in workload.queries[:5]:
            assert _answer_rows(
                columnar_engine.query_trinit(query, k=5)
            ) == _answer_rows(object_engine.query_trinit(query, k=5))
            assert _answer_rows(
                columnar_engine.query_exact(query, k=5)
            ) == _answer_rows(object_engine.query_exact(query, k=5))
