"""The oracle's own lists, on the running example's music graph.

:meth:`NaiveEngine.evaluate <repro.baselines.naive.NaiveEngine.evaluate>`
is the repository's one independent reference; the oracle matrix
(``tests/integration/test_oracle_matrix.py``) checks every served answer
against it.  Here its Definition-5 and Definition-8 lists are checked by
hand.
"""

from __future__ import annotations

from repro.baselines.naive import NaiveEngine
from repro.kg.pattern import TriplePattern, var


def type_pattern(name):
    return TriplePattern(var("s"), "rdf:type", name)


class TestOracleLists:
    """The oracle's own lists, on the running example's music graph."""

    def test_single_input_is_the_definition5_list(self, music_graph):
        oracle = NaiveEngine(music_graph, None)
        rows = oracle.rows([(type_pattern("singer"), 1.0)])
        assert rows == [
            (("shakira",), 1.0),
            (("beyonce",), 0.9),
            (("miley",), 0.5),
            (("taher",), 0.01),
        ]

    def test_merge_keeps_each_bindings_best_row(self, music_graph):
        oracle = NaiveEngine(music_graph, None)
        rows = oracle.rows(
            [(type_pattern("singer"), 1.0), (type_pattern("vocalist"), 0.8)]
        )
        # freddie is a vocalist only; shakira's and miley's vocalist rows
        # score below their singer rows and are dropped.
        assert [binding for binding, _ in rows] == [
            ("shakira",), ("beyonce",), ("freddie",), ("miley",), ("taher",)
        ]
        assert rows[2][1] == 0.8 * (95.0 / 95.0)

    def test_lists_follow_the_graph_version(self, music_graph):
        oracle = NaiveEngine(music_graph, None)
        assert len(oracle.rows([(type_pattern("singer"), 1.0)])) == 4
        music_graph.add("adele", "rdf:type", "singer", score=200.0)
        assert oracle.rows([(type_pattern("singer"), 1.0)])[0] == (("adele",), 1.0)
