"""Golden regression tests for the table experiments (smoke profile).

Tables 2–4 are fully deterministic given a seeded workload: they report
answer-set metrics (precision, prediction accuracy, score deviation) and
contain no wall-clock columns.  Freezing the exact rendered output on the
smoke-sized workloads pins the whole pipeline — dataset generation, rule
mining, statistics, PLANGEN, operators, metric aggregation *and* the
renderers — so a refactor that silently drifts any of them fails loudly
here instead of shipping wrong numbers.

If a change legitimately alters these numbers (e.g. a new estimator
default), regenerate the goldens and say so in the commit:

    PYTHONPATH=src python -m pytest tests/experiments/test_golden_tables.py -q
"""

from __future__ import annotations

import pytest

from repro.experiments import table2, table3, table4
from repro.experiments.session import ExperimentSession
from repro.metrics.efficiency import TimingProtocol

XKG_TABLE2 = """\
Table 2 — precision over xkg
============================
k  precision (=recall)  #queries
-  -------------------  --------
3  0.72                 12
5  0.78                 12"""

XKG_TABLE3 = """\
Table 3 — prediction accuracy over xkg (correct(total))
=======================================================
queries requiring  k=3   k=5
-----------------  ----  ----
0 relaxation(s)    -(-)  -(-)
1 relaxation(s)    0(1)  1(1)
2 relaxation(s)    1(5)  1(4)
3 relaxation(s)    3(5)  3(4)
4 relaxation(s)    0(1)  2(3)"""

XKG_TABLE4 = """\
Table 4 — score deviation over xkg (mean(percent)±std)
======================================================
k  #TP=2           #TP=3          #TP=4
-  --------------  -------------  -------------
3  0.52(26%)±0.37  0.07(2%)±0.12  0.09(2%)±0.15
5  0.14(7%)±0.17   0.09(3%)±0.15  0.09(2%)±0.16"""

TWITTER_TABLE2 = """\
Table 2 — precision over twitter
================================
k  precision (=recall)  #queries
-  -------------------  --------
3  0.83                 10
5  0.86                 10"""

TWITTER_TABLE3 = """\
Table 3 — prediction accuracy over twitter (correct(total))
===========================================================
queries requiring  k=3   k=5
-----------------  ----  ----
0 relaxation(s)    1(1)  0(1)
1 relaxation(s)    0(2)  -(-)
2 relaxation(s)    1(3)  2(5)
3 relaxation(s)    4(4)  4(4)"""

TWITTER_TABLE4 = """\
Table 4 — score deviation over twitter (mean(percent)±std)
==========================================================
k  #TP=2          #TP=3
-  -------------  -------------
3  0.14(7%)±0.22  0.03(1%)±0.05
5  0.18(9%)±0.26  0.00(0%)±0.00"""


@pytest.fixture(scope="module")
def xkg_session(tiny_xkg_workload):
    return ExperimentSession(
        tiny_xkg_workload, ks=(3, 5), protocol=TimingProtocol(n_runs=1, n_keep=1)
    )


@pytest.fixture(scope="module")
def twitter_session(tiny_twitter_workload):
    return ExperimentSession(
        tiny_twitter_workload, ks=(3, 5), protocol=TimingProtocol(n_runs=1, n_keep=1)
    )


class TestXKGGoldens:
    def test_table2(self, xkg_session):
        assert table2.render(xkg_session) == XKG_TABLE2

    def test_table3(self, xkg_session):
        assert table3.render(xkg_session) == XKG_TABLE3

    def test_table4(self, xkg_session):
        assert table4.render(xkg_session) == XKG_TABLE4


class TestTwitterGoldens:
    def test_table2(self, twitter_session):
        assert table2.render(twitter_session) == TWITTER_TABLE2

    def test_table3(self, twitter_session):
        assert table3.render(twitter_session) == TWITTER_TABLE3

    def test_table4(self, twitter_session):
        assert table4.render(twitter_session) == TWITTER_TABLE4


class TestGoldensHoldOnColumns:
    """The columnar backend must reproduce the frozen numbers exactly."""

    def test_xkg_tables_identical_on_columns(self, tiny_xkg_workload):
        from repro.datasets.workload import Workload
        from repro.kg.columnar import ColumnarGraph

        columnar = Workload(
            tiny_xkg_workload.name,
            ColumnarGraph.from_graph(tiny_xkg_workload.graph),
            tiny_xkg_workload.rules,
            list(tiny_xkg_workload.queries),
        )
        session = ExperimentSession(
            columnar, ks=(3, 5), protocol=TimingProtocol(n_runs=1, n_keep=1)
        )
        assert table2.render(session) == XKG_TABLE2
        assert table3.render(session) == XKG_TABLE3
        assert table4.render(session) == XKG_TABLE4
