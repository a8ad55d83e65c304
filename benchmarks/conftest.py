"""Shared benchmark fixtures.

Each benchmark regenerates one of the paper's tables or figures on a
benchmark-scale synthetic workload (smaller than the default CLI scale so
the whole suite stays in minutes; run ``spec-qp all --scale default`` for
fuller numbers).  Sessions are session-scoped: the per-query engine runs
are computed once and shared, mirroring how the paper reports one run of
each system per query.
"""

from __future__ import annotations

import pytest

from repro.datasets import TwitterConfig, XKGConfig, generate_twitter, generate_xkg
from repro.experiments.session import ExperimentSession
from repro.metrics.efficiency import TimingProtocol

#: k values the paper sweeps.
PAPER_KS = (10, 15, 20)


@pytest.fixture(scope="session")
def xkg_workload():
    return generate_xkg(
        XKGConfig(
            n_domains=6,
            types_per_domain=14,
            n_entities=1200,
            n_topics=80,
            n_queries=30,
            seed=42,
        )
    )


@pytest.fixture(scope="session")
def twitter_workload():
    return generate_twitter(
        TwitterConfig(
            n_tweets=2500,
            n_trends=15,
            vocabulary_per_trend=25,
            n_queries=24,
            seed=7,
        )
    )


@pytest.fixture(scope="session")
def xkg_session(xkg_workload):
    """The paper's protocol (5 runs, the last 3 kept): Figure 6 gates
    S against T on ~15 ms a side, which 3 runs could not steady."""
    return ExperimentSession(xkg_workload, ks=PAPER_KS, protocol=TimingProtocol())


@pytest.fixture(scope="session")
def twitter_session(twitter_workload):
    return ExperimentSession(
        twitter_workload,
        ks=PAPER_KS,
        protocol=TimingProtocol(n_runs=3, n_keep=2),
    )
