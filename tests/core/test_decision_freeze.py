"""PLANGEN decision freeze: the statistics arithmetic may change, the plans
may not.

``golden_decisions.json`` was written by ``freeze_decisions.py`` at the
commit *before* the closed-form convolve→refit kernel (see that script's
docstring).  Every decision must repeat exactly; every expected score to
1e-8 relative — 1e-7 on the ``thin_bucket`` queries, where the frozen
value is the one that is off (by up to 6.2e-8: the old kernel merged
trapezoid corners within 1e-12, and on a bucket of relative width 1e-9
one ulp of a corner is 2e-7 of the ramp), while the closed-form kernel
agrees with exact rational arithmetic to 1e-12 on exactly those shapes
(``tests/property/test_stats_property.py``, ``sigma-high`` and
``equal-scores``).
"""

from __future__ import annotations

import json

import pytest

from freeze_decisions import GOLDEN_PATH, KS, freeze, workloads

GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def replayed():
    return {name: freeze(workload) for name, workload in workloads()}


def test_fixture_covers_every_workload(replayed):
    assert sorted(replayed) == sorted(GOLDEN)
    assert len(GOLDEN) >= 13  # tiny XKG, tiny Twitter, eleven scenario packs


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_decisions_and_expected_scores_repeat(replayed, name):
    golden, current = GOLDEN[name], replayed[name]
    assert sorted(current) == sorted(golden)
    for query_name, frozen in golden.items():
        assert current[query_name]["thin_bucket"] == frozen["thin_bucket"]
        rel = 1e-7 if frozen["thin_bucket"] else 1e-8
        for k in map(str, KS):
            expected, got = frozen["plans"][k], current[query_name]["plans"][k]
            where = f"{name}/{query_name}@k={k}"
            assert got["relaxed_indexes"] == expected["relaxed_indexes"], where
            assert got["expected_kth_original"] == pytest.approx(
                expected["expected_kth_original"], rel=rel, abs=0.0
            ), where
            assert got["expected_relaxed_top"] == pytest.approx(
                expected["expected_relaxed_top"], rel=rel, abs=0.0
            ), where
