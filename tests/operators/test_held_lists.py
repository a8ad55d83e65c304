"""The shared held-list check rejects what it is meant to reject.

:func:`held_lists.assert_held_list` is the one check that a patched list
is exact, for the maintained-lists cases, the write-path state machine
and the runner.  A check that cannot fail proves nothing, so each case
here hands it a list that differs from a fresh build in one way: a tie
run out of binding order (allowed), a missing or re-scored row, and rows
out of score order.
"""

from __future__ import annotations

import numpy as np
import pytest

from held_lists import assert_held_list

from repro.kg.columnar import ColumnarGraph
from repro.kg.pattern import TriplePattern, var
from repro.kg.triple import Triple
from repro.operators.block import (
    EncodedMatchList,
    TermCodec,
    build_encoded_match_list,
)

P = TriplePattern(var("s"), "p", "x")
#: b and c tie at 4.0, so a fresh build's rows 1 and 2 form one score run.
ROWS = [
    ("a", "p", "x", 5.0), ("b", "p", "x", 4.0), ("c", "p", "x", 4.0),
    ("d", "p", "x", 2.5), ("e", "p", "x", 1.0),
]


@pytest.fixture
def fresh():
    graph = ColumnarGraph.from_triples([Triple(*row) for row in ROWS])
    codec = TermCodec(graph.store)
    return build_encoded_match_list(graph, P, codec), codec


def reordered(fresh: EncodedMatchList, rows, scores=None) -> EncodedMatchList:
    """*fresh*'s *rows*, in that order, with *scores* when given."""
    rows = np.asarray(rows, dtype=np.int64)
    return EncodedMatchList(
        fresh.var_names,
        tuple(column[rows] for column in fresh.columns),
        fresh.scores[rows] if scores is None else np.asarray(scores, dtype=np.float64),
        fresh.inputs,
        fresh.maxima,
    )


def test_a_tie_run_in_any_order_passes(fresh):
    fresh, codec = fresh
    assert_held_list(reordered(fresh, [0, 2, 1, 3, 4]), fresh, codec)


def test_a_missing_or_rescored_row_fails(fresh):
    fresh, codec = fresh
    with pytest.raises(AssertionError):
        assert_held_list(reordered(fresh, [0, 1, 2, 3]), fresh, codec)
    scores = fresh.scores.copy()
    scores[3] = np.nextafter(scores[3], 0.0)
    with pytest.raises(AssertionError):
        assert_held_list(reordered(fresh, range(5), scores), fresh, codec)


def test_rows_out_of_score_order_fail(fresh):
    fresh, codec = fresh
    with pytest.raises(AssertionError):
        assert_held_list(reordered(fresh, [1, 0, 2, 3, 4]), fresh, codec)

