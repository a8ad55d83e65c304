"""One check of a list the encoded store holds against a fresh build.

A held list of one input keeps its rows in non-increasing score order;
rows of equal score may stand in any order (a patch puts a changed row
at the end of its score run, where a fresh build orders the run as
Definition 5 does).  A merged list of several inputs holds no score
order (a fresh build holds input order).  So a held list is exact when
it holds a fresh build's rows — score bits, binding and source input —
and, of one input, in score order.

A fresh merge equals the oracle's Definition-8 merge
(:meth:`NaiveEngine.rows <repro.baselines.naive.NaiveEngine.rows>`,
score order) row for row when it has one input and as a multiset of
``(binding, score bits)`` when it has several: :func:`merge_rows`.

Test modules in different directories share no package, so the checks
live here, beside ``conftest.py``, whose directory pytest puts on the
import path.
"""

from __future__ import annotations

import numpy as np

from repro.operators.block import EncodedMatchList, TermCodec


def sorted_rows(encoded: EncodedMatchList, codec: TermCodec | None = None) -> list[tuple]:
    """*encoded*'s rows as sorted ``(score bits, binding, source)``; the
    binding as ids, or as terms when *codec* is given."""
    sources = None if encoded.sources is None else encoded.sources.tolist()
    columns = [column.tolist() for column in encoded.columns]
    rows = []
    for row, score in enumerate(encoded.scores.tolist()):
        binding = tuple(column[row] for column in columns)
        if codec is not None:
            binding = tuple(codec.decode(term_id) for term_id in binding)
        rows.append((score.hex(), binding, None if sources is None else sources[row]))
    return sorted(rows)


def merge_rows(rows, n_inputs: int) -> list[tuple]:
    """``(binding, score)`` *rows* of a merge of *n_inputs* inputs — a
    decoded merged list or the oracle's — as ``(binding, score bits)``:
    in order for one input, which keeps Definition-5 order, and sorted,
    as a multiset, for several, whose merged list holds input order."""
    bits = [(binding, float(score).hex()) for binding, score in rows]
    return bits if n_inputs == 1 else sorted(bits)


def assert_held_list(
    held: EncodedMatchList,
    fresh: EncodedMatchList,
    codec: TermCodec,
    fresh_codec: TermCodec | None = None,
    key: object = None,
) -> None:
    """*held*, kept under *codec*, holds the rows of *fresh*, a fresh
    build, in non-increasing score order if it has one input.  Ids are
    compared when *fresh* was built under *codec*; given *fresh_codec*,
    *fresh*'s own, bindings are compared as terms."""
    assert held.var_names == fresh.var_names, key
    assert held.maxima[0] == fresh.maxima[0], key
    assert (held.sources is None) == (fresh.sources is None), key
    if fresh_codec is None:
        assert sorted_rows(held) == sorted_rows(fresh), key
    else:
        assert sorted_rows(held, codec) == sorted_rows(fresh, fresh_codec), key
    if held.sources is None:  # one input
        assert not (np.diff(held.scores) > 0).any(), key
