"""One check of a list the encoded store holds against a fresh build.

A held list keeps its rows in non-increasing score order; rows of equal
score may stand in any order (a patch puts a changed row at the end of
its score run, where a fresh build orders the run as Definition 5
does).  So a held list is exact when it holds a fresh build's rows —
score bits, binding and source input — in score order.

Test modules in different directories share no package, so the check
lives here, beside ``conftest.py``, whose directory pytest puts on the
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


def assert_held_list(
    held: EncodedMatchList,
    fresh: EncodedMatchList,
    codec: TermCodec,
    fresh_codec: TermCodec | None = None,
    key: object = None,
) -> None:
    """*held*, kept under *codec*, holds the rows of *fresh*, a fresh
    build, in non-increasing score order.  Ids are compared
    when *fresh* was built under *codec*; given *fresh_codec*, *fresh*'s
    own, bindings are compared as terms."""
    assert held.var_names == fresh.var_names, key
    assert held.max_score == fresh.max_score, key
    assert (held.sources is None) == (fresh.sources is None), key
    if fresh_codec is None:
        assert sorted_rows(held) == sorted_rows(fresh), key
    else:
        assert sorted_rows(held, codec) == sorted_rows(fresh, fresh_codec), key
    assert not (np.diff(held.scores) > 0).any(), key
