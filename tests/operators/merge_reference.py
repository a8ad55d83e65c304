"""Plain-Python references for the encoded lists the block path slices.

:func:`encoded_string_list` encodes a pattern's brute-force Definition-5
list (every matching triple, sorted and normalised by
:meth:`~repro.kg.index.MatchList.from_triples`) through a codec, binding
by binding; :func:`definition8_merge` builds a pre-merged
relaxation list from per-input lists: each input's list is weighted row
by row, the union is sorted by score descending with ties in
input-then-row order, and of equal bindings only the first —
maximum-score — row is kept.  Neither shares code with the column
gathers they check.
"""

from __future__ import annotations

import numpy as np

from repro.kg.index import MatchList
from repro.operators.block import EncodedMatchList, build_encoded_match_list


def brute_force_list(graph, pattern) -> MatchList:
    """*pattern*'s Definition-5 list over *graph* by scan, sort and divide —
    built without the graph's column rows or its match-list builder."""
    return MatchList.from_triples(
        pattern.key(), [t for t in graph.triples() if pattern.matches(t)]
    )


def encoded_string_list(graph, pattern, codec) -> EncodedMatchList:
    """:func:`brute_force_list` encoded through *codec*: each binding
    interned (store id when known, side id otherwise), order and
    normalized scores taken from the string list verbatim."""
    match_list = brute_force_list(graph, pattern)
    var_names, positions = pattern.variable_positions()
    triples = match_list.triples
    columns = tuple(np.empty(len(triples), dtype=np.int64) for _ in var_names)
    for row, triple in enumerate(triples):
        for column, position in zip(columns, positions):
            column[row] = codec.encode(triple.spo[position])
    scores = np.asarray(match_list.normalized_scores, dtype=np.float64)
    return EncodedMatchList(var_names, columns, scores, match_list.max_score)


def definition8_merge(graph, inputs, codec, build=build_encoded_match_list):
    """``(var_names, [(id tuple, score), ...])`` of the merged list of
    *inputs* — ``(pattern, weight)`` pairs — in merged order, each
    input's list made by ``build(graph, pattern, codec)``."""
    parts = [(build(graph, pattern, codec), weight) for pattern, weight in inputs]
    var_names = parts[0][0].var_names
    rows = []
    for at, (part, weight) in enumerate(parts):
        columns = [part.columns[part.var_names.index(n)].tolist() for n in var_names]
        for row, score in enumerate(part.scores.tolist()):
            rows.append((weight * score, at, row, tuple(c[row] for c in columns)))
    rows.sort(key=lambda r: (-r[0], r[1], r[2]))
    seen: set[tuple[int, ...]] = set()
    merged = []
    for score, _, _, key in rows:
        if key not in seen:
            seen.add(key)
            merged.append((key, score))
    return var_names, merged
