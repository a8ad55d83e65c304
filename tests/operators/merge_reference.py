"""A Definition-8 reference for pre-merged relaxation lists.

Each input's own encoded list (the per-pattern lists other suites check
against the string match lists) is weighted row by row, the union is
sorted by score descending with ties in input-then-row order, and of
equal bindings only the first — maximum-score — row is kept.  Plain
Python throughout, so it shares no code with the gather it checks.
"""

from __future__ import annotations

from repro.operators.block import build_encoded_match_list


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
