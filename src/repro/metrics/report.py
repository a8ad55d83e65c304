"""Plain-text table rendering for the experiment harness.

Every table/figure runner produces rows of strings; this module lines
them up.  Nothing fancy — the goal is diff-able, paper-comparable output.
"""

from __future__ import annotations

from typing import Sequence


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned monospace table."""
    string_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in string_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(cells)
        ).rstrip()

    lines: list[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt(list(headers)))
    lines.append(fmt(["-" * w for w in widths]))
    lines.extend(fmt(row) for row in string_rows)
    return "\n".join(lines)


def fmt_seconds(value: float) -> str:
    """Milliseconds under a second, else seconds — compact and unambiguous."""
    if value < 1.0:
        return f"{value * 1000:.1f}ms"
    return f"{value:.2f}s"
