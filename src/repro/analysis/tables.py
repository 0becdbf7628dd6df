"""ASCII table / series rendering for experiment reports.

Reports print the same rows/series a paper table or figure would
carry; these helpers keep the formatting consistent and dependency-free.
"""

from __future__ import annotations

from typing import List, Sequence


def render_table(headers: Sequence[str],
                 rows: Sequence[Sequence[str]],
                 title: str = "") -> str:
    """Monospace table with a separator rule under the header."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError(
                f"row {row!r} has {len(row)} cells, expected {columns}")
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(str(c).rjust(widths[i]) for i, c in enumerate(cells))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(fmt(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_series(x_label: str, y_label: str,
                  xs: Sequence, ys: Sequence,
                  title: str = "") -> str:
    """Two-column series (one figure line) as a table."""
    rows = [[str(x), str(y)] for x, y in zip(xs, ys)]
    return render_table([x_label, y_label], rows, title=title)


__all__ = ["render_table", "render_series"]
