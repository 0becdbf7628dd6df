"""ASCII charts for experiment reports.

Experiment reports print tables; for sweeps with many points a picture
reads faster.  Pure-text rendering keeps the repository dependency-free
and the output greppable.

* :func:`sparkline` — one-line summary of a series (▁▂▃▅▇).
* :func:`line_chart` — a y-vs-x character grid with axis labels,
  optional log-y, multiple named series.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.sim.errors import ConfigurationError

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"
_MARKERS = "*o+x#@%&"


def sparkline(values: Sequence[float]) -> str:
    """Render a series as one line of block characters.

    >>> sparkline([0, 1, 2, 3])
    '▁▃▅█'
    """
    if not values:
        return ""
    lo = min(values)
    hi = max(values)
    span = hi - lo
    if span == 0:
        return _SPARK_LEVELS[0] * len(values)
    chars = []
    for value in values:
        level = int((value - lo) / span * (len(_SPARK_LEVELS) - 1))
        chars.append(_SPARK_LEVELS[level])
    return "".join(chars)


def line_chart(xs: Sequence[float],
               series: Dict[str, Sequence[float]],
               width: int = 60, height: int = 15,
               x_label: str = "x", y_label: str = "y",
               log_y: bool = False,
               title: str = "") -> str:
    """Plot named series against shared x values on a character grid.

    Each series gets a marker from a fixed cycle; the legend maps
    marker → name.  ``log_y`` plots log10(y) (values must be > 0).
    """
    if width < 10 or height < 4:
        raise ConfigurationError("chart too small to be legible")
    if not xs:
        raise ConfigurationError("empty x axis")
    for name, ys in series.items():
        if len(ys) != len(xs):
            raise ConfigurationError(
                f"series {name!r} has {len(ys)} points for {len(xs)} xs")

    def transform(value: float) -> float:
        if not log_y:
            return value
        if value <= 0:
            raise ConfigurationError("log_y needs positive values")
        return math.log10(value)

    all_y = [transform(y) for ys in series.values() for y in ys]
    y_lo, y_hi = min(all_y), max(all_y)
    x_lo, x_hi = min(xs), max(xs)
    y_span = y_hi - y_lo or 1.0
    x_span = x_hi - x_lo or 1.0
    grid: List[List[str]] = [[" "] * width for __ in range(height)]
    for index, (name, ys) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        for x, y in zip(xs, ys):
            col = int((x - x_lo) / x_span * (width - 1))
            row = int((transform(y) - y_lo) / y_span * (height - 1))
            grid[height - 1 - row][col] = marker
    lines: List[str] = []
    if title:
        lines.append(title)
    y_hi_text = f"{(10 ** y_hi if log_y else y_hi):.3g}"
    y_lo_text = f"{(10 ** y_lo if log_y else y_lo):.3g}"
    margin = max(len(y_hi_text), len(y_lo_text), len(y_label)) + 1
    lines.append(f"{y_label.rjust(margin)}")
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = y_hi_text.rjust(margin)
        elif row_index == height - 1:
            prefix = y_lo_text.rjust(margin)
        else:
            prefix = " " * margin
        lines.append(f"{prefix}|{''.join(row)}")
    lines.append(" " * margin + "+" + "-" * width)
    x_axis = (f"{x_lo:.3g}".ljust(width - 8) + f"{x_hi:.3g}")
    lines.append(" " * (margin + 1) + x_axis + f"  {x_label}")
    legend = "  ".join(
        f"{_MARKERS[i % len(_MARKERS)]}={name}"
        for i, name in enumerate(series))
    lines.append(" " * (margin + 1) + legend)
    return "\n".join(lines)


__all__ = ["sparkline", "line_chart"]
