"""Plain-text table formatting for the benchmark harness.

The benchmark suite prints paper-vs-measured tables; these helpers keep
the formatting consistent and dependency-free.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned fixed-width table."""
    string_rows: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in string_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    out: List[str] = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append("  ".join("-" * w for w in widths))
    out.extend(line(row) for row in string_rows)
    return "\n".join(out)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        # Non-finite values are "no data", not numbers: rendering
        # "nan"/"inf" mid-table reads like a measurement.
        if not math.isfinite(cell):
            return "—"
        if cell == 0:
            return "0"
        # Precision keys off the magnitude so negative values get the
        # same treatment as their positive counterparts.
        magnitude = abs(cell)
        if magnitude < 0.01:
            return f"{cell:.4f}"
        if magnitude < 1:
            return f"{cell:.3f}"
        return f"{cell:,.1f}" if magnitude % 1 else f"{int(cell):,}"
    if isinstance(cell, int):
        return f"{cell:,}"
    if cell is None:
        return "—"
    return str(cell)
