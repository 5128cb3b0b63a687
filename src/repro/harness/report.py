"""Text-table formatting and the geometric mean the tables aggregate with."""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import ConfigError

__all__ = ["format_table", "geometric_mean"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Render an aligned monospace table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{value:.3g}"
        if magnitude >= 10:
            return f"{value:.1f}"
        return f"{value:.4g}"
    return str(value)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (the aggregation Table 6 uses for speedups)."""
    if not values:
        raise ConfigError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ConfigError("geometric_mean requires positive values")
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))
