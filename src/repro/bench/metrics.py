"""Measurement helpers shared by the experiment harnesses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence


def reduction_pct(baseline: float, ours: float) -> float:
    """Percentage reduction of ``ours`` versus ``baseline`` (positive =
    we are smaller), the convention of Tables 3-4."""
    if baseline == 0:
        return 0.0
    return 100.0 * (1.0 - ours / baseline)


def mean(values: Sequence[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("mean of an empty sequence")
    return sum(values) / len(values)


@dataclass
class SeriesStats:
    """Aggregate of repeated trials of one measurement."""

    values: List[float]

    @property
    def mean(self) -> float:
        return mean(self.values)

    @property
    def min(self) -> float:
        return min(self.values)

    @property
    def max(self) -> float:
        return max(self.values)

    @property
    def count(self) -> int:
        return len(self.values)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    digits: Optional[Dict[str, int]] = None,
) -> str:
    """Render a plain-text table (the benches print paper-style tables).

    Floats print to one decimal; ``digits`` maps a column header to the
    decimals its floats print with instead."""
    places = [(digits or {}).get(h, 1) for h in headers]
    str_rows = [[_fmt(c, places[i]) for i, c in enumerate(row)] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(c.rjust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def _fmt(value: object, places: int = 1) -> str:
    if isinstance(value, float):
        return f"{value:.{places}f}"
    if value is None:
        return "-"
    return str(value)
