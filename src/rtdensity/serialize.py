"""Stable output rendering: exact rationals, JSON, CSV, and aligned text.

Identical inputs must produce byte-identical output, so key order is fixed
by construction, rationals render canonically, and floats use repr (JSON)
or 15 significant digits (CSV/text).
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .rationals import format_fraction


def float15(x: float) -> str:
    return format(float(x), ".15g")


def exact_float(x: Fraction) -> dict:
    """A rational as both an exact string and a float convenience value."""
    return {"exact": format_fraction(x), "float": float(x)}


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(x) for x in row])
    return buf.getvalue()


def table(header: list[str], rows: list[list]) -> str:
    cells = [[_cell(x) for x in row] for row in rows]
    widths = [len(h) for h in header]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    for row in cells:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines) + "\n"


def _cell(x) -> str:
    if isinstance(x, float):
        return float15(x)
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return ""
    return str(x)
