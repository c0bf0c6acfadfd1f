"""Byte-stable CSV and JSON report writers.

Floats are rendered with 17 significant digits and a '.' decimal separator,
rows end with a bare newline, and nothing time- or locale-dependent enters
the output, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
import math

__all__ = ["fmt", "csv_report", "json_report"]


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.17g}"
    return str(value)


def csv_report(header: list[str], rows: list[list], comments: list[str] | None = None) -> str:
    lines = [f"# {c}" for c in comments or []]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def json_report(header: list[str], rows: list[list], meta: dict | None = None) -> str:
    payload: dict = {}
    if meta:
        payload["meta"] = meta
    payload["rows"] = [dict(zip(header, row)) for row in rows]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"
