"""Byte-stable CSV and JSON report writers.

Floats are rendered with 17 significant digits and a '.' decimal separator,
rows end with a bare newline, and nothing time- or locale-dependent enters
the output, so identical inputs produce identical bytes.  ``float_cells``
writes ``%.17g`` for a whole array: by Dekker's exact product with a power
of ten for 1e-4 <= |v| < 1, the ``0.ddd`` to ``-0.000ddd`` texts of nearly
every probe pairing, and by the ``%`` operator for the rest.  It and the
probe CSV writer go through fixed blocks of ``_BLOCK`` rows, because the
page faults of large short-lived arrays, not the arithmetic, set their cost.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["fmt", "csv_report", "json_report", "float_cells"]


def _word_table() -> np.ndarray:
    """The texts 0000..9999 as little-endian words, then with trailing, then leading zeros NUL."""
    digits = np.stack(np.indices((10,) * 4, dtype=np.uint8), axis=-1) + np.uint8(ord("0"))
    trailing = np.logical_or.accumulate(digits[..., ::-1] > ord("0"), axis=-1)[..., ::-1]
    leading = np.logical_or.accumulate(digits > ord("0"), axis=-1)
    return np.concatenate([digits, digits * trailing, digits * leading]).view("<u4").ravel()


def _percent_cells(values: np.ndarray) -> np.ndarray:
    text = ("%-24.17g" * len(values) % tuple(values.tolist())).replace(" ", "\0")
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, 24)


_QUADS = _word_table()
# the least doubles >= 10**-4..10**0 (each literal rounds up); the window is [1e-4, 1)
_DECADES = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0])
_POW10 = np.array([10**k for k in range(20, 16, -1)], dtype=np.float64)  # by E + 4: 10**(16 - E)
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
# by E + 4 and sign: "0." or "-0." and -E - 1 zeros, right-aligned in bytes 0..6
_LEAD = [s + b"0." + b"0" * (3 - e) for e in range(4) for s in (b"", b"-")]
_LEAD = np.frombuffer(b"".join(t.rjust(7, b"\0") + b"\0" for t in _LEAD), dtype="<u8")
_BLOCK = 4096  # rows per block: the temporaries of one block stay in L2 and reuse freed heap


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def float_cells(values) -> np.ndarray:
    """Each value's ``%.17g`` text as a row of 24 bytes, NUL where no character.

    In the window 1e-4 <= |v| < 1 the exponent E = -4..-1 is the value's
    place among ``_DECADES``, and the digits, round-half-even(|v| * 10**(16 - E))
    (none rounds into an 18th digit), go four at a time behind the lead
    ``0.`` to ``-0.000``.  Every other value, zeros and non-finite ones too,
    goes through the ``%`` operator.  Blocks of ``_BLOCK`` values keep every
    temporary in L2 and in reused heap: page faults, not arithmetic, set the cost.
    """
    values = np.asarray(values, dtype=np.float64)
    cells = np.empty((len(values), 24), dtype=np.uint8)
    for start in range(0, len(values), _BLOCK):
        v, out = values[start : start + _BLOCK], cells[start : start + _BLOCK]
        a = np.abs(v)
        slow = np.flatnonzero(~((a >= _DECADES[0]) & (a < _DECADES[-1])))
        a[slow] = 0.5
        e = _DECADES.searchsorted(a, side="right") - 1  # E + 4
        p = a * (s := _POW10.take(e))
        ah, sh = (c := a * _SPLIT) - (c - a), (c := s * _SPLIT) - (c - s)  # high halves
        al, sl = a - ah, s - sh
        err = ((ah * sh - p) + ah * sl + al * sh) + al * sl  # Dekker: p + err == a * s exactly
        d = p.astype(np.int64) + np.rint(err).astype(np.int64)  # p is even, so ties go to even
        words, stripped = out.view("<u4"), 10000  # stripped while every later group is zero
        for j in range(5, 1, -1):
            high = d // 10000
            words[:, j] = _QUADS.take((group := d - high * 10000) + stripped)
            stripped, d = stripped * (group == 0), high
        out.view("<u8")[:, 0] = _LEAD.take(2 * e + (v < 0))
        out[:, 7] = d + ord("0")
        out[slow] = _percent_cells(v[slow])
    return cells


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
