"""Byte-stable CSV and JSON report writers.

Floats are rendered with 17 significant digits and a '.' decimal separator,
rows end with a bare newline, and nothing time- or locale-dependent enters
the output, so identical inputs produce identical bytes.  ``float_cells``
writes ``%.17g`` for a whole array: by Dekker's exact product with a power
of ten for 1e-6 < |v| < 1e17 and by the ``%`` operator for the rest.  It and
the probe CSV writer go through fixed blocks of ``_BLOCK`` rows, because the
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


def _layouts() -> np.ndarray:
    """Per exponent -6..16: each cell byte's source in the -4 <= E < 0 layout, then clip bounds."""
    layout = np.tile(np.array([range(24), [0] * 24, [255] * 24]), (23, 1, 1))
    for exp in (-6, -5, *range(17)):
        whole = max(exp, 0) + 1  # digits before the point; the sign is at 4, digits at 7..23
        point = 7 + whole if whole < 17 else 3  # byte 3 is always NUL
        layout[exp + 6, 0] = [4, *range(7, 7 + whole), point, *range(7 + whole, 24), 3, 3, 3, 3, 3]
        # stripped integer digits become '0'; a kept first fractional digit becomes '.'
        layout[exp + 6, 1, 1 : whole + 1], layout[exp + 6, 2, whole + 1] = ord("0"), ord(".")
    layout[:2, 1:, 19:23] = np.frombuffer(b"e-06e-05", np.uint8).reshape(2, 1, 4)  # both bounds
    return layout.astype(np.uint8)


_QUADS = _word_table()
_LAYOUT = _layouts()
# the least doubles >= 10**-6..10**17; the double nearest 10**-6 lies below it
_DECADES = np.array([1.0000000000000002e-06] + [float(f"1e{k}") for k in range(-5, 18)])
_POW10 = np.array([10**k for k in range(23)], dtype=np.float64)
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
# per exponent -6..16 and sign: "0." or "-0." and, if -4 <= E < 0, zeros; right-aligned in 0..6
_LEAD = [s + b"0." + b"0" * (-e - 1) * (e > -5) for e in range(-6, 17) for s in (b"", b"-")]
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

    Window digits are round-half-even(|v| * 10**(16 - E)), E the exponent
    (none rounds into an 18th digit), go four at a time into the layout of
    -4 <= E < 0, ``-0.000ddd``, from which one gather through ``_LAYOUT``
    rearranges the other exponents.  Blocks of ``_BLOCK`` values keep every
    temporary in L2 and in reused heap: page faults, not arithmetic, set the cost.
    """
    values = np.asarray(values, dtype=np.float64)
    cells = np.empty((len(values), 24), dtype=np.uint8)
    for start in range(0, len(values), _BLOCK):
        v, out = values[start : start + _BLOCK], cells[start : start + _BLOCK]
        a = np.abs(v)
        slow = np.flatnonzero(~((a > 1e-6) & (a < 1e17)))
        a[slow] = 1.0
        e = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.intp) + 6  # E + 6
        e += a >= _DECADES.take(e + 1)  # log10 is off by at most one, near a power of ten
        e -= a < _DECADES.take(e)
        p = a * (s := _POW10.take(22 - e))
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
        moved = np.flatnonzero((e < 2) | (e >= 6))  # E < -4 or E >= 0
        plan = _LAYOUT.take(e[moved], 0)
        out[moved] = np.clip(out.take(plan[:, 0] + 24 * moved[:, None]), plan[:, 1], plan[:, 2])
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
