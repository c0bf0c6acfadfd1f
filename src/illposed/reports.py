"""Byte-stable CSV and JSON report writers.

Floats are rendered with 17 significant digits and a '.' decimal separator,
rows end with a bare newline, and nothing time- or locale-dependent enters
the output, so identical inputs produce identical bytes.  ``float_cells``
writes ``%.17g`` for a whole array: by Dekker's exact product with a power
of ten for 1e-6 < |v| < 1e17 and by the ``%`` operator for the rest.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["fmt", "csv_report", "json_report", "float_cells"]


def _word_table() -> np.ndarray:
    """The texts 0000..9999 as little-endian words, then with trailing zeros as NULs."""
    digits = np.stack(np.indices((10,) * 4, dtype=np.uint8), axis=-1) + np.uint8(ord("0"))
    kept = digits > ord("0")
    for i in (2, 1, 0):
        kept[..., i] |= kept[..., i + 1]
    return np.concatenate([digits, digits * kept]).view("<u4").ravel()


def _percent_cells(values: np.ndarray) -> np.ndarray:
    text = ("%-24.17g" * len(values) % tuple(values.tolist())).replace(" ", "\0")
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, 24)


_QUADS = _word_table()
# the least doubles >= 10**-6..10**17; the double nearest 10**-6 lies below it
_DECADES = np.array([1.0000000000000002e-06] + [float(f"1e{k}") for k in range(-5, 18)])
_POW10 = np.array([10**k for k in range(23)], dtype=np.float64)
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
# "0." or "-0." and z = 0..3 zeros right-aligned in bytes 0..6, before the first digit
_LEAD = [(b"-" * s + b"0." + b"0" * z).rjust(7, b"\0") + b"\0" for z in range(4) for s in (0, 1)]
_LEAD = np.frombuffer(b"".join(_LEAD), dtype="<u4").reshape(8, 2)
_FEW = 500  # below about 600 values the kernel's fixed cost exceeds the % operator's


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
    -4 <= E < 0, ``-0.000ddd``, from which other exponents are rearranged.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) < _FEW:
        return _percent_cells(values)
    a = np.abs(values)
    slow = np.flatnonzero(~((a > 1e-6) & (a < 1e17)))
    a[slow] = 1.0
    e = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.intp)
    e += a >= _DECADES[e + 7]  # log10 is off by at most one, near a power of ten
    e -= a < _DECADES[e + 6]
    p = a * (s := _POW10[16 - e])
    ah, sh = (c := a * _SPLIT) - (c - a), (c := s * _SPLIT) - (c - s)  # high halves
    al, sl = a - ah, s - sh
    err = ((ah * sh - p) + ah * sl + al * sh) + al * sl  # Dekker: p + err == a * s exactly
    d = p.astype(np.int64) + np.rint(err).astype(np.int64)  # p is even, so ties go to even
    cells = np.empty((len(values), 24), dtype=np.uint8)
    words = cells.view("<u4")
    rest, stripped = d, 10000  # stripped while every later group is zero
    for j in range(5, 1, -1):
        rest, group = np.divmod(rest, 10000)
        words[:, j] = _QUADS[group + stripped]
        stripped = stripped * (group == 0)
    words[:, :2] = _LEAD[2 * np.clip(-e - 1, 0, 3) * (e > -5) + (values < 0)]
    cells[:, 7] = rest + ord("0")
    for exp in set(np.flatnonzero(np.bincount(e + 6)) - 6) - {-4, -3, -2, -1}:
        rows = np.flatnonzero(e == exp)
        whole = max(exp, 0) + 1  # digits before the point; the sign is at 4, digits at 7..23
        block = cells[rows][:, [4, *range(7, 7 + whole), 3, *range(7 + whole, 24), 3, 3, 3, 3, 3]]
        block[:, 1 : whole + 1] |= ord("0")  # integer digits are never stripped
        block[:, whole + 1] = np.where(d[rows] % 10 ** (17 - whole) != 0, ord("."), 0)
        block[:, 19:23] = np.frombuffer(b"e-0%d" % -exp if exp < 0 else bytes(4), np.uint8)
        cells[rows] = block
    cells[slow] = _percent_cells(values[slow])
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
