"""Numerical witnesses for continuity and boundedness failures.

The canonical test sequence is the coordinate basis (e^(n)), which tends to
zero against every fixed c0 functional.  Pairing a fixed codomain functional
eta with the images A e^(n) then separates two behaviours at truncation
scale: pairings that decay (images go weakly to zero) and pairings that stay
large along a subsequence (weak*-to-weak continuity fails).  Probes report
raw pairings so any threshold can be re-applied afterwards.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .operators import TruncatedOperator, _is_nonzero, compose
from .reports import _BLOCK, _QUADS, float_cells

__all__ = [
    "ProbeReport",
    "weak_star_probe",
    "composition_probe",
    "pseudoinverse_growth",
]

PERSISTENCE_THRESHOLD = 0.5


@dataclass(frozen=True)
class ProbeReport:
    """Pairings <eta, A e^(n)> for n = 1..N and the tail-based verdict.

    sup_tail is the largest magnitude over the last half of the pairings;
    the verdict is "persists" when it reaches the threshold and
    "converges_to_zero" otherwise.
    """

    label: str
    eta: np.ndarray
    pairings: np.ndarray
    threshold: float

    @property
    def sup_tail(self) -> float:
        half = len(self.pairings) // 2
        return float(np.max(np.abs(self.pairings[half:])))

    @property
    def verdict(self) -> str:
        return self._verdict(self.sup_tail)

    def _verdict(self, sup_tail: float) -> str:
        return "persists" if sup_tail >= self.threshold else "converges_to_zero"

    def to_csv(self) -> str:
        """One ``n,pairing`` line per pairing, each value as ``%.17g`` writes it.

        Pairings repeat heavily, so ``reports.float_cells`` writes each
        distinct bit pattern once (float equality would merge -0.0 with 0.0):
        the exact product for 1e-4 <= |v| < 1 and the ``%`` operator for
        zeros, non-finite values and other magnitudes.  Lines go in blocks of
        ``reports._BLOCK`` NUL-padded byte rows in one reused buffer (index
        digits, a comma, the cell, a newline), each compacted to text, and the
        texts are joined once: page faults, not arithmetic, set the cost.
        """
        values = np.ascontiguousarray(self.pairings, dtype=np.float64)
        n = len(values)
        keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
        cells = float_cells(keys.view(np.float64)).view("V24")[:, 0]
        width = 4 * -(-len(str(n)) // 4)  # index digits in 4-byte words, leading zeros NUL
        unsigned = np.promote_types(np.uint32, np.min_scalar_type(n))
        rows = np.empty((min(n, _BLOCK), width + 26), dtype=np.uint8)
        rows[:, width], rows[:, -1] = ord(","), ord("\n")
        texts = ["n,pairing\n"]
        for start in range(0, n, _BLOCK):
            block = rows[: n - start]
            index = np.arange(start + 1, start + 1 + len(block), dtype=unsigned)
            words = block[:, :width].view("<u4")
            for j in range(width // 4 - 1, -1, -1):
                index, low = index // 10000, index
                words[:, j] = _QUADS.take(low - index * 10000 + (index == 0) * np.uint32(20000))
            block[:, width + 1 : -1].view("V24")[:, 0] = cells.take(inverse[start : start + _BLOCK])
            texts.append(block.tobytes().translate(None, b"\0").decode("ascii"))
        return "".join(texts)

    def summary_json(self) -> str:
        sup_tail = self.sup_tail
        return json.dumps(
            {"label": self.label, "sup_tail": sup_tail, "verdict": self._verdict(sup_tail)},
            indent=2,
            allow_nan=False,
        )


def weak_star_probe(
    op: TruncatedOperator,
    eta: np.ndarray,
    n_terms: int,
    threshold: float = PERSISTENCE_THRESHOLD,
) -> ProbeReport:
    """Pair eta against the basis images A e^(1) .. A e^(N).

    The pairing with A e^(n) is exactly the n-th adjoint component, so the
    whole report is one transposed matrix-vector product.  A zero or
    non-finite eta is rejected: its pairings vanish for every operator, or
    are not numbers, so they witness nothing.  So is a threshold that is not
    a positive finite number, against which every verdict is the same, and
    an eta whose pairings overflow to infinity.
    """
    if not 1 <= n_terms <= op.n_cols:
        raise ValueError(f"n_terms must be in 1..{op.n_cols}")
    if not (math.isfinite(threshold) and threshold > 0.0):
        raise ValueError("threshold must be a positive finite number")
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (op.n_rows,):
        raise ValueError(f"eta must have length {op.n_rows}")
    if not np.all(np.isfinite(eta)):
        raise ValueError("eta must be finite")
    if not np.any(eta):
        raise ValueError("eta must be a nonzero functional")
    with np.errstate(over="ignore", invalid="ignore"):
        pairings = op.adjoint(eta)[:n_terms]
    if not np.all(np.isfinite(pairings)):
        raise ValueError("pairings overflow: eta is too large for this operator")
    return ProbeReport(op.label, eta, pairings, threshold)


def composition_probe(
    outer: TruncatedOperator,
    direction_op: TruncatedOperator,
    n_terms: int,
    threshold: float = PERSISTENCE_THRESHOLD,
) -> ProbeReport:
    """Probe a composition with a dense-direction truncation.

    The functional is the normalized image under the outer factor of the
    direction it stretches the most, which guarantees a nonzero adjoint at
    truncation scale.  For an identity outer factor this reduces to probing
    the direction operator itself with its first direction.  No command calls
    it; it stays only for the benchmark's lattice ``compose:*`` cases, until
    the benchmark's own rework drops them (ROADMAP item 1).
    """
    if not _is_nonzero(outer):
        raise ValueError("outer operator is identically zero")
    op = compose(outer, direction_op)
    norms = op.column_norms()[:n_terms]
    best = int(np.argmax(norms))
    eta = op.column(best) / norms[best]
    return weak_star_probe(op, eta, n_terms, threshold)


def pseudoinverse_growth(
    family: list[TruncatedOperator],
) -> list[tuple[int, float, float]]:
    """Smallest singular value and its reciprocal across a truncation family.

    An inverse bounded uniformly in the truncation size signals a closed
    range; growth of 1/sigma_min without bound is the finite shadow of an
    unbounded pseudoinverse.  A numerically singular truncation reports
    infinite growth.  sigma_min comes from the operator's pieces
    (``TruncatedOperator.smallest_singular_value``).
    """
    out: list[tuple[int, float, float]] = []
    for op in family:
        smin = op.smallest_singular_value()
        growth = float("inf") if smin <= 0.0 else 1.0 / smin
        out.append((op.n_cols, smin, growth))
    return out
