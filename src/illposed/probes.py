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

from .operators import TruncatedOperator, compose
from .reports import float_cells

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

        The report is one NUL-padded byte matrix: row 0 the header, row k
        the index digits, a comma, the value and a newline of line k (rows
        run 1..n, so a leading digit position is blank on a row prefix).
        Pairings repeat heavily, so ``reports.float_cells`` writes each
        distinct bit pattern once (float equality would merge -0.0 with 0.0):
        the exact product for 1e-6 < |v| < 1e17 and the ``%`` operator for
        zeros, non-finite values and other magnitudes.  NULs are dropped.
        """
        values = np.ascontiguousarray(self.pairings, dtype=np.float64)
        n = len(values)
        keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
        cells = float_cells(keys.view(np.float64))
        width = len(str(n))
        report = np.zeros((n + 1, width + 26), dtype=np.uint8)
        report[0, :10] = np.frombuffer(b"n,pairing\n", dtype=np.uint8)
        rows = report[1:]
        index = np.arange(1, n + 1, dtype=np.min_scalar_type(n))
        for col in range(width - 1, -1, -1):
            index, digit = np.divmod(index, 10)
            rows[:, col] = digit + ord("0")
            # rows 1..10**k - 1 have no digit k places left of the units
            rows[: 10 ** (width - 1 - col) - 1, col] = 0
        rows[:, width] = ord(",")
        rows[:, width + 1 : width + 25] = cells[inverse]
        rows[:, width + 25] = ord("\n")
        return str(report[report != 0].data, "ascii")

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
        pairings = (op.entries.T @ eta)[:n_terms]
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
    the direction operator itself with its first direction.
    """
    if not np.any(outer.entries != 0.0):
        raise ValueError("outer operator is identically zero")
    op = compose(outer, direction_op)
    norms = np.linalg.norm(op.entries[:, :n_terms], axis=0)
    best = int(np.argmax(norms))
    eta = op.entries[:, best] / norms[best]
    return weak_star_probe(op, eta, n_terms, threshold)


def pseudoinverse_growth(
    family: list[TruncatedOperator],
) -> list[tuple[int, float, float]]:
    """Smallest singular value and its reciprocal across a truncation family.

    An inverse bounded uniformly in the truncation size signals a closed
    range; growth of 1/sigma_min without bound is the finite shadow of an
    unbounded pseudoinverse.  A numerically singular truncation reports
    infinite growth.
    """
    out: list[tuple[int, float, float]] = []
    for op in family:
        smin = float(np.linalg.svd(op.entries, compute_uv=False)[-1])
        growth = float("inf") if smin <= 0.0 else 1.0 / smin
        out.append((op.n_cols, smin, growth))
    return out
