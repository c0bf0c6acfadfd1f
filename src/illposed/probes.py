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
        return "persists" if self.sup_tail >= self.threshold else "converges_to_zero"

    def to_csv(self) -> str:
        """One ``n,pairing`` line per pairing, each value to 17 significant digits.

        Probe pairings repeat heavily (a basis functional against the
        direction operator takes a few hundred values over tens of thousands
        of terms), so each distinct value is formatted once and the lines
        are filled from one template.  Values are grouped by their bit
        pattern, not by float equality, which would merge -0.0 with 0.0.
        """
        values = np.ascontiguousarray(self.pairings, dtype=np.float64)
        n = len(values)
        keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
        distinct = tuple(keys.view(np.float64).tolist())
        text = ("%.17g\n" * len(distinct) % distinct).split("\n")[:-1]
        cells = [0] * (2 * n)
        cells[0::2] = range(1, n + 1)
        cells[1::2] = np.array(text, dtype=object)[inverse].tolist()
        return "n,pairing\n" + ("%d,%s\n" * n) % tuple(cells)

    def summary_json(self) -> str:
        return json.dumps(
            {"label": self.label, "sup_tail": self.sup_tail, "verdict": self.verdict},
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
    images = outer.entries @ direction_op.entries
    norms = np.linalg.norm(images[:, :n_terms], axis=0)
    best = int(np.argmax(norms))
    eta = images[:, best] / norms[best]
    return weak_star_probe(compose(outer, direction_op), eta, n_terms, threshold)


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
