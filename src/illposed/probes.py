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
        lines = ["n,pairing"]
        for n, value in enumerate(self.pairings, start=1):
            lines.append(f"{n},{value:.17g}")
        return "\n".join(lines) + "\n"

    def summary_json(self) -> str:
        return json.dumps(
            {"label": self.label, "sup_tail": self.sup_tail, "verdict": self.verdict},
            indent=2,
        )


def weak_star_probe(
    op: TruncatedOperator,
    eta: np.ndarray,
    n_terms: int,
    threshold: float = PERSISTENCE_THRESHOLD,
) -> ProbeReport:
    """Pair eta against the basis images A e^(1) .. A e^(N).

    The pairing with A e^(n) is exactly the n-th adjoint component, so the
    whole report is one transposed matrix-vector product.  A zero eta is
    rejected: its pairings vanish for every operator, so they witness nothing.
    """
    if not 1 <= n_terms <= op.n_cols:
        raise ValueError(f"n_terms must be in 1..{op.n_cols}")
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (op.n_rows,):
        raise ValueError(f"eta must have length {op.n_rows}")
    if not np.any(eta):
        raise ValueError("eta must be a nonzero functional")
    pairings = (op.entries.T @ eta)[:n_terms]
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
