"""Finite truncations of sequence-space operators with declared structure.

Matrices here stand in for bounded operators between l^p spaces (and finite
products of them).  The numeric content is an ordinary dense matrix; the
structural content is a set of tri-state flags describing the underlying
infinite-dimensional operator.  Flags are declared metadata: combinators
propagate them only along implications that are mathematically sound, and
everything else degrades to unknown (None).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .directions import RationalDirection, realized_matrix

__all__ = [
    "SpaceTag",
    "OperatorAttributes",
    "TruncatedOperator",
    "mazur",
    "embedding",
    "diagonal",
    "identity",
    "compose",
    "block_product",
    "injective_counterexample",
    "injective_counterexample_inverse",
]


@dataclass(frozen=True)
class SpaceTag:
    """Identifies the (truncated) space a vector lives in.

    family is "ell" for a single sequence space with the given norm exponent,
    or "product" for a two-block product whose parts are carried explicitly.
    """

    family: str
    exponent: float | None
    dim: int
    parts: tuple["SpaceTag", ...] = ()

    @staticmethod
    def ell(exponent: float, dim: int) -> "SpaceTag":
        return SpaceTag("ell", float(exponent), dim)

    @staticmethod
    def product(left: "SpaceTag", right: "SpaceTag") -> "SpaceTag":
        return SpaceTag("product", None, left.dim + right.dim, (left, right))

    def compatible(self, other: "SpaceTag") -> bool:
        if self.family != other.family or self.dim != other.dim:
            return False
        if self.family == "ell":
            return self.exponent == other.exponent
        return all(a.compatible(b) for a, b in zip(self.parts, other.parts))


@dataclass(frozen=True)
class OperatorAttributes:
    """Tri-state structural flags of the infinite-dimensional operator.

    True / False are declared facts, None means unknown.  The flags are never
    inferred from the truncation matrix.  weakstar_to_weak_continuous refers
    to the predual pairing of the domain (c0 for l^1); for reflexive domains
    weak* and weak coincide and the flag is trivially True when set.
    """

    range_closed: bool | None = None
    range_has_closed_infdim_subspace: bool | None = None
    nullspace_complemented: bool | None = None
    strictly_singular: bool | None = None
    compact: bool | None = None
    injective: bool | None = None
    surjective: bool | None = None
    weakstar_to_weak_continuous: bool | None = None

    def normalized(self) -> "OperatorAttributes":
        """Close the flags under three sound implications.

        injective forces a trivial, hence complemented, null-space; compact
        operators are strictly singular; a strictly singular operator with
        complemented null-space cannot carry a closed infinite-dimensional
        subspace in its range (it would be of hybrid type, and hybrid-type
        operators never have complemented null-spaces).
        """
        attrs = self
        if attrs.injective is True and attrs.nullspace_complemented is None:
            attrs = replace(attrs, nullspace_complemented=True)
        if attrs.compact is True and attrs.strictly_singular is None:
            attrs = replace(attrs, strictly_singular=True)
        if (
            attrs.strictly_singular is True
            and attrs.nullspace_complemented is True
            and attrs.range_has_closed_infdim_subspace is None
        ):
            attrs = replace(attrs, range_has_closed_infdim_subspace=False)
        return attrs


def _tri_and(*flags: bool | None) -> bool | None:
    if any(f is False for f in flags):
        return False
    if all(f is True for f in flags):
        return True
    return None


@dataclass(frozen=True)
class TruncatedOperator:
    """Dense matrix truncation of a bounded operator, plus declared structure.

    ``mazur_truncation`` records that the columns realize a dense unit-sphere
    direction sequence; a few propagation rules are only valid for such
    operators.
    """

    entries: np.ndarray
    domain_tag: SpaceTag
    codomain_tag: SpaceTag
    attributes: OperatorAttributes
    label: str
    mazur_truncation: bool = False

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] < 1 or entries.shape[1] < 1:
            raise ValueError("entries must be a nonempty 2-d matrix")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite")
        if entries.shape != (self.codomain_tag.dim, self.domain_tag.dim):
            raise ValueError(
                f"entries shape {entries.shape} does not match tags "
                f"({self.codomain_tag.dim}, {self.domain_tag.dim})"
            )
        entries = entries.copy()
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def n_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]


def mazur(
    directions: Sequence[RationalDirection], n_cols: int, n_rows: int
) -> TruncatedOperator:
    """Truncation of the surjection of l^1 onto l^q built from unit directions.

    Column k is the realized direction zeta^(k), padded with zeros.  A
    direction whose support exceeds n_rows is an error: truncating a column
    would break its exact unit norm.
    """
    if n_cols < 1 or n_cols > len(directions):
        raise ValueError(f"n_cols must be in 1..{len(directions)}")
    q = directions[0].q
    entries = realized_matrix(directions[:n_cols], n_rows)
    attrs = OperatorAttributes(
        range_closed=True,
        range_has_closed_infdim_subspace=True,
        nullspace_complemented=False,
        strictly_singular=True,
        compact=False,
        injective=False,
        surjective=True,
        weakstar_to_weak_continuous=False,
    )
    return TruncatedOperator(
        entries,
        SpaceTag.ell(1.0, n_cols),
        SpaceTag.ell(q, n_rows),
        attrs,
        "mazur",
        mazur_truncation=True,
    )


def embedding(p: float, q: float, n: int) -> TruncatedOperator:
    """Natural embedding of l^p into l^q, 1 <= p < q: the identity matrix with
    a change of norm tags.  Strictly singular but not compact, range not
    closed and containing no closed infinite-dimensional subspace.
    """
    if not (1.0 <= p < q < math.inf):
        raise ValueError("embedding requires 1 <= p < q < inf")
    if n < 1:
        raise ValueError("n must be >= 1")
    attrs = OperatorAttributes(
        range_closed=False,
        range_has_closed_infdim_subspace=False,
        strictly_singular=True,
        compact=False,
        injective=True,
        surjective=False,
        weakstar_to_weak_continuous=True,
    ).normalized()
    return TruncatedOperator(
        np.eye(n), SpaceTag.ell(p, n), SpaceTag.ell(q, n), attrs, f"embed({p:g},{q:g})"
    )


def diagonal(sigma, n: int, domain_exponent: float = 2.0) -> TruncatedOperator:
    """diag(sigma_1..sigma_n) with positive nonincreasing weights.

    The full weight sequence is declared to tend to zero, which makes the
    infinite operator compact with non-closed range.
    """
    if callable(sigma):
        weights = np.array([float(sigma(k)) for k in range(1, n + 1)])
    else:
        weights = np.asarray(sigma, dtype=float)[:n]
    if len(weights) != n:
        raise ValueError(f"need {n} weights, got {len(weights)}")
    if np.any(weights <= 0.0):
        raise ValueError("diagonal weights must be positive")
    if np.any(np.diff(weights) > 0.0):
        raise ValueError("diagonal weights must be nonincreasing")
    attrs = OperatorAttributes(
        range_closed=False,
        compact=True,
        injective=True,
        surjective=False,
        weakstar_to_weak_continuous=True,
    ).normalized()
    return TruncatedOperator(
        np.diag(weights),
        SpaceTag.ell(domain_exponent, n),
        SpaceTag.ell(2.0, n),
        attrs,
        "diag",
    )


def identity(n: int, exponent: float = 2.0) -> TruncatedOperator:
    """Identity on l^p.  On l^1 the Schur property kills weak*-to-weak
    continuity; on reflexive spaces the flag is trivially true."""
    if n < 1:
        raise ValueError("n must be >= 1")
    attrs = OperatorAttributes(
        range_closed=True,
        range_has_closed_infdim_subspace=True,
        nullspace_complemented=True,
        strictly_singular=False,
        compact=False,
        injective=True,
        surjective=True,
        weakstar_to_weak_continuous=(exponent > 1.0),
    )
    tag = SpaceTag.ell(exponent, n)
    return TruncatedOperator(np.eye(n), tag, tag, attrs, "identity")


def _is_nonzero(op: TruncatedOperator) -> bool:
    return bool(np.any(op.entries != 0.0))


def compose(outer: TruncatedOperator, inner: TruncatedOperator) -> TruncatedOperator:
    """Composition outer o inner (apply inner first).

    Attribute propagation keeps to sound implications: compactness passes
    through from either factor, and through a surjective inner factor the
    composition inherits the outer factor's range facts and compactness in
    both directions (bounded lifts of bounded sequences).  An injective outer
    factor leaves the null-space, hence injectivity and complementedness, of
    the inner factor untouched.  A nonzero outer factor composed with a
    dense-direction truncation never becomes weak*-to-weak continuous.
    """
    if not inner.codomain_tag.compatible(outer.domain_tag):
        raise ValueError(
            f"cannot compose: inner codomain {inner.codomain_tag} vs "
            f"outer domain {outer.domain_tag}"
        )
    a, b = outer.attributes, inner.attributes

    # Compactness and strict singularity pass through from either factor, but
    # their absence does not: compositions can cross into either ideal.
    compact: bool | None = True if (a.compact is True or b.compact is True) else None
    range_closed: bool | None = None
    has_subspace: bool | None = None
    if b.surjective is True:
        range_closed = a.range_closed
        has_subspace = a.range_has_closed_infdim_subspace
        if compact is None:
            compact = a.compact
    strictly_singular: bool | None = (
        True if (a.strictly_singular is True or b.strictly_singular is True) else None
    )
    if strictly_singular is None and compact is True:
        strictly_singular = True

    # The null-space of the composition contains the inner null-space and
    # equals it when the outer factor is injective.
    injective: bool | None = None
    complemented: bool | None = None
    if b.injective is False:
        injective = False
    elif a.injective is True:
        injective = b.injective
    if a.injective is True:
        complemented = b.nullspace_complemented

    surjective: bool | None = None
    if a.surjective is False:
        surjective = False
    elif a.surjective is True and b.surjective is True:
        surjective = True

    ws2w: bool | None = None
    if inner.mazur_truncation and _is_nonzero(outer):
        ws2w = False
    elif b.weakstar_to_weak_continuous is True:
        ws2w = True

    attrs = OperatorAttributes(
        range_closed=range_closed,
        range_has_closed_infdim_subspace=has_subspace,
        nullspace_complemented=complemented,
        strictly_singular=strictly_singular,
        compact=compact,
        injective=injective,
        surjective=surjective,
        weakstar_to_weak_continuous=ws2w,
    ).normalized()
    return TruncatedOperator(
        outer.entries @ inner.entries,
        inner.domain_tag,
        outer.codomain_tag,
        attrs,
        f"{outer.label}@{inner.label}",
    )


def block_product(first: TruncatedOperator, second: TruncatedOperator) -> TruncatedOperator:
    """Block-diagonal action (x1, x2) -> (A1 x1, A2 x2) on the product space.

    Ranges, null-spaces and the singular/compact ideals all factor through
    the blocks, so those flags combine conjunctively; a closed
    infinite-dimensional subspace of either block's range embeds as a closed
    subspace of the product range.  Weak*-to-weak continuity fails as soon as
    it fails in one block; a joint positive statement does not reduce to the
    flags (the blocks' domains may pair against different preduals), so two
    positives stay unknown.
    """
    a, b = first.attributes, second.attributes
    n1, m1 = first.n_rows, first.n_cols
    n2, m2 = second.n_rows, second.n_cols
    entries = np.zeros((n1 + n2, m1 + m2))
    entries[:n1, :m1] = first.entries
    entries[n1:, m1:] = second.entries

    # A closed infinite-dimensional subspace of either block's range embeds as
    # a closed subspace of the product range; the converse does not reduce to
    # the flags, so two negatives stay unknown (normalization may still settle
    # it through strict singularity).
    has_subspace: bool | None = (
        True
        if (
            a.range_has_closed_infdim_subspace is True
            or b.range_has_closed_infdim_subspace is True
        )
        else None
    )
    ws2w: bool | None = None
    if a.weakstar_to_weak_continuous is False or b.weakstar_to_weak_continuous is False:
        ws2w = False

    attrs = OperatorAttributes(
        range_closed=_tri_and(a.range_closed, b.range_closed),
        range_has_closed_infdim_subspace=has_subspace,
        nullspace_complemented=_tri_and(a.nullspace_complemented, b.nullspace_complemented),
        strictly_singular=_tri_and(a.strictly_singular, b.strictly_singular),
        compact=_tri_and(a.compact, b.compact),
        injective=_tri_and(a.injective, b.injective),
        surjective=_tri_and(a.surjective, b.surjective),
        weakstar_to_weak_continuous=ws2w,
    ).normalized()
    return TruncatedOperator(
        entries,
        SpaceTag.product(first.domain_tag, second.domain_tag),
        SpaceTag.product(first.codomain_tag, second.codomain_tag),
        attrs,
        f"({first.label},{second.label})",
    )


def injective_counterexample(n: int) -> TruncatedOperator:
    """Summing row stacked on a decaying diagonal: injective, unbounded inverse.

    Row 1 sums all coordinates; row k >= 2 carries 1/k on the diagonal.  The
    operator maps l^1 to l^2, is injective with trivial (complemented)
    null-space and non-closed range, yet fails weak*-to-weak continuity: the
    images of the canonical basis converge to e^(1) instead of 0.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    entries = np.zeros((n, n))
    entries[0, :] = 1.0
    for k in range(2, n + 1):
        entries[k - 1, k - 1] = 1.0 / k
    attrs = OperatorAttributes(
        range_closed=False,
        range_has_closed_infdim_subspace=False,
        nullspace_complemented=True,
        strictly_singular=True,
        compact=True,
        injective=True,
        surjective=False,
        weakstar_to_weak_continuous=False,
    )
    return TruncatedOperator(
        entries, SpaceTag.ell(1.0, n), SpaceTag.ell(2.0, n), attrs, "sum_decay"
    )


def injective_counterexample_inverse(y: np.ndarray) -> np.ndarray:
    """Exact preimage under the summing-plus-decay operator.

    Inverts y = (sum_l x_l, x_2/2, ..., x_k/k, ...) coordinate by coordinate:
    x_k = k y_k for k >= 2 and x_1 = y_1 - sum_{k>=2} k y_k.  Exact integer
    arithmetic survives in floating point for basis vectors, so preimage
    norms like ||A^(-1) e^(k)||_1 = 2k come out exact.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or len(y) < 2:
        raise ValueError("y must be a vector of length >= 2")
    ks = np.arange(2, len(y) + 1, dtype=float)
    x = np.empty_like(y)
    x[1:] = ks * y[1:]
    x[0] = y[0] - np.sum(x[1:])
    return x
