"""Finite truncations of sequence-space operators with declared structure.

Matrices here stand in for bounded operators between l^p spaces (and finite
products of them).  The numeric content is a dense block of rows over a
corner diagonal, either possibly empty, and products come from these pieces;
the structural content is a set of tri-state flags describing the underlying
infinite-dimensional operator.  Flags are declared metadata: combinators
propagate them only along implications that are mathematically sound, and
everything else degrades to unknown (None).
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .directions import DirectionSet

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


@dataclass(frozen=True)
class OperatorAttributes:
    """Tri-state structural flags of the infinite-dimensional operator.

    True / False are declared facts, None means unknown.  The flags are never
    inferred from the truncation matrix.  weakstar_to_weak_continuous refers
    to the predual pairing of the domain (c0 for l^1).  On a reflexive domain
    weak* and weak coincide, but the flag still records only what a builder
    or the catalog declares: the catalog leaves it None on D1, D2 and D2oD1,
    whose domains are l^2.
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
    """Matrix truncation of a bounded operator, plus declared structure.

    The matrix is ``rows``, a dense k x n_cols block (k may be 0), over
    ``diagonal``, whose L values fill the last L rows and columns: value i at
    (k + i, n_cols - L + i), with k + L = n_rows and L <= n_cols; every other
    entry is zero.  ``mazur_truncation`` records
    that the columns realize a dense unit-sphere direction sequence; a few
    propagation rules are only valid for such operators.  The pieces are
    read-only: arrays passed in are copied, while the builders here pass
    fresh arrays or a shared read-only view.
    """

    rows: np.ndarray
    domain_tag: SpaceTag
    codomain_tag: SpaceTag
    attributes: OperatorAttributes
    label: str
    mazur_truncation: bool = False
    diagonal: np.ndarray = field(default_factory=lambda: np.empty(0))
    _fresh: InitVar[bool] = False  # builders here pass new arrays or a read-only view: no copy

    def __post_init__(self, _fresh: bool) -> None:
        rows = np.asarray(self.rows, dtype=float)
        diag = np.asarray(self.diagonal, dtype=float)
        if rows.ndim != 2 or diag.ndim != 1 or self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("rows must be 2-d, of a nonempty 2-d matrix")
        if not (np.isfinite(rows).all() and np.isfinite(diag).all()):
            raise ValueError("entries must be finite")
        if rows.shape != (self.n_rows - len(diag), self.n_cols) or len(diag) > self.n_cols:
            raise ValueError(
                f"rows of shape {rows.shape} over {len(diag)} diagonal values "
                f"do not fit tags ({self.n_rows}, {self.n_cols})"
            )
        if not _fresh:
            rows, diag = rows.copy(), diag.copy()
        rows.flags.writeable = diag.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "diagonal", diag)
        if not len(diag):  # the rows block is the whole matrix
            object.__setattr__(self, "entries", rows)

    @property
    def n_rows(self) -> int:
        return self.codomain_tag.dim

    @property
    def n_cols(self) -> int:
        return self.domain_tag.dim

    @functools.cached_property
    def entries(self) -> np.ndarray:
        """The dense matrix, read-only: the rows block when there is no
        diagonal, else built on first request and kept."""
        entries = np.zeros((self.n_rows, self.n_cols))
        entries[: len(self.rows)] = self.rows
        np.fill_diagonal(entries[len(self.rows) :, -len(self.diagonal) :], self.diagonal)
        entries.flags.writeable = False
        return entries

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x, a new array; an operator without a diagonal is one product."""
        if not len(self.diagonal):
            return self.rows @ x
        return np.concatenate((self.rows @ x, self.diagonal * x[-len(self.diagonal) :]))

    def adjoint(self, eta: np.ndarray) -> np.ndarray:
        """A^T eta, a new array; an operator without a diagonal is one product."""
        if not len(self.diagonal):
            return self.rows.T @ eta
        k = len(self.rows)
        out = self.rows.T @ eta[:k]
        out[-len(self.diagonal) :] += self.diagonal * eta[k:]
        return out

    def column(self, j: int) -> np.ndarray:
        """A e^(j+1), the column at 0-based index j; a view of the rows if no diagonal."""
        if not len(self.diagonal):
            return self.rows[:, j]
        out = np.zeros(self.n_rows)
        out[: len(self.rows)] = self.rows[:, j]
        i = j - self.n_cols  # in the corner, one index from the end for out and diagonal
        if i >= -len(self.diagonal):
            out[i] = self.diagonal[i]
        return out

    def column_norms(self) -> np.ndarray:
        """The l^2 norm of every column, a new array."""
        norms = np.linalg.norm(self.rows, axis=0)
        covered = norms[self.n_cols - len(self.diagonal) :]
        np.hypot(covered, self.diagonal, out=covered)
        return norms

    def smallest_singular_value(self) -> float:
        """sigma_min from the pieces, counting as the SVD of the dense matrix does.

        Rows that are zero in the diagonal's columns sit beside it: the SVD of
        their other columns pools with its magnitudes.  One row r over a
        diagonal, no wider than tall, has A^T A = diag(delta) + r r^T: for
        distinct delta and nonzero r its least eigenvalue is delta_1 + t, t the
        least root of the secular equation t (1 + sum_j r_j^2 / (delta_j -
        delta_1 - t)) = r_1^2 (Golub, SIAM Rev. 15, 1973), whose left side is
        increasing and convex up to the next pole: Newton falls onto t from
        the fixed-point step at 0, right of it, until a step no longer moves t.
        Anything else takes the SVD of the dense matrix.
        """
        rows, diag, corner = self.rows, np.abs(self.diagonal), self.n_cols - len(self.diagonal)
        if not rows[:, corner:].any():  # no diagonal, or rows beside it
            smin = np.linalg.svd(rows[:, :corner], compute_uv=False).min(initial=math.inf)
            return float(min(smin, diag.min(initial=math.inf)))
        if len(rows) == 1 and self.n_rows >= self.n_cols:
            delta = np.zeros(self.n_cols)
            delta[corner:] = diag**2
            order = np.argsort(delta)
            delta, weights = delta[order], rows[0, order] ** 2
            if np.all(weights > 0.0) and np.all(np.diff(delta) > 0.0):
                poles, weights, first = delta[1:] - delta[0], weights[1:], weights[0]
                t, pole = first / (1.0 + np.sum(weights / poles)), poles.min(initial=math.inf)
                while t < pole:  # a NaN or a start past the pole falls back to the SVD
                    terms = weights / (poles - t)
                    s = 1.0 + terms.sum()
                    step = (t * s - first) / (s + t * np.sum(terms / (poles - t)))
                    if step <= 0.0 or t - step == t:
                        return math.sqrt(delta[0] + t)
                    t -= step
        return float(np.linalg.svd(self.entries, compute_uv=False)[-1])


# The declared structure of the base operators, shared with the catalog.
MAZUR_ATTRIBUTES = OperatorAttributes(
    range_closed=True,
    range_has_closed_infdim_subspace=True,
    nullspace_complemented=False,
    strictly_singular=True,
    compact=False,
    injective=False,
    surjective=True,
    weakstar_to_weak_continuous=False,
)
EMBEDDING_ATTRIBUTES = OperatorAttributes(
    range_closed=False,
    range_has_closed_infdim_subspace=False,
    strictly_singular=True,
    compact=False,
    injective=True,
    surjective=False,
    weakstar_to_weak_continuous=True,
).normalized()
DIAGONAL_ATTRIBUTES = OperatorAttributes(
    range_closed=False,
    compact=True,
    injective=True,
    surjective=False,
    weakstar_to_weak_continuous=True,
).normalized()
INJECTIVE_COUNTEREXAMPLE_ATTRIBUTES = OperatorAttributes(
    range_closed=False,
    range_has_closed_infdim_subspace=False,
    nullspace_complemented=True,
    strictly_singular=True,
    compact=True,
    injective=True,
    surjective=False,
    weakstar_to_weak_continuous=False,
)


def mazur(directions: DirectionSet, n_cols: int, n_rows: int) -> TruncatedOperator:
    """Truncation of the surjection of l^1 onto l^2 built from unit directions.

    Column k is the realized direction zeta^(k), padded with zeros.  A
    direction whose support exceeds n_rows is an error: truncating a column
    would break its exact unit norm.  When n_rows is at most the width of
    ``directions.realized`` the entries are a read-only view of it, which
    keeps the enumeration's columns alive; more rows get a zero-padded copy.
    """
    if n_cols < 1 or n_cols > len(directions):
        raise ValueError(f"n_cols must be in 1..{len(directions)}")
    needed = int(directions.support[:n_cols].max())
    if n_rows < needed:
        raise ValueError(
            f"support overflow: direction needs {needed} rows, truncation has {n_rows}"
        )
    columns = directions.realized[:n_cols].T
    entries = columns[:n_rows]
    if n_rows > len(columns):
        entries = np.zeros((n_rows, n_cols))
        entries[: len(columns)] = columns
    return TruncatedOperator(
        entries,
        SpaceTag.ell(1.0, n_cols),
        SpaceTag.ell(2.0, n_rows),
        MAZUR_ATTRIBUTES,
        "mazur",
        mazur_truncation=True,
        _fresh=True,
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
    return TruncatedOperator(
        np.empty((0, n)),
        SpaceTag.ell(p, n),
        SpaceTag.ell(q, n),
        EMBEDDING_ATTRIBUTES,
        f"embed({p:g},{q:g})",
        diagonal=np.ones(n),
        _fresh=True,
    )


def diagonal(sigma, n: int, domain_exponent: float = 2.0) -> TruncatedOperator:
    """diag(sigma_1..sigma_n) with positive nonincreasing weights.

    The full weight sequence is declared to tend to zero, which makes the
    infinite operator compact with non-closed range.
    """
    if callable(sigma):  # fromiter allocates first: a size too large fails before any weight
        weights = np.fromiter(map(sigma, range(1, n + 1)), float, n)
    else:
        weights = np.asarray(sigma, dtype=float)[:n].copy()
    if len(weights) != n:
        raise ValueError(f"need {n} weights, got {len(weights)}")
    if np.any(weights <= 0.0):
        raise ValueError("diagonal weights must be positive")
    if np.any(np.diff(weights) > 0.0):
        raise ValueError("diagonal weights must be nonincreasing")
    return TruncatedOperator(
        np.empty((0, n)),
        SpaceTag.ell(domain_exponent, n),
        SpaceTag.ell(2.0, n),
        DIAGONAL_ATTRIBUTES,
        "diag",
        diagonal=weights,
        _fresh=True,
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
    rows, weights = np.empty((0, n)), np.ones(n)
    return TruncatedOperator(rows, tag, tag, attrs, "identity", diagonal=weights, _fresh=True)


def _is_nonzero(op: TruncatedOperator) -> bool:
    return bool(op.rows.any() or op.diagonal.any())


def _is_diagonal(op: TruncatedOperator) -> bool:  # a square diagonal, no rows
    return not len(op.rows) and op.n_rows == op.n_cols


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
    if inner.codomain_tag != outer.domain_tag:
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
    if _is_diagonal(outer):  # each row of inner scaled by its weight
        weights, k = outer.diagonal, len(inner.rows)
        rows, diag = weights[:k, None] * inner.rows, weights[k:] * inner.diagonal
    else:
        rows, diag = outer.entries @ inner.entries, np.empty(0)
    return TruncatedOperator(
        rows,
        inner.domain_tag,
        outer.codomain_tag,
        attrs,
        f"{outer.label}@{inner.label}",
        diagonal=diag,
        _fresh=True,
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
    if _is_diagonal(second):  # extends first's corner diagonal
        rows = np.zeros((len(first.rows), m1 + m2))
        rows[:, :m1] = first.rows
        diag = np.concatenate((first.diagonal, second.diagonal))
    else:
        rows, diag = np.zeros((n1 + n2, m1 + m2)), np.empty(0)
        rows[:n1, :m1] = first.entries
        rows[n1:, m1:] = second.entries

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
        rows,
        SpaceTag.product(first.domain_tag, second.domain_tag),
        SpaceTag.product(first.codomain_tag, second.codomain_tag),
        attrs,
        f"({first.label},{second.label})",
        diagonal=diag,
        _fresh=True,
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
    return TruncatedOperator(
        np.ones((1, n)),
        SpaceTag.ell(1.0, n),
        SpaceTag.ell(2.0, n),
        INJECTIVE_COUNTEREXAMPLE_ATTRIBUTES,
        "sum_decay",
        diagonal=1.0 / np.arange(2, n + 1),
        _fresh=True,
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
