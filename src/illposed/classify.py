"""Posedness classification over declared operator attributes.

The decision procedure: an equation is well-posed when the range is closed
and the null-space is complemented, ill-posed otherwise; among ill-posed
equations, type I means the range contains a closed infinite-dimensional
subspace and type II means it does not.  Strictly singular operators whose
range carries such a subspace form the hybrid case, which sits inside type I.
Unknown flags make the verdict Undecidable rather than a guess.

A small rule engine cross-checks attribute records against four structural
facts, and a catalog ships the named example operators with their expected
verdicts.
"""

from __future__ import annotations

import enum
import functools
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .directions import (
    DirectionSet,
    EnumerationParams,
    RationalDirection,
    enumerate_directions,
)
from .operators import (
    OperatorAttributes,
    TruncatedOperator,
    block_product,
    compose,
    diagonal,
    embedding,
    identity,
    injective_counterexample,
    mazur,
)

__all__ = [
    "Verdict",
    "PosednessClass",
    "classify",
    "Violation",
    "check_consistency",
    "CatalogEntry",
    "catalog",
    "OPERATORS",
    "build_operator",
    "build_catalog_operator",
    "harmonic",
]


class Verdict(str, enum.Enum):
    WELL_POSED = "WellPosed"
    TYPE_I = "IllPosedTypeI"
    TYPE_II = "IllPosedTypeII"
    UNDECIDABLE = "Undecidable"


@dataclass(frozen=True)
class PosednessClass:
    """Classification verdict with the rules that produced it.

    hybrid can only be True together with a type I verdict.
    """

    verdict: Verdict
    hybrid: bool
    rationale: tuple[str, ...]


def classify(attrs: OperatorAttributes) -> PosednessClass:
    """Total decision procedure over the tri-state flag tuple."""
    rationale: list[str] = []
    rc = attrs.range_closed
    comp = attrs.nullspace_complemented
    hs = attrs.range_has_closed_infdim_subspace
    ss = attrs.strictly_singular

    if rc is True and comp is True:
        rationale.append("range closed and null-space complemented: well-posed")
        return PosednessClass(Verdict.WELL_POSED, False, tuple(rationale))

    if rc is False or comp is False:
        if rc is False:
            rationale.append("range not closed: ill-posed")
        if comp is False:
            rationale.append("null-space not complemented: ill-posed")
        if hs is True:
            rationale.append(
                "range contains a closed infinite-dimensional subspace: type I"
            )
            hybrid = ss is True
            if hybrid:
                rationale.append(
                    "strictly singular with such a subspace: hybrid case (type I)"
                )
            return PosednessClass(Verdict.TYPE_I, hybrid, tuple(rationale))
        if hs is False:
            rationale.append(
                "no closed infinite-dimensional subspace in the range: type II"
            )
            return PosednessClass(Verdict.TYPE_II, False, tuple(rationale))
        rationale.append("ill-posed, but the range-subspace flag is unknown")
        return PosednessClass(Verdict.UNDECIDABLE, False, tuple(rationale))

    rationale.append(
        "cannot settle well-posedness: range_closed or nullspace_complemented unknown"
    )
    return PosednessClass(Verdict.UNDECIDABLE, False, tuple(rationale))


@dataclass(frozen=True)
class Violation:
    rule: str
    statement: str


_RULE_STATEMENTS = {
    "R1": "a hybrid-type operator is never compact and never has a complemented null-space",
    "R2": "an injective strictly singular operator with closed range has a finite-dimensional range",
    "R3": "a weak*-to-weak continuous operator with infinite-dimensional range cannot be ill-posed of type I",
    "R4": "a finite-dimensional range forces a strictly singular, compact operator with closed range",
}


def check_consistency(attrs: OperatorAttributes) -> list[Violation]:
    """Fire the structural cross-check rules against one attribute record.

    Rules only fire on definite contradictions; unknown flags keep them
    silent.  A finite-dimensional range is recognized as a closed range
    without a closed infinite-dimensional subspace.
    """
    out: list[Violation] = []
    rc = attrs.range_closed
    comp = attrs.nullspace_complemented
    hs = attrs.range_has_closed_infdim_subspace
    ss = attrs.strictly_singular

    hybrid = ss is True and hs is True
    if hybrid and (attrs.compact is True or comp is True):
        out.append(Violation("R1", _RULE_STATEMENTS["R1"]))

    if attrs.injective is True and ss is True and rc is True and hs is True:
        out.append(Violation("R2", _RULE_STATEMENTS["R2"]))

    infinite_dim_range = hs is True or rc is False
    if attrs.weakstar_to_weak_continuous is True and infinite_dim_range:
        if classify(attrs).verdict is Verdict.TYPE_I:
            out.append(Violation("R3", _RULE_STATEMENTS["R3"]))

    finite_dim_range = rc is True and hs is False
    if finite_dim_range and (ss is False or attrs.compact is False):
        out.append(Violation("R4", _RULE_STATEMENTS["R4"]))

    return out


@dataclass(frozen=True)
class CatalogEntry:
    label: str
    note: str
    attributes: OperatorAttributes
    expected_verdict: Verdict
    expected_hybrid: bool


def catalog() -> list[CatalogEntry]:
    """The named example operators with declared attributes and verdicts.

    Attributes of composed entries coincide with what the operator
    combinators propagate; a test pins that down.
    """
    return [
        CatalogEntry(
            "B",
            "surjection of l1 onto l2 along a dense unit-sphere direction sequence",
            OperatorAttributes(
                range_closed=True,
                range_has_closed_infdim_subspace=True,
                nullspace_complemented=False,
                strictly_singular=True,
                compact=False,
                injective=False,
                surjective=True,
                weakstar_to_weak_continuous=False,
            ),
            Verdict.TYPE_I,
            True,
        ),
        CatalogEntry(
            "E2p",
            "embedding of l2 into l4",
            OperatorAttributes(
                range_closed=False,
                range_has_closed_infdim_subspace=False,
                nullspace_complemented=True,
                strictly_singular=True,
                compact=False,
                injective=True,
                surjective=False,
                weakstar_to_weak_continuous=True,
            ),
            Verdict.TYPE_II,
            False,
        ),
        CatalogEntry(
            "diag",
            "compact injective diagonal with vanishing weights",
            OperatorAttributes(
                range_closed=False,
                range_has_closed_infdim_subspace=False,
                nullspace_complemented=True,
                strictly_singular=True,
                compact=True,
                injective=True,
                surjective=False,
                weakstar_to_weak_continuous=True,
            ),
            Verdict.TYPE_II,
            False,
        ),
        CatalogEntry(
            "EoB",
            "embedding composed with the dense-direction surjection",
            OperatorAttributes(
                range_closed=False,
                range_has_closed_infdim_subspace=False,
                nullspace_complemented=False,
                strictly_singular=True,
                compact=False,
                injective=False,
                surjective=False,
                weakstar_to_weak_continuous=False,
            ),
            Verdict.TYPE_II,
            False,
        ),
        CatalogEntry(
            "CoB",
            "compact diagonal composed with the dense-direction surjection",
            OperatorAttributes(
                range_closed=False,
                range_has_closed_infdim_subspace=False,
                nullspace_complemented=False,
                strictly_singular=True,
                compact=True,
                injective=False,
                surjective=False,
                weakstar_to_weak_continuous=False,
            ),
            Verdict.TYPE_II,
            False,
        ),
        CatalogEntry(
            "BxI",
            "dense-direction surjection paired with the identity on the product space",
            OperatorAttributes(
                range_closed=True,
                range_has_closed_infdim_subspace=True,
                nullspace_complemented=False,
                strictly_singular=False,
                compact=False,
                injective=False,
                surjective=True,
                weakstar_to_weak_continuous=False,
            ),
            Verdict.TYPE_I,
            False,
        ),
        CatalogEntry(
            "D1",
            "compact diagonal paired with the identity",
            OperatorAttributes(
                range_closed=False,
                range_has_closed_infdim_subspace=True,
                nullspace_complemented=True,
                strictly_singular=False,
                compact=False,
                injective=True,
                surjective=False,
                weakstar_to_weak_continuous=None,
            ),
            Verdict.TYPE_I,
            False,
        ),
        CatalogEntry(
            "D2",
            "identity paired with the compact diagonal",
            OperatorAttributes(
                range_closed=False,
                range_has_closed_infdim_subspace=True,
                nullspace_complemented=True,
                strictly_singular=False,
                compact=False,
                injective=True,
                surjective=False,
                weakstar_to_weak_continuous=None,
            ),
            Verdict.TYPE_I,
            False,
        ),
        CatalogEntry(
            "D2oD1",
            "composition of the two type I products, equal to the diagonal pair",
            OperatorAttributes(
                range_closed=False,
                range_has_closed_infdim_subspace=False,
                nullspace_complemented=True,
                strictly_singular=True,
                compact=True,
                injective=True,
                surjective=False,
                weakstar_to_weak_continuous=None,
            ),
            Verdict.TYPE_II,
            False,
        ),
        CatalogEntry(
            "inj",
            "summing row plus decaying diagonal: injective with unbounded inverse",
            OperatorAttributes(
                range_closed=False,
                range_has_closed_infdim_subspace=False,
                nullspace_complemented=True,
                strictly_singular=True,
                compact=True,
                injective=True,
                surjective=False,
                weakstar_to_weak_continuous=False,
            ),
            Verdict.TYPE_II,
            False,
        ),
    ]


def harmonic(k: int) -> float:
    """Weight 1/k of the compact diagonal ``diag``."""
    return 1.0 / k


Directions = Callable[[], Sequence[RationalDirection]]
_diag = functools.partial(diagonal, harmonic)
_embed = functools.partial(embedding, 2.0, 4.0)


def _mazur(n: int, directions: Directions) -> TruncatedOperator:
    dirs = DirectionSet.of(directions())
    # rows follow the prefix's support; mazur() rejects n outside the enumeration
    return mazur(dirs, n, int(dirs.support[:n].max(initial=1)))


def _after_mazur(
    outer: Callable[[int], TruncatedOperator], n: int, directions: Directions
) -> TruncatedOperator:
    inner = _mazur(n, directions)
    return compose(outer(inner.n_rows), inner)


def _mazur_x_identity(n: int, directions: Directions) -> TruncatedOperator:
    inner = _mazur(n, directions)
    return block_product(inner, identity(inner.n_rows))


# name -> builder(size, directions, domain exponent of a standalone diag)
OPERATORS: dict[str, Callable[[int, Directions, float], TruncatedOperator]] = {
    "B": lambda n, dirs, p: _mazur(n, dirs),
    "E2p": lambda n, dirs, p: _embed(n),
    "diag": lambda n, dirs, p: _diag(n, domain_exponent=p),
    "EoB": lambda n, dirs, p: _after_mazur(_embed, n, dirs),
    "CoB": lambda n, dirs, p: _after_mazur(_diag, n, dirs),
    "BxI": lambda n, dirs, p: _mazur_x_identity(n, dirs),
    "D1": lambda n, dirs, p: block_product(_diag(n), identity(n)),
    "D2": lambda n, dirs, p: block_product(identity(n), _diag(n)),
    "D2oD1": lambda n, dirs, p: block_product(_diag(n), _diag(n)),
    "inj": lambda n, dirs, p: injective_counterexample(n),
    "identity": lambda n, dirs, p: identity(n),
    "embed": lambda n, dirs, p: _embed(n),
}


def build_operator(
    name: str, size: int, directions: Directions, domain_exponent: float = 2.0
) -> TruncatedOperator:
    """Build the truncation registered under ``name`` in ``OPERATORS``.

    ``directions`` returns the enumeration; only the names built on the
    direction operator (B, EoB, CoB, BxI) call it.  Those take the first
    ``size`` directions, with rows following their support, and size the
    outer or paired factor to those rows.  Every other name is built at
    dimension ``size`` (per block for D1, D2, D2oD1).  ``domain_exponent``
    is the domain of a standalone ``diag``; other names keep their own.
    """
    builder = OPERATORS.get(name)
    if builder is None:
        raise ValueError(f"unknown operator {name!r}; known: {', '.join(OPERATORS)}")
    return builder(size, directions, domain_exponent)


def build_catalog_operator(label: str, depth: int = 200) -> TruncatedOperator:
    """Construct the truncation behind a catalog label via ``build_operator``.

    Dense-direction truncations take the first ``depth`` directions of the
    default enumeration, which is computed only for them.  ``inj`` needs two
    rows, so it is built at ``max(depth, 2)``.
    """
    size = max(depth, 2) if label == "inj" else depth
    return build_operator(label, size, lambda: enumerate_directions(EnumerationParams()))
