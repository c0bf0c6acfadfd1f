"""Deterministic enumeration of rational directions on the unit sphere of l^q.

A direction is a primitive integer vector (gcd of the absolute entries is 1,
sign pattern preserved) together with its normalized floating-point
realization.  The enumeration walks shells ordered by support bound, then by
entry bound, then descending lexicographically, so a run with larger bounds
extends a run with smaller ones and antipodal vectors always land in the same
shell.  Indices are 1-based and stable across runs.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RationalDirection",
    "EnumerationParams",
    "enumerate_directions",
    "coverage",
    "shell_of",
    "directions_to_json",
    "directions_from_json",
]


@dataclass(frozen=True, eq=False)
class RationalDirection:
    """A canonical integer vector and its unit realization in l^q.

    ``canon`` is trailing-zero trimmed, nonzero, and primitive.  Two
    directions are equal exactly when their canon tuples are equal; the
    floating-point realization never enters comparisons.
    """

    canon: tuple[int, ...]
    index: int
    q: float = 2.0
    realized: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.canon or self.canon[-1] == 0:
            raise ValueError("canon must be nonzero with no trailing zeros")
        if any(not isinstance(c, int) for c in self.canon):
            raise ValueError("canon entries must be integers")
        if math.gcd(*[abs(c) for c in self.canon]) != 1:
            raise ValueError(f"canon {self.canon} is not primitive")
        if self.index < 1:
            raise ValueError("index must be a positive integer")
        if not 1.0 < self.q < math.inf:
            raise ValueError("q must satisfy 1 < q < inf")
        vec = np.array(self.canon, dtype=float)
        norm = float(np.sum(np.abs(vec) ** self.q) ** (1.0 / self.q))
        vec /= norm
        vec.flags.writeable = False
        object.__setattr__(self, "realized", vec)

    @property
    def support(self) -> int:
        """Largest coordinate index (1-based) carrying a nonzero entry."""
        return len(self.canon)

    def antipode_canon(self) -> tuple[int, ...]:
        return tuple(-c for c in self.canon)

    def realized_padded(self, dim: int) -> np.ndarray:
        out = np.zeros(dim)
        out[: len(self.canon)] = self.realized
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalDirection):
            return NotImplemented
        return self.canon == other.canon

    def __hash__(self) -> int:
        return hash(self.canon)


@dataclass(frozen=True)
class EnumerationParams:
    """Bounds defining a finite enumeration prefix: support s, entries in [-m, m]."""

    q: float = 2.0
    max_support: int = 3
    max_entry: int = 8

    def __post_init__(self) -> None:
        if self.max_support < 1 or self.max_entry < 1:
            raise ValueError("max_support and max_entry must be >= 1")
        if not 1.0 < self.q < math.inf:
            raise ValueError("q must satisfy 1 < q < inf")


def shell_of(canon: tuple[int, ...]) -> tuple[int, int]:
    """Shell key (support bound, entry bound) a canonical vector belongs to."""
    return len(canon), max(abs(c) for c in canon)


def _shell_vectors(support: int, entry: int) -> list[tuple[int, ...]]:
    # Vectors of exact support `support` and exact max entry `entry`, primitive,
    # in descending lexicographic order (the product below iterates that way).
    out = []
    rng = range(entry, -entry - 1, -1)
    for vec in itertools.product(rng, repeat=support):
        if vec[-1] == 0:
            continue
        if max(abs(c) for c in vec) != entry:
            continue
        if math.gcd(*[abs(c) for c in vec]) != 1:
            continue
        out.append(vec)
    return out


def enumerate_directions(params: EnumerationParams) -> list[RationalDirection]:
    """Enumerate every primitive vector within the bounds, each exactly once.

    The order is fixed: shells by increasing support bound, then increasing
    entry bound, then descending lexicographic within the shell.  The result
    is a pure function of ``params``.
    """
    directions: list[RationalDirection] = []
    index = 1
    for support in range(1, params.max_support + 1):
        for entry in range(1, params.max_entry + 1):
            for canon in _shell_vectors(support, entry):
                directions.append(RationalDirection(canon, index, params.q))
                index += 1
    return directions


def realized_matrix(directions: list[RationalDirection], n_rows: int) -> np.ndarray:
    """Stack realized directions as columns of an ``n_rows x len(directions)`` array."""
    needed = max(d.support for d in directions)
    if n_rows < needed:
        raise ValueError(
            f"support overflow: direction needs {needed} rows, truncation has {n_rows}"
        )
    mat = np.zeros((n_rows, len(directions)))
    for j, d in enumerate(directions):
        mat[: d.support, j] = d.realized
    return mat


def coverage(
    directions: list[RationalDirection], y: np.ndarray, q: float = 2.0
) -> tuple[int, float]:
    """Best Euclidean correlation of y's direction with the enumerated set.

    Returns ``(index, value)`` where index is the 1-based direction index
    attaining the maximum of <y/||y||_2, zeta> and ties break toward the
    smallest index.  Only q = 2 is supported.
    """
    if q != 2.0:
        raise ValueError("coverage is defined for q = 2 only")
    if not directions:
        raise ValueError("directions must be nonempty")
    y = np.asarray(y, dtype=float)
    norm = float(np.linalg.norm(y))
    if norm == 0.0:
        raise ValueError("coverage target must be nonzero")
    dim = max(len(y), max(d.support for d in directions))
    yhat = np.zeros(dim)
    yhat[: len(y)] = y / norm
    mat = realized_matrix(directions, dim)
    corr = mat.T @ yhat
    best = int(np.argmax(corr))  # argmax returns the first maximizer
    return best + 1, float(corr[best])


def directions_to_json(directions: list[RationalDirection]) -> str:
    records = [{"index": d.index, "canon": list(d.canon), "q": d.q} for d in directions]
    return json.dumps(records, indent=2)


def directions_from_json(text: str) -> list[RationalDirection]:
    records = json.loads(text)
    return [
        RationalDirection(tuple(int(c) for c in r["canon"]), int(r["index"]), float(r["q"]))
        for r in records
    ]
