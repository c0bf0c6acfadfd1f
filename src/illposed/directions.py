"""Deterministic enumeration of rational directions on the unit sphere of l^q.

A direction is a primitive integer vector (gcd of the absolute entries is 1,
sign pattern preserved) together with its normalized floating-point
realization.  The enumeration walks shells ordered by support bound, then by
entry bound, then descending lexicographically, so a run with larger bounds
extends a run with smaller ones and antipodal vectors always land in the same
shell.  Indices are 1-based and stable across runs.

An enumeration is stored by columns in a ``DirectionSet``: an int64 canon
matrix, a support vector, a read-only realized matrix and a 1-based antipode
array, each shell computed as one numpy block.  Negation maps a shell onto
itself and reverses descending lexicographic order, so the antipode of the
i-th of a shell's N vectors is its (N-1-i)-th, with no search.  The
``RationalDirection`` items of a set read their ``realized`` as row views of
the shared matrix.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

__all__ = [
    "RationalDirection",
    "DirectionSet",
    "EnumerationParams",
    "enumerate_directions",
    "coverage",
    "directions_to_json",
    "directions_from_json",
]


@dataclass(frozen=True, eq=False, slots=True)
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


_new_direction = object.__new__
_SETTERS = tuple(
    getattr(RationalDirection, name).__set__
    for name in ("canon", "index", "q", "realized")
)


def _trusted_direction(
    canon: tuple[int, ...], index: int, q: float, realized: np.ndarray
) -> RationalDirection:
    # fields already validated block-wise by the enumeration; skips __post_init__
    d = _new_direction(RationalDirection)
    set_canon, set_index, set_q, set_realized = _SETTERS
    set_canon(d, canon)
    set_index(d, index)
    set_q(d, q)
    set_realized(d, realized)
    return d


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    # the owner of the data could switch the flag back; a view of it cannot
    return array[...] if array.base is None else array


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class DirectionSet(Sequence):
    """An immutable sequence of directions stored by columns.

    Row i of each array describes item i (direction index ``i + 1`` for an
    enumeration): ``canon`` is the zero-padded int64 canon matrix,
    ``support`` the support vector, ``realized`` the zero-padded unit
    realization, and ``antipodes`` the 1-based position of the opposite
    direction within the set, 0 when it is absent.  All four are read-only.
    Indexing, slicing and iteration behave as on a list of
    ``RationalDirection``; a prefix slice shares the arrays.  Build one with
    ``enumerate_directions`` or ``DirectionSet.of``.
    """

    _items: list[RationalDirection]
    canon: np.ndarray
    support: np.ndarray
    realized: np.ndarray
    antipodes: np.ndarray
    q: float

    def __post_init__(self) -> None:
        for name in ("canon", "support", "realized", "antipodes"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    @classmethod
    def of(cls, directions: Sequence[RationalDirection]) -> DirectionSet:
        """The set holding ``directions`` in order; a DirectionSet is returned as is."""
        if isinstance(directions, DirectionSet):
            return directions
        items = list(directions)
        width = max((d.support for d in items), default=0)
        canon = np.zeros((len(items), width), dtype=np.int64)
        realized = np.zeros((len(items), width))
        position: dict[tuple[int, ...], int] = {}
        for i, d in enumerate(items):
            canon[i, : d.support] = d.canon
            realized[i, : d.support] = d.realized
            position.setdefault(d.canon, i + 1)
        antipodes = np.array(
            [position.get(d.antipode_canon(), 0) for d in items], dtype=np.int64
        )
        support = np.array([d.support for d in items], dtype=np.int64)
        q = items[0].q if items else 2.0
        return cls(items, canon, support, realized, antipodes, q)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def __getitem__(self, key):
        if not isinstance(key, slice):
            return self._items[key]
        start, stop, step = key.indices(len(self))
        if start != 0 or step != 1:
            return DirectionSet.of(self._items[key])
        if stop == len(self):
            return self
        antipodes = self.antipodes[:stop]
        return DirectionSet(
            self._items[:stop],
            self.canon[:stop],
            self.support[:stop],
            self.realized[:stop],
            np.where(antipodes <= stop, antipodes, 0),
            self.q,
        )


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


def _shell(support: int, entry: int) -> np.ndarray:
    # Vectors of exact support `support` and exact max entry `entry`, primitive,
    # as rows in descending lexicographic order (meshgrid "ij" over a
    # descending axis varies the last coordinate fastest).  int8 keeps the
    # temporaries small when it holds +-entry.
    axis = np.arange(entry, -entry - 1, -1, dtype=np.int8 if entry < 128 else np.int64)
    grid = np.meshgrid(*[axis] * support, indexing="ij", copy=False)
    vecs = np.stack(grid, axis=-1).reshape(-1, support)
    mags = np.abs(vecs)
    keep = vecs[:, -1] != 0
    keep &= mags.max(axis=1) == entry
    keep &= np.gcd.reduce(mags, axis=1) == 1
    return vecs[keep]


def _unit_rows(vecs: np.ndarray, powers: np.ndarray, q: float, out: np.ndarray) -> None:
    # Writes canon / ||canon||_q row by row into `out` with the constructor's
    # arithmetic: the same power of each |entry| (powers[m] = m ** q), the
    # same row sum, and the scalar pow applied once per distinct sum (the
    # vectorized pow may differ in the last bit).
    sums = powers[np.abs(vecs)].sum(axis=1)
    distinct, which = np.unique(sums, return_inverse=True)
    norms = np.array([float(s ** (1.0 / q)) for s in distinct])
    np.divide(vecs, norms[which][:, None], out=out)


def enumerate_directions(params: EnumerationParams) -> DirectionSet:
    """Enumerate every primitive vector within the bounds, each exactly once.

    The order is fixed: shells by increasing support bound, then increasing
    entry bound, then descending lexicographic within the shell.  The result
    is a pure function of ``params``.
    """
    shells = [
        _shell(support, entry)
        for support in range(1, params.max_support + 1)
        for entry in range(1, params.max_entry + 1)
    ]
    total = sum(len(block) for block in shells)
    canon = np.zeros((total, params.max_support), dtype=np.int64)
    support = np.empty(total, dtype=np.int64)
    realized = np.zeros((total, params.max_support))
    antipodes = np.empty(total, dtype=np.int64)
    powers = np.arange(params.max_entry + 1, dtype=float) ** params.q
    start = 0
    for block in shells:
        end = start + len(block)
        width = block.shape[1]
        canon[start:end, :width] = block
        support[start:end] = width
        _unit_rows(block, powers, params.q, realized[start:end, :width])
        antipodes[start:end] = np.arange(end, start, -1)  # the shell's mirror
        start = end
    realized.flags.writeable = False
    items: list[RationalDirection] = []
    start = 0
    for block in shells:
        end = start + len(block)
        width = block.shape[1]
        canons = zip(*[column.tolist() for column in block.T])
        rows = list(realized[start:end, :width])
        indices = range(start + 1, end + 1)
        items.extend(map(_trusted_direction, canons, indices, repeat(params.q), rows))
        start = end
    return DirectionSet(items, canon, support, realized, antipodes, params.q)


def realized_matrix(directions: Sequence[RationalDirection], n_rows: int) -> np.ndarray:
    """Stack realized directions as columns of an ``n_rows x len(directions)`` array."""
    directions = DirectionSet.of(directions)
    needed = int(directions.support.max(initial=0))
    if n_rows < needed:
        raise ValueError(
            f"support overflow: direction needs {needed} rows, truncation has {n_rows}"
        )
    width = min(n_rows, directions.realized.shape[1])
    mat = np.zeros((n_rows, len(directions)))
    mat[:width] = directions.realized[:, :width].T
    return mat


def coverage(directions: Sequence[RationalDirection], y: np.ndarray) -> tuple[int, float]:
    """Best Euclidean correlation of y's direction with the enumerated set.

    Returns ``(index, value)`` where index is the 1-based direction index
    attaining the maximum of <y/||y||_2, zeta> and ties break toward the
    smallest index.  Only directions on the unit sphere of l^2 are supported.
    """
    directions = DirectionSet.of(directions)
    if not directions:
        raise ValueError("directions must be nonempty")
    if directions.q != 2.0:
        raise ValueError("coverage is defined for q = 2 only")
    y = np.asarray(y, dtype=float)
    norm = float(np.linalg.norm(y))
    if norm == 0.0:
        raise ValueError("coverage target must be nonzero")
    dim = max(len(y), int(directions.support.max()))
    yhat = np.zeros(dim)
    yhat[: len(y)] = y / norm
    mat = realized_matrix(directions, dim)
    corr = mat.T @ yhat
    best = int(np.argmax(corr))  # argmax returns the first maximizer
    return best + 1, float(corr[best])


def directions_to_json(directions: Sequence[RationalDirection]) -> str:
    records = [{"index": d.index, "canon": list(d.canon), "q": d.q} for d in directions]
    return json.dumps(records, indent=2)


def directions_from_json(text: str) -> list[RationalDirection]:
    records = json.loads(text)
    return [
        RationalDirection(tuple(int(c) for c in r["canon"]), int(r["index"]), float(r["q"]))
        for r in records
    ]
