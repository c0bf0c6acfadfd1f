"""Deterministic enumeration of rational directions on the unit sphere of l^q.

A direction is a primitive integer vector (gcd of the absolute entries is 1,
sign pattern preserved) together with its normalized floating-point
realization.  The enumeration walks shells ordered by support bound, then by
entry bound, then descending lexicographically, so a run with larger bounds
extends a run with smaller ones and antipodal vectors always land in the same
shell.  Indices are 1-based and stable across runs.

An enumeration is stored by columns in a ``DirectionSet``: an int64 canon
matrix, a support vector, a read-only realized matrix and a 1-based antipode
array.  Each support is one grid over the entry axis M .. -M, split into
shells by a stable sort on the largest magnitude.  Negation maps a shell onto
itself and reverses descending lexicographic order, so the antipode of the
i-th of a shell's N vectors is its (N-1-i)-th, with no search.  The set
holds no ``RationalDirection`` items until they are used: indexing builds
one from its row, iteration builds them in order, and each reads its
``realized`` as a row view of the shared matrix.
"""

from __future__ import annotations

import json
import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice, repeat

import numpy as np

__all__ = [
    "RationalDirection",
    "DirectionSet",
    "EnumerationParams",
    "enumerate_directions",
    "coverage",
    "directions_to_json",
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
    Indexing and iteration behave as on a list of ``RationalDirection``.
    The only slices are prefixes ``dirs[:n]``, which share the arrays; any
    other slice raises ValueError.  ``enumerate_directions`` builds one.

    Items are built from the rows on demand.  Iteration appends the items
    not yet built to ``_table``, in order (``_table[i]`` is item i), and a
    prefix slice shares that table with its parent, so iterating any number
    of prefixes builds each item once.  An integer index past the table
    builds the one item without storing it.
    """

    canon: np.ndarray
    support: np.ndarray
    realized: np.ndarray
    antipodes: np.ndarray
    q: float
    _table: list[RationalDirection] = field(default_factory=list)

    def __post_init__(self) -> None:
        for name in ("canon", "support", "realized", "antipodes"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    def __len__(self) -> int:
        return len(self.support)

    def _items(self, start: int, stop: int) -> list[RationalDirection]:
        # The items of rows start .. stop - 1 (start < stop), one bulk pass per
        # run of equal support: allocate the run's items, then set each slot
        # across the run (deque(..., 0) only drains the map).  The enumeration
        # validated the fields block-wise, so __post_init__ is skipped.
        set_canon, set_index, set_q, set_realized = _SETTERS
        cuts = (np.flatnonzero(np.diff(self.support[start:stop])) + start + 1).tolist()
        built: list[RationalDirection] = []
        for lo, hi in zip([start, *cuts], [*cuts, stop]):
            width = int(self.support[lo])
            items = list(map(_new_direction, repeat(RationalDirection, hi - lo)))
            canons = zip(*[column.tolist() for column in self.canon[lo:hi, :width].T])
            deque(map(set_canon, items, canons), 0)
            deque(map(set_index, items, range(lo + 1, hi + 1)), 0)
            deque(map(set_q, items, repeat(self.q)), 0)
            deque(map(set_realized, items, self.realized[lo:hi, :width]), 0)
            built += items
        return built

    def __iter__(self):
        n = len(self)
        if len(self._table) < n:
            self._table.extend(self._items(len(self._table), n))
        return islice(self._table, n)

    def __getitem__(self, key):
        n = len(self)
        if not isinstance(key, slice):
            row = range(n)[key]
            if row < len(self._table):
                return self._table[row]
            return self._items(row, row + 1)[0]
        start, stop, step = key.indices(n)
        if start != 0 or step != 1:
            raise ValueError(f"only prefix slices dirs[:n] are supported, not {key}")
        if stop == n:
            return self
        antipodes = self.antipodes[:stop]
        return DirectionSet(
            self.canon[:stop],
            self.support[:stop],
            self.realized[:stop],
            np.where(antipodes <= stop, antipodes, 0),
            self.q,
            self._table,
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


def _primitive_rows(support: int, axis: np.ndarray, powers: np.ndarray, q: float):
    # The primitive vectors of exact support `support` on the descending axis,
    # shell by shell, their l^q norms and the shell sizes.
    entry = len(powers) - 1
    lines = [axis.reshape((-1,) + (1,) * (support - 1 - j)) for j in range(support)]
    top = gcd = np.abs(lines[0])
    tuple_index = top.astype(np.min_scalar_type((entry + 1) ** support))  # row in `table`
    for mag in map(np.abs, lines[1:]):
        top = np.maximum(top, mag)
        gcd = np.gcd(gcd, mag)
        tuple_index = tuple_index * (entry + 1) + mag
    shell = (top * ((gcd == 1) & (lines[-1] != 0))).reshape(-1)
    counts = np.bincount(shell, minlength=entry + 1)
    # C order is descending lexicographic; the stable sort keeps it, dropped points first
    picked = np.argsort(shell, kind="stable")[counts[0]:]
    rows = np.stack(np.broadcast_arrays(*lines), -1).reshape(-1, support).take(picked, 0)
    # The constructor's arithmetic, once per magnitude tuple: the same powers,
    # the same row sum (C-contiguous: from 8 terms numpy sums pairwise), and the
    # scalar pow once per distinct sum (the vectorized pow may differ in the last bit).
    table = np.indices((entry + 1,) * support).reshape(support, -1).T
    sums = np.ascontiguousarray(powers[table]).sum(axis=1)
    distinct, which = np.unique(sums, return_inverse=True)
    norms = np.array([float(s ** (1.0 / q)) for s in distinct])[which]
    return rows, norms[tuple_index.reshape(-1)[picked]], counts[1:]


def enumerate_directions(params: EnumerationParams) -> DirectionSet:
    """Enumerate every primitive vector within the bounds, each exactly once.

    The order is fixed: shells by increasing support bound, then increasing
    entry bound, then descending lexicographic within the shell.  The result
    is a pure function of ``params``.
    """
    entry, widths = params.max_entry, range(1, params.max_support + 1)
    axis = np.arange(entry, -entry - 1, -1, dtype=np.int8 if entry < 128 else np.int64)
    powers = np.arange(entry + 1, dtype=float) ** params.q
    blocks = [_primitive_rows(width, axis, powers, params.q) for width in widths]
    sizes = [len(rows) for rows, _, _ in blocks]
    counts = np.concatenate([shells for _, _, shells in blocks])
    canon = np.zeros((sum(sizes), params.max_support), dtype=np.int64)
    realized = np.zeros(canon.shape)
    for (rows, norms, _), start in zip(blocks, np.cumsum([0, *sizes])):
        block = np.s_[start : start + len(rows), : rows.shape[1]]
        canon[block] = rows
        np.divide(rows, norms[:, None], out=realized[block])
    del blocks, rows, norms  # before the arrays below, which would pin them in the heap
    ends = np.cumsum(counts)
    # a shell mirrors onto itself: of the rows [a, b), row i faces row a + b - 1 - i
    antipodes = np.repeat(2 * ends - counts, counts) - np.arange(len(canon))
    support = np.repeat(widths, sizes)
    return DirectionSet(canon, support, realized, antipodes, params.q)


def realized_matrix(directions: DirectionSet, n_rows: int) -> np.ndarray:
    """Stack realized directions as columns of an ``n_rows x len(directions)`` array."""
    needed = int(directions.support.max(initial=0))
    if n_rows < needed:
        raise ValueError(
            f"support overflow: direction needs {needed} rows, truncation has {n_rows}"
        )
    width = min(n_rows, directions.realized.shape[1])
    mat = np.zeros((n_rows, len(directions)))
    mat[:width] = directions.realized[:, :width].T
    return mat


def coverage(directions: DirectionSet, y: np.ndarray) -> tuple[int, float]:
    """Best Euclidean correlation of y's direction with the enumerated set.

    Returns ``(index, value)`` where index is the 1-based direction index
    attaining the maximum of <y/||y||_2, zeta> and ties break toward the
    smallest index.  Only directions on the unit sphere of l^2 are supported.
    """
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


def directions_to_json(directions: DirectionSet) -> str:
    records = [{"index": d.index, "canon": list(d.canon), "q": d.q} for d in directions]
    return json.dumps(records, indent=2)

