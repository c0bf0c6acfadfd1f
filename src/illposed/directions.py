"""Deterministic enumeration of rational directions on the unit sphere of l^2.

A direction is a primitive integer vector (gcd of the absolute entries is 1,
sign pattern preserved) together with its normalized floating-point
realization.  The enumeration walks shells ordered by support bound, then by
entry bound, then descending lexicographically, so a run with larger bounds
extends a run with smaller ones and antipodal vectors always land in the same
shell.  Indices are 1-based and stable across runs.

An enumeration is stored by columns in a ``DirectionSet``: an int64 canon
matrix, a support vector, a read-only realized matrix in Fortran order (the
Mazur matrix of any prefix whose rows fit is a view of its transpose) and a
1-based antipode array.  It comes from one grid [-M, M]^S on the axis M .. -M,
put into shells by one stable sort on support and largest magnitude.
Negation maps a shell onto itself and reverses descending lexicographic
order, so the antipode of the i-th of a shell's N vectors is its (N-1-i)-th,
with no search.  Items are bare row handles that read their row on demand
and compare by identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, repeat
from numbers import Integral
from operator import itemgetter

import numpy as np

__all__ = [
    "DirectionSet",
    "EnumerationParams",
    "enumerate_directions",
    "coverage",
    "directions_to_csv",
    "directions_to_json",
]


class _Row(tuple):
    """Row ``row`` of an enumeration as ``(support, row, source)``.

    ``source = (canon matrix, realized matrix)`` is shared by every row of a
    set, and ``canon`` and ``realized`` are read from it on demand.  Rows
    compare and hash by identity, so no comparison touches the shared arrays.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    support = property(itemgetter(0), doc="Largest 1-based coordinate with a nonzero entry.")
    index = property(lambda row: row[1] + 1, doc="1-based index in the enumeration.")

    @property
    def canon(self) -> tuple[int, ...]:
        support, row, source = self
        return tuple(source[0][row, :support].tolist())

    @property
    def realized(self) -> np.ndarray:
        """A read-only view of the row of the shared realized matrix."""
        support, row, source = self
        return source[1][row, :support]

    def realized_padded(self, dim: int) -> np.ndarray:
        out = np.zeros(dim)
        out[: self.support] = self.realized
        return out


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    # the owner of the data could switch the flag back; a view of it cannot
    return array[...] if array.base is None else array


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class DirectionSet:
    """An immutable sequence of directions stored by columns.

    Row i of each array describes item i (direction index ``i + 1`` for an
    enumeration): ``canon`` is the zero-padded int64 canon matrix,
    ``support`` the support vector, ``realized`` the zero-padded unit
    realization (Fortran order from an enumeration), and ``antipodes`` the
    1-based position of the opposite direction within the set, 0 when it is
    absent.  All four are read-only.  The only slices are prefixes
    ``dirs[:n]``, which share the arrays; any other slice raises ValueError.
    ``enumerate_directions`` builds one.

    Items are row handles on the arrays (``support``, ``index``, ``canon``,
    ``realized``, ``realized_padded``), built on demand and compared and
    hashed by identity, so two handles of one row may differ.  Iteration
    appends the handles not yet built to ``_table``, in order (``_table[i]``
    is item i), and a prefix slice shares that table with its parent, so
    iterating any number of prefixes builds each handle once.  An integer
    index past the table builds the one handle without storing it.  A handle
    holds the arrays, never the set, so reference counting alone frees both.
    """

    canon: np.ndarray
    support: np.ndarray
    realized: np.ndarray
    antipodes: np.ndarray
    _table: list[_Row] = field(default_factory=list)

    def __post_init__(self) -> None:
        for name in ("canon", "support", "realized", "antipodes"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    def __len__(self) -> int:
        return len(self.support)

    def _items(self, start: int, stop: int):
        # the handles of rows start .. stop - 1, lazily
        source = self.canon, self.realized
        return map(_Row, zip(self.support[start:stop].tolist(), range(start, stop), repeat(source)))

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
            return next(self._items(row, row + 1))
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
            self._table,
        )


@dataclass(frozen=True)
class EnumerationParams:
    """Bounds defining a finite enumeration prefix: support s, entries in [-m, m]."""

    max_support: int = 3
    max_entry: int = 8

    def __post_init__(self) -> None:
        for name in ("max_support", "max_entry"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, not {value!r}")
            object.__setattr__(self, name, int(value))  # numpy integers wrap in grid sizes


def enumerate_directions(params: EnumerationParams) -> DirectionSet:
    """Enumerate every primitive vector within the bounds, each exactly once.

    The order is fixed: shells by increasing support bound, then increasing
    entry bound, then descending lexicographic within the shell.  The result
    is a pure function of ``params``.  Sort keys and norms are computed once
    per magnitude vector, in the smallest integer dtypes that hold them.
    """
    width, entry = params.max_support, params.max_entry
    axis = np.arange(entry, -entry - 1, -1, dtype=np.min_scalar_type(-entry - 1))
    # allocate first, one intp per grid point (its argsort): bounds too large to
    # allocate fail before the grid is built
    points = len(axis) ** width
    grid_size = f"max_support={width}, max_entry={entry}: a grid of {points} points"
    if points > np.iinfo(np.intp).max // np.dtype(np.intp).itemsize:
        raise MemoryError(f"{grid_size} is too large to index")
    try:
        np.empty(points, dtype=np.intp)
    except MemoryError as exc:
        raise MemoryError(f"{grid_size} does not fit in memory ({exc})") from None
    mags = np.arange(entry + 1, dtype=np.min_scalar_type((width + 1) * (entry + 1) - 1))
    squares = mags.astype(np.min_scalar_type(width * entry**2)) ** 2
    # key and sum of squares over [0, entry]^width, grown one coordinate (the last axis) at a time
    top = gcd = last = sums = np.zeros((), np.uint8)  # each takes its dtype from mags or squares
    for j in range(width):
        top = np.maximum(top[..., None], mags)
        gcd = np.gcd(gcd[..., None], mags)
        last = np.maximum(last[..., None], np.minimum(mags, 1) * ((j + 1) * (entry + 1)))
        sums = sums[..., None] + squares
    key = (last + top) * (gcd == 1)  # support * (entry + 1) + top, 0 if dropped
    # norms by the scalar pow once per distinct exact sum (np.sqrt differs in the last bit
    # on 2,482 sums to 3e6); a table indexed by the sum would outgrow a support-1 grid
    distinct, which = np.unique(sums, return_inverse=True)
    roots = np.array([float(s**0.5) for s in distinct.astype(float)])
    which = which.reshape(sums.shape).astype(np.min_scalar_type(len(distinct) - 1))
    # both depend on the magnitudes alone: spread them over the grid's axis M .. -M
    for j in reversed(range(width)):
        key, which = key.take(np.abs(axis), j), which.take(np.abs(axis), j)
    counts = np.bincount(key.ravel(), minlength=(width + 1) * (entry + 1))
    # C order over points with trailing zeros is descending lexicographic over
    # the leading entries; the stable sort keeps it, dropped points first
    picked = np.argsort(key, axis=None, kind="stable")[counts[0]:]
    norms = roots[which.take(picked)]
    grid = np.empty((len(axis),) * width + (width,), axis.dtype)
    for j in range(width):
        grid[..., j] = axis.reshape((-1,) + (1,) * (width - 1 - j))
    rows = grid.reshape(-1, width).take(picked, 0)
    del key, grid, picked, which  # before the arrays below, which would pin them in the heap
    columns = np.divide(rows.T, norms, order="C")  # realized by columns, as mazur lays it out
    columns.flags.writeable = False
    canon = rows.astype(np.int64)
    del rows, norms
    shells = counts.reshape(width + 1, entry + 1)[1:, 1:].ravel()
    # a shell mirrors onto itself: of the rows [a, b), row i faces row a + b - 1 - i
    antipodes = np.repeat(2 * np.cumsum(shells) - shells, shells)
    antipodes -= np.arange(len(canon))
    support = np.repeat(np.arange(1, width + 1), shells.reshape(width, entry).sum(1))
    return DirectionSet(canon, support, columns.T, antipodes)


def _correlations(directions: DirectionSet, y: np.ndarray) -> np.ndarray:
    """<y/||y||_2, zeta> for every direction of a nonempty set on the unit sphere of l^2."""
    if not directions:
        raise ValueError("directions must be nonempty")
    y = np.asarray(y, dtype=float)
    norm = float(np.linalg.norm(y))
    if norm == 0.0:
        raise ValueError("coverage target must be nonzero")
    yhat = np.zeros(directions.realized.shape[1])  # y past the width meets only zeros
    yhat[: len(y)] = y[: len(yhat)] / norm
    return directions.realized @ yhat


def coverage(directions: DirectionSet, y: np.ndarray) -> tuple[int, float]:
    """Best Euclidean correlation of y's direction with the enumerated set.

    Returns ``(index, value)`` where index is the 1-based direction index
    attaining the maximum of <y/||y||_2, zeta> and ties break toward the
    smallest index.
    """
    corr = _correlations(directions, y)
    best = int(np.argmax(corr))  # argmax returns the first maximizer
    return best + 1, float(corr[best])


def _row_texts(directions: DirectionSet, template, sep: str) -> str:
    # ``template(width) % (index, *canon)`` for every row, joined by ``sep``,
    # filled one block of equal support at a time from the columns
    starts = np.flatnonzero(np.diff(directions.support, prepend=0)).tolist()
    blocks = []
    for lo, hi in zip(starts, [*starts[1:], len(directions)]):
        width = int(directions.support[lo])
        cells = np.column_stack([np.arange(lo + 1, hi + 1), directions.canon[lo:hi, :width]])
        blocks.append(sep.join([template(width)] * (hi - lo)) % tuple(cells.ravel().tolist()))
    return sep.join(blocks)


def directions_to_csv(directions: DirectionSet) -> str:
    """The ``index,canon,q`` table, canon entries joined by ``;``; q always reads 2."""
    row = _row_texts(directions, lambda width: "%d," + ";".join(["%d"] * width) + ",2\n", "")
    return "index,canon,q\n" + row


def directions_to_json(directions: DirectionSet) -> str:
    """The records ``{"index", "canon", "q": 2.0}`` as ``json.dumps(..., indent=2)`` writes them."""
    head, tail = '  {\n    "index": %d,\n    "canon": [\n', '\n    ],\n    "q": 2.0\n  }'
    records = _row_texts(directions, lambda w: head + ",\n".join(["      %d"] * w) + tail, ",\n")
    return f"[\n{records}\n]" if directions else "[]"
