import functools
import gc
import itertools
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from illposed.directions import (
    DirectionSet,
    EnumerationParams,
    coverage,
    directions_to_csv,
    directions_to_json,
    enumerate_directions,
)


class RationalDirection:
    """The reference direction: a validated canon vector and its unit realization.

    The realization is computed the way enumerations must reproduce bit for
    bit: ``np.sum(|v|**2) ** 0.5`` over the canon vector, as floats.
    """

    def __init__(self, canon: tuple[int, ...], index: int):
        if not canon or canon[-1] == 0:
            raise ValueError("canon must be nonzero with no trailing zeros")
        if any(not isinstance(c, int) for c in canon):
            raise ValueError("canon entries must be integers")
        if math.gcd(*[abs(c) for c in canon]) != 1:
            raise ValueError(f"canon {tuple(canon)} is not primitive")
        if index < 1:
            raise ValueError("index must be a positive integer")
        vec = np.array(canon, dtype=float)
        norm = float(np.sum(np.abs(vec) ** 2.0) ** 0.5)
        vec /= norm
        vec.flags.writeable = False
        self.canon, self.index, self.realized = tuple(canon), index, vec
        self.support = len(canon)

    def antipode_canon(self) -> tuple[int, ...]:
        return tuple(-c for c in self.canon)


def canons(directions):
    return [d.canon for d in directions]


def test_single_coordinate_enumeration():
    dirs = enumerate_directions(EnumerationParams(1, 1))
    assert canons(dirs) == [(1,), (-1,)]
    assert [d.index for d in dirs] == [1, 2]


def test_multiples_are_never_emitted():
    dirs = enumerate_directions(EnumerationParams(2, 2))
    cs = canons(dirs)
    assert (2, 2) not in cs
    assert (1, 1) in cs
    assert all(math.gcd(*[abs(c) for c in v]) == 1 for v in cs)


def test_two_coordinate_unit_shell_matches_bruteforce():
    # independent oracle: primitive nonzero vectors over {-1, 0, 1}^2, with
    # one-coordinate vectors reported in trimmed form
    expected = set()
    for v in itertools.product((-1, 0, 1), repeat=2):
        if v == (0, 0):
            continue
        trimmed = v[:1] if v[1] == 0 else v
        if math.gcd(*[abs(c) for c in trimmed]) == 1:
            expected.add(trimmed)
    dirs = enumerate_directions(EnumerationParams(2, 1))
    assert len(dirs) == 8
    assert set(canons(dirs)) == expected


def test_determinism_and_sequential_indices():
    params = EnumerationParams(3, 3)
    first = enumerate_directions(params)
    second = enumerate_directions(params)
    assert canons(first) == canons(second)
    assert [d.index for d in first] == list(range(1, len(first) + 1))


def test_no_duplicate_canons():
    dirs = enumerate_directions(EnumerationParams(3, 4))
    assert len(set(canons(dirs))) == len(dirs)


def test_antipodal_closure_within_shell():
    dirs = enumerate_directions(EnumerationParams(3, 3))
    present = set(canons(dirs))
    for d in dirs:
        anti = tuple(-c for c in d.canon)
        assert anti in present
        shell = (len(d.canon), max(map(abs, d.canon)))
        assert (len(anti), max(map(abs, anti))) == shell


def test_unit_norm_realization():
    dirs = enumerate_directions(EnumerationParams(2, 3))
    for d in dirs:
        assert abs(np.linalg.norm(d.realized) - 1.0) <= 1e-12


def test_larger_support_bound_extends_enumeration():
    small = enumerate_directions(EnumerationParams(2, 3))
    large = enumerate_directions(EnumerationParams(3, 3))
    assert canons(large)[: len(small)] == canons(small)


def test_handles_compare_and_hash_by_identity():
    params = EnumerationParams(2, 2)
    first, second = enumerate_directions(params), enumerate_directions(params)
    a, b = first[0], second[0]
    assert a.canon == b.canon
    assert a != b and not a == b  # never an array comparison, never a raise
    iterated = list(first)
    assert iterated[0] == iterated[0] and hash(iterated[0]) == hash(first[0])
    assert len({*first, *second}) == len(first) + len(second)
    assert len(set(first)) == len(first)
    assert first[:3][-1].canon == first[2].canon
    assert first[:3][-1].realized.tobytes() == first[2].realized.tobytes()


@functools.cache
def _rows_of_4_9():
    # canon row -> row number over every primitive vector of support <= 4, entries <= 9
    dirs = enumerate_directions(EnumerationParams(4, 9))
    return dirs, {row: i for i, row in enumerate(map(tuple, dirs.canon.tolist()))}


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=5),
)
def test_primitive_vectors_realize_to_unit_norm(raw, scale):
    raw = [c for c in raw]
    if not any(raw) or raw[-1] == 0:
        raw.append(1)
    g = math.gcd(*[abs(c) for c in raw])
    canon = tuple(c // g for c in raw)
    dirs, rows = _rows_of_4_9()
    pad = (0,) * (4 - len(canon))
    i = rows[canon + pad]
    assert abs(np.linalg.norm(dirs.realized[i]) - 1.0) <= 1e-12
    assert tuple(scale * 2 * c for c in canon) + pad not in rows  # no multiple is enumerated


def test_coverage_exact_members():
    dirs = enumerate_directions(EnumerationParams(1, 1))
    idx, corr = coverage(dirs, np.array([1.0]))
    assert idx == 1 and abs(corr - 1.0) <= 1e-15

    dirs = enumerate_directions(EnumerationParams(2, 1))
    idx, corr = coverage(dirs, np.array([1.0, 1.0]))
    assert dirs[idx - 1].canon == (1, 1)
    assert abs(corr - 1.0) <= 1e-15


def test_coverage_three_one_oracle():
    # oracle: evaluate the eight inner products directly; the winner is +e1
    # with 3/sqrt(10), and (1, 1)/sqrt(2) is second best with 4/sqrt(20)
    dirs = enumerate_directions(EnumerationParams(2, 1))
    y = np.array([3.0, 1.0])
    yhat = y / np.linalg.norm(y)
    dots = [float(yhat @ d.realized_padded(2)) for d in dirs]
    expected = max(dots)
    assert abs(expected - 3.0 / math.sqrt(10.0)) <= 1e-15
    runner_up = sorted(dots)[-2]
    assert abs(runner_up - 4.0 / math.sqrt(20.0)) <= 1e-15
    idx, corr = coverage(dirs, y)
    assert corr == pytest.approx(expected, abs=1e-15)
    assert dirs[idx - 1].canon == (1,)
    assert idx == dots.index(expected) + 1


def test_coverage_validation():
    dirs = enumerate_directions(EnumerationParams(1, 1))
    with pytest.raises(ValueError):
        coverage(dirs, np.zeros(3))
    with pytest.raises(ValueError, match="nonempty"):
        coverage(dirs[:0], np.array([1.0]))


@pytest.mark.parametrize(
    "bounds, message",
    [
        ({"max_support": 0}, ">= 1"),
        ({"max_support": -1, "max_entry": 5}, ">= 1"),
        ({"max_entry": 0}, ">= 1"),
        ({"max_support": 3, "max_entry": 2.5}, "max_entry must be an integer"),
        ({"max_support": 2.0, "max_entry": 3}, "max_support must be an integer"),
        ({"max_support": True, "max_entry": 3}, "max_support must be an integer"),
        ({"max_entry": np.bool_(True)}, "max_entry must be an integer"),
        ({"max_entry": "3"}, "max_entry must be an integer"),
        ({"max_support": np.int64(0)}, "max_support must be an integer >= 1"),
    ],
)
def test_enumeration_params_validation(bounds, message):
    with pytest.raises(ValueError, match=message):
        EnumerationParams(**bounds)


def test_enumeration_params_accept_numpy_integers():
    params = EnumerationParams(np.int64(2), np.uint8(3))
    assert params == EnumerationParams(2, 3)
    assert type(params.max_support) is int and type(params.max_entry) is int
    expected = enumerate_directions(EnumerationParams(2, 3))
    assert enumerate_directions(params).canon.tobytes() == expected.canon.tobytes()


# (2 * entry + 1) ** support exceeds 2^63 cells: numpy refuses the grid at
# once.  A smaller grid may pass the allocation and exhaust memory later, so
# none is tested.
@pytest.mark.parametrize("support, entry", [(40, 1), (64, 3)])
def test_enumeration_bounds_too_large_to_allocate_raise_before_any_block(support, entry):
    with pytest.raises(ValueError, match="Maximum allowed dimension exceeded"):
        enumerate_directions(EnumerationParams(support, entry))


def test_coverage_monotone_in_bounds():
    y = np.random.default_rng(7).standard_normal(3)
    bounds = [(2, 2), (2, 3), (3, 3), (3, 4), (3, 6)]
    values = []
    for s, m in bounds:
        dirs = enumerate_directions(EnumerationParams(s, m))
        values.append(coverage(dirs, y)[1])
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
    assert values[-1] > 0.9


def test_coverage_dense_for_four_dim_targets():
    dirs = enumerate_directions(EnumerationParams(4, 8))
    rng = np.random.default_rng(11)
    for _ in range(10):
        y = rng.standard_normal(4)
        _, corr = coverage(dirs, y)
        assert corr >= 0.99
    # proper prefixes, bit for bit against a fresh zero-padded copy of their
    # columns, for y shorter than, as long as and longer than the width 4; a
    # copy of 3 columns would take OpenBLAS's own path for lda = 3, which
    # groups the sums differently
    for n in (4, 9, 100, 1000, len(dirs) - 1):
        prefix = dirs[:n]
        mat = prefix.realized.T.copy()  # C order, zero past each support
        for size in (3, 4, 6):
            y = rng.standard_normal(size)
            yhat = np.zeros(4)
            yhat[: min(size, 4)] = y[:4] / np.linalg.norm(y)
            corr = mat.T @ yhat
            assert coverage(prefix, y) == (int(corr.argmax()) + 1, float(corr.max()))


def test_json_round_trip():
    params = EnumerationParams(2, 2)
    parsed = json.loads(directions_to_json(enumerate_directions(params)))
    assert parsed[0] == {"index": 1, "canon": [1], "q": 2.0}
    assert parsed == [
        {"index": d.index, "canon": list(d.canon), "q": 2.0}
        for d in _oracle_enumeration(params)
    ]


# Reference implementation for the differential tests: an itertools walk over
# each shell, one validating constructor call per direction, and a linear scan
# for the antipode.


def _oracle_shell_vectors(support, entry):
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


def _oracle_enumeration(params):
    directions = []
    index = 1
    for support in range(1, params.max_support + 1):
        for entry in range(1, params.max_entry + 1):
            for canon in _oracle_shell_vectors(support, entry):
                directions.append(RationalDirection(canon, index))
                index += 1
    return directions


def _oracle_antipodes(canon_list):
    # The linear scan's answer with no limit, for every k at once: the first
    # position (1-based) holding -canon(k), or None.
    first = {}
    for j, canon in enumerate(canon_list, start=1):
        first.setdefault(canon, j)
    return [first.get(tuple(-c for c in canon)) for canon in canon_list]


def _linear_scan(directions, k, limit=None):
    # the scan verbatim; quadratic over all k, so run on small bounds only
    target = directions[k - 1].antipode_canon()
    stop = len(directions) if limit is None else min(limit, len(directions))
    for j in range(stop):
        if directions[j].canon == target:
            return j + 1
    return None


def _within(position, n, limit):
    # what the scan over the first min(limit, n) directions returns
    stop = n if limit is None else min(limit, n)
    return position if position is not None and position <= stop else None


DIFF_BOUNDS = [(1, 1), (2, 3), (3, 4), (4, 5)]


def _assert_matches_oracle(got, expected):
    assert len(got) == len(expected)
    assert [d.canon for d in got] == [d.canon for d in expected]
    assert all(type(c) is int for d in got for c in d.canon)
    assert [d.index for d in got] == [d.index for d in expected]
    for d, e in zip(got, expected):
        assert np.array_equal(d.realized, e.realized)
        assert not d.realized.flags.writeable


def _small_grids(width):
    # entry bounds whose grid has at most 3,000 points, and at most 60 (the
    # walk goes over the grid once per shell)
    return st.tuples(st.just(width), st.integers(1, min(60, (round(3000 ** (1 / width)) - 1) // 2)))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=7).flatmap(_small_grids))
@example((7, 1))
@example((2, 27))
def test_enumeration_matches_oracle_on_small_grids(bounds):
    got = enumerate_directions(EnumerationParams(*bounds))
    expected = _oracle_enumeration(EnumerationParams(*bounds))
    canon_list = [d.canon for d in expected]
    assert len(got) == len(expected)
    assert got.support.tolist() == [d.support for d in expected]
    assert got.antipodes.tolist() == _oracle_antipodes(canon_list)
    for row, d in zip(got.canon.tolist(), expected):
        assert tuple(row[: d.support]) == d.canon and not any(row[d.support :])
    for i, d in enumerate(expected):
        assert got.realized[i, : d.support].tobytes() == d.realized.tobytes(), d.canon
        assert not got.realized[i, d.support :].any()


@pytest.mark.parametrize("bounds", DIFF_BOUNDS)
def test_columnar_enumeration_matches_oracle(bounds):
    params = EnumerationParams(*bounds)
    got = enumerate_directions(params)
    expected = _oracle_enumeration(params)
    assert isinstance(got, DirectionSet)
    assert [d.index for d in got] == list(range(1, len(got) + 1))
    _assert_matches_oracle(got, expected)
    for n in (1, len(got) // 3, len(got) - 1, len(got)):
        prefix = got[:n]
        assert isinstance(prefix, DirectionSet)
        _assert_matches_oracle(prefix, expected[:n])
        np.testing.assert_array_equal(prefix.support, [d.support for d in expected[:n]])


@pytest.mark.parametrize("bounds", DIFF_BOUNDS)
def test_antipode_array_matches_linear_scan(bounds):
    dirs = enumerate_directions(EnumerationParams(*bounds))
    canon_list = [d.canon for d in dirs]
    positions = _oracle_antipodes(canon_list)
    assert None not in positions  # negation keeps every shell
    for k, position in enumerate(positions, start=1):
        for limit in (None, k, 200) if k <= 200 else (None, k):
            expected = _within(position, len(dirs), limit)
            assert dirs[:limit].antipodes[k - 1] == (expected or 0)
    for n in (1, len(dirs) // 3, len(dirs) - 1):
        prefix = dirs[:n]
        for k, position in enumerate(_oracle_antipodes(canon_list[:n]), start=1):
            assert prefix.antipodes[k - 1] == (position or 0)


def test_antipode_array_matches_verbatim_scan_on_small_bounds():
    dirs = enumerate_directions(EnumerationParams(3, 4))
    oracle = _oracle_enumeration(EnumerationParams(3, 4))
    for k in range(1, len(dirs) + 1):
        for limit in (None, k, 200) if k <= 200 else (None, k):
            assert dirs[:limit].antipodes[k - 1] == (_linear_scan(oracle, k, limit) or 0)


# Each pair of bounds straddles an edge where a dtype of the kernel widens:
# the axis (int8 to 127, then int16), the sum of squares (uint8 to 255, uint16
# to 65,535, then uint32) and the sort key (uint8 to 255, uint16 to 65,535,
# then uint32), with the largest key (support + 1) * (entry + 1) - 1.
@pytest.mark.parametrize(
    "support, entry",
    [
        (1, 128), (2, 127), (2, 128), (2, 200),
        (2, 11), (2, 12), (1, 255), (1, 256), (2, 181), (2, 182),
        (2, 84), (2, 85), (1, 32767), (1, 32768),
    ],
)
def test_shell_blocks_match_walk_at_the_int8_edge(support, entry):
    # the last shell of the enumeration is the one of exact support and entry
    expected = _oracle_shell_vectors(support, entry)
    dirs = enumerate_directions(EnumerationParams(support, entry))
    first = len(dirs) - len(expected)
    last = dirs.canon[first:, :support]
    assert [tuple(row) for row in last.tolist()] == expected
    assert np.abs(dirs.canon[:first]).max() < entry
    for i, canon in enumerate(expected, start=first):
        realized = RationalDirection(canon, i + 1).realized
        assert dirs.realized[i, :support].tobytes() == realized.tobytes(), (i, canon)


@pytest.mark.parametrize("support, entry, step", [(9, 2, 997), (2, 54, 1)])
def test_realized_rows_match_constructor_where_numpy_sums_pairwise(support, entry, step):
    # From 8 terms numpy's row sum is pairwise, not left to right, so rows of
    # support 8 and 9 check that the norms keep the constructor's rounding.
    # At (2, 54) every row is checked, (54, 25) at index 7066 among them: for
    # |v|^2 = 3541 the constructor's scalar pow and np.sqrt differ in the last bit.
    dirs = enumerate_directions(EnumerationParams(support, entry))
    starts = np.flatnonzero(np.diff(dirs.antipodes) > 0) + 1  # antipodes fall within a shell
    sample = sorted({0, len(dirs) - 1, *starts, *(starts - 1), *range(0, len(dirs), step)})
    assert len(starts) == (support - 1) * entry  # support 1 has only the shell of entry 1
    assert {support - 1, support} <= set(dirs.support[sample].tolist())
    for i in sample:
        canon = tuple(int(c) for c in dirs.canon[i, : dirs.support[i]])
        expected = RationalDirection(canon, i + 1).realized
        assert np.array_equal(dirs.realized[i, : len(canon)], expected), (i, canon)


def test_columns_match_items():
    dirs = enumerate_directions(EnumerationParams(3, 4))
    assert dirs.canon.dtype == np.int64
    for i, d in enumerate(dirs):
        assert tuple(dirs.canon[i, : d.support]) == d.canon
        assert not dirs.canon[i, d.support :].any()
        assert dirs.support[i] == d.support
        assert np.array_equal(dirs.realized[i, : d.support], d.realized)


def test_direction_set_is_read_only():
    dirs = enumerate_directions(EnumerationParams(2, 3))
    arrays = (dirs.canon, dirs.support, dirs.realized, dirs.antipodes, dirs[0].realized)
    for array in arrays:
        with pytest.raises(ValueError):
            array.flat[0] = 0
        with pytest.raises(ValueError):
            array.flags.writeable = True
    with pytest.raises(AttributeError):
        dirs.canon = np.zeros((1, 1), dtype=np.int64)


def test_only_prefix_slices():
    dirs = enumerate_directions(EnumerationParams(2, 3))
    for key in (slice(1, None, 2), slice(-3, None), slice(None, None, -1)):
        with pytest.raises(ValueError, match="prefix slices"):
            dirs[key]
    assert len(dirs[:0]) == 0 and list(dirs[:0]) == []
    assert dirs[: len(dirs)] is dirs


# Items built on demand from the columns: by index, by iteration and through
# prefix slices, each must be the validating constructor's item, bit for bit.


def _assert_constructed(d, row):
    expected = RationalDirection(d.canon, row + 1)
    assert d.canon == expected.canon and d.index == expected.index
    assert all(type(c) is int for c in d.canon)
    assert np.array_equal(d.realized, expected.realized)
    assert not d.realized.flags.writeable


def _assert_on_demand_items(bounds, n):
    params = EnumerationParams(*bounds)
    expected = _oracle_enumeration(params)
    n = min(n, len(expected))
    indexed = enumerate_directions(params)
    for row in (0, n - 1, len(expected) - 1, -1):
        d = indexed[row]
        assert d.canon == expected[row].canon
        _assert_constructed(d, row % len(expected))
    full = enumerate_directions(params)
    prefix = full[:n]
    for row, d in enumerate(prefix):
        assert d.canon == expected[row].canon
        _assert_constructed(d, row)
    assert all(prefix[i] is full[i] for i in range(n))  # built once, shared
    for row, d in enumerate(full):
        assert d.canon == expected[row].canon
        _assert_constructed(d, row)
    assert all(a is b for a, b in zip(prefix, full))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=800),
)
@example(3, 4, 100)
def test_items_built_on_demand_match_the_constructor(support, entry, n):
    _assert_on_demand_items((support, entry), n)


@pytest.mark.parametrize("bounds", [(3, 4), (2, 6), (4, 2)])
def test_indexed_item_equals_the_iterated_one(bounds):
    params = EnumerationParams(*bounds)
    iterated = list(enumerate_directions(params))
    indexed = enumerate_directions(params)  # never iterated: each index builds its item
    for row, expected in enumerate(iterated):
        for d in (indexed[row], indexed[row - len(iterated)]):
            assert d.canon == expected.canon and all(type(c) is int for c in d.canon)
            assert d.index == expected.index
            assert d.realized.shape == expected.realized.shape
            assert d.realized.tobytes() == expected.realized.tobytes()
            assert not d.realized.flags.writeable
    assert indexed._table == []


def test_indexed_item_out_of_range_raises_index_error():
    dirs = enumerate_directions(EnumerationParams(2, 2))
    with pytest.raises(IndexError):
        dirs[len(dirs)]
    with pytest.raises(IndexError):
        dirs[:3][3]
    assert dirs[:3][-1].canon == dirs[2].canon


# Items are thin row handles on the set's arrays: (support, row, source)


def test_iterated_enumeration_is_freed_by_reference_counting():
    # a handle that held its set would close a cycle set -> table -> handle -> set,
    # which only the cyclic collector frees
    dirs = enumerate_directions(EnumerationParams(3, 4))
    gc.disable()
    try:
        assert len(list(dirs)) == len(dirs) and len(list(dirs[:10])) == 10
        canon = weakref.ref(dirs.canon)
        del dirs
        assert canon() is None
    finally:
        gc.enable()


def test_row_handles_read_their_row():
    dirs = enumerate_directions(EnumerationParams(3, 4))
    indexed = [dirs[i] for i in range(len(dirs))]  # before iteration: not stored
    iterated = list(dirs)
    for i in (0, 1, 57, len(dirs) - 1):
        for row in (indexed[i], iterated[i], dirs[i]):
            s = int(dirs.support[i])
            assert type(row.support) is int and type(row.index) is int
            assert (row.support, row.index) == (s, i + 1)
            expected = RationalDirection(row.canon, row.index)
            assert not row.realized.flags.writeable
            assert np.shares_memory(row.realized, dirs.realized)
            assert row.realized.tobytes() == dirs.realized[i, :s].tobytes()
            assert row.realized.tobytes() == expected.realized.tobytes()


def test_row_handle_pads_its_realization():
    dirs = enumerate_directions(EnumerationParams(2, 4))
    row = int(np.flatnonzero((dirs.canon == (3, -4)).all(axis=1))[0])
    d = dirs[row]
    assert (d.support, d.index, d.canon) == (2, row + 1, (3, -4))
    assert type(d.canon[0]) is int
    np.testing.assert_array_equal(d.realized, [0.6, -0.8])
    np.testing.assert_array_equal(d.realized_padded(4), [0.6, -0.8, 0.0, 0.0])
    with pytest.raises(ValueError):
        d.realized.flags.writeable = True


def _json_oracle(directions):
    records = [{"index": d.index, "canon": list(d.canon), "q": 2.0} for d in directions]
    return json.dumps(records, indent=2)


def _csv_oracle(directions):
    rows = [f"{d.index},{';'.join(map(str, d.canon))},2\n" for d in directions]
    return "index,canon,q\n" + "".join(rows)


@pytest.mark.parametrize("bounds", [(1, 1), (4, 3), (3, 5), (5, 2)])
def test_column_writers_match_the_item_writers(bounds):
    params = EnumerationParams(*bounds)
    dirs = enumerate_directions(params)
    oracle = _oracle_enumeration(params)
    for n in (0, 1, len(dirs) // 2, len(dirs)):
        assert directions_to_json(dirs[:n]) == _json_oracle(oracle[:n])
        assert directions_to_csv(dirs[:n]) == _csv_oracle(oracle[:n])
