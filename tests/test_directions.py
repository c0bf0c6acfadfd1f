import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from illposed.directions import (
    DirectionSet,
    _shell,
    EnumerationParams,
    RationalDirection,
    coverage,
    directions_from_json,
    directions_to_json,
    enumerate_directions,
)
from illposed.operators import mazur
from illposed.tikhonov import _antipode_index, closed_form_minimizer


def canons(directions):
    return [d.canon for d in directions]


def test_single_coordinate_enumeration():
    dirs = enumerate_directions(EnumerationParams(2.0, 1, 1))
    assert canons(dirs) == [(1,), (-1,)]
    assert [d.index for d in dirs] == [1, 2]


def test_multiples_are_never_emitted():
    dirs = enumerate_directions(EnumerationParams(2.0, 2, 2))
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
    dirs = enumerate_directions(EnumerationParams(2.0, 2, 1))
    assert len(dirs) == 8
    assert set(canons(dirs)) == expected


def test_determinism_and_sequential_indices():
    params = EnumerationParams(2.0, 3, 3)
    first = enumerate_directions(params)
    second = enumerate_directions(params)
    assert canons(first) == canons(second)
    assert [d.index for d in first] == list(range(1, len(first) + 1))


def test_no_duplicate_canons():
    dirs = enumerate_directions(EnumerationParams(2.0, 3, 4))
    assert len(set(canons(dirs))) == len(dirs)


def test_antipodal_closure_within_shell():
    dirs = enumerate_directions(EnumerationParams(2.0, 3, 3))
    present = set(canons(dirs))
    for d in dirs:
        anti = d.antipode_canon()
        assert anti in present
        shell = (len(d.canon), max(map(abs, d.canon)))
        assert (len(anti), max(map(abs, anti))) == shell


@pytest.mark.parametrize("q", [2.0, 3.0, 1.5])
def test_unit_norm_realization(q):
    dirs = enumerate_directions(EnumerationParams(q, 2, 3))
    for d in dirs:
        norm = np.sum(np.abs(d.realized) ** q) ** (1.0 / q)
        assert abs(norm - 1.0) <= 1e-12


def test_larger_support_bound_extends_enumeration():
    small = enumerate_directions(EnumerationParams(2.0, 2, 3))
    large = enumerate_directions(EnumerationParams(2.0, 3, 3))
    assert canons(large)[: len(small)] == canons(small)


def test_direction_equality_is_canon_based():
    a = RationalDirection((1, -2), index=1)
    b = RationalDirection((1, -2), index=99)
    c = RationalDirection((-1, 2), index=1)
    assert a == b
    assert a != c
    assert len({a, b, c}) == 2


def test_direction_rejects_bad_canon():
    with pytest.raises(ValueError):
        RationalDirection((2, 4), index=1)
    with pytest.raises(ValueError):
        RationalDirection((1, 0), index=1)
    with pytest.raises(ValueError):
        RationalDirection((), index=1)


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=5),
)
def test_primitive_vectors_realize_to_unit_norm(raw, scale):
    raw = [c for c in raw]
    if not any(raw) or raw[-1] == 0:
        raw.append(1)
    g = math.gcd(*[abs(c) for c in raw])
    canon = tuple(c // g for c in raw)
    d = RationalDirection(canon, index=1)
    assert abs(np.linalg.norm(d.realized) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        RationalDirection(tuple(scale * 2 * c for c in canon), index=1)


def test_coverage_exact_members():
    dirs = enumerate_directions(EnumerationParams(2.0, 1, 1))
    idx, corr = coverage(dirs, np.array([1.0]))
    assert idx == 1 and abs(corr - 1.0) <= 1e-15

    dirs = enumerate_directions(EnumerationParams(2.0, 2, 1))
    idx, corr = coverage(dirs, np.array([1.0, 1.0]))
    assert dirs[idx - 1].canon == (1, 1)
    assert abs(corr - 1.0) <= 1e-15


def test_coverage_three_one_oracle():
    # oracle: evaluate the eight inner products directly; the winner is +e1
    # with 3/sqrt(10), and (1, 1)/sqrt(2) is second best with 4/sqrt(20)
    dirs = enumerate_directions(EnumerationParams(2.0, 2, 1))
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
    dirs = enumerate_directions(EnumerationParams(2.0, 1, 1))
    with pytest.raises(ValueError):
        coverage(dirs, np.zeros(3))
    with pytest.raises(ValueError, match="q = 2"):
        coverage(enumerate_directions(EnumerationParams(3.0, 1, 1)), np.array([1.0]))


def test_coverage_monotone_in_bounds():
    y = np.random.default_rng(7).standard_normal(3)
    bounds = [(2, 2), (2, 3), (3, 3), (3, 4), (3, 6)]
    values = []
    for s, m in bounds:
        dirs = enumerate_directions(EnumerationParams(2.0, s, m))
        values.append(coverage(dirs, y)[1])
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
    assert values[-1] > 0.9


def test_coverage_dense_for_four_dim_targets():
    dirs = enumerate_directions(EnumerationParams(2.0, 4, 8))
    rng = np.random.default_rng(11)
    for _ in range(10):
        y = rng.standard_normal(4)
        _, corr = coverage(dirs, y)
        assert corr >= 0.99


def test_json_round_trip():
    dirs = enumerate_directions(EnumerationParams(2.0, 2, 2))
    text = directions_to_json(dirs)
    parsed = json.loads(text)
    assert parsed[0] == {"index": 1, "canon": [1], "q": 2.0}
    back = directions_from_json(text)
    assert canons(back) == canons(dirs)
    assert [d.index for d in back] == [d.index for d in dirs]
    np.testing.assert_allclose(back[3].realized, dirs[3].realized)


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
                directions.append(RationalDirection(canon, index, params.q))
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
    assert all(d.q == e.q for d, e in zip(got, expected))
    for d, e in zip(got, expected):
        assert np.array_equal(d.realized, e.realized)
        assert not d.realized.flags.writeable


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("bounds", DIFF_BOUNDS)
def test_columnar_enumeration_matches_oracle(bounds, q):
    params = EnumerationParams(q, *bounds)
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
    dirs = enumerate_directions(EnumerationParams(2.0, *bounds))
    canon_list = [d.canon for d in dirs]
    positions = _oracle_antipodes(canon_list)
    assert None not in positions  # negation keeps every shell
    for k, position in enumerate(positions, start=1):
        for limit in (None, k, 200):
            expected = _within(position, len(dirs), limit)
            assert _antipode_index(dirs, k, limit) == expected
    for n in (1, len(dirs) // 3, len(dirs) - 1):
        prefix = dirs[:n]
        for k, position in enumerate(_oracle_antipodes(canon_list[:n]), start=1):
            assert _antipode_index(prefix, k) == position


def test_antipode_array_matches_verbatim_scan_on_small_bounds():
    dirs = enumerate_directions(EnumerationParams(2.0, 3, 4))
    oracle = _oracle_enumeration(EnumerationParams(2.0, 3, 4))
    for k in range(1, len(dirs) + 1):
        for limit in (None, k, 200):
            assert _antipode_index(dirs, k, limit) == _linear_scan(oracle, k, limit)


@pytest.mark.parametrize("support, entry", [(1, 128), (2, 127), (2, 128)])
def test_shell_blocks_match_walk_at_the_int8_edge(support, entry):
    block = _shell(support, entry)
    assert [tuple(row) for row in block.tolist()] == _oracle_shell_vectors(support, entry)


def test_columns_match_items():
    dirs = enumerate_directions(EnumerationParams(3.0, 3, 4))
    assert dirs.canon.dtype == np.int64
    for i, d in enumerate(dirs):
        assert tuple(dirs.canon[i, : d.support]) == d.canon
        assert not dirs.canon[i, d.support :].any()
        assert dirs.support[i] == d.support
        assert np.array_equal(dirs.realized[i, : d.support], d.realized)
    assert dirs.q == 3.0


def test_direction_set_is_read_only():
    dirs = enumerate_directions(EnumerationParams(2.0, 2, 3))
    arrays = (dirs.canon, dirs.support, dirs.realized, dirs.antipodes, dirs[0].realized)
    for array in arrays:
        with pytest.raises(ValueError):
            array.flat[0] = 0
        with pytest.raises(ValueError):
            array.flags.writeable = True
    with pytest.raises(AttributeError):
        dirs.canon = np.zeros((1, 1), dtype=np.int64)


def test_of_hand_built_list_and_general_slices():
    items = [
        RationalDirection((1,), 1),
        RationalDirection((1, 1), 2),
        RationalDirection((-1,), 3),
        RationalDirection((1,), 4),  # a repeat: the first copy is the antipode
    ]
    hand = DirectionSet.of(items)
    assert DirectionSet.of(hand) is hand
    assert list(hand) == items
    np.testing.assert_array_equal(hand.antipodes, [3, 0, 1, 3])
    np.testing.assert_array_equal(hand.support, [1, 2, 1, 1])
    assert _antipode_index(hand, 3) == 1
    assert _antipode_index(hand, 1, limit=2) is None
    dirs = enumerate_directions(EnumerationParams(2.0, 2, 3))
    odd = dirs[1::2]
    assert list(odd) == list(dirs)[1::2]
    expected = _oracle_antipodes([d.canon for d in odd])
    assert [_antipode_index(odd, k) for k in range(1, len(odd) + 1)] == expected
    assert len(dirs[:0]) == 0 and len(dirs[-3:]) == 3


def test_json_round_trip_list_gives_the_same_results():
    dirs = enumerate_directions(EnumerationParams(2.0, 3, 4))
    back = directions_from_json(directions_to_json(dirs))
    assert isinstance(back, list)
    np.testing.assert_array_equal(DirectionSet.of(back).antipodes, dirs.antipodes)
    np.testing.assert_array_equal(
        mazur(back, len(back), 3).entries, mazur(dirs, len(dirs), 3).entries
    )
    y = np.random.default_rng(3).standard_normal(3)
    assert coverage(back, y) == coverage(dirs, y)
    for k in (1, 17, 300, len(dirs)):
        for gamma in (None, -0.2):
            np.testing.assert_array_equal(
                closed_form_minimizer(back, k, 1.0, 0.3, gamma),
                closed_form_minimizer(dirs, k, 1.0, 0.3, gamma),
            )
