"""``float_cells`` against the ``%`` operator, cell by cell."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from illposed.reports import _BLOCK, float_cells


def _texts(values: np.ndarray) -> list[str]:
    """The text of each cell: its bytes with the NULs dropped."""
    cells = float_cells(values)
    lines = np.hstack([cells, np.full((len(cells), 1), ord("\n"), dtype=np.uint8)])
    return str(lines[lines != 0].data, "ascii").splitlines()


def _assert_matches_percent(values, block_edges=False) -> None:
    values = np.asarray(values, dtype=np.float64)
    if block_edges and len(values):  # tiled past two block edges, which then split the table
        values = np.resize(values, 2 * _BLOCK + len(values))
    got = _texts(values)
    expected = ("%.17g\n" * len(values) % tuple(values.tolist())).splitlines()
    assert len(got) == len(expected)
    if got != expected:  # report the first few cells, which is quick
        bits = values.view(np.uint64)
        bad = [(hex(int(b)), g, x) for b, g, x in zip(bits, got, expected) if g != x]
        raise AssertionError(bad[:5])


def _bits(*patterns) -> np.ndarray:
    return np.array(patterns, dtype=np.uint64).view(np.float64)


def _neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, 0.0), values, np.nextafter(values, np.inf)])


def _ties() -> np.ndarray:
    """Values whose 17-digit scaling |v| * 10**(16 - E) ends in exactly .5.

    Those are odd multiples of 2**-(17 - E) for exponents E = -6..15.
    """
    rng = np.random.default_rng(20)
    ties = []
    for e in range(-6, 16):
        scale = 2.0 ** (17 - e)
        odd = 2 * rng.integers(int(10.0**e * scale) // 2, int(10.0 ** (e + 1) * scale) // 2, 200) + 1
        ties.append(odd[odd < 2**53] / scale)
    return np.concatenate(ties)


_EDGES = {
    "powers-of-ten": _neighbours(10.0 ** np.arange(-7, 19)),
    "window-edges": _neighbours([1e-6, 1e17, -1e-6, -1e17]),
    "exact-window-edges": _neighbours([1e-4, 1.0, -1e-4, -1.0]),
    "nines-below-powers": np.nextafter(10.0 ** np.arange(-6, 18), 0.0),
    "exponent-layout-switch": _neighbours([1e-5, 1e-4, 1.0, 1e16]),
    "integers-with-zeros": [100.0, 1e5, 120.0, 1234500000.0, 9e15, -7e16, 1.5, 10.25],
    "fraction-zeros": [0.5, 0.25, 0.1, -0.001, 1.0000000000000002, 2.5e-6, 0.0012],
    "ties": _ties(),
    "dyadic": np.arange(35, 4001, 2) * 2.0**-25,
    "specials": [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308],
    "nan-payloads": _bits(0x7FF8000000000001, 0xFFF0000000000001, 0x7FF0000000000001),
    "longest": [-2.2250738585072014e-308, -1.7976931348623157e308, -1.2345678901234567e-100],
    "empty": [],
}


def test_float_cells_edge_table():
    for name, values in _EDGES.items():
        values = np.asarray(values, dtype=np.float64)
        assert float_cells(values).shape == (len(values), 24), name
        assert _texts(values) == ["%.17g" % v for v in values.tolist()], name
        _assert_matches_percent(values)
        _assert_matches_percent(values, block_edges=True)


def test_float_cells_sweep_over_the_window():
    """Log-uniform draws over the exact product's window and over a wider range."""
    rng = np.random.default_rng(7)
    n = 1_000_000
    for low, high in [(1e-6, 1e17), (1e-4, 1.0)]:
        exponents = rng.uniform(np.log10(low), np.log10(high), n)
        values = 10.0**exponents * rng.choice([-1.0, 1.0], n)
        _assert_matches_percent(values)


def _between(low: float, high: float):
    """Bit patterns of the doubles in [low, high]: positive doubles are ordered as their bits."""
    return st.integers(
        min_value=int(np.float64(low).view(np.uint64)),
        max_value=int(np.float64(high).view(np.uint64)),
    )


_wide = _between(1e-6, 1e17)
_in_window = _between(1e-4, np.nextafter(1.0, 0.0))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=2**64 - 1),
            _wide,
            _wide.map(lambda bits: bits | 1 << 63),
            _in_window,
            _in_window.map(lambda bits: bits | 1 << 63),
        ),
        max_size=40,
    )
)
def test_float_cells_property_over_bit_patterns(patterns):
    _assert_matches_percent(_bits(*patterns))
