import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from illposed.classify import build_operator, harmonic
from illposed.directions import EnumerationParams, enumerate_directions
from illposed.operators import (
    OperatorAttributes,
    SpaceTag,
    TruncatedOperator,
    diagonal,
    embedding,
    identity,
    injective_counterexample,
    mazur,
)
from illposed.probes import (
    ProbeReport,
    composition_probe,
    pseudoinverse_growth,
    weak_star_probe,
)
from illposed.reports import _BLOCK
from illposed.tikhonov import (
    TikhonovProblem,
    convergence_experiment,
    objective,
    optimality_residual,
    solve,
)


def test_diagonal_probe_decays():
    n = 60
    op = diagonal(lambda k: 1.0 / k, n)
    eta = np.ones(n)
    report = weak_star_probe(op, eta, n)
    np.testing.assert_allclose(report.pairings, 1.0 / np.arange(1, n + 1))
    assert report.verdict == "converges_to_zero"
    assert report.sup_tail <= 1.0 / (n // 2 + 1) + 1e-15


def test_counterexample_probe_persists():
    n = 80
    op = injective_counterexample(n)
    eta = np.zeros(n)
    eta[0] = 1.0
    report = weak_star_probe(op, eta, n)
    assert np.all(report.pairings == 1.0)
    assert report.verdict == "persists"
    assert report.sup_tail == 1.0


def test_mazur_probe_persists(master_directions):
    n = 400
    op = mazur(master_directions, n, 3)
    eta = master_directions[0].realized_padded(3)
    report = weak_star_probe(op, eta, n)
    assert report.verdict == "persists"
    assert report.sup_tail >= 0.5
    # pairings are inner products with the direction sequence
    k = 123
    expected = float(eta @ master_directions[k - 1].realized_padded(3))
    assert report.pairings[k - 1] == pytest.approx(expected, abs=1e-15)


def test_probe_validation(master_directions):
    op = mazur(master_directions, 10, 3)
    with pytest.raises(ValueError):
        weak_star_probe(op, np.zeros(4), 5)
    with pytest.raises(ValueError):
        weak_star_probe(op, np.zeros(3), 11)
    with pytest.raises(ValueError, match="nonzero functional"):
        weak_star_probe(op, np.zeros(3), 5)


@pytest.mark.parametrize(
    "eta", [[np.nan, 1.0, 0.0], [np.inf, 1.0, 0.0], [0.0, -np.inf, 0.0], [np.nan] * 3]
)
def test_probe_rejects_non_finite_functional(master_directions, eta):
    op = mazur(master_directions, 10, 3)
    with pytest.raises(ValueError, match="eta must be finite"):
        weak_star_probe(op, np.array(eta), 5)


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0])
def test_probe_rejects_threshold_that_decides_every_verdict(master_directions, threshold):
    op = mazur(master_directions, 10, 3)
    eta = master_directions[0].realized_padded(3)
    with pytest.raises(ValueError, match="threshold"):
        weak_star_probe(op, eta, 5, threshold=threshold)
    with pytest.raises(ValueError, match="threshold"):
        composition_probe(identity(3), op, 5, threshold=threshold)


def test_composition_probe_identity_reduces_to_base(master_directions):
    n = 400
    base = mazur(master_directions, n, 3)
    via_identity = composition_probe(identity(3), base, n)
    direct = weak_star_probe(base, master_directions[0].realized_padded(3), n)
    np.testing.assert_array_equal(via_identity.pairings, direct.pairings)
    via_embed = composition_probe(embedding(2.0, 4.0, 3), base, n)
    np.testing.assert_array_equal(via_embed.pairings, direct.pairings)


def test_composition_probe_with_compact_factor_persists(master_directions):
    n = 400
    base = mazur(master_directions, n, 3)
    report = composition_probe(diagonal(lambda k: 1.0 / k, 3), base, n)
    assert report.verdict == "persists"


def test_composition_probe_rejects_zero(master_directions):
    base = mazur(master_directions, 10, 3)
    zero = TruncatedOperator(
        np.zeros((3, 3)),
        SpaceTag.ell(2.0, 3),
        SpaceTag.ell(2.0, 3),
        OperatorAttributes(),
        "zero",
    )
    with pytest.raises(ValueError):
        composition_probe(zero, base, 10)


def test_continuous_catalog_operators_probe_to_zero():
    # catalog entries declaring weak*-to-weak continuity: compact diagonal
    # (dual norm l2) and the l2-into-l4 embedding (dual norm l^{4/3});
    # generic functionals of unit dual norm must give decaying pairings
    n = 200
    rng = np.random.default_rng(31)
    diag = diagonal(lambda k: 1.0 / k, n)
    embed = embedding(2.0, 4.0, n)
    for _ in range(5):
        eta = rng.standard_normal(n)
        report = weak_star_probe(diag, eta / np.linalg.norm(eta), n)
        assert report.verdict == "converges_to_zero"
        dual = np.sum(np.abs(eta) ** (4.0 / 3.0)) ** 0.75
        report = weak_star_probe(embed, eta / dual, n)
        assert report.verdict == "converges_to_zero"


def test_threshold_is_configurable():
    n = 40
    op = diagonal(lambda k: 1.0 / k, n)
    eta = np.ones(n)
    assert weak_star_probe(op, eta, n, threshold=0.5).verdict == "converges_to_zero"
    assert weak_star_probe(op, eta, n, threshold=1e-9).verdict == "persists"


def test_pseudoinverse_growth_diagonal_and_identity():
    family = [diagonal(lambda k: 1.0 / k, n) for n in (8, 64)]
    for (n, smin, growth), expected in zip(pseudoinverse_growth(family), (8, 64)):
        assert n == expected
        assert smin == pytest.approx(1.0 / expected, rel=1e-12)
        assert growth == pytest.approx(expected, rel=1e-10)
    for n, _, growth in pseudoinverse_growth([identity(m) for m in (4, 16)]):
        assert growth == pytest.approx(1.0, rel=1e-12)


def test_pseudoinverse_growth_counterexample_diverges():
    family = [injective_counterexample(n) for n in (8, 64)]
    for n, _, growth in pseudoinverse_growth(family):
        assert growth >= n


@pytest.mark.parametrize("n", [8, 64, 256, 1024])
@pytest.mark.parametrize("name", ["diag", "E2p", "D1", "D2", "D2oD1", "inj", "BxI"])
def test_structured_growth_matches_the_dense_svd(master_directions, name, n):
    op = build_operator(name, n, lambda: master_directions)
    (_, smin, growth), = pseudoinverse_growth([op])
    assert "entries" not in vars(op)  # a closed form, not the dense SVD
    assert smin == pytest.approx(np.linalg.svd(op.entries, compute_uv=False)[-1], rel=1e-12)
    assert growth == 1.0 / smin


@pytest.mark.parametrize("n", [1, 8, 64, 512, 10**6])
def test_diagonal_growth_is_exactly_one_over_n(n):
    (size, smin, growth), = pseudoinverse_growth([diagonal(harmonic, n)])
    assert (size, smin, growth) == (n, 1.0 / n, 1.0 / (1.0 / n))


@settings(max_examples=150, deadline=None)
@given(
    weights=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=24),
    row=st.none() | st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=25, max_size=25),
    row_only_column=st.booleans(),
)
# Newton's step stays positive below half an ulp of t here: t - step == t ends it
@example(weights=[16.0, 17.0], row=[5.0, -3.0] + [0.0] * 23, row_only_column=False)
def test_growth_over_random_positive_diagonals_with_and_without_a_dense_row(
    weights, row, row_only_column
):
    # without a row, the diagonal alone; with one, the row on top and the
    # diagonal below it, after a first column that only the row covers or not
    n, attrs = len(weights), OperatorAttributes()
    if row is None:
        op = TruncatedOperator(np.empty((0, n)), SpaceTag.ell(2.0, n), SpaceTag.ell(2.0, n),
                               attrs, "d", diagonal=weights)
    else:
        cols = n + row_only_column
        op = TruncatedOperator(np.array([row[:cols]]), SpaceTag.ell(2.0, cols),
                               SpaceTag.ell(2.0, n + 1), attrs, "r", diagonal=weights)
    (_, smin, _), = pseudoinverse_growth([op])
    values = np.linalg.svd(op.entries, compute_uv=False)
    assert abs(smin - values[-1]) <= 1e-12 * values[0]
    if row is None:
        assert smin == min(weights)


def test_pseudoinverse_growth_counts_uncovered_rows_and_columns():
    attrs = OperatorAttributes()
    cases = [  # (rows, diagonal, n_rows, n_cols)
        (np.array([[2.0, 0.0, 0.0]]), [1.0, 0.0], 3, 3),  # a zero row and column
        (np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]), [], 2, 3),  # a zero row of the block
        (np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0]]), [0.5], 3, 3),  # rows beside the diagonal
        (np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), [0.5], 3, 3),  # ... with a zero column
        (np.array([[1.0, 1.0, 1.0]]), [0.5, 0.5], 3, 3),  # repeated weights
    ]
    for rows, diag, n_rows, n_cols in cases:
        op = TruncatedOperator(rows, SpaceTag.ell(2.0, n_cols), SpaceTag.ell(2.0, n_rows),
                               attrs, "case", diagonal=diag)
        (_, smin, _), = pseudoinverse_growth([op])
        expected = np.linalg.svd(op.entries, compute_uv=False)[-1]
        assert smin == pytest.approx(expected, rel=1e-12, abs=1e-15), (rows, diag)


def test_probes_solves_and_growth_never_build_the_dense_matrix():
    op = injective_counterexample(300)
    eta = np.zeros(300)
    eta[0] = 1.0
    weak_star_probe(op, eta, 300)
    composition_probe(identity(300), op, 300)
    pseudoinverse_growth([op])
    problem = TikhonovProblem(op, eta + 0.01, 0.01)
    x = solve(problem).x
    objective(problem, x), optimality_residual(problem, x)
    convergence_experiment(op, eta, [1e-2])
    assert "entries" not in vars(op)


def test_composition_probe_on_a_row_over_a_diagonal_matches_the_dense_matrix():
    op = injective_counterexample(40)
    report = composition_probe(diagonal(harmonic, 40), op, 30)
    dense = np.diag(1.0 / np.arange(1, 41)) @ op.entries
    norms = np.linalg.norm(dense[:, :30], axis=0)
    best = int(np.argmax(norms))
    np.testing.assert_allclose(report.eta, dense[:, best] / norms[best], rtol=1e-15)
    np.testing.assert_allclose(report.pairings, (dense.T @ report.eta)[:30], rtol=1e-14)


def test_pseudoinverse_growth_singular_marker():
    op = TruncatedOperator(
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        SpaceTag.ell(1.0, 2),
        SpaceTag.ell(2.0, 2),
        OperatorAttributes(),
        "singular",
    )
    (_, smin, growth), = pseudoinverse_growth([op])
    assert smin == 0.0
    assert growth == float("inf")


def test_probe_report_exports():
    op = diagonal(lambda k: 1.0 / k, 6)
    report = weak_star_probe(op, np.ones(6), 6)
    csv_text = report.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "n,pairing"
    assert len(lines) == 7
    assert lines[1] == "1,1"
    summary = json.loads(report.summary_json())
    assert set(summary) == {"label", "sup_tail", "verdict"}
    assert summary["verdict"] == "converges_to_zero"


def _reference_csv(pairings) -> str:
    """Reference for ``ProbeReport.to_csv``: one f-string per pairing, line by line."""
    lines = ["n,pairing"]
    for n, value in enumerate(pairings, start=1):
        lines.append(f"{n},{value:.17g}")
    return "\n".join(lines) + "\n"


def _csv(values) -> str:
    return ProbeReport("test", np.ones(1), np.asarray(values, dtype=float), 0.5).to_csv()


def _bits(*patterns):
    return list(np.array(patterns, dtype=np.uint64).view(np.float64))


_TINY = 5e-324  # the smallest subnormal


@pytest.mark.parametrize(
    "values",
    [
        pytest.param([], id="empty"),
        pytest.param([-0.0, 0.0, 0.0, -0.0, 0.0], id="signed-zeros"),
        pytest.param([0.0], id="length-1-zero"),
        pytest.param([-0.0], id="length-1-negative-zero"),
        pytest.param([0.3], id="length-1"),
        pytest.param(
            [np.nan, 1.0, -np.nan, np.nan, 0.0]
            + _bits(0x7FF8000000000001, 0xFFF0000000000001, 0x7FF0000000000001),
            id="nans-and-payloads",
        ),
        pytest.param([np.inf, -np.inf, np.inf, 1.0, -np.inf], id="infinities"),
        pytest.param(
            [_TINY, -_TINY, 123 * _TINY, 2.2250738585072009e-308, 2.2250738585072014e-308],
            id="subnormals",
        ),
        pytest.param(
            [
                1e-5, np.nextafter(1e-5, 0.0), np.nextafter(1e-5, 1.0), -1e-5, 1e-4,
                1e16, np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf), -1e16,
                1e17, np.nextafter(1e17, 0.0), np.nextafter(1e17, np.inf), 1.7976931348623157e308,
            ],
            id="exponent-switch",
        ),
        pytest.param(  # 24 characters each, the longest %.17g output
            [-2.2250738585072014e-308, -1.7976931348623157e308, 0.5, -2.2250738585072014e-308],
            id="longest-format",
        ),
        pytest.param(np.tile([0.1, 1.0 / 3.0, -2.5, 0.0, -0.0], 2000), id="heavy-repeats"),
        pytest.param(np.full(3000, -1.0 / 7.0), id="one-value"),
        pytest.param(np.random.default_rng(5).standard_normal(5000), id="all-distinct"),
    ],
)
def test_to_csv_matches_per_line_formatting(values):
    expected = _reference_csv(np.asarray(values, dtype=float))
    assert _csv(values).splitlines(True) == expected.splitlines(True)


def test_to_csv_matches_per_line_formatting_on_probes(master_directions):
    n = len(master_directions)
    op = mazur(master_directions, n, 3)
    reports = [
        weak_star_probe(op, master_directions[40].realized_padded(3), n),
        weak_star_probe(op, np.array([0.0, 1.0, 0.0]), n),
        weak_star_probe(op, np.array([0.6, -0.48, 0.64]), n),
        composition_probe(diagonal(lambda k: 1.0 / k, 3), op, n),
    ]
    for report in reports:
        assert report.to_csv().splitlines(True) == _reference_csv(report.pairings).splitlines(True)


@pytest.mark.parametrize(
    "n",
    [9, 10, 99, 100, 999, 1000, 99_999, 100_000]
    # the block edges, and a width change (9,999 -> 10,000) inside the third block
    + [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 10_001],
)
def test_to_csv_matches_per_line_formatting_at_index_width_boundaries(n):
    values = np.random.default_rng(n).standard_normal(n)
    values[::3] = -0.25
    # compared as lines so that a failure reports its first differing line
    # quickly instead of diffing the whole report
    assert _csv(values).splitlines(True) == _reference_csv(values).splitlines(True)


def test_to_csv_matches_per_line_formatting_on_the_lattice_probe():
    # support 5 / entry 4 is the benchmark's lattice enumeration; a random
    # functional pairs every one of its directions to a distinct value
    directions = enumerate_directions(EnumerationParams(max_support=5, max_entry=4))
    n = len(directions)
    assert n == 55_682
    eta = np.random.default_rng(3).standard_normal(5)
    report = weak_star_probe(mazur(directions, n, 5), eta / np.linalg.norm(eta), n)
    assert len(np.unique(report.pairings.view(np.int64))) == n
    assert report.to_csv().splitlines(True) == _reference_csv(report.pairings).splitlines(True)


_any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_edge_float = st.sampled_from(
    [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, _TINY, -_TINY, 1e-5, 1e16, 1e17]
)


@settings(max_examples=200, deadline=None)
@given(
    pool=st.lists(st.one_of(_edge_float, _any_float), min_size=1, max_size=12),
    picks=st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=300),
    distinct=st.lists(_any_float, max_size=60),
)
def test_to_csv_property_matches_per_line_formatting(pool, picks, distinct):
    values = [pool[i % len(pool)] for i in picks] + distinct
    assert _csv(values) == _reference_csv(np.array(values, dtype=float))
