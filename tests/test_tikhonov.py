import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illposed.directions import EnumerationParams, coverage, enumerate_directions
from illposed.operators import (
    TruncatedOperator,
    diagonal,
    injective_counterexample,
    mazur,
)
from illposed.tikhonov import (
    TikhonovProblem,
    closed_form_minimizer,
    collapse_experiment,
    convergence_experiment,
    minimizer_family_distance,
    objective,
    optimality_residual,
    soft_threshold,
    solve,
)

ALPHA = 0.3


@pytest.fixture(scope="module")
def b200(master_directions):
    return mazur(master_directions, 200, 3)


def spike(n, k, value):
    x = np.zeros(n)
    x[k - 1] = value
    return x


def problem_for(op, directions, k, lam, alpha=ALPHA):
    y = lam * directions[k - 1].realized_padded(op.n_rows)
    return TikhonovProblem(op, y, alpha)


def test_soft_threshold_cases():
    assert soft_threshold(1.0, 0.3) == pytest.approx(0.7, abs=1e-15)
    assert soft_threshold(0.2, 0.3) == 0.0
    assert soft_threshold(-1.0, 0.3) == pytest.approx(-0.7, abs=1e-15)
    with pytest.raises(ValueError):
        soft_threshold(1.0, -0.1)


@given(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.floats(min_value=0, max_value=100, allow_nan=False),
)
def test_soft_threshold_shrinks(v, t):
    out = soft_threshold(v, t)
    assert abs(out) <= max(abs(v) - t, 0.0) + 1e-12
    if out != 0.0:
        assert math.copysign(1.0, out) == math.copysign(1.0, v)
        assert abs(out) == pytest.approx(abs(v) - t, abs=1e-12)


def test_objective_at_zero(b200, master_directions):
    prob = problem_for(b200, master_directions, 5, 1.0)
    assert objective(prob, np.zeros(200)) == pytest.approx(
        0.5 * float(prob.y @ prob.y), rel=1e-15
    )


def test_objective_single_spike_value(b200, master_directions):
    # lambda = 1, alpha = 0.3: value is -0.5 * 0.7^2 + 0.5 = 0.255
    prob = problem_for(b200, master_directions, 5, 1.0)
    x = spike(200, 5, soft_threshold(1.0, ALPHA))
    assert objective(prob, x) == pytest.approx(0.255, rel=1e-12)


def test_objective_identity_for_arbitrary_data(b200, master_directions):
    rng = np.random.default_rng(17)
    for _ in range(25):
        y = rng.standard_normal(3)
        prob = TikhonovProblem(b200, y, ALPHA)
        m = int(rng.integers(1, 201))
        beta = soft_threshold(
            float(y @ master_directions[m - 1].realized_padded(3)), ALPHA
        )
        value = objective(prob, spike(200, m, beta))
        expected = -0.5 * beta**2 + 0.5 * float(y @ y)
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-14)


def test_optimality_residual_values(b200, master_directions):
    zero_prob = TikhonovProblem(b200, np.zeros(3), 1.0)
    assert optimality_residual(zero_prob, np.zeros(200)) == 0.0

    prob = problem_for(b200, master_directions, 5, 1.0)
    x = closed_form_minimizer(master_directions[:200], 5, 1.0, ALPHA)
    assert optimality_residual(prob, x) <= 1e-10

    # x = e_k with zero data and alpha 1: the gradient term is -1, so the
    # violation is exactly 2
    assert optimality_residual(zero_prob, spike(200, 5, 1.0)) == pytest.approx(
        2.0, abs=1e-12
    )


def test_problem_validation(b200):
    with pytest.raises(ValueError):
        TikhonovProblem(b200, np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        TikhonovProblem(b200, np.zeros(4), 0.1)
    with pytest.raises(ValueError, match="l\\^1"):
        TikhonovProblem(diagonal([1.0, 0.5], 2), np.zeros(2), 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_problem_rejects_non_finite_alpha_or_data(b200, bad):
    # a NaN alpha once read as residual 0 and certified x = 0
    with pytest.raises(ValueError, match="alpha must be a positive finite number"):
        TikhonovProblem(b200, np.array([1.0, 0.5, 0.2]), bad)
    with pytest.raises(ValueError, match="y must be finite"):
        TikhonovProblem(b200, np.array([1.0, bad, 0.2]), 0.1)


def test_solve_zero_data(b200):
    cert = solve(TikhonovProblem(b200, np.zeros(3), 0.5))
    assert np.all(cert.x == 0.0)
    assert cert.support == ()
    assert cert.converged and cert.residual == 0.0


def test_solve_diagonal_against_grid_search_oracle():
    op = diagonal([1.0, 0.5], 2, domain_exponent=1.0)
    y = np.array([1.0, 1.0])
    alpha = 0.1
    prob = TikhonovProblem(op, y, alpha)

    # oracle 1: brute-force grid search over the plane
    grid = np.linspace(-0.5, 2.5, 301)
    best, best_val = None, np.inf
    for x1 in grid:
        for x2 in grid:
            v = 0.5 * ((x1 - 1.0) ** 2 + (0.5 * x2 - 1.0) ** 2) + alpha * (
                abs(x1) + abs(x2)
            )
            if v < best_val:
                best, best_val = (x1, x2), v
    # oracle 2: separable closed form soft(sigma_k y_k, alpha) / sigma_k^2
    exact = np.array(
        [soft_threshold(1.0, alpha) / 1.0, soft_threshold(0.5, alpha) / 0.25]
    )
    assert exact == pytest.approx(np.array(best), abs=0.02)

    cert = solve(prob, tol=1e-12)
    np.testing.assert_allclose(cert.x, exact, atol=1e-12)
    assert objective(prob, cert.x) <= best_val + 1e-12


def test_solve_matches_closed_form_family(b200, master_directions):
    for lam in (-3.0, -0.6, 0.6, 3.0):
        prob = problem_for(b200, master_directions, 17, lam)
        cert = solve(prob, tol=1e-12, max_iter=50000)
        assert cert.converged
        assert cert.residual <= 1e-10
        assert set(cert.support) <= {17, 32}  # direction 32 is the antipode
        dist = minimizer_family_distance(
            cert.x, master_directions[:200], 17, lam, ALPHA
        )
        assert dist <= 1e-8


def test_active_set_path_reaches_closed_form(b200, master_directions):
    # the solver starts from x = 0 and must take at least one active-set step
    for k, lam in ((17, 0.6), (17, -3.0), (60, 0.6)):
        prob = problem_for(b200, master_directions, k, lam)
        cert = solve(prob, tol=1e-12, max_iter=50000)
        assert cert.converged and cert.iterations > 0
        assert cert.residual <= 1e-10
        dist = minimizer_family_distance(
            cert.x, master_directions[:200], k, lam, ALPHA
        )
        assert dist <= 1e-8


@pytest.mark.parametrize(
    "seed, size, bounds, depth",
    [(4, 3, (3, 8), 4034), (42, 4, (4, 6), 25536)],
)
def test_collapse_certifies_deep_generic_data(seed, size, bounds, depth):
    directions = enumerate_directions(EnumerationParams(2.0, *bounds))
    y = np.random.default_rng(seed).standard_normal(size)
    y /= np.linalg.norm(y)
    (row,) = collapse_experiment(directions, y, 0.1, [depth])
    assert row.converged
    problem = TikhonovProblem(mazur(directions, depth, size), y, 0.1)
    assert optimality_residual(problem, row.solution) <= 1e-10
    assert 1 <= row.support_size <= size


# Objective values certified by the coordinate-descent solver this module used
# before the active-set method, for data A e_1 + delta u with alpha = delta.
WIDE_ROW_OBJECTIVES = [
    ("diag", 50, 0.1, 0.10054674986387667),
    ("diag", 50, 0.001, 0.0010000546749863878),
    ("diag", 200, 0.1, 0.10024178345186494),
    ("diag", 200, 0.001, 0.0010000241783451865),
    ("diag", 400, 0.1, 0.10015889762083158),
    ("diag", 400, 0.001, 0.0010000158897620832),
    ("inj", 50, 0.1, 0.09945319201195293),
    ("inj", 50, 0.001, 0.0009997749581234568),
    ("inj", 200, 0.1, 0.09990348665727124),
    ("inj", 200, 0.001, 0.0009997734032294457),
    ("inj", 400, 0.1, 0.09997955510082224),
    ("inj", 400, 0.001, 0.000999785587698594),
]


@pytest.mark.parametrize("name, n, delta, expected", WIDE_ROW_OBJECTIVES)
def test_wide_row_operators_match_previous_objectives(name, n, delta, expected):
    if name == "diag":
        op = diagonal(lambda k: 1.0 / k, n, domain_exponent=1.0)
    else:
        op = injective_counterexample(n)
    u = np.random.default_rng(42).standard_normal(n)
    u /= np.linalg.norm(u)
    cert = solve(TikhonovProblem(op, op.entries[:, 0] + delta * u, delta))
    assert cert.converged and cert.residual <= 1e-10
    assert cert.objective == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_step_budget_is_reported_not_raised():
    op = injective_counterexample(50)
    u = np.random.default_rng(42).standard_normal(50)
    problem = TikhonovProblem(op, op.entries[:, 0] + 1e-3 * u / np.linalg.norm(u), 1e-3)
    cert = solve(problem, max_iter=3)
    assert not cert.converged and cert.iterations == 3
    assert cert.residual == pytest.approx(optimality_residual(problem, cert.x))
    assert solve(problem).iterations > 3


depths = st.integers(min_value=1, max_value=400)
data = st.lists(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=3, max_size=3
)
alphas = st.floats(min_value=0.01, max_value=2.0)


@settings(max_examples=60, deadline=None)
@given(depths, data, alphas, st.floats(min_value=0.1, max_value=10.0))
def test_scaling_data_and_alpha_scales_fit_and_norm(
    master_directions, depth, y, alpha, c
):
    op = mazur(master_directions, depth, 3)
    y = np.array(y)
    base = solve(TikhonovProblem(op, y, alpha))
    scaled = solve(TikhonovProblem(op, c * y, c * alpha))
    assert base.converged and scaled.converged
    scale = max(1.0, float(np.abs(c * y).max()))
    np.testing.assert_allclose(
        op.entries @ scaled.x, c * (op.entries @ base.x), rtol=0, atol=1e-9 * scale
    )
    assert float(np.abs(scaled.x).sum()) == pytest.approx(
        c * float(np.abs(base.x).sum()), rel=1e-9, abs=1e-12 * scale
    )


@settings(max_examples=60, deadline=None)
@given(depths, data, alphas, st.randoms(use_true_random=False))
def test_permuting_columns_keeps_the_objective(
    master_directions, depth, y, alpha, rnd
):
    op = mazur(master_directions, depth, 3)
    perm = list(range(depth))
    rnd.shuffle(perm)
    shuffled = TruncatedOperator(
        op.entries[:, perm], op.domain_tag, op.codomain_tag, op.attributes, op.label
    )
    y = np.array(y)
    base = solve(TikhonovProblem(op, y, alpha))
    other = solve(TikhonovProblem(shuffled, y, alpha))
    assert base.converged and other.converged
    assert other.objective == pytest.approx(base.objective, rel=1e-12, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(depths, data, alphas)
def test_objective_never_worse_than_zero(master_directions, depth, y, alpha):
    problem = TikhonovProblem(mazur(master_directions, depth, 3), np.array(y), alpha)
    cert = solve(problem)
    assert cert.converged
    assert cert.objective <= objective(problem, np.zeros(depth))


@settings(max_examples=60, deadline=None)
@given(
    depths,
    st.data(),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
def test_random_spike_data_lands_on_closed_form_family(
    master_directions, depth, draw, lam
):
    k = draw.draw(st.integers(min_value=1, max_value=depth))
    op = mazur(master_directions, depth, 3)
    prob = problem_for(op, master_directions, k, lam)
    cert = solve(prob, tol=1e-12)
    assert cert.converged
    dist = minimizer_family_distance(
        cert.x, master_directions[:depth], k, lam, ALPHA
    )
    assert dist <= 1e-8


def test_solve_inside_dead_zone(b200, master_directions):
    prob = problem_for(b200, master_directions, 17, 0.15)
    cert = solve(prob, tol=1e-12)
    assert np.all(cert.x == 0.0)
    assert cert.objective <= 0.5 * float(prob.y @ prob.y) + 1e-15


def test_solver_never_beats_zero_start(b200, master_directions):
    for k, lam in ((5, 2.0), (60, -0.9), (150, 0.31)):
        prob = problem_for(b200, master_directions, k, lam)
        cert = solve(prob, tol=1e-12, max_iter=50000)
        assert cert.objective <= 0.5 * float(prob.y @ prob.y) + 1e-15


def test_support_is_single_when_antipode_lies_outside(master_directions):
    # canon (8, -3) sits at index 150, its negation at 171; a truncation of
    # 160 columns therefore contains the direction but not its antipode
    assert master_directions[149].canon == (8, -3)
    assert master_directions[170].canon == (-8, 3)
    op = mazur(master_directions, 160, 3)
    prob = problem_for(op, master_directions, 150, 1.0)
    cert = solve(prob, tol=1e-12, max_iter=50000)
    assert cert.converged
    assert cert.support == (150,)
    dist = minimizer_family_distance(
        cert.x, master_directions[:160], 150, 1.0, ALPHA
    )
    assert dist <= 1e-10


def test_certificate_beats_random_candidates(b200, master_directions):
    prob = problem_for(b200, master_directions, 60, 2.0)
    cert = solve(prob, tol=1e-12, max_iter=50000)
    assert cert.residual <= 1e-10
    rng = np.random.default_rng(23)
    base = cert.x
    for _ in range(1000):
        z = base + rng.standard_normal(200) * rng.choice([1e-3, 1e-1, 1.0])
        assert cert.objective <= objective(prob, z) + 1e-8


def test_closed_form_cases(master_directions):
    dirs = master_directions[:200]
    x = closed_form_minimizer(dirs, 5, 1.0, 0.3)
    np.testing.assert_array_equal(x, spike(200, 5, 0.7))
    assert np.all(closed_form_minimizer(dirs, 5, 0.2, 0.3) == 0.0)
    x = closed_form_minimizer(dirs, 5, -1.0, 0.3)
    np.testing.assert_array_equal(x, spike(200, 5, -0.7))

    # two-component family: gamma = -0.5 puts 0.2 at k and -0.5 at the antipode
    x = closed_form_minimizer(dirs, 5, 1.0, 0.3, gamma=-0.5)
    anti = next(
        d.index for d in dirs if d.canon == dirs[4].antipode_canon()
    )
    expected = spike(200, 5, 0.2) + spike(200, anti, -0.5)
    np.testing.assert_allclose(x, expected, atol=1e-15)

    x = closed_form_minimizer(dirs, 5, -1.0, 0.3, gamma=0.5)
    expected = spike(200, 5, -0.2) + spike(200, anti, 0.5)
    np.testing.assert_allclose(x, expected, atol=1e-15)


def test_closed_form_gamma_validation(master_directions):
    dirs = master_directions[:200]
    with pytest.raises(ValueError):
        closed_form_minimizer(dirs, 5, 1.0, 0.3, gamma=0.1)  # wrong side
    with pytest.raises(ValueError):
        closed_form_minimizer(dirs, 5, 1.0, 0.3, gamma=-0.8)  # beyond interval
    with pytest.raises(ValueError):
        closed_form_minimizer(dirs, 5, 0.2, 0.3, gamma=-0.1)  # no family at all
    with pytest.raises(ValueError, match="antipodal"):
        closed_form_minimizer(dirs[:1], 1, 1.0, 0.3, gamma=-0.5)


def test_gamma_family_shares_objective_and_optimality(b200, master_directions):
    dirs = master_directions[:200]
    prob = problem_for(b200, master_directions, 5, 1.0)
    values = []
    for gamma in np.linspace(-0.6, -0.1, 5):
        x = closed_form_minimizer(dirs, 5, 1.0, ALPHA, gamma=float(gamma))
        values.append(objective(prob, x))
        assert optimality_residual(prob, x) <= 1e-10
    assert max(values) - min(values) <= 1e-12


def test_family_distance_helper(master_directions):
    dirs = master_directions[:200]
    principal = closed_form_minimizer(dirs, 5, 1.0, 0.3)
    member = closed_form_minimizer(dirs, 5, 1.0, 0.3, gamma=-0.4)
    assert minimizer_family_distance(principal, dirs, 5, 1.0, 0.3) <= 1e-15
    assert minimizer_family_distance(member, dirs, 5, 1.0, 0.3) <= 1e-15
    off = principal.copy()
    off[0] += 0.25
    assert minimizer_family_distance(off, dirs, 5, 1.0, 0.3) == pytest.approx(
        0.25, abs=1e-12
    )


def test_collapse_validation(master_directions):
    y = master_directions[6].realized_padded(3)
    with pytest.raises(ValueError, match="proportional"):
        collapse_experiment(master_directions, y, 0.1, [50])
    with pytest.raises(ValueError, match="alpha"):
        collapse_experiment(master_directions, np.array([0.05, 0.0, 0.0]), 0.1, [50])
    with pytest.raises(ValueError, match="exceeds"):
        collapse_experiment(master_directions, np.array([1.0, 0.7, 0.3]), 0.1, [10**6])
    with pytest.raises(ValueError, match="probe indices"):
        collapse_experiment(
            master_directions, np.array([1.0, 0.7, 0.3]), 0.1, [50], probe_indices=(0,)
        )


def test_collapse_rows_track_coverage(master_directions):
    rng = np.random.default_rng(42)
    y = rng.standard_normal(3)
    y /= np.linalg.norm(y)
    rows = collapse_experiment(master_directions, y, 0.1, [50, 200], tol=1e-10)
    assert [r.depth for r in rows] == [50, 200]
    assert rows[1].best_correlation >= rows[0].best_correlation
    for row in rows:
        assert row.converged
        assert row.l1_norm > 0.0
        assert len(row.coord_values) == 3
        assert row.solution.shape == (row.depth,)


def test_collapse_best_correlation_is_prefix_coverage(master_directions):
    y = np.random.default_rng(5).standard_normal(3)
    depths = [1, 50, 200, 4034]
    rows = collapse_experiment(master_directions, y, 0.1, depths)
    for row, depth in zip(rows, depths):
        assert row.best_correlation == coverage(master_directions[:depth], y)[1]
    short = collapse_experiment(master_directions, y[:2], 0.1, [1, 9])
    assert [r.best_correlation for r in short] == [
        coverage(master_directions[:depth], y[:2])[1] for depth in (1, 9)
    ]


def test_convergence_experiment_diagonal_matches_formula():
    n = 30
    op = diagonal(lambda k: 1.0 / k, n, domain_exponent=1.0)
    x_true = np.zeros(n)
    x_true[0] = 1.0
    deltas = [1e-1, 1e-2, 1e-3]
    rng = np.random.default_rng(42)  # the noise draw of seed=42
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    report = convergence_experiment(op, x_true, deltas, seed=42)
    assert report.guaranteed is True
    sigma = 1.0 / np.arange(1, n + 1)
    for row, delta in zip(report.rows, deltas):
        y = op.entries @ x_true + delta * u
        expected = np.array(
            [soft_threshold(s * v, delta) / s**2 for s, v in zip(sigma, y)]
        )
        assert row.error_l1 == pytest.approx(
            float(np.abs(expected - x_true).sum()), rel=1e-9, abs=1e-12
        )
        assert row.converged
    errors = [r.error_l1 for r in report.rows]
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_convergence_experiment_flags_failure_mode(master_directions):
    op = mazur(master_directions, 800, 3)
    x_true = np.zeros(800)
    x_true[0] = 1.0
    report = convergence_experiment(op, x_true, [1e-1, 1e-3], tol=1e-8)
    assert report.guaranteed is False
    assert len({r.support_index for r in report.rows}) > 1
