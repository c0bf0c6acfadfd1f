import math
import re

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
from illposed import tikhonov
from illposed.tikhonov import (
    SUPPORT_EPS,
    MinimizerCertificate,
    TikhonovProblem,
    _kkt_residual,
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
    for t in (-0.1, float("nan")):  # a NaN threshold fails the check, not the result
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            soft_threshold(1.0, t)
    for v in (math.nan, math.inf, -math.inf):  # so does a value that is not finite
        with pytest.raises(ValueError, match="value must not be NaN or infinite"):
            soft_threshold(v, 0.3)


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


@pytest.mark.parametrize("measure", [objective, optimality_residual])
def test_objective_and_residual_reject_x_of_the_wrong_length(b200, measure):
    with pytest.raises(ValueError, match="x must have length 200"):
        measure(TikhonovProblem(b200, np.ones(3), 0.1), np.zeros(199))


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
    directions = enumerate_directions(EnumerationParams(*bounds))
    y = np.random.default_rng(seed).standard_normal(size)
    y /= np.linalg.norm(y)
    (row,) = collapse_experiment(directions, y, 0.1, [depth])
    assert row["converged"]
    problem = TikhonovProblem(mazur(directions, depth, size), y, 0.1)
    x = solve(problem).x
    assert row["beta"] == x[row["support_index"] - 1]  # the row reports this solution
    assert optimality_residual(problem, x) <= 1e-10
    assert 1 <= row["support_size"] <= size


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
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        solve(problem, max_iter=0)


# The solver as it was before its factors moved into preallocated buffers,
# kept as the reference for the differential tests below.  The body of
# reference_solve is verbatim but for its three products, which it takes from
# the operator's apply, adjoint and column as solve does; only the names of
# its three helpers carry the reference_ prefix.


def reference_back_substitute(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve r z = b for an upper-triangular r."""
    z = np.empty(len(b))
    for i in range(len(b) - 1, -1, -1):
        z[i] = (b[i] - r[i, i + 1 :] @ z[i + 1 :]) / r[i, i]
    return z


def reference_forward_substitute(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve r^T z = b for an upper-triangular r."""
    return reference_back_substitute(r.T[::-1, ::-1], b[::-1])[::-1]


def reference_drop_column(q: np.ndarray, r: np.ndarray, i: int):
    """QR factors of N with column i removed, given N = q r (Givens rotations)."""
    r = np.delete(r, i, axis=1)
    for j in range(i, r.shape[1]):
        h = math.hypot(r[j, j], r[j + 1, j])
        g = np.array([[r[j, j], r[j + 1, j]], [-r[j + 1, j], r[j, j]]]) / h
        r[j : j + 2, j:] = g @ r[j : j + 2, j:]
        q[:, j : j + 2] = q[:, j : j + 2] @ g.T
    return q[:, :-1], r[:-1]


def reference_solve(
    problem: TikhonovProblem,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> MinimizerCertificate:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be a positive finite number")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    op = problem.operator
    y = problem.y
    alpha = problem.alpha
    x = np.zeros(problem.operator.n_cols)
    active: list[int] = []
    signs, u = np.zeros(0), np.zeros(0)
    q, r = np.zeros((len(y), 0)), np.zeros((0, 0))  # active normals N = q r
    steps = 0
    converged = False
    while True:
        misfit = y - op.apply(x)
        corr = op.adjoint(misfit)
        residual = _kkt_residual(corr, x, alpha)
        if residual <= tol:
            converged = True
            break
        j = int(np.argmax(np.abs(corr)))
        violation = abs(float(corr[j])) - alpha
        if steps >= max_iter or violation <= 0.0 or j in active:
            break  # budget spent, or rounding sets the residual's floor
        sign = math.copysign(1.0, corr[j])
        normal = sign * op.column(j)
        while True:
            d = q.T @ normal
            z = normal - q @ d  # the part of the normal no active one spans
            zz = float(z @ z)
            full = violation / zz if zz > 1e-24 * float(normal @ normal) else math.inf
            direction = reference_back_substitute(r, d)  # how the active multipliers fall
            ratios = np.full(len(u) + 1, math.inf)
            blocking = np.nonzero(direction > 0.0)[0]
            ratios[blocking] = u[blocking] / direction[blocking]
            drop = int(np.argmin(ratios))
            if full <= ratios[drop]:
                break
            u = np.delete(u - ratios[drop] * direction, drop)
            violation -= ratios[drop] * zz
            q, r = reference_drop_column(q, r, drop)
            del active[drop]
            signs = np.delete(signs, drop)
        if full == math.inf:
            break  # the dual is infeasible, impossible for alpha > 0
        rho = math.sqrt(zz)
        q = np.column_stack([q, z / rho])
        grown = np.zeros((len(d) + 1, len(d) + 1))
        grown[:-1, :-1], grown[:, -1] = r, np.append(d, rho)
        r = grown
        active.append(j)
        signs = np.append(signs, sign)
        # multipliers of the new active set: N u = y - p with N^T p = alpha
        w = reference_forward_substitute(r, np.full(len(active), alpha))
        u = np.maximum(reference_back_substitute(r, q.T @ y - w), 0.0)
        x[:] = 0.0
        x[active] = signs * u
        steps += 1
    support = tuple(int(j) + 1 for j in np.nonzero(np.abs(x) > SUPPORT_EPS)[0])
    return MinimizerCertificate(
        x=x,
        # the objective at x, from the misfit of the last check: y - Ax is
        # exactly -(Ax - y), so this equals objective(problem, x) to the bit
        objective=0.5 * float(misfit @ misfit) + alpha * float(np.abs(x).sum()),
        residual=residual,
        iterations=steps,
        support=support,
        converged=converged,
    )


def _bytes(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def assert_same_path(problem, antipodes=None, **kwargs):
    """solve and reference_solve take the same steps to the same support.

    On 3-row operators every product runs the same kernel on both sides, so
    x, objective and residual are equal to the byte.  With more rows numpy
    picks another kernel for some products by the strides of Q, which may
    move the last bits.  A direction k and its antipode l have a_l = -a_k,
    so |corr_k| = |corr_l| up to rounding, and such a move can send the mass
    of k to l with the opposite sign: the same fit, objective and steps.
    When the 1-based ``antipodes`` of the columns are given, supports are
    compared up to that swap.
    """
    got, want = solve(problem, **kwargs), reference_solve(problem, **kwargs)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    if antipodes is None or problem.operator.n_rows == 3:
        assert got.support == want.support
    else:
        pair = lambda support: sorted(min(k, antipodes[k - 1] or k) for k in support)
        assert pair(got.support) == pair(want.support)
    assert got.objective == pytest.approx(want.objective, rel=1e-12, abs=0.0)
    if problem.operator.n_rows == 3:
        assert _bytes(got.x) == _bytes(want.x)
        assert _bytes(got.objective) == _bytes(want.objective)
        assert _bytes(got.residual) == _bytes(want.residual)
    return got


ROW_ENUMERATIONS = {3: (3, 8), 4: (4, 4), 5: (5, 3)}


@pytest.fixture(scope="module")
def row_directions():
    return {
        rows: enumerate_directions(EnumerationParams(*bounds))
        for rows, bounds in ROW_ENUMERATIONS.items()
    }


@settings(max_examples=150, deadline=None)
@given(
    rows=st.sampled_from(sorted(ROW_ENUMERATIONS)),
    depth_fraction=st.floats(min_value=0.0, max_value=1.0),
    kind=st.sampled_from(["generic", "spike"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.floats(min_value=0.25, max_value=16.0),
    alpha=st.floats(min_value=0.01, max_value=1.0),
)
def test_solve_follows_the_reference_on_direction_operators(
    row_directions, rows, depth_fraction, kind, seed, scale, alpha
):
    directions = row_directions[rows]
    depth = max(1, round(depth_fraction * min(len(directions), 3000)))
    rng = np.random.default_rng(seed)
    if kind == "generic":
        y = rng.standard_normal(rows)
        y *= scale * alpha / np.linalg.norm(y)
    else:  # lambda * zeta^(k), with lambda of either sign
        k = int(rng.integers(1, depth + 1))
        lam = scale * alpha * rng.choice([-1.0, 1.0])
        y = lam * directions[k - 1].realized_padded(rows)
    problem = TikhonovProblem(mazur(directions, depth, rows), y, alpha)
    assert_same_path(problem, directions[:depth].antipodes)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["diag", "inj"]),
    n=st.integers(min_value=2, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    delta=st.floats(min_value=1e-4, max_value=0.5),
)
def test_solve_follows_the_reference_on_wide_operators(name, n, seed, delta):
    if name == "diag":
        op = diagonal(lambda k: 1.0 / k, n, domain_exponent=1.0)
    else:
        op = injective_counterexample(n)
    u = np.random.default_rng(seed).standard_normal(n)
    u /= np.linalg.norm(u)
    assert_same_path(TikhonovProblem(op, op.entries[:, 0] + delta * u, delta))


@pytest.mark.parametrize(
    "name, n, delta", [("inj", 400, 1e-5), ("inj", 200, 1e-3), ("diag", 400, 1e-3)]
)
def test_wide_solves_keep_the_reference_bytes(name, n, delta):
    # the noise draw of the convergence command (seed 42), whose README rows
    # and certificates must not move
    if name == "diag":
        op = diagonal(lambda k: 1.0 / k, n, domain_exponent=1.0)
    else:
        op = injective_counterexample(n)
    u = np.random.default_rng(42).standard_normal(n)
    u /= np.linalg.norm(u)
    problem = TikhonovProblem(op, op.entries[:, 0] + delta * u, delta)
    got, want = solve(problem), reference_solve(problem)
    assert got.iterations == want.iterations and got.support == want.support
    assert _bytes(got.x) == _bytes(want.x)
    assert _bytes([got.objective, got.residual]) == _bytes([want.objective, want.residual])
    # products from the dense matrix take the same steps to the same bytes of
    # x and the same verdict; inj's summing row may round its sum differently,
    # which moves the objective within 1e-12 and the residual by rounding
    # divided by alpha, while diag keeps every byte
    plain = TruncatedOperator(op.entries, op.domain_tag, op.codomain_tag, op.attributes, "plain")
    dense = solve(TikhonovProblem(plain, problem.y, delta))
    assert dense.iterations == got.iterations and _bytes(dense.x) == _bytes(got.x)
    assert dense.converged == got.converged
    assert dense.objective == pytest.approx(got.objective, rel=1e-12, abs=0.0)
    if name == "diag":
        assert _bytes([dense.objective, dense.residual]) == _bytes([got.objective, got.residual])


@pytest.mark.parametrize("spare", [0, 2])
@pytest.mark.parametrize("size", range(2, 9))
def test_drop_column_in_place_keeps_an_orthonormal_qr(size, spare):
    # the buffers hold NaN everywhere solve leaves them unwritten: below R's
    # diagonal and past the m = size active columns (cap = size + spare)
    rng = np.random.default_rng(size)
    cap = size + spare
    n_rows = cap + 1
    normals = rng.standard_normal((n_rows, size))
    factor_q, factor_r = np.linalg.qr(normals)
    for i in range(size):
        q, r = np.full((n_rows, cap), np.nan), np.full((cap, cap), np.nan)
        q[:, :size] = factor_q
        upper = np.triu_indices(size)
        r[upper] = factor_r[upper]
        tikhonov._drop_column(q, r, size, i)
        kept_q, kept_r = q[:, : size - 1], np.triu(r[: size - 1, : size - 1])
        assert not np.isnan(kept_q).any() and not np.isnan(kept_r).any()
        assert np.abs(kept_q.T @ kept_q - np.eye(size - 1)).max() <= 1e-14
        rebuilt = kept_q @ kept_r
        assert np.abs(rebuilt - np.delete(normals, i, axis=1)).max() <= 1e-14 * np.abs(normals).max()


def test_a_solve_that_drops_constraints_is_pinned(master_directions, monkeypatch):
    # generic data on the depth-200 prefix: eight steps, five of them dropping
    # an active constraint on the way to a three-column support
    drops = []
    in_place = tikhonov._drop_column
    monkeypatch.setattr(tikhonov, "_drop_column", lambda *args: drops.append(in_place(*args)))
    y = np.random.default_rng(3).standard_normal(3)
    cert = assert_same_path(TikhonovProblem(mazur(master_directions, 200, 3), y, 0.1))
    assert len(drops) == 5
    assert cert.converged and cert.iterations == 8
    assert cert.support == (38, 58, 181)


def mask_kkt_residual(corr, x, alpha):
    """The boolean-mask form of the optimality residual, kept as the reference."""
    g = corr / alpha
    nz = x != 0.0
    res = 0.0
    if nz.any():
        res = float(np.max(np.abs(g[nz] - np.sign(x[nz]))))
    if (~nz).any():
        res = max(res, max(0.0, float(np.max(np.abs(g[~nz]))) - 1.0))
    return res


@st.composite
def kkt_cases(draw):
    """x with any support size from none to dense, -0.0 entries off it, and a
    correlation that is free, exactly optimal (a spike) or optimal plus noise."""
    n = draw(st.integers(min_value=1, max_value=12))
    alpha = 10.0 ** draw(st.floats(min_value=-8.0, max_value=1.0))
    size = draw(st.integers(min_value=0, max_value=n))
    on = draw(st.permutations(range(n)))[:size]
    x = np.array(draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n)))
    magnitude = st.floats(min_value=1e-6, max_value=1e3)
    x[on] = [draw(magnitude) * draw(st.sampled_from([1.0, -1.0])) for _ in on]
    unit = st.floats(min_value=-1.0, max_value=1.0)
    kind = draw(st.sampled_from(["free", "spike", "noisy spike"]))
    if kind == "free":
        corr = alpha * np.array(draw(st.lists(
            st.floats(min_value=-3.0, max_value=3.0), min_size=n, max_size=n)))
    else:
        corr = alpha * np.array(draw(st.lists(unit, min_size=n, max_size=n)))
        corr[on] = alpha * np.sign(x[on])
        if kind == "noisy spike":
            scale = 10.0 ** draw(st.floats(min_value=-16.0, max_value=-2.0))
            noise = draw(st.lists(unit, min_size=n, max_size=n))
            corr = corr + alpha * scale * np.array(noise)
    return corr, x, alpha


@settings(max_examples=400, deadline=None)
@given(kkt_cases())
def test_kkt_residual_equals_the_mask_formula_to_the_bit(case):
    corr, x, alpha = case
    got = np.float64(_kkt_residual(corr, x, alpha)).tobytes()
    assert got == np.float64(mask_kkt_residual(corr, x, alpha)).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index", [0, 1, 2], ids=["off", "on", "off-negative-zero"])
def test_non_finite_correlation_never_certifies(bad, index):
    x = np.array([0.0, 0.5, -0.0, -1.5])  # support {1, 3}
    corr = np.array([0.1, 0.3, -0.2, -0.3])
    assert _kkt_residual(corr, x, 0.3) == 0.0
    corr[index] = bad
    residual = _kkt_residual(corr, x, 0.3)
    # an off-support NaN was once dropped by max(0.0, nan), certifying x
    for tol in (1e-12, 1.0, 1e300):
        assert not residual <= tol


GRID_INDICES = (1, 5, 17, 60, 150, 1000, 2017, 4034)
GRID_MULTIPLIERS = (-10.0, -2.0, -0.5, 0.5, 2.0, 10.0)


def test_grid_certificates_equal_the_recomputed_values(master_directions):
    op = mazur(master_directions, len(master_directions), 3)
    for k in GRID_INDICES:
        for m in GRID_MULTIPLIERS:
            problem = problem_for(op, master_directions, k, m * ALPHA)
            cert = solve(problem, tol=1e-12, max_iter=50000)
            assert cert.objective == objective(problem, cert.x)
            assert cert.residual == optimality_residual(problem, cert.x)


@pytest.mark.parametrize(
    "seed, size, bounds, depths",
    [
        (42, 3, (3, 8), (50, 200, 800, 3200)),
        (4, 3, (3, 8), (400, 800, 4034)),
        (1, 4, (4, 6), (50, 400, 3200, 6400)),
    ],
)
def test_collapse_certificates_equal_the_recomputed_values(seed, size, bounds, depths):
    directions = enumerate_directions(EnumerationParams(*bounds))
    y = np.random.default_rng(seed).standard_normal(size)
    y /= np.linalg.norm(y)
    for depth in depths:
        n_rows = max(size, int(directions.support[:depth].max()))
        data = np.zeros(n_rows)
        data[:size] = y
        problem = TikhonovProblem(mazur(directions, depth, n_rows), data, 0.1)
        cert = solve(problem)
        assert cert.objective == objective(problem, cert.x)
        assert cert.residual == optimality_residual(problem, cert.x)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_solve_rejects_a_tolerance_that_is_not_positive_and_finite(b200, tol):
    problem = TikhonovProblem(b200, np.array([1.0, 0.5, 0.2]), 0.1)
    with pytest.raises(ValueError, match="tol must be a positive finite number"):
        solve(problem, tol=tol)


@pytest.mark.parametrize("y", [[1e200, 3e200, 2e200], [1e154, 1e154, 0.0]])
def test_data_whose_objective_overflows_is_rejected(b200, master_directions, y):
    with pytest.raises(ValueError, match="overflows"):
        TikhonovProblem(b200, np.array(y), 1e199)
    with pytest.raises(ValueError, match="overflows"):
        collapse_experiment(master_directions, np.array(y), 1e199, [50])


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
        d.index for d in dirs if d.canon == tuple(-c for c in dirs[4].canon)
    )
    expected = spike(200, 5, 0.2) + spike(200, anti, -0.5)
    np.testing.assert_allclose(x, expected, atol=1e-15)

    x = closed_form_minimizer(dirs, 5, -1.0, 0.3, gamma=0.5)
    expected = spike(200, 5, -0.2) + spike(200, anti, 0.5)
    np.testing.assert_allclose(x, expected, atol=1e-15)


def test_closed_form_gamma_validation(master_directions):
    dirs = master_directions[:200]
    for lam, gamma in [
        (1.0, 0.1),  # wrong side
        (1.0, -0.8),  # beyond interval
        (1.0, 0.0),  # open endpoint gamma = 0
        (1.0, -soft_threshold(1.0, 0.3)),  # open endpoint gamma = -base
        (-1.0, -0.1),
        (-1.0, 0.8),
        (-1.0, 0.0),
        (-1.0, -soft_threshold(-1.0, 0.3)),
    ]:
        lo, hi = sorted((0.0, -soft_threshold(lam, 0.3)))
        with pytest.raises(ValueError, match=re.escape(f"gamma must lie in ({lo}, {hi})")):
            closed_form_minimizer(dirs, 5, lam, 0.3, gamma=gamma)
    with pytest.raises(ValueError):
        closed_form_minimizer(dirs, 5, 0.2, 0.3, gamma=-0.1)  # no family at all
    with pytest.raises(ValueError, match="antipodal"):
        closed_form_minimizer(dirs[:1], 1, 1.0, 0.3, gamma=-0.5)


@pytest.mark.parametrize(
    "k, alpha, message", [(0, 0.3, "k must be in 1..200"), (201, 0.3, "k must be in 1..200"),
                          (5, -0.1, "alpha must be nonnegative"), (-3, 0.3, "k must be in 1..200"),
                          (5, float("nan"), "alpha must be nonnegative"),
                          (250, 0.3, "k must be in 1..200"),
                          (5, 0.3, "value must not be NaN")]
)
def test_closed_form_rejects_an_index_or_alpha_out_of_range(master_directions, k, alpha, message):
    for lam in (math.nan, math.inf, -math.inf) if message.startswith("value") else (1.0,):
        with pytest.raises(ValueError, match=re.escape(message)):
            closed_form_minimizer(master_directions[:200], k, lam, alpha)
    if message.startswith("k must"):
        # the family distance checks k too: unchecked, 0 and -3 read a spike from the end of x,
        # and past the set's end a longer x reads antipodes the set does not have
        for width in (200, 300):
            x = np.zeros(width)
            x[16], x[199] = 0.7, 5.0
            with pytest.raises(ValueError, match=re.escape(message)):
                minimizer_family_distance(x, master_directions[:200], k, 1.0, alpha)


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
    for lam in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="value must not be NaN or infinite"):
            minimizer_family_distance(principal, dirs, 5, lam, 0.3)


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
    # a repeated index would merge its two coord_J columns into one key
    with pytest.raises(ValueError, match="probe indices must be distinct"):
        collapse_experiment(
            master_directions, np.array([1.0, 0.7, 0.3]), 0.1, [50], probe_indices=(1, 1)
        )
    with pytest.raises(ValueError, match="depth schedule is empty"):
        collapse_experiment(master_directions, np.array([1.0, 0.7, 0.3]), 0.1, [])
    with pytest.raises(ValueError, match="depths must be positive"):
        collapse_experiment(master_directions, np.array([1.0, 0.7, 0.3]), 0.1, [50, 0])
    # alpha is checked first, whatever y and the depths
    for alpha in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha must be a positive finite number"):
            collapse_experiment(master_directions, np.array([1.0, 2.0, 3.0]), alpha, [4034])


def test_collapse_rows_track_coverage(master_directions):
    rng = np.random.default_rng(42)
    y = rng.standard_normal(3)
    y /= np.linalg.norm(y)
    rows = collapse_experiment(master_directions, y, 0.1, [50, 200], tol=1e-10)
    assert [r["depth"] for r in rows] == [50, 200]
    assert rows[1]["best_correlation"] >= rows[0]["best_correlation"]
    for row in rows:
        assert row["converged"]
        assert row["l1_norm"] > 0.0
        assert [key for key in row if key.startswith("coord_")] == ["coord_1", "coord_2", "coord_3"]
        # the row reports the minimizer of its own depth, to the bit
        x = solve(TikhonovProblem(mazur(master_directions, row["depth"], 3), y, 0.1)).x
        assert x.shape == (row["depth"],)
        assert row["beta"] == x[row["support_index"] - 1]


def _prefix_maxima(directions, y, depths):
    # the largest correlation over the first `depth` entries of one product
    # over the deepest prefix, as coverage normalizes y
    yhat = np.zeros(directions.realized.shape[1])
    yhat[: len(y)] = y / np.linalg.norm(y)
    corr = directions[: max(depths)].realized @ yhat
    return [float(corr[:depth].max()) for depth in depths]


def test_collapse_best_correlation_is_prefix_coverage(master_directions):
    y = np.random.default_rng(5).standard_normal(3)
    depths = [1, 50, 200, 4034]
    rows = collapse_experiment(master_directions, y, 0.1, depths)
    assert [r["best_correlation"] for r in rows] == _prefix_maxima(master_directions, y, depths)
    assert rows[-1]["best_correlation"] == coverage(master_directions, y)[1]
    short = collapse_experiment(master_directions, y[:2], 0.1, [9, 1])
    assert [r["best_correlation"] for r in short] == _prefix_maxima(
        master_directions, y[:2], [9, 1]
    )
    # direction 890 is the best-aligned one at depths 890, 891 and 4034, so
    # all three rows read the same bits, though a product over the first 890
    # directions alone can round its correlation differently (BLAS tail rows)
    y = np.random.default_rng(1).standard_normal(3)
    assert coverage(master_directions, y)[0] == 890
    shared = collapse_experiment(master_directions, y, 0.1, [4034, 890, 891])
    assert {r["best_correlation"] for r in shared} == {coverage(master_directions, y)[1]}


def test_convergence_experiment_diagonal_matches_formula():
    n = 30
    op = diagonal(lambda k: 1.0 / k, n, domain_exponent=1.0)
    x_true = np.zeros(n)
    x_true[0] = 1.0
    deltas = [1e-1, 1e-2, 1e-3]
    rng = np.random.default_rng(42)  # the noise draw of seed=42
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    rows = convergence_experiment(op, x_true, deltas, seed=42)
    sigma = 1.0 / np.arange(1, n + 1)
    for row, delta in zip(rows, deltas):
        y = op.entries @ x_true + delta * u
        expected = np.array(
            [soft_threshold(s * v, delta) / s**2 for s, v in zip(sigma, y)]
        )
        assert row["error_l1"] == pytest.approx(
            float(np.abs(expected - x_true).sum()), rel=1e-9, abs=1e-12
        )
        assert row["converged"]
    errors = [r["error_l1"] for r in rows]
    assert all(b < a for a, b in zip(errors, errors[1:]))


@pytest.mark.parametrize(
    "deltas, alpha_factor",
    [
        ([1e-1, 1e-2, 0.0], 1.0),
        ([1e-1, 1e-2, -1e-3], 1.0),
        ([1e-1, 1e-2, math.nan], 1.0),
        ([1e-1, 1e-2, math.inf], 1.0),
        ([1e-1, 1e-2, 1e308], 10.0),  # alpha overflows
        ([1e-1, 1e-2, 1e-300], 1e-300),  # alpha underflows to 0
        ([1e-1, 1e-2], 0.0),
        ([1e-1, 1e-2], -1.0),
        ([1e-1, 1e-2], math.nan),
    ],
)
def test_convergence_experiment_checks_every_delta_before_any_solve(
    monkeypatch, deltas, alpha_factor
):
    op = diagonal(lambda k: 1.0 / k, 10, domain_exponent=1.0)
    x_true = spike(10, 1, 1.0)
    solves = []
    monkeypatch.setattr(tikhonov, "solve", lambda *args, **kwargs: solves.append(args))
    with pytest.raises(ValueError, match="positive finite"):
        convergence_experiment(op, x_true, deltas, alpha_factor=alpha_factor)
    assert solves == []


def test_convergence_experiment_validation():
    op = diagonal(lambda k: 1.0 / k, 10, domain_exponent=1.0)
    with pytest.raises(ValueError, match="x_true must have length 10"):
        convergence_experiment(op, np.ones(9), [1e-2])
    with pytest.raises(ValueError, match="delta schedule is empty"):
        convergence_experiment(op, spike(10, 1, 1.0), [])


def test_convergence_experiment_flags_failure_mode(master_directions):
    op = mazur(master_directions, 800, 3)
    x_true = np.zeros(800)
    x_true[0] = 1.0
    rows = convergence_experiment(op, x_true, [1e-1, 1e-3], tol=1e-8)
    assert len({r["support_index"] for r in rows}) > 1


def test_collapse_rejects_data_along_a_direction_of_its_prefix(master_directions):
    # the check reads the realized rows of the deepest prefix; y may be longer
    y = master_directions[39].realized_padded(5)
    with pytest.raises(ValueError, match="proportional"):
        collapse_experiment(master_directions, y, 0.1, [30, 40])
    (row,) = collapse_experiment(master_directions, y, 0.1, [30])
    assert row["depth"] == 30 and row["converged"]
