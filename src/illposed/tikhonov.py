"""l1-penalized least squares on operator truncations.

The functional is 0.5*||Ax - y||_2^2 + alpha*||x||_1 over the truncated
domain.  Minimizers are certified through the subdifferential condition: x is
optimal exactly when g = -(1/alpha) * A^T (Ax - y) equals sign(x_k) on the
support and lies in [-1, 1] off it.  Since p = y - Ax then satisfies
|a_j . p| <= alpha for every column, the condition is feasibility for the
dual problem, the projection of y onto that polytope.  The solver is the
dual active-set method of Goldfarb and Idnani (Math. Programming 27, 1983):
it walks from p = y to the projection, adding violated constraints, and
reads x off the multipliers of the active ones.  Every certificate reports
the verified residual, never the solver's own bookkeeping.

The fitted value Ax and the norm ||x||_1 are the same for every minimizer,
but x need not be unique (Tibshirani, Electron. J. Stat. 7, 2013); the
solver returns one whose support has at most n_rows indices.

Data y of the form lambda * zeta^(k) admits closed-form minimizers: a
soft-thresholded spike at k and, when the direction sequence also contains
-zeta^(k) at index l, a one-parameter family (base + gamma) e^(k) + gamma
e^(l) sharing the same objective value.  All coordinate indices in this
module are 1-based, matching direction indices.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .directions import DirectionSet, RationalDirection, coverage
from .operators import TruncatedOperator, mazur

__all__ = [
    "TikhonovProblem",
    "MinimizerCertificate",
    "soft_threshold",
    "objective",
    "optimality_residual",
    "solve",
    "closed_form_minimizer",
    "minimizer_family_distance",
    "CollapseRow",
    "collapse_experiment",
    "ConvergenceRow",
    "ConvergenceReport",
    "convergence_experiment",
]

SUPPORT_EPS = 1e-12


@dataclass(frozen=True)
class TikhonovProblem:
    """Operator truncation with l^1 domain, finite l^2 data, and finite alpha > 0.

    A non-finite alpha or data entry can read as a zero optimality residual
    and certify the starting point x = 0, so both are rejected here.
    """

    operator: TruncatedOperator
    y: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError("alpha must be a positive finite number")
        op = self.operator
        if op.domain_tag.family != "ell" or op.domain_tag.exponent != 1.0:
            raise ValueError(
                "problem domain must be tagged l^1; build the operator with an "
                "l^1 domain (for diagonal() pass domain_exponent=1.0)"
            )
        if op.codomain_tag.family != "ell" or op.codomain_tag.exponent != 2.0:
            raise ValueError("problem codomain must be tagged l^2")
        y = np.asarray(self.y, dtype=float)
        if y.shape != (op.n_rows,):
            raise ValueError(f"y must have length {op.n_rows}, got {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError("y must be finite")
        y = y.copy()
        y.flags.writeable = False
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class MinimizerCertificate:
    """Solver output: solution, objective, verified optimality residual.

    ``support`` lists 1-based indices whose magnitude exceeds 1e-12.
    ``iterations`` counts active-set steps.  A certificate with ``converged =
    False`` means the residual stayed above tolerance because the step budget
    ran out or only rounding was left; the values are still the last iterate.
    """

    x: np.ndarray
    objective: float
    residual: float
    iterations: int
    support: tuple[int, ...]
    converged: bool


def soft_threshold(v: float, t: float) -> float:
    """Shrink v toward zero by t: sign(v) * max(|v| - t, 0)."""
    if t < 0.0:
        raise ValueError("threshold must be nonnegative")
    mag = abs(v) - t
    if mag <= 0.0:
        return 0.0
    return math.copysign(mag, v)


def objective(problem: TikhonovProblem, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.operator.n_cols,):
        raise ValueError(
            f"x must have length {problem.operator.n_cols}, got {x.shape}"
        )
    misfit = problem.operator.entries @ x - problem.y
    return 0.5 * float(misfit @ misfit) + problem.alpha * float(np.abs(x).sum())


def _kkt_residual(corr: np.ndarray, x: np.ndarray, alpha: float) -> float:
    g = corr / alpha
    nz = x != 0.0
    res = 0.0
    if nz.any():
        res = float(np.max(np.abs(g[nz] - np.sign(x[nz]))))
    if (~nz).any():
        res = max(res, max(0.0, float(np.max(np.abs(g[~nz]))) - 1.0))
    return res


def optimality_residual(problem: TikhonovProblem, x: np.ndarray) -> float:
    """Worst-coordinate violation of the subdifferential optimality condition.

    Zero residual certifies a global minimizer of the convex functional.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.operator.n_cols,):
        raise ValueError(
            f"x must have length {problem.operator.n_cols}, got {x.shape}"
        )
    a = problem.operator.entries
    corr = a.T @ (problem.y - a @ x)
    return _kkt_residual(corr, x, problem.alpha)


def _back_substitute(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve r z = b for an upper-triangular r."""
    z = np.empty(len(b))
    for i in range(len(b) - 1, -1, -1):
        z[i] = (b[i] - r[i, i + 1 :] @ z[i + 1 :]) / r[i, i]
    return z


def _forward_substitute(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve r^T z = b for an upper-triangular r."""
    return _back_substitute(r.T[::-1, ::-1], b[::-1])[::-1]


def _drop_column(q: np.ndarray, r: np.ndarray, i: int):
    """QR factors of N with column i removed, given N = q r (Givens rotations)."""
    r = np.delete(r, i, axis=1)
    for j in range(i, r.shape[1]):
        h = math.hypot(r[j, j], r[j + 1, j])
        g = np.array([[r[j, j], r[j + 1, j]], [-r[j + 1, j], r[j, j]]]) / h
        r[j : j + 2, j:] = g @ r[j : j + 2, j:]
        q[:, j : j + 2] = q[:, j : j + 2] @ g.T
    return q[:, :-1], r[:-1]


def solve(
    problem: TikhonovProblem,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> MinimizerCertificate:
    """Minimize the functional by the dual active-set method of Goldfarb and Idnani.

    The dual problem projects y onto the polytope {p : |a_j . p| <= alpha};
    its solution is the residual y - Ax of every minimizer, and x_j = s_j u_j
    for the multipliers u_j >= 0 of the active constraints s_j a_j . p <=
    alpha.  The method starts at p = y (x = 0) with no active constraint.
    Each step adds the most violated constraint with its sign: a partial step
    toward it stops where an active multiplier reaches zero and drops that
    constraint, and a full step makes the new constraint active.  The
    multipliers come from a QR factorization of the active normals, updated
    as constraints enter and leave; after each full step they are recomputed
    from the factors, so at most n_rows columns carry mass.

    Each step starts from the residual y - Ax recomputed from scratch, and
    the loop stops once its optimality residual is <= tol.  A step is one
    added constraint together with the constraints dropped on the way.  The
    loop also stops when ``max_iter`` steps are spent, or when the most
    violated constraint is already active, so that only rounding keeps the
    residual above tol; both are flagged on the certificate, not raised.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    a = problem.operator.entries
    y = problem.y
    alpha = problem.alpha
    x = np.zeros(problem.operator.n_cols)
    active: list[int] = []
    signs, u = np.zeros(0), np.zeros(0)
    q, r = np.zeros((len(y), 0)), np.zeros((0, 0))  # active normals N = q r
    steps = 0
    converged = False
    while True:
        corr = a.T @ (y - a @ x)
        residual = _kkt_residual(corr, x, alpha)
        if residual <= tol:
            converged = True
            break
        j = int(np.argmax(np.abs(corr)))
        violation = abs(float(corr[j])) - alpha
        if steps >= max_iter or violation <= 0.0 or j in active:
            break  # budget spent, or rounding sets the residual's floor
        sign = math.copysign(1.0, corr[j])
        normal = sign * a[:, j]
        while True:
            d = q.T @ normal
            z = normal - q @ d  # the part of the normal no active one spans
            zz = float(z @ z)
            full = violation / zz if zz > 1e-24 * float(normal @ normal) else math.inf
            direction = _back_substitute(r, d)  # how the active multipliers fall
            ratios = np.full(len(u) + 1, math.inf)
            blocking = np.nonzero(direction > 0.0)[0]
            ratios[blocking] = u[blocking] / direction[blocking]
            drop = int(np.argmin(ratios))
            if full <= ratios[drop]:
                break
            u = np.delete(u - ratios[drop] * direction, drop)
            violation -= ratios[drop] * zz
            q, r = _drop_column(q, r, drop)
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
        w = _forward_substitute(r, np.full(len(active), alpha))
        u = np.maximum(_back_substitute(r, q.T @ y - w), 0.0)
        x[:] = 0.0
        x[active] = signs * u
        steps += 1
    support = tuple(int(j) + 1 for j in np.nonzero(np.abs(x) > SUPPORT_EPS)[0])
    return MinimizerCertificate(
        x=x,
        objective=objective(problem, x),
        residual=residual,
        iterations=steps,
        support=support,
        converged=converged,
    )


def _antipode_index(
    directions: Sequence[RationalDirection], k: int, limit: int | None = None
) -> int | None:
    """1-based index of the direction opposite to direction k, if enumerated.

    Only the first ``limit`` directions count, all of them when it is None.
    """
    directions = DirectionSet.of(directions)
    l = int(directions.antipodes[k - 1])
    stop = len(directions) if limit is None else min(limit, len(directions))
    return l if 0 < l <= stop else None


def closed_form_minimizer(
    directions: Sequence[RationalDirection],
    k: int,
    lam: float,
    alpha: float,
    gamma: float | None = None,
) -> np.ndarray:
    """Exact minimizer for data lambda * zeta^(k), as a length-len(directions) vector.

    Without gamma this is the soft-thresholded spike at k.  With gamma it is
    the two-component minimizer placed at k and at the antipodal index l;
    gamma must lie strictly inside (alpha - lambda, 0) for lambda > alpha,
    or (0, -alpha - lambda) for lambda < -alpha.
    """
    if not 1 <= k <= len(directions):
        raise ValueError(f"k must be in 1..{len(directions)}")
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative")
    x = np.zeros(len(directions))
    base = soft_threshold(lam, alpha)
    if gamma is None:
        x[k - 1] = base
        return x
    if base == 0.0:
        raise ValueError("two-component minimizers need |lambda| > alpha")
    l = _antipode_index(directions, k)
    if l is None:
        raise ValueError(f"no antipodal partner of direction {k} is enumerated")
    if lam > alpha:
        if not alpha - lam < gamma < 0.0:
            raise ValueError(
                f"gamma must lie in ({alpha - lam}, 0) for lambda > alpha"
            )
    else:
        if not 0.0 < gamma < -alpha - lam:
            raise ValueError(
                f"gamma must lie in (0, {-alpha - lam}) for lambda < -alpha"
            )
    x[k - 1] = base + gamma
    x[l - 1] = gamma
    return x


def minimizer_family_distance(
    x: np.ndarray,
    directions: Sequence[RationalDirection],
    k: int,
    lam: float,
    alpha: float,
) -> float:
    """l^1 distance from x to the set of closed-form minimizers for lambda*zeta^(k).

    The set is a single point when |lambda| <= alpha or when no antipodal
    partner of k lies within the truncation, and otherwise the closed segment
    traced by the two-component family (endpoints are the two opposite
    one-component spikes).
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    base = soft_threshold(lam, alpha)
    ki = k - 1
    l = _antipode_index(directions, k, limit=n)
    if base == 0.0 or l is None:
        target = np.zeros(n)
        target[ki] = base
        return float(np.abs(x - target).sum())
    li = l - 1
    lo, hi = sorted((0.0, -base))
    rest = float(np.abs(x).sum() - abs(x[ki]) - abs(x[li]))

    def dist_at(gamma: float) -> float:
        return abs(x[ki] - (base + gamma)) + abs(x[li] - gamma) + rest

    candidates = [lo, hi]
    for kink in (x[li], x[ki] - base):
        candidates.append(min(max(kink, lo), hi))
    return min(dist_at(g) for g in candidates)


@dataclass(frozen=True)
class CollapseRow:
    """One enumeration depth of the data-approximation experiment."""

    depth: int
    support_index: int
    support_size: int
    best_correlation: float
    beta: float
    l1_norm: float
    coord_values: tuple[float, ...]
    converged: bool
    solution: np.ndarray = field(repr=False, compare=False)

    CSV_FIELDS = (
        "depth",
        "support_index",
        "support_size",
        "best_correlation",
        "beta",
        "l1_norm",
    )


def collapse_experiment(
    directions: Sequence[RationalDirection],
    y: np.ndarray,
    alpha: float,
    depth_schedule: list[int],
    probe_indices: tuple[int, ...] = (1, 2, 3),
    tol: float = 1e-10,
) -> list[CollapseRow]:
    """Solve the problem on growing direction prefixes for fixed generic data.

    As the prefix deepens, the best-aligned direction tracks y ever more
    closely, so the minimizer's mass migrates to ever-later indices: every
    fixed coordinate decays to zero while the l^1 norm stays near
    ||y||_2 - alpha.  The data must not be proportional to any enumerated
    direction and must satisfy ||y||_2 > alpha.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    norm_y = float(np.linalg.norm(y))
    if norm_y <= alpha:
        raise ValueError("collapse experiment needs ||y||_2 > alpha")
    if not depth_schedule:
        raise ValueError("depth schedule is empty")
    max_depth = max(depth_schedule)
    if max_depth > len(directions):
        raise ValueError(
            f"depth {max_depth} exceeds enumeration length {len(directions)}"
        )
    if min(depth_schedule) < 1:
        raise ValueError("depths must be positive")
    if any(j < 1 for j in probe_indices):
        raise ValueError("probe indices must be >= 1")
    directions = DirectionSet.of(directions)
    _, top = coverage(directions[:max_depth], y)
    if top > 1.0 - 1e-9:
        raise ValueError("y is (numerically) proportional to an enumerated direction")
    rows: list[CollapseRow] = []
    for depth in depth_schedule:
        n_rows = max(len(y), int(directions.support[:depth].max()))
        op = mazur(directions, depth, n_rows)
        data = np.zeros(n_rows)
        data[: len(y)] = y
        cert = solve(TikhonovProblem(op, data, alpha), tol=tol)
        # coverage of the prefix: the columns of op against y / ||y||_2
        corr = float(np.max(op.entries.T @ (data / norm_y)))
        dominant = int(np.argmax(np.abs(cert.x))) + 1
        values = tuple(
            float(cert.x[j - 1]) if j <= depth else 0.0 for j in probe_indices
        )
        rows.append(
            CollapseRow(
                depth=depth,
                support_index=dominant,
                support_size=len(cert.support),
                best_correlation=corr,
                beta=float(cert.x[dominant - 1]),
                l1_norm=float(np.abs(cert.x).sum()),
                coord_values=values,
                converged=cert.converged,
                solution=cert.x,
            )
        )
    return rows


@dataclass(frozen=True)
class ConvergenceRow:
    delta: float
    alpha: float
    error_l1: float
    support_index: int
    support_size: int
    converged: bool

    CSV_FIELDS = (
        "delta",
        "alpha",
        "error_l1",
        "support_index",
        "support_size",
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Error table of a noise-to-zero run.

    ``guaranteed`` records whether the operator declares weak*-to-weak
    continuity, the hypothesis under which errors must decay to zero; runs
    without it are still performed to exhibit the failure mode.
    """

    guaranteed: bool
    rows: list[ConvergenceRow]


def convergence_experiment(
    op: TruncatedOperator,
    x_true: np.ndarray,
    delta_schedule: list[float],
    alpha_rule=None,
    seed: int = 42,
    tol: float = 1e-10,
) -> ConvergenceReport:
    """Perturb exact data along a fixed direction and track solution error.

    For each delta the data is A x_true + delta * u with a unit vector u
    drawn once from a standard normal seeded by ``seed``, alpha =
    alpha_rule(delta) (identity by default), and the row records the l^1
    distance of the minimizer from x_true together with its dominant support
    index.
    """
    x_true = np.asarray(x_true, dtype=float)
    if x_true.shape != (op.n_cols,):
        raise ValueError(f"x_true must have length {op.n_cols}")
    if not delta_schedule:
        raise ValueError("delta schedule is empty")
    if alpha_rule is None:
        alpha_rule = lambda d: d
    u = np.random.default_rng(seed).standard_normal(op.n_rows)
    u = u / np.linalg.norm(u)
    y_exact = op.entries @ x_true
    rows: list[ConvergenceRow] = []
    for delta in delta_schedule:
        if delta < 0.0:
            raise ValueError("deltas must be nonnegative")
        alpha = float(alpha_rule(delta))
        data = y_exact + delta * u
        cert = solve(TikhonovProblem(op, data, alpha), tol=tol)
        dominant = int(np.argmax(np.abs(cert.x))) + 1
        rows.append(
            ConvergenceRow(
                delta=float(delta),
                alpha=alpha,
                error_l1=float(np.abs(cert.x - x_true).sum()),
                support_index=dominant,
                support_size=len(cert.support),
                converged=cert.converged,
            )
        )
    return ConvergenceReport(
        guaranteed=op.attributes.weakstar_to_weak_continuous is True,
        rows=rows,
    )
