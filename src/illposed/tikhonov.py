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

The two experiments return report rows, one dict per solve whose keys are
the report's columns in order: ``collapse_experiment`` rows hold depth,
support_index, support_size, best_correlation, beta, l1_norm, one coord_J
per probe index J and converged; ``convergence_experiment`` rows hold delta,
alpha, error_l1, support_index, support_size and converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .directions import DirectionSet, _correlations
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
    "collapse_experiment",
    "convergence_experiment",
]

SUPPORT_EPS = 1e-12


def _check_data(y: np.ndarray) -> None:
    """Reject data that is not finite or whose objective at x = 0 overflows."""
    # np.vdot warns of no overflow; the sum is finite iff y is and its square fits
    if not math.isfinite(0.5 * float(np.vdot(y, y))):
        if not np.all(np.isfinite(y)):
            raise ValueError("y must be finite")
        raise ValueError("y is too large: 0.5*||y||_2^2 overflows")


@dataclass(frozen=True)
class TikhonovProblem:
    """Operator truncation with l^1 domain, finite l^2 data, and finite alpha > 0.

    A non-finite alpha or data entry can read as a zero optimality residual
    and certify the starting point x = 0, so both are rejected here, as is
    data whose objective at x = 0 is already infinite.
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
        y = np.array(self.y, dtype=float)
        if y.shape != (op.n_rows,):
            raise ValueError(f"y must have length {op.n_rows}, got {y.shape}")
        _check_data(y)
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
    if not t >= 0.0:
        raise ValueError("threshold must be nonnegative")
    if not math.isfinite(v):
        raise ValueError("value must not be NaN or infinite")
    mag = abs(v) - t
    if mag <= 0.0:
        return 0.0
    return math.copysign(mag, v)


def objective(problem: TikhonovProblem, x: np.ndarray) -> float:
    op = problem.operator
    x = np.asarray(x, dtype=float)
    if x.shape != (op.n_cols,):
        raise ValueError(f"x must have length {op.n_cols}, got {x.shape}")
    misfit = op.apply(x)
    misfit -= problem.y
    return 0.5 * float(misfit @ misfit) + problem.alpha * float(np.abs(x).sum())


def _peak(corr: np.ndarray) -> int:
    """First index of the largest |corr_j|, from one argmax and one argmin (both stop at a NaN)."""
    hi, lo = int(corr.argmax()), int(corr.argmin())
    top, bottom = corr.item(hi), -corr.item(lo)
    return lo if bottom > top or (bottom == top and lo < hi) else hi


def _kkt_residual(
    corr: np.ndarray, x: np.ndarray, alpha: float, peak: int | None = None, on: list[int] | None = None
) -> float:
    """max_j of |corr_j/alpha - sign x_j| on the support and |corr_j/alpha| - 1 off it.

    The support (x_j != 0, so -0.0 is off it) is read from ``on``, 0-based
    indices in any order that hold every nonzero of x (``solve`` passes those
    it last wrote), or else found by a scan.  Its term is taken over Python
    floats, whose operations round as numpy's do; a NaN x_j has a NaN sign,
    and a NaN term wins the maximum as in ``np.max``.  The second term is
    taken over every j: on the support |g| - 1 <= |g - sign x_j|, also after
    rounding, so those j never raise the maximum.  The largest |corr_j| (at
    index ``peak`` when given) is divided by alpha once: dividing by alpha > 0
    is monotone, so this is the largest |corr_j/alpha| to the bit.  A NaN in
    corr makes the residual NaN, which no tolerance accepts.
    """
    res = 0.0
    for j in (x != 0.0).nonzero()[0].tolist() if on is None else on:
        v = x.item(j)
        if v != 0.0:
            term = abs(corr.item(j) / alpha - (v if math.isnan(v) else math.copysign(1.0, v)))
            if term > res or math.isnan(term):
                res = term
    excess = abs(corr.item(_peak(corr) if peak is None else peak)) / alpha - 1.0
    if excess > res or math.isnan(excess):
        res = excess
    return res


def optimality_residual(problem: TikhonovProblem, x: np.ndarray) -> float:
    """Worst-coordinate violation of the subdifferential optimality condition.

    Zero residual certifies a global minimizer of the convex functional.
    """
    op = problem.operator
    x = np.asarray(x, dtype=float)
    if x.shape != (op.n_cols,):
        raise ValueError(f"x must have length {op.n_cols}, got {x.shape}")
    misfit = op.apply(x)
    np.subtract(problem.y, misfit, out=misfit)
    return _kkt_residual(op.adjoint(misfit), x, problem.alpha)


def _back_substitute(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve r z = b for an upper-triangular r."""
    z = np.empty(len(b))
    for i in range(len(b) - 1, -1, -1):
        z[i] = (b[i] - r[i, i + 1 :].dot(z[i + 1 :])) / r[i, i]
    return z


def _drop_column(q: np.ndarray, r: np.ndarray, m: int, i: int) -> None:
    """Remove column i of N = q[:, :m] r[:m, :m] in place; r below its diagonal is never read."""
    r[:m, i : m - 1] = r[:m, i + 1 : m]
    for j in range(i, m - 1):
        h = math.hypot(r[j, j], r[j + 1, j])
        g = np.array([[r[j, j], r[j + 1, j]], [-r[j + 1, j], r[j, j]]]) / h
        r[j : j + 2, j : m - 1] = g @ r[j : j + 2, j : m - 1]
        q[:, j : j + 2] = q[:, j : j + 2] @ g.T


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
    multipliers come from a QR factorization N = Q R of the m active normals,
    recomputed after each full step, so at most n_rows columns carry mass.
    Q and R are n_rows x cap and cap x cap buffers, cap = min(n_rows, n_cols),
    allocated once per solve: a new constraint writes one column of each, and
    a dropped one is rotated out in place (Givens rotations, Golub and Van
    Loan, *Matrix Computations*, section 6.5).

    No bookkeeping decides the stop.  Each check recomputes the residual y -
    Ax from scratch (y itself at x = 0), and the loop stops as converged only
    once that check's optimality residual is <= tol.  A step is one added
    constraint together with the constraints dropped on the way.  The loop
    also stops when ``max_iter`` steps are spent, or when the most violated
    constraint is already active, so that only rounding keeps the residual
    above tol; both are flagged on the certificate, not raised.

    The support of x is read from the indices the last step wrote: each
    check and the certificate's ``support`` take it from them, and only they
    are cleared before the next write, so no step searches x for its nonzeros.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be a positive finite number")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    op = problem.operator
    y = problem.y
    alpha = problem.alpha
    cap = min(op.n_rows, op.n_cols)
    q, r = np.empty((len(y), cap)), np.empty((cap, cap))  # N = q[:, :m] r[:m, :m]
    u, signs, w = np.empty((3, cap))
    active: list[int] = []
    written: list[int] = []  # the indices of x set by the last write, a superset of its support
    m = kept = 0  # w[:kept] solves r[:kept, :kept]^T w = alpha; dropping i keeps w[:i]
    x = np.zeros(op.n_cols)
    misfit = y  # y - Ax at x = 0
    steps = 0
    converged = False
    while True:
        corr = op.adjoint(misfit)
        j = _peak(corr)
        residual = _kkt_residual(corr, x, alpha, j, written)
        if residual <= tol:
            converged = True
            break
        violation = abs(corr.item(j)) - alpha
        if steps >= max_iter or violation <= 0.0 or j in active:
            break  # budget spent, or rounding sets the residual's floor
        sign = math.copysign(1.0, corr.item(j))
        normal = sign * op.column(j)
        while True:
            d = q[:, :m].T @ normal
            z = normal - q[:, :m] @ d if m else normal  # the part no active normal spans
            zz = float(z @ z)
            full = violation / zz if m < cap and zz > 1e-24 * float(normal @ normal) else math.inf
            if not m:  # no active multiplier to block the full step
                break
            direction = _back_substitute(r[:m, :m], d)  # how the multipliers fall
            ratios = np.divide(u[:m], direction, out=np.full(m, math.inf), where=direction > 0.0)
            drop = int(ratios.argmin())
            if full <= ratios[drop]:
                break
            u[:m] -= ratios[drop] * direction
            violation -= ratios[drop] * zz
            _drop_column(q, r, m, drop)
            m, kept = m - 1, min(kept, drop)
            u[drop:m] = u[drop + 1 : m + 1]
            signs[drop:m] = signs[drop + 1 : m + 1]
            del active[drop]
        if full == math.inf:
            break  # the dual is infeasible, impossible for alpha > 0
        rho = math.sqrt(zz)
        q[:, m] = z / rho
        r[:m, m], r[m, m], signs[m] = d, rho, sign
        active.append(j)
        m += 1
        # multipliers of the new active set: N u = y - p with N^T p = alpha
        for i in range(kept, m):  # forward substitution, each sum up a column of r
            w[i] = (alpha - r[:i, i][::-1] @ w[:i][::-1]) / r[i, i]
        kept = m
        np.maximum(_back_substitute(r[:m, :m], q[:, :m].T @ y - w[:m]), 0.0, out=u[:m])
        x[written] = 0.0
        written = active.copy()  # the drop loop edits active before a step can break off
        x[written] = signs[:m] * u[:m]
        steps += 1
        misfit = y - op.apply(x)
    support = tuple(j + 1 for j in sorted(written) if abs(x.item(j)) > SUPPORT_EPS)
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


def closed_form_minimizer(
    directions: DirectionSet,
    k: int,
    lam: float,
    alpha: float,
    gamma: float | None = None,
) -> np.ndarray:
    """Exact minimizer for data lambda * zeta^(k), as a length-len(directions) vector.

    Without gamma this is the soft-thresholded spike at k, base =
    soft_threshold(lambda, alpha).  With gamma it is the two-component
    minimizer (base + gamma) e^(k) + gamma e^(l) at k and its antipodal index
    l; gamma must lie strictly inside the interval between 0 and -base.
    """
    if not 1 <= k <= len(directions):
        raise ValueError(f"k must be in 1..{len(directions)}")
    if not alpha >= 0.0:
        raise ValueError("alpha must be nonnegative")
    x = np.zeros(len(directions))
    base = soft_threshold(lam, alpha)
    if gamma is None:
        x[k - 1] = base
        return x
    if base == 0.0:
        raise ValueError("two-component minimizers need |lambda| > alpha")
    l = int(directions.antipodes[k - 1])
    if not l:
        raise ValueError(f"no antipodal partner of direction {k} is enumerated")
    lo, hi = sorted((0.0, -base))
    if not lo < gamma < hi:
        raise ValueError(f"gamma must lie in ({lo}, {hi})")
    x[k - 1] = base + gamma
    x[l - 1] = gamma
    return x


def minimizer_family_distance(
    x: np.ndarray,
    directions: DirectionSet,
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
    n, last = len(x), min(len(x), len(directions))
    if not 1 <= k <= last:
        raise ValueError(f"k must be in 1..{last}")
    base = soft_threshold(lam, alpha)
    ki, li = k - 1, directions.antipodes.item(k - 1) - 1
    if base == 0.0 or not 0 <= li < n:  # an antipode past the end of x is absent
        target = np.zeros(n)
        target[ki] = base
        return float(np.abs(x - target).sum())
    lo, hi = sorted((0.0, -base))
    xk, xl = x.item(ki), x.item(li)
    rest = float(np.abs(x).sum()) - abs(xk) - abs(xl)

    def dist_at(gamma: float) -> float:
        return abs(xk - (base + gamma)) + abs(xl - gamma) + rest

    candidates = [lo, hi]
    for kink in (xl, xk - base):
        candidates.append(min(max(kink, lo), hi))
    return min(dist_at(g) for g in candidates)


def collapse_experiment(
    directions: DirectionSet,
    y: np.ndarray,
    alpha: float,
    depth_schedule: list[int],
    probe_indices: tuple[int, ...] = (1, 2, 3),
    tol: float = 1e-10,
) -> list[dict]:
    """Solve the problem on growing direction prefixes for fixed generic data.

    As the prefix deepens, the best-aligned direction tracks y ever more
    closely, so the minimizer's mass migrates to ever-later indices: every
    fixed coordinate decays to zero while the l^1 norm stays near
    ||y||_2 - alpha.  The data must not be proportional to any enumerated
    direction and must satisfy ||y||_2 > alpha > 0, and the probe indices
    must be distinct.

    One row per depth, keyed depth, support_index, support_size,
    best_correlation, beta, l1_norm, coord_J for each probe index J (0 past
    the depth) and converged.  ``support_index`` and ``beta`` may name
    either member of an antipodal pair (a_l = -a_k), with opposite signs: the
    last bit of y - Ax decides.  ``best_correlation`` is the running maximum
    of one product <y/||y||_2, zeta> over the deepest prefix, so it never
    decreases with depth.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError("alpha must be a positive finite number")
    y = np.asarray(y, dtype=float)
    _check_data(y)
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
    if len(set(probe_indices)) < len(probe_indices):  # repeated coord_J keys would merge
        raise ValueError("probe indices must be distinct")
    # one product for all rows: BLAS can round a row differently in a shorter prefix
    best = np.maximum.accumulate(_correlations(directions[:max_depth], y))
    if best[-1] > 1.0 - 1e-9:
        raise ValueError("y is (numerically) proportional to an enumerated direction")
    best = best[np.subtract(depth_schedule, 1)].tolist()  # frees the running maximum before the solves
    rows = []
    for depth, best_correlation in zip(depth_schedule, best):
        n_rows = max(len(y), int(directions.support[:depth].max()))
        op = mazur(directions, depth, n_rows)
        data = np.zeros(n_rows)
        data[: len(y)] = y
        cert = solve(TikhonovProblem(op, data, alpha), tol=tol)
        x = cert.x
        dominant = int(np.argmax(np.abs(x))) + 1
        rows.append({
            "depth": depth, "support_index": dominant, "support_size": len(cert.support),
            "best_correlation": best_correlation, "beta": float(x[dominant - 1]),
            "l1_norm": float(np.abs(x).sum()),
            **{f"coord_{j}": float(x[j - 1]) if j <= depth else 0.0 for j in probe_indices},
            "converged": cert.converged,
        })
    return rows


def convergence_experiment(
    op: TruncatedOperator,
    x_true: np.ndarray,
    delta_schedule: list[float],
    alpha_factor: float = 1.0,
    seed: int = 42,
    tol: float = 1e-10,
) -> list[dict]:
    """Perturb exact data along a fixed direction and track solution error.

    For each delta the data is A x_true + delta * u with a unit vector u
    drawn once from a standard normal seeded by ``seed``, alpha =
    alpha_factor * delta, and the row records the l^1 distance of the
    minimizer from x_true together with its dominant support index.  All
    deltas and alphas are checked to be positive and finite before any solve.

    One row per delta, keyed delta, alpha, error_l1, support_index,
    support_size and converged.
    """
    x_true = np.asarray(x_true, dtype=float)
    if x_true.shape != (op.n_cols,):
        raise ValueError(f"x_true must have length {op.n_cols}")
    if not delta_schedule:
        raise ValueError("delta schedule is empty")
    alphas = [float(alpha_factor * delta) for delta in delta_schedule]
    if not all(math.isfinite(v) and v > 0.0 for v in (alpha_factor, *delta_schedule, *alphas)):
        raise ValueError("deltas, alpha_factor and their products must be positive finite numbers")
    u = np.random.default_rng(seed).standard_normal(op.n_rows)
    u = u / np.linalg.norm(u)
    y_exact = op.apply(x_true)
    rows = []
    for delta, alpha in zip(delta_schedule, alphas):
        data = y_exact + delta * u
        cert = solve(TikhonovProblem(op, data, alpha), tol=tol)
        rows.append({
            "delta": float(delta), "alpha": alpha,
            "error_l1": float(np.abs(cert.x - x_true).sum()),
            "support_index": int(np.argmax(np.abs(cert.x))) + 1,
            "support_size": len(cert.support), "converged": cert.converged,
        })
    return rows
