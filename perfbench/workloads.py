"""The three benchmark workloads.

Each workload has ``make_inputs(seed, tiny)``, which runs before timing
starts and draws every input the program receives, and ``run_pass(inputs,
rec)``, which runs the workload's fixed case set once through the public
``illposed`` functions.  Every call into a module sits in a span named after
the module.  Checks that recompute an output independently are queued with
``case.defer`` and run after the pass, outside its timing; the
certificate recomputation (``tikhonov.certify``) is timed, because the
command line tools pay for it too.

The generic collapse data does not depend on the run seed.  The seed
solver's sweep count is chaotic in the data (30 random3 draws at depths
200-4034 took 1 ms to 5.6 s per solve, with the 10000-sweep cap hit on a
third of them at depth 4034), so a case set drawn from the run seed would
measure the draw rather than the code.  The panel is the command line's own
``random3``/``random4`` vectors for fixed seeds, and it keeps a sweep-cap
failure in every pass, so the seed's failures stay visible.  The run seed
shuffles the collapse case order and draws every other input.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import illposed as ip
from illposed.reports import csv_report, json_report

from recorder import CaseResult, Recorder

DEVIATION_TOL = 1e-8  # the verify-theorem acceptance bound
GAMMA_TOL = 1e-10  # objective spread and residual along the gamma segment
PAIRING_TOL = 1e-12  # pairing recomputed from integer canon vectors


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, bool], dict]
    run_pass: Callable[[dict, Recorder], str]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _unit(vec: np.ndarray) -> np.ndarray:
    return vec / np.linalg.norm(vec)


def _random_unit(panel_seed: int, size: int) -> np.ndarray:
    """The command line's ``random<size>`` vector for ``--seed panel_seed``."""
    return _unit(np.random.default_rng(panel_seed).standard_normal(size))


def _enumerate(rec: Recorder, support: int, entry: int):
    with rec.span("directions.enumerate"):
        directions = ip.enumerate_directions(
            ip.EnumerationParams(max_support=support, max_entry=entry)
        )
    rec.count("directions.count", len(directions))
    return directions


def _built(rec: Recorder, op):
    rec.count("operators.build_calls")
    rec.count("operators.bytes", op.entries.nbytes)
    return op


def _solve(rec: Recorder, case: CaseResult, op, y, alpha, tol, max_iter):
    """Solve, then recompute the certificate independently and gate on it."""
    with rec.span("tikhonov.solve"):
        problem = ip.TikhonovProblem(op, y, alpha)
        cert = ip.solve(problem, tol=tol, max_iter=max_iter)
    with rec.span("tikhonov.certify"):
        residual = ip.optimality_residual(problem, cert.x)
        value = ip.objective(problem, cert.x)
    rec.count("tikhonov.solve_calls")
    rec.count("tikhonov.sweeps", cert.iterations)
    if not cert.converged:
        rec.count("tikhonov.uncertified")
        case.fail(f"uncertified after {cert.iterations} sweeps, residual {residual:.3g}")
    if cert.converged != (residual <= tol):
        case.mismatch(
            f"converged={cert.converged} but recomputed residual is {residual:.3g}"
        )
    if abs(residual - cert.residual) > 1e-9 * max(residual, tol):
        case.mismatch(f"reported residual {cert.residual:.3g}, recomputed {residual:.3g}")
    if abs(value - cert.objective) > 1e-12 * max(1.0, abs(value)):
        case.mismatch(f"reported objective {cert.objective!r}, recomputed {value!r}")
    return problem, cert


def _render(rec: Recorder, header, rows, meta) -> str:
    with rec.span("reports.render"):
        text = csv_report(header, rows) + json_report(header, rows, meta)
    rec.count("reports.bytes", len(text.encode()))
    return text


# --------------------------------------------------------------------------
# collapse: generic data along depth schedules on the narrow direction operator

COLLAPSE_ALPHA = 0.1
COLLAPSE_TOL = 1e-10
SOLVER_MAX_ITER = 10000  # the library and command line default

# (panel seed, vector size, enumeration bounds, depths).  random3 seed 4 hits
# the sweep cap at depth 4034 (about 5 s on a 2.1 GHz Xeon core); the other
# vectors certify within 0.3 s over their whole schedules, adding cases (32,
# so the tail percentile is p68.75) without adding sweep-cap time.
RANDOM3_DEPTHS = (50, 100, 200, 400, 800)
RANDOM4_DEPTHS = (50, 100, 200, 400, 800, 1600, 3200, 6400)
COLLAPSE_PANEL = (
    (4, 3, (3, 8), RANDOM3_DEPTHS + (4034,)),
    (7, 3, (3, 8), RANDOM3_DEPTHS),
    (9, 3, (3, 8), RANDOM3_DEPTHS),
    (1, 4, (4, 6), RANDOM4_DEPTHS),
    (7, 4, (4, 6), RANDOM4_DEPTHS),
)
COLLAPSE_PANEL_TINY = ((0, 3, (3, 3), (20, 60)), (1, 4, (4, 2), (40, 120)))

COLLAPSE_HEADER = [
    "case", "depth", "support_index", "support_size", "best_correlation",
    "beta", "l1_norm", "coord_1", "coord_2", "coord_3", "converged",
]


def collapse_inputs(seed: int, tiny: bool) -> dict:
    panel = COLLAPSE_PANEL_TINY if tiny else COLLAPSE_PANEL
    cases = [
        (f"random{size}:{panel_seed}@{depth}", _random_unit(panel_seed, size), bounds, depth)
        for panel_seed, size, bounds, depths in panel
        for depth in depths
    ]
    order = _rng(seed, 0).permutation(len(cases))
    return {
        "cases": [cases[i] for i in order],
        "bounds": sorted({bounds for _, _, bounds, _ in panel}),
        "max_iter": SOLVER_MAX_ITER,
        "seed": seed,
    }


def collapse_pass(inp: dict, rec: Recorder) -> str:
    enumerations = {b: _enumerate(rec, *b) for b in inp["bounds"]}
    for case_id, y, bounds, depth in inp["cases"]:
        with rec.case(case_id) as case:
            prefix = enumerations[bounds][:depth]
            with rec.span("operators.build"):
                n_rows = max(len(y), max(d.support for d in prefix))
                op = _built(rec, ip.mazur(prefix, depth, n_rows))
            data = np.zeros(n_rows)
            data[: len(y)] = y
            _, cert = _solve(
                rec, case, op, data, COLLAPSE_ALPHA, COLLAPSE_TOL, inp["max_iter"]
            )
            with rec.span("directions.coverage"):
                _, corr = ip.coverage(prefix, y)
            rec.count("directions.coverage_calls")
            dominant = int(np.argmax(np.abs(cert.x)))
            coords = [float(cert.x[j]) if j < depth else 0.0 for j in range(3)]
            rec.rows.append(
                [case_id, depth, dominant + 1, len(cert.support), corr,
                 float(cert.x[dominant]), float(np.abs(cert.x).sum()), *coords,
                 cert.converged]
            )
    meta = {"workload": "collapse", "seed": inp["seed"], "alpha": COLLAPSE_ALPHA}
    return _render(rec, COLLAPSE_HEADER, rec.rows, meta)


# --------------------------------------------------------------------------
# theorem-grid: spike data lambda * zeta^(k) against the closed-form family

GRID_ALPHA = 0.3
GRID_TOL = 1e-12  # verify-theorem's residual tolerance and sweep budget
GRID_MAX_ITER = 50000
GRID_GAMMAS = 5

GRID_HEADER = [
    "k", "lambda", "alpha", "deviation_l1", "residual", "gamma_spread",
    "gamma_max_residual", "support_size", "converged",
]


def grid_inputs(seed: int, tiny: bool) -> dict:
    bounds, n_indices, n_multipliers = ((3, 3), 3, 3) if tiny else ((3, 8), 40, 9)
    rng = _rng(seed, 1)
    # One draw per stratum keeps the cost of a grid steady across seeds: the
    # indices spread over the whole prefix (the oracle scans up to the
    # antipode), and |lambda| / alpha is log-uniform on [1/4, 16] with exactly
    # a third of the draws below 1, where the minimizer is zero.
    positions = (np.arange(n_indices) + rng.random(n_indices)) / n_indices
    strata = (np.arange(n_multipliers) + rng.random(n_multipliers)) / n_multipliers
    scale = 0.25 * 64.0**strata
    signs = rng.permutation(np.resize([1.0, -1.0], n_multipliers))
    return {
        "bounds": bounds,
        "positions": positions,
        "lambdas": [float(s * m * GRID_ALPHA) for s, m in zip(signs, scale)],
        "max_iter": GRID_MAX_ITER,
        "seed": seed,
    }


def _gamma_segment(rec, problem, directions, k, lam):
    """Objective spread and worst residual over interior gamma-family points."""
    if abs(lam) <= GRID_ALPHA:
        return 0.0, 0.0
    lo, hi = sorted((0.0, -(abs(lam) - GRID_ALPHA) * math.copysign(1.0, lam)))
    values, worst = [], 0.0
    for i in range(1, GRID_GAMMAS + 1):
        gamma = lo + (hi - lo) * i / (GRID_GAMMAS + 1)
        with rec.span("tikhonov.oracle"):
            cand = ip.closed_form_minimizer(directions, k, lam, GRID_ALPHA, gamma)
        rec.count("tikhonov.oracle_calls")
        with rec.span("tikhonov.certify"):
            values.append(ip.objective(problem, cand))
            worst = max(worst, ip.optimality_residual(problem, cand))
    return max(values) - min(values), worst


def grid_pass(inp: dict, rec: Recorder) -> str:
    directions = _enumerate(rec, *inp["bounds"])
    depth = len(directions)  # the full prefix
    with rec.span("operators.build"):
        n_rows = max(d.support for d in directions)
        op = _built(rec, ip.mazur(directions, depth, n_rows))
    cells = [(1 + int(p * depth), lam) for p in inp["positions"] for lam in inp["lambdas"]]
    for k, lam in cells:
        with rec.case(f"k={k},lambda={lam!r}") as case:
            y = lam * directions[k - 1].realized_padded(n_rows)
            problem, cert = _solve(rec, case, op, y, GRID_ALPHA, GRID_TOL, inp["max_iter"])
            with rec.span("tikhonov.oracle"):
                deviation = ip.minimizer_family_distance(cert.x, directions, k, lam, GRID_ALPHA)
            rec.count("tikhonov.oracle_calls")
            spread, gamma_residual = _gamma_segment(rec, problem, directions, k, lam)
            if deviation > DEVIATION_TOL:
                case.mismatch(f"deviation {deviation:.3g} from the closed-form family")
            if spread > GAMMA_TOL * max(1.0, abs(cert.objective)) or gamma_residual > GAMMA_TOL:
                case.mismatch(f"gamma family spread {spread:.3g}, residual {gamma_residual:.3g}")
            rec.rows.append(
                [k, lam, GRID_ALPHA, deviation, cert.residual, spread, gamma_residual,
                 len(cert.support), cert.converged]
            )
    meta = {"workload": "theorem-grid", "seed": inp["seed"], "depth": depth}
    return _render(rec, GRID_HEADER, rec.rows, meta)


# --------------------------------------------------------------------------
# lattice: enumeration, probes, coverage, SVD growth and the catalog; no solver

LATTICE_HEADER = ["case", "item", "value", "verdict"]
# An SVD is one LAPACK call, which the host's slow stretches slow less than
# interpreted code, so its time follows the speed samples (speed.py) poorly;
# kept this small, the growth cases are under 1% of a pass.
GROWTH_SIZES = (64, 128, 256)


def _diag(n: int, domain_exponent: float = 2.0):
    return ip.diagonal(lambda k: 1.0 / k, n, domain_exponent=domain_exponent)


def lattice_inputs(seed: int, tiny: bool) -> dict:
    big, small = ((3, 2), (2, 3)) if tiny else ((5, 4), (4, 6))
    rng = _rng(seed, 3)
    return {
        "big": big,
        "small": small,
        "eta_unit": _unit(rng.standard_normal(big[0])),
        "eta_zeta": float(rng.random()),  # fraction of the way into the prefix
        "eta_basis": int(rng.integers(1, big[0] + 1)),
        "coverage": [(bounds, rng.standard_normal(bounds[0]))
                     for bounds in (big, small) for _ in range(4)],
        "growth_sizes": (8, 16) if tiny else GROWTH_SIZES,
        "seed": seed,
    }


def _canon_matrix(directions, n_rows: int):
    """Realized directions recomputed from the integer canon vectors."""
    canon = np.zeros((n_rows, len(directions)))
    for j, d in enumerate(directions):
        canon[: d.support, j] = d.canon
    return canon / np.sqrt((canon**2).sum(axis=0))


def _check_pairings(realized: Callable[[], np.ndarray], outer, eta, pairings):
    def check(case: CaseResult) -> None:
        expected = (outer.T @ eta) @ realized()
        worst = float(np.max(np.abs(pairings - expected)))
        if worst > PAIRING_TOL:
            case.mismatch(f"pairings differ from the canon recomputation by {worst:.3g}")
    return check


def _check_growth(family: str, n: int, smin: float, growth: float):
    def check(case: CaseResult) -> None:
        if family == "diag" and smin != 1.0 / n:
            case.mismatch(f"diag sigma_min {smin!r} is not 1/{n}")
        if not (smin > 0.0 and growth == 1.0 / smin):
            case.mismatch(f"growth {growth!r} is not 1/sigma_min for sigma_min {smin!r}")
    return check


def _check_coverage(realized: Callable[[], np.ndarray], y, index, value):
    def check(case: CaseResult) -> None:
        corr = (y / np.linalg.norm(y)) @ realized()
        best = int(np.argmax(corr))
        if best + 1 != index or abs(corr[best] - value) > PAIRING_TOL:
            case.mismatch(f"coverage ({index}, {value!r}) vs recomputed ({best + 1}, {corr[best]!r})")
    return check


def lattice_pass(inp: dict, rec: Recorder) -> str:
    enumerations = {}
    for bounds in (inp["big"], inp["small"]):
        with rec.case(f"enumerate:{bounds[0]}/{bounds[1]}"):
            enumerations[bounds] = _enumerate(rec, *bounds)
            rec.rows.append([f"enumerate:{bounds[0]}/{bounds[1]}", "count",
                             len(enumerations[bounds]), ""])
    @functools.cache
    def realized(bounds):  # built by the deferred checks, outside the timing
        return _canon_matrix(enumerations[bounds], bounds[0])

    big = inp["big"]
    directions = enumerations[big]
    n_rows, n_terms = big[0], len(directions)
    with rec.case("mazur:full"):
        with rec.span("operators.build"):
            op = _built(rec, ip.mazur(directions, n_terms, n_rows))
        rec.rows.append(["mazur:full", "shape", f"{op.n_rows}x{op.n_cols}", ""])

    zeta_index = 1 + int(inp["eta_zeta"] * n_terms)
    basis = np.zeros(n_rows)
    basis[inp["eta_basis"] - 1] = 1.0
    etas = {
        "unit": inp["eta_unit"],
        f"zeta:{zeta_index}": directions[zeta_index - 1].realized_padded(n_rows),
        f"e:{inp['eta_basis']}": basis,
    }
    outers = {
        "identity": lambda: ip.identity(n_rows),
        "diag": lambda: _diag(n_rows),
        "embed": lambda: ip.embedding(2.0, 4.0, n_rows),
    }
    probes = [(f"probe:{name}", None, eta) for name, eta in etas.items()]
    probes += [(f"compose:{name}", make, None) for name, make in outers.items()]
    for case_id, make_outer, eta in probes:
        with rec.case(case_id) as case:
            if make_outer is None:
                outer = np.eye(n_rows)
                with rec.span("probes.pairing"):
                    report = ip.weak_star_probe(op, eta, n_terms)
            else:
                with rec.span("operators.build"):
                    outer_op = _built(rec, make_outer())
                outer = outer_op.entries
                with rec.span("probes.pairing"):
                    report = ip.composition_probe(outer_op, op, n_terms)
            with rec.span("reports.render"):  # the probe command's CSV and JSON
                text = report.to_csv() + report.summary_json()
            rec.count("reports.bytes", len(text.encode()))
            case.defer(_check_pairings(functools.partial(realized, big), outer,
                                       report.eta, report.pairings))
            rec.rows.append([case_id, "sup_tail", report.sup_tail, report.verdict])

    for i, (bounds, y) in enumerate(inp["coverage"]):
        case_id = f"coverage:{bounds[0]}/{bounds[1]}:{i}"
        with rec.case(case_id) as case:
            with rec.span("directions.coverage"):
                index, value = ip.coverage(enumerations[bounds], y)
            rec.count("directions.coverage_calls")
            case.defer(_check_coverage(functools.partial(realized, bounds), y, index, value))
            rec.rows.append([case_id, index, value, ""])

    for family in ("diag", "inj"):
        for n in inp["growth_sizes"]:
            case_id = f"growth:{family}:{n}"
            with rec.case(case_id) as case:
                with rec.span("operators.build"):
                    square = _built(rec, _diag(n) if family == "diag"
                                    else ip.injective_counterexample(n))
                with rec.span("probes.growth"):
                    (_, smin, growth), = ip.pseudoinverse_growth([square])
                rec.count("probes.growth_flops", 8 * n**3 // 3)
                case.defer(_check_growth(family, n, smin, growth))
                rec.rows.append([case_id, "sigma_min", smin, growth])

    for entry in ip.catalog():
        with rec.case(f"catalog:{entry.label}") as case:
            with rec.span("classify.catalog"):
                built = ip.build_catalog_operator(entry.label)
                declared = ip.classify(entry.attributes)
                propagated = ip.classify(built.attributes)
                violations = ip.check_consistency(entry.attributes)
            expected = (entry.expected_verdict, entry.expected_hybrid)
            for name, got in (("declared", declared), ("propagated", propagated)):
                if (got.verdict, got.hybrid) != expected:
                    case.mismatch(f"{name} verdict {got.verdict.value} differs from catalog")
            if violations:
                case.mismatch("consistency rules fired: " + ",".join(v.rule for v in violations))
            rec.rows.append([f"catalog:{entry.label}", declared.verdict.value,
                             declared.hybrid, ",".join(v.rule for v in violations)])
    meta = {"workload": "lattice", "seed": inp["seed"]}
    return _render(rec, LATTICE_HEADER, rec.rows, meta)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("collapse", collapse_inputs, collapse_pass),
        Workload("theorem-grid", grid_inputs, grid_pass),
        Workload("lattice", lattice_inputs, lattice_pass),
    )
}
