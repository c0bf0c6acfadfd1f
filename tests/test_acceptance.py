"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line (visible with pytest -s)."""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

import illposed as ip
from illposed.cli import main
from illposed.operators import OperatorAttributes
from illposed.tikhonov import soft_threshold

ALPHA = 0.3
GRID_INDICES = (1, 5, 17, 60, 150)
GRID_MULTIPLIERS = (-10.0, -2.0, -0.5, 0.5, 2.0, 10.0)


@pytest.fixture(scope="module")
def directions():
    return ip.enumerate_directions(ip.EnumerationParams())


@pytest.fixture(scope="module")
def b200(directions):
    return ip.mazur(directions, 200, 3)


@pytest.fixture(scope="module")
def grid_certificates(directions, b200):
    started = time.monotonic()
    results = {}
    for k in GRID_INDICES:
        for mult in GRID_MULTIPLIERS:
            lam = mult * ALPHA
            y = lam * directions[k - 1].realized_padded(3)
            problem = ip.TikhonovProblem(b200, y, ALPHA)
            results[(k, lam)] = ip.solve(problem, tol=1e-12, max_iter=50000)
    elapsed = time.monotonic() - started
    return results, elapsed


def test_criterion_1_solver_matches_closed_form(directions, grid_certificates):
    results, elapsed = grid_certificates
    assert len(results) >= 30
    worst = 0.0
    for (k, lam), cert in results.items():
        assert cert.converged, (k, lam)
        assert cert.residual <= 1e-10, (k, lam, cert.residual)
        deviation = ip.minimizer_family_distance(
            cert.x, directions[:200], k, lam, ALPHA
        )
        worst = max(worst, deviation)
        assert deviation <= 1e-8, (k, lam, deviation)
    assert elapsed <= 60.0
    print(
        f"ACCEPTANCE 1 PASS: {len(results)} grid cases, max l1 deviation "
        f"{worst:.3e}, residuals <= 1e-10, runtime {elapsed:.2f}s"
    )


def test_criterion_2_objective_identity(directions, b200):
    worst = 0.0
    for k in GRID_INDICES:
        for mult in GRID_MULTIPLIERS:
            lam = mult * ALPHA
            y = lam * directions[k - 1].realized_padded(3)
            problem = ip.TikhonovProblem(b200, y, ALPHA)
            beta = soft_threshold(lam, ALPHA)
            x = np.zeros(200)
            x[k - 1] = beta
            value = ip.objective(problem, x)
            expected = -0.5 * beta**2 + 0.5 * float(y @ y)
            rel = abs(value - expected) / max(abs(expected), 1e-300)
            worst = max(worst, rel)
            assert rel <= 1e-12, (k, lam, rel)
    print(f"ACCEPTANCE 2 PASS: objective identity, worst relative error {worst:.3e}")


def test_criterion_3_gamma_family(directions, b200):
    checked = 0
    for k, lam in ((5, 1.0), (17, 1.2), (5, -1.0)):
        problem = ip.TikhonovProblem(
            b200, lam * directions[k - 1].realized_padded(3), ALPHA
        )
        width = abs(lam) - ALPHA
        gammas = [
            (1 if lam < 0 else -1) * width * frac
            for frac in (0.1, 0.25, 0.5, 0.75, 0.9)
        ]
        values = []
        for gamma in gammas:
            x = ip.closed_form_minimizer(directions[:200], k, lam, ALPHA, gamma)
            values.append(ip.objective(problem, x))
            assert ip.optimality_residual(problem, x) <= 1e-10
            checked += 1
        spread = max(values) - min(values)
        assert spread <= 1e-12 * max(1.0, abs(values[0]))
    assert checked >= 5
    print(f"ACCEPTANCE 3 PASS: {checked} family members, objective constant to 1e-12")


def test_criterion_4_collapse(directions):
    rng = np.random.default_rng(42)
    y = rng.standard_normal(3)
    y /= np.linalg.norm(y)
    alpha = 0.1
    depths = [50, 200, 800, 3200]
    rows = ip.collapse_experiment(
        directions, y, alpha, depths, probe_indices=(1, 2, 3), tol=1e-10
    )
    assert all(r["converged"] for r in rows)

    correlations = [r["best_correlation"] for r in rows]
    assert all(b >= a for a, b in zip(correlations, correlations[1:]))
    assert correlations[-1] >= 0.95

    final = rows[-1]
    assert all(abs(final[f"coord_{j}"]) < 1e-6 for j in (1, 2, 3))
    norm_y = float(np.linalg.norm(y))
    assert final["l1_norm"] >= norm_y - alpha - 0.05

    # each row reports the minimizer of its own depth, to the bit
    solutions = []
    for row in rows:
        problem = ip.TikhonovProblem(ip.mazur(directions, row["depth"], 3), y, alpha)
        x = ip.solve(problem, tol=1e-10).x
        assert row["beta"] == x[row["support_index"] - 1]
        solutions.append(x)

    lower = 0.5 * (norm_y - alpha)
    checked_pairs = 0
    for a, b in zip(solutions, solutions[1:]):
        support_a = set(np.nonzero(np.abs(a) > 1e-12)[0])
        support_b = set(np.nonzero(np.abs(b) > 1e-12)[0])
        if support_a == support_b:
            continue
        pad_a = np.zeros(len(b))
        pad_a[: len(a)] = a
        distance = float(np.abs(pad_a - b).sum())
        assert distance >= lower, (len(a), len(b), distance)
        checked_pairs += 1
    assert checked_pairs >= 1
    print(
        "ACCEPTANCE 4 PASS: correlations "
        + "->".join(f"{c:.4f}" for c in correlations)
        + f", final probe coords < 1e-6, l1 {final['l1_norm']:.4f} >= "
        f"{norm_y - alpha - 0.05:.4f}, {checked_pairs} support jumps of size >= {lower:.3f}"
    )


def test_criterion_5_probe_suite(directions):
    n = 2000
    inj = ip.injective_counterexample(n)
    e1 = np.zeros(n)
    e1[0] = 1.0
    report = ip.weak_star_probe(inj, e1, n)
    assert np.all(report.pairings == 1.0)
    assert report.verdict == "persists"

    b = ip.mazur(directions, n, 3)
    report_b = ip.weak_star_probe(b, directions[0].realized_padded(3), n)
    assert report_b.sup_tail >= 0.9
    assert report_b.verdict == "persists"

    diag = ip.diagonal(lambda k: 1.0 / k, n)
    for eta in (e1, np.ones(n), -np.ones(n)):
        rep = ip.weak_star_probe(diag, eta, n)
        assert rep.verdict == "converges_to_zero"
    print(
        f"ACCEPTANCE 5 PASS: counterexample pairings identically 1.0 (n={n}), "
        f"dense-direction sup_tail {report_b.sup_tail:.4f} >= 0.9, diagonal probes decay"
    )


def test_criterion_6_pseudoinverse_growth():
    family = [ip.diagonal(lambda k: 1.0 / k, n) for n in (8, 64, 512)]
    for (n, _, growth), expected in zip(ip.pseudoinverse_growth(family), (8, 64, 512)):
        assert n == expected
        assert abs(growth - expected) <= 1e-10 * expected

    for k in range(2, 101):
        e = np.zeros(128)
        e[k - 1] = 1.0
        preimage = ip.injective_counterexample_inverse(e)
        assert float(np.abs(preimage).sum()) == 2.0 * k  # exact
    print(
        "ACCEPTANCE 6 PASS: diagonal growth exact at n in {8, 64, 512}, "
        "preimage norms equal 2k exactly for k <= 100"
    )


def test_criterion_7_classifier():
    entries = ip.catalog()
    assert len(entries) == 10
    for entry in entries:
        result = ip.classify(entry.attributes)
        assert result.verdict is entry.expected_verdict, entry.label
        assert result.hybrid == entry.expected_hybrid, entry.label
        assert ip.check_consistency(entry.attributes) == [], entry.label

    by_label = {e.label: e for e in entries}
    triple = [
        ip.classify(by_label[lbl].attributes).verdict for lbl in ("D1", "D2", "D2oD1")
    ]
    assert triple == [ip.Verdict.TYPE_I, ip.Verdict.TYPE_I, ip.Verdict.TYPE_II]

    states = (True, False, None)
    for rc, comp, hs, ss in itertools.product(states, repeat=4):
        attrs = OperatorAttributes(
            range_closed=rc,
            nullspace_complemented=comp,
            range_has_closed_infdim_subspace=hs,
            strictly_singular=ss,
        )
        result = ip.classify(attrs)
        if result.hybrid:
            assert result.verdict is ip.Verdict.TYPE_I

    corruptions = {
        "R1": replace(by_label["B"].attributes, compact=True),
        "R2": replace(
            by_label["E2p"].attributes,
            range_closed=True,
            range_has_closed_infdim_subspace=True,
        ),
        "R3": replace(
            by_label["diag"].attributes, range_has_closed_infdim_subspace=True
        ),
        "R4": OperatorAttributes(
            range_closed=True,
            range_has_closed_infdim_subspace=False,
            strictly_singular=False,
            compact=False,
            nullspace_complemented=True,
        ),
    }
    for rule, attrs in corruptions.items():
        fired = {v.rule for v in ip.check_consistency(attrs)}
        assert rule in fired, rule
    print(
        "ACCEPTANCE 7 PASS: 10 catalog verdicts, type crossing (I, I, II), "
        "81-state sweep clean, R1-R4 fire on corrupted records only"
    )


def test_criterion_8_convergence_and_failure_mode(directions):
    op = ip.diagonal(lambda k: 1.0 / k, 50, domain_exponent=1.0)
    x_true = np.zeros(50)
    x_true[0] = 1.0
    deltas = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
    rows = ip.convergence_experiment(op, x_true, deltas, tol=1e-10)
    assert all(r["converged"] for r in rows)
    errors = [r["error_l1"] for r in rows]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-3

    b = ip.mazur(directions, 800, 3)
    x_true_b = np.zeros(800)
    x_true_b[0] = 1.0
    rows_b = ip.convergence_experiment(b, x_true_b, deltas, tol=1e-8)
    supports = [r["support_index"] for r in rows_b]
    assert len(set(supports)) > 1
    print(
        f"ACCEPTANCE 8 PASS: diagonal errors {errors[0]:.2e} -> {errors[-1]:.2e} "
        f"(monotone, final <= 1e-3); dense-direction support drifts {supports}"
    )


def test_criterion_9_determinism(tmp_path):
    commands = [
        ["enumerate", "--support", "2", "--entry", "2"],
        ["verify-theorem", "--depth", "60", "--indices", "1,5",
         "--multipliers=-2,0.5,2"],
        ["collapse", "--y", "random3", "--depths", "50,200", "--probes", "1,2,3"],
        ["probe", "--operator", "B", "--eta", "zeta:1", "--n", "400"],
        ["probe", "--operator", "diag", "--eta", "ones", "--n", "100",
         "--format", "json"],
        ["classify", "--catalog"],
        ["convergence", "--operator", "diag", "--n", "30",
         "--deltas", "1e-1,1e-2,1e-3"],
        ["growth", "--operator", "diag", "--sizes", "8,64"],
    ]
    for idx, args in enumerate(commands):
        out_a = tmp_path / f"a{idx}.txt"
        out_b = tmp_path / f"b{idx}.txt"
        code_a = main(args + ["--out", str(out_a)])
        code_b = main(args + ["--out", str(out_b)])
        assert code_a == code_b
        assert out_a.read_bytes() == out_b.read_bytes(), args
    print(f"ACCEPTANCE 9 PASS: {len(commands)} commands byte-identical across reruns")
