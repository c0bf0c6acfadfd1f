import hashlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from illposed.classify import build_operator, catalog
from illposed.cli import main
from illposed.directions import EnumerationParams, enumerate_directions
from illposed.probes import ProbeReport
from illposed.reports import json_report
from illposed.tikhonov import (
    TikhonovProblem,
    closed_form_minimizer,
    objective,
    optimality_residual,
    soft_threshold,
)


def run(tmp_path, *argv, name="out.txt"):
    out = tmp_path / name
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_enumerate_small_grid(tmp_path):
    code, text = run(tmp_path, "enumerate", "--support", "2", "--entry", "1")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "index,canon,q"
    assert len(lines) == 9
    assert lines[1] == "1,1,2"
    assert lines[2] == "2,-1,2"


def test_enumerate_rejects_bad_support(tmp_path):
    code, _ = run(tmp_path, "enumerate", "--support", "0")
    assert code == 2


def test_enumerate_json_round_trips(tmp_path):
    code, text = run(tmp_path, "enumerate", "--support", "2", "--entry", "1",
                     "--format", "json", name="dirs.json")
    assert code == 0
    fresh = enumerate_directions(EnumerationParams(2, 1))
    assert json.loads(text) == [
        {"index": d.index, "canon": list(d.canon), "q": 2.0} for d in fresh
    ]


def test_verify_theorem_small_grid(tmp_path):
    code, text = run(
        tmp_path,
        "verify-theorem",
        "--depth", "60",
        "--indices", "1,5,17",
        "--multipliers=-2,-0.5,0.5,2",
    )
    assert code == 0
    lines = text.strip().split("\n")
    header = lines[1].split(",")
    assert header[:5] == ["k", "lambda", "alpha", "deviation_l1", "residual"]
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 12
    dev_col = header.index("deviation_l1")
    support_col = header.index("support_size")
    lam_col = header.index("lambda")
    for row in rows:
        assert float(row[dev_col]) <= 1e-8
        if abs(float(row[lam_col])) <= 0.3:
            assert int(row[support_col]) == 0  # dead zone rows solve to zero


def test_verify_theorem_flags_impossible_tolerance(tmp_path):
    code, _ = run(
        tmp_path,
        "verify-theorem",
        "--depth", "60",
        "--indices", "17",
        "--multipliers=2",
        "--tol-match=-1",
    )
    assert code == 3


def _theorem_rows(tmp_path, *argv):
    code, text = run(tmp_path, "verify-theorem", "--format", "json", *argv)
    assert code == 0
    return json.loads(text)["rows"]


def _gamma_columns(rows, k):
    return [(r["gamma_spread"], r["gamma_max_residual"]) for r in rows if r["k"] == k]


def test_verify_theorem_gamma_columns_match_the_family(tmp_path):
    # direction 17 faces direction 32: the family exists at depth 60
    depth, alpha, gammas = 60, 0.3, 5
    rows = _theorem_rows(tmp_path, "--depth", str(depth), "--indices", "1,17",
                         "--multipliers=-10,-0.5,2", "--gammas", str(gammas))
    directions = enumerate_directions(EnumerationParams())
    op = build_operator("B", depth, lambda: directions)
    prefix = directions[:depth]
    for row in rows:
        k, lam = row["k"], row["lambda"]
        base = soft_threshold(lam, alpha)
        if base == 0.0:
            assert row["gamma_spread"] == row["gamma_max_residual"] == 0.0
            continue
        problem = TikhonovProblem(op, lam * directions.realized[k - 1, : op.n_rows], alpha)
        lo, hi = sorted((0.0, -base))
        family = [
            closed_form_minimizer(prefix, k, lam, alpha, lo + (hi - lo) * i / (gammas + 1))
            for i in range(1, gammas + 1)
        ]
        values = [objective(problem, x) for x in family]
        assert row["gamma_spread"] == max(values) - min(values)
        assert row["gamma_max_residual"] == max(optimality_residual(problem, x) for x in family)
    assert any(residual > 0.0 for _, residual in _gamma_columns(rows, 17))


def test_verify_theorem_gamma_columns_read_0_without_a_family(tmp_path):
    grid = ["--indices", "1,17", "--multipliers=-10,2"]
    family = _gamma_columns(_theorem_rows(tmp_path, "--depth", "60", *grid), 17)
    assert any(residual > 0.0 for _, residual in family)
    # the partner 32 of direction 17 lies past a depth of 20
    assert _gamma_columns(_theorem_rows(tmp_path, "--depth", "20", *grid), 17) == [(0.0, 0.0)] * 2
    no_samples = _theorem_rows(tmp_path, "--depth", "60", "--gammas", "0", *grid)
    assert [(r["gamma_spread"], r["gamma_max_residual"]) for r in no_samples] == [(0.0, 0.0)] * 4


def test_verify_theorem_without_samples_on_a_subnormal_interval_writes_its_row(tmp_path):
    code, text = run(tmp_path, "verify-theorem", "--alpha", "5e-324", "--multipliers", "2",
                     "--depth", "60", "--indices", "17", "--gammas", "0")
    assert code == 3
    header, row = text.splitlines()[1:]
    assert dict(zip(header.split(","), row.split(",")))["gamma_spread"] == "0"


def test_verify_theorem_rejects_bad_index(tmp_path):
    code, _ = run(tmp_path, "verify-theorem", "--indices", "0")
    assert code == 2


def test_collapse_small_schedule(tmp_path):
    code, text = run(
        tmp_path, "collapse", "--y", "random3", "--depths", "50,200",
        "--probes", "1,2",
    )
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "# seed=42"
    header = lines[2].split(",")
    assert header == [
        "depth", "support_index", "support_size", "best_correlation",
        "beta", "l1_norm", "coord_1", "coord_2", "converged",
    ]
    rows = [line.split(",") for line in lines[3:]]
    assert [r[0] for r in rows] == ["50", "200"]
    assert float(rows[1][3]) >= float(rows[0][3])


DEEP_COLLAPSE = (
    "collapse --y random4 --alpha 0.1 --support 5 --entry 6 "
    "--depths 100,1000,10000,100000,351362"
)


def test_deep_collapse_readme_command_collapses(tmp_path):
    # the whole support-5/entry-6 prefix; computed floats, so no digest
    argv = shlex.split(DEEP_COLLAPSE)
    assert argv in _readme_commands()
    code, text = run(tmp_path, *argv)
    assert code == 0
    lines = text.strip().split("\n")
    header = lines[2].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[3:]]
    assert [int(r["depth"]) for r in rows] == [100, 1000, 10000, 100000, 351362]
    assert all(r["converged"] == "true" for r in rows)
    for j in (1, 2, 3):
        coords = [abs(float(r[f"coord_{j}"])) for r in rows]
        assert all(b <= a for a, b in zip(coords, coords[1:])) and coords[-1] == 0.0
    assert float(rows[-1]["best_correlation"]) > 0.998
    assert abs(float(rows[-1]["l1_norm"]) - (1.0 - 0.1)) < 0.01  # ||y|| - alpha


def test_collapse_rejects_direction_data(tmp_path):
    code, _ = run(tmp_path, "collapse", "--y", "1,0,0", "--depths", "50")
    assert code == 2


# e_1 is direction 1 and the all-ones vector direction 177 (zeta:K: the test below)
@pytest.mark.parametrize("y, depths", [("e:1", "50"), ("ones", "200")])
def test_collapse_data_along_an_enumerated_direction_exits_2(tmp_path, capsys, y, depths):
    code, text = run(tmp_path, "collapse", "--y", y, "--depths", depths)
    assert code == 2 and text == ""
    assert "proportional to an enumerated direction" in capsys.readouterr().err


def test_collapse_rejects_probe_index_zero(tmp_path, capsys):
    code, _ = run(tmp_path, "collapse", "--depths", "50", "--probes", "0")
    assert code == 2
    assert "probe indices" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["probe", "--operator", "B", "--eta", "random9"],
        ["probe", "--operator", "B", "--eta", "1,0,0,1"],
        ["convergence", "--operator", "diag", "--n", "5", "--x-true", "random9"],
        ["convergence", "--operator", "B", "--n", "5", "--x-true", "random9"],
    ],
)
def test_vector_longer_than_operator_exits_2(tmp_path, capsys, argv):
    code, _ = run(tmp_path, *argv)
    assert code == 2
    assert "vector longer than dimension" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["probe", "--operator", "B", "--eta", "zeta:3", "--n", "1"], "does not fit in dimension 1"),
        (["collapse", "--y", "zeta:5", "--depths", "50"], "proportional to an enumerated direction"),
        (["convergence", "--x-true", "zeta:99999"], "direction index 99999 out of range"),
        (["probe", "--operator", "B", "--eta", "e:0"], "basis index 0 out of range for dim 3"),
    ],
)
def test_zeta_data_that_cannot_be_used_exits_2(tmp_path, capsys, argv, message):
    code, text = run(tmp_path, *argv)
    assert code == 2 and text == ""
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("eta", ["random0", "0,0"])
def test_probe_rejects_zero_functional(tmp_path, capsys, eta):
    code, text = run(tmp_path, "probe", "--operator", "B", "--eta", eta, "--n", "50")
    assert code == 2
    assert text == ""
    assert "nonzero functional" in capsys.readouterr().err


@pytest.mark.parametrize("eta", ["nan,1", "inf,1", "1,-inf"])
def test_probe_rejects_non_finite_functional(tmp_path, capsys, eta):
    code, text = run(tmp_path, "probe", "--operator", "B", "--eta", eta, "--n", "20")
    assert code == 2
    assert text == ""
    assert "eta must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_probe_pairings_that_overflow_exit_2(tmp_path, capsys, fmt):
    code, text = run(tmp_path, "probe", "--operator", "B", "--eta", "1.7e308,1.7e308",
                     "--n", "20", "--format", fmt)
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: pairings overflow") and err.count("\n") == 1


def test_json_writers_reject_non_finite_values():
    with pytest.raises(ValueError):
        json_report(["x"], [[float("nan")]])
    report = ProbeReport("B", np.ones(1), np.array([1.0, np.inf]), 0.5)
    with pytest.raises(ValueError):
        report.summary_json()


@pytest.mark.parametrize(
    "argv",
    [
        ["collapse", "--alpha", "nan", "--depths", "50"],
        ["verify-theorem", "--multipliers", "nan", "--depth", "50", "--indices", "1"],
        ["verify-theorem", "--alpha", "inf", "--depth", "50", "--indices", "1"],
        ["convergence", "--deltas", "nan"],
        ["convergence", "--deltas", "1e308", "--alpha-factor", "10"],
        ["convergence", "--alpha-factor", "nan"],
        ["collapse", "--y", "nan,1", "--depths", "50"],
        ["collapse", "--y", "1,inf", "--depths", "50"],
    ],
)
def test_non_finite_alpha_or_data_exits_2(tmp_path, capsys, argv):
    code, text = run(tmp_path, *argv)
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["probe", "--operator", "B", "--eta", "zeta:1"],
        ["probe", "--operator", "CoB", "--eta", "e:1"],
    ],
)
def test_probe_rejects_threshold_that_decides_every_verdict(tmp_path, capsys, argv, threshold):
    code, text = run(tmp_path, *argv, "--n", "50", f"--threshold={threshold}")
    assert code == 2
    assert text == ""
    assert "--threshold" in capsys.readouterr().err


SMALL_GRID = ["verify-theorem", "--depth", "50", "--indices", "1", "--multipliers", "2"]


@pytest.mark.parametrize(
    "argv, option",
    [
        # an infinite tol certified x = 0 on every row, a NaN one flagged every row
        (["collapse", "--depths", "50", "--tol", "inf"], "--tol"),
        (["collapse", "--depths", "50", "--tol", "nan"], "--tol"),
        (["collapse", "--depths", "50", "--tol", "0"], "--tol"),
        (["convergence", "--n", "5", "--tol", "nan"], "--tol"),
        (["convergence", "--n", "5", "--tol", "inf"], "--tol"),
        ([*SMALL_GRID, "--tol-residual", "nan"], "--tol-residual"),
        ([*SMALL_GRID, "--tol-residual", "inf"], "--tol-residual"),
        ([*SMALL_GRID, "--tol-residual=-1"], "--tol-residual"),
        # a NaN --tol-match passed every deviation
        ([*SMALL_GRID, "--tol-match", "nan"], "--tol-match"),
        ([*SMALL_GRID, "--tol-match", "inf"], "--tol-match"),
        ([*SMALL_GRID, "--gammas=-1"], "--gammas"),
    ],
)
def test_tolerances_must_be_finite(tmp_path, capsys, argv, option):
    code, text = run(tmp_path, *argv)
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option} ") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        # 0.5*||y||^2 overflows: best_correlation 0 and converged=true before
        ["collapse", "--y", "1e200,3e200,2e200", "--alpha", "1e199", "--depths", "50"],
        # lambda = 2e200: gamma_spread nan in CSV before
        ["verify-theorem", "--alpha", "1e200", "--multipliers", "2", "--indices", "17",
         "--depth", "50"],
    ],
)
def test_data_whose_objective_overflows_exits_2(tmp_path, capsys, argv, fmt):
    code, text = run(tmp_path, *argv, "--format", fmt)
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err == "error: y is too large: 0.5*||y||_2^2 overflows\n"


def test_allocation_failure_exits_2(tmp_path, capsys):
    # the unit diagonal of 10^18 float64 values asks for 6.94 EiB, so the allocation fails at once
    code, text = run(tmp_path, "growth", "--operator", "E2p", "--sizes", "1000000000000000000")
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1


# only grids past 2^63 cells: a smaller one may pass the allocation and exhaust memory later
@pytest.mark.parametrize("support, entry", [("40", "1"), ("64", "3")])
def test_enumeration_bounds_too_large_to_allocate_exit_2(tmp_path, capsys, support, entry):
    code, text = run(tmp_path, "enumerate", "--support", support, "--entry", entry)
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: Maximum allowed dimension exceeded\n"


def test_diag_too_large_to_allocate_exits_2_before_its_weights(tmp_path, capsys):
    # diag allocates its 6.94 EiB of weights before it evaluates the first of 10^18
    code, text = run(tmp_path, "growth", "--operator", "diag", "--sizes", "1000000000000000000")
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["enumerate", "verify-theorem", "classify", "growth"])
def test_seed_is_rejected_where_nothing_is_drawn(tmp_path, capsys, command):
    assert run(tmp_path, command, "--seed", "7")[0] == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))
    assert run(tmp_path, command, "--config", str(cfg))[0] == 2
    assert capsys.readouterr().err == "error: unknown config key 'seed'\n"


def test_the_sphere_exponent_is_no_option(tmp_path, capsys):
    # every direction lies on the unit sphere of l^2, and the q column reads 2
    assert run(tmp_path, "enumerate", "--q", "2")[0] == 2
    assert "unrecognized arguments: --q 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["collapse", "--depths", "50"],
        ["probe", "--eta", "random2", "--n", "50"],
        ["convergence", "--n", "10", "--deltas", "1e-2"],
    ],
)
def test_seed_is_taken_where_numbers_are_drawn(tmp_path, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))
    code, by_flag = run(tmp_path, *argv, "--seed", "7", name="flag.txt")
    assert code == 0
    code, by_config = run(tmp_path, *argv, "--config", str(cfg), name="config.txt")
    assert code == 0 and by_config == by_flag
    code, default = run(tmp_path, *argv, name="default.txt")
    assert code == 0 and default != by_flag


@pytest.mark.parametrize(
    "argv, option",
    [
        (["growth", "--sizes", ","], "--sizes"),
        (["verify-theorem", "--indices", ","], "--indices"),
        (["verify-theorem", "--multipliers", ","], "--multipliers"),
        (["verify-theorem", "--depth", "0"], "--depth"),
        (["probe", "--n", "0"], "--n"),
        (["growth", "--sizes=-3"], "--sizes"),
        (["growth", "--sizes", "0"], "--sizes"),
        (["growth", "--sizes", "8,0,16"], "--sizes"),
        (["convergence", "--n", "0"], "--n"),
        (["convergence", "--n=-3"], "--n"),
    ],
)
def test_empty_schedule_or_zero_size_names_the_option(tmp_path, capsys, argv, option):
    code, _ = run(tmp_path, *argv)
    assert code == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["collapse", "--depths", "10,x"], "--depths entry 'x' is not an integer"),
        (["collapse", "--probes", "1,y"], "--probes entry 'y' is not an integer"),
        (["growth", "--sizes", "8,1.5"], "--sizes entry '1.5' is not an integer"),
        (["convergence", "--deltas", "1e-2,q"], "--deltas entry 'q' is not a number"),
        (["verify-theorem", "--indices", "1,w"], "--indices entry 'w' is not an integer"),
        (["verify-theorem", "--multipliers", "1,v"], "--multipliers entry 'v' is not a number"),
        (["probe", "--eta", "1,u,0"], "--eta entry 'u' is not a number"),
        (["probe", "--eta", "zeta:x"], "--eta entry 'x' is not an integer"),
        (["probe", "--eta", "e:1:9"], "--eta entry '1:9' is not an integer"),
        (["probe", "--eta", "random-2"], "--eta randomK needs K >= 0"),
        (["collapse", "--y", "1,2,k"], "--y entry 'k' is not a number"),
        (["convergence", "--x-true", "e:k"], "--x-true entry 'k' is not an integer"),
        (["collapse", "--seed", "-1"], "--seed must be a non-negative integer"),
        (["probe", "--seed", "-1"], "--seed must be a non-negative integer"),
        (["convergence", "--seed", "-1"], "--seed must be a non-negative integer"),
        (["collapse", "--probes", "1,1"], "--probes lists 1 more than once"),
        (["collapse", "--depths", "50", "--probes", "3,1,2,1"], "--probes lists 1 more than once"),
        (["verify-theorem", "--depth", "60", "--indices", "17", "--multipliers", "2",
          "--gammas", "100000000000000000000"],
         "--gammas 100000000000000000000 has no room inside (-0.3, 0.0)"),
        (["verify-theorem", "--alpha", "5e-324", "--multipliers", "2", "--depth", "60",
          "--indices", "17"], "--gammas 5 has no room inside (-5e-324, 0.0)"),
        (["collapse", "--y", "1,2,3", "--alpha", "-1"], "alpha must be a positive finite number"),
        (["collapse", "--y", "1,2,3.5", "--alpha", "inf", "--depths", "50"],
         "alpha must be a positive finite number"),
        (["collapse", "--y", "1,2,3", "--depths", ","], "--depths lists no values"),
        (["collapse", "--y", "1,2,3", "--depths", "0"], "--depths must be at least 1"),
        (["collapse", "--y", "1,2,3", "--depths", "50,-3"], "--depths must be at least 1"),
    ],
)
def test_malformed_option_value_exits_2_naming_the_option(tmp_path, capsys, argv, message):
    code, text = run(tmp_path, *argv)
    assert code == 2 and text == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_negative_config_seed_exits_2_naming_the_option(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    assert run(tmp_path, "collapse", "--config", str(cfg))[0] == 2
    assert capsys.readouterr().err == "error: --seed must be a non-negative integer\n"


def test_probe_mazur_persists(tmp_path):
    code, text = run(tmp_path, "probe", "--operator", "B", "--eta", "zeta:1",
                     "--n", "400", "--format", "json")
    assert code == 0
    summary = json.loads(text)
    assert summary["verdict"] == "persists"
    assert summary["sup_tail"] >= 0.5


def test_probe_counterexample_csv(tmp_path):
    code, text = run(tmp_path, "probe", "--operator", "inj", "--eta", "e:1",
                     "--n", "50")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "n,pairing"
    assert all(line.split(",")[1] == "1" for line in lines[1:])


def test_probe_diag_converges(tmp_path):
    code, text = run(tmp_path, "probe", "--operator", "diag", "--eta", "ones",
                     "--n", "200", "--format", "json")
    assert code == 0
    assert json.loads(text)["verdict"] == "converges_to_zero"


def test_probe_counterexample_needs_two_rows(tmp_path):
    code, _ = run(tmp_path, "probe", "--operator", "inj", "--n", "1")
    assert code == 2


def test_classify_catalog_table(tmp_path):
    code, text = run(tmp_path, "classify", "--catalog")
    assert code == 0
    lines = text.strip().split("\n")
    assert len(lines) == 11
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert rows["B"][1] == "IllPosedTypeI" and rows["B"][2] == "true"
    assert rows["D2oD1"][1] == "IllPosedTypeII"
    assert all(r[4] == "true" and r[5] == "" for r in rows.values())


def test_classify_flags(tmp_path):
    code, text = run(
        tmp_path, "classify",
        "--flags", "range_closed=true,nullspace_complemented=true",
    )
    assert code == 0
    assert text.split("\n") == [
        "# rationale=range closed and null-space complemented: well-posed",
        "verdict,hybrid,violations",
        "WellPosed,false,",
        "",
    ]
    code, text = run(
        tmp_path, "classify", "--format", "json", "--flags",
        "range_closed=false,range_has_closed_infdim_subspace=true,"
        "strictly_singular=true,compact=true,nullspace_complemented=true",
    )
    assert code == 0
    report = json.loads(text)
    assert report["rows"] == [
        {"verdict": "IllPosedTypeI", "hybrid": True, "violations": "R1"}
    ]
    assert report["meta"]["rationale"] == "; ".join([
        "range not closed: ill-posed",
        "range contains a closed infinite-dimensional subspace: type I",
        "strictly singular with such a subspace: hybrid case (type I)",
    ])
    code, _ = run(tmp_path, "classify", "--flags", "bogus=true")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--flags="],
        ["classify", "--flags", ","],
        ["classify", "--flags", "bogus=true"],
        ["classify", "--flags", "compact=maybe"],
        ["classify", "--catalog", "--flags", "range_closed=true"],
        ["classify", "--flags", "range_closed=true", "--catalog"],
    ],
)
def test_classify_flags_that_name_no_attribute_or_clash_exit_2(tmp_path, capsys, argv):
    code, text = run(tmp_path, *argv)
    assert code == 2
    assert text == ""
    assert "--flags" in capsys.readouterr().err


@pytest.mark.parametrize("deltas", ["nan", "inf", "-inf", "0", "-1e-3", "1e-1,0", ""])
def test_convergence_rejects_deltas_up_front(tmp_path, capsys, deltas):
    code, text = run(tmp_path, "convergence", f"--deltas={deltas}")
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: --deltas") and "alpha" not in err


def test_convergence_diag(tmp_path):
    code, text = run(tmp_path, "convergence", "--operator", "diag", "--n", "30",
                     "--deltas", "1e-1,1e-2,1e-3")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "# guaranteed=true"
    rows = [line.split(",") for line in lines[3:]]
    errors = [float(r[2]) for r in rows]
    assert errors == sorted(errors, reverse=True)


def test_convergence_mazur_drifts(tmp_path):
    code, text = run(tmp_path, "convergence", "--operator", "B", "--n", "800",
                     "--deltas", "1e-1,1e-4", "--tol", "1e-8")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "# guaranteed=false"
    rows = [line.split(",") for line in lines[3:]]
    assert len({r[3] for r in rows}) == 2  # support index drifts


def test_growth_diag(tmp_path):
    code, text = run(tmp_path, "growth", "--operator", "diag", "--sizes", "8,64")
    assert code == 0
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    for row, n in zip(rows, (8, 64)):
        assert float(row[2]) == pytest.approx(n, rel=1e-10)


def test_config_file_defaults_and_flag_priority(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"support": 2, "entry": 1}))
    code, text = run(tmp_path, "enumerate", "--config", str(cfg))
    assert code == 0
    assert len(text.strip().split("\n")) == 9  # bounds taken from the file
    code, text = run(tmp_path, "enumerate", "--config", str(cfg), "--entry", "2")
    assert code == 0
    assert len(text.strip().split("\n")) > 9  # explicit flag wins


@pytest.mark.parametrize("flag", [["--alpha=0.3"], ["--alpha", "0.3"]])
def test_config_file_loses_to_explicit_flag_in_both_forms(tmp_path, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.2, "depths": "50"}))
    code, text = run(tmp_path, "collapse", *flag, "--config", str(cfg),
                     "--format", "json")
    assert code == 0
    payload = json.loads(text)
    assert payload["meta"]["alpha"] == 0.3
    assert [row["depth"] for row in payload["rows"]] == [50]  # from the file


def test_config_file_values_match_the_flags_they_replace(tmp_path):
    # a JSON integer for a float option must report as the flag's float does
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depth": 60, "alpha": 1, "indices": "17",
                               "multipliers": "2", "format": "json"}))
    code_a, text_a = run(tmp_path, "verify-theorem", "--config", str(cfg),
                         name="config.json")
    code_b, text_b = run(tmp_path, "verify-theorem", "--depth", "60",
                         "--alpha", "1", "--indices", "17", "--multipliers",
                         "2", "--format", "json", name="flags.json")
    assert code_a == code_b == 0
    assert text_a == text_b


@pytest.mark.parametrize(
    "command, config",
    [
        ("verify-theorem", {"depth": "20"}),
        ("verify-theorem", {"depth": 20.5}),
        ("verify-theorem", {"depth": True}),
        ("collapse", {"alpha": "0.3"}),
        ("collapse", {"depths": [50, 200]}),
        ("classify", {"catalog": "yes"}),
        ("enumerate", {"format": "xml"}),
        ("enumerate", {"bogus": 1}),
        ("enumerate", {"config": "other.json"}),
        ("enumerate", {"func": None}),
        ("enumerate", [["support", 2]]),
        ("enumerate", {"q": 2}),
    ],
)
def test_bad_config_exits_2_without_traceback(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, _ = run(tmp_path, command, "--config", str(cfg))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("name", [entry.label for entry in catalog()])
def test_every_operator_name_probes_grows_and_solves(tmp_path, name):
    assert run(tmp_path, "probe", "--operator", name, "--n", "60")[0] == 0
    assert run(tmp_path, "growth", "--operator", name, "--sizes", "8,16")[0] == 0
    # the Tikhonov problem takes only operators from l^1 into l^2
    expected = 0 if name in ("B", "diag", "inj", "CoB") else 2
    assert run(tmp_path, "convergence", "--operator", name, "--n", "30")[0] == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["probe", "--operator", "nope"],
        ["probe", "--operator", "identity"],
        ["growth", "--operator", "nope"],
        ["convergence", "--operator", "nope"],
    ],
)
def test_unknown_operator_name_exits_2(tmp_path, argv):
    assert run(tmp_path, *argv)[0] == 2


@pytest.mark.parametrize("command", ["probe", "growth", "convergence"])
@pytest.mark.parametrize("name", ["identity", "embed"])
def test_names_outside_the_catalog_exit_2_listing_its_ten_labels(tmp_path, capsys, command, name):
    assert run(tmp_path, command, "--operator", name) == (2, "")
    known = "B, E2p, diag, EoB, CoB, BxI, D1, D2, D2oD1, inj"
    assert capsys.readouterr().err == f"error: unknown operator {name!r}; known: {known}\n"


def test_probe_has_no_compose_option(tmp_path, capsys):
    assert run(tmp_path, "probe", "--compose", "diag") == (2, "")
    assert "unrecognized arguments: --compose" in capsys.readouterr().err


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    return [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("illposed ")
    ]


def test_readme_library_tour_runs_and_matches_its_comments():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = re.search(r"## Library quick tour\n\n```python\n(.*?)```", readme, flags=re.S).group(1)
    namespace: dict = {}
    exec(tour, namespace)
    commented = [line.partition("#")[0] for line in tour.splitlines() if "#" in line]
    (support, residual), distance, verdict, persistence = [
        eval(expr, namespace) for expr in commented
    ]
    assert support == (17,) and residual <= 1e-12 and namespace["cert"].converged
    assert distance <= 1e-15
    posedness = namespace["ip"].classify(namespace["B"].attributes)
    assert verdict.value == "IllPosedTypeI" and posedness.hybrid
    assert persistence == "persists"


def test_reports_are_deterministic(tmp_path):
    for args in (
        ["enumerate", "--support", "2", "--entry", "2"],
        ["collapse", "--y", "random3", "--depths", "50,200", "--probes", "1,2,3"],
        ["probe", "--operator", "B", "--eta", "zeta:1", "--n", "300"],
        ["classify", "--catalog"],
        ["growth", "--operator", "diag", "--sizes", "8,16"],
    ):
        _, first = run(tmp_path, *args, name="a.txt")
        _, second = run(tmp_path, *args, name="b.txt")
        assert first == second
    readme = _readme_commands()
    assert len(readme) >= 10
    for args in readme:
        for fmt in ("csv", "json"):
            code_a, first = run(tmp_path, *args, "--format", fmt, name="a.txt")
            code_b, second = run(tmp_path, *args, "--format", fmt, name="b.txt")
            assert code_a == code_b == 0, args
            assert first and first == second, args


# README outputs made of integers and strings only, so no BLAS or CPU
# difference can move their bytes; outputs with computed floats stay out
README_DIGESTS = {
    ("enumerate --support 2 --entry 1", "csv"):
        "3c005f9f9e69a31bd85aa42038cc5009eef802a5031c9a0a12074967e41844a4",
    ("enumerate --support 2 --entry 1", "json"):
        "2c1e717f2686e6155a56419fa1c3f3e9a45aac1c3d4bbdbe7c1ad1352d442bf7",
    ("classify --catalog", "csv"):
        "f180f7070f6a491462a6b24757692b7962bf6f355fac0c3c13f7cb3569c6603f",
    ("classify --catalog", "json"):
        "840f1dfd187418060b9fafde9218dab6f7bfc92eeac1e3dc25c2b2fc88191a47",
    ("classify --flags range_closed=true,nullspace_complemented=false", "csv"):
        "708509ca2ab5f22faf885fcf00ff8b1a1ceac93702de4c0f43c0e25cfe858b4a",
    ("classify --flags range_closed=true,nullspace_complemented=false", "json"):
        "731e719135a5be25bd8a0de090c5c09abb57da71a5ce2736b191cd9488f96f82",
}


@pytest.mark.parametrize("command, fmt", list(README_DIGESTS))
def test_readme_outputs_without_computed_floats_match_their_digest(tmp_path, command, fmt):
    assert shlex.split(command) in _readme_commands()
    code, text = run(tmp_path, *shlex.split(command), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == README_DIGESTS[command, fmt]


# The README probe of CoB o B against e_1, which once had its own option;
# its pairings are computed floats, pinned here and in CI all the same
README_PROBE = "probe --operator CoB --eta e:1 --n 2000"
README_PROBE_DIGESTS = {
    "csv": "1fed047fe026e0ba34cd914cd9f2d96a8eb9050344e7256897710c496fabb647",
    "json": "6574deccb0eaae46e4025ff429a66369b66ebce3bcda2cf0852919313e01a19b",
}


@pytest.mark.parametrize("fmt", list(README_PROBE_DIGESTS))
def test_readme_probe_of_the_composed_diagonal_matches_its_digest(tmp_path, fmt):
    assert shlex.split(README_PROBE) in _readme_commands()
    code, text = run(tmp_path, *shlex.split(README_PROBE), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == README_PROBE_DIGESTS[fmt]


# Pairings 1/k: the first line (E = 0) and the last 10,000 (E = -5) lie
# off the exact product's window of float_cells and take the % operator
OFF_WINDOW_PROBE = "probe --operator diag --eta ones --n 20000"
OFF_WINDOW_PROBE_DIGESTS = {
    "csv": "52b290265cfb12cea9b5347b2379f9fa526d0f9b217ad496692c0e3624336203",
    "json": "4ef7e2174e48254ccf24952c11f00aa3647932231c08a3f171182e9e88475417",
}


@pytest.mark.parametrize("fmt", list(OFF_WINDOW_PROBE_DIGESTS))
def test_probe_off_the_exact_window_matches_its_digest(tmp_path, fmt):
    code, text = run(tmp_path, *shlex.split(OFF_WINDOW_PROBE), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == OFF_WINDOW_PROBE_DIGESTS[fmt]


# Enumerate outputs that are no README command, over several supports and
# entries, made of integers only and pinned the same way
ENUMERATE_DIGESTS = {
    ("enumerate --support 3 --entry 4", "csv"):
        "0d032c539a43f9415723af63cc90d46fa3c75bf7edb33c740113af8b1b7e9339",
    ("enumerate --support 3 --entry 4", "json"):
        "7f9d785adc031a9c48eabc89957c1252073d008c3fab792b5f657ca1dfe63161",
    ("enumerate --support 4 --entry 3", "csv"):
        "551f6a8582dceb767082cdda15566d528a4d51c2e38353e9a00a28dce8bd1b21",
    ("enumerate --support 4 --entry 3", "json"):
        "e21e1d06401e4f38de7a98948d1909933b09ae4aa8aee6b3e10ce88674341c65",
}


@pytest.mark.parametrize("command, fmt", list(ENUMERATE_DIGESTS))
def test_enumerate_outputs_match_their_digest(tmp_path, command, fmt):
    code, text = run(tmp_path, *shlex.split(command), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATE_DIGESTS[command, fmt]
