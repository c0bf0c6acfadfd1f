import hashlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from illposed.classify import OPERATORS
from illposed.cli import main
from illposed.directions import (
    EnumerationParams,
    directions_from_json,
    enumerate_directions,
)
from illposed.probes import ProbeReport
from illposed.reports import json_report


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
    parsed = directions_from_json(text)
    fresh = enumerate_directions(EnumerationParams(2.0, 2, 1))
    assert [d.canon for d in parsed] == [d.canon for d in fresh]


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


def test_collapse_rejects_direction_data(tmp_path):
    code, _ = run(tmp_path, "collapse", "--y", "1,0,0", "--depths", "50")
    assert code == 2


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
    [["probe", "--operator", "B", "--eta", "zeta:1"], ["probe", "--compose", "diag"]],
)
def test_probe_rejects_threshold_that_decides_every_verdict(tmp_path, capsys, argv, threshold):
    code, text = run(tmp_path, *argv, "--n", "50", f"--threshold={threshold}")
    assert code == 2
    assert text == ""
    assert "--threshold" in capsys.readouterr().err


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
    ],
)
def test_empty_schedule_or_zero_size_names_the_option(tmp_path, capsys, argv, option):
    code, _ = run(tmp_path, *argv)
    assert code == 2
    assert option in capsys.readouterr().err


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


def test_probe_composition_matches_identity_factor(tmp_path):
    code_a, text_a = run(tmp_path, "probe", "--operator", "B", "--eta", "zeta:1",
                         "--n", "400", name="direct.csv")
    code_b, text_b = run(tmp_path, "probe", "--compose", "identity", "--n", "400",
                         name="composed.csv")
    assert code_a == code_b == 0
    assert text_a == text_b


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
    ],
)
def test_bad_config_exits_2_without_traceback(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, _ = run(tmp_path, command, "--config", str(cfg))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("name", list(OPERATORS))
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
        ["probe", "--compose", "nope"],
        ["growth", "--operator", "nope"],
        ["convergence", "--operator", "nope"],
    ],
)
def test_unknown_operator_name_exits_2(tmp_path, argv):
    assert run(tmp_path, *argv)[0] == 2


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    return [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("illposed ")
    ]


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
    ("enumerate --q 2 --support 2 --entry 1", "csv"):
        "3c005f9f9e69a31bd85aa42038cc5009eef802a5031c9a0a12074967e41844a4",
    ("enumerate --q 2 --support 2 --entry 1", "json"):
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
