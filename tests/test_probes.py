import json

import numpy as np
import pytest

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
from illposed.probes import composition_probe, pseudoinverse_growth, weak_star_probe


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
