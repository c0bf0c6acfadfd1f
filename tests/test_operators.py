import numpy as np
import pytest

from illposed.directions import EnumerationParams, enumerate_directions
from illposed.operators import (
    OperatorAttributes,
    SpaceTag,
    TruncatedOperator,
    block_product,
    compose,
    diagonal,
    embedding,
    identity,
    injective_counterexample,
    injective_counterexample_inverse,
    mazur,
)


def test_mazur_single_row_matrix():
    dirs = enumerate_directions(EnumerationParams(2.0, 1, 1))
    op = mazur(dirs, 2, 1)
    np.testing.assert_array_equal(op.entries, [[1.0, -1.0]])
    assert op.domain_tag == SpaceTag.ell(1.0, 2)
    assert op.codomain_tag == SpaceTag.ell(2.0, 1)


def test_mazur_columns_are_realized_directions(master_directions):
    op = mazur(master_directions, 50, 3)
    for k in (1, 3, 10, 50):
        e = np.zeros(50)
        e[k - 1] = 1.0
        np.testing.assert_array_equal(
            op.entries @ e, master_directions[k - 1].realized_padded(3)
        )


def test_mazur_declared_structure(master_directions):
    at = mazur(master_directions, 20, 3).attributes
    assert at.strictly_singular is True
    assert at.compact is False
    assert at.nullspace_complemented is False
    assert at.range_closed is True
    assert at.range_has_closed_infdim_subspace is True
    assert at.surjective is True
    assert at.injective is False
    assert at.weakstar_to_weak_continuous is False


def test_mazur_rejects_support_overflow():
    dirs = enumerate_directions(EnumerationParams(2.0, 2, 1))
    with pytest.raises(ValueError, match="support overflow"):
        mazur(dirs, 8, 1)
    mazur(dirs, 2, 1)  # e1, -e1 fit in one row


@pytest.mark.parametrize("q", [2.0, 3.0])
def test_mazur_columns_have_unit_q_norm(q):
    dirs = enumerate_directions(EnumerationParams(q, 3, 4))
    op = mazur(dirs, len(dirs), 3)
    norms = np.sum(np.abs(op.entries) ** q, axis=0) ** (1.0 / q)
    assert np.max(np.abs(norms - 1.0)) <= 1e-10


def test_embedding_identity_action():
    op = embedding(2.0, 4.0, 4)
    x = np.array([0.5, -1.0, 2.0, 0.0])
    np.testing.assert_array_equal(op.entries @ x, x)
    assert embedding(2.0, 4.0, 1).entries[0, 0] == 1.0
    at = op.attributes
    assert at.strictly_singular is True and at.compact is False
    assert at.range_closed is False
    assert at.range_has_closed_infdim_subspace is False
    assert at.nullspace_complemented is True  # injective, trivial null-space


def test_embedding_rejects_bad_exponents():
    with pytest.raises(ValueError):
        embedding(2.0, 2.0, 3)
    with pytest.raises(ValueError):
        embedding(4.0, 2.0, 3)


def test_diagonal_entries_and_validation():
    op = diagonal(lambda k: 1.0 / k, 3)
    np.testing.assert_allclose(op.entries, np.diag([1.0, 0.5, 1.0 / 3.0]))
    with pytest.raises(ValueError):
        diagonal([1.0, -0.5], 2)
    with pytest.raises(ValueError):
        diagonal([0.5, 1.0], 2)


def test_diagonal_min_singular_value_and_decay():
    n = 12
    op = diagonal(lambda k: 1.0 / k, n)
    smin = np.linalg.svd(op.entries, compute_uv=False)[-1]
    assert smin == pytest.approx(1.0 / n, rel=1e-12)
    for k in (1, 4, n):
        e = np.zeros(n)
        e[k - 1] = 1.0
        assert np.linalg.norm(op.entries @ e) == pytest.approx(1.0 / k, rel=1e-12)


def test_identity_flags_depend_on_exponent():
    assert identity(3).attributes.weakstar_to_weak_continuous is True
    assert identity(3, exponent=1.0).attributes.weakstar_to_weak_continuous is False


def test_compose_with_identity_reproduces_entries(master_directions):
    op = mazur(master_directions, 30, 3)
    out = compose(identity(3), op)
    np.testing.assert_array_equal(out.entries, op.entries)


def test_compose_compact_diagonal_with_mazur(master_directions):
    b = mazur(master_directions, 30, 3)
    c = diagonal(lambda k: 1.0 / k, 3)
    out = compose(c, b)
    at = out.attributes
    assert at.compact is True
    assert at.nullspace_complemented is False
    assert at.weakstar_to_weak_continuous is False
    assert at.range_closed is False
    assert at.range_has_closed_infdim_subspace is False
    np.testing.assert_allclose(out.entries, c.entries @ b.entries)


def test_compose_embedding_with_mazur_not_compact(master_directions):
    b = mazur(master_directions, 30, 3)
    out = compose(embedding(2.0, 4.0, 3), b)
    at = out.attributes
    assert at.compact is False
    assert at.strictly_singular is True
    assert at.range_has_closed_infdim_subspace is False


def test_compose_rejects_mismatch(master_directions):
    b = mazur(master_directions, 30, 3)
    with pytest.raises(ValueError):
        compose(diagonal(lambda k: 1.0 / k, 4), b)
    with pytest.raises(ValueError):
        compose(identity(3, exponent=4.0), b)  # exponent mismatch


def test_block_product_entries_and_flags(master_directions):
    b = mazur(master_directions, 30, 3)
    pair = block_product(b, identity(3))
    assert pair.entries.shape == (6, 33)
    np.testing.assert_array_equal(pair.entries[:3, :30], b.entries)
    np.testing.assert_array_equal(pair.entries[3:, 30:], np.eye(3))
    at = pair.attributes
    assert at.range_closed is True
    assert at.range_has_closed_infdim_subspace is True
    assert at.nullspace_complemented is False
    assert at.strictly_singular is False
    assert at.surjective is True
    assert at.weakstar_to_weak_continuous is False

    both = block_product(identity(2), identity(2))
    np.testing.assert_array_equal(both.entries, np.eye(4))


def test_block_composition_equals_direct_pair():
    c1 = diagonal(lambda k: 1.0 / k, 5)
    d1 = block_product(c1, identity(5))
    d2 = block_product(identity(5), c1)
    composed = compose(d2, d1)
    direct = block_product(c1, c1)
    np.testing.assert_array_equal(composed.entries, direct.entries)


def test_counterexample_matrix_and_images():
    n = 10
    op = injective_counterexample(n)
    assert np.all(op.entries[0] == 1.0)
    for k in range(2, n + 1):
        e = np.zeros(n)
        e[k - 1] = 1.0
        image = op.entries @ e
        expected = np.zeros(n)
        expected[0] = 1.0
        expected[k - 1] = 1.0 / k
        np.testing.assert_array_equal(image, expected)
    e1 = np.zeros(n)
    e1[0] = 1.0
    np.testing.assert_array_equal(op.entries @ e1, e1)
    with pytest.raises(ValueError):
        injective_counterexample(1)


def test_counterexample_inverse_formula():
    n = 60
    op = injective_counterexample(n)
    for k in range(2, 51):
        e = np.zeros(n)
        e[k - 1] = 1.0
        x = injective_counterexample_inverse(e)
        np.testing.assert_allclose(op.entries @ x, e, atol=1e-12)
        assert np.abs(x).sum() == 2.0 * k  # exact
    rng = np.random.default_rng(3)
    x = rng.standard_normal(n)
    np.testing.assert_allclose(
        injective_counterexample_inverse(op.entries @ x), x, atol=1e-9
    )


def _random_ops(master_directions):
    return [
        mazur(master_directions, 25, 3),
        diagonal(lambda k: 1.0 / k, 7),
        injective_counterexample(6),
        block_product(diagonal(lambda k: 1.0 / k, 4), identity(4)),
    ]


def test_apply_adjoint_duality(master_directions):
    rng = np.random.default_rng(5)
    for op in _random_ops(master_directions):
        for _ in range(20):
            x = rng.standard_normal(op.n_cols)
            eta = rng.standard_normal(op.n_rows)
            lhs = float(eta @ (op.entries @ x))
            rhs = float((op.entries.T @ eta) @ x)
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) <= 1e-12 * scale


def test_adjoint_examples(master_directions):
    op = mazur(master_directions, 40, 3)
    for k in (1, 7, 40):
        eta = master_directions[k - 1].realized_padded(3)
        assert (op.entries.T @ eta)[k - 1] == pytest.approx(1.0, abs=1e-14)
    d = diagonal(lambda k: 1.0 / k, 5)
    eta = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    np.testing.assert_allclose(
        d.entries.T @ eta, eta * np.array([1, 1 / 2, 1 / 3, 1 / 4, 1 / 5])
    )


def test_truncated_operator_validation():
    with pytest.raises(ValueError):
        TruncatedOperator(
            np.array([[np.inf]]),
            SpaceTag.ell(1.0, 1),
            SpaceTag.ell(2.0, 1),
            OperatorAttributes(),
            "bad",
        )
    with pytest.raises(ValueError):
        TruncatedOperator(
            np.zeros((2, 2)),
            SpaceTag.ell(1.0, 3),
            SpaceTag.ell(2.0, 2),
            OperatorAttributes(),
            "bad",
        )
