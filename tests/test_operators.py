import tracemalloc

import numpy as np
import pytest

from illposed.classify import build_operator, catalog, harmonic
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
    dirs = enumerate_directions(EnumerationParams(1, 1))
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


def test_mazur_of_a_whole_enumeration_shares_its_realized_matrix():
    # the enumeration stores realized by columns, so realized.T is the matrix
    # and the matrix of a prefix whose rows fit is a view of it
    dirs = enumerate_directions(EnumerationParams(3, 4))
    whole = mazur(dirs, len(dirs), 3)
    assert whole.entries.flags.c_contiguous
    assert not dirs.realized.base.flags.writeable
    prefix = mazur(dirs, 50, 3)
    np.testing.assert_array_equal(prefix.entries, whole.entries[:, :50])
    two_rows = int(np.searchsorted(dirs.support, 3))  # the directions of support <= 2
    low = mazur(dirs, two_rows, 2)
    np.testing.assert_array_equal(low.entries, whole.entries[:2, :two_rows])
    assert not whole.entries[2, :two_rows].any()
    for op in (whole, prefix, low):
        assert np.shares_memory(op.entries, dirs.realized)
        assert not op.entries.flags.writeable
        with pytest.raises(ValueError):
            op.entries.flags.writeable = True
    for n_cols in (50, len(dirs)):
        wider = mazur(dirs, n_cols, 5)
        assert not np.shares_memory(wider.entries, dirs.realized)
        np.testing.assert_array_equal(wider.entries[:3], whole.entries[:, :n_cols])
        assert not wider.entries[3:].any()
    for k in (1, 17, len(dirs)):
        np.testing.assert_array_equal(whole.entries[:, k - 1], dirs[k - 1].realized_padded(3))


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
    dirs = enumerate_directions(EnumerationParams(2, 1))
    with pytest.raises(ValueError, match="support overflow"):
        mazur(dirs, 8, 1)
    mazur(dirs, 2, 1)  # e1, -e1 fit in one row


def test_mazur_columns_have_unit_norm():
    dirs = enumerate_directions(EnumerationParams(3, 4))
    op = mazur(dirs, len(dirs), 3)
    assert op.codomain_tag == SpaceTag.ell(2.0, 3)
    assert np.max(np.abs(np.linalg.norm(op.entries, axis=0) - 1.0)) <= 1e-10


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


@pytest.mark.parametrize("build", [lambda: embedding(2.0, 4.0, 0), lambda: identity(0)])
def test_builders_reject_size_0(build):
    with pytest.raises(ValueError, match="n must be >= 1"):
        build()


def test_diagonal_entries_and_validation():
    op = diagonal(lambda k: 1.0 / k, 3)
    np.testing.assert_allclose(op.entries, np.diag([1.0, 0.5, 1.0 / 3.0]))
    with pytest.raises(ValueError):
        diagonal([1.0, -0.5], 2)
    with pytest.raises(ValueError):
        diagonal([0.5, 1.0], 2)
    with pytest.raises(ValueError, match="need 2 weights, got 1"):
        diagonal([1.0], 2)


def test_diagonal_min_singular_value_and_decay():
    n = 12
    op = diagonal(lambda k: 1.0 / k, n)
    smin = np.linalg.svd(op.entries, compute_uv=False)[-1]
    assert smin == pytest.approx(1.0 / n, rel=1e-12)
    for k in (1, 4, n):
        e = np.zeros(n)
        e[k - 1] = 1.0
        assert np.linalg.norm(op.entries @ e) == pytest.approx(1.0 / k, rel=1e-12)


def test_diagonal_too_large_to_allocate_fails_before_any_weight():
    def sigma(k):
        raise AssertionError(f"weight {k} evaluated before the allocation")

    # 10^18 float64 weights are 6.94 EiB, so the allocation fails at once
    with pytest.raises(MemoryError):
        diagonal(sigma, 10**18)


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


def test_compose_keeps_the_weakstar_to_weak_continuity_of_its_inner_factor():
    out = compose(embedding(2.0, 4.0, 5), diagonal(harmonic, 5))
    assert out.attributes.weakstar_to_weak_continuous is True


def test_compose_rejects_mismatch(master_directions):
    b = mazur(master_directions, 30, 3)
    pair = block_product(identity(2), identity(1))
    for outer, inner in [
        (diagonal(lambda k: 1.0 / k, 4), b),  # dim mismatch
        (identity(3, exponent=4.0), b),  # exponent mismatch
        (identity(3), pair),  # product against ell, same dim
        (pair, block_product(identity(2), identity(1, exponent=4.0))),  # a part's exponent
    ]:
        with pytest.raises(ValueError, match="cannot compose"):
            compose(outer, inner)
    expected = SpaceTag.product(SpaceTag.ell(2, 2), SpaceTag.ell(2, 1))
    assert compose(pair, pair).domain_tag == expected


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


def test_block_product_beside_undeclared_flags_stays_unknown_where_no_block_fails():
    plain = TruncatedOperator(
        np.eye(2), SpaceTag.ell(2.0, 2), SpaceTag.ell(2.0, 2), OperatorAttributes(), "plain"
    )
    at = block_product(identity(2), plain).attributes
    assert at.range_closed is None and at.injective is None  # True beside unknown
    assert at.compact is False  # False beside unknown


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
    with pytest.raises(ValueError, match="length >= 2"):
        injective_counterexample_inverse(np.ones(1))


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
    with pytest.raises(ValueError, match="nonempty 2-d"):
        TruncatedOperator(
            np.ones(2), SpaceTag.ell(1.0, 2), SpaceTag.ell(2.0, 1), OperatorAttributes(), "bad"
        )
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


def test_builders_freeze_their_matrix_without_copying_it():
    # a diagonal build holds its weights, never a dense matrix; the matrix,
    # built on request, is allocated once and kept read-only
    n = 3000
    tracemalloc.start()
    try:
        op = diagonal(harmonic, n)
        _, built = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        entries = op.entries
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built <= 100 * n * 8
    assert peak <= 1.2 * entries.nbytes
    assert op.entries is entries
    assert not entries.flags.writeable and not op.diagonal.flags.writeable


def test_direct_construction_copies_and_freezes():
    entries = np.eye(2)
    op = TruncatedOperator(
        entries, SpaceTag.ell(2.0, 2), SpaceTag.ell(2.0, 2), OperatorAttributes(), "copy"
    )
    entries[0, 0] = 5.0
    assert op.entries[0, 0] == 1.0
    assert not op.entries.flags.writeable
    assert entries.flags.writeable


def _structure(op) -> str:
    if not len(op.rows):
        return "diagonal"
    return "rows" if not len(op.diagonal) else "rows over a diagonal"


@pytest.mark.parametrize("n", [5, 40])
@pytest.mark.parametrize("name", [entry.label for entry in catalog()])
def test_structured_products_match_the_dense_matrix(master_directions, name, n):
    op = build_operator(name, n, lambda: master_directions)
    # no builder materializes a dense matrix: it is the rows block or not built
    assert vars(op).get("entries", op.rows) is op.rows
    expected = {"B": "rows", "EoB": "rows", "CoB": "rows", "BxI": "rows over a diagonal",
                "inj": "rows over a diagonal"}.get(name, "diagonal")
    assert _structure(op) == expected
    # an identity beside it extends the corner diagonal: no dense matrix either
    beside = block_product(op, identity(3))
    assert "entries" not in vars(beside) and vars(op).get("entries", op.rows) is op.rows
    assert _structure(beside) == ("diagonal" if expected == "diagonal" else "rows over a diagonal")
    rng = np.random.default_rng([n, len(name)])
    for op in (op, beside):
        entries = op.entries
        x, eta = rng.standard_normal(op.n_cols), rng.standard_normal(op.n_rows)
        got, want = [op.apply(x), op.adjoint(eta)], [entries @ x, entries.T @ eta]
        if _structure(op) == "rows over a diagonal":
            # the dense product may sum a row or column in another order: within
            # 4 ulp of its 1-norm, the sum of the magnitudes of its terms
            norms = [np.abs(entries) @ np.abs(x), np.abs(entries).T @ np.abs(eta)]
            for g, w, norm in zip(got, want, norms):
                assert np.all(np.abs(g - w) <= 4 * np.spacing(norm))
        else:
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
        for j in range(op.n_cols):
            assert op.column(j).tobytes() == entries[:, j].tobytes()


def test_structured_pieces_of_the_builders():
    inj = injective_counterexample(6)
    np.testing.assert_array_equal(inj.rows, np.ones((1, 6)))
    np.testing.assert_array_equal(inj.diagonal, 1.0 / np.arange(2, 7))
    np.testing.assert_array_equal(inj.entries[1:, 1:], np.diag(inj.diagonal))  # the corner
    scaled = compose(diagonal(harmonic, 3), mazur(enumerate_directions(EnumerationParams(3, 2)), 9, 3))
    assert not len(scaled.diagonal) and scaled.rows.shape == (3, 9)
    pair = block_product(diagonal(harmonic, 2), identity(3))
    assert pair.rows.shape == (0, 5)
    np.testing.assert_array_equal(pair.diagonal, [1.0, 0.5, 1.0, 1.0, 1.0])
    beside = block_product(inj, identity(2))  # continues inj's diagonal at its corner
    assert len(beside.diagonal) == 7 and beside.rows.shape == (1, 8)
    np.testing.assert_array_equal(beside.entries[:6, :6], inj.entries)
    np.testing.assert_array_equal(beside.entries[6:, 6:], np.eye(2))
    dense = block_product(identity(2), inj)  # rows below a diagonal: one dense block
    assert not len(dense.diagonal) and dense.rows.shape == (8, 8)
    np.testing.assert_array_equal(dense.entries[2:, 2:], inj.entries)


def test_structured_construction_validates_the_pieces():
    tags = SpaceTag.ell(2.0, 4), SpaceTag.ell(2.0, 4)
    attrs = OperatorAttributes()
    for rows, diag, n_cols in [
        (np.ones((2, 4)), np.ones(3), 4),  # the diagonal overlaps the rows
        (np.ones((1, 4)), np.ones(4), 4),  # past the last row
        (np.empty((0, 3)), np.ones(4), 3),  # past the last column
        (np.ones((5, 4)), np.ones(0), 4),  # more rows than the codomain
        (np.ones((1, 4)), np.ones(2), 4),  # a diagonal off the corner, row 4 uncovered
        (np.ones((1, 4)), np.ones(0), 4),  # rows 2-4 that no piece covers
    ]:
        with pytest.raises(ValueError, match="do not fit tags"):
            TruncatedOperator(rows, SpaceTag.ell(2.0, n_cols), tags[1], attrs, "bad", diagonal=diag)
    with pytest.raises(ValueError, match="finite"):
        TruncatedOperator(np.ones((1, 4)), *tags, attrs, "bad", diagonal=[1.0, np.nan, 1.0])
    weights = np.ones(3)
    op = TruncatedOperator(np.ones((1, 4)), *tags, attrs, "ok", diagonal=weights)
    weights[0] = 5.0  # copied
    np.testing.assert_array_equal(op.entries, [[1, 1, 1, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    rows = np.zeros((4, 4))
    rows[0] = 1.0
    short = TruncatedOperator(rows, *tags, attrs, "short")  # rows 2-4 are zero rows of the block
    np.testing.assert_array_equal(short.apply(np.arange(4.0)), [6.0, 0.0, 0.0, 0.0])
