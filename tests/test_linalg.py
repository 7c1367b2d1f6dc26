"""Tests for the dense linear-algebra kernels."""

import warnings

import numpy as np
import pytest

from accelerant.linalg import (
    GmresTrace,
    RankDeficiencyError,
    gmres_oracle,
    jacobi_svd,
    least_squares,
    lu_solve,
    qr_mgs,
)
from accelerant.linalg import _determinant, _upper_mask

from _oracles import cyclic_jacobi_eigenvalues, lu_solve_reference, \
    qr_mgs_reference


def _same_bits(x, y):
    return np.array_equal(np.asarray(x).view(np.int64),
                          np.asarray(y).view(np.int64))


# -- qr_mgs ------------------------------------------------------------------

def test_qr_identity():
    f = qr_mgs(np.eye(3))
    np.testing.assert_array_equal(f.q, np.eye(3))
    np.testing.assert_array_equal(f.r, np.eye(3))


def test_qr_single_column():
    f = qr_mgs([[3.0], [4.0]])
    np.testing.assert_allclose(f.r, [[5.0]])
    np.testing.assert_allclose(f.q, [[0.6], [0.8]])


def test_qr_duplicated_columns():
    a = np.ones((4, 2))
    with pytest.raises(RankDeficiencyError) as err:
        qr_mgs(a)
    assert err.value.column == 1


def test_qr_rejects_wide_matrices():
    with pytest.raises(ValueError):
        qr_mgs(np.ones((2, 3)))


@pytest.mark.parametrize("shape", [(5, 3), (40, 12), (200, 50)])
def test_qr_orthogonality_and_reconstruction(shape):
    rng = np.random.default_rng(hash(shape) % 2 ** 32)
    a = rng.standard_normal(shape)
    f = qr_mgs(a)
    n = shape[1]
    assert np.max(np.abs(f.q.T @ f.q - np.eye(n))) <= 1e-10
    assert np.linalg.norm(a - f.q @ f.r) <= 1e-10 * np.linalg.norm(a)
    assert np.allclose(f.r, np.triu(f.r))


@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (100, 5), (400, 6)])
def test_qr_matches_the_plain_loop_bit_for_bit(shape):
    rng = np.random.default_rng(shape[0])
    for layout in ("C", "F"):
        a = np.array(rng.standard_normal(shape), order=layout)
        q, r = qr_mgs_reference(a)
        factors = qr_mgs(a)
        assert _same_bits(factors.q, q) and _same_bits(factors.r, r)


def test_qr_hard_case_orthogonality():
    # nearly dependent columns stress the reorthogonalization pass
    rng = np.random.default_rng(3)
    base = rng.standard_normal((60, 1))
    a = base + 1e-9 * rng.standard_normal((60, 8))
    f = qr_mgs(a)
    assert np.max(np.abs(f.q.T @ f.q - np.eye(8))) <= 1e-10


# -- lu_solve ----------------------------------------------------------------

def test_lu_identity():
    b = np.array([1.0, 2.0])
    np.testing.assert_array_equal(lu_solve(np.eye(2), b), b)


def test_lu_diagonal():
    x = lu_solve([[2.0, 0.0], [0.0, 4.0]], np.array([2.0, 8.0]))
    np.testing.assert_allclose(x, [1.0, 2.0])


def test_lu_singular():
    with pytest.raises(RankDeficiencyError):
        lu_solve([[1.0, 1.0], [1.0, 1.0]], np.array([1.0, 1.0]))


def test_lu_random_systems():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.standard_normal((9, 9))
        x_true = rng.standard_normal(9)
        x = lu_solve(a, a @ x_true)
        np.testing.assert_allclose(x, x_true, rtol=1e-9, atol=1e-11)


def test_lu_needs_pivoting():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(lu_solve(a, np.array([2.0, 3.0])), [3.0, 2.0])


def test_lu_matches_the_plain_elimination_bit_for_bit():
    # the row swaps copy rows and the updates broadcast a product instead
    # of np.outer: the arithmetic, and so every bit, is unchanged
    rng = np.random.default_rng(2026)
    for n in range(1, 9):
        for _ in range(20):
            a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-8, 8)
            if n > 1 and rng.random() < 0.3:
                a[0, 0] = 0.0  # a swap at the first column, always
            for layout in ("C", "F"):
                matrix = np.array(a, order=layout)
                b = rng.standard_normal(n)
                assert _same_bits(lu_solve(matrix, b),
                                  lu_solve_reference(matrix, b))


def test_lu_growth_mask_takes_the_triu_maximum_bit_for_bit():
    rng = np.random.default_rng(19)
    for n in range(1, 9):
        for _ in range(20):
            a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-8, 8)
            # near-singular: a rank-one matrix plus a tiny perturbation
            u, v = rng.standard_normal(n), rng.standard_normal(n)
            near = np.outer(u, v) + 1e-13 * rng.standard_normal((n, n))
            for m in (a, near, -np.abs(a)):
                expected = np.abs(np.triu(m)).max()
                got = np.abs(m).max(where=_upper_mask(n), initial=0.0)
                assert _same_bits(got, expected)
    assert _upper_mask(4) is _upper_mask(4)
    assert not _upper_mask(4).flags.writeable


def _wilkinson(n):
    """Partial pivoting's worst case: unit diagonal, -1 below it and a last
    column of ones; U's last column grows to 2**(n-1)."""
    a = np.eye(n) - np.tril(np.ones((n, n)), -1)
    a[:, -1] = 1.0
    return a


def test_lu_warns_on_large_element_growth():
    b = np.ones(28)
    message = r"large element growth \(1\.34e\+08\)"
    with pytest.warns(RuntimeWarning, match=message):
        lu_solve(_wilkinson(28), b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lu_solve(_wilkinson(27), b[:27])  # growth 6.7e7, under the 1e8 limit


def test_lu_rhs_shape_mismatch():
    with pytest.raises(ValueError):
        lu_solve(np.eye(2), np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("n, shape", [(2, (2, 2)), (4, (2, 2)), (2, (2, 1))])
def test_lu_rejects_a_matrix_rhs(n, shape):
    with pytest.raises(ValueError, match="1-D"):
        lu_solve(np.eye(n), np.ones(shape))


def test_lu_rejects_a_nonfinite_rhs():
    with pytest.raises(ValueError, match="finite"):
        lu_solve(np.eye(2), np.array([np.inf, 1.0]))


# -- determinant helper ------------------------------------------------------

def test_determinant_small_cases():
    assert _determinant([[2.0]]) == 2.0
    assert _determinant([[1.0, 2.0], [3.0, 4.0]]) == pytest.approx(-2.0)
    assert _determinant([[1.0, 1.0], [1.0, 1.0]]) == 0.0


def test_determinant_matches_numpy():
    rng = np.random.default_rng(5)
    for n in (3, 5, 8):
        a = rng.standard_normal((n, n))
        assert _determinant(a) == pytest.approx(np.linalg.det(a), rel=1e-10)


# -- least_squares -----------------------------------------------------------

def test_lstsq_identity():
    fit = least_squares(np.eye(3), np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(fit.coefficients, [1.0, 2.0, 3.0])
    assert fit.residual_norm == pytest.approx(0.0, abs=1e-14)
    assert not fit.rank_deficient


def test_lstsq_overdetermined_by_hand():
    fit = least_squares([[1.0], [1.0]], np.array([0.0, 2.0]))
    np.testing.assert_allclose(fit.coefficients, [1.0])
    assert fit.residual_norm == pytest.approx(np.sqrt(2.0))


def test_lstsq_zero_column_flags_fallback():
    a = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    fit = least_squares(a, np.array([1.0, 5.0, 1.0]))
    assert fit.rank_deficient
    np.testing.assert_allclose(fit.coefficients, [1.0, 0.0], atol=1e-12)


def test_lstsq_min_norm_among_solutions():
    # duplicated column: solutions are theta0 + theta1 = 1; min norm (0.5, 0.5)
    a = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    b = np.array([1.0, 2.0, 3.0])
    fit = least_squares(a, b)
    assert fit.rank_deficient
    np.testing.assert_allclose(fit.coefficients, [0.5, 0.5], atol=1e-10)
    assert fit.residual_norm <= 1e-10


def test_lstsq_near_duplicate_column_takes_min_norm_path():
    # column 1 = column 0 * (1 + 1e-14) fails the 1e-12 breakdown check, so
    # the weights split evenly across the two copies of that column
    rng = np.random.default_rng(19)
    base = rng.standard_normal(50)
    other = rng.standard_normal(50)
    a = np.column_stack([base, base * (1.0 + 1e-14), other])
    b = rng.standard_normal(50)
    fit = least_squares(a, b)
    assert fit.rank_deficient
    reduced = np.linalg.lstsq(np.column_stack([base, other]), b, rcond=None)[0]
    expect = [reduced[0] / 2.0, reduced[0] / 2.0, reduced[1]]
    np.testing.assert_allclose(fit.coefficients, expect, rtol=1e-10)
    assert fit.coefficients[0] == pytest.approx(fit.coefficients[1], rel=1e-12)


@pytest.mark.parametrize("shape", [(1, 2), (2, 5), (3, 4)])
def test_lstsq_wide_matrix_takes_min_norm_path(shape):
    # more columns than rows: never full column rank, so the minimum-norm
    # fit comes back flagged, where qr_mgs itself refuses the matrix
    rng = np.random.default_rng(23)
    a = rng.standard_normal(shape)
    b = rng.standard_normal(shape[0])
    fit = least_squares(a, b)
    assert fit.rank_deficient
    np.testing.assert_array_equal(
        fit.coefficients, np.linalg.lstsq(a, b, rcond=1e-12)[0])
    assert fit.residual_norm <= 1e-12
    with pytest.raises(ValueError, match="rows >= cols"):
        qr_mgs(a)


def test_lstsq_cuts_a_tiny_column_against_the_largest_singular_value():
    # column 1 is independent of the others but 1e-13 of their size: the
    # cutoff is relative to the largest singular value, not to each
    # column's own norm, so it is dropped and the fit is flagged
    rng = np.random.default_rng(29)
    a = rng.standard_normal((40, 4))
    a[:, 1] *= 1e-13
    b = rng.standard_normal(40)
    fit = least_squares(a, b)
    assert fit.rank_deficient
    np.testing.assert_array_equal(
        fit.coefficients, np.linalg.lstsq(a, b, rcond=1e-12)[0])


def test_lstsq_matches_normal_equations():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((30, 6))
    b = rng.standard_normal(30)
    fit = least_squares(a, b)
    theta_ref = np.linalg.solve(a.T @ a, a.T @ b)
    np.testing.assert_allclose(fit.coefficients, theta_ref, rtol=1e-8, atol=1e-10)


# -- jacobi_svd --------------------------------------------------------------

def test_svd_diagonal():
    f = jacobi_svd(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(f.sigma, [3.0, 1.0])
    np.testing.assert_allclose(np.abs(f.u), np.eye(2), atol=1e-14)
    np.testing.assert_allclose(np.abs(f.v), np.eye(2), atol=1e-14)


def test_svd_antidiagonal():
    f = jacobi_svd([[0.0, 2.0], [1.0, 0.0]])
    np.testing.assert_allclose(f.sigma, [2.0, 1.0])


def test_svd_zero_matrix():
    f = jacobi_svd(np.zeros((3, 2)))
    np.testing.assert_allclose(f.sigma, [0.0, 0.0])
    assert np.max(np.abs(f.u.T @ f.u - np.eye(2))) <= 1e-12


def test_svd_reconstruction_and_orthogonality():
    rng = np.random.default_rng(23)
    for shape in [(6, 4), (30, 10), (12, 12)]:
        a = rng.standard_normal(shape)
        f = jacobi_svd(a)
        n = shape[1]
        assert np.max(np.abs(f.u.T @ f.u - np.eye(n))) <= 1e-10
        assert np.max(np.abs(f.v.T @ f.v - np.eye(n))) <= 1e-10
        recon = f.u @ np.diag(f.sigma) @ f.v.T
        assert np.linalg.norm(a - recon) <= 1e-9 * np.linalg.norm(a)
        assert np.all(np.diff(f.sigma) <= 1e-15)


def test_svd_matches_eigenvalue_oracle():
    rng = np.random.default_rng(29)
    for n in (3, 6, 9):
        a = rng.standard_normal((n + 4, n))
        f = jacobi_svd(a)
        eigs = cyclic_jacobi_eigenvalues(a.T @ a)
        np.testing.assert_allclose(f.sigma, np.sqrt(np.clip(eigs, 0.0, None)),
                                   rtol=1e-9, atol=1e-12)


def test_svd_graded_matrix():
    # widely spread singular values still come out to high relative accuracy
    u_seed = np.linalg.qr(np.random.default_rng(31).standard_normal((8, 8)))[0]
    sigma = 10.0 ** -np.arange(8.0)
    a = u_seed @ np.diag(sigma) @ u_seed.T
    f = jacobi_svd(a)
    np.testing.assert_allclose(f.sigma, sigma, rtol=1e-9)


def test_svd_equal_column_norms_rotate_by_a_quarter_turn():
    # both columns have squared norm 2, so zeta = 0 and the rotation is
    # the 45-degree one (t = 1)
    a = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    f = jacobi_svd(a)
    np.testing.assert_allclose(f.sigma, np.linalg.svd(a, compute_uv=False),
                               rtol=1e-14)
    np.testing.assert_allclose(f.u @ np.diag(f.sigma) @ f.v.T, a,
                               atol=1e-14)


def test_svd_shape_guards():
    with pytest.raises(ValueError):
        jacobi_svd(np.ones((2, 3)))


# -- gmres_oracle ------------------------------------------------------------

def test_gmres_identity_converges_immediately():
    trace = gmres_oracle(np.eye(4), np.ones(4), 3)
    assert trace.residual_norms[1] <= 1e-13
    assert trace.exact


def test_gmres_two_eigenvalues_two_steps():
    trace = gmres_oracle(np.diag([1.0, 2.0]), np.array([1.0, 1.0]), 2)
    assert trace.residual_norms[2] <= 1e-12
    assert trace.residual_norms[1] > 1e-3


def test_gmres_monotone_residuals():
    rng = np.random.default_rng(37)
    m = rng.standard_normal((10, 10))
    a = m @ m.T + 10 * np.eye(10)  # SPD
    trace = gmres_oracle(a, rng.standard_normal(10), 10)
    diffs = np.diff(trace.residual_norms)
    assert np.all(diffs <= 1e-12)


def test_gmres_accepts_callable_operator():
    a = np.diag([2.0, 3.0, 4.0])
    trace_mat = gmres_oracle(a, np.ones(3), 3)
    trace_op = gmres_oracle(lambda x: a @ x, np.ones(3), 3)
    np.testing.assert_allclose(trace_mat.residual_norms, trace_op.residual_norms,
                               atol=1e-13)


def test_gmres_zero_rhs():
    trace = gmres_oracle(np.eye(2), np.zeros(2), 2)
    assert trace.exact and trace.residual_norms[0] == 0.0


INPUT_CHECKS = {
    "matrix-not-2d": (lambda: lu_solve(np.ones(3), np.ones(3)),
                      "expected a 2-D matrix"),
    "lu-not-square": (lambda: lu_solve(np.ones((2, 3)), np.ones(2)),
                      "lu_solve requires a square matrix"),
    "determinant-not-square": (lambda: _determinant(np.ones((2, 3))),
                               "determinant requires a square matrix"),
    "svd-too-wide": (lambda: jacobi_svd(np.zeros((1201, 1201))),
                     r"desk-scale only \(cols <= 1200\)"),
    "gmres-k-above-dimension": (lambda: gmres_oracle(np.eye(2), np.ones(2), 3),
                                "gmres_oracle requires 0 <= k <= dimension"),
    "gmres-negative-k": (lambda: gmres_oracle(np.eye(2), np.ones(2), -1),
                         "gmres_oracle requires 0 <= k <= dimension"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_check_raises(case):
    call, match = INPUT_CHECKS[case]
    with pytest.raises(ValueError, match=match):
        call()
