import numpy as np
import pytest

from rkwave.errors import NotPositiveDefinite
from rkwave.kernels import closed_form_kernel
from rkwave.orthonormalize import (
    PIVOT_RTOL,
    SOLVE_BLOCK,
    factor,
    solve_lower,
    solve_lower_t,
)
from rkwave.tensor_space import inner_product_numeric_2d
from rkwave.wave_operator import RepresenterBasis, WaveOperator, gram_matrix, psi_section


def orthonormalizer(bf):
    """beta = L^{-1}, formed here only to check the factor."""
    return np.linalg.inv(bf.L)


def make_gram(nx, nt):
    pts = tuple(((i + 1) / (nx + 1), (j + 1) / (nt + 1)) for j in range(nt) for i in range(nx))
    basis = RepresenterBasis(WaveOperator(), closed_form_kernel("R_spatial"),
                             closed_form_kernel("r_temporal"), pts)
    return basis, gram_matrix(basis)


def test_identity_gram():
    bf = factor(np.eye(3))
    assert np.array_equal(bf.L, np.eye(3))
    assert bf.condition_estimate == pytest.approx(1.0, rel=1e-10)


def test_hand_checked_2x2():
    # A = [[4,2],[2,2]] = L L^T with L = [[2,0],[1,1]], beta = L^{-1}
    bf = factor(np.array([[4.0, 2.0], [2.0, 2.0]]))
    assert np.allclose(bf.L, [[2.0, 0.0], [1.0, 1.0]], atol=1e-15)
    beta = orthonormalizer(bf)
    assert np.allclose(beta, [[0.5, 0.0], [-0.5, 1.0]], atol=1e-15)
    a = np.array([[4.0, 2.0], [2.0, 2.0]])
    assert np.max(np.abs(beta @ a @ beta.T - np.eye(2))) < 1e-14


def test_random_spd_reconstruction():
    rng = np.random.default_rng(42)
    for n in (1, 2, 5, 12, 40):
        m = rng.standard_normal((n, n))
        a = m @ m.T + n * np.eye(n)
        bf = factor(a)
        beta = orthonormalizer(bf)
        assert np.max(np.abs(beta @ a @ beta.T - np.eye(n))) < 1e-8
        assert np.all(np.diag(bf.L) > 0.0)


def test_duplicate_rows_not_positive_definite():
    a = np.array([[2.0, 2.0], [2.0, 2.0]])
    with pytest.raises(NotPositiveDefinite) as exc:
        factor(a)
    assert exc.value.index == 1


def test_near_zero_pivot_policy():
    # pivot below 1e-12 * max diagonal aborts instead of regularizing
    a = np.diag([1.0, 1e-13])
    with pytest.raises(NotPositiveDefinite) as exc:
        factor(a)
    assert exc.value.index == 1


def spd_8x8():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((8, 8))
    return m @ m.T + 8 * np.eye(8)


def test_dependent_row_deep_in_matrix_bisects_to_its_index():
    # row 6 repeats a combination of rows 1 and 4 slightly past dependence,
    # so the pivot is negative: LAPACK refuses the whole matrix and the
    # index comes from bisecting over the leading minors
    a = spd_8x8()
    c = np.zeros(8)
    c[1], c[4] = 0.6, -1.3
    v = a @ c
    a[6, :] = a[:, 6] = v
    a[6, 6] = c @ a @ c * (1.0 - 1e-9)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(a)
    np.linalg.cholesky(a[:6, :6])
    with pytest.raises(NotPositiveDefinite) as exc:
        factor(a)
    assert exc.value.index == 6


def test_tiny_positive_pivot_deep_in_matrix():
    # LAPACK factors this matrix, but the pivot at index 5 is positive and
    # below PIVOT_RTOL times the largest diagonal entry
    a = spd_8x8()
    low = np.linalg.cholesky(a)
    low[5, 5] = np.sqrt(0.5 * PIVOT_RTOL * np.max(np.diag(a)))
    a = low @ low.T
    assert np.all(np.diag(np.linalg.cholesky(a)) > 0.0)
    with pytest.raises(NotPositiveDefinite) as exc:
        factor(a)
    assert exc.value.index == 5


def test_tiny_pivot_before_a_failing_one_is_reported_first():
    # index 2 is below the threshold and index 6 is negative: the strict
    # policy reports the first of them, as a sequential factorization would
    a = spd_8x8()
    low = np.linalg.cholesky(a)
    low[2, 2] = np.sqrt(0.5 * PIVOT_RTOL * np.max(np.diag(a)))
    a = low @ low.T
    a[6, 6] -= 2.0 * low[6, 6] ** 2
    np.linalg.cholesky(a[:6, :6])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(a[:7, :7])
    with pytest.raises(NotPositiveDefinite) as exc:
        factor(a)
    assert exc.value.index == 2


def test_nonsymmetric_rejected():
    with pytest.raises(ValueError):
        factor(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_condition_estimate_diagonal():
    assert factor(np.eye(5)).condition_estimate == pytest.approx(1.0, rel=1e-10)
    assert factor(np.diag([100.0, 1.0])).condition_estimate == pytest.approx(100.0, rel=0.01)


def test_gram_reconstruction_small_grids():
    for nx in (2, 3):
        _, a = make_gram(nx, nx)
        beta = orthonormalizer(factor(a))
        assert np.max(np.abs(beta @ a @ beta.T - np.eye(len(a)))) < 1e-8


def test_orthonormality_transfer_quadrature():
    # the orthonormalized combinations have quadrature inner products
    # delta_ij; equivalently beta applied to the quadrature Gram gives I
    basis, a_closed = make_gram(3, 3)
    beta = orthonormalizer(factor(a_closed))
    n = len(a_closed)
    a_quad = np.zeros_like(a_closed)
    pts = basis.points
    for i in range(n):
        for j in range(i, n):
            q = inner_product_numeric_2d(
                "W", psi_section(basis, j), psi_section(basis, i),
                split_x=(pts[i][0], pts[j][0]), split_t=(pts[i][1], pts[j][1]))
            a_quad[i, j] = a_quad[j, i] = q
    resid = np.max(np.abs(beta @ a_quad @ beta.T - np.eye(n)))
    assert resid < 1e-5


def test_permutation_covariance():
    # factoring a symmetrically permuted Gram spans the same subspace: the
    # cross-Gram of the two orthonormal systems is an orthogonal matrix,
    # i.e. projecting one onto the other leaves no residual
    _, a = make_gram(3, 3)
    n = len(a)
    rng = np.random.default_rng(0)
    perm = rng.permutation(n)
    p = np.eye(n)[perm]
    beta = orthonormalizer(factor(a))
    beta_p = orthonormalizer(factor(p @ a @ p.T))
    cross = beta_p @ p @ a @ beta.T  # <new_i, old_j>_W
    assert np.max(np.abs(cross @ cross.T - np.eye(n))) < 1e-8


@pytest.mark.parametrize("n", [1, SOLVE_BLOCK - 1, SOLVE_BLOCK, 2 * SOLVE_BLOCK + 5])
def test_blocked_triangular_solves_match_linalg_solve(n):
    rng = np.random.default_rng(n)
    low = np.tril(rng.standard_normal((n, n))) + n * np.eye(n)
    for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        before = rhs.copy()
        assert np.allclose(solve_lower(low, rhs), np.linalg.solve(low, rhs), rtol=0, atol=1e-12)
        assert np.allclose(solve_lower_t(low, rhs), np.linalg.solve(low.T, rhs), rtol=0,
                           atol=1e-12)
        assert np.array_equal(rhs, before)  # the right-hand side is not overwritten

