import warnings

import numpy as np
import pytest

from rkwave.errors import NotPositiveDefinite
from rkwave.orthonormalize import PIVOT_RTOL, SOLVE_BLOCK, GramFactor, factor
from rkwave.solver import generate_collocation
from rkwave.wave_operator import RepresenterBasis, WaveOperator, gram_matrix

from oracles import inner_product_2d, psi_section


def orthonormalizer(bf):
    """beta = L^{-1}, formed here only to check the factor."""
    return np.linalg.inv(bf.L)


def make_gram(nx, nt, operator=WaveOperator()):
    basis = RepresenterBasis(operator, *generate_collocation(nx, nt))
    return basis, gram_matrix(basis)


def test_identity_gram():
    bf = factor(np.eye(3))
    assert np.array_equal(bf.L, np.eye(3))
    assert bf.condition_estimate == pytest.approx(1.0, rel=1e-10)


def test_gram_factor_takes_its_factor_without_a_copy():
    # a 32x32 solve hands over an 8 MB L; it is frozen in place, not copied.
    # The factor is built from L, ||A||_1 = 9 and its one diagonal block's
    # inverse, and estimates cond_1(A) = 9 / 4 itself
    low = np.linalg.cholesky(np.diag([4.0, 9.0]))
    bf = GramFactor(low, 9.0, (np.linalg.inv(low),))
    assert bf.L is low and not low.flags.writeable
    assert bf.condition_estimate == pytest.approx(2.25, rel=1e-15)


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
        bf = factor(a.copy())
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


def mirrored(a):
    return np.triu(a) + np.triu(a, 1).T


def backward_error(low, a):
    return np.linalg.norm(low @ low.T - a) / np.linalg.norm(a)


def test_factor_reads_only_the_upper_triangle():
    # as in LAPACK, one triangle is read and symmetry is the caller's
    # precondition: finite garbage below the diagonal leaves L and the
    # condition estimate, ||A||_1 included, alone.  With one block
    # (N <= SOLVE_BLOCK) L is numpy's own factor, bit for bit; the 8x8 Gram
    # matrix (N = 64, two blocks) is held to the backward error
    rng = np.random.default_rng(9)
    for a in (mirrored(spd_8x8()), make_gram(8, 8)[1]):
        garbage = np.triu(a) + np.tril(rng.uniform(-1e3, 1e3, a.shape), -1)
        ref, bf = factor(a.copy()), factor(garbage)
        assert np.array_equal(bf.L, ref.L)
        assert bf.condition_estimate == ref.condition_estimate
        low = ref.L
        if len(a) <= SOLVE_BLOCK:
            assert np.array_equal(low, np.linalg.cholesky(a))
        else:
            assert backward_error(low, a) <= 1e-14


@pytest.mark.parametrize("n", [8, 64, 100], ids=["one_block", "two_blocks", "four_blocks"])
def test_factor_overwrites_its_argument_with_l(n):
    # as LAPACK's dpotrf: a writeable float array becomes L; other input is
    # copied and left alone, and rejected input is left as it was
    a = {8: spd_8x8, 64: lambda: make_gram(8, 8)[1], 100: spd_100x100}[n]()
    low = factor(a.copy()).L
    read_only = a.copy()
    read_only.setflags(write=False)
    for other in (a.tolist(), read_only):
        before = np.array(other)
        assert np.array_equal(factor(other).L, low)
        assert np.array_equal(np.array(other), before)
    m = np.random.default_rng(n).integers(-3, 4, (n, n))
    ints = m @ m.T + n * np.eye(n, dtype=int)
    before = ints.copy()
    assert np.array_equal(factor(ints).L, factor(ints.astype(float)).L)
    assert np.array_equal(ints, before)
    bad = a.copy()
    bad[n // 2, n - 1] = np.nan
    before = bad.copy()
    with pytest.raises(ValueError, match="finite"):
        factor(bad)
    assert np.array_equal(bad, before, equal_nan=True)
    bf = factor(a)
    assert np.shares_memory(bf.L, a) and np.array_equal(bf.L, low)


@pytest.mark.parametrize("operator", [WaveOperator(), WaveOperator(1.0, 0.25)],
                         ids=["ex51", "ex52"])
@pytest.mark.parametrize("n", [16, 32])
def test_blocked_factor_is_backward_stable_on_gram_matrices(operator, n):
    # ||L L^T - A||_F / ||A||_F at rounding level although cond(A) reaches
    # 1e15 at 32x32; the operators are ex51's and ex52's (alpha = 1,
    # gamma = 0.25 on [-1, 1] x [0, 1])
    _, a = make_gram(n, n, operator)
    assert backward_error(factor(a.copy()).L, a) <= 1e-14


def spd_100x100():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((100, 100))
    return m @ m.T + 100 * np.eye(100)


@pytest.mark.parametrize("index", [64, 70])
def test_dependent_row_past_the_first_block_bisects_to_its_index(index):
    # as the 8x8 case, in the third block: at its first row and inside it
    a = spd_100x100()
    c = np.zeros(100)
    c[10], c[45] = 0.6, -1.3
    a[index, :] = a[:, index] = a @ c
    a[index, index] = c @ a @ c * (1.0 - 1e-9)
    np.linalg.cholesky(a[:index, :index])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(a[:index + 1, :index + 1])
    with pytest.raises(NotPositiveDefinite) as exc:
        factor(a)
    assert exc.value.index == index


def test_tiny_pivot_in_one_block_is_reported_before_a_failing_one_in_a_later_block():
    # index 40 (second block) is below the threshold and index 75 (third
    # block) is negative
    a = spd_100x100()
    low = np.linalg.cholesky(a)
    low[40, 40] = np.sqrt(0.5 * PIVOT_RTOL * np.max(np.diag(a)))
    a = low @ low.T
    a[75, 75] -= 2.0 * low[75, 75] ** 2
    np.linalg.cholesky(a[:75, :75])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(a[:76, :76])
    with pytest.raises(NotPositiveDefinite) as exc:
        factor(a)
    assert exc.value.index == 40


def test_pivot_threshold_scales_with_the_largest_diagonal_of_a_not_of_the_block():
    # the first block's diagonal is 1e6 times smaller than the rest, and
    # its pivot at index 10 is tiny only against A's largest diagonal entry
    scale = np.where(np.arange(100) < SOLVE_BLOCK, 1.0, 1e3)
    low = np.linalg.cholesky(spd_100x100()) * scale[:, None]
    a = low @ low.T
    low[10, 10] = np.sqrt(0.5 * PIVOT_RTOL * np.max(np.diag(a)))
    a = low @ low.T
    assert low[10, 10] ** 2 > 1e3 * PIVOT_RTOL * np.max(np.diag(a)[:SOLVE_BLOCK])
    with pytest.raises(NotPositiveDefinite) as exc:
        factor(a)
    assert exc.value.index == 10


@pytest.mark.parametrize("index", [31, 32, 63, 64])
def test_tiny_pivot_at_a_block_boundary(index):
    # the last and the first pivot on either side of the first two block
    # boundaries (SOLVE_BLOCK = 32)
    a = spd_100x100()
    low = np.linalg.cholesky(a)
    low[index, index] = np.sqrt(0.5 * PIVOT_RTOL * np.max(np.diag(a)))
    a = low @ low.T
    assert np.all(np.diag(np.linalg.cholesky(a)) > 0.0)
    with pytest.raises(NotPositiveDefinite) as exc:
        factor(a)
    assert exc.value.index == index


def test_pivot_failure_reads_only_the_upper_triangle():
    # the bisection over the leading minors reads the same triangle
    a = spd_8x8()
    low = np.linalg.cholesky(a)
    low[5, 5] = np.sqrt(0.5 * PIVOT_RTOL * np.max(np.diag(a)))
    a = mirrored(low @ low.T)
    a[6, 6] -= 2.0 * low[6, 6] ** 2
    garbage = np.triu(a) + np.tril(np.full(a.shape, 50.0), -1)
    for m in (a, garbage):
        with pytest.raises(NotPositiveDefinite) as exc:
            factor(m)
        assert exc.value.index == 5


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gram_rejected(bad):
    # NaN compares false with every bound and inf overflows the pivot test,
    # so both must be stopped before the factor
    for a in ([[bad]], np.diag([1.0, bad]), [[1.0, bad], [bad, 1.0]]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                factor(a)


def test_condition_estimate_diagonal():
    assert factor(np.eye(5)).condition_estimate == pytest.approx(1.0, rel=1e-10)
    assert factor(np.diag([100.0, 1.0])).condition_estimate == pytest.approx(100.0, rel=0.01)


def test_gram_reconstruction_small_grids():
    for nx in (2, 3):
        _, a = make_gram(nx, nx)
        beta = orthonormalizer(factor(a.copy()))
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
            q = inner_product_2d(
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
    beta = orthonormalizer(factor(a.copy()))
    beta_p = orthonormalizer(factor(p @ a @ p.T))
    cross = beta_p @ p @ a @ beta.T  # <new_i, old_j>_W
    assert np.max(np.abs(cross @ cross.T - np.eye(n))) < 1e-8


BLOCK_SIZES = [1, 2 * SOLVE_BLOCK - 1, 2 * SOLVE_BLOCK, 4 * SOLVE_BLOCK + 5]


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_blocked_triangular_solves_match_linalg_solve(n):
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n))
    bf = factor(m @ m.T + n * np.eye(n))
    low = bf.L
    assert len(bf._inverses) == -(-n // SOLVE_BLOCK)
    for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        before = rhs.copy()
        b, c = bf.solve(rhs)
        assert np.allclose(b, np.linalg.solve(low, rhs), rtol=0, atol=1e-12)
        assert np.allclose(c, np.linalg.solve(low.T, b), rtol=0, atol=1e-12)
        assert np.array_equal(rhs, before)  # the right-hand side is not overwritten


def reference_solves(low, rhs):
    """B = L^{-1} rhs and c = L^{-T} B by the two blocked loops, one per solve, with the
    diagonal blocks' inverses formed as factor forms them, one LAPACK solve each."""
    starts = range(0, len(low), SOLVE_BLOCK)
    inverses = []
    for k in starts:
        d = low[k:k + SOLVE_BLOCK, k:k + SOLVE_BLOCK]
        inverses.append(np.linalg.solve(d, np.eye(len(d))))
    b = np.array(rhs, dtype=float)
    for k, inv in zip(starts, inverses):
        e = k + len(inv)
        b[k:e] = inv @ (b[k:e] - low[k:e, :k] @ b[:k])
    c = np.array(b, dtype=float)
    for k, inv in reversed(tuple(zip(starts, inverses))):
        e = k + len(inv)
        c[k:e] = inv.T @ (c[k:e] - low[e:, k:e].T @ c[e:])
    return b, c


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_solve_gives_the_bits_of_the_two_blocked_loops(n):
    # GramFactor.solve is the forward and then the back substitution, in
    # one call and in that order, so B and c keep every bit of the loops
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n))
    bf = factor(m @ m.T + n * np.eye(n))
    for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        for got, want in zip(bf.solve(rhs), reference_solves(bf.L, rhs)):
            assert got.shape == rhs.shape and got.tobytes() == want.tobytes()


def relative_residual(low, x, b):
    return np.linalg.norm(low @ x - b) / (np.linalg.norm(low) * np.linalg.norm(x))


def test_triangular_solves_are_backward_stable_on_a_gram_factor():
    # cond(A) ~ 1e14 at 24x24, so only the residual, not the error, is at
    # rounding level; it is for both solves, L B = b and L^T c = B, and both
    # right-hand-side shapes, with one product per diagonal block.  The
    # operators are ex51's and ex52's (alpha = 1, gamma = 0.25 on [-1, 1] x [0, 1]).
    rng = np.random.default_rng(5)
    for operator in (WaveOperator(), WaveOperator(1.0, 0.25)):
        for n in (24, 32):
            _, a = make_gram(n, n, operator)
            bf = factor(a)
            low = bf.L
            for m in (rng.standard_normal(len(a)), rng.standard_normal((len(a), 4))):
                b, c = bf.solve(m)
                assert relative_residual(low, b, m) <= 1e-14, (operator, n)
                assert relative_residual(low.T, c, b) <= 1e-14, (operator, n)


def condition_matrices():
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 40, 100):
        m = rng.standard_normal((n, n))
        yield m @ m.T + np.diag(rng.uniform(0.01, 1.0, n))
    for nx in (4, 8, 12, 16):
        yield make_gram(nx, nx)[1]
    # cond_1 = 29, but Hager's ascent stops at e_1 with 4; only Higham's
    # alternating vector lifts the estimate above a third, to 23.4
    yield np.array([[29 / 4, 0.0, 0.0], [0.0, 15.0, 14.0], [0.0, 14.0, 15.0]]) / 29


def test_condition_estimate_is_a_sharp_lower_bound_on_cond_1():
    for a in condition_matrices():
        cond1 = np.linalg.cond(a, 1)
        est = factor(a).condition_estimate
        assert cond1 / 3 <= est <= cond1 * (1 + 1e-8), (len(a), est, cond1)
