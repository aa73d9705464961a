import os
import tracemalloc
from bisect import bisect_left
from pathlib import Path

import numpy as np
import pytest

from rkwave.kernels import closed_form_kernel
from rkwave.problems import builtin, homogenize
from rkwave.solver import generate_collocation, solve
from rkwave.wave_operator import (
    RepresenterBasis,
    WaveOperator,
    collocation_values,
    gram_matrix,
    series_table,
)

from oracles import (
    apply_L,
    gram_entry,
    inner_product_2d,
    psi_rows,
    psi_section,
    series_value,
    tensor_section,
)

# The table sums the same terms as a kernel row in another order, so it may
# differ from the row by a few ulps of sum_k |c_k| (|Psi_k| + 1): the branch
# coefficients are O(1), so even near a zero of Psi_k a term rounds at ~|c_k|.
TABLE_RTOL = 64 * np.finfo(float).eps


def resident_bytes():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def grid_basis(xis, taus, alpha=1.0, gamma=1.0):
    return RepresenterBasis(WaveOperator(alpha, gamma), xis, taus)


def make_basis(nx, nt, alpha=1.0, gamma=1.0):
    return grid_basis([(i + 1) / (nx + 1) for i in range(nx)],
                      [(j + 1) / (nt + 1) for j in range(nt)], alpha, gamma)


def random_grid(nx, nt, rng, alpha=0.8, gamma=1.9):
    """A non-uniform grid: sorted random coordinates, tau = 1 included."""
    return grid_basis(np.sort(rng.uniform(0.05, 0.95, nx)),
                      np.append(np.sort(rng.uniform(0.05, 0.95, nt - 1)), 1.0), alpha, gamma)


def test_operator_validation():
    # the coefficients and the products gram_matrix forms must be positive and finite
    for alpha, gamma in ((0.0, 1.0), (1.0, -2.0), (np.nan, 1.0), (1.0, np.inf),
                         (1.0, 0.0), (1e-300, 1e300), (1e200, 1.0), (1.0, 1e-170)):
        with pytest.raises(ValueError):
            WaveOperator(alpha, gamma)


def test_basis_points_run_tau_outer():
    basis = grid_basis((0.1, 0.2), (0.3, 0.4, 0.5))
    assert basis.points == ((0.1, 0.3), (0.2, 0.3), (0.1, 0.4), (0.2, 0.4),
                            (0.1, 0.5), (0.2, 0.5))
    assert len(basis) == 6
    assert all(type(v) is float for point in basis.points for v in point)
    assert grid_basis(np.array([0.1, 0.2]), (0.3, 0.4, 0.5)).points == basis.points
    for xis, taus in (((0.2, 0.1), (0.5,)), ((0.5,), (0.3, 0.3)), ((), (0.5,))):
        with pytest.raises(ValueError):
            grid_basis(xis, taus)


def test_basis_takes_the_order3_closed_form_kernels():
    # Gram assembly takes two derivatives per slot, below the diagonal-smoothness
    # limit 2m - 2 = 4 of these kernels; the basis takes no other
    basis = grid_basis((0.5,), (0.5,))
    assert basis.space_kernel is closed_form_kernel("R_spatial")
    assert basis.time_kernel is closed_form_kernel("r_temporal")
    assert basis.space_kernel.order == basis.time_kernel.order == 3


def test_psi_vanishes_on_dead_edges():
    basis = make_basis(3, 3)
    ss = np.linspace(0.0, 1.0, 101)
    for i in (0, 4, 8):
        psi = psi_section(basis, i)
        assert np.max(np.abs(psi(0.0, ss))) < 1e-12
        assert np.max(np.abs(psi(1.0, ss))) < 1e-12
        assert np.max(np.abs(psi(ss, 0.0))) < 1e-12
    # time derivative at t = 0 vanishes as well
    sec = psi_section(basis, 4)
    assert np.max(np.abs(sec(ss, 0.0, 0, 1))) < 1e-12


def test_origin_representer_is_zero():
    basis = grid_basis((0.0, 0.5), (0.0, 0.5))  # point 0 is the origin
    assert gram_entry(basis, 0, 0) == 0.0
    xs = np.linspace(0, 1, 11)
    assert np.all(psi_section(basis, 0)(xs[:, None], xs[None, :]) == 0.0)


def test_gram_symmetry_5x5():
    basis = make_basis(5, 5)
    A = gram_matrix(basis)
    assert np.max(np.abs(A - A.T)) < 1e-12
    # the pointwise reference agrees with the Kronecker assembly
    assert gram_entry(basis, 3, 17) == pytest.approx(A[3, 17], abs=1e-14)


def test_gram_matches_quadrature_3x3():
    basis = make_basis(3, 3)
    A = gram_matrix(basis)
    pts = basis.points
    for i in range(9):
        for j in range(i, 9):
            q = inner_product_2d(
                "W", psi_section(basis, j), psi_section(basis, i),
                split_x=(pts[i][0], pts[j][0]), split_t=(pts[i][1], pts[j][1]))
            assert abs(q - A[i, j]) < 1e-6, (i, j)


def test_psi_self_reproduction():
    # Psi_i is itself in W, so <Psi_i, K_(p_i)> must reproduce its value
    basis = make_basis(3, 3)
    for i in (0, 4, 7):
        x, t = basis.points[i]
        got = inner_product_2d("W", psi_section(basis, i), tensor_section("W", (x, t)),
                               split_x=(x,), split_t=(t,))
        assert abs(got - psi_section(basis, i)(x, t)) < 1e-6


def test_gram_matches_finite_differences():
    basis = make_basis(3, 3)
    op = basis.operator

    def run(h, i, j):
        fd = apply_L(op, psi_section(basis, j), *basis.points[i], h)
        return abs(fd - gram_entry(basis, i, j))

    for (i, j) in [(0, 4), (2, 4), (5, 5), (1, 8)]:
        assert run(1e-3, i, j) < 1e-4
    # O(h^2): quartering the error when halving h, within slack
    e1, e2 = run(2e-2, 1, 8), run(1e-2, 1, 8)
    assert e2 < e1 / 2.5


def test_apply_L_numeric_polynomial_exactness():
    op = WaveOperator()
    f = lambda x, t: x * x + t * t
    assert apply_L(op, f, 0.4, 0.5, 1e-3) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        apply_L(op, f, 0.4, 0.5, 0.0)


def test_apply_L_numeric_annihilates_dalembert():
    op = WaveOperator()
    f = lambda x, t: np.sin(np.pi * x) * np.cos(np.pi * t)
    assert abs(apply_L(op, f, 0.3, 0.6, 1e-3)) < 1e-5


def test_linearity_in_coefficients():
    base = make_basis(3, 3)
    scaled = make_basis(3, 3, alpha=2.5, gamma=2.5)
    x, t = 0.37, 0.61
    for i in (0, 5):
        assert psi_section(scaled, i)(x, t) == pytest.approx(2.5 * psi_section(base, i)(x, t),
                                                             rel=1e-12)
    A, As = gram_matrix(base), gram_matrix(scaled)
    assert np.allclose(As, 2.5 ** 2 * A, rtol=1e-12, atol=1e-14)


def test_gram_matrix_matches_gram_entry_on_an_irregular_grid():
    # nx != nt, uneven spacing and alpha != gamma != 1: a swapped Kronecker
    # factor or a transposed 1-D matrix changes the entries
    basis = random_grid(5, 4, np.random.default_rng(21))
    A = gram_matrix(basis)
    oracle = np.array([[gram_entry(basis, i, j) for j in range(len(basis))]
                       for i in range(len(basis))])
    assert A.shape == (20, 20)
    assert np.max(np.abs(A - oracle)) <= 64 * np.finfo(float).eps * np.max(np.abs(oracle))


def test_gram_matrix_is_the_kron_formula_bit_for_bit():
    # the in-place assembly keeps the operation order of the four np.kron
    # products, so it rounds identically
    for basis in (random_grid(5, 4, np.random.default_rng(23)), make_basis(6, 6)):
        r, t = basis.kernel_matrices
        a, g = basis.operator.alpha, basis.operator.gamma
        kron = (np.kron(t[2, 2], a * a * r[0, 0])
                - a * g * (np.kron(t[0, 2], r[2, 0]) + np.kron(t[2, 0], r[0, 2]))
                + np.kron(t[0, 0], g * g * r[2, 2]))
        assert np.array_equal(gram_matrix(basis), kron)


@pytest.mark.parametrize("grid", ["3x3", "8x5 ex52 on [-3, 5]", "16x16", "irregular 5x4"])
def test_gram_matrix_is_bitwise_symmetric(grid):
    # the symmetric 1-D kernel matrices are mirrored and R20, T20 are the
    # transposes of R02, T02, so A equals A^T exactly; factor relies on it
    if grid == "irregular 5x4":
        basis = random_grid(5, 4, np.random.default_rng(24))
    elif grid.startswith("8x5"):
        op = builtin("ex52", a=-3.0, b=5.0).domain.operator
        assert (op.alpha, op.gamma) != (1.0, 1.0)
        basis = make_basis(8, 5, op.alpha, op.gamma)
    else:
        n = int(grid.split("x")[0])
        basis = make_basis(n, n)
    A = gram_matrix(basis)
    assert np.array_equal(A, A.T)


@pytest.mark.parametrize("nx", [2, 3, 16, 17, 64])
def test_space_kernel_matrices_are_mirror_symmetric_on_uniform_grids(nx):
    # xis[k] + xis[nx-1-k] == 1 exactly and K(1 - x, 1 - y) = K(x, y), so
    # reversing both axes changes R[p, q] by rounding only (8.3e-15 at most)
    r = make_basis(nx, 2).kernel_matrices[0]
    for pq in ((0, 0), (0, 2), (2, 2)):
        assert np.max(np.abs(r[pq][::-1, ::-1] - r[pq])) <= 1e-13 * np.max(np.abs(r[pq]))


@pytest.mark.parametrize("nx, nt", [(2, 3), (7, 3), (8, 4), (17, 5)])
def test_mirror_halves_split_the_gram_matrix(nx, nt):
    # folding A by the halves' weights gives each half's Gram matrix, and the
    # even and odd representers are orthogonal, to rounding; each half is
    # assembled bitwise symmetric, as A is
    basis = make_basis(nx, nt, 0.8, 1.9)
    halves = basis.mirror_halves
    assert [fold.shape for fold, _ in halves] == [(nx, (nx + 1) // 2), (nx, nx // 2)]
    a = gram_matrix(basis)
    scale = np.max(np.abs(a))
    folds = [np.kron(np.eye(nt), fold) for fold, _ in halves]
    for (_, space), f in zip(halves, folds):
        half = gram_matrix(basis, space)
        assert np.array_equal(half, half.T)
        assert np.max(np.abs(f.T @ a @ f - half)) <= 1e-14 * scale
    assert np.max(np.abs(folds[0].T @ a @ folds[1])) <= 1e-14 * scale


def test_mirror_halves_only_on_exactly_mirrored_grids():
    # whatever N: the smallest grids split too
    assert [len(fold.T) for fold, _ in make_basis(2, 1).mirror_halves] == [1, 1]
    assert [len(fold.T) for fold, _ in make_basis(3, 3).mirror_halves] == [2, 1]
    xis = list(make_basis(17, 1).xis)
    xis[-1] = np.nextafter(xis[-1], 0.0)  # one ulp off the mirror image of xis[0]
    assert grid_basis(xis, make_basis(1, 3).taus).mirror_halves is None
    assert make_basis(1, 3).mirror_halves is None  # no odd half


def test_gram_assembly_holds_one_n_by_n_array():
    # A is written one time row at a time through one slab of scratch; the
    # basis caches its 1-D kernel matrices, so they are built before tracing.
    # A itself is a memory mapping, which tracemalloc does not trace, so A
    # plus the traced peak must stay within 1.25 N x N arrays
    basis = make_basis(32, 32)
    basis.kernel_matrices
    n = len(basis)
    tracemalloc.start()
    try:
        gram_matrix(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n * n * 8 + peak <= 1.25 * n * n * 8


@pytest.mark.skipif(not Path("/proc/self/statm").is_file(), reason="needs /proc/self/statm")
def test_a_freed_gram_matrix_leaves_the_resident_set():
    # a block freed into malloc's heap may stay resident; A has a mapping of
    # its own, so freeing it returns its pages whatever the heap holds
    basis = make_basis(32, 32)
    size = len(basis) ** 2 * 8
    A = gram_matrix(basis)
    before = resident_bytes()
    del A
    assert before - resident_bytes() >= 0.9 * size


def test_collocation_values_match_the_representer_matrix():
    rng = np.random.default_rng(22)
    for nx, nt in ((5, 4), (3, 7)):
        basis = random_grid(nx, nt, rng, alpha=0.35, gamma=2.7)
        psi = psi_rows(basis, *np.transpose(basis.points))
        c = rng.normal(size=len(basis)) * 10.0 ** rng.integers(-2, 4, len(basis))
        scale = np.abs(psi) @ np.abs(c)
        assert np.all(np.abs(collocation_values(basis, c) - psi @ c) <= TABLE_RTOL * scale)


@pytest.mark.parametrize("n", [3, 6, 9, 12])
def test_gram_positive_definite(n):
    A = gram_matrix(make_basis(n, n))
    assert np.min(np.linalg.eigvalsh(A)) > 0.0


def assert_table_matches_rows(basis, weights, xi, tau):
    """series_table(...).value against the representer rows of the Psi oracle."""
    table = series_table(basis, weights)
    xi = np.asarray(xi, dtype=float)
    tau = np.asarray(tau, dtype=float)
    for dx in (0, 1):
        rows = psi_rows(basis, xi, tau, dx)
        values = [table.value(float(x), float(t), dx) for x, t in zip(xi, tau)]
        assert all(type(v) is float for v in values)
        got = np.array(values)
        scale = (np.abs(rows) + 1.0) @ np.abs(weights)
        assert np.all(np.abs(got - rows @ weights) <= TABLE_RTOL * scale)


def test_series_table_matches_kernel_rows_at_random_points():
    rng = np.random.default_rng(11)
    basis = make_basis(6, 5, alpha=0.7, gamma=2.5)
    weights = rng.normal(size=len(basis)) * 10.0 ** rng.integers(-2, 5, len(basis))
    assert_table_matches_rows(basis, weights, rng.random(200), rng.random(200))


def test_series_table_matches_kernel_rows_at_collocation_coordinates():
    # cell edges: a point on a coordinate line takes the lower branch there
    rng = np.random.default_rng(12)
    basis = make_basis(5, 4, alpha=1.3, gamma=0.4)
    weights = rng.normal(size=len(basis))
    xs, ts = np.array(basis.xis), np.array(basis.taus)
    grid_x, grid_t = np.meshgrid(xs, ts)
    xi = np.concatenate([grid_x.ravel(), xs, rng.random(len(ts))])
    tau = np.concatenate([grid_t.ravel(), rng.random(len(xs)), ts])
    assert_table_matches_rows(basis, weights, xi, tau)


def test_series_table_matches_kernel_rows_on_an_irregular_grid():
    rng = np.random.default_rng(13)
    basis = random_grid(7, 5, rng)
    weights = rng.normal(size=len(basis))
    table = series_table(basis, weights)
    assert (table.xis, table.taus) == (basis.xis, basis.taus)
    assert table.poly.shape == (6, 8, 6, 6)
    xs, ts = np.transpose(basis.points)
    xi = np.concatenate([rng.random(100), xs, xs])
    tau = np.concatenate([rng.random(100), ts, ts[::-1]])
    assert_table_matches_rows(basis, weights, xi, tau)


def cell_coordinates(coords, rng):
    """A random coordinate inside each of the len(coords) + 1 cells of a table axis, and the edges.

    The cells end at 0 and 1, or just past 1 where coords[-1] = 1.
    """
    edges = np.concatenate([[0.0], coords, [1.0 if coords[-1] < 1.0 else 1.001]])
    return edges[:-1] + rng.uniform(0.05, 0.95, len(edges) - 1) * np.diff(edges), edges


@pytest.mark.parametrize("irregular", [False, True])
def test_series_table_matches_kernel_rows_in_every_cell(irregular):
    # one random point in every cell, the column past xs[-1] and the row
    # past ts[-1] included, plus every cell corner
    rng = np.random.default_rng(16)
    basis = random_grid(6, 8, rng) if irregular else make_basis(7, 6, alpha=0.6, gamma=1.7)
    weights = rng.normal(size=len(basis)) * 10.0 ** rng.integers(0, 5, len(basis))
    (x_in, x_edges), (t_in, t_edges) = (cell_coordinates(np.array(c), rng)
                                        for c in (basis.xis, basis.taus))
    cells = {(bisect_left(basis.taus, t), bisect_left(basis.xis, x)) for t in t_in for x in x_in}
    assert len(cells) == (len(basis.taus) + 1) * (len(basis.xis) + 1)
    points = [(x, t) for t in t_in for x in x_in] + [(x, t) for t in t_edges for x in x_edges]
    xi, tau = np.array(points).T
    assert_table_matches_rows(basis, weights, xi, tau)


@pytest.mark.parametrize("irregular", [False, True])
def test_series_table_value_matches_the_pp_form_in_every_cell(irregular):
    # the Horner sum in value against the plain contraction of the cell's
    # coefficients with the power vectors, at a point inside every cell,
    # on every coordinate line and at every corner, the last column included;
    # dv/dxi contracts the same block shifted one column left, times q
    rng = np.random.default_rng(17)
    basis = random_grid(6, 8, rng) if irregular else make_basis(7, 6, alpha=0.6, gamma=1.7)
    weights = rng.normal(size=len(basis)) * 10.0 ** rng.integers(0, 5, len(basis))
    table = series_table(basis, weights)
    (x_in, x_edges), (t_in, t_edges) = (cell_coordinates(np.array(c), rng)
                                        for c in (basis.xis, basis.taus))
    powers, zeros = np.arange(6), np.zeros((6, 1))
    last = len(table.xis)
    for xi in np.concatenate([x_in, x_edges]).tolist():
        for tau in np.concatenate([t_in, t_edges]).tolist():
            a, b = bisect_left(table.xis, xi), bisect_left(table.taus, tau)
            s = xi - 1.0 if a == last else xi
            block = table.poly[b, a]
            for dx, cell in ((0, block), (1, np.hstack([block[:, 1:] * powers[1:], zeros]))):
                got = table.value(xi, tau, dx)
                assert type(got) is float
                scale = np.abs(tau ** powers) @ np.abs(cell) @ np.abs(s ** powers)
                assert abs(got - tau ** powers @ cell @ s ** powers) <= TABLE_RTOL * scale


def test_series_table_cell_cache_changes_no_bit():
    # a point in every cell, the last column and the row past the last tau
    # included, on the cell's first visit (which fills its cached tuple) and
    # on its second (which reads it)
    rng = np.random.default_rng(18)
    basis = random_grid(5, 7, rng)
    weights = rng.normal(size=len(basis)) * 10.0 ** rng.integers(0, 5, len(basis))
    table = series_table(basis, weights)
    (x_in, _), (t_in, _) = (cell_coordinates(np.array(c), rng) for c in (basis.xis, basis.taus))
    calls = [(xi, tau, dx) for tau in t_in.tolist() for xi in x_in.tolist() for dx in (0, 1)]
    expected = [series_value(table, *call).hex() for call in calls]
    assert [table.value(*call).hex() for call in calls] == expected
    # one flat tuple of the cell's 36 floats, row by row, per int key b (nx + 1) + a
    nx, nt = len(basis.xis), len(basis.taus)
    assert sorted(table._cells) == list(range((nt + 1) * (nx + 1)))
    for key, coefs in table._cells.items():
        assert type(coefs) is tuple and all(type(c) is float for c in coefs)
        assert coefs == tuple(table.poly[divmod(key, nx + 1)].ravel())
    poly = table.poly
    object.__setattr__(table, "poly", None)  # so a second visit can only read the cache
    assert [table.value(*call).hex() for call in calls] == expected
    with pytest.raises(ValueError):
        poly[0, 0, 0, 0] = 1.0


def test_series_table_just_outside_the_square():
    rng = np.random.default_rng(14)
    basis = make_basis(4, 4)
    weights = rng.normal(size=len(basis))
    d = 1e-9
    xi = [1 + d, -d, 0.37, 0.37, 1 + d, -d]
    tau = [0.42, 0.42, 1 + d, -d, 1 + d, -d]
    assert_table_matches_rows(basis, weights, xi, tau)


def test_series_table_is_exactly_zero_on_the_dead_edges():
    rng = np.random.default_rng(15)
    cases = [(basis, rng.normal(size=len(basis)) * 1e4)
             for basis in (make_basis(7, 6, alpha=0.3, gamma=4.0), random_grid(6, 9, rng))]
    for name in ("ex51", "ex52"):  # solved weights at real scale, up to 3.9e6
        sol = solve(homogenize(builtin(name)), generate_collocation(32, 32))
        cases.append((sol.basis, sol.psi_weights))
    for basis, weights in cases:
        table = series_table(basis, weights)
        line = np.concatenate([np.linspace(0.0, 1.0, 41), *np.transpose(basis.points)])
        for s in line:
            assert table.value(0.0, s) == 0.0
            assert table.value(1.0, s) == 0.0
            assert table.value(s, 0.0) == 0.0
        zero = series_table(basis, np.zeros(len(basis)))
        assert zero.value(0.31, 0.77) == zero.value(0.31, 0.77, dx=1) == 0.0


def test_series_table_rejects_higher_dx():
    table = series_table(make_basis(2, 2), np.ones(4))
    with pytest.raises(ValueError):
        table.value(0.5, 0.5, dx=2)
