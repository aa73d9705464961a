import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from rkwave import kernels, problems, solver, wave_operator
from rkwave.errors import NonFiniteValue, NotPositiveDefinite, OutOfDomain
from rkwave.orthonormalize import SOLVE_BLOCK, GramFactor, factor
from rkwave.solver import generate_collocation
from rkwave.wave_operator import gram_matrix

import oracles
from oracles import apply_L, psi_rows


def test_generate_collocation_examples(ex51_hp):
    assert generate_collocation(2, 3) == ((1 / 3, 2 / 3), (0.25, 0.5, 0.75))
    assert generate_collocation(1, 1) == ((0.5,), (0.5,))
    sol = solver.solve(ex51_hp, generate_collocation(2, 2))
    assert sol.basis.points == ((1 / 3, 1 / 3), (2 / 3, 1 / 3), (1 / 3, 2 / 3), (2 / 3, 2 / 3))


def test_every_generated_grid_is_exactly_mirror_symmetric():
    # xis[k] + xis[nx-1-k] == 1.0 without rounding, so mirror_halves splits
    # every grid of generate_collocation, and solve folds it from FOLD_MIN_N up
    for nx in range(1, 2049):
        xis = generate_collocation(nx, 1)[0]
        assert all(lo + hi == 1.0 for lo, hi in zip(xis, reversed(xis))), nx


def test_generate_collocation_avoids_dead_edges():
    xis, taus = generate_collocation(7, 5)
    assert all(0.0 < xi < 1.0 for xi in xis)
    assert all(0.0 < tau < 1.0 for tau in taus)


def test_solve_rejects_a_grid_on_a_dead_edge_before_assembly(ex51_hp, monkeypatch):
    class Assembled(Exception):
        pass

    def gram_matrix(basis):
        raise Assembled(basis)

    monkeypatch.setattr(wave_operator, "gram_matrix", gram_matrix)
    for grid, match in (
        (((0.0, 0.5), (0.5,)), "dead edge"),  # xi = 0 is dead
        (((0.5, 1.0), (0.5,)), "dead edge"),  # xi = 1 is dead
        (((0.5,), (0.0, 0.5)), "dead edge"),  # tau = 0 is dead
        (((0.5,), (0.5, 1.5)), "dead edge"),  # outside the square
        (((float("nan"),), (0.5,)), "dead edge"),
        (((0.5, 0.5), (0.5,)), "strictly increasing"),  # duplicate
        (((0.6, 0.4), (0.5,)), "strictly increasing"),  # not increasing
        (((), (0.5,)), "nonempty"),
    ):
        with pytest.raises(ValueError, match=match):
            solver.solve(ex51_hp, grid)
    with pytest.raises(Assembled) as exc:  # tau = 1 is a live edge
        solver.solve(ex51_hp, ((0.5,), (1,)))
    assert exc.value.args[0].taus == (1.0,)
    with pytest.raises(ValueError):
        generate_collocation(0, 3)


def test_zero_source_gives_zero_series():
    p = problems.ProblemSpec(
        domain=problems.Rectangle(0.0, 1.0, 1.0),
        f=problems.Curve.zero(), g=problems.Curve.zero(),
        h1=problems.Curve.zero(), h2=problems.Curve.zero())
    hp = problems.homogenize(p)
    sol = solver.solve(hp, generate_collocation(3, 3))
    assert np.all(sol.B == 0.0)
    assert solver.solution_norm(sol) == 0.0
    assert solver.evaluate(sol, 0.3, 0.7) == 0.0
    assert solver.evaluate_dx(sol, 0.3, 0.7) == 0.0
    assert sol.sweeps_used == 1
    assert sol.converged and sol.last_update == 0.0


def test_linear_solve_is_single_pass(ex51_hp):
    sol = solver.solve(ex51_hp, generate_collocation(4, 4), outer_sweeps=5)
    assert sol.sweeps_used == 2  # second pass just confirms convergence
    one = solver.solve(ex51_hp, generate_collocation(4, 4), outer_sweeps=1)
    assert np.allclose(one.B, sol.B, rtol=0, atol=0)


def test_collocation_equations_hold(ex51_hp, ex51_sol_9):
    # (L v_n)(p_i) = M(p_i): algebraically via the Gram, and by finite
    # differences on the evaluated series
    sol = ex51_sol_9
    a = gram_matrix(sol.basis)
    m = np.array([ex51_hp.M(x, t, 0.0) for x, t in sol.basis.points])
    assert np.max(np.abs(a @ sol.psi_weights - m)) < 1e-8

    def v_n(x, t):
        return float(psi_rows(sol.basis, x, t)[0] @ sol.psi_weights)

    for xi, tau in sol.basis.points[:5]:
        fd = apply_L(sol.basis.operator, v_n, xi, tau, 1e-3)
        assert abs(fd - ex51_hp.M(xi, tau, 0.0)) < 0.05  # h^2 * |4th derivs|


def test_exact_data_reproduction(ex51, ex51_sol_9, ex52, ex52_sol_9):
    for p, sol in ((ex51, ex51_sol_9), (ex52, ex52_sol_9)):
        a, b, T = p.domain.a, p.domain.b, p.domain.T
        for x in np.linspace(a, b, 100):
            assert abs(solver.evaluate(sol, float(x), 0.0) - p.f.val(float(x))) < 1e-12
        for t in np.linspace(0, T, 100):
            assert abs(solver.evaluate(sol, a, float(t)) - p.h1.val(float(t))) < 1e-12
            assert abs(solver.evaluate(sol, b, float(t)) - p.h2.val(float(t))) < 1e-12


def test_norm_identity(ex51_sol_9):
    sol = ex51_sol_9
    sum_b2 = float(np.sum(sol.B ** 2))
    w_norm2 = float(sol.psi_weights @ gram_matrix(sol.basis) @ sol.psi_weights)
    assert abs(w_norm2 - sum_b2) <= 1e-8 * sum_b2
    assert solver.solution_norm(sol) == pytest.approx(math.sqrt(sum_b2))


def test_norm_history_nondecreasing(ex51_sol_9, ex52_sol_9):
    for sol in (ex51_sol_9, ex52_sol_9):
        hist = sol.norm_history
        assert np.all(np.diff(hist) >= -1e-15)
        assert hist[-1] == solver.solution_norm(sol)


def test_norm_pythagoras():
    b = np.array([3.0, 4.0])
    hist = np.sqrt(np.cumsum(b ** 2))
    assert hist[-1] == 5.0


def test_picard_fixed_point(ex52_hp, unfolded):
    # the converged sweeps satisfy the collocation equations A c = M(p, Psi c)
    sol = solver.solve(ex52_hp, generate_collocation(5, 5), outer_sweeps=40, tol=1e-12)
    assert sol.sweeps_used < 40  # converged before the cap
    c = sol.psi_weights
    vals = psi_rows(sol.basis, *np.transpose(sol.basis.points)) @ c
    m = np.array([ex52_hp.M(x, t, v) for (x, t), v in zip(sol.basis.points, vals)])
    low = sol.beta.L
    assert np.max(np.abs(low @ (low.T @ c) - m)) < 1e-10


def test_ex52_sweeps_converge_at_18x18(ex52_hp):
    sol = solver.solve(ex52_hp, generate_collocation(18, 18), outer_sweeps=30)
    assert sol.sweeps_used < 30


def test_solve_builds_no_n_by_n_kernel_matrix(ex52_hp, monkeypatch):
    # the Gram assembly and every sweep take their values from the 1-D
    # kernel matrices of the grid; no kernel matrix of another shape is built
    nx, nt = 7, 5
    reference = solver.solve(ex52_hp, generate_collocation(nx, nt), outer_sweeps=40)
    shapes = []

    def recorded(k, xs, ys, dx=0, dy=0):
        values = kernels.eval_kernel_grid(k, xs, ys, dx, dy)
        shapes.append(values.shape)
        return values

    monkeypatch.setattr(wave_operator, "eval_kernel_grid", recorded)
    sol = solver.solve(ex52_hp, generate_collocation(nx, nt), outer_sweeps=40)
    assert sorted(set(shapes)) == [(nt, nt), (nx, nx)]
    assert sol.converged and sol.sweeps_used > 2
    assert np.array_equal(sol.psi_weights, reference.psi_weights)


def test_cholesky_is_the_only_cubic_step(ex52_hp, monkeypatch):
    # one blocked factorization per solve, with LAPACK's Cholesky only on
    # its SOLVE_BLOCK diagonal blocks; the condition estimate and every
    # sweep work from L, with no eigen-, singular-value or inverse
    # computation, and general solves only on diagonal blocks of L
    calls = []
    cholesky, linalg_solve = np.linalg.cholesky, np.linalg.solve

    def counted(a):
        calls.append(a.shape)
        return cholesky(a)

    def block_solve(a, b):
        assert len(a) <= SOLVE_BLOCK, f"np.linalg.solve on a {np.shape(a)} matrix"
        return linalg_solve(a, b)

    def forbidden(*args, **kwargs):
        raise AssertionError("O(N^3) call outside the Cholesky")

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    monkeypatch.setattr(np.linalg, "solve", block_solve)
    for name in ("eigvalsh", "eigh", "inv", "svd"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    sol = solver.solve(ex52_hp, generate_collocation(16, 16))
    assert calls == [(SOLVE_BLOCK, SOLVE_BLOCK)] * (256 // SOLVE_BLOCK)
    assert sol.sweeps_used == 5 and np.isfinite(sol.beta.condition_estimate)


def test_solution_factor_is_read_only(ex51_hp, monkeypatch):
    for fold_min_n in (0, 10 ** 9):  # two halves, then one N x N factor
        monkeypatch.setattr(solver, "FOLD_MIN_N", fold_min_n)
        beta = solver.solve(ex51_hp, generate_collocation(9, 9)).beta
        factors = beta.factors if isinstance(beta, solver.MirrorFactor) else (beta,)
        assert len(factors) == (2 if fold_min_n == 0 else 1)
        assert all(f.L.flags.writeable is False for f in factors)


def test_solve_holds_one_n_by_n_array(ex51_hp):
    # factor writes L over the A that gram_matrix built, so A and L never
    # coexist: a whole 32x32 solve peaks near one N x N array, not two.  A is
    # a memory mapping, which tracemalloc does not trace, so it is added here
    n = 32 * 32
    tracemalloc.start()
    try:
        solver.solve(ex51_hp, generate_collocation(32, 32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n * n * 8 + peak <= 1.25 * n * n * 8


def test_evaluate_accuracy_benchmark(ex51, ex51_sol_9):
    # regression bound for the collocation solution at the 9x9 grid; the
    # measured max error over the diagonal points is ~0.14
    errs = [abs(solver.evaluate(ex51_sol_9, k / 10, k / 10) - ex51.exact(k / 10, k / 10))
            for k in range(1, 11)]
    assert max(errs) < 0.2
    assert errs[0] < 0.02  # (0.1, 0.1) is well resolved


def test_refinement_monotonicity(ex51, ex51_hp):
    maxerrs = []
    for n in (3, 6, 12):
        sol = solver.solve(ex51_hp, generate_collocation(n, n))
        maxerrs.append(max(abs(solver.evaluate(sol, k / 10, k / 10) - ex51.exact(k / 10, k / 10))
                           for k in range(1, 11)))
    assert maxerrs[0] > maxerrs[1] > maxerrs[2]


def test_evaluate_dx(ex51, ex51_hp, ex51_sol_9):
    # at t = 0 every basis term vanishes: du/dx is exactly the lifting slope
    assert solver.evaluate_dx(ex51_sol_9, 0.5, 0.0) == pytest.approx(
        math.pi * math.cos(math.pi * 0.5), abs=1e-12)
    zero_p = problems.ProblemSpec(
        domain=problems.Rectangle(0.0, 1.0, 1.0),
        f=problems.Curve(lambda x: x, lambda x: 1.0, lambda x: 0.0),
        g=problems.Curve.zero(),
        h1=problems.Curve.zero(),
        h2=problems.Curve(lambda t: 1.0, lambda t: 0.0, lambda t: 0.0))
    hp = problems.homogenize(zero_p)
    sol = solver.solve(hp, generate_collocation(2, 2))
    assert np.all(sol.B == 0.0)  # u = x solves the homogeneous wave equation
    assert solver.evaluate_dx(sol, 0.3, 0.4) == pytest.approx(1.0, abs=1e-12)


def test_domain_guard(ex51_sol_9, ex52_sol_9):
    with pytest.raises(OutOfDomain):
        solver.evaluate(ex51_sol_9, 1.2, 0.5)
    with pytest.raises(OutOfDomain):
        solver.evaluate_dx(ex51_sol_9, 0.5, -0.2)
    solver.evaluate(ex51_sol_9, 1.0, 1.0)  # corners included
    # twice the rounding margin past the edges x = a, x = b, t = 0 and t = T
    for sol in (ex51_sol_9, ex52_sol_9):
        d = sol.hp.problem.domain
        off = 2 * d.margin
        for x, t in ((d.a - off, 0.5), (d.b + off, 0.5), (0.5 * (d.a + d.b), -off),
                     (0.5 * (d.a + d.b), d.T + off)):
            for ev in (solver.evaluate, solver.evaluate_dx):
                with pytest.raises(OutOfDomain):
                    ev(sol, x, t)


def test_non_finite_source_detected(ex51):
    p = problems.ProblemSpec(
        domain=problems.Rectangle(0.0, 1.0, 1.0),
        f=problems.Curve.zero(), g=problems.Curve.zero(),
        h1=problems.Curve.zero(), h2=problems.Curve.zero(),
        source=lambda x, t: float("nan"))
    hp = problems.homogenize(p)
    with pytest.raises(NonFiniteValue):
        solver.solve(hp, generate_collocation(2, 2))


def test_non_finite_source_names_the_first_bad_point(ex52_hp):
    # M is evaluated at every point before the check; the failure still names
    # the first bad point in the j nx + i order, not the first in xi or in time
    pts = generate_collocation(4, 3)
    xis, taus = pts
    bad = {(xis[0], taus[2]): math.nan, (xis[2], taus[1]): -math.inf,
           (xis[3], taus[1]): math.nan}
    calls = []

    def m(xi, tau, v):
        calls.append((xi, tau))
        return bad.get((xi, tau), ex52_hp.M(xi, tau, v))

    with pytest.raises(NonFiniteValue) as exc:
        solver.solve(dataclasses.replace(ex52_hp, M=m), pts)
    x, t = ex52_hp.problem.domain.from_canonical(xis[2], taus[1])
    assert str(exc.value) == ("source term returned -inf at collocation point "
                              f"(xi, tau) = ({xis[2]}, {taus[1]}), (x, t) = ({x}, {t})")
    assert len(calls) == 12  # one pass, one call per point


def test_degenerate_points_rejected(ex51_hp, ex52_hp):
    # two xi a rounding error apart give two numerically equal representers;
    # the failure names the second point, canonical and physical
    pts = ((0.5, 0.5 + 1e-15), (0.5,))
    with pytest.raises(NotPositiveDefinite) as exc:
        solver.solve(ex51_hp, pts)
    assert exc.value.index == 1
    assert f"(xi, tau) = ({0.5 + 1e-15}, 0.5)" in str(exc.value)
    assert f"(x, t) = ({0.5 + 1e-15}, 0.5)" in str(exc.value)
    with pytest.raises(NotPositiveDefinite) as exc:
        solver.solve(ex52_hp, pts)
    x, t = ex52_hp.problem.domain.from_canonical(0.5 + 1e-15, 0.5)
    assert exc.value.index == 1 and f"(x, t) = ({x}, {t})" in str(exc.value)


@pytest.fixture
def factor_orders(monkeypatch):
    """The orders of the matrices that solver.solve factors, in call order."""
    orders = []

    def recorded(gram):
        orders.append(len(gram))
        return factor(gram)

    monkeypatch.setattr(solver, "factor", recorded)
    return orders


def test_only_a_mirror_symmetric_grid_from_the_crossover_up_factors_two_halves(ex51_hp,
                                                                              factor_orders,
                                                                              monkeypatch):
    monkeypatch.setattr(solver, "FOLD_MIN_N", 17 * 4)
    xis, taus = generate_collocation(17, 4)
    skewed = xis[:-1] + (np.nextafter(xis[-1], 0.0),)  # one ulp off the mirror image of xis[0]
    for grid, want in (((xis, taus[:-1]), [17 * 3]),  # below the crossover
                       ((skewed, taus), [17 * 4]),
                       ((xis, taus), [9 * 4, 8 * 4]),  # odd nx: the middle point is even
                       (generate_collocation(18, 4), [9 * 4] * 2)):
        factor_orders.clear()
        sol = solver.solve(ex51_hp, grid)
        assert factor_orders == want
        assert isinstance(sol.beta, GramFactor if len(want) == 1 else solver.MirrorFactor)


def test_folded_solve_satisfies_the_collocation_system(ex51_hp, ex52_hp, folded):
    # A c = m and sum B^2 = c^T A c with the unfolded A; B is the even half's
    # Gram-Schmidt coefficients, then the odd half's, and the condition
    # estimate the larger half's
    sol = solver.solve(ex51_hp, generate_collocation(17, 4))
    basis, bf, c = sol.basis, sol.beta, sol.psi_weights
    a = gram_matrix(basis)
    m = np.array([ex51_hp.M(x, t, 0.0) for x, t in basis.points])
    assert np.max(np.abs(a @ c - m)) < 1e-8
    sum_b2 = float(np.sum(sol.B ** 2))
    assert abs(c @ a @ c - sum_b2) <= 1e-8 * sum_b2
    rows = m.reshape(len(basis.taus), len(basis.xis))
    halves = [f.solve((rows @ fold).ravel())[0] for f, fold in zip(bf.factors, bf.folds)]
    assert np.array_equal(sol.B, np.concatenate(halves))
    assert bf.condition_estimate == max(f.condition_estimate for f in bf.factors)
    # the nonlinear problem at its fixed point: A c = M(p, Psi c)
    sol = solver.solve(ex52_hp, generate_collocation(17, 4), outer_sweeps=40, tol=1e-12)
    assert sol.converged and isinstance(sol.beta, solver.MirrorFactor)
    vals = wave_operator.collocation_values(sol.basis, sol.psi_weights)
    m = np.array([ex52_hp.M(x, t, v) for (x, t), v in zip(sol.basis.points, vals)])
    assert np.max(np.abs(gram_matrix(sol.basis) @ sol.psi_weights - m)) < 1e-8


@pytest.mark.parametrize("n", [8, 9, 16, 32])
@pytest.mark.parametrize("example", ["ex51", "ex52"])
def test_folded_solve_gives_the_unfolded_answer(example, n, request, monkeypatch):
    # the same u and du/dx to rounding; the most apart are ex51's at 32x32,
    # by 4.3e-9 in u and 2.3e-8 in du/dx, which reaches 3.1 on these points
    hp = request.getfixturevalue(f"{example}_hp")
    sols = []
    for fold_min_n in (0, 10 ** 9):  # folded, then one N x N factor
        monkeypatch.setattr(solver, "FOLD_MIN_N", fold_min_n)
        sols.append(solver.solve(hp, generate_collocation(n, n)))
    folded, single = sols
    assert isinstance(folded.beta, solver.MirrorFactor) and isinstance(single.beta, GramFactor)
    d = hp.problem.domain
    pts = [(x, t) for x in np.linspace(d.a, d.b, 21) for t in np.linspace(0.0, d.T, 21)]
    for name in ("u", "u_x"):
        got, want = (np.array([getattr(sol, name)(x, t) for x, t in pts]) for sol in sols)
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want)), name


@pytest.mark.parametrize("k, j, failing", [(9, 0, "odd"), (5, 0, "even"), (0, 1, "even")])
def test_a_degenerate_mirror_symmetric_grid_is_named_by_the_n_by_n_factor(ex51_hp, ex52_hp,
                                                                          k, j, failing,
                                                                          factor_orders, folded):
    # the first half to fail hands over to A's factor, which names the point,
    # canonical and physical, as on any other grid
    xis, taus = (list(c) for c in generate_collocation(18, 4))
    if j:  # two time rows 2^-50 apart
        taus[1] = taus[0] + 2.0 ** -50
    elif failing == "odd":  # 1/2 -+ 2^-50, a pair whose odd combination is numerically zero
        xis[8:10] = 0.5 - 2.0 ** -50, 0.5 + 2.0 ** -50
    else:  # two pairs 2^-50 apart: both halves are degenerate and the even one is factored first
        xis[4:6], xis[12:14] = (0.25, 0.25 + 2.0 ** -50), (0.75 - 2.0 ** -50, 0.75)
    assert all(lo + hi == 1.0 for lo, hi in zip(xis, reversed(xis)))
    n, half = 18 * len(taus), 9 * len(taus)
    for hp in (ex51_hp, ex52_hp):
        factor_orders.clear()
        with pytest.raises(NotPositiveDefinite) as exc:
            solver.solve(hp, (xis, taus))
        assert factor_orders == ([half, half, n] if failing == "odd" else [half, n])
        x, t = hp.problem.domain.from_canonical(xis[k], taus[j])
        assert exc.value.index == j * len(xis) + k
        assert f"(xi, tau) = ({xis[k]}, {taus[j]}), (x, t) = ({x}, {t})" in str(exc.value)


def test_a_half_that_fails_leaves_the_solve_to_the_n_by_n_factor(ex52_hp, monkeypatch):
    grid = generate_collocation(18, 4)
    monkeypatch.setattr(solver, "FOLD_MIN_N", 10 ** 9)
    reference = solver.solve(ex52_hp, grid)
    orders = []

    def failing_halves(gram):
        orders.append(len(gram))
        if len(gram) < len(reference.basis):
            raise NotPositiveDefinite(len(gram) - 1)
        return factor(gram)

    monkeypatch.setattr(solver, "FOLD_MIN_N", 0)
    monkeypatch.setattr(solver, "factor", failing_halves)
    sol = solver.solve(ex52_hp, grid)
    assert orders == [36, 72]  # the even half fails, then A factors
    assert isinstance(sol.beta, GramFactor)
    assert np.array_equal(sol.beta.L, reference.beta.L)
    assert np.array_equal(sol.psi_weights, reference.psi_weights)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, 0.0])
def test_solve_rejects_a_tol_that_is_not_positive_and_finite(ex51_hp, tol):
    # NaN and -1 would run every sweep and report no convergence, and inf
    # would report convergence after one sweep, whatever the update
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        solver.solve(ex51_hp, generate_collocation(4, 4), tol=tol)


def test_converged_flag(ex51_hp, ex52_hp):
    capped = solver.solve(ex52_hp, generate_collocation(5, 5), outer_sweeps=2, tol=1e-10)
    assert capped.sweeps_used == 2
    assert capped.converged is False
    assert capped.last_update > 1e-10
    done = solver.solve(ex51_hp, generate_collocation(5, 5), outer_sweeps=5, tol=1e-10)
    assert done.converged is True
    assert done.last_update <= 1e-10


def test_evaluate_matches_kernel_rows_inside_the_margin(ex52_sol_9):
    # points up to the domain guard's tolerance outside the rectangle
    sol = ex52_sol_9
    domain = sol.hp.problem.domain
    eps = domain.margin / 2
    w = sol.psi_weights
    for x, t in ((domain.b + eps, 0.5), (domain.a - eps, 0.5), (0.3, domain.T + eps),
                 (0.3, -eps), (domain.b + eps, -eps), (domain.a - eps, domain.T + eps)):
        xi, tau = domain.to_canonical(x, t)
        for dx, ev, lift, slope in ((0, solver.evaluate, sol.hp.lifting, 1.0),
                                    (1, solver.evaluate_dx, sol.hp.lifting_x, domain.dxi_dx)):
            row = psi_rows(sol.basis, xi, tau, dx)[0]
            expect = float(row @ w) * slope + lift(x, t)
            scale = float((np.abs(row) + 1.0) @ np.abs(w)) * slope + abs(lift(x, t))
            assert abs(ev(sol, x, t) - expect) <= 64 * np.finfo(float).eps * scale


def test_evaluation_cost_does_not_grow_with_the_basis(ex51_hp, monkeypatch):
    # after the first evaluation no 1 x N kernel row is built per point
    sol = solver.solve(ex51_hp, generate_collocation(6, 6))
    first = (solver.evaluate(sol, 0.3, 0.4), solver.evaluate_dx(sol, 0.3, 0.4))

    def forbidden(*args, **kwargs):
        raise AssertionError("per-point evaluation built a kernel row")

    for module in (kernels, wave_operator):
        monkeypatch.setattr(module, "eval_kernel_grid", forbidden)
    assert (solver.evaluate(sol, 0.3, 0.4), solver.evaluate_dx(sol, 0.3, 0.4)) == first
    for x, t in ((0.0, 0.5), (1.0, 1.0), (0.5, 0.0), (1 / 7, 2 / 7)):
        solver.evaluate(sol, x, t)
        solver.evaluate_dx(sol, x, t)


def _evaluation_points(sol):
    """Points of a solution's rectangle that reach every part of the table.

    One point inside every cell, every grid corner (the rectangle's corners
    included), the columns x = a and x = b, the rows t = 0 and t = T, and
    points half the rounding margin outside each edge and corner.
    """
    d = sol.hp.problem.domain
    rng = np.random.default_rng(41)
    x_edges, t_edges = ([0.0, *c, 1.0] for c in (sol.basis.xis, sol.basis.taus))
    x_in, t_in = ([lo + rng.uniform(0.05, 0.95) * (hi - lo) for lo, hi in zip(e, e[1:]) if lo < hi]
                  for e in (x_edges, t_edges))
    xs = [d.from_canonical(xi, 0.0)[0] for xi in x_in + x_edges[1:-1]]
    ts = [d.from_canonical(0.0, tau)[1] for tau in t_in + t_edges[1:-1]]
    eps = d.margin / 2
    xs_all = xs + [d.a, d.b, d.a - eps, d.b + eps]
    ts_all = ts + [0.0, d.T, -eps, d.T + eps]
    return [(x, t) for x in xs_all for t in ts_all]


@pytest.mark.parametrize("case", ["ex51 8", "ex51 16", "ex51 32", "ex52 8", "ex52 16", "ex52 32",
                                  "ex52 irregular", "custom 7x5"])
def test_evaluate_gives_the_bits_of_the_series_loop_plus_lifting(case, ex51_hp, ex52_hp,
                                                                 custom_problem):
    # evaluate and evaluate_dx against the rectangle map, the loop over the
    # cell's rows and the lifting formula with rho and sigma, in their order
    # of operations, compared as float.hex
    name, grid = case.split()
    if name == "custom":
        hp, pts = problems.homogenize(custom_problem), generate_collocation(7, 5)
    elif grid == "irregular":
        rng = np.random.default_rng(40)
        hp = ex52_hp
        pts = (np.sort(rng.uniform(0.02, 0.98, 9)), np.sort(rng.uniform(0.02, 1.0, 6)))
    else:
        hp = {"ex51": ex51_hp, "ex52": ex52_hp}[name]
        pts = generate_collocation(int(grid), int(grid))
    sol = solver.solve(hp, pts)
    points = _evaluation_points(sol)
    for dx, ev in ((0, solver.evaluate), (1, solver.evaluate_dx)):
        got = [ev(sol, x, t) for x, t in points]
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == [oracles.evaluate(sol, x, t, dx).hex() for x, t in points]
    # twice the margin outside, or NaN: OutOfDomain with to_canonical's message
    d = sol.hp.problem.domain
    off, mid_x, mid_t = 2 * d.margin, 0.5 * (d.a + d.b), 0.5 * d.T
    for x, t in ((d.a - off, mid_t), (d.b + off, mid_t), (mid_x, -off), (mid_x, d.T + off),
                 (d.b + off, d.T + off), (math.nan, mid_t), (mid_x, math.nan)):
        with pytest.raises(OutOfDomain) as want:
            d.to_canonical(x, t)
        for ev in (solver.evaluate, solver.evaluate_dx):
            with pytest.raises(OutOfDomain) as got:
                ev(sol, x, t)
            assert str(got.value) == str(want.value)


def test_solutions_factors_and_tables_compare_and_hash_by_identity(ex51_hp, unfolded):
    # two solves of one grid hold equal arrays in distinct objects
    first, second = (solver.solve(ex51_hp, generate_collocation(4, 4)) for _ in range(2))
    assert np.array_equal(first.beta.L, second.beta.L)
    for a, b in ((first, second), (first.beta, second.beta), (first.table, second.table)):
        assert a != b and not a == b
        assert a == a and b == b
        assert hash(a) == hash(a) and len({a, b, a}) == 2
    assert first.basis == second.basis  # the basis holds no arrays and compares by value
