import math

import numpy as np
import pytest

from rkwave import problems, solver
from rkwave.errors import NonFiniteValue, NotPositiveDefinite, OutOfDomain
from rkwave.solver import CollocationSet, generate_collocation
from rkwave.wave_operator import apply_L_numeric


def test_generate_collocation_examples():
    cs = generate_collocation(2, 2)
    assert cs.points[0] == (0.0, 0.0)
    assert cs.basis_points == ((1 / 3, 1 / 3), (2 / 3, 1 / 3), (1 / 3, 2 / 3), (2 / 3, 2 / 3))
    cs = generate_collocation(1, 1)
    assert cs.basis_points == ((0.5, 0.5),)


def test_generate_collocation_avoids_dead_edges():
    cs = generate_collocation(7, 5)
    for xi, tau in cs.basis_points:
        assert 0.0 < xi < 1.0
        assert 0.0 < tau


def test_collocation_set_validation():
    with pytest.raises(ValueError):
        CollocationSet(((0.5, 0.5),))  # missing anchor
    with pytest.raises(ValueError):
        CollocationSet(((0.0, 0.0), (0.0, 0.5)))  # xi = 0 is dead
    with pytest.raises(ValueError):
        CollocationSet(((0.0, 0.0), (0.5, 0.0)))  # tau = 0 is dead
    with pytest.raises(ValueError):
        CollocationSet(((0.0, 0.0), (0.5, 0.5), (0.5, 0.5)))  # duplicate
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
    assert sol.sweeps_used == 1


def test_linear_solve_is_single_pass(ex51_hp):
    sol = solver.solve(ex51_hp, generate_collocation(4, 4), outer_sweeps=5)
    assert sol.sweeps_used == 2  # second pass just confirms convergence
    one = solver.solve(ex51_hp, generate_collocation(4, 4), outer_sweeps=1)
    assert np.allclose(one.B, sol.B, rtol=0, atol=0)


def test_collocation_equations_hold(ex51_hp, ex51_sol_9):
    # (L v_n)(p_i) = M(p_i): algebraically via the Gram, and by finite
    # differences on the evaluated series
    from rkwave.wave_operator import gram_matrix
    sol = ex51_sol_9
    a = gram_matrix(sol.basis)
    m = np.array([ex51_hp.M(x, t, 0.0) for x, t in sol.points.basis_points])
    assert np.max(np.abs(a @ sol.psi_weights - m)) < 1e-8

    def v_n(x, t):
        from rkwave.wave_operator import psi_values
        return float(psi_values(sol.basis, x, t)[0] @ sol.psi_weights)

    for xi, tau in sol.points.basis_points[:5]:
        fd = apply_L_numeric(sol.basis.operator, v_n, xi, tau, 1e-3)
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
    from rkwave.wave_operator import gram_matrix
    sol = ex51_sol_9
    sum_b2 = float(np.sum(sol.B ** 2))
    w_norm2 = float(sol.psi_weights @ gram_matrix(sol.basis) @ sol.psi_weights)
    assert abs(w_norm2 - sum_b2) <= 1e-8 * sum_b2
    assert solver.solution_norm(sol) == pytest.approx(math.sqrt(sum_b2))


def test_norm_history_nondecreasing(ex51_sol_9, ex52_sol_9):
    for sol in (ex51_sol_9, ex52_sol_9):
        hist = sol.norm_history
        assert np.all(np.diff(hist) >= -1e-15)
        assert hist[-1] == pytest.approx(solver.solution_norm(sol))


def test_norm_pythagoras():
    b = np.array([3.0, 4.0])
    hist = np.sqrt(np.cumsum(b ** 2))
    assert hist[-1] == 5.0


def test_picard_fixed_point(ex52_hp):
    # the converged sweeps satisfy the collocation equations A c = M(p, Psi c)
    sol = solver.solve(ex52_hp, generate_collocation(5, 5), outer_sweeps=40, tol=1e-12)
    assert sol.sweeps_used < 40  # converged before the cap
    from rkwave.wave_operator import psi_values
    c = sol.psi_weights
    vals = psi_values(sol.basis, sol.basis.xs, sol.basis.ts) @ c
    m = np.array([ex52_hp.M(x, t, v) for (x, t), v in zip(sol.points.basis_points, vals)])
    low = sol.beta.L
    assert np.max(np.abs(low @ (low.T @ c) - m)) < 1e-10


def test_ex52_sweeps_converge_at_18x18(ex52_hp):
    sol = solver.solve(ex52_hp, generate_collocation(18, 18), outer_sweeps=30)
    assert sol.sweeps_used < 30


def test_point_order_does_not_change_nonlinear_solution(ex52_hp):
    grid = generate_collocation(16, 16)
    reverse = CollocationSet(grid.points[:1] + grid.points[:0:-1])
    a = solver.solve(ex52_hp, grid, outer_sweeps=30)
    b = solver.solve(ex52_hp, reverse, outer_sweeps=30)
    for x, t in ((-0.5, 0.3), (0.1, 0.6), (0.7, 0.9)):
        assert solver.evaluate(a, x, t) == pytest.approx(solver.evaluate(b, x, t), abs=1e-9)


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


def test_domain_guard(ex51_sol_9):
    with pytest.raises(OutOfDomain):
        solver.evaluate(ex51_sol_9, 1.2, 0.5)
    with pytest.raises(OutOfDomain):
        solver.evaluate_dx(ex51_sol_9, 0.5, -0.2)
    solver.evaluate(ex51_sol_9, 1.0, 1.0)  # corners included


def test_non_finite_source_detected(ex51):
    p = problems.ProblemSpec(
        domain=problems.Rectangle(0.0, 1.0, 1.0),
        f=problems.Curve.zero(), g=problems.Curve.zero(),
        h1=problems.Curve.zero(), h2=problems.Curve.zero(),
        source=lambda x, t: float("nan"))
    hp = problems.homogenize(p)
    with pytest.raises(NonFiniteValue):
        solver.solve(hp, generate_collocation(2, 2))


def test_degenerate_points_rejected(ex51_hp):
    pts = CollocationSet(((0.0, 0.0), (0.5, 0.5), (0.5 + 1e-15, 0.5)))
    with pytest.raises(NotPositiveDefinite):
        solver.solve(ex51_hp, pts)
