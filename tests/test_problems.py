import dataclasses
import math

import numpy as np
import pytest

from rkwave import problems, solver
from rkwave.errors import DegenerateDomain, IncompatibleCorners
from rkwave.problems import (
    Curve,
    ErrorReport,
    ErrorRow,
    ProblemSpec,
    Rectangle,
    builtin,
    error_table,
    homogenize,
)
from rkwave.wave_operator import WaveOperator

import oracles
from oracles import apply_L


def test_canonicalize_examples():
    op = Rectangle(0.0, 1.0, 1.0).operator
    assert (op.alpha, op.gamma) == (1.0, 1.0)
    domain = Rectangle(0.0, 2.0, 4.0)
    op = domain.operator
    assert op.alpha == pytest.approx(1 / 16)
    assert op.gamma == pytest.approx(1 / 4)
    x, t = 1.37, 2.91
    xi, tau = domain.to_canonical(x, t)
    xb, tb = domain.from_canonical(xi, tau)
    assert abs(xb - x) < 1e-15 and abs(tb - t) < 1e-15


def test_degenerate_domain():
    with pytest.raises(DegenerateDomain):
        Rectangle(1.0, 1.0, 1.0)
    with pytest.raises(DegenerateDomain):
        Rectangle(0.0, 1.0, 0.0)
    for a, b, T in ((-math.inf, 1.0, 1.0), (0.0, math.inf, 1.0), (0.0, 1.0, math.inf),
                    (math.nan, 1.0, 1.0)):
        with pytest.raises(DegenerateDomain):
            Rectangle(a, b, T)
    # finite rectangles whose unit-square operator is not representable:
    # T^2 overflows; T^2 and (b-a)^2 underflow to 0; b - a overflows, so
    # gamma = 0; alpha gamma is finite but gamma^2 overflows
    for a, b, T in ((0.0, 1.0, 1e200), (0.0, 1e-170, 1e-200), (-1e308, 1e308, 1.0),
                    (0.0, 1e-150, 1e150)):
        with pytest.raises(DegenerateDomain, match="has no unit-square operator"):
            Rectangle(a, b, T)


def test_builtin_ex51_values():
    p = builtin("ex51")
    assert p.nonlinearity is None
    assert p.exact(0.3, 0.3) == pytest.approx(0.4755282582, abs=1e-9)
    assert p.exact(0.1, 0.1) == pytest.approx(0.2938926262, abs=1e-9)
    assert p.f.val(0.25) == pytest.approx(math.sin(math.pi * 0.25))
    with pytest.raises(ValueError):
        builtin("ex51", a=-1.0)
    with pytest.raises(ValueError):
        builtin("ex99")


def test_builtin_ex52_values():
    p = builtin("ex52")
    assert p.domain.a == -1.0 and p.domain.b == 1.0
    assert p.exact(0.0, 1.0) == pytest.approx(math.pi, abs=1e-12)
    assert p.exact(-0.8, 1.0) == pytest.approx(2.568109722, abs=1e-9)
    assert p.exact(0.8, 1.0) == pytest.approx(2.568109722, abs=1e-9)
    assert p.exact(-0.4, 1.0) == pytest.approx(2.985843344, abs=1e-9)
    # initial data: u(x,0) = 0, u_t(x,0) = 4 sech x
    for x in np.linspace(-1, 1, 7):
        assert p.exact(x, 0.0) == 0.0
        assert p.g.val(x) == pytest.approx(4.0 / math.cosh(x), rel=1e-14)
    q = builtin("ex52", a=-2.0, b=0.5)
    assert (q.domain.a, q.domain.b) == (-2.0, 0.5)
    assert q.h1.val(1.0) == pytest.approx(q.exact(-2.0, 1.0))


def test_ex52_exact_solves_the_pde():
    p = builtin("ex52")
    op = WaveOperator(1.0, 1.0)
    worst = 0.0
    for x in np.linspace(-0.9, 0.9, 10):
        for t in np.linspace(0.05, 0.95, 10):
            resid = (apply_L(op, p.exact, float(x), float(t), 1e-4)
                     + math.sin(p.exact(float(x), float(t))))
            worst = max(worst, abs(resid))
    assert worst < 1e-6


def test_corner_compatibility_enforced():
    with pytest.raises(IncompatibleCorners):
        ProblemSpec(domain=Rectangle(0.0, 1.0, 1.0),
                    f=Curve(lambda x: 1.0, lambda x: 0.0, lambda x: 0.0),
                    g=Curve.zero(), h1=Curve.zero(), h2=Curve.zero())
    with pytest.raises(IncompatibleCorners):
        # value corners fine, derivative corner broken: h1'(0) != g(a)
        ProblemSpec(domain=Rectangle(0.0, 1.0, 1.0),
                    f=Curve.zero(),
                    g=Curve(lambda x: 1.0, lambda x: 0.0, lambda x: 0.0),
                    h1=Curve.zero(), h2=Curve.zero())


def test_replace_runs_the_corner_check():
    # homogenize does not check corners again: every ProblemSpec, replaced ones too, is checked
    with pytest.raises(IncompatibleCorners):
        dataclasses.replace(builtin("ex51"), f=Curve(lambda x: 1.0, lambda x: 0.0,
                                                     lambda x: 0.0))


def test_sech_is_one_over_cosh_and_zero_past_its_overflow():
    for x in np.linspace(-710.0, 710.0, 14201):
        assert problems.sech(float(x)).hex() == (1.0 / math.cosh(float(x))).hex()
    assert problems.sech(800.0) == 0.0 and problems.sech(-800.0) == 0.0


def test_nan_corner_data_is_incompatible():
    # NaN compares false with everything, so the check must not pass it
    nan = Curve(lambda v: math.nan, lambda v: 0.0, lambda v: 0.0)
    for data in (dict(f=nan), dict(h1=nan), dict(h2=Curve(lambda v: 0.0, lambda v: math.nan,
                                                          lambda v: 0.0))):
        spec = dict(f=Curve.zero(), g=Curve.zero(), h1=Curve.zero(), h2=Curve.zero()) | data
        with pytest.raises(IncompatibleCorners):
            ProblemSpec(domain=Rectangle(0.0, 1.0, 1.0), **spec)


def test_homogenize_ex51():
    hp = homogenize(builtin("ex51"))
    pi = math.pi
    for xi in np.linspace(0, 1, 9):
        want = -pi * pi * math.sin(pi * xi)
        assert hp.M(xi, 0.3, 0.0) == pytest.approx(want, abs=1e-12)
        assert hp.M(xi, 0.9, 5.0) == pytest.approx(want, abs=1e-12)  # v-independent
        assert hp.lifting(xi, 0.7) == pytest.approx(math.sin(pi * xi), abs=1e-15)


def test_homogenize_trivial():
    p = ProblemSpec(domain=Rectangle(0.0, 1.0, 1.0),
                    f=Curve.zero(), g=Curve.zero(), h1=Curve.zero(), h2=Curve.zero(),
                    nonlinearity=math.sin, source=lambda x, t: x * t)
    hp = homogenize(p)
    assert hp.lifting(0.3, 0.8) == 0.0
    assert hp.M(0.25, 0.5, 0.7) == pytest.approx(0.25 * 0.5 - math.sin(0.7), abs=1e-15)


@pytest.mark.parametrize("example", ["ex51", "ex52"])
def test_memoized_M_gives_the_bits_of_a_first_call(example):
    # M keeps its v-independent part per point; once solves have filled that
    # memo, every call still gives the bits of a fresh problem's first call
    # and of the formula of M in its order of operations
    hp = homogenize(builtin(example))
    points = [pt for n in (8, 16)
              for pt in solver.solve(hp, solver.generate_collocation(n, n)).basis.points]
    p = hp.problem
    w, _, w_tt, w_xx = oracles.lifting(p)
    for v in (0.0, 0.3, -2.0):
        fresh = homogenize(builtin(example))
        want = [fresh.M(xi, tau, v).hex() for xi, tau in points]
        for _ in range(2):
            assert [hp.M(xi, tau, v).hex() for xi, tau in points] == want
        formula = []
        for xi, tau in points:
            x, t = p.domain.from_canonical(xi, tau)
            total = -w_tt(x, t) + w_xx(x, t)
            if p.source is not None:
                total += p.source(x, t)
            if p.nonlinearity is not None:
                total -= p.nonlinearity(v + w(x, t))
            formula.append(total.hex())
        assert formula == want


def test_lifting_matches_all_data(custom_problem):
    # the lifting meets every datum, and w and w_x give the bits of their
    # formula with rho and sigma, at random points of ex51, ex52 and a
    # problem whose four data curves are all nonzero
    rng = np.random.default_rng(1)
    for p in (builtin("ex51"), builtin("ex52"), custom_problem):
        hp = homogenize(p)
        a, b, T = p.domain.a, p.domain.b, p.domain.T
        for x in rng.uniform(a, b, 50):
            assert abs(hp.lifting(x, 0.0) - p.f.val(x)) < 1e-10
            eps = 1e-6
            dt = (hp.lifting(x, eps) - hp.lifting(x, -eps)) / (2 * eps)
            assert abs(dt - p.g.val(x)) < 1e-8
        for t in rng.uniform(0, T, 50):
            assert abs(hp.lifting(a, t) - p.h1.val(t)) < 1e-10
            assert abs(hp.lifting(b, t) - p.h2.val(t)) < 1e-10
        w, w_x, _, _ = oracles.lifting(p)
        points = list(zip(rng.uniform(a, b, 200).tolist(), rng.uniform(0, T, 200).tolist()))
        points += [(a, 0.0), (b, 0.0), (a, T), (b, T)]
        assert [hp.lifting(x, t).hex() for x, t in points] == [w(x, t).hex() for x, t in points]
        assert ([hp.lifting_x(x, t).hex() for x, t in points]
                == [w_x(x, t).hex() for x, t in points])


def test_lifting_derivative_consistency():
    # ex52's data without its nonlinearity: a source-free linear problem, whose
    # M is -w_tt + w_xx, the second derivatives of the lifting that M forms
    p = dataclasses.replace(builtin("ex52"), nonlinearity=None)
    hp = homogenize(p)
    _, _, w_tt, w_xx = oracles.lifting(p)
    eps = 1e-5
    for (x, t) in [(-0.5, 0.3), (0.2, 0.8), (0.9, 0.1)]:
        fd_x = (hp.lifting(x + eps, t) - hp.lifting(x - eps, t)) / (2 * eps)
        assert abs(fd_x - hp.lifting_x(x, t)) < 1e-8
        fd_tt = (hp.lifting(x, t + eps) - 2 * hp.lifting(x, t) + hp.lifting(x, t - eps)) / eps**2
        assert abs(fd_tt - w_tt(x, t)) < 1e-5
        fd_xx = (hp.lifting(x + eps, t) - 2 * hp.lifting(x, t) + hp.lifting(x - eps, t)) / eps**2
        assert abs(fd_xx - w_xx(x, t)) < 1e-5
        assert abs(-fd_tt + fd_xx - hp.M(*p.domain.to_canonical(x, t), 0.0)) < 1e-5


def test_homogenized_problem_holds_the_lifting_its_derivative_and_M():
    # the lifting's second derivatives live only inside M
    names = [f.name for f in dataclasses.fields(problems.HomogenizedProblem)]
    assert names == ["problem", "lifting", "lifting_x", "M"]


def test_sine_gordon_forcing_with_compatible_boundary_strips():
    # with boundary data h1 = 4t, h2 = 4t sech(1) induced by the initial
    # velocity (so the blending strips vanish identically), the homogenized
    # source on [0,1] is -sin(v + 4t sech x) - 4t sech x + 8t sinh^2 x / cosh^3 x
    k = 1.0 / math.cosh(1.0)
    p = ProblemSpec(
        domain=Rectangle(0.0, 1.0, 1.0),
        f=Curve.zero(),
        g=Curve(lambda x: 4.0 / math.cosh(x),
                lambda x: -4.0 * math.tanh(x) / math.cosh(x),
                lambda x: 4.0 * (math.tanh(x) ** 2 / math.cosh(x) - math.cosh(x) ** -3)),
        h1=Curve(lambda t: 4.0 * t, lambda t: 4.0, lambda t: 0.0),
        h2=Curve(lambda t: 4.0 * k * t, lambda t: 4.0 * k, lambda t: 0.0),
        nonlinearity=math.sin)
    hp = homogenize(p)
    for x in np.linspace(0, 1, 8):
        for v in (0.0, 0.4, -1.1):
            t = 0.6
            want = (-math.sin(v + 4 * t / math.cosh(x))
                    - 4 * t / math.cosh(x)
                    + 8 * t * math.sinh(x) ** 2 / math.cosh(x) ** 3)
            assert hp.M(x, t, v) == pytest.approx(want, abs=1e-12)
        assert hp.M(x, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_error_table(ex51, ex51_sol_9):
    pts = [(k / 10, k / 10) for k in range(1, 11)]
    report = error_table(ex51_sol_9, pts)
    assert len(report.rows) == 10
    r = report.rows[0]
    assert (r.x, r.t) == (0.1, 0.1)
    assert r.abs_err == abs(r.exact - r.approx)
    assert r.rel_err == r.abs_err / abs(r.exact)
    assert report.max_abs_error == max(row.abs_err for row in report.rows)
    assert all(row.seconds >= 0.0 for row in report.rows)


def test_error_table_calls_evaluate_once_per_point(ex51_sol_9, monkeypatch):
    # error_table reads solver.evaluate when it is called, so a wrapper
    # installed on the module, as the benchmark's tracer installs one, sees
    # every point exactly once and in order
    evaluate, calls = solver.evaluate, []

    def counting(sol, x, t):
        calls.append((x, t))
        return evaluate(sol, x, t)

    monkeypatch.setattr(solver, "evaluate", counting)
    pts = [(k / 7, (7 - k) / 7) for k in range(8)]
    report = error_table(ex51_sol_9, pts)
    assert calls == pts
    assert all(type(row) is ErrorRow for row in report.rows)
    assert [row.approx for row in report.rows] == [evaluate(ex51_sol_9, x, t) for x, t in pts]
    assert [(row.x, row.t) for row in report.rows] == pts


def test_error_table_zero_exact_conventions(ex51_hp):
    p = ProblemSpec(domain=Rectangle(0.0, 1.0, 1.0),
                    f=Curve.zero(), g=Curve.zero(), h1=Curve.zero(), h2=Curve.zero(),
                    source=lambda x, t: 1.0,
                    exact=lambda x, t: 0.0)  # deliberately wrong exact
    hp = homogenize(p)
    sol = solver.solve(hp, solver.generate_collocation(2, 2))
    report = error_table(sol, [(0.5, 0.5), (0.5, 0.0)])
    assert report.rows[0].rel_err == float("inf")  # exact 0, approx nonzero
    assert report.rows[1].abs_err == 0.0           # exact at t = 0
    assert report.rows[1].rel_err == 0.0


def test_error_table_without_exact_has_nan_rows():
    p = ProblemSpec(domain=Rectangle(0.0, 1.0, 1.0),
                    f=Curve.zero(), g=Curve.zero(), h1=Curve.zero(), h2=Curve.zero(),
                    source=lambda x, t: 1.0)
    hp = homogenize(p)
    sol = solver.solve(hp, solver.generate_collocation(2, 2))
    report = error_table(sol, [(0.5, 0.5), (0.25, 1.0)])
    for row, (x, t) in zip(report.rows, [(0.5, 0.5), (0.25, 1.0)]):
        assert (row.x, row.t, row.approx) == (x, t, solver.evaluate(sol, x, t))
        assert row.approx != 0.0 and row.seconds >= 0.0
        assert math.isnan(row.exact) and math.isnan(row.abs_err) and math.isnan(row.rel_err)
    assert math.isnan(report.max_abs_error)


def test_max_abs_error_is_nan_if_any_row_is():
    def row(err):
        return ErrorRow(0.5, 0.5, 1.0, 1.0 + err, err, err, 0.0)

    for errs in ((1.0, math.nan), (math.nan, 1.0), (0.5, math.nan, 2.0)):
        assert math.isnan(ErrorReport(tuple(row(e) for e in errs)).max_abs_error)
    assert ErrorReport((row(0.5), row(2.0), row(1.0))).max_abs_error == 2.0
    assert ErrorReport(()).max_abs_error == 0.0
