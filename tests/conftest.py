import math

import numpy as np
import pytest

from rkwave import problems, solver


def poly(*coeffs):
    """Polynomial sum_k c_k x^k as a callable f(x, d) with analytic derivatives."""
    base = np.array(coeffs, dtype=float)

    def f(x, d: int = 0):
        c = np.polynomial.polynomial.polyder(base, d) if d else base
        if c.size == 0:
            c = np.zeros(1)
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), c)

    return f


def sinusoid(freq, phase=0.0):
    """sin(freq*x + phase) as a callable f(x, d)."""

    def f(x, d: int = 0):
        return freq ** d * np.sin(freq * np.asarray(x, dtype=float) + phase + d * np.pi / 2)

    return f


class Separable:
    """Sum of separable terms (fx, ft); callable as f(x, t, dx, dt)."""

    def __init__(self, *terms):
        self.terms = terms

    def __call__(self, x, t, dx: int = 0, dt: int = 0):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        total = 0.0
        for fx, ft in self.terms:
            total = total + fx(x, dx) * ft(t, dt)
        return total


@pytest.fixture(scope="session")
def ex51():
    return problems.builtin("ex51")


@pytest.fixture(scope="session")
def ex51_hp(ex51):
    return problems.homogenize(ex51)


@pytest.fixture(scope="session")
def ex51_sol_9(ex51_hp):
    return solver.solve(ex51_hp, solver.generate_collocation(9, 9))


@pytest.fixture(scope="session")
def ex52():
    return problems.builtin("ex52")


@pytest.fixture(scope="session")
def ex52_hp(ex52):
    return problems.homogenize(ex52)


@pytest.fixture(scope="session")
def ex52_sol_9(ex52_hp):
    return solver.solve(ex52_hp, solver.generate_collocation(9, 9), outer_sweeps=5)


@pytest.fixture(scope="session")
def custom_problem():
    """A linear problem on [-0.7, 1.9] x [0, 1.3] with all four data curves nonzero.

    Its data are read from the exact solution u = sin(x - t) + 0.3 x t, so
    the corners are compatible and no source is needed.
    """
    a, b = -0.7, 1.9

    def boundary(x0):
        return problems.Curve(lambda t: math.sin(x0 - t) + 0.3 * x0 * t,
                              lambda t: -math.cos(x0 - t) + 0.3 * x0,
                              lambda t: -math.sin(x0 - t))

    return problems.ProblemSpec(
        domain=problems.Rectangle(a, b, 1.3),
        f=problems.Curve(math.sin, math.cos, lambda x: -math.sin(x)),
        g=problems.Curve(lambda x: -math.cos(x) + 0.3 * x, lambda x: math.sin(x) + 0.3,
                         math.cos),
        h1=boundary(a),
        h2=boundary(b),
        exact=lambda x, t: math.sin(x - t) + 0.3 * x * t,
        exact_dx=lambda x, t: math.cos(x - t) + 0.3 * t,
    )


@pytest.fixture
def folded(monkeypatch):
    """``solver.solve`` folds every grid that ``mirror_halves`` splits, whatever its size."""
    monkeypatch.setattr(solver, "FOLD_MIN_N", 0)


@pytest.fixture
def unfolded(monkeypatch):
    """``solver.solve`` factors the N x N Gram matrix of every grid."""
    monkeypatch.setattr(solver, "FOLD_MIN_N", 10 ** 9)
