"""Problem definitions, the rectangle's map to the unit square, homogenization, error tables.

The target equation on a rectangle [a, b] x [0, T] is

    u_tt = u_xx - N(u) + s(x, t)
    u(x, 0) = f(x),   u_t(x, 0) = g(x),   u(a, t) = h1(t),   u(b, t) = h2(t)

with N = sin for sine-Gordon and N = 0 for the linear wave equation.  The
solver works on the residual v = u - w where the lifting

    w(x, t) = f(x) + t g(x) + (b-x)/(b-a) rho(t) + (x-a)/(b-a) sigma(t)
    rho(t)  = h1(t) - f(a) - t g(a),    sigma(t) = h2(t) - f(b) - t g(b)

absorbs all data exactly (given corner-compatible data), leaving v with
homogeneous conditions and the forced equation L v = M(x, t, v),

    M(x, t, v) = -N(v + w) + s - w_tt + w_xx.

Coordinates are then rescaled to the unit square, xi = (x-a)/(b-a) and
tau = t/T, which turns the operator into alpha v_tautau - gamma v_xixi
with alpha = 1/T^2, gamma = 1/(b-a)^2.  ``Rectangle`` owns that map and
that operator; one whose operator floats cannot hold is a DegenerateDomain.

Only -N(v + w) depends on v, so ``M`` memoizes s - w_tt + w_xx and w per
(xi, tau) for the life of the problem: a repeat call costs a lookup and one
N and gives the same bits.

``error_table`` compares the solution with the exact one point by point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import solver
from .errors import DegenerateDomain, IncompatibleCorners, OutOfDomain
from .wave_operator import WaveOperator

CORNER_TOL = 1e-10


@dataclass(frozen=True)
class Curve:
    """A scalar data function bundled with its first two derivatives."""

    val: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]

    @staticmethod
    def zero() -> "Curve":
        return Curve(lambda v: 0.0, lambda v: 0.0, lambda v: 0.0)


@dataclass(frozen=True)
class Rectangle:
    """Space-time rectangle [a, b] x [0, T], its map to the unit square and L there."""

    a: float
    b: float
    T: float
    operator: WaveOperator = field(init=False, repr=False, compare=False)
    margin: float = field(init=False, repr=False, compare=False)  # to_canonical's rounding slack
    # the accepted (x_lo, x_hi, t_lo, t_hi): the rectangle widened by ``margin``
    bounds: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)
    dxi_dx: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        box = f"[{self.a}, {self.b}] x [0, {self.T}]"
        if not (math.isfinite(self.a) and math.isfinite(self.b) and math.isfinite(self.T)):
            raise DegenerateDomain(f"rectangle {box} is not finite")
        if not (self.b > self.a) or not (self.T > 0):
            raise DegenerateDomain(f"degenerate rectangle {box}")
        try:
            op = WaveOperator(1.0 / self.T ** 2, 1.0 / (self.b - self.a) ** 2)
        except (ValueError, ArithmeticError) as exc:
            raise DegenerateDomain(f"rectangle {box} has no unit-square operator: {exc}") from None
        object.__setattr__(self, "operator", op)
        eps = 1e-9 * max(1.0, self.b - self.a, self.T)
        object.__setattr__(self, "margin", eps)
        object.__setattr__(self, "bounds", (self.a - eps, self.b + eps, -eps, self.T + eps))
        object.__setattr__(self, "dxi_dx", 1.0 / (self.b - self.a))

    def to_canonical(self, x: float, t: float):
        """(xi, tau) of the point (x, t); OutOfDomain if it is outside ``bounds``."""
        a, b, T = self.a, self.b, self.T
        x_lo, x_hi, t_lo, t_hi = self.bounds
        if not (x_lo <= x <= x_hi) or not (t_lo <= t <= t_hi):
            raise OutOfDomain(f"({x}, {t}) outside [{a}, {b}] x [0, {T}]")
        return (x - a) / (b - a), t / T

    def from_canonical(self, xi: float, tau: float):
        return self.a + (self.b - self.a) * xi, self.T * tau


@dataclass(frozen=True)
class ProblemSpec:
    """A full initial/boundary value problem with optional exact solution; building one raises
    IncompatibleCorners unless its data meet the four corner conditions to CORNER_TOL."""

    domain: Rectangle
    f: Curve
    g: Curve
    h1: Curve
    h2: Curve
    nonlinearity: Optional[Callable[[float], float]] = None
    source: Optional[Callable[[float, float], float]] = None
    exact: Optional[Callable[[float, float], float]] = None
    exact_dx: Optional[Callable[[float, float], float]] = None

    def __post_init__(self):
        a, b = self.domain.a, self.domain.b
        checks = (
            ("h1(0) = f(a)", self.h1.val(0.0), self.f.val(a)),
            ("h2(0) = f(b)", self.h2.val(0.0), self.f.val(b)),
            ("h1'(0) = g(a)", self.h1.d1(0.0), self.g.val(a)),
            ("h2'(0) = g(b)", self.h2.d1(0.0), self.g.val(b)),
        )
        for label, lhs, rhs in checks:
            # written so that NaN data fails the check
            if not abs(lhs - rhs) <= CORNER_TOL * max(1.0, abs(lhs), abs(rhs)):
                raise IncompatibleCorners(f"corner compatibility {label} fails: {lhs} vs {rhs}")


@dataclass(frozen=True)
class HomogenizedProblem:
    """Canonical-square form of a problem: lifting and source M (memoized per point)."""

    problem: ProblemSpec
    lifting: Callable[[float, float], float]
    lifting_x: Callable[[float, float], float]
    M: Callable[[float, float, float], float]


def homogenize(p: ProblemSpec) -> HomogenizedProblem:
    """Split u = v + w on the unit square; p's corners were checked when p was built."""
    a, b = p.domain.a, p.domain.b
    width = b - a
    f, g, h1, h2 = p.f, p.g, p.h1, p.h2
    fa, fb = f.val(a), f.val(b)
    ga, gb = g.val(a), g.val(b)
    # w and w_x run once per evaluated point: rho and sigma are written out
    # in place and the data functions bound here, in the formula's order
    f_val, g_val, h1_val, h2_val, f_d1, g_d1 = f.val, g.val, h1.val, h2.val, f.d1, g.d1

    def w(x: float, t: float) -> float:
        return (f_val(x) + t * g_val(x)
                + (b - x) / width * (h1_val(t) - fa - t * ga)
                + (x - a) / width * (h2_val(t) - fb - t * gb))

    def w_x(x: float, t: float) -> float:
        return (f_d1(x) + t * g_d1(x)
                + ((h2_val(t) - fb - t * gb) - (h1_val(t) - fa - t * ga)) / width)

    nonlin = p.nonlinearity
    source = p.source

    @functools.lru_cache(maxsize=None)
    def fixed_part(xi: float, tau: float):
        x, t = p.domain.from_canonical(xi, tau)
        # -w_tt + w_xx
        total = (-((b - x) / width * h1.d2(t) + (x - a) / width * h2.d2(t))
                 + (f.d2(x) + t * g.d2(x)))
        if source is not None:
            total += source(x, t)
        return total, (w(x, t) if nonlin is not None else None)

    def m_fun(xi: float, tau: float, v: float) -> float:
        total, w_here = fixed_part(xi, tau)
        return total if nonlin is None else total - nonlin(v + w_here)

    return HomogenizedProblem(p, w, w_x, m_fun)


# --------------------------------------------------------------------------
# built-in benchmark problems
# --------------------------------------------------------------------------

def sech(x: float) -> float:
    """1/cosh(x), and 0.0 where cosh overflows (|x| > 710.4, where sech x < 5e-309)."""
    try:
        return 1.0 / math.cosh(x)
    except OverflowError:
        return 0.0


def builtin(example_id: str, a: float | None = None, b: float | None = None) -> ProblemSpec:
    """Built-in benchmark problems.

    ``ex51``: linear wave on [0,1] x [0,1], u(x,0) = sin(pi x), zero boundary
    data; exact solution sin(pi x) cos(pi t).

    ``ex52``: sine-Gordon on [a,b] x [0,1] (default [-1,1]) with u(x,0) = 0
    and u_t(x,0) = 4 sech x; boundary data is read from the exact soliton
    solution u = 4 arctan(t sech x), which keeps the corners compatible.
    """
    if example_id == "ex51":
        if a is not None or b is not None:
            raise ValueError("ex51 is fixed on [0, 1]")
        pi = math.pi
        f = Curve(lambda x: math.sin(pi * x),
                  lambda x: pi * math.cos(pi * x),
                  lambda x: -pi * pi * math.sin(pi * x))
        return ProblemSpec(
            domain=Rectangle(0.0, 1.0, 1.0),
            f=f,
            g=Curve.zero(),
            h1=Curve.zero(),
            h2=Curve.zero(),
            nonlinearity=None,
            exact=lambda x, t: math.sin(pi * x) * math.cos(pi * t),
            exact_dx=lambda x, t: pi * math.cos(pi * x) * math.cos(pi * t),
        )
    if example_id == "ex52":
        a = -1.0 if a is None else float(a)
        b = 1.0 if b is None else float(b)

        def exact(x: float, t: float) -> float:
            return 4.0 * math.atan(t * sech(x))

        def exact_dx(x: float, t: float) -> float:
            c = sech(x)
            return -4.0 * t * c * math.tanh(x) / (1.0 + (t * c) ** 2)

        def boundary(x0: float) -> Curve:
            c = sech(x0)
            return Curve(
                lambda t, c=c: 4.0 * math.atan(c * t),
                lambda t, c=c: 4.0 * c / (1.0 + (c * t) ** 2),
                lambda t, c=c: -8.0 * c ** 3 * t / (1.0 + (c * t) ** 2) ** 2,
            )

        g = Curve(
            lambda x: 4.0 * sech(x),
            lambda x: -4.0 * sech(x) * math.tanh(x),
            lambda x: 4.0 * (sech(x) * math.tanh(x) ** 2 - sech(x) ** 3),
        )
        return ProblemSpec(
            domain=Rectangle(a, b, 1.0),
            f=Curve.zero(),
            g=g,
            h1=boundary(a),
            h2=boundary(b),
            nonlinearity=math.sin,
            exact=exact,
            exact_dx=exact_dx,
        )
    raise ValueError(f"unknown builtin problem {example_id!r}")


# --------------------------------------------------------------------------
# error reporting
# --------------------------------------------------------------------------

class ErrorRow(NamedTuple):
    """One error-table row: its fields, in order, are the CSV columns."""

    x: float
    t: float
    exact: float
    approx: float
    abs_err: float
    rel_err: float


@dataclass(frozen=True)
class ErrorReport:
    rows: tuple[ErrorRow, ...]

    @property
    def max_abs_error(self) -> float:
        """Largest absolute error; NaN if any row's is NaN, 0 without rows."""
        return float(np.max([r.abs_err for r in self.rows])) if self.rows else 0.0


def error_table(sol: solver.Solution, eval_points) -> ErrorReport:
    """Exact/approximate comparison rows at the given (x, t) points.

    Relative error is 0 when the point is exact and infinity when the exact
    value is zero but the approximation is not (matching the usual
    convention of printed error tables).  Without an exact solution the
    exact, abs_err and rel_err columns are NaN.  The report's one aggregate,
    ``max_abs_error``, reads abs_err alone: it is NaN as soon as one row's
    abs_err is NaN and 0.0 without rows; no aggregate reads rel_err.
    """
    # bound once per call; solver.evaluate is read here, not at import, so a
    # wrapper installed on the module is what runs
    evaluate, exact = solver.evaluate, sol.hp.problem.exact
    new_row = tuple.__new__  # an ErrorRow from its fields, without NamedTuple's __new__
    rows = []
    for x, t in eval_points:
        approx = evaluate(sol, x, t)
        ex = float(exact(x, t)) if exact is not None else math.nan
        abs_err = abs(ex - approx)
        if abs_err == 0.0:
            rel = 0.0
        elif ex == 0.0:
            rel = math.inf
        else:
            rel = abs_err / abs(ex)
        rows.append(new_row(ErrorRow, (float(x), float(t), ex, float(approx), abs_err, rel)))
    return ErrorReport(tuple(rows))
