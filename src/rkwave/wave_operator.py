"""The canonical wave operator and its representer basis.

L = alpha d^2/dt^2 - gamma d^2/dx^2 acts on the solution space W over the
unit square; alpha = gamma = 1 is the operator on the original domain, other
values absorb affine rescaling of a general rectangle.

For a collocation point (x_i, t_i) the representer is L applied to the
W-kernel in its parameter slot,

    Psi_i(x,t) = alpha R(x, x_i) d2r/ds2(t, t_i) - gamma d2R/dy2(x, x_i) r(t, t_i),

and inner products against Psi_i sample L: <u, Psi_i>_W = (Lu)(x_i, t_i).
Applying that identity to Psi_j itself gives the closed-form Gram entry

    A_ij = <Psi_j, Psi_i>_W = (L Psi_j)(x_i, t_i),

a four-term combination of kernel derivatives of order at most 2 per slot,
which stays below the C^4 diagonal-smoothness limit of the order-3 kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import PiecewiseKernel, eval_kernel, eval_kernel_grid


@dataclass(frozen=True)
class WaveOperator:
    """Coefficients of alpha d2/dt2 - gamma d2/dx2 on the canonical square."""

    alpha: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 0 and self.gamma > 0):
            raise ValueError("operator coefficients must be positive")


@dataclass(frozen=True)
class RepresenterBasis:
    """Representer functions Psi_i attached to a list of collocation points."""

    operator: WaveOperator
    space_kernel: PiecewiseKernel
    time_kernel: PiecewiseKernel
    points: tuple[tuple[float, float], ...]
    # point coordinates as read-only arrays, built once from ``points``
    xs: np.ndarray = field(init=False, repr=False, compare=False)
    ts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Gram assembly takes two derivatives per slot; only order-3 kernels
        # keep that below the diagonal-smoothness limit 2m-2.
        if self.space_kernel.order != 3 or self.time_kernel.order != 3:
            raise ValueError("representer basis requires order-3 kernels in both factors")
        pts = tuple((float(x), float(t)) for x, t in self.points)
        object.__setattr__(self, "points", pts)
        for name, coords in (("xs", [x for x, _ in pts]), ("ts", [t for _, t in pts])):
            arr = np.array(coords, dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.points)


def psi_eval(basis: RepresenterBasis, i: int, x: float, t: float, dx: int = 0) -> float:
    """Evaluate d^dx/dx^dx Psi_i at (x, t) from analytic kernel derivatives."""
    if dx not in (0, 1):
        raise ValueError("dx must be 0 or 1")
    xi, ti = basis.points[i]
    op = basis.operator
    return (op.alpha * eval_kernel(basis.space_kernel, x, xi, dx, 0)
            * eval_kernel(basis.time_kernel, t, ti, 0, 2)
            - op.gamma * eval_kernel(basis.space_kernel, x, xi, dx, 2)
            * eval_kernel(basis.time_kernel, t, ti, 0, 0))


def psi_section(basis: RepresenterBasis, i: int):
    """Psi_i as a callable f(x, t, dx, dt) with mixed analytic derivatives.

    Vectorized over broadcastable arrays; suitable for the 2-D verification
    inner products.  Off the lines x = x_i, t = t_i any orders are fine; on
    them the caller must stay within the kernels' diagonal limits.
    """
    xi, ti = basis.points[i]
    op = basis.operator
    rk = basis.space_kernel
    tk = basis.time_kernel

    def section(x, t, dx: int = 0, dt: int = 0):
        return (op.alpha * eval_kernel_grid(rk, x, xi, dx, 0)
                * eval_kernel_grid(tk, t, ti, dt, 2)
                - op.gamma * eval_kernel_grid(rk, x, xi, dx, 2)
                * eval_kernel_grid(tk, t, ti, dt, 0))

    return section


def psi_values(basis: RepresenterBasis, x, t, dx: int = 0) -> np.ndarray:
    """Matrix of d^dx Psi_k at evaluation points: shape (npoints, nbasis).

    ``x`` and ``t`` are flat arrays (or scalars) of evaluation coordinates.
    """
    op = basis.operator
    xa = np.atleast_1d(np.asarray(x, dtype=float))[:, None]
    ta = np.atleast_1d(np.asarray(t, dtype=float))[:, None]
    xk = basis.xs[None, :]
    tk = basis.ts[None, :]
    vals = (op.alpha * eval_kernel_grid(basis.space_kernel, xa, xk, dx, 0)
            * eval_kernel_grid(basis.time_kernel, ta, tk, 0, 2)
            - op.gamma * eval_kernel_grid(basis.space_kernel, xa, xk, dx, 2)
            * eval_kernel_grid(basis.time_kernel, ta, tk, 0, 0))
    return vals


def gram_entry(basis: RepresenterBasis, i: int, j: int) -> float:
    """Closed-form Gram entry A_ij = <Psi_j, Psi_i>_W = (L Psi_j)(x_i, t_i)."""
    op = basis.operator
    xi, ti = basis.points[i]
    xj, tj = basis.points[j]
    rk = basis.space_kernel
    tk = basis.time_kernel
    a, g = op.alpha, op.gamma
    return (a * a * eval_kernel(rk, xi, xj, 0, 0) * eval_kernel(tk, ti, tj, 2, 2)
            - a * g * eval_kernel(rk, xi, xj, 2, 0) * eval_kernel(tk, ti, tj, 0, 2)
            - a * g * eval_kernel(rk, xi, xj, 0, 2) * eval_kernel(tk, ti, tj, 2, 0)
            + g * g * eval_kernel(rk, xi, xj, 2, 2) * eval_kernel(tk, ti, tj, 0, 0))


def gram_matrix(basis: RepresenterBasis) -> np.ndarray:
    """Full Gram matrix, assembled from vectorized kernel evaluations.

    Entries are independent; this dense assembly writes disjoint slots and
    is safe to split across workers if ever needed.
    """
    op = basis.operator
    xi = basis.xs[:, None]
    xj = basis.xs[None, :]
    ti = basis.ts[:, None]
    tj = basis.ts[None, :]
    rk = basis.space_kernel
    tk = basis.time_kernel
    a, g = op.alpha, op.gamma
    r00 = eval_kernel_grid(rk, xi, xj, 0, 0)
    r20 = eval_kernel_grid(rk, xi, xj, 2, 0)
    r02 = eval_kernel_grid(rk, xi, xj, 0, 2)
    r22 = eval_kernel_grid(rk, xi, xj, 2, 2)
    t00 = eval_kernel_grid(tk, ti, tj, 0, 0)
    t20 = eval_kernel_grid(tk, ti, tj, 2, 0)
    t02 = eval_kernel_grid(tk, ti, tj, 0, 2)
    t22 = eval_kernel_grid(tk, ti, tj, 2, 2)
    return (a * a * r00 * t22
            - a * g * (r20 * t02 + r02 * t20)
            + g * g * r22 * t00)


def apply_L_numeric(op: WaveOperator, f, x: float, t: float, h: float) -> float:
    """Central second-difference application of L to a bivariate function.

    Consistency check for tests: O(h^2) accurate for C^4 integrands.  The
    caller keeps (x, t) at least 2h away from the boundary of f's domain.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    dtt = (f(x, t + h) - 2.0 * f(x, t) + f(x, t - h)) / (h * h)
    dxx = (f(x + h, t) - 2.0 * f(x, t) + f(x - h, t)) / (h * h)
    return op.alpha * dtt - op.gamma * dxx
