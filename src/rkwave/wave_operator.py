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

Because the kernels are piecewise polynomials, a series sum_k c_k Psi_k is
one bivariate polynomial on each cell of the grid of distinct collocation
coordinates; ``series_table`` tabulates it once so that ``SeriesTable.value``
costs the same at any basis size.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .kernels import PiecewiseKernel, _deriv_matrix, eval_kernel, eval_kernel_grid


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


def _sums_below(a: np.ndarray, axis: int) -> np.ndarray:
    """out[k] = sum of a[m] over m < k along ``axis``, k = 0..n; out[0] is exactly 0."""
    zero = np.zeros_like(np.take(a, [0], axis=axis))
    return np.concatenate([zero, np.cumsum(a, axis=axis)], axis=axis)


def _sums_from(a: np.ndarray, axis: int) -> np.ndarray:
    """out[k] = sum of a[m] over m >= k along ``axis``, k = 0..n; out[n] is exactly 0."""
    zero = np.zeros_like(np.take(a, [0], axis=axis))
    tail = np.flip(np.cumsum(np.flip(a, axis), axis=axis), axis)
    return np.concatenate([tail, zero], axis=axis)


# which of the 24 branch-polynomial columns of a SeriesTable take xi (space)
# rather than tau (time) as their evaluation coordinate
_SPACE_COLUMNS = np.repeat([False, True], 12)


@dataclass(frozen=True)
class SeriesTable:
    """The series v = sum_k c_k Psi_k tabulated per cell of the coordinate grid.

    ``xs`` and ``ts`` are the distinct basis coordinates, ascending.  A point
    (xi, tau) lies in cell (b, a) with b = bisect_left(ts, tau) and
    a = bisect_left(xs, xi), so basis point (ts[j], xs[i]) sits on the lower
    kernel branch in time iff j >= b and in space iff i >= a, exactly the
    x <= y rule of ``eval_kernel_grid``.  Writing a kernel branch as
    sum_pq C[p, q] x^p y^q, the representer's parameter derivatives fall on
    the powers of y alone: with V(y) = (y^q) and V''(y) = (q (q-1) y^(q-2))
    over q = 0..5, and g_s(tau), h_r(xi) the Horner values of time branch s
    and space branch r in those powers,

        Psi_ji(xi, tau) = g_s(tau)^T [alpha V''(ts[j]) V(xs[i])^T
                                      - gamma V(ts[j]) V''(xs[i])^T] h_r(xi)

    for the branches (s, r) that basis point (j, i) uses.  ``blocks[b, a]``
    holds in its 6x6 quadrant (s, r) the bracket summed with the weights
    c_ji over the basis points using that pair, so with g = (g_upper,
    g_lower) and h = (h_upper, h_lower) the series is v = g^T blocks[b, a] h,
    and dv/dxi takes h from the xi-differentiated space branches.  The
    table holds (len(xs) + 1)(len(ts) + 1) 144 doubles and serves both
    derivative orders.
    """

    xs: tuple[float, ...]
    ts: tuple[float, ...]
    blocks: np.ndarray = field(repr=False)
    # columns[dx]: 6 x 24 branch coefficients, row p multiplying the p-th
    # power of the evaluation coordinate: the (upper, lower) time branches
    # in tau, then the dx-th xi-derivative of the space branches in xi
    columns: np.ndarray = field(repr=False)

    def value(self, xi: float, tau: float, dx: int = 0) -> float:
        """d^dx/dxi^dx of the series at a canonical point."""
        if dx not in (0, 1):
            raise ValueError("dx must be 0 or 1")
        k = self.blocks[bisect_left(self.ts, tau), bisect_left(self.xs, xi)]
        z = np.where(_SPACE_COLUMNS, xi, tau)
        coef = self.columns[dx]
        # Horner in the evaluation coordinate, as in eval_kernel_grid, keeps
        # the branches exactly zero at xi = 0, xi = 1 and tau = 0
        acc = coef[5] * z + coef[4]
        for row in coef[3::-1]:
            acc *= z
            acc += row
        return float(acc[:12] @ k @ acc[12:])


def series_table(basis: RepresenterBasis, weights) -> SeriesTable:
    """Tabulate sum_k weights[k] Psi_k for ``SeriesTable.value``.

    The weights are scattered onto the grid of distinct coordinates (zero
    where the grid has no basis point), so any distinct point set works.
    Each quadrant is its own cumulative sum, so a quadrant with no basis
    points is exactly zero: no total-minus-partial cancellation reaches the
    dead edges.
    """
    xs, ix = np.unique(basis.xs, return_inverse=True)
    ts, it = np.unique(basis.ts, return_inverse=True)
    c = np.zeros((len(ts), len(xs)))
    c[it, ix] = weights
    q = np.arange(6)

    def powers(y):  # V(y) and V''(y), one row per coordinate
        return y[:, None] ** q, q * (q - 1) * y[:, None] ** np.maximum(q - 2, 0)

    (vt, vt2), (vx, vx2) = powers(ts), powers(xs)
    op = basis.operator
    terms = c[:, :, None, None] * (op.alpha * vt2[:, None, :, None] * vx[None, :, None, :]
                                   - op.gamma * vt[:, None, :, None] * vx2[None, :, None, :])
    blocks = np.empty((len(ts) + 1, len(xs) + 1, 12, 12))
    halves = ((slice(0, 6), _sums_below), (slice(6, 12), _sums_from))  # upper, lower
    for rows, t_sums in halves:
        for cols, x_sums in halves:
            blocks[:, :, rows, cols] = t_sums(x_sums(terms, 1), 0)
    rk, tk = basis.space_kernel, basis.time_kernel
    columns = np.zeros((2, 6, 24))
    columns[:, :, :6], columns[:, :, 6:12] = tk.upper, tk.lower
    for dx in (0, 1):
        columns[dx, :6 - dx, 12:] = np.hstack([_deriv_matrix(m, dx, 0)
                                              for m in (rk.upper, rk.lower)])
    return SeriesTable(tuple(xs.tolist()), tuple(ts.tolist()), blocks, columns)


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
