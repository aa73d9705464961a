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

The collocation points form a tensor grid and every term is a space factor
times a time factor, so A and the series values at the points are built
from 1-D kernel matrices on the grid coordinates, never an N x N one.
Because the kernels are piecewise polynomials, a series sum_k c_k Psi_k is
one bivariate polynomial on each cell of the grid; ``series_table``
tabulates it once so that ``SeriesTable.value`` costs the same at any N.
Pointwise references for Psi_i, A_ij and L (kernel sections, quadrature
inner products, finite differences) are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .kernels import PiecewiseKernel, _deriv_matrix, eval_kernel_grid


@dataclass(frozen=True)
class WaveOperator:
    """Coefficients of alpha d2/dt2 - gamma d2/dx2 on the canonical square."""

    alpha: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 0 and self.gamma > 0):
            raise ValueError("operator coefficients must be positive")


def grid_coordinates(name: str, values) -> tuple[float, ...]:
    """``values`` as floats; ValueError unless nonempty and strictly increasing."""
    coords = tuple(float(v) for v in values)
    if not coords or not all(lo < hi for lo, hi in zip(coords, coords[1:])):
        raise ValueError(f"{name} must be nonempty and strictly increasing, got {coords}")
    return coords


@dataclass(frozen=True)
class RepresenterBasis:
    """Representer functions Psi_i on the tensor grid of collocation points.

    Point i = j nx + k is (xis[k], taus[j]), listed in that order by
    ``points`` and, as read-only arrays, by ``xs`` and ``ts``.
    """

    operator: WaveOperator
    space_kernel: PiecewiseKernel
    time_kernel: PiecewiseKernel
    xis: tuple[float, ...]
    taus: tuple[float, ...]
    points: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)
    xs: np.ndarray = field(init=False, repr=False, compare=False)
    ts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Gram assembly takes two derivatives per slot; only order-3 kernels
        # keep that below the diagonal-smoothness limit 2m-2.
        if self.space_kernel.order != 3 or self.time_kernel.order != 3:
            raise ValueError("representer basis requires order-3 kernels in both factors")
        xis, taus = grid_coordinates("xis", self.xis), grid_coordinates("taus", self.taus)
        xs, ts = np.tile(xis, len(taus)), np.repeat(taus, len(xis))
        for arr in (xs, ts):
            arr.setflags(write=False)
        for name, value in dict(xis=xis, taus=taus, xs=xs, ts=ts,
                                points=tuple(zip(xs.tolist(), ts.tolist()))).items():
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def kernel_matrices(self) -> tuple[dict, dict]:
        """(R, T): R[p, q][k, l] = d^p_x d^q_y R(xis[k], xis[l]), p, q in {0, 2}; T on taus."""
        return tuple({(p, q): eval_kernel_grid(k, c, c, p, q) for p in (0, 2) for q in (0, 2)}
                     for k, c in ((self.space_kernel, self.xis), (self.time_kernel, self.taus)))


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

    ``xs`` and ``ts`` are the grid coordinates, ascending.  A point
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

    Each quadrant is its own cumulative sum, so a quadrant with no basis
    points is exactly zero: no cancellation reaches the dead edges.
    """
    xs, ts = np.array(basis.xis), np.array(basis.taus)
    c = np.reshape(weights, (len(ts), len(xs)))
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
    return SeriesTable(basis.xis, basis.taus, blocks, columns)


def gram_matrix(basis: RepresenterBasis) -> np.ndarray:
    """The Gram matrix A_ij = (L Psi_j)(x_i, t_i), each term a Kronecker product on the grid,

        A = a^2 T22 (x) R00 - a g (T02 (x) R20 + T20 (x) R02) + g^2 T00 (x) R22.

    The terms are written in that order into one (nt, nx, nt, nx) buffer,
    with one scratch array, so assembly holds two N x N arrays at a time.
    """
    r, t = basis.kernel_matrices
    a, g = basis.operator.alpha, basis.operator.gamma
    nt, nx = len(basis.taus), len(basis.xis)
    out, term = np.empty((nt, nx, nt, nx)), np.empty((nt, nx, nt, nx))

    def kron(tm, rm, dest):  # dest[j, i, l, k] = tm[j, l] rm[i, k], as np.kron
        np.multiply(tm[:, None, :, None], rm[None, :, None, :], out=dest)

    kron(t[0, 2], r[2, 0], out)
    kron(t[2, 0], r[0, 2], term)
    out += term
    out *= a * g
    kron(t[2, 2], a * a * r[0, 0], term)
    np.subtract(term, out, out=out)
    kron(t[0, 0], g * g * r[2, 2], term)
    out += term
    return out.reshape(nt * nx, nt * nx)


def collocation_values(basis: RepresenterBasis, weights) -> np.ndarray:
    """sum_k weights[k] Psi_k at the collocation points, in the order of ``basis.points``.

    With the weights as an nt x nx matrix C that is a T02 C R00^T - g T00 C R02^T.
    """
    r, t = basis.kernel_matrices
    op = basis.operator
    c = np.reshape(weights, (len(basis.taus), len(basis.xis)))
    return (op.alpha * t[0, 2] @ c @ r[0, 0].T - op.gamma * t[0, 0] @ c @ r[0, 2].T).ravel()
