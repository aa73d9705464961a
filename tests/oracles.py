"""Test-side references: one for each quantity the package computes.

Every reference here is built from numpy's ``polyval2d``/``polyder`` on a
kernel's stored branch matrices (``k.lower``, ``k.upper``), not from the
package's Horner evaluation, so it is independent of the code it checks:

    kernel / branch     K and its derivatives, with the diagonal guard
    psi_section         the representer Psi_i, any derivative orders
    gram_entry          A_ij = (L Psi_j)(x_i, t_i) from the Psi section
    inner_product(_2d)  Gauss-Legendre panel quadrature of the space inner
                        products, with the reproducing-kernel sections
    apply_L             L by central second differences

and, as bit-level references for the point evaluation, the formulas it
replaced in their order of operations:

    series_value        the series by a loop over the cell's rows of
                        ``SeriesTable.poly``, converted afresh per call
    lifting             the lifting w, w_x, w_tt and w_xx with rho and sigma as
                        functions
    evaluate            u or du/dx as the rectangle map, series_value and lifting

The image space W_hat of the paper uses order-1 factors that the solve never
needs; their specs live here and are derived by ``derive_kernel_oracle``.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval2d

from rkwave.kernels import SpaceSpec, closed_form_kernel, derive_kernel_oracle, space_spec

# the unconstrained order-1 factors of W_hat; both have the kernel 1 + min(x, y)
ORDER1_SPECS = {
    "Q_spatial": SpaceSpec(1, (), ((0, 0),)),
    "q_temporal": SpaceSpec(1, (), ((0, 0),)),
}
SPACE_IDS = ("R_spatial", "r_temporal", "Q_spatial", "q_temporal")


def spec_of(space_id: str) -> SpaceSpec:
    return ORDER1_SPECS.get(space_id) or space_spec(space_id)


@lru_cache(maxsize=None)
def kernel_of(space_id: str):
    if space_id in ORDER1_SPECS:
        return derive_kernel_oracle(ORDER1_SPECS[space_id])
    return closed_form_kernel(space_id)


# --------------------------------------------------------------------------
# kernels and representers
# --------------------------------------------------------------------------

class DiagonalDerivativeUndefined(ValueError):
    """A kernel derivative was requested where it is discontinuous, on x = y."""


def branch(k, name: str, x, y, dx: int = 0, dy: int = 0):
    """d^dx_x d^dy_y of branch ``name`` ('lower' or 'upper') at broadcastable x, y.

    Evaluated wherever (x, y) lies, without a diagonal guard.
    """
    c = polyder(polyder(getattr(k, name), dx, axis=0), dy, axis=1)
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    return polyval2d(x, y, c)


def kernel(k, x, y, dx: int = 0, dy: int = 0):
    """d^dx_x d^dy_y K(x, y) at broadcastable x, y; the lower branch where x <= y.

    Only derivative orders dx + dy <= 2m - 2 are continuous across the
    diagonal; a higher total at a point with x == y raises
    DiagonalDerivativeUndefined.
    """
    if dx < 0 or dy < 0:
        raise ValueError("derivative orders must be nonnegative")
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    if dx + dy > 2 * k.order - 2 and np.any(x == y):
        raise DiagonalDerivativeUndefined(
            f"order ({dx},{dy}) kernel derivative is discontinuous on x = y")
    out = np.where(x <= y, branch(k, "lower", x, y, dx, dy), branch(k, "upper", x, y, dx, dy))
    return out[()]


def section(k, y: float):
    """The kernel section K(., y) as f(x, order), for ``inner_product``."""
    return lambda x, order=0: kernel(k, x, y, order)


def psi_section(basis, i):
    """Psi_i = alpha R(., x_i) r_ss(., t_i) - gamma R_yy(., x_i) r(., t_i) as f(x, t, dx, dt).

    ``i`` indexes ``basis.points``; an index array or slice gives a row of
    representers that broadcasts against x and t.  On the lines x = x_i and
    t = t_i the kernel guard limits dx and dt to 2.
    """
    xi, ti = np.transpose(basis.points)[:, i]
    op, rk, tk = basis.operator, basis.space_kernel, basis.time_kernel

    def f(x, t, dx: int = 0, dt: int = 0):
        return (op.alpha * kernel(rk, x, xi, dx, 0) * kernel(tk, t, ti, dt, 2)
                - op.gamma * kernel(rk, x, xi, dx, 2) * kernel(tk, t, ti, dt, 0))

    return f


def psi_rows(basis, x, t, dx: int = 0) -> np.ndarray:
    """d^dx Psi_k at the points (x[p], t[p]): shape (points, basis size)."""
    x, t = np.atleast_1d(x), np.atleast_1d(t)
    return psi_section(basis, slice(None))(x[:, None], t[:, None], dx)


def gram_entry(basis, i: int, j: int) -> float:
    """A_ij = <Psi_j, Psi_i>_W = (L Psi_j)(x_i, t_i), L applied analytically."""
    psi = psi_section(basis, j)
    x, t = basis.points[i]
    op = basis.operator
    return float(op.alpha * psi(x, t, 0, 2) - op.gamma * psi(x, t, 2, 0))


def apply_L(op, f, x: float, t: float, h: float) -> float:
    """alpha f_tt - gamma f_xx at (x, t) by central second differences, O(h^2).

    The caller keeps (x, t) at least h away from the boundary of f's domain.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    dtt = (f(x, t + h) - 2.0 * f(x, t) + f(x, t - h)) / (h * h)
    dxx = (f(x + h, t) - 2.0 * f(x, t) + f(x - h, t)) / (h * h)
    return op.alpha * dtt - op.gamma * dxx


# --------------------------------------------------------------------------
# quadrature inner products
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def panel_rule(lo: float = 0.0, hi: float = 1.0, split_at=(), nodes_per_panel: int = 64):
    """Composite Gauss-Legendre rule on [lo, hi], one panel between breakpoints.

    The kernels kink on their diagonal, so integrals split there; 64 nodes
    per panel integrate the degree <= 10 kernel products to rounding.
    Breakpoints outside (lo, hi) are ignored.  Returns (nodes, weights).
    """
    edges = [lo] + sorted({float(s) for s in split_at if lo < float(s) < hi}) + [hi]
    base_x, base_w = _leggauss(nodes_per_panel)
    half = np.diff(edges)[:, None] / 2
    mid = (np.array(edges[:-1])[:, None] + np.array(edges[1:])[:, None]) / 2
    return (mid + half * base_x).ravel(), (half * base_w).ravel()


def inner_product(spec: SpaceSpec, u, g, split_at=()) -> float:
    """<u, g> of the space ``spec``; u, g are f(x, order), vectorized over x.

    ``split_at`` lists interior kinks of the integrand, such as the
    parameter of a kernel section.
    """
    total = sum(float(u(float(e), d)) * float(g(float(e), d)) for d, e in spec.discrete_terms)
    x, w = panel_rule(split_at=split_at)
    return total + float(np.dot(w, np.asarray(u(x, spec.order)) * np.asarray(g(x, spec.order))))


# the factor spaces of the solution space W and the image space W_hat
TENSOR_FACTORS = {"W": ("R_spatial", "r_temporal"), "W_hat": ("Q_spatial", "q_temporal")}


def _factors(space: str):
    if space not in TENSOR_FACTORS:
        raise ValueError(f"unknown tensor space {space!r}; expected 'W' or 'W_hat'")
    return TENSOR_FACTORS[space]


def tensor_section(space: str, param):
    """The product kernel section K(., .; y, s) of W or W_hat as f(x, t, dx, dt)."""
    kx, kt = (kernel_of(sid) for sid in _factors(space))
    y, s = param
    return lambda x, t, dx=0, dt=0: kernel(kx, x, y, dx) * kernel(kt, t, s, dt)


def inner_product_2d(space: str, u, g, split_x=(), split_t=()) -> float:
    """<u, g> of the tensor space 'W' or 'W_hat'; u, g are f(x, t, dx, dt).

    Every boundary term and the integral of the space factor pairs with
    every boundary term and the integral of the time factor.
    """

    def slots(sid, split):
        spec = spec_of(sid)
        # (order, points, weights): a boundary term is a one-point rule
        return ([(d, np.array([float(e)]), np.ones(1)) for d, e in spec.discrete_terms]
                + [(spec.order, *panel_rule(split_at=split))])

    sx, st = _factors(space)
    total = 0.0
    for dx, xn, xw in slots(sx, split_x):
        for dt, tn, tw in slots(st, split_t):
            xg, tg = xn[:, None], tn[None, :]
            values = np.asarray(u(xg, tg, dx, dt)) * np.asarray(g(xg, tg, dx, dt))
            total += float(xw @ values @ tw)
    return total


# --------------------------------------------------------------------------
# point evaluation, bit for bit
# --------------------------------------------------------------------------

def series_value(table, xi: float, tau: float, dx: int = 0) -> float:
    """d^dx/dxi^dx of the series: Horner over the cell's rows of ``table.poly``.

    v in s within each row and then in tau across the rows, dv/dxi in tau
    down each column q >= 1 and then in s with the factors q.
    """
    a = bisect_left(table.xis, xi)
    s = xi - 1.0 if a == len(table.xis) else xi
    rows = table.poly[bisect_left(table.taus, tau), a].tolist()
    if dx == 0:
        out = 0.0
        for c0, c1, c2, c3, c4, c5 in reversed(rows):
            out = out * tau + (c0 + s * (c1 + s * (c2 + s * (c3 + s * (c4 + s * c5)))))
        return float(out)
    d1 = d2 = d3 = d4 = d5 = 0.0
    for _, c1, c2, c3, c4, c5 in reversed(rows):
        d1, d2, d3 = d1 * tau + c1, d2 * tau + c2, d3 * tau + c3
        d4, d5 = d4 * tau + c4, d5 * tau + c5
    return float(d1 + s * (2 * d2 + s * (3 * d3 + s * (4 * d4 + s * 5 * d5))))


def lifting(p):
    """(w, w_x, w_tt, w_xx) of the problem ``p``, with rho and sigma as functions."""
    a, b = p.domain.a, p.domain.b
    width = b - a
    f, g, h1, h2 = p.f, p.g, p.h1, p.h2
    fa, fb = f.val(a), f.val(b)
    ga, gb = g.val(a), g.val(b)

    def rho(t):
        return h1.val(t) - fa - t * ga

    def sigma(t):
        return h2.val(t) - fb - t * gb

    def w(x, t):
        return (f.val(x) + t * g.val(x)
                + (b - x) / width * rho(t) + (x - a) / width * sigma(t))

    def w_x(x, t):
        return f.d1(x) + t * g.d1(x) + (sigma(t) - rho(t)) / width

    def w_tt(x, t):
        return (b - x) / width * h1.d2(t) + (x - a) / width * h2.d2(t)

    def w_xx(x, t):
        return f.d2(x) + t * g.d2(x)

    return w, w_x, w_tt, w_xx


def evaluate(sol, x: float, t: float, dx: int = 0) -> float:
    """u (dx = 0) or du/dx (dx = 1) of a solution at a point of its rectangle."""
    p = sol.hp.problem
    d = p.domain
    xi, tau = (x - d.a) / (d.b - d.a), t / d.T
    w, w_x, _, _ = lifting(p)
    if dx == 0:
        return series_value(sol.table, xi, tau) + w(x, t)
    return series_value(sol.table, xi, tau, 1) * d.dxi_dx + w_x(x, t)
