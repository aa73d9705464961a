"""Univariate reproducing kernels on the unit interval.

Four Sobolev-type spaces are supported, identified by string ids:

    R_spatial    order 3, members satisfy u(0) = u(1) = 0
    r_temporal   order 3, members satisfy u(0) = u'(0) = 0
    Q_spatial    order 1, unconstrained
    q_temporal   order 1, unconstrained (same kernel as Q_spatial)

Each space carries an inner product

    <u, g> = sum_k u^(dk)(ek) g^(dk)(ek)  +  int_0^1 u^(m) g^(m) dx

with a short list of boundary terms (``discrete_terms``) and an integral of
order m.  Its reproducing kernel K(x, y) is a piecewise bivariate polynomial
of degree 2m-1 in each variable, with distinct branches on x <= y and x > y.
Branches are stored as dense 6x6 monomial coefficient matrices (entry [i, j]
multiplies x^i y^j; order-1 kernels only populate the leading 2x2 block),
which makes differentiation in either slot exact.

Every kernel is derived, not tabulated: ``derive_kernel_oracle`` solves the
characterizing linear system read off from integration by parts (essential
constraints at the interval ends, natural boundary conditions, C^(2m-2)
continuity across the diagonal and a unit jump in the (2m-1)-th derivative)
exactly in rational arithmetic and rounds each coefficient to a double once;
``closed_form_kernel`` caches that derivation per space id.  The paper's
printed coefficient tables serve only as a test reference; one of their
entries is misprinted (R_spatial lower[4][5], printed 1/2938, exactly 1/2928).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyval2d

from .errors import DiagonalDerivativeUndefined, SingularSystem
from .quadrature import panel_rule

SPACE_IDS = ("R_spatial", "r_temporal", "Q_spatial", "q_temporal")


@dataclass(frozen=True)
class SpaceSpec:
    """Description of one reproducing kernel space on [0, 1].

    essential_constraints lists (derivative order, endpoint) pairs that
    members must annihilate; discrete_terms lists the boundary terms of the
    inner product, whose integral term is of derivative order ``order``.
    """

    order: int
    essential_constraints: tuple[tuple[int, int], ...]
    discrete_terms: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PiecewiseKernel:
    """Bivariate piecewise-polynomial kernel K(x, y).

    ``lower`` holds the branch for x <= y, ``upper`` for x > y, both as 6x6
    monomial coefficient matrices.  ``order`` is the Sobolev order m; the
    kernel is C^(2m-2) across the diagonal.
    """

    lower: np.ndarray
    upper: np.ndarray
    order: int

    def __post_init__(self):
        for name in ("lower", "upper"):
            mat = np.array(getattr(self, name), dtype=float)
            if mat.shape != (6, 6):
                raise ValueError(f"{name} branch must be 6x6")
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)


_SPECS = {
    "R_spatial": SpaceSpec(3, ((0, 0), (0, 1)), ((0, 0), (1, 0), (1, 1))),
    "r_temporal": SpaceSpec(3, ((0, 0), (1, 0)), ((0, 0), (1, 0), (2, 0))),
    "Q_spatial": SpaceSpec(1, (), ((0, 0),)),
    "q_temporal": SpaceSpec(1, (), ((0, 0),)),
}


def space_spec(space_id: str) -> SpaceSpec:
    """Return the SpaceSpec for one of the four supported space ids."""
    try:
        return _SPECS[space_id]
    except KeyError:
        raise ValueError(f"unknown space id {space_id!r}; expected one of {SPACE_IDS}") from None


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

# _FALLING[d, i] = i (i-1) ... (i-d+1), the monomial derivative factor, for
# the 6x6 branch matrices
_FALLING = np.array([[math.perm(i, d) for i in range(6)] for d in range(6)], dtype=float)


def _deriv_matrix(mat: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Coefficient matrix of d^dx/dx^dx d^dy/dy^dy applied to ``mat``."""
    n = mat.shape[0]
    if dx >= n or dy >= n:
        return np.zeros((1, 1))
    return mat[dx:, dy:] * _FALLING[dx, dx:, None] * _FALLING[dy, dy:]


def eval_kernel(k: PiecewiseKernel, x: float, y: float, dx: int = 0, dy: int = 0) -> float:
    """Evaluate d^dx_x d^dy_y K(x, y) analytically.

    Branch selection is lower for x <= y, upper for x > y.  On the diagonal
    only total orders up to 2m-2 are continuous; higher orders raise
    DiagonalDerivativeUndefined.
    """
    if dx < 0 or dy < 0:
        raise ValueError("derivative orders must be nonnegative")
    if x == y and dx + dy > 2 * k.order - 2:
        raise DiagonalDerivativeUndefined(
            f"order ({dx},{dy}) kernel derivative is discontinuous at x = y = {x}"
        )
    branch = k.lower if x <= y else k.upper
    return float(polyval2d(x, y, _deriv_matrix(branch, dx, dy)))


def _branch_values(mats, x, y, dx: int, dy: int) -> list:
    """Branch polynomials at broadcastable x, y as Vandermonde products.

    Each branch C gives sum_ij C[i,j] x^i y^j: Horner in x first, for every
    column at once, then a contraction with the powers V(y)[..., j] = y^j.
    A column x against a row y makes that contraction one matrix product.
    Horner in x keeps a branch exactly zero at x = 1 where its polished
    column sums vanish (see ``_polish_columns_at_one``).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    c = np.concatenate([_deriv_matrix(m, dx, dy) for m in mats], axis=1)
    xe = x[..., None]
    cx = np.empty(x.shape + c.shape[1:])
    cx[...] = c[-1]
    for row in c[-2::-1]:
        cx *= xe
        cx += row
    parts = np.split(cx, len(mats), axis=-1)
    vy = y[..., None] ** np.arange(parts[0].shape[-1])
    if x.ndim == 2 and y.ndim == 2 and x.shape[1] == 1 and y.shape[0] == 1:
        return [part[:, 0] @ vy[0].T for part in parts]
    return [np.einsum("...j,...j->...", part, vy) for part in parts]


def eval_kernel_branch(k: PiecewiseKernel, branch: str, x, y, dx: int = 0, dy: int = 0):
    """Evaluate one branch polynomial regardless of the position of (x, y).

    Used for diagonal-continuity and jump diagnostics; no diagonal guard.
    """
    mat = {"lower": k.lower, "upper": k.upper}[branch]
    return _branch_values([mat], x, y, dx, dy)[0]


def eval_kernel_grid(k: PiecewiseKernel, x, y, dx: int = 0, dy: int = 0):
    """Vectorized evaluation over broadcastable arrays.

    Callers must keep dx + dy <= 2m - 2 wherever x == y exactly; this fast
    path does not re-check the diagonal rule.
    """
    low, up = _branch_values([k.lower, k.upper], x, y, dx, dy)
    return np.where(np.less_equal(x, y), low, up)


def kernel_section(k: PiecewiseKernel, y: float):
    """The section K(., y) as a callable f(x, order) with analytic derivatives."""

    def section(x, order: int = 0):
        return eval_kernel_grid(k, x, y, order, 0)

    return section


# --------------------------------------------------------------------------
# inner product (verification quadrature; never in the solve path)
# --------------------------------------------------------------------------

def inner_product_numeric(spec: SpaceSpec, u, g, split_at=()) -> float:
    """Numeric inner product of the space described by ``spec``.

    ``u`` and ``g`` are callables f(x, order) returning the order-th
    derivative, vectorized over x.  ``split_at`` lists interior kinks of the
    integrand (e.g. the parameter of a kernel section) where the composite
    Gauss-Legendre rule must break panels.
    """
    total = 0.0
    for d, e in spec.discrete_terms:
        xe = float(e)
        total += float(u(xe, d)) * float(g(xe, d))
    x, w = panel_rule(split_at=split_at)
    total += float(np.dot(w, np.asarray(u(x, spec.order)) * np.asarray(g(x, spec.order))))
    return total


# --------------------------------------------------------------------------
# derivation
# --------------------------------------------------------------------------

def _polish_columns_at_one(mat: np.ndarray) -> None:
    # Drive the Horner-order column sums (the branch value at x = 1) to the
    # rounding floor.  The exact coefficient columns sum to zero; stored
    # doubles leave ~1e-17 residues that downstream series with large
    # coefficients would amplify past boundary-trace tolerances.
    for j in range(mat.shape[1]):
        for _ in range(3):
            s = 0.0
            for i in range(mat.shape[0] - 1, -1, -1):
                s += mat[i, j]
            mat[-1, j] -= s


def _eliminate(row: dict, rhs: Fraction, pivot: int, pivot_row: list) -> Fraction:
    """Subtract row[pivot] times ``pivot_row`` ([row, rhs]) from ``row`` in place.

    Returns the right-hand side reduced the same way.
    """
    f = row[pivot]
    prow, prhs = pivot_row
    for k, v in prow.items():
        value = row.get(k, 0) - f * v
        if value:
            row[k] = value
        else:
            row.pop(k, None)
    return rhs - f * prhs


def _exact_coefficients(spec: SpaceSpec) -> list[list[Fraction]]:
    """Exact coefficients C[i][j] of the kernel's lower branch x <= y.

    Writing K as sum_{ij} C[i,j] x^i y^j on x <= y with 0 <= i, j <= 2m-1,
    and as its mirror image sum_{ij} C[j,i] x^i y^j on x > y (the kernel is
    symmetric), each condition below must hold for every parameter y, i.e.
    per power of y; collecting powers turns the lot into one
    overdetermined-but-consistent linear system in the entries of C:

    (a) essential constraints of the space at the argument-slot endpoints,
    (b) natural boundary conditions: in

            int_0^1 u^(m) K^(m) dx
              = sum_{r=0}^{m-1} (-1)^r [u^(m-1-r) K^(m+r)]_0^1 + jump terms

        the total coefficient of every unconstrained boundary value
        u^(d)(e) in <u, K(., y)> must vanish,
    (c) C^(2m-2) continuity across x = y,
    (d) unit jump of the (2m-1)-th x-derivative across the diagonal
        (lower minus upper), which is what reproduces point evaluation.

    Every coefficient of the system is an integer, so Gauss-Jordan
    elimination over sparse rows of Fractions solves it exactly.  Raises
    SingularSystem when the system is rank deficient or inconsistent, which
    signals a wrong SpaceSpec.
    """
    m = spec.order
    if m < 1:
        raise ValueError("order must be >= 1")
    n = 2 * m  # coefficients per branch and per variable
    essential = set(spec.essential_constraints)
    discrete = set(spec.discrete_terms)
    rows = []  # (coefficients by unknown, right-hand side)

    def add(row: dict, branch: int, i: int, j: int, coef: int) -> None:
        # adds coef times the x^i y^j coefficient of the branch; the upper
        # branch (1) holds C transposed
        k = i * n + j if branch == 0 else j * n + i
        row[k] = row.get(k, 0) + coef

    def endpoint(row: dict, branch: int, j: int, order: int, e: int, sign: int) -> None:
        # adds sign * K^(order)(e) restricted to the y^j column
        for i in range(order, n):
            add(row, branch, i, j, sign * math.perm(i, order) * e ** (i - order))

    # (a) essential constraints; the endpoint x = e lies on branch e
    for d, e in spec.essential_constraints:
        for j in range(n):
            row = {}
            endpoint(row, e, j, d, e, 1)
            rows.append((row, 0))

    # (b) natural boundary conditions for every unconstrained u^(d)(e)
    for d in range(m):
        for e in (0, 1):
            if (d, e) in essential:
                continue
            sign = (1 if e == 1 else -1) * (-1) ** (m - 1 - d)
            for j in range(n):
                row = {}
                if (d, e) in discrete:
                    endpoint(row, e, j, d, e, 1)
                endpoint(row, e, j, 2 * m - 1 - d, e, sign)
                rows.append((row, 0))

    # (c) continuity of orders 0 .. 2m-2 along x = y: collect powers of y
    for d in range(2 * m - 1):
        for p in range((2 * m - 1 - d) + (2 * m - 1) + 1):
            row = {}
            for i in range(d, n):
                j = p - (i - d)
                if 0 <= j < n:
                    add(row, 0, i, j, math.perm(i, d))
                    add(row, 1, i, j, -math.perm(i, d))
            rows.append((row, 0))

    # (d) unit jump of the (2m-1)-th derivative, lower minus upper
    top = math.factorial(n - 1)
    for j in range(n):
        row = {}
        add(row, 0, n - 1, j, top)
        add(row, 1, n - 1, j, -top)
        rows.append((row, 1 if j == 0 else 0))

    # Gauss-Jordan: pivot rows stay fully reduced, so reducing a new row by
    # them leaves it free of every pivot unknown.  Taking the sparsest rows
    # first and pivoting on the highest power keeps the fill-in small.
    pivots = {}
    for coefs, rhs in sorted(rows, key=lambda r: len(r[0])):
        row = {k: Fraction(v) for k, v in coefs.items() if v}
        rhs = Fraction(rhs)
        for k in [k for k in row if k in pivots]:
            rhs = _eliminate(row, rhs, k, pivots[k])
        if not row:
            if rhs:
                raise SingularSystem("characterizing system is inconsistent; "
                                     "check the space description")
            continue
        k = max(row)
        scale = row[k]
        new = [{kk: v / scale for kk, v in row.items()}, rhs / scale]
        for prow in pivots.values():
            if k in prow[0]:
                prow[1] = _eliminate(prow[0], prow[1], k, new)
        pivots[k] = new
    if len(pivots) < n * n:
        raise SingularSystem(
            f"characterizing system has rank {len(pivots)} < {n * n}; "
            "check the space description"
        )
    return [[pivots[i * n + j][1] for j in range(n)] for i in range(n)]


def derive_kernel_oracle(spec: SpaceSpec) -> PiecewiseKernel:
    """Derive the reproducing kernel from its characterizing conditions.

    The exact rational coefficients (``_exact_coefficients``) are rounded to
    doubles once.  Where the space pins u(1) = 0, the last row of the upper
    branch is then polished so that the branch is exactly zero at x = 1; the
    lower branch is the transpose, so the kernel is exactly symmetric.
    """
    c = np.array(_exact_coefficients(spec), dtype=float)
    n = c.shape[0]
    upper = np.zeros((6, 6))
    upper[:n, :n] = c.T
    if (0, 1) in spec.essential_constraints:
        _polish_columns_at_one(upper)
    return PiecewiseKernel(upper.T.copy(), upper, spec.order)


@lru_cache(maxsize=None)
def closed_form_kernel(space_id: str) -> PiecewiseKernel:
    """The kernel of ``space_id``, derived once per process."""
    return derive_kernel_oracle(space_spec(space_id))
