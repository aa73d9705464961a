"""Univariate reproducing kernels on the unit interval.

The solution space is a product of two order-3 Sobolev-type spaces on
[0, 1], identified by string ids:

    R_spatial    order 3, members satisfy u(0) = u(1) = 0
    r_temporal   order 3, members satisfy u(0) = u'(0) = 0

A space (``SpaceSpec``) carries an inner product

    <u, g> = sum_k u^(dk)(ek) g^(dk)(ek)  +  int_0^1 u^(m) g^(m) dx

with a short list of boundary terms (``discrete_terms``) and an integral of
order m.  Its reproducing kernel K(x, y) is a piecewise bivariate polynomial
of degree 2m-1 in each variable, with distinct branches on x <= y and x > y.
Branches are stored as dense (2m)x(2m) monomial coefficient matrices (entry
[i, j] multiplies x^i y^j; 6x6 at order 3), which makes differentiation in
either slot exact.
``eval_kernel_grid`` evaluates a kernel on a grid of coordinates.

Every kernel is derived, not tabulated: ``_exact_coefficients`` solves its
characterizing conditions exactly in rational arithmetic, each coefficient
is rounded to a double once, and ``closed_form_kernel`` caches that per
space id.  The paper's printed coefficient tables serve only as a test
reference; one of their entries is misprinted (R_spatial lower[4][5],
printed 1/2938, exactly 1/2928).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import SingularSystem


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


@dataclass(frozen=True, eq=False)
class PiecewiseKernel:
    """Bivariate piecewise-polynomial kernel K(x, y).

    ``lower`` holds the branch for x <= y, ``upper`` for x > y, both as
    (2m)x(2m) monomial coefficient matrices.  ``order`` is the Sobolev
    order m; the kernel is C^(2m-2) across the diagonal.
    """

    lower: np.ndarray
    upper: np.ndarray
    order: int

    def __post_init__(self):
        n = 2 * self.order
        for name in ("lower", "upper"):
            mat = np.array(getattr(self, name), dtype=float)
            if mat.shape != (n, n):
                raise ValueError(f"{name} branch must be 2m x 2m = {n}x{n}")
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)


_SPECS = {
    "R_spatial": SpaceSpec(3, ((0, 0), (0, 1)), ((0, 0), (1, 0), (1, 1))),
    "r_temporal": SpaceSpec(3, ((0, 0), (1, 0)), ((0, 0), (1, 0), (2, 0))),
}
SPACE_IDS = tuple(_SPECS)


def space_spec(space_id: str) -> SpaceSpec:
    """Return the SpaceSpec for one of the two supported space ids."""
    try:
        return _SPECS[space_id]
    except KeyError:
        raise ValueError(f"unknown space id {space_id!r}; expected one of {SPACE_IDS}") from None


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def _falling(d: int, n: int) -> np.ndarray:
    """i (i-1) ... (i-d+1) for i = d, ..., n-1: the factors the d-th derivative puts on x^i."""
    return np.array([math.perm(i, d) for i in range(d, n)], dtype=float)


def _deriv_matrix(mat: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Coefficient matrix of d^dx/dx^dx d^dy/dy^dy applied to ``mat``."""
    n = mat.shape[0]
    if dx >= n or dy >= n:
        return np.zeros((1, 1))
    return mat[dx:, dy:] * _falling(dx, n)[:, None] * _falling(dy, n)


def eval_kernel_grid(k: PiecewiseKernel, xs, ys, dx: int = 0, dy: int = 0) -> np.ndarray:
    """The matrix d^dx_x d^dy_y K(xs[i], ys[j]) for 1-D coordinate arrays xs, ys.

    Entry (i, j) takes the lower branch where xs[i] <= ys[j].  Each branch
    C gives sum_ij C[i,j] x^i y^j: Horner in x first, for every column at
    once, then one matrix product with the powers y^j.  Horner in x keeps a
    branch exactly zero at x = 1 where its polished column sums vanish (see
    ``_polish_columns_at_one``).  Callers keep dx + dy <= 2m - 2 wherever
    xs[i] == ys[j]; higher orders are discontinuous there and not checked.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("xs and ys must be 1-D coordinate arrays")
    c = np.concatenate([_deriv_matrix(m, dx, dy) for m in (k.lower, k.upper)], axis=1)
    xe = x[:, None]
    cx = np.repeat(c[-1:], len(x), axis=0)
    for row in c[-2::-1]:
        cx *= xe
        cx += row
    low, up = np.split(cx, 2, axis=-1)
    vy = y[:, None] ** np.arange(low.shape[-1])
    return np.where(xe <= y, low @ vy.T, up @ vy.T)


# --------------------------------------------------------------------------
# derivation
# --------------------------------------------------------------------------

def _polish_columns_at_one(mat: np.ndarray) -> None:
    # Drive the Horner-order column sums (the branch value at x = 1, exactly
    # zero, ~1e-17 once rounded) to the rounding floor, since downstream series
    # with large coefficients would amplify them past boundary-trace
    # tolerances.  A pass adds whole rows, top power first, as Horner does.
    for _ in range(3):
        s = np.zeros(mat.shape[1])
        for row in mat[::-1]:
            s += row
        mat[-1] -= s


def _eliminate(row: dict, rhs: Fraction, pivot: tuple, pivot_row: list) -> Fraction:
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

    K is sum_{ij} C[i,j] x^i y^j on x <= y with 0 <= i, j <= 2m-1, and its
    mirror image sum_{ij} C[j,i] x^i y^j on x > y (the kernel is symmetric).
    Lower minus upper branch is then a polynomial of degree at most 2m-1 in
    each variable.  The kernel is C^(2m-2) across x = y, so that difference
    vanishes to order 2m-1 on the diagonal and is a multiple of
    (x - y)^(2m-1); the degree bound leaves only a constant factor, and the
    jump (-1)^(m-1) of the (2m-1)-th x-derivative fixes it (that jump is what
    reproduces point evaluation: integrating by parts m times leaves
    (-1)^(m-1) times it against u(y)).  So
    C - C^T = D, the coefficients of (-1)^(m-1) (x - y)^(2m-1) / (2m-1)!,

        D[i][j] = (-1)^(m-1+j) binom(2m-1, i) / (2m-1)!   where i + j = 2m-1,

    and C = S + D/2, C^T = S - D/2 with S symmetric.  The ansatz holds
    symmetry, continuity and the jump by construction; the m(2m+1) entries
    S[i][j], i <= j, are the unknowns.  Each remaining condition must hold
    for every parameter y, i.e. per power of y, with the known D/2 terms on
    the right-hand side:

    (a) essential constraints of the space at the argument-slot endpoints,
    (b) natural boundary conditions: in

            int_0^1 u^(m) K^(m) dx
              = sum_{r=0}^{m-1} (-1)^r [u^(m-1-r) K^(m+r)]_0^1 + jump terms

        the total coefficient of every unconstrained boundary value
        u^(d)(e) in <u, K(., y)> must vanish.

    That is 2m rows per boundary value u^(d)(e), d < m: 36 rows in 21
    unknowns at order 3.  The coefficients of the unknowns are integers and
    the right-hand sides rational, so Gauss-Jordan elimination over sparse
    rows of Fractions solves the system exactly.  Raises SingularSystem when
    the system is rank deficient or inconsistent, which signals a wrong
    SpaceSpec.
    """
    m = spec.order
    if m < 1:
        raise ValueError("order must be >= 1")
    n = 2 * m  # coefficients per branch and per variable
    # D/2 by its nonzero entries (i, j = 2m-1-i); (-1)^(m+i) = (-1)^(m-1+j)
    half_jump = {(i, n - 1 - i): Fraction((-1) ** (m + i) * math.comb(n - 1, i),
                                          2 * math.factorial(n - 1)) for i in range(n)}
    rows = []  # (coefficients by unknown S[i][j] keyed (i, j), i <= j; right-hand side)

    def endpoint(row: dict, j: int, order: int, e: int, sign: int) -> Fraction:
        # adds sign * K^(order)(e) restricted to the y^j column; on branch e
        # the x^i y^j coefficient is S[i][j] + (-1)^e D[i][j]/2, and the
        # returned right-hand side carries the known D/2 part
        rhs = 0
        for i in range(order, n):
            coef = sign * math.perm(i, order) * e ** (i - order)
            k = (min(i, j), max(i, j))
            row[k] = row.get(k, 0) + coef
            rhs -= coef * (-1) ** e * half_jump.get((i, j), 0)
        return rhs

    # (a) essential constraints; the endpoint x = e lies on branch e
    for d, e in spec.essential_constraints:
        for j in range(n):
            row = {}
            rows.append((row, endpoint(row, j, d, e, 1)))

    # (b) natural boundary conditions for every unconstrained u^(d)(e); the
    # term u^(d)(e) K^(2m-1-d)(e) of the integration by parts has the sign
    # (-1)^(m-1-d) at e = 1 and the opposite one at e = 0
    for d in range(m):
        for e in (0, 1):
            if (d, e) in spec.essential_constraints:
                continue
            for j in range(n):
                row = {}
                rhs = endpoint(row, j, 2 * m - 1 - d, e, (-1) ** (m + d + e))
                if (d, e) in spec.discrete_terms:
                    rhs += endpoint(row, j, d, e, 1)
                rows.append((row, rhs))

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
    if len(pivots) < m * (n + 1):
        raise SingularSystem(f"characterizing system has rank {len(pivots)} < {m * (n + 1)}, "
                             "its number of unknowns m(2m+1); check the space description")
    return [[pivots[min(i, j), max(i, j)][1] + half_jump.get((i, j), 0) for j in range(n)]
            for i in range(n)]


def derive_kernel_oracle(spec: SpaceSpec) -> PiecewiseKernel:
    """Derive the reproducing kernel from its characterizing conditions.

    The exact rational coefficients (``_exact_coefficients``) are rounded to
    doubles once.  Where the space pins u(1) = 0, the last row of the upper
    branch is then polished so that the branch is exactly zero at x = 1; the
    lower branch is the transpose, so the kernel is exactly symmetric.
    """
    upper = np.array(_exact_coefficients(spec), dtype=float).T.copy()
    if (0, 1) in spec.essential_constraints:
        _polish_columns_at_one(upper)
    return PiecewiseKernel(upper.T.copy(), upper, spec.order)


@lru_cache(maxsize=None)
def closed_form_kernel(space_id: str) -> PiecewiseKernel:
    """The kernel of ``space_id``, derived once per process."""
    return derive_kernel_oracle(space_spec(space_id))
