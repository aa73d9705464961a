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
    Each pair (d, e) needs 0 <= d < order and e in (0, 1).
    """

    order: int
    essential_constraints: tuple[tuple[int, int], ...]
    discrete_terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        for d, e in self.essential_constraints + self.discrete_terms:
            if d not in range(self.order) or e not in (0, 1):
                raise ValueError(f"boundary term u^({d})({e}) needs 0 <= d < order = "
                                 f"{self.order} and e in (0, 1)")

    @property
    def mirror_symmetric(self) -> bool:
        """Whether the space is invariant under x -> 1 - x, so that K(1-x, 1-y) = K(x, y).

        The reflection multiplies u^(d) by (-1)^d, which each product
        u^(d) g^(d) cancels, and keeps the integral term.  So it suffices that
        the essential constraints, and the discrete terms outside them (a
        term at a pinned value is zero), map onto themselves under e -> 1 - e.
        """
        pinned = set(self.essential_constraints)
        free = set(self.discrete_terms) - pinned
        return all({(d, 1 - e) for d, e in terms} == terms for terms in (pinned, free))


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


def _exact_coefficients(spec: SpaceSpec) -> list[list[Fraction]]:
    """Exact coefficients C[i][j] of the kernel's lower branch x <= y.

    Fix y.  K(., y) is the Green's function of a two-point problem: a
    polynomial P(x) = sum_i a_i(y) x^i of degree 2m-1 on x <= y, and P minus
    the jump J = (-1)^(m-1) (x - y)^(2m-1) / (2m-1)! on x > y.  So K is
    C^(2m-2) across x = y, and integrating <u, K(., y)> by parts m times
    leaves the jump (-1)^(m-1) of J's (2m-1)-th derivative against u(y).
    Each boundary value u^(d)(e), d < m, gives one condition at x = e, on the
    lower branch at e = 0 and the upper one at e = 1:

    (a) K^(d)(e, y) = 0 where u^(d)(e) is an essential constraint;
    (b) else the total coefficient of u^(d)(e) in <u, K(., y)> vanishes.  In

            int_0^1 u^(m) K^(m) dx
              = sum_{r=0}^{m-1} (-1)^r [u^(m-1-r) K^(m+r)]_0^1 + jump terms

        that is (-1)^(m+d+e) K^(2m-1-d)(e, y), plus K^(d)(e, y) where
        u^(d)(e) is a discrete term.

    The 2m conditions on the a_i form one rational 2m x 2m matrix M, the
    same for every y.  With a_i(y) = sum_j C[i][j] y^j, M C = R, where
    column j of R holds the y^j coefficients that J contributes at x = 1.
    Gauss-Jordan elimination over Fractions solves it exactly, and raises
    SingularSystem when no condition fixes some power x^k.
    """
    m = spec.order
    n = 2 * m  # coefficients per branch and per variable
    # J = sum_i jump[i] x^i y^(2m-1-i); (-1)^(m-1) (-1)^(2m-1-i) = (-1)^(m+i)
    jump = [Fraction((-1) ** (m + i) * math.comb(n - 1, i), math.factorial(n - 1))
            for i in range(n)]
    rows = []  # [M row | R row] per boundary value u^(d)(e)
    for d in range(m):
        for e in (0, 1):
            if (d, e) in spec.essential_constraints:
                terms = [(d, 1)]
            else:  # (order of K's x-derivative, its sign)
                terms = [(n - 1 - d, (-1) ** (m + d + e))]
                if (d, e) in spec.discrete_terms:
                    terms.append((d, 1))
            row = [sum(s * math.perm(i, k) * e ** (i - k) for k, s in terms if i >= k)
                   for i in range(n)]
            # the upper branch's -J moves to the right: its x^i term carries y^(2m-1-i)
            rows.append(row + [e * row[n - 1 - j] * jump[n - 1 - j] for j in range(n)])
    for k in range(n):
        p = next((r for r in range(k, n) if rows[r][k]), None)
        if p is None:
            raise SingularSystem(f"no boundary condition fixes the power x^{k}; "
                                 "check the space description")
        top = rows.pop(p)
        pivot = [Fraction(v) / top[k] for v in top]
        rows = [[a - r[k] * b for a, b in zip(r, pivot)] if r[k] else r for r in rows]
        rows.insert(k, pivot)
    return [r[n:] for r in rows]


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
