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

Kernels come from two independent routes:

* ``derive_kernel_oracle`` solves the characterizing linear system read off
  from integration by parts: essential constraints at the interval ends,
  natural boundary conditions (coefficients of unconstrained boundary
  derivatives must vanish), C^(2m-2) continuity across the diagonal, and a
  unit jump in the (2m-1)-th derivative.
* ``closed_form_kernel`` returns the tabulated closed-form coefficients,
  cross-checked entrywise against the oracle; any tabulated entry that fails
  the kernel identities is replaced by the derived value and the
  substitution is logged (see ``coefficient_table_diff``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyval2d

from .errors import DiagonalDerivativeUndefined, SingularSystem
from .quadrature import panel_rule

logger = logging.getLogger(__name__)

SPACE_IDS = ("R_spatial", "r_temporal", "Q_spatial", "q_temporal")

# Tabulated entries that disagree with the oracle by more than this are
# treated as misprints and replaced.  Oracle noise sits near 1e-12; the one
# known misprint is off by ~1.2e-6.
_TABLE_TOL = 1e-9


@dataclass(frozen=True)
class SpaceSpec:
    """Description of one reproducing kernel space on [0, 1].

    essential_constraints lists (derivative order, endpoint) pairs that
    members must annihilate; discrete_terms lists the boundary terms of the
    inner product; integral_order is the derivative order under the L2
    integral and equals ``order``.
    """

    order: int
    essential_constraints: tuple[tuple[int, int], ...]
    discrete_terms: tuple[tuple[int, int], ...]
    integral_order: int

    def __post_init__(self):
        if self.order != self.integral_order:
            raise ValueError("order and integral_order must agree")


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
    "R_spatial": SpaceSpec(3, ((0, 0), (0, 1)), ((0, 0), (1, 0), (1, 1)), 3),
    "r_temporal": SpaceSpec(3, ((0, 0), (1, 0)), ((0, 0), (1, 0), (2, 0)), 3),
    "Q_spatial": SpaceSpec(1, (), ((0, 0),), 1),
    "q_temporal": SpaceSpec(1, (), ((0, 0),), 1),
}


def space_spec(space_id: str) -> SpaceSpec:
    """Return the SpaceSpec for one of the four supported space ids."""
    try:
        return _SPECS[space_id]
    except KeyError:
        raise ValueError(f"unknown space id {space_id!r}; expected one of {SPACE_IDS}") from None


# --------------------------------------------------------------------------
# tabulated closed-form coefficients
# --------------------------------------------------------------------------

def _r_spatial_tables():
    c = np.zeros((6, 6))
    d = np.zeros((6, 6))
    # rows are x powers, columns are y powers
    c[1] = [0.0, 31 / 61, -127 / 244, 0.0, 5 / 244, -1 / 122]
    c[2] = [0.0, -127 / 244, 1137 / 1952, -1 / 12, 127 / 5856, -1 / 2928]
    c[4] = [0.0, -31 / 1464, 127 / 5856, 0.0, -5 / 5856, 1 / 2938]  # note 2938
    c[5] = [1 / 120, -1 / 122, -1 / 2928, 0.0, 1 / 2928, -1 / 7320]
    d[0] = [0.0, 0.0, 0.0, 0.0, 0.0, 1 / 120]
    d[1] = [0.0, 31 / 61, -127 / 244, 0.0, -31 / 1464, -1 / 122]
    d[2] = [0.0, -127 / 244, 1137 / 1952, 0.0, 127 / 5856, -1 / 2928]
    d[3] = [0.0, 0.0, -1 / 12, 0.0, 0.0, 0.0]
    d[4] = [0.0, 5 / 244, 127 / 5856, 0.0, -5 / 5856, 1 / 2928]
    d[5] = [0.0, -1 / 122, -1 / 2928, 0.0, 1 / 2928, -1 / 7320]
    return c, d


def _r_temporal_tables():
    c = np.zeros((6, 6))
    # (1/4) s^2 t^2 + (1/12) s^2 t^3 - (1/24) s t^4 + (1/120) t^5   (t <= s)
    c[2, 2] = 1 / 4
    c[3, 2] = 1 / 12
    c[4, 1] = -1 / 24
    c[5, 0] = 1 / 120
    return c, c.T.copy()


def _w21_tables():
    c = np.zeros((6, 6))
    c[0, 0] = 1.0  # 1 + x for x <= y
    c[1, 0] = 1.0
    d = np.zeros((6, 6))
    d[0, 0] = 1.0  # 1 + y for x > y
    d[0, 1] = 1.0
    return c, d


_TABLES = {
    "R_spatial": _r_spatial_tables,
    "r_temporal": _r_temporal_tables,
    "Q_spatial": _w21_tables,
    "q_temporal": _w21_tables,
}


def tabulated_coefficients(space_id: str):
    """Raw tabulated branch matrices, before any corrections."""
    if space_id not in _TABLES:
        raise ValueError(f"unknown space id {space_id!r}")
    return _TABLES[space_id]()


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def _falling(i: int, d: int) -> float:
    """i (i-1) ... (i-d+1); the monomial derivative factor."""
    return float(math.perm(i, d))


# _FALLING[d, i] = _falling(i, d) for the 6x6 branch matrices
_FALLING = np.array([[_falling(i, d) for i in range(6)] for d in range(6)])


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


def _polish_rows_at_one(mat: np.ndarray) -> None:
    for i in range(mat.shape[0]):
        for _ in range(3):
            s = 0.0
            for j in range(mat.shape[1] - 1, -1, -1):
                s += mat[i, j]
            mat[i, -1] -= s


def _enforce_essential_zeros(lower: np.ndarray, upper: np.ndarray, spec: SpaceSpec) -> None:
    """Make the kernel's essential constraints hold exactly in both slots.

    Constraints at endpoint 0 zero out whole coefficient rows/columns;
    constraints at endpoint 1 are sum conditions, polished to the rounding
    floor.  Perturbations are ~1e-17, far below every other tolerance.
    """
    for d, e in spec.essential_constraints:
        if e == 0:
            lower[d, :] = 0.0  # argument slot: x = 0 lies on the lower branch
            upper[:, d] = 0.0  # parameter slot: y = 0 lies under the upper branch
        else:
            if d != 0:
                raise ValueError("only value constraints are supported at endpoint 1")
            _polish_columns_at_one(upper)
            _polish_rows_at_one(lower)


# --------------------------------------------------------------------------
# derivation oracle
# --------------------------------------------------------------------------

def derive_kernel_oracle(spec: SpaceSpec) -> PiecewiseKernel:
    """Derive the reproducing kernel from its characterizing conditions.

    Writing K as sum_{ij} C[i,j] x^i y^j on x <= y and D[i,j] x^i y^j on
    x > y with 0 <= i, j <= 2m-1, each condition below must hold for every
    parameter y, i.e. per power of y; collecting powers turns the lot into
    one overdetermined-but-consistent linear system in the entries of C, D:

    (a) essential constraints of the space at the argument-slot endpoints,
    (b) natural boundary conditions: in

            int_0^1 u^(m) K^(m) dx
              = sum_{r=0}^{m-1} (-1)^r [u^(m-1-r) K^(m+r)]_0^1 + jump terms

        the total coefficient of every unconstrained boundary value
        u^(d)(e) in <u, K(., y)> must vanish,
    (c) C^(2m-2) continuity across x = y,
    (d) unit jump of the (2m-1)-th x-derivative across the diagonal
        (lower minus upper), which is what reproduces point evaluation.

    Raises SingularSystem when the system is rank deficient or inconsistent,
    which signals a wrong SpaceSpec.
    """
    m = spec.order
    if m < 1:
        raise ValueError("order must be >= 1")
    n = 2 * m  # coefficients per branch and per variable
    ncols = 2 * n * n
    essential = set(spec.essential_constraints)
    discrete = set(spec.discrete_terms)

    def col(branch: int, i: int, j: int) -> int:
        return branch * n * n + i * n + j

    rows = []
    rhs = []

    def endpoint_row(branch: int, j: int, order: int, e: int, scale: float, row):
        # adds scale * K^(order)(e) restricted to the y^j column
        for i in range(order, n):
            row[col(branch, i, j)] += scale * _falling(i, order) * float(e) ** (i - order)

    # (a) essential constraints
    for d, e in spec.essential_constraints:
        branch = 0 if e == 0 else 1
        for j in range(n):
            row = np.zeros(ncols)
            endpoint_row(branch, j, d, e, 1.0, row)
            rows.append(row)
            rhs.append(0.0)

    # (b) natural boundary conditions for every unconstrained u^(d)(e)
    for d in range(m):
        for e in (0, 1):
            if (d, e) in essential:
                continue
            branch = 0 if e == 0 else 1
            sign = (1.0 if e == 1 else -1.0) * (-1.0) ** (m - 1 - d)
            for j in range(n):
                row = np.zeros(ncols)
                if (d, e) in discrete:
                    endpoint_row(branch, j, d, e, 1.0, row)
                endpoint_row(branch, j, 2 * m - 1 - d, e, sign, row)
                rows.append(row)
                rhs.append(0.0)

    # (c) continuity of orders 0 .. 2m-2 along x = y: collect powers of y
    for d in range(2 * m - 1):
        for p in range((2 * m - 1 - d) + (2 * m - 1) + 1):
            row = np.zeros(ncols)
            hit = False
            for i in range(d, n):
                j = p - (i - d)
                if 0 <= j < n:
                    f = _falling(i, d)
                    row[col(0, i, j)] += f
                    row[col(1, i, j)] -= f
                    hit = True
            if hit:
                rows.append(row)
                rhs.append(0.0)

    # (d) unit jump of the (2m-1)-th derivative, lower minus upper
    top = _falling(n - 1, n - 1)
    for j in range(n):
        row = np.zeros(ncols)
        row[col(0, n - 1, j)] = top
        row[col(1, n - 1, j)] = -top
        rows.append(row)
        rhs.append(1.0 if j == 0 else 0.0)

    a = np.vstack(rows)
    b = np.array(rhs)
    sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < ncols:
        raise SingularSystem(
            f"characterizing system has rank {rank} < {ncols}; check the space description"
        )
    residual = float(np.max(np.abs(a @ sol - b)))
    if residual > 1e-9:
        raise SingularSystem(
            f"characterizing system is inconsistent (residual {residual:.3e}); "
            "check the space description"
        )

    c = sol[: n * n].reshape(n, n)
    d_mat = sol[n * n:].reshape(n, n)
    # the kernel is symmetric, so upper(x, y) = lower(y, x); averaging the
    # two numerically computed branches removes least-squares noise
    c = 0.5 * (c + d_mat.T)
    lower = np.zeros((6, 6))
    lower[:n, :n] = c
    upper = np.zeros((6, 6))
    upper[:n, :n] = c.T
    _enforce_essential_zeros(lower, upper, spec)
    return PiecewiseKernel(lower, upper, m)


@lru_cache(maxsize=None)
def _derived(space_id: str) -> PiecewiseKernel:
    return derive_kernel_oracle(space_spec(space_id))


@lru_cache(maxsize=None)
def coefficient_table_diff(space_id: str):
    """Entries where the tabulated coefficients fail the kernel identities.

    Returns a tuple of (branch, i, j, tabulated, derived) records; empty when
    the tables agree with the derivation to within oracle noise.
    """
    derived = _derived(space_id)
    lo, up = tabulated_coefficients(space_id)
    diffs = []
    for branch, tab, der in (("lower", lo, derived.lower), ("upper", up, derived.upper)):
        bad = np.argwhere(np.abs(tab - der) > _TABLE_TOL * np.maximum(1.0, np.abs(der)))
        for i, j in bad:
            diffs.append((branch, int(i), int(j), float(tab[i, j]), float(der[i, j])))
    return tuple(diffs)


@lru_cache(maxsize=None)
def closed_form_kernel(space_id: str) -> PiecewiseKernel:
    """Closed-form kernel for ``space_id``, with misprint corrections.

    The tabulated coefficients are returned verbatim except for entries that
    fail the kernel identities (diagonal continuity, symmetry, reproduction);
    those are replaced by the derived values and logged.
    """
    spec = space_spec(space_id)
    lo, up = tabulated_coefficients(space_id)
    lo = lo.copy()
    up = up.copy()
    for branch, i, j, tab, der in coefficient_table_diff(space_id):
        target = lo if branch == "lower" else up
        target[i, j] = der
        logger.warning(
            "%s: tabulated %s[%d][%d] = %.17g fails kernel identities; using derived %.17g",
            space_id, branch, i, j, tab, der,
        )
    _enforce_essential_zeros(lo, up, spec)
    return PiecewiseKernel(lo, up, spec.order)


# --------------------------------------------------------------------------
# debug export
# --------------------------------------------------------------------------

def dump_kernel(k: PiecewiseKernel) -> str:
    """Plain-text dump of the two branch matrices (debugging aid).

    Row-major, full double precision, one matrix per block, '#' comments.
    Not a stability-guaranteed format.
    """
    out = [f"# piecewise kernel, order m = {k.order}"]
    for name, mat in (("lower (x <= y)", k.lower), ("upper (x > y)", k.upper)):
        out.append(f"# {name}, rows are x powers, columns are y powers")
        for row in mat:
            out.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(out) + "\n"
