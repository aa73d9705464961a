"""Collocation grids, the collocation solve, and evaluation.

Working on the homogenized problem L v = M(x, t, v) over the canonical
square, the solver expands v in the orthonormalized representers,

    v = sum_i B_i Psihat_i = sum_k c_k Psi_k,     c = beta^T B,

and asks L v = M at every collocation point.  With the Gram matrix
A = L L^T and beta = L^{-1} that is the collocation system

    A c = M(p, Psi c),     i.e.  L B = m,  L^T c = B,  m = M(p, Psi c),

whose right-hand side depends on the solution values Psi c at the points.
Each sweep evaluates m at the previous sweep's values (zero at the start),
solves the two triangular systems against L and updates the values,
until they stop moving.  For M independent of v the first sweep is exact
and the second merely confirms it.  The paper's sequential recursion
B_i = sum_{k<=i} beta_ik M(p_k, v_{k-1}(p_k)) has the same fixed point but
makes the answer depend on the point order; the whole-vector sweep does not.

The conceptual first collocation point is the origin, where the homogenized
solution vanishes; since its representer is identically zero it anchors
v_0 = 0 but is excluded from the basis (a zero Gram row cannot be factored).

Evaluation is a cell lookup.  On each cell of the grid of distinct
collocation coordinates the series is one bivariate polynomial, so every
solution carries a table of 12x12 blocks built once from its weights
(``wave_operator.series_table``); a point then costs two bisections, one
Horner pass and one 12-vector bilinear form, independent of the basis
size.  The table holds (distinct xi + 1)(distinct tau + 1) 144 doubles and
serves both v and dv/dxi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import wave_operator
from .errors import NonFiniteValue, OutOfDomain
from .kernels import closed_form_kernel
from .orthonormalize import GramFactor, factor, solve_lower, solve_lower_t
from .wave_operator import RepresenterBasis, SeriesTable, psi_values, series_table


@dataclass(frozen=True)
class CollocationSet:
    """Collocation points in the canonical square, origin anchor first.

    Basis points (everything after the anchor) must be distinct and stay off
    the dead edges xi = 0, xi = 1 and tau = 0 where every representer
    vanishes identically.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(x), float(t)) for x, t in self.points)
        object.__setattr__(self, "points", pts)
        if not pts or pts[0] != (0.0, 0.0):
            raise ValueError("collocation sets must start at the origin")
        basis = pts[1:]
        if len(set(basis)) != len(basis):
            raise ValueError("collocation points must be distinct")
        for xi, tau in basis:
            if not (0.0 < xi < 1.0) or not (0.0 < tau <= 1.0):
                raise ValueError(
                    f"basis point ({xi}, {tau}) lies on a dead edge of the canonical square"
                )

    @property
    def basis_points(self) -> tuple[tuple[float, float], ...]:
        return self.points[1:]


def generate_collocation(nx: int, nt: int) -> CollocationSet:
    """Origin anchor plus the interior tensor grid i/(nx+1) x j/(nt+1).

    Points run through all xi at the first tau, then the second, etc.
    Growing nx, nt fills the square densely.
    """
    if nx < 1 or nt < 1:
        raise ValueError("nx and nt must be >= 1")
    xis = [(i + 1) / (nx + 1) for i in range(nx)]
    taus = [(j + 1) / (nt + 1) for j in range(nt)]
    return CollocationSet(((0.0, 0.0),) + tuple((xi, tau) for tau in taus for xi in xis))


@dataclass
class Solution:
    """A solved collocation expansion plus everything needed to evaluate it."""

    basis: RepresenterBasis
    beta: GramFactor  # A = L L^T; beta = L^{-1} itself is never formed
    B: np.ndarray  # coefficients of the orthonormal representers, L B = m
    psi_weights: np.ndarray  # coefficients c of the representers, L^T c = B
    hp: "object"  # problems.HomogenizedProblem (duck-typed to avoid a cycle)
    points: CollocationSet
    sweeps_used: int
    converged: bool  # the last sweep moved the values by at most tol
    last_update: float  # max |change of the collocation values| in the last sweep
    norm_history: np.ndarray = field(init=False)
    table: SeriesTable = field(init=False, repr=False)  # the series per grid cell

    def __post_init__(self):
        self.norm_history = np.sqrt(np.cumsum(self.B ** 2))
        self.table = series_table(self.basis, self.psi_weights)


def _source_values(m_fun, pts, vals: np.ndarray) -> np.ndarray:
    """M at each collocation point; the first non-finite value raises, naming its point."""
    m = np.empty(len(pts))
    for i, ((xi, tau), v) in enumerate(zip(pts, vals)):
        m[i] = m_fun(xi, tau, float(v))
        if not np.isfinite(m[i]):
            raise NonFiniteValue(
                f"solver.solve: source term returned {m[i]} at collocation point ({xi}, {tau})"
            )
    return m


def solve(hp, pts: CollocationSet, outer_sweeps: int = 5, tol: float = 1e-10) -> Solution:
    """Solve the homogenized problem on the given collocation set.

    Each sweep solves A c = M(p, v) with v the previous sweep's solution
    values at the points (v = 0 for the first sweep), and the sweeps stop
    when the max change of those values drops to ``tol`` or after
    ``outer_sweeps`` of them.  Reaching the cap does not raise: the number
    of sweeps run is ``sweeps_used``, ``converged`` says whether the last
    one moved the values by at most ``tol``, and ``last_update`` by how much.
    """
    if outer_sweeps < 1:
        raise ValueError("outer_sweeps must be >= 1")
    basis = RepresenterBasis(
        hp.operator,
        closed_form_kernel("R_spatial"),
        closed_form_kernel("r_temporal"),
        pts.basis_points,
    )
    bf = factor(wave_operator.gram_matrix(basis))
    psi = psi_values(basis, basis.xs, basis.ts)  # Psi_k at collocation point i

    vals = np.zeros(len(basis))
    for sweeps_used in range(1, outer_sweeps + 1):
        b = solve_lower(bf.L, _source_values(hp.M, basis.points, vals))
        c = solve_lower_t(bf.L, b)
        vals, prev = psi @ c, vals
        update = float(np.max(np.abs(vals - prev)))
        if update <= tol:
            break
    return Solution(basis, bf, b, c, hp, pts, sweeps_used, update <= tol, update)


def _canonical_point(sol: Solution, x: float, t: float):
    maps = sol.hp.maps
    eps = 1e-9 * max(1.0, abs(maps.b - maps.a), maps.T)
    if not (maps.a - eps <= x <= maps.b + eps) or not (-eps <= t <= maps.T + eps):
        raise OutOfDomain(
            f"({x}, {t}) outside [{maps.a}, {maps.b}] x [0, {maps.T}]"
        )
    return maps.to_canonical(x, t)


def evaluate(sol: Solution, x: float, t: float) -> float:
    """Evaluate the reconstructed solution u = v_n + w at a physical point."""
    xi, tau = _canonical_point(sol, x, t)
    return sol.table.value(xi, tau) + sol.hp.lifting(x, t)


def evaluate_dx(sol: Solution, x: float, t: float) -> float:
    """Evaluate du/dx via the termwise-differentiated series plus lifting."""
    xi, tau = _canonical_point(sol, x, t)
    return sol.table.value(xi, tau, dx=1) * sol.hp.maps.dxi_dx + sol.hp.lifting_x(x, t)


def solution_norm(sol: Solution) -> float:
    """W-norm of the homogenized series, sqrt(sum B_i^2) by orthonormality."""
    return float(np.sqrt(np.sum(sol.B ** 2)))
