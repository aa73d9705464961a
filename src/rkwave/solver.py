"""Collocation grids, the sequential coefficient recursion, and evaluation.

Working on the homogenized problem L v = M(x, t, v) over the canonical
square, the solver expands v in the orthonormalized representers:

    v_n = sum_i B_i Psihat_i,     B_i = sum_{k<=i} beta_ik M(p_k, v_{i-1}(p_k))

where v_{i-1} is the partial sum built from B_1 .. B_{i-1}.  With the Gram
factor A = L L^T and beta = L^{-1}, the recursion is forward substitution
L B = m, each m_i = M(p_i, v_{i-1}(p_i)) filled in as it is reached, and
every other use of beta is a triangular solve against L.  One pass of
that recursion is exact for M independent of v; for nonlinear M the pass is
repeated (Picard sweeps), each sweep seeding the evaluation of M with the
previous sweep's solution, until the solution values at the collocation
points stop moving.

The conceptual first collocation point is the origin, where the homogenized
solution vanishes; since its representer is identically zero it anchors
v_0 = 0 but is excluded from the basis (a zero Gram row cannot be factored).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import wave_operator
from .errors import NonFiniteValue, OutOfDomain
from .kernels import closed_form_kernel
from .orthonormalize import GramFactor, factor
from .wave_operator import RepresenterBasis, psi_values

ORDERING_POLICIES = ("time_major", "space_major", "diagonal")


@dataclass(frozen=True)
class CollocationSet:
    """Ordered collocation points in the canonical square, origin first.

    Basis points (everything after the origin anchor) must be distinct and
    stay off the dead edges xi = 0, xi = 1 and tau = 0 where every
    representer vanishes identically.
    """

    points: tuple[tuple[float, float], ...]
    ordering_policy: str = "time_major"
    includes_origin_anchor: bool = True

    def __post_init__(self):
        if self.ordering_policy not in ORDERING_POLICIES:
            raise ValueError(f"unknown ordering policy {self.ordering_policy!r}")
        pts = tuple((float(x), float(t)) for x, t in self.points)
        object.__setattr__(self, "points", pts)
        basis = pts[1:] if self.includes_origin_anchor else pts
        if self.includes_origin_anchor:
            if not pts or pts[0] != (0.0, 0.0):
                raise ValueError("anchored collocation sets must start at the origin")
        if len(set(basis)) != len(basis):
            raise ValueError("collocation points must be distinct")
        for xi, tau in basis:
            if not (0.0 < xi < 1.0) or not (0.0 < tau <= 1.0):
                raise ValueError(
                    f"basis point ({xi}, {tau}) lies on a dead edge of the canonical square"
                )

    @property
    def basis_points(self) -> tuple[tuple[float, float], ...]:
        return self.points[1:] if self.includes_origin_anchor else self.points


def generate_collocation(nx: int, nt: int, policy: str = "time_major") -> CollocationSet:
    """Origin anchor plus the interior tensor grid i/(nx+1) x j/(nt+1).

    time_major enumerates all xi at the first tau, then the second, etc.;
    space_major swaps the roles; diagonal walks anti-diagonals of the index
    grid (ties broken time-first).  Growing nx, nt fills the square densely.
    """
    if nx < 1 or nt < 1:
        raise ValueError("nx and nt must be >= 1")
    xis = [(i + 1) / (nx + 1) for i in range(nx)]
    taus = [(j + 1) / (nt + 1) for j in range(nt)]
    if policy == "time_major":
        grid = [(xi, tau) for tau in taus for xi in xis]
    elif policy == "space_major":
        grid = [(xi, tau) for xi in xis for tau in taus]
    elif policy == "diagonal":
        indexed = [(i + j, j, i) for j in range(nt) for i in range(nx)]
        grid = [(xis[i], taus[j]) for (_, j, i) in sorted(indexed)]
    else:
        raise ValueError(f"unknown ordering policy {policy!r}")
    return CollocationSet(((0.0, 0.0),) + tuple(grid), policy, True)


@dataclass
class Solution:
    """A solved collocation expansion plus everything needed to evaluate it."""

    basis: RepresenterBasis
    beta: GramFactor  # the factor L of beta = L^{-1}; beta itself is never formed
    B: np.ndarray
    hp: "object"  # problems.HomogenizedProblem (duck-typed to avoid a cycle)
    points: CollocationSet
    sweeps_used: int
    norm_history: np.ndarray = field(init=False)
    psi_weights: np.ndarray = field(init=False)

    def __post_init__(self):
        self.B = np.asarray(self.B, dtype=float)
        self.norm_history = np.sqrt(np.cumsum(self.B ** 2))
        # sum_i B_i sum_{k<=i} beta_ik Psi_k = sum_k (beta^T B)_k Psi_k
        self.psi_weights = np.linalg.solve(self.beta.L.T, self.B)


def _run_sweep(phat: np.ndarray, low: np.ndarray, m_fun, pts, b_prev: np.ndarray):
    """One pass of the coefficient recursion: forward substitution L B = m.

    For point i the nonlinear argument uses the current sweep's coefficients
    where already computed and the previous sweep's for the tail, so the
    working function starts the pass as the previous sweep's solution.  With
    b_prev = 0 this is exactly the single-pass recursion.
    """
    n = len(pts)
    b_new = np.zeros(n)
    for i in range(n):
        u_val = phat[i, :i] @ b_new[:i] + phat[i, i:] @ b_prev[i:]
        xi, tau = pts[i]
        mi = float(m_fun(xi, tau, float(u_val)))
        if not np.isfinite(mi):
            raise NonFiniteValue(
                f"solver.solve: source term returned {mi} at collocation point ({xi}, {tau})"
            )
        b_new[i] = (mi - low[i, :i] @ b_new[:i]) / low[i, i]
    return b_new


def solve(hp, pts: CollocationSet, outer_sweeps: int = 5, tol: float = 1e-10) -> Solution:
    """Solve the homogenized problem on the given collocation set.

    Sweep 1 is the plain sequential recursion from v_0 = 0; further sweeps
    repeat the pass seeded with the previous sweep's solution until the
    max change of the solution values at the collocation points drops to
    ``tol`` or ``outer_sweeps`` passes have run.  For M independent of v one
    sweep is exact and the second merely confirms convergence.
    """
    if outer_sweeps < 1:
        raise ValueError("outer_sweeps must be >= 1")
    basis_pts = pts.basis_points
    basis = RepresenterBasis(
        hp.operator,
        closed_form_kernel("R_spatial"),
        closed_form_kernel("r_temporal"),
        basis_pts,
    )
    gram = wave_operator.gram_matrix(basis)
    bf = factor(gram)
    n = len(basis_pts)
    xs = np.array([p[0] for p in basis_pts])
    ts = np.array([p[1] for p in basis_pts])
    # Psihat_l at collocation point i: (psi values) beta^T = (L^{-1} psi^T)^T
    psi = psi_values(basis, xs, ts)
    phat = np.linalg.solve(bf.L, psi.T).T

    b = np.zeros(n)
    vals = np.zeros(n)
    sweeps_used = 0
    for _ in range(outer_sweeps):
        b = _run_sweep(phat, bf.L, hp.M, basis_pts, b)
        sweeps_used += 1
        new_vals = phat @ b
        change = float(np.max(np.abs(new_vals - vals))) if n else 0.0
        vals = new_vals
        if change <= tol:
            break
    return Solution(basis, bf, b, hp, pts, sweeps_used)


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
    psi = psi_values(sol.basis, xi, tau)[0]
    v = float(psi @ sol.psi_weights)
    return v + sol.hp.lifting(x, t)


def evaluate_dx(sol: Solution, x: float, t: float) -> float:
    """Evaluate du/dx via the termwise-differentiated series plus lifting."""
    xi, tau = _canonical_point(sol, x, t)
    dpsi = psi_values(sol.basis, xi, tau, dx=1)[0]
    v_xi = float(dpsi @ sol.psi_weights)
    return v_xi * sol.hp.maps.dxi_dx + sol.hp.lifting_x(x, t)


def solution_norm(sol: Solution) -> float:
    """W-norm of the homogenized series, sqrt(sum B_i^2) by orthonormality."""
    return float(np.sqrt(np.sum(sol.B ** 2)))
