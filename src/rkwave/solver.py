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
and the second merely confirms it.  (The paper's sequential recursion
B_i = sum_{k<=i} beta_ik M(p_k, v_{k-1}(p_k)) has the same fixed point.)

The collocation grid is a coordinate pair (xis, taus), whose tensor points
``wave_operator.RepresenterBasis`` holds; ``solve`` keeps them off the dead
edges xi = 0, 1 and tau = 0, where every representer vanishes (the paper's
first point, the origin, only anchors v = 0).  A and Psi c come from the
grid's 1-D kernel matrices, and ``factor`` writes L over A, so A, then L,
is the only N x N array of a solve, in a memory mapping of its own
(``gram_matrix``).  From FOLD_MIN_N points up, on a grid that
``RepresenterBasis.mirror_halves`` folds, the Gram matrices of the two
halves take A's place: a quarter of its factor's flops and half of its memory.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import wave_operator
from .errors import NonFiniteValue, NotPositiveDefinite
from .orthonormalize import GramFactor, factor
from .wave_operator import RepresenterBasis, SeriesTable, series_table

# The fewest basis functions N = nt nx that ``solve`` folds: the smallest N
# at which the folded solve measured faster on both ex51 and ex52 (square
# grids, 100 alternating solves, 2-core VM).  At 16x16 ex51 tied (median
# time ratio 0.999), at 17x17 ex52 tied (0.995); at 18x18 the fold won on
# both (0.944, 0.948), and 0.59-0.64 at 32x32.
FOLD_MIN_N = 324


def generate_collocation(nx: int, nt: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The uniform interior grid (xis, taus): xi_i = i/(nx+1), tau_j = j/(nt+1), i, j >= 1."""
    if nx < 1 or nt < 1:
        raise ValueError("nx and nt must be >= 1")
    return (tuple((i + 1) / (nx + 1) for i in range(nx)),
            tuple((j + 1) / (nt + 1) for j in range(nt)))


@dataclass(eq=False)
class Solution:
    """A solved collocation expansion plus everything needed to evaluate it."""

    basis: RepresenterBasis  # the collocation grid with its representers
    beta: GramFactor | MirrorFactor  # A = L L^T, or per half; beta = L^{-1} is never formed
    B: np.ndarray  # coefficients of the orthonormal representers, L B = m
    psi_weights: np.ndarray  # coefficients c of the representers, L^T c = B
    hp: "object"  # problems.HomogenizedProblem (duck-typed to avoid a cycle)
    sweeps_used: int
    converged: bool  # the last sweep moved the values by at most tol
    last_update: float  # max |change of the collocation values| in the last sweep
    norm_history: np.ndarray = field(init=False)
    table: SeriesTable = field(init=False, repr=False)  # the series per grid cell
    u: Callable[[float, float], float] = field(init=False, repr=False)
    u_x: Callable[[float, float], float] = field(init=False, repr=False)

    def __post_init__(self):
        self.norm_history = np.sqrt(np.cumsum(self.B ** 2))
        self.table = series_table(self.basis, self.psi_weights)
        hp, domain = self.hp, self.hp.problem.domain
        self.u = _point_function(domain, self.table, 0, 1.0, hp.lifting)
        self.u_x = _point_function(domain, self.table, 1, domain.dxi_dx, hp.lifting_x)


def _point_function(domain, table: SeriesTable, dx: int, scale: float, lift):
    """value(xi, tau, dx) * scale + lift(x, t) at a physical point (x, t), as a closure.

    u = v_n + w takes (0, 1.0, ``hp.lifting``), as multiplying by 1.0 is
    exact, and du/dx takes (1, ``dxi_dx``, ``hp.lifting_x``).  The closure
    binds, once, the bounds and map of the rectangle ``domain`` and the
    table's ``value``, so a point costs the bounds check, xi = (x - a)/(b - a)
    and tau = t/T as ``Rectangle.to_canonical`` forms them, one table lookup
    with its Horner sum and one lifting call.  A point outside the bounds
    goes to ``to_canonical``, which raises OutOfDomain.
    """
    a, T, width = domain.a, domain.T, domain.b - domain.a
    x_lo, x_hi, t_lo, t_hi = domain.bounds
    to_canonical, value = domain.to_canonical, table.value

    def at(x: float, t: float) -> float:
        if not (x_lo <= x <= x_hi) or not (t_lo <= t <= t_hi):
            to_canonical(x, t)
        return value((x - a) / width, t / T, dx) * scale + lift(x, t)

    return at


def _point_label(hp, xi: float, tau: float) -> str:
    x, t = hp.problem.domain.from_canonical(xi, tau)
    return f"collocation point (xi, tau) = ({xi}, {tau}), (x, t) = ({x}, {t})"


def _source_values(hp, pts, vals: np.ndarray) -> np.ndarray:
    """M at every point in one pass; then the first non-finite value raises, naming its point."""
    M = hp.M
    m = np.array([M(xi, tau, v) for (xi, tau), v in zip(pts, vals.tolist())], dtype=float)
    bad = np.flatnonzero(~np.isfinite(m))
    if bad.size:
        i = bad[0]
        raise NonFiniteValue(f"source term returned {m[i]} at {_point_label(hp, *pts[i])}")
    return m


@dataclass(frozen=True, eq=False)
class MirrorFactor:
    """The Gram factors of the even and odd halves of a folded grid, applied as one.

    ``factors`` and ``folds`` follow ``RepresenterBasis.mirror_halves``.
    ``solve(m)`` gives (B, c) as ``GramFactor.solve`` does: each half solves
    fold^T m in every time row, B is the even half's B followed by the odd
    half's (the Gram-Schmidt of the even representers, then of the odd
    ones), and c sums fold c over the halves.  ``condition_estimate`` is the
    larger of the halves' estimates.
    """

    factors: tuple[GramFactor, GramFactor]
    folds: tuple[np.ndarray, np.ndarray]

    @property
    def condition_estimate(self) -> float:
        return max(f.condition_estimate for f in self.factors)

    def solve(self, m) -> tuple[np.ndarray, np.ndarray]:
        """(B, c) for one right-hand side ``m``, in point order."""
        rows = np.reshape(m, (-1, len(self.folds[0])))  # one time row each
        parts = [f.solve((rows @ fold).ravel()) for f, fold in zip(self.factors, self.folds)]
        c = sum(half_c.reshape(len(rows), -1) @ fold.T
                for fold, (_, half_c) in zip(self.folds, parts))
        return np.concatenate([b for b, _ in parts]), c.ravel()


def _gram_factor(hp, basis: RepresenterBasis) -> GramFactor | MirrorFactor:
    """The factor of the collocation system on ``basis``: of its two halves, or of A.

    A grid of at least FOLD_MIN_N points that ``basis.mirror_halves`` folds
    factors its halves.  A half that fails its pivot check leaves the grid to
    A's own factor, as on any other grid, whose pivot failure raises
    NotPositiveDefinite naming its collocation point.  In its own order the
    even half meets smaller pivots than A (on ex51 from 40x40 to 54x54 its
    smallest pivot ratio is 2.5 times below A's), and on ex51 at 56x56 and
    58x58, cond(A) past 1e18, it fails where A factors.
    """
    halves = basis.mirror_halves if len(basis) >= FOLD_MIN_N else None
    if halves is not None:
        with contextlib.suppress(NotPositiveDefinite):  # a failed half leaves the grid to A
            factors = tuple(factor(wave_operator.gram_matrix(basis, space)) for _, space in halves)
            return MirrorFactor(factors, tuple(fold for fold, _ in halves))
    try:
        return factor(wave_operator.gram_matrix(basis))
    except NotPositiveDefinite as exc:
        where = _point_label(hp, *basis.points[exc.index])
        raise NotPositiveDefinite(exc.index, f"{exc} at {where}") from None


def solve(hp, grid, outer_sweeps: int = 5, tol: float = 1e-10) -> Solution:
    """Solve the homogenized problem on the collocation grid ``grid`` = (xis, taus).

    Each sweep solves A c = M(p, v) with v the previous sweep's solution
    values at the points (v = 0 for the first sweep), and the sweeps stop
    when the max change of those values drops to ``tol`` or after
    ``outer_sweeps`` of them.  Reaching the cap does not raise: the number
    of sweeps run is ``sweeps_used``, ``converged`` says whether the last
    one moved the values by at most ``tol``, and ``last_update`` by how much.
    ``outer_sweeps`` below 1 or ``tol`` not positive and finite raises ValueError.
    A Gram pivot failure raises NotPositiveDefinite naming its collocation point.
    A grid off (0, 1) x (0, 1] touches a dead edge and raises ValueError before
    assembly, as do coordinates that are not strictly increasing (``RepresenterBasis``).
    """
    if outer_sweeps < 1:
        raise ValueError("outer_sweeps must be >= 1")
    if not 0.0 < tol < float("inf"):  # written so that NaN fails it
        raise ValueError(f"tol must be positive and finite, not {tol}")
    basis = RepresenterBasis(hp.problem.domain.operator, *grid)
    xis, taus = basis.xis, basis.taus
    if not (0.0 < xis[0] and xis[-1] < 1.0 and 0.0 < taus[0] and taus[-1] <= 1.0):
        raise ValueError(f"grid {xis} x {taus} touches a dead edge of the canonical square")
    bf = _gram_factor(hp, basis)
    vals = np.zeros(len(basis))
    for sweeps_used in range(1, outer_sweeps + 1):
        b, c = bf.solve(_source_values(hp, basis.points, vals))
        vals, prev = wave_operator.collocation_values(basis, c), vals
        update = float(np.max(np.abs(vals - prev)))
        if update <= tol:
            break
    return Solution(basis, bf, b, c, hp, sweeps_used, update <= tol, update)


def evaluate(sol: Solution, x: float, t: float) -> float:
    """Evaluate the reconstructed solution u = v_n + w at a physical point."""
    return sol.u(x, t)


def evaluate_dx(sol: Solution, x: float, t: float) -> float:
    """Evaluate du/dx via the termwise-differentiated series plus lifting."""
    return sol.u_x(x, t)


def solution_norm(sol: Solution) -> float:
    """W-norm of the homogenized series, sqrt(sum B_i^2) by orthonormality (norm_history[-1])."""
    return float(sol.norm_history[-1])
