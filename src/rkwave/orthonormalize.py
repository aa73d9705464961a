"""Gram-Schmidt orthonormalization as a Cholesky factor of the Gram matrix.

Orthonormalizing the representers Psi_i only needs the coefficients
beta_ik of the combinations Psihat_i = sum_{k<=i} beta_ik Psi_k.  With the
Gram matrix A = L L^T (Cholesky), beta = L^{-1} produces the same
orthonormal system as sequential Gram-Schmidt, up to rounding, and
satisfies beta A beta^T = I.  beta is never formed: ``GramFactor.solve``
applies it twice, B = beta m and c = beta^T B, as triangular solves against
L by blocked substitution in O(N^2) per right-hand side: the coupling to
the blocks already solved is one BLAS product with L's off-diagonal block,
and each diagonal block is one product with its inverse, formed once per
factor.  On the Gram factors of ex51 and ex52 from 8x8 to 56x56 grids, the
normwise backward error ||L x - b|| / (||L|| ||x||) of these solves
measures at most 2e-18 (forward) and 2e-16 (back), below double
precision's eps = 2.2e-16.

L is the only O(N^3) step.  It is a left-looking blocked Cholesky factor
(Golub and Van Loan, Matrix Computations, 4.2): each block of SOLVE_BLOCK
columns is updated by one BLAS product with the columns left of it, its
diagonal block is factored by LAPACK, and the rows below are one product
with that block's inverse, the inverse the solves use.  So nearly all of
its flops are matrix products, and numpy's Cholesky only ever sees a
diagonal block.  On the Gram matrices of ex51 and ex52 from 8x8 to 48x48
grids, the backward error ||L L^T - A||_F / ||A||_F measures at most
3.3e-15.  The condition number of A is estimated from a few solves
against L (Hager's 1-norm estimate of ||A^{-1}||_1 in Higham's form, as
LAPACK's dlacn2), so it costs O(N^2) as well.  A pivot failure reports
*which* leading minor broke: for collocation Gram matrices that index
points at the first degenerate collocation point.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import NotPositiveDefinite

# A pivot below this fraction of the largest diagonal entry aborts rather
# than silently regularizing: degenerate bases indicate bad collocation
# input and a patched factor would corrupt every downstream diagnostic.
PIVOT_RTOL = 1e-12

# Columns per block of the factor and rows per diagonal block of the
# triangular solves.  Each block's inverse is one small LAPACK solve per
# factor; a solve reads only those inverses and L's off-diagonal blocks, and
# makes two BLAS products per block.
SOLVE_BLOCK = 32

# Iterations of the 1-norm estimate, counting the first, as in dlacn2.
ESTIMATE_ITERATIONS = 5


@dataclass(frozen=True, eq=False)
class GramFactor:
    """Lower-triangular Cholesky factor L of a Gram matrix A, which applies beta = L^{-1}.

    Built from L, ||A||_1 and the inverses of L's SOLVE_BLOCK x SOLVE_BLOCK
    diagonal blocks (the last one smaller), formed while factoring; they
    stand in for those blocks in ``solve``, one product each.
    ``condition_estimate`` is ||A||_1 times an estimate of ||A^{-1}||_1: a
    lower bound on cond_1(A) up to rounding, usually exact (rounding in the
    solves can push it past cond_1 by a relative amount of order eps cond_1).
    """

    L: np.ndarray
    norm1: InitVar[float]
    _inverses: tuple[np.ndarray, ...] = field(repr=False)
    condition_estimate: float = field(init=False)

    def __post_init__(self, norm1: float):
        self.L.setflags(write=False)
        object.__setattr__(self, "condition_estimate", norm1 * _inverse_norm1(self))

    def solve(self, m) -> tuple[np.ndarray, np.ndarray]:
        """(B, c) with L B = m and L^T c = B: B = beta m and c = beta^T B = A^{-1} m.

        ``m`` is a vector or a matrix of right-hand-side columns and is not
        overwritten; each costs O(N^2) (see the module docstring).
        """
        low = self.L
        blocks = tuple(zip(range(0, len(low), SOLVE_BLOCK), self._inverses))
        b = np.array(m, dtype=float)
        for k, inv in blocks:
            e = k + len(inv)
            b[k:e] = inv @ (b[k:e] - low[k:e, :k] @ b[:k])
        c = b.copy()
        for k, inv in reversed(blocks):
            e = k + len(inv)
            c[k:e] = inv.T @ (c[k:e] - low[e:, k:e].T @ c[e:])
        return b, c


def _cholesky(m: np.ndarray, tiny: float) -> np.ndarray:
    """numpy.linalg.cholesky(m), from m's lower triangle; NotPositiveDefinite names the
    first pivot whose square is not above ``tiny``, else the first LAPACK refuses."""
    try:
        low, bad = np.linalg.cholesky(m), None
    except np.linalg.LinAlgError:
        # A leading minor factors only if every smaller one does, so the
        # first failing pivot is found by bisecting over the minor sizes;
        # ``low`` ends as the factor of the largest minor that factors.
        good, bad = 0, m.shape[0]
        low = np.zeros((0, 0))
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                low = np.linalg.cholesky(m[:mid, :mid])
                good = mid
            except np.linalg.LinAlgError:
                bad = mid
    small = np.flatnonzero(np.diag(low) ** 2 <= tiny)
    if small.size:
        raise NotPositiveDefinite(int(small[0]))
    if bad is not None:
        raise NotPositiveDefinite(bad - 1)
    return low


def _inverse_norm1(bf: GramFactor) -> float:
    """A lower bound on ||A^{-1}||_1 for A = L L^T, usually equal to it (dlacn2).

    Each candidate is ||A^{-1} x||_1 / ||x||_1 for some x, so in exact
    arithmetic none exceeds ||A^{-1}||_1; rounding in the solves may push
    one past it.  Hager's ascent starts from x = (1/n, ..., 1/n) and moves
    to the unit vector e_j at the largest entry of the gradient
    A^{-1} sign(A^{-1} x) (A^{-1} is symmetric), until the sign vector
    repeats, the estimate stops growing, the same entry leads again or
    ESTIMATE_ITERATIONS is reached.  Higham's alternating vector guards
    against an ascent that stalled in a local maximum; it is solved with
    the start vector, as one two-column pass over L.
    """
    n = len(bf.L)
    alternating = (-1.0) ** np.arange(n) * (1.0 + np.arange(n) / max(n - 1, 1))
    y, y_alt = bf.solve(np.column_stack([np.full(n, 1.0 / n), alternating]))[1].T
    est = float(np.sum(np.abs(y)))
    signs = np.where(y >= 0.0, 1.0, -1.0)
    z = bf.solve(signs)[1]
    j = int(np.argmax(np.abs(z)))
    for _ in range(ESTIMATE_ITERATIONS - 1):
        y = bf.solve(np.eye(1, n, j)[0])[1]
        est, previous = float(np.sum(np.abs(y))), est
        new_signs = np.where(y >= 0.0, 1.0, -1.0)
        if np.array_equal(new_signs, signs) or est <= previous:
            break
        signs = new_signs
        z = bf.solve(signs)[1]
        last, j = j, int(np.argmax(np.abs(z)))
        if z[last] == abs(z[j]):
            break
    return max(est, 2.0 * float(np.sum(np.abs(y_alt))) / (3 * n))


def factor(gram) -> GramFactor:
    """Cholesky factor of a symmetric positive definite Gram matrix.

    Computes A = L L^T by left-looking blocked Cholesky over SOLVE_BLOCK
    columns at a time and returns L as a GramFactor, which estimates
    cond_1(A) in O(N^2) from solves against L.  A must be symmetric: as in LAPACK, one triangle is
    factored, here the upper one (the lower triangle of A^T), and the strict
    lower triangle is neither read nor checked, ||A||_1 in the estimate
    included.  Also as in LAPACK, L overwrites the argument, read-only from
    then on, if it is a writeable float array; other input is copied first.
    Raises NotPositiveDefinite(k), with the argument partly overwritten, for
    the first pivot k whose square is not above PIVOT_RTOL times the largest
    diagonal entry, or at which LAPACK refuses the block holding it, and
    ValueError, with it untouched, for input that is not square or whose
    1-norm is not finite (a NaN or inf entry in the upper triangle).
    """
    a = np.require(gram, dtype=float, requirements="W")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError("gram matrix must be square with n >= 1")
    n = len(a)
    # ||A||_1 from the upper triangle and no N x N |A|: column j sums |A| over
    # the diagonal, its strict upper part and, by symmetry, that of row j
    sums = np.abs(np.diagonal(a))
    for k in range(0, n, SOLVE_BLOCK):
        rows = np.abs(a[k:k + SOLVE_BLOCK, k:])  # rows k:e from column k on
        b = len(rows)
        rows[:, :b] = np.triu(rows[:, :b], 1)  # leaving their strict upper part
        sums[k:] += rows.sum(axis=0)
        sums[k:k + b] += rows.sum(axis=1)
    norm = float(np.max(sums))
    if not np.isfinite(norm):  # a NaN or inf entry makes the norm NaN or inf
        raise ValueError("gram matrix must be finite")
    tiny = PIVOT_RTOL * max(float(np.max(np.diag(a))), 0.0)
    low = a
    inverses = []
    for k in range(0, n, SOLVE_BLOCK):
        e = min(k + SOLVE_BLOCK, n)
        # columns k:e of A^T less the part of L L^T that the columns left of k
        # already account for; a.T[k:, k:e] is rows k:e of A, read contiguously
        # and for the last time, so L's rows k:e (d, then zeros) overwrite them
        col = a.T[k:, k:e] - low[k:, :k] @ low[k:e, :k].T
        try:
            d = _cholesky(col[:e - k], tiny)
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(k + exc.index) from None
        inv = np.linalg.solve(d, np.eye(e - k))
        low[k:e, k:e] = d
        low[k:e, e:] = 0.0
        low[e:, k:e] = col[e - k:] @ inv.T
        inverses.append(inv)
    return GramFactor(low, norm, tuple(inverses))
