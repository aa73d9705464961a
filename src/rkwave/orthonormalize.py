"""Gram-Schmidt orthonormalization as a Cholesky factor of the Gram matrix.

Orthonormalizing the representers Psi_i only needs the coefficients
beta_ik of the combinations Psihat_i = sum_{k<=i} beta_ik Psi_k.  With the
Gram matrix A = L L^T (Cholesky), beta = L^{-1} produces the same
orthonormal system as sequential Gram-Schmidt, up to rounding, and
satisfies beta A beta^T = I.  beta is never formed: every use of it is a
triangular solve against L.

L comes from LAPACK in double precision.  A pivot failure reports *which*
leading minor broke: for collocation Gram matrices that index points at
the first degenerate collocation point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite

# A pivot below this fraction of the largest diagonal entry aborts rather
# than silently regularizing: degenerate bases indicate bad collocation
# input and a patched factor would corrupt every downstream diagnostic.
PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class GramFactor:
    """Lower-triangular Cholesky factor L of a Gram matrix with a conditioning tag."""

    L: np.ndarray
    condition_estimate: float

    def __post_init__(self):
        low = np.array(self.L, dtype=float)
        low.setflags(write=False)
        object.__setattr__(self, "L", low)


def _check_symmetric(gram: np.ndarray) -> np.ndarray:
    a = np.asarray(gram, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError("gram matrix must be square with n >= 1")
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > 1e-10 * scale:
        raise ValueError("gram matrix must be symmetric")
    return a


def _first_small_pivot(low: np.ndarray, thresh: float) -> int | None:
    small = np.flatnonzero(np.diag(low) ** 2 <= thresh)
    return int(small[0]) if small.size else None


def _cholesky(a: np.ndarray) -> np.ndarray:
    thresh = PIVOT_RTOL * max(float(np.max(np.diag(a))), 0.0)
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        # A leading minor factors only if every smaller one does, so the
        # first failing pivot is found by bisecting over the minor sizes;
        # ``low`` ends as the factor of the largest minor that factors.
        good, bad = 0, a.shape[0]
        low = np.zeros((0, 0))
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                low = np.linalg.cholesky(a[:mid, :mid])
                good = mid
            except np.linalg.LinAlgError:
                bad = mid
        j = _first_small_pivot(low, thresh)
        raise NotPositiveDefinite(bad - 1 if j is None else j) from None
    j = _first_small_pivot(low, thresh)
    if j is not None:
        raise NotPositiveDefinite(j)
    return low


def _condition(a: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(a)
    return float(lam[-1] / lam[0]) if lam[0] > 0.0 else float("inf")


def factor(gram) -> GramFactor:
    """Cholesky factor of a symmetric positive definite Gram matrix.

    Computes A = L L^T with LAPACK and returns L together with cond_2(A)
    from the extreme eigenvalues.  Raises NotPositiveDefinite(k) when the
    k-th pivot is not above PIVOT_RTOL times the largest diagonal entry,
    and ValueError for non-symmetric input.
    """
    a = _check_symmetric(gram)
    return GramFactor(_cholesky(a), _condition(a))


def condition_estimate(gram) -> float:
    """cond_2 of a symmetric matrix; infinity when it does not factor."""
    a = _check_symmetric(gram)
    try:
        _cholesky(a)
    except NotPositiveDefinite:
        return float("inf")
    return _condition(a)
