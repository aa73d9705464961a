"""The canonical wave operator and its representer basis.

L = alpha d^2/dt^2 - gamma d^2/dx^2 acts on the solution space W over the
unit square; alpha = gamma = 1 is the operator on the original domain, other
values absorb affine rescaling of a general rectangle.

For a collocation point (x_i, t_i) the representer is L applied to the
W-kernel in its parameter slot,

    Psi_i(x,t) = alpha R(x, x_i) d2r/ds2(t, t_i) - gamma d2R/dy2(x, x_i) r(t, t_i),

and inner products against Psi_i sample L: <u, Psi_i>_W = (Lu)(x_i, t_i).
Applying that identity to Psi_j itself gives the closed-form Gram entry

    A_ij = <Psi_j, Psi_i>_W = (L Psi_j)(x_i, t_i),

a four-term combination of kernel derivatives of order at most 2 per slot,
which stays below the C^4 diagonal-smoothness limit of the order-3 kernels.

The collocation points form a tensor grid and every term is a space factor
times a time factor, so A, the series values at the points and the series
table (``series_table``) are built from 1-D kernel matrices on the grid
coordinates, never an N x N one; on a grid mirror-symmetric about xi = 1/2,
A splits into the Gram matrices of two halves (``RepresenterBasis.mirror_halves``).
Pointwise references for Psi_i, A_ij and L (kernel sections, quadrature
inner products, finite differences) are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import contextlib
import errno
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .kernels import PiecewiseKernel, closed_form_kernel, eval_kernel_grid, space_spec

@dataclass(frozen=True)
class WaveOperator:
    """Coefficients of alpha d2/dt2 - gamma d2/dx2 on the canonical square."""

    alpha: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        a, g = self.alpha, self.gamma  # gram_matrix forms a^2, a g and g^2; NaN fails
        if not all(0.0 < v < np.inf for v in (a, g, a * a, a * g, g * g)):
            raise ValueError(f"coefficients {a}, {g} and products must be positive and finite")


_SPACE_ID = "R_spatial"
_PQ = ((0, 0), (0, 2), (2, 2))  # the derivative orders of the kernel matrices formed


def _kernel_set(m00: np.ndarray, m02: np.ndarray, m22: np.ndarray) -> dict:
    """{(p, q): matrix}, [0, 0] and [2, 2] mirrored from their lower triangles, [2, 0] = [0, 2]^T."""
    m00, m22 = (np.tril(m) + np.tril(m, -1).T for m in (m00, m22))
    return {(0, 0): m00, (0, 2): m02, (2, 0): m02.T, (2, 2): m22}


@dataclass(frozen=True)
class RepresenterBasis:
    """Representer functions Psi_i on the tensor grid of collocation points.

    ``xis`` and ``taus`` become tuples of floats, nonempty and strictly
    increasing or ValueError.  Point i = j nx + k is (xis[k], taus[j]),
    listed in that order by ``points``.  The kernels are the order-3
    closed forms R of the space and r of the time factor
    (``kernels.closed_form_kernel``).
    """

    operator: WaveOperator
    xis: tuple[float, ...]
    taus: tuple[float, ...]
    points: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)
    space_kernel: PiecewiseKernel = field(init=False, repr=False, compare=False)
    time_kernel: PiecewiseKernel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("xis", "taus"):
            coords = tuple(float(v) for v in getattr(self, name))
            if not coords or not all(lo < hi for lo, hi in zip(coords, coords[1:])):
                raise ValueError(f"{name} must be nonempty and strictly increasing, got {coords}")
            object.__setattr__(self, name, coords)
        object.__setattr__(self, "points", tuple((x, t) for t in self.taus for x in self.xis))
        object.__setattr__(self, "space_kernel", closed_form_kernel(_SPACE_ID))
        object.__setattr__(self, "time_kernel", closed_form_kernel("r_temporal"))

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def kernel_matrices(self) -> tuple[dict, dict]:
        """(R, T): R[p, q][k, l] = d^p_x d^q_y R(xis[k], xis[l]), p, q in {0, 2}; T on taus.

        The kernels are symmetric: [0, 0] and [2, 2] are mirrored from their lower
        triangle and [2, 0] is [0, 2] transposed, so ``gram_matrix`` is bitwise symmetric.
        """
        return tuple(_kernel_set(*(eval_kernel_grid(k, c, c, p, q) for p, q in _PQ))
                     for k, c in ((self.space_kernel, self.xis), (self.time_kernel, self.taus)))

    @cached_property
    def mirror_halves(self) -> tuple[tuple[np.ndarray, dict], ...] | None:
        """(fold, space) of the even, then the odd half of the basis, or None where it has none.

        In each time row j the half's k-th representer is
        sum_l fold[l, k] Psi_(j nx + l), and ``space`` holds fold^T R[p, q] fold,
        bitwise symmetric as R is.

        A fold needs xis[k] + xis[k'] == 1.0 exactly, k' = nx-1-k, and a
        mirror-symmetric space (``SpaceSpec.mirror_symmetric``), so that
        R[p, q][k', l'] = R[p, q][k, l].  The even half weighs each pair k < k'
        by (1/2, 1/2) and the middle point of an odd nx by 1, the odd half each
        pair by (1/2, -1/2).  Even and odd representers are orthogonal in W, so
        A splits into the halves' Gram matrices, of orders nt ceil(nx/2) and
        nt floor(nx/2), which ``gram_matrix`` assembles from their ``space``.
        None also for nx = 1, which has no odd half.
        """
        xis, nx = self.xis, len(self.xis)
        if (nx < 2 or not space_spec(_SPACE_ID).mirror_symmetric
                or any(lo + hi != 1.0 for lo, hi in zip(xis, reversed(xis)))):
            return None
        r, pairs = self.kernel_matrices[0], np.arange(nx // 2)
        halves = []
        for sign, width in ((0.5, nx - len(pairs)), (-0.5, len(pairs))):
            fold = np.zeros((nx, width))
            fold[pairs, pairs] = 0.5
            fold[nx - 1 - pairs, pairs] = sign
            if width > len(pairs):  # the middle point of odd nx, on its own
                fold[width - 1, width - 1] = 1.0
            halves.append((fold, _kernel_set(*(fold.T @ r[pq] @ fold for pq in _PQ))))
        return tuple(halves)


def _shift_to_one(coef: np.ndarray) -> np.ndarray:
    """Coefficients in s = x - 1 of the polynomials sum_p coef[p] x^p, one per column.

    Repeated synthetic division by x - 1.  Row 0, the value at x = 1, is
    summed from the top power down, the order of the Horner sum that
    ``kernels._polish_columns_at_one`` drives to zero, so a polished column
    keeps its exact zero there.
    """
    out = np.array(coef, dtype=float)
    n = len(out)
    for j in range(n - 1):
        for i in range(n - 2, j - 1, -1):
            out[i] += out[i + 1]
    return out


@dataclass(frozen=True, eq=False)
class SeriesTable:
    """The series v = sum_k c_k Psi_k in piecewise-polynomial form on the coordinate grid.

    ``xis`` and ``taus`` are the grid coordinates, ascending.  A point
    (xi, tau) lies in cell (b, a) with b = bisect_left(taus, tau) and
    a = bisect_left(xis, xi), so basis point (taus[j], xis[i]) sits on the
    lower kernel branch in time iff j >= b and in space iff i >= a, exactly
    the x <= y rule of ``eval_kernel_grid``.  On each cell the series is one
    bivariate polynomial of degree 5 in each variable (the pp-form of a
    spline), and ``poly[b, a]`` holds its coefficients: entry [p, q]
    multiplies tau^p s^q, and q times it multiplies tau^p s^(q-1) in dv/dxi.

    s is xi in every column of cells but the last, a = len(xis), where
    s = xi - 1.  There every basis point is on the upper space branch,
    whose value at xi = 1 is exactly 0 only as the Horner sum polished by
    ``kernels._polish_columns_at_one``; expanding about xi = 1 makes that
    sum the s^0 coefficient, so v is exactly 0 at xi = 1.  At xi = 0 and
    tau = 0 it is exactly 0 because the first column and row of cells use
    only lower branches, whose constant rows are exactly zero.

    ``value`` finds the point's cell by two bisections and one dict lookup,
    unpacks its 36 coefficients once and sums them by Horner's rule, unrolled,
    with no numpy arithmetic: v in s within each row and then in tau across
    the rows, dv/dxi in tau down each column q >= 1 and then in s with the
    factors q.  Each sum in tau starts from 0.0 * tau, as a loop from 0.0
    over the rows does, so the bits are those of that loop form
    (``tests/oracles.py``'s ``series_value``), signed zeros included.  At s = 0
    each row of v reduces to its s^0 entry and at tau = 0 the sum to row 0,
    so the exact zeros above survive.  A point costs the same at any basis size.

    The coefficients are kept as one flat tuple of Python floats per cell,
    row by row (entry 6 p + q multiplies tau^p s^q), under the int key
    b (len(xis) + 1) + a.  A cell's tuple is converted from ``poly[b, a]``
    on its first visit, so a later point in that cell does no numpy work and
    a cell no point visits costs nothing; ``poly`` is read-only, so the
    tuples cannot go stale.
    """

    xis: tuple[float, ...]
    taus: tuple[float, ...]
    poly: np.ndarray = field(repr=False)
    _cells: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        self.poly.setflags(write=False)  # the tuples in _cells are copies of it

    def value(self, xi: float, tau: float, dx: int = 0) -> float:
        """d^dx/dxi^dx of the series at a canonical point."""
        if dx not in (0, 1):
            raise ValueError("dx must be 0 or 1")
        xis = self.xis
        a = bisect_left(xis, xi)
        b = bisect_left(self.taus, tau)
        nx = len(xis)
        key = b * (nx + 1) + a
        coefs = self._cells.get(key)
        if coefs is None:
            coefs = self._cells[key] = tuple(self.poly[b, a].ravel().tolist())
        s = xi - 1.0 if a == nx else xi
        (c00, c01, c02, c03, c04, c05, c10, c11, c12, c13, c14, c15,
         c20, c21, c22, c23, c24, c25, c30, c31, c32, c33, c34, c35,
         c40, c41, c42, c43, c44, c45, c50, c51, c52, c53, c54, c55) = coefs
        if dx == 0:
            return ((((((0.0 * tau
                         + (c50 + s * (c51 + s * (c52 + s * (c53 + s * (c54 + s * c55)))))) * tau
                        + (c40 + s * (c41 + s * (c42 + s * (c43 + s * (c44 + s * c45)))))) * tau
                       + (c30 + s * (c31 + s * (c32 + s * (c33 + s * (c34 + s * c35)))))) * tau
                      + (c20 + s * (c21 + s * (c22 + s * (c23 + s * (c24 + s * c25)))))) * tau
                     + (c10 + s * (c11 + s * (c12 + s * (c13 + s * (c14 + s * c15)))))) * tau
                    + (c00 + s * (c01 + s * (c02 + s * (c03 + s * (c04 + s * c05))))))
        zero = 0.0 * tau
        d1 = (((((zero + c51) * tau + c41) * tau + c31) * tau + c21) * tau + c11) * tau + c01
        d2 = (((((zero + c52) * tau + c42) * tau + c32) * tau + c22) * tau + c12) * tau + c02
        d3 = (((((zero + c53) * tau + c43) * tau + c33) * tau + c23) * tau + c13) * tau + c03
        d4 = (((((zero + c54) * tau + c44) * tau + c34) * tau + c24) * tau + c14) * tau + c04
        d5 = (((((zero + c55) * tau + c45) * tau + c35) * tau + c25) * tau + c15) * tau + c05
        return d1 + s * (2.0 * d2 + s * (3.0 * d3 + s * (4.0 * d4 + s * 5.0 * d5)))


def series_table(basis: RepresenterBasis, weights) -> SeriesTable:
    """Tabulate sum_k weights[k] Psi_k for ``SeriesTable.value``.

    As in ``collocation_values`` it is alpha T2 C X0^T - gamma T0 C X2^T, but
    each kernel matrix holds kernel sections cell by cell: row 6 b + p,
    column j of T0 is the tau^p coefficient of r(tau, taus[j]) in time cell
    b, from the lower branch iff j >= b, and T2 holds those of d2r/ds2.  X0
    and X2 hold the s^q ones of R and d2R/dy2 in the space cells, s = xi - 1
    past the last xi.  Row block b, column block a is ``poly[b, a]``.
    """
    rk, tk = basis.space_kernel, basis.time_kernel
    sections = []  # T0, T2, X0, X2
    for k, coords, last in ((tk, basis.taus, tk.upper), (rk, basis.xis, _shift_to_one(rk.upper))):
        y, q = np.array(coords), np.arange(6)[:, None]
        lower = np.arange(len(y)) >= np.arange(len(y))[:, None, None]  # [b, 0, j], b < n
        for v in (y ** q, q * (q - 1) * y ** np.maximum(q - 2, 0)):  # y_j^q and its d2/dy2
            cells = np.where(lower, k.lower @ v, k.upper @ v).reshape(-1, len(y))
            sections.append(np.concatenate([cells, last @ v]))  # and the cell past y[-1]
    t0, t2, x0, x2 = sections
    nt, nx = len(basis.taus), len(basis.xis)
    c = np.reshape(weights, (nt, nx))
    poly = basis.operator.alpha * t2 @ c @ x0.T - basis.operator.gamma * t0 @ c @ x2.T
    return SeriesTable(basis.xis, basis.taus, poly.reshape(nt + 1, 6, nx + 1, 6).swapaxes(1, 2))


def _mapped_empty(n: int) -> np.ndarray:
    """An uninitialized n x n float array in a private anonymous memory mapping of its own.

    Freeing the array unmaps its pages.  From glibc's heap, a freed block of a
    few MB stays resident and the next one may not fit back once smaller blocks
    split the hole, so peak RSS would depend on where earlier blocks landed.
    Huge pages, which numpy asks for on arrays of 4 MiB and up, make the first
    write fault once per 2 MiB instead of once per 4 KiB page.  A mapping the
    system refuses for want of memory raises MemoryError naming n and the bytes.
    """
    import mmap  # here, as in numpy.memmap, so that importing rkwave does not load it

    try:
        buf = mmap.mmap(-1, 8 * n * n, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    except OSError as exc:
        if exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"cannot map the Gram matrix of N = {n} basis functions "
                          f"({8 * n * n} bytes): {exc.strerror}") from None
    with contextlib.suppress(AttributeError, OSError):  # a platform without huge pages
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf).reshape(n, n)


def gram_matrix(basis: RepresenterBasis, space: dict | None = None) -> np.ndarray:
    """The Gram matrix A_ij = (L Psi_j)(x_i, t_i), each term a Kronecker product on the grid,

        A = a^2 T22 (x) R00 - a g (T02 (x) R20 + T20 (x) R02) + g^2 T00 (x) R22.

    A is written one time row j at a time, each (nx, nt, nx) slab through one
    slab of scratch by the elementwise operations of the four np.kron products
    in that order, so assembly holds one N x N array and rounds as the formula does.
    A has a memory mapping of its own (``_mapped_empty``), unmapped when A is freed.
    With the ``space`` of one of ``basis.mirror_halves`` in place of R, the
    result is the Gram matrix of that half's representers.
    """
    r, t = basis.kernel_matrices
    if space is not None:
        r = space
    a, g = basis.operator.alpha, basis.operator.gamma
    nt, nx = len(basis.taus), len(r[0, 0])
    out, term = _mapped_empty(nt * nx).reshape(nt, nx, nt, nx), np.empty((nx, nt, nx))
    t02, t20, t22, t00 = (m[:, None, :, None] for m in (t[0, 2], t[2, 0], t[2, 2], t[0, 0]))
    r20, r02, r00, r22 = (m[:, None, :] for m in (r[2, 0], r[0, 2], a * a * r[0, 0],
                                                  g * g * r[2, 2]))
    for j, row in enumerate(out):  # row[i, l, k] = t..[j, l] r..[i, k], as np.kron
        np.multiply(t02[j], r20, out=row)
        row += np.multiply(t20[j], r02, out=term)
        row *= a * g
        np.subtract(np.multiply(t22[j], r00, out=term), row, out=row)
        row += np.multiply(t00[j], r22, out=term)
    return out.reshape(nt * nx, nt * nx)


def collocation_values(basis: RepresenterBasis, weights) -> np.ndarray:
    """sum_k weights[k] Psi_k at the collocation points, in the order of ``basis.points``.

    With the weights as an nt x nx matrix C that is a T02 C R00^T - g T00 C R02^T.
    """
    r, t = basis.kernel_matrices
    op = basis.operator
    c = np.reshape(weights, (len(basis.taus), len(basis.xis)))
    return (op.alpha * t[0, 2] @ c @ r[0, 0].T - op.gamma * t[0, 0] @ c @ r[0, 2].T).ravel()
