"""The paper's printed kernel coefficient tables, as exact fractions.

The package derives every kernel at runtime; these tables are the
independent reference it is checked against.  Each space maps to its
(lower, upper) branch matrices, 6x6, entry [i][j] multiplying x^i y^j, lower
for x <= y.  One printed entry is wrong: R_spatial lower[4][5] reads 1/2938
where the kernel identities (and the printed upper[5][4]) give 1/2928.
"""

from fractions import Fraction as F

import numpy as np

from rkwave import kernels
from rkwave.kernels import PiecewiseKernel

from oracles import spec_of


def _matrix(rows: dict) -> list:
    mat = [[F(0)] * 6 for _ in range(6)]
    for i, row in rows.items():
        mat[i] = [F(v) for v in row]
    return mat


def _transpose(mat: list) -> list:
    return [list(col) for col in zip(*mat)]


_R_LOWER = _matrix({
    1: [0, F(31, 61), F(-127, 244), 0, F(5, 244), F(-1, 122)],
    2: [0, F(-127, 244), F(1137, 1952), F(-1, 12), F(127, 5856), F(-1, 2928)],
    4: [0, F(-31, 1464), F(127, 5856), 0, F(-5, 5856), F(1, 2938)],  # misprint
    5: [F(1, 120), F(-1, 122), F(-1, 2928), 0, F(1, 2928), F(-1, 7320)],
})
_R_UPPER = _matrix({
    0: [0, 0, 0, 0, 0, F(1, 120)],
    1: [0, F(31, 61), F(-127, 244), 0, F(-31, 1464), F(-1, 122)],
    2: [0, F(-127, 244), F(1137, 1952), 0, F(127, 5856), F(-1, 2928)],
    3: [0, 0, F(-1, 12), 0, 0, 0],
    4: [0, F(5, 244), F(127, 5856), 0, F(-5, 5856), F(1, 2928)],
    5: [0, F(-1, 122), F(-1, 2928), 0, F(1, 2928), F(-1, 7320)],
})
# (1/4) x^2 y^2 + (1/12) x^3 y^2 - (1/24) x^4 y + (1/120) x^5 on x <= y
_RT_LOWER = _matrix({
    2: [0, 0, F(1, 4), 0, 0, 0],
    3: [0, 0, F(1, 12), 0, 0, 0],
    4: [0, F(-1, 24), 0, 0, 0, 0],
    5: [F(1, 120), 0, 0, 0, 0, 0],
})
# 1 + min(x, y)
_W21_LOWER = _matrix({0: [1, 0, 0, 0, 0, 0], 1: [1, 0, 0, 0, 0, 0]})
_W21_UPPER = _matrix({0: [1, 1, 0, 0, 0, 0]})

PRINTED = {
    "R_spatial": (_R_LOWER, _R_UPPER),
    "r_temporal": (_RT_LOWER, _transpose(_RT_LOWER)),
    "Q_spatial": (_W21_LOWER, _W21_UPPER),
    "q_temporal": (_W21_LOWER, _W21_UPPER),
}

# the one misprint: (space, branch, i, j) -> (printed, correct)
MISPRINTS = {("R_spatial", "lower", 4, 5): (F(1, 2938), F(1, 2928))}


def corrected_tables(space_id: str) -> dict:
    """The printed (lower, upper) branches with the misprint corrected, as exact fractions."""
    branches = {"lower": [row[:] for row in PRINTED[space_id][0]],
                "upper": [row[:] for row in PRINTED[space_id][1]]}
    for (sid, branch, i, j), (_, correct) in MISPRINTS.items():
        if sid == space_id:
            branches[branch][i][j] = correct
    return branches


def table_kernel(space_id: str) -> PiecewiseKernel:
    """The printed tables with the misprint corrected, rounded to doubles.

    Only their leading 2m x 2m block is kept, the size of an order-m
    kernel's branches; ``printed_vs_exact`` checks that the rest is zero.
    """
    branches = corrected_tables(space_id)
    spec = spec_of(space_id)
    n = 2 * spec.order
    return PiecewiseKernel(np.array(branches["lower"], dtype=float)[:n, :n],
                           np.array(branches["upper"], dtype=float)[:n, :n], spec)


def printed_vs_exact(space_id: str) -> list:
    """(branch, i, j, printed, derived) for every printed entry that differs
    from the package's exact derivation."""
    c = kernels._exact_coefficients(spec_of(space_id))
    n = len(c)
    derived_lower = [[c[i][j] if i < n and j < n else F(0) for j in range(6)] for i in range(6)]
    derived = {"lower": derived_lower, "upper": _transpose(derived_lower)}
    diffs = []
    for branch, printed in zip(("lower", "upper"), PRINTED[space_id]):
        for i in range(6):
            for j in range(6):
                if printed[i][j] != derived[branch][i][j]:
                    diffs.append((branch, i, j, printed[i][j], derived[branch][i][j]))
    return diffs
