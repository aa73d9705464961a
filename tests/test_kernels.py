import logging
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from rkwave import kernels
from rkwave.errors import SingularSystem
from rkwave.kernels import (
    PiecewiseKernel,
    SpaceSpec,
    closed_form_kernel,
    derive_kernel_oracle,
    eval_kernel_grid,
)

from conftest import poly, sinusoid
from oracles import (
    SPACE_IDS,
    DiagonalDerivativeUndefined,
    branch,
    inner_product,
    kernel,
    kernel_of,
    section,
    spec_of,
)
from paper_tables import MISPRINTS, corrected_tables, printed_vs_exact, table_kernel

ORDER3_IDS = ("R_spatial", "r_temporal")

# per-space test functions satisfying the essential constraints, with
# analytic derivatives up to order m
MEMBERS = {
    "R_spatial": [poly(0, 1, -1), sinusoid(np.pi), poly(0, 0, 1, -2, 1)],
    "r_temporal": [poly(0, 0, 1), poly(0, 0, 0, 1), poly(0, 0, 1, 1, -0.5)],
    "Q_spatial": [poly(1, 2), sinusoid(1.3, 0.4), poly(0.5, 0, 2)],
    "q_temporal": [poly(2, -1), sinusoid(0.7, 1.0), poly(0, 1, 0, 3)],
}


def test_space_specs():
    # each kernel carries the space it reproduces
    assert closed_form_kernel("R_spatial").spec == SpaceSpec(
        3, ((0, 0), (0, 1)), ((0, 0), (1, 0), (1, 1)))
    assert closed_form_kernel("r_temporal").spec == SpaceSpec(
        3, ((0, 0), (1, 0)), ((0, 0), (1, 0), (2, 0)))
    assert spec_of("Q_spatial").essential_constraints == ()
    for spec in map(spec_of, SPACE_IDS):
        assert derive_kernel_oracle(spec).spec is spec
    for bad in ("bogus", "Q_spatial"):  # the order-1 specs are test oracles only
        with pytest.raises(ValueError, match="'R_spatial', 'r_temporal'"):
            closed_form_kernel(bad)


def test_w21_kernel_is_one_plus_min():
    q = kernel_of("Q_spatial")
    rng = np.random.default_rng(7)
    xs, ys = rng.random(100), rng.random(100)
    got = eval_kernel_grid(q, xs, ys)
    assert np.max(np.abs(got - (1.0 + np.minimum.outer(xs, ys)))) < 1e-14


def test_eval_q_examples():
    q = kernel_of("q_temporal")
    assert kernel(q, 0.3, 0.5) == pytest.approx(1.3, abs=1e-15)
    assert kernel(q, 0.5, 0.3) == pytest.approx(1.3, abs=1e-15)


def test_r_temporal_diagonal_value():
    r = closed_form_kernel("r_temporal")
    lo = float(branch(r, "lower", 0.5, 0.5))
    up = float(branch(r, "upper", 0.5, 0.5))
    assert lo == pytest.approx(0.0171875, abs=1e-15)
    assert up == pytest.approx(0.0171875, abs=1e-15)


def test_r_spatial_printed_entries():
    R = closed_form_kernel("R_spatial")
    assert R.lower[0].tolist() == [0.0] * 6   # c1 = 0
    assert R.upper[0, 5] == 1 / 120           # d1 = y^5/120
    q = kernel_of("Q_spatial")
    assert q.lower[0, 0] == 1.0 and q.lower[1, 0] == 1.0  # 1 + x lower branch


@pytest.mark.parametrize("sid", SPACE_IDS)
def test_kernel_coefficients_exactly_symmetric(sid):
    k = kernel_of(sid)
    assert np.array_equal(k.upper, k.lower.T)
    # branches come at their natural size, 2m x 2m; zero padding is rejected
    n = 2 * k.spec.order
    assert k.lower.shape == (n, n)
    padded = np.pad(k.lower, (0, 2))
    with pytest.raises(ValueError, match="2m x 2m"):
        PiecewiseKernel(padded, padded.T, k.spec)


def test_misprinted_entry_holds_exact_value():
    assert closed_form_kernel("R_spatial").lower[4, 5] == 1 / 2928


def test_building_kernels_logs_nothing(caplog):
    caplog.set_level(logging.DEBUG)
    closed_form_kernel.cache_clear()
    kernel_of.cache_clear()
    for sid in SPACE_IDS:
        kernel_of(sid)
    assert caplog.records == []


def test_essential_constraints_in_argument_slot():
    R = closed_form_kernel("R_spatial")
    ys = np.linspace(0.01, 0.99, 40)
    assert np.max(np.abs(eval_kernel_grid(R, [0.0], ys))) == 0.0
    # exact at x = 1 too: the polished column sums of the upper branch
    # vanish in Horner order
    assert np.max(np.abs(eval_kernel_grid(R, [1.0], ys))) == 0.0
    assert kernel(R, 0.0, 0.37) == 0.0
    r = closed_form_kernel("r_temporal")
    assert np.max(np.abs(eval_kernel_grid(r, [0.0], ys))) == 0.0
    assert np.max(np.abs(eval_kernel_grid(r, [0.0], ys, dx=1))) == 0.0


@pytest.mark.parametrize("sid", ORDER3_IDS)
def test_grid_matches_scalar_oracle(sid):
    # the orders the solve uses, off the diagonal and on it (where the
    # kernel matrices of a grid have their diagonal)
    k = closed_form_kernel(sid)
    rng = np.random.default_rng(3)
    xs = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 9)])
    ys = rng.uniform(0.0, 1.0, 7)
    for dx in range(3):
        for dy in range(3):
            for x, y in ((xs, ys), (xs, xs), (ys[:1], xs)):
                want = kernel(k, x[:, None], y[None, :], dx, dy)
                got = eval_kernel_grid(k, x, y, dx, dy)
                assert got.shape == (len(x), len(y))
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 1e-13 * scale, (dx, dy, len(x), len(y))
    with pytest.raises(ValueError):
        eval_kernel_grid(k, xs[:, None], ys)


@pytest.mark.parametrize("sid", SPACE_IDS)
def test_symmetry(sid):
    k = kernel_of(sid)
    pts = np.linspace(0.0, 1.0, 50)
    v1 = eval_kernel_grid(k, pts, pts)
    assert np.max(np.abs(v1 - v1.T)) < 1e-12


@pytest.mark.parametrize("sid", SPACE_IDS)
def test_diagonal_continuity(sid):
    k = kernel_of(sid)
    m = k.spec.order
    ys = np.linspace(0.05, 0.95, 20)
    for total in range(2 * m - 1):
        for dx in range(total + 1):
            dy = total - dx
            lo = branch(k, "lower", ys, ys, dx, dy)
            up = branch(k, "upper", ys, ys, dx, dy)
            assert np.max(np.abs(lo - up)) < 1e-10, (total, dx, dy)


@pytest.mark.parametrize("sid", SPACE_IDS)
def test_unit_jump_in_top_derivative(sid):
    # the (2m-1)-th x-derivative jumps by exactly 1 (lower minus upper),
    # which is what turns the integral term into point evaluation
    k = kernel_of(sid)
    m = k.spec.order
    ys = np.linspace(0.1, 0.9, 15)
    lo = branch(k, "lower", ys, ys, 2 * m - 1, 0)
    up = branch(k, "upper", ys, ys, 2 * m - 1, 0)
    assert np.max(np.abs((lo - up) - 1.0)) < 1e-8


def test_diagonal_derivative_guard():
    # the kernels are C^4 across the diagonal (C^0 at order 1); the oracle
    # refuses any higher derivative there, also inside an array
    r = closed_form_kernel("r_temporal")
    with pytest.raises(DiagonalDerivativeUndefined):
        kernel(r, 0.5, 0.5, dx=3, dy=2)
    with pytest.raises(DiagonalDerivativeUndefined):
        kernel(r, [0.2, 0.5], 0.5, dx=5)
    # total order 4 = 2m-2 is still continuous
    kernel(r, 0.5, 0.5, dx=2, dy=2)
    kernel(r, [0.2, 0.4], 0.5, dx=5)
    q = kernel_of("Q_spatial")
    with pytest.raises(DiagonalDerivativeUndefined):
        kernel(q, 0.3, 0.3, dx=1)
    with pytest.raises(ValueError):
        kernel(q, 0.2, 0.3, dx=-1)


@pytest.mark.parametrize("sid", SPACE_IDS)
def test_reproducing_property(sid):
    spec = spec_of(sid)
    k = kernel_of(sid)
    for u in MEMBERS[sid]:
        for y in np.linspace(0.03, 0.97, 20):
            got = inner_product(spec, u, section(k, y), split_at=(y,))
            assert abs(got - float(u(y))) < 1e-8, (sid, y)


def test_inner_product_examples():
    spec = spec_of("R_spatial")
    R = closed_form_kernel("R_spatial")
    u = poly(0, 1, -1)  # x(1-x)
    got = inner_product(spec, u, section(R, 0.3), split_at=(0.3,))
    assert got == pytest.approx(0.21, abs=1e-10)

    spec_t = spec_of("r_temporal")
    r = closed_form_kernel("r_temporal")
    got = inner_product(spec_t, poly(0, 0, 1), section(r, 0.7), split_at=(0.7,))
    assert got == pytest.approx(0.49, abs=1e-10)

    zero = poly(0)
    assert inner_product(spec, zero, zero) == 0.0


@pytest.mark.parametrize("sid", SPACE_IDS)
def test_positive_semidefinite(sid):
    k = kernel_of(sid)
    rng = np.random.default_rng(11)
    for _ in range(5):
        pts = rng.random(rng.integers(2, 25))
        gram = eval_kernel_grid(k, pts, pts)
        assert np.min(np.linalg.eigvalsh(gram)) > -1e-10


@pytest.mark.parametrize("sid", SPACE_IDS)
def test_oracle_matches_closed_form(sid):
    # the runtime kernel against the paper's tables with the misprint fixed
    k = kernel_of(sid)
    table = table_kernel(sid)
    assert np.max(np.abs(k.lower - table.lower)) < 1e-10
    assert np.max(np.abs(k.upper - table.upper)) < 1e-10
    rng = np.random.default_rng(3)
    xs, ys = rng.random(100), rng.random(100)
    diff = eval_kernel_grid(k, xs, ys) - eval_kernel_grid(table, xs, ys)
    assert np.max(np.abs(diff)) < 1e-10


def test_printed_tables_differ_from_derivation_in_single_misprint():
    diffs = printed_vs_exact("R_spatial")
    assert len(diffs) == 1
    branch, i, j, printed, derived = diffs[0]
    assert (printed, derived) == MISPRINTS[("R_spatial", branch, i, j)]
    assert (branch, i, j) == ("lower", 4, 5)
    for sid in ("r_temporal", "Q_spatial", "q_temporal"):
        assert printed_vs_exact(sid) == []


def exact_kernel(c, x, y):
    """K(x, y) from the exact lower-branch coefficients c[i][j] of x^i y^j on x <= y."""
    x, y = min(x, y), max(x, y)  # the upper branch is the lower one with x, y swapped
    return sum(c[i][j] * x ** i * y ** j for i in range(len(c)) for j in range(len(c)))


def exact_jump(c, d, y):
    """d^d/dx^d of the lower minus the upper branch at x = y, from the exact coefficients c."""
    n = len(c)
    return sum(math.perm(i, d) * (c[i][j] - c[j][i]) * y ** (i - d + j)
               for i in range(d, n) for j in range(n))


def exact_pivots(mat):
    """The pivots of Gaussian elimination without row exchanges, in exact arithmetic."""
    a = [row[:] for row in mat]
    pivots = []
    for k in range(len(a)):
        pivots.append(a[k][k])
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [v - f * w for v, w in zip(a[i], a[k])]
    return pivots


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_kernel_is_positive_definite_at_every_order(m):
    # a space of order m pinning u^(d)(0) for d < max(1, m-1); the jump of
    # the top derivative carries the sign (-1)^(m-1), so even orders too
    # give a positive kernel, not its negative
    spec = SpaceSpec(m, tuple((d, 0) for d in range(max(1, m - 1))),
                     tuple((d, 0) for d in range(m)))
    c = kernels._exact_coefficients(spec)
    ys = [Fraction(k, 10) for k in range(1, 10)]
    assert all(exact_kernel(c, y, y) > 0 for y in ys)
    gram = [[exact_kernel(c, x, y) for y in ys] for x in ys]
    # every leading minor positive (Sylvester), so the matrix is positive definite
    assert all(p > 0 for p in exact_pivots(gram))
    # C^(2m-2) across the diagonal and the jump (-1)^(m-1) of the (2m-1)-th derivative
    jumps = [0] * (2 * m - 1) + [(-1) ** (m - 1)]
    assert all([exact_jump(c, d, y) for d in range(2 * m)] == jumps for y in ys)


def exact_derivative(c, x, y, dx, dy):
    """d^dx_x d^dy_y K(x, y) from the exact lower-branch coefficients c, branch x <= y."""
    n = len(c)
    coef = (lambda i, j: c[i][j]) if x <= y else (lambda i, j: c[j][i])
    return sum(coef(i, j) * math.perm(i, dx) * math.perm(j, dy) * x ** (i - dx) * y ** (j - dy)
               for i in range(dx, n) for j in range(dy, n))


@pytest.mark.parametrize("dx, dy", [(0, 0), (0, 2), (2, 2), (3, 3)])
def test_grid_evaluates_an_order4_kernel(dx, dy):
    # 8x8 branches; dx + dy <= 2m - 2 = 6 keeps the diagonal points valid.
    # The points are dyadic, so each double is the rational it stands for
    spec = SpaceSpec(4, ((0, 0), (1, 0), (2, 0)), ((0, 0), (1, 0), (2, 0), (3, 0)))
    c = kernels._exact_coefficients(spec)
    pts = [Fraction(k, 16) for k in (0, 1, 5, 8, 11, 16)]
    got = eval_kernel_grid(derive_kernel_oracle(spec), [float(p) for p in pts],
                           [float(p) for p in pts[1:4]], dx, dy)
    want = np.array([[float(exact_derivative(c, x, y, dx, dy)) for y in pts[1:4]] for x in pts])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("spec, mirrored", [
    (spec_of("R_spatial"), True),
    (spec_of("r_temporal"), False),
    # the order-4 space of the accuracy study: u''(0) is a discrete term, u''(1) is not
    (SpaceSpec(4, ((0, 0), (0, 1)), ((0, 0), (1, 0), (1, 1), (2, 0))), False),
    (SpaceSpec(4, ((0, 0), (0, 1)), ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1))), True),
    # a discrete term at a pinned value is zero, so it breaks no symmetry
    (SpaceSpec(2, ((0, 0), (0, 1)), ((0, 0),)), True),
    (SpaceSpec(2, ((0, 0), (0, 1)), ((0, 0), (1, 0))), False),
    (SpaceSpec(1, (), ((0, 0), (0, 1))), True),
    (spec_of("Q_spatial"), False),
], ids=["R_spatial", "r_temporal", "order4_space", "order4_both_ends", "order2_pinned_term",
        "order2_one_end", "order1_both_ends", "Q_spatial"])
def test_mirror_symmetric_spec_iff_the_kernel_is(spec, mirrored):
    # K(1 - x, 1 - y) = K(x, y) in exact rationals exactly when the spec says so
    c = kernels._exact_coefficients(spec)
    pts = [Fraction(k, 7) for k in range(8)]
    flipped = all(exact_derivative(c, x, y, 0, 0) == exact_derivative(c, 1 - x, 1 - y, 0, 0)
                  for x in pts for y in pts)
    assert spec.mirror_symmetric is mirrored
    assert flipped is mirrored


@pytest.mark.parametrize("sid", ORDER3_IDS)
def test_order3_coefficients_are_exactly_the_corrected_tables(sid):
    assert kernels._exact_coefficients(spec_of(sid)) == corrected_tables(sid)["lower"]


def test_oracle_rejects_degenerate_space():
    # no discrete terms: the bilinear form is degenerate, no kernel exists
    for m in (1, 2, 3):
        with pytest.raises(SingularSystem):
            derive_kernel_oracle(SpaceSpec(m, (), ()))


@pytest.mark.parametrize("args, named", [
    ((3, ((0, 0), (0, 1)), ((0, 0), (1, 0), (1, 1), (3, 0))), "u^(3)(0)"),
    ((3, ((0, 0), (0, 1)), ((0, 0), (1, 0), (1, 1), (1, 2))), "u^(1)(2)"),
    ((3, ((0, 0), (0, 0.5)), ((0, 0), (1, 0), (1, 1))), "u^(0)(0.5)"),
    ((3, ((-1, 0), (0, 1)), ((0, 0), (1, 0), (1, 1))), "u^(-1)(0)"),
    ((0, (), ()), "order must be >= 1"),
], ids=["d=order", "e=2", "e=0.5", "d=-1", "order 0"])
def test_space_spec_rejects_terms_it_cannot_mean(args, named):
    # a term past the boundary values u^(d)(e), d < m, e in {0, 1} would be
    # dropped by the derivation, or fail inside it
    with pytest.raises(ValueError, match=re.escape(named)):
        SpaceSpec(*args)


def _pmul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _pder(p, d):
    return [math.perm(i, d) * c for i, c in enumerate(p)][d:] or [Fraction(0)]


def _pval(p, x):
    return sum(c * x ** i for i, c in enumerate(p))


def _pint(p, a, b):
    return sum(c * (b ** (i + 1) - a ** (i + 1)) / (i + 1) for i, c in enumerate(p))


@pytest.mark.parametrize("spec", [
    spec_of("R_spatial"),
    spec_of("r_temporal"),
    spec_of("Q_spatial"),
    SpaceSpec(2, ((0, 0),), ((0, 0), (1, 0))),
    SpaceSpec(4, ((0, 0), (0, 1)), ((0, 0), (1, 0), (1, 1), (2, 0))),
    SpaceSpec(4, ((0, 0), (1, 0)), ((0, 0), (1, 0), (2, 0), (3, 0))),
    SpaceSpec(5, ((0, 0), (1, 0)), tuple((d, 0) for d in range(5))),
    SpaceSpec(5, ((0, 0), (0, 1)), ((0, 0), (1, 0), (1, 1), (2, 0), (3, 1))),
], ids=["R_spatial", "r_temporal", "Q_spatial", "order2", "order4_space", "order4_time",
        "order5_time", "order5_space"])
def test_kernel_reproduces_point_values_exactly(spec):
    # <u, K(., y)> = u(y) in exact rationals for a member u = x^a (1-x)^b q,
    # its zeros at 0 and 1 one order past the space's essential constraints;
    # the upper branch is the transposed lower one, so symmetry is checked too
    m = spec.order
    c = kernels._exact_coefficients(spec)
    u = [Fraction(1), Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)]
    for e, root in ((0, [0, 1]), (1, [1, -1])):
        for _ in range(1 + max((d for d, ee in spec.essential_constraints if ee == e), default=-1)):
            u = _pmul(u, root)
    for y in (Fraction(1, 7), Fraction(1, 2), Fraction(5, 6)):
        lower = [_pval(row, y) for row in c]
        upper = [_pval(col, y) for col in zip(*c)]
        got = sum(_pval(_pder(u, d), e) * _pval(_pder(upper if e else lower, d), e)
                  for d, e in spec.discrete_terms)
        got += _pint(_pmul(_pder(u, m), _pder(lower, m)), 0, y)
        got += _pint(_pmul(_pder(u, m), _pder(upper, m)), y, 1)
        assert got == _pval(u, y), (y, got - _pval(u, y))


def test_polish_gives_the_bits_of_the_per_entry_loop():
    # the reference: per column, three passes that each sum the column from
    # the top power down and take the sum off its last entry
    def reference(mat):
        for j in range(mat.shape[1]):
            for _ in range(3):
                s = 0.0
                for i in range(mat.shape[0] - 1, -1, -1):
                    s += mat[i, j]
                mat[-1, j] -= s

    rounded = np.array(kernels._exact_coefficients(spec_of("R_spatial")), dtype=float).T
    noisy = np.random.default_rng(1).standard_normal((6, 6)) * 10.0 ** np.arange(-3, 3)
    for mat in (rounded, noisy):
        want, got = mat.copy(), mat.copy()
        reference(want)
        kernels._polish_columns_at_one(got)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("sid", ORDER3_IDS)
def test_kernels_compare_and_hash_by_identity(sid):
    # two kernels with equal branches compare as objects, without asking an
    # array for its truth value
    cached, derived = closed_form_kernel(sid), derive_kernel_oracle(spec_of(sid))
    assert np.array_equal(cached.lower, derived.lower)
    assert cached != derived and not cached == derived
    assert cached == cached and derived == derived
    assert hash(cached) == hash(cached) and len({cached, derived, cached}) == 2
