import logging

import numpy as np
import pytest

from rkwave import kernels
from rkwave.errors import DiagonalDerivativeUndefined, SingularSystem
from rkwave.kernels import (
    SpaceSpec,
    closed_form_kernel,
    derive_kernel_oracle,
    eval_kernel,
    eval_kernel_branch,
    eval_kernel_grid,
    inner_product_numeric,
    kernel_section,
    space_spec,
)

from conftest import poly, sinusoid
from paper_tables import MISPRINTS, printed_vs_exact, table_kernel

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
    for sid in kernels.SPACE_IDS:
        spec = space_spec(sid)
        assert spec.order in (1, 3)
    assert len(space_spec("R_spatial").essential_constraints) == 2
    assert space_spec("R_spatial").essential_constraints == ((0, 0), (0, 1))
    assert space_spec("r_temporal").essential_constraints == ((0, 0), (1, 0))
    assert space_spec("Q_spatial").essential_constraints == ()
    with pytest.raises(ValueError):
        space_spec("bogus")


def test_w21_kernel_is_one_plus_min():
    q = closed_form_kernel("Q_spatial")
    rng = np.random.default_rng(7)
    xs, ys = rng.random(100), rng.random(100)
    got = eval_kernel_grid(q, xs, ys)
    assert np.max(np.abs(got - (1.0 + np.minimum(xs, ys)))) < 1e-14


def test_eval_q_examples():
    q = closed_form_kernel("q_temporal")
    assert eval_kernel(q, 0.3, 0.5) == pytest.approx(1.3, abs=1e-15)
    assert eval_kernel(q, 0.5, 0.3) == pytest.approx(1.3, abs=1e-15)


def test_r_temporal_diagonal_value():
    r = closed_form_kernel("r_temporal")
    lo = float(eval_kernel_branch(r, "lower", 0.5, 0.5))
    up = float(eval_kernel_branch(r, "upper", 0.5, 0.5))
    assert lo == pytest.approx(0.0171875, abs=1e-15)
    assert up == pytest.approx(0.0171875, abs=1e-15)


def test_r_spatial_printed_entries():
    R = closed_form_kernel("R_spatial")
    assert R.lower[0].tolist() == [0.0] * 6   # c1 = 0
    assert R.upper[0, 5] == 1 / 120           # d1 = y^5/120
    q = closed_form_kernel("Q_spatial")
    assert q.lower[0, 0] == 1.0 and q.lower[1, 0] == 1.0  # 1 + x lower branch


@pytest.mark.parametrize("sid", kernels.SPACE_IDS)
def test_kernel_coefficients_exactly_symmetric(sid):
    k = closed_form_kernel(sid)
    assert np.array_equal(k.upper, k.lower.T)


def test_misprinted_entry_holds_exact_value():
    assert closed_form_kernel("R_spatial").lower[4, 5] == 1 / 2928


def test_building_kernels_logs_nothing(caplog):
    caplog.set_level(logging.DEBUG)
    closed_form_kernel.cache_clear()
    for sid in kernels.SPACE_IDS:
        closed_form_kernel(sid)
    assert caplog.records == []


def test_essential_constraints_in_argument_slot():
    R = closed_form_kernel("R_spatial")
    ys = np.linspace(0.01, 0.99, 40)
    assert np.max(np.abs(eval_kernel_grid(R, 0.0, ys))) == 0.0
    # exact at x = 1 too, scalar or column against row: the polished column
    # sums of the upper branch vanish in Horner order
    assert np.max(np.abs(eval_kernel_grid(R, 1.0, ys))) == 0.0
    assert np.max(np.abs(eval_kernel_grid(R, np.array([[1.0]]), ys[None, :]))) == 0.0
    assert eval_kernel(R, 0.0, 0.37) == 0.0
    r = closed_form_kernel("r_temporal")
    assert np.max(np.abs(eval_kernel_grid(r, 0.0, ys))) == 0.0
    assert np.max(np.abs(eval_kernel_grid(r, 0.0, ys, dx=1))) == 0.0


@pytest.mark.parametrize("sid", ORDER3_IDS)
def test_grid_matches_scalar_oracle(sid):
    # off-diagonal points through every broadcast path of eval_kernel_grid:
    # column x row (one matrix product), 2-D against 1-D, array against
    # scalar in either slot
    k = closed_form_kernel(sid)
    rng = np.random.default_rng(3)
    xs = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 9)])
    ys = rng.uniform(0.0, 1.0, 7)
    cases = [(xs[:, None], ys[None, :]), (xs[:4, None], ys), (xs, ys[2]), (xs[5], ys),
             (np.float64(xs[3]), ys[1])]
    oracle = np.vectorize(eval_kernel, excluded={0, 3, 4})
    for dx in range(3):
        for dy in range(3):
            for x, y in cases:
                want = oracle(k, x, y, dx, dy)
                got = eval_kernel_grid(k, x, y, dx, dy)
                assert got.shape == np.broadcast_shapes(np.shape(x), np.shape(y))
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 1e-13 * scale, (dx, dy, np.shape(x))


@pytest.mark.parametrize("sid", kernels.SPACE_IDS)
def test_symmetry(sid):
    k = closed_form_kernel(sid)
    pts = np.linspace(0.0, 1.0, 50)
    v1 = eval_kernel_grid(k, pts[:, None], pts[None, :])
    assert np.max(np.abs(v1 - v1.T)) < 1e-12


@pytest.mark.parametrize("sid", kernels.SPACE_IDS)
def test_diagonal_continuity(sid):
    k = closed_form_kernel(sid)
    m = k.order
    ys = np.linspace(0.05, 0.95, 20)
    for total in range(2 * m - 1):
        for dx in range(total + 1):
            dy = total - dx
            lo = eval_kernel_branch(k, "lower", ys, ys, dx, dy)
            up = eval_kernel_branch(k, "upper", ys, ys, dx, dy)
            assert np.max(np.abs(lo - up)) < 1e-10, (total, dx, dy)


@pytest.mark.parametrize("sid", kernels.SPACE_IDS)
def test_unit_jump_in_top_derivative(sid):
    # the (2m-1)-th x-derivative jumps by exactly 1 (lower minus upper),
    # which is what turns the integral term into point evaluation
    k = closed_form_kernel(sid)
    m = k.order
    ys = np.linspace(0.1, 0.9, 15)
    lo = eval_kernel_branch(k, "lower", ys, ys, 2 * m - 1, 0)
    up = eval_kernel_branch(k, "upper", ys, ys, 2 * m - 1, 0)
    assert np.max(np.abs((lo - up) - 1.0)) < 1e-8


def test_diagonal_derivative_guard():
    r = closed_form_kernel("r_temporal")
    with pytest.raises(DiagonalDerivativeUndefined):
        eval_kernel(r, 0.5, 0.5, dx=3, dy=2)
    # total order 4 = 2m-2 is still continuous
    eval_kernel(r, 0.5, 0.5, dx=2, dy=2)
    q = closed_form_kernel("Q_spatial")
    with pytest.raises(DiagonalDerivativeUndefined):
        eval_kernel(q, 0.3, 0.3, dx=1)
    with pytest.raises(ValueError):
        eval_kernel(q, 0.2, 0.3, dx=-1)


@pytest.mark.parametrize("sid", kernels.SPACE_IDS)
def test_reproducing_property(sid):
    spec = space_spec(sid)
    k = closed_form_kernel(sid)
    for u in MEMBERS[sid]:
        for y in np.linspace(0.03, 0.97, 20):
            got = inner_product_numeric(spec, u, kernel_section(k, y), split_at=(y,))
            assert abs(got - float(u(y))) < 1e-8, (sid, y)


def test_inner_product_examples():
    spec = space_spec("R_spatial")
    R = closed_form_kernel("R_spatial")
    u = poly(0, 1, -1)  # x(1-x)
    got = inner_product_numeric(spec, u, kernel_section(R, 0.3), split_at=(0.3,))
    assert got == pytest.approx(0.21, abs=1e-10)

    spec_t = space_spec("r_temporal")
    r = closed_form_kernel("r_temporal")
    got = inner_product_numeric(spec_t, poly(0, 0, 1), kernel_section(r, 0.7), split_at=(0.7,))
    assert got == pytest.approx(0.49, abs=1e-10)

    zero = poly(0)
    assert inner_product_numeric(spec, zero, zero) == 0.0


@pytest.mark.parametrize("sid", kernels.SPACE_IDS)
def test_positive_semidefinite(sid):
    k = closed_form_kernel(sid)
    rng = np.random.default_rng(11)
    for _ in range(5):
        pts = rng.random(rng.integers(2, 25))
        gram = eval_kernel_grid(k, pts[:, None], pts[None, :])
        assert np.min(np.linalg.eigvalsh(gram)) > -1e-10


@pytest.mark.parametrize("sid", kernels.SPACE_IDS)
def test_oracle_matches_closed_form(sid):
    # the runtime kernel against the paper's tables with the misprint fixed
    k = closed_form_kernel(sid)
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


def test_oracle_rejects_degenerate_space():
    # no discrete terms: the bilinear form is degenerate, no kernel exists
    bad = SpaceSpec(3, (), ())
    with pytest.raises(SingularSystem):
        derive_kernel_oracle(bad)
