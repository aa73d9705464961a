"""Acceptance gates for the full package.

Each test prints one `[criterion NN] PASS/FAIL` line with the measured
quantity, then asserts the gate.  Run with `pytest tests/test_acceptance.py
-v -s` to see every line.

Three magnitude gates (05 solution accuracy, 06 soliton benchmark accuracy,
09 derivative accuracy) encode reference-quality error levels at the fixed
9x9 collocation grid.  The collocation sweeps implemented here converge to
the unique collocation solution in its representer span (checked
against independently quadrature-computed expansion coefficients), and that
solution's error at 9x9 is two orders above those gates, so they fail; the
printed lines carry the measured values.  The structural sub-gates
(refinement monotonicity) pass.
"""

import math

import numpy as np
import pytest

from rkwave import cli, solver
from rkwave.kernels import closed_form_kernel, eval_kernel_grid
from rkwave.orthonormalize import factor
from rkwave.wave_operator import RepresenterBasis, WaveOperator, gram_matrix

from conftest import Separable, poly, sinusoid
from oracles import (
    SPACE_IDS,
    apply_L,
    inner_product,
    inner_product_2d,
    kernel_of,
    psi_section,
    section,
    spec_of,
    tensor_section,
)
from paper_tables import MISPRINTS, printed_vs_exact, table_kernel

MEMBERS_1D = {
    "R_spatial": [poly(0, 1, -1), sinusoid(np.pi), poly(0, 0, 1, -2, 1)],
    "r_temporal": [poly(0, 0, 1), poly(0, 0, 0, 1), poly(0, 0, 1, 1, -0.5)],
    "Q_spatial": [poly(1, 2), sinusoid(1.3, 0.4), poly(0.5, 0, 2)],
    "q_temporal": [poly(2, -1), sinusoid(0.7, 1.0), poly(0, 1, 0, 3)],
}
MEMBERS_W = [
    Separable((poly(0, 1, -1), poly(0, 0, 1))),
    Separable((sinusoid(np.pi), poly(0, 0, 0, 1))),
    Separable((poly(0, 0, 1, -1), poly(0, 0, 1, 1)), (poly(0, 1, -1), poly(0, 0, 0, 0, 1))),
]
MEMBERS_W_HAT = [
    Separable((poly(0, 1), poly(0, 1))),
    Separable((sinusoid(1.1, 0.3), poly(1, 0, 0.5))),
]

TABLE1_DIAGONAL = [(k / 10, k / 10) for k in range(1, 11)]


def gate(num: str, ok: bool, desc: str, detail: str = ""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def ex51_solutions(ex51_hp):
    return {n: solver.solve(ex51_hp, solver.generate_collocation(n, n))
            for n in (3, 6, 9, 12)}


def basis_for_grid(n):
    return RepresenterBasis(WaveOperator(), *solver.generate_collocation(n, n))


def test_criterion_01_kernel_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for sid in SPACE_IDS:
        k = kernel_of(sid)
        table = table_kernel(sid)
        xs, ys = rng.random(100), rng.random(100)
        worst = max(worst, float(np.max(np.abs(
            eval_kernel_grid(k, xs, ys) - eval_kernel_grid(table, xs, ys)))))
    # derived R passes the reproducing-property test on its own
    derived_r = closed_form_kernel("R_spatial")
    spec = spec_of("R_spatial")
    resid = 0.0
    for u in MEMBERS_1D["R_spatial"]:
        for y in np.linspace(0.05, 0.95, 10):
            got = inner_product(spec, u, section(derived_r, y), split_at=(y,))
            resid = max(resid, abs(got - float(u(y))))
    diffs = [(sid,) + d for sid in SPACE_IDS for d in printed_vs_exact(sid)]
    print("printed coefficient tables against the exact derivation:")
    for sid, branch, i, j, printed, derived in diffs:
        print(f"  {sid} {branch}[{i}][{j}]: printed {printed} -> derived {derived}")
    single_known = len(diffs) == 1 and MISPRINTS.get(diffs[0][:4]) == diffs[0][4:]
    gate("01", worst <= 1e-10 and resid <= 1e-8 and single_known,
         "derived kernels match the corrected printed tables; single printed misprint detected",
         f"eval diff {worst:.2e}, derived-R reproducing residual {resid:.2e}")


def test_criterion_02_reproducing_property_1d():
    worst = 0.0
    for sid in SPACE_IDS:
        spec = spec_of(sid)
        k = kernel_of(sid)
        for u in MEMBERS_1D[sid]:
            for y in np.linspace(0.03, 0.97, 20):
                got = inner_product(spec, u, section(k, y), split_at=(y,))
                worst = max(worst, abs(got - float(u(y))))
    gate("02", worst <= 1e-8, "1-D reproducing property, 4 spaces x 3 functions x 20 points",
         f"max residual {worst:.2e}")


def test_criterion_03_reproducing_property_2d():
    worst_w = 0.0
    for u in MEMBERS_W:
        for (y, s) in [(0.5, 0.5), (0.3, 0.8), (0.85, 0.25)]:
            got = inner_product_2d("W", u, tensor_section("W", (y, s)),
                                   split_x=(y,), split_t=(s,))
            worst_w = max(worst_w, abs(got - float(u(y, s))))
    worst_wh = 0.0
    for u in MEMBERS_W_HAT:
        for (y, s) in [(0.4, 0.9), (0.7, 0.2), (0.15, 0.55)]:
            got = inner_product_2d("W_hat", u, tensor_section("W_hat", (y, s)),
                                   split_x=(y,), split_t=(s,))
            worst_wh = max(worst_wh, abs(got - float(u(y, s))))
    gate("03", worst_w <= 1e-6 and worst_wh <= 1e-6,
         "2-D reproducing property, 3 functions in W and 2 in W_hat",
         f"residuals W {worst_w:.2e}, W_hat {worst_wh:.2e}")


def test_criterion_04_gram_correctness():
    basis3 = basis_for_grid(3)
    a3 = gram_matrix(basis3)
    # (a) closed form vs quadrature on the 3x3 grid
    quad_worst = 0.0
    pts = basis3.points
    for i in range(9):
        for j in range(i, 9):
            q = inner_product_2d(
                "W", psi_section(basis3, j), psi_section(basis3, i),
                split_x=(pts[i][0], pts[j][0]), split_t=(pts[i][1], pts[j][1]))
            quad_worst = max(quad_worst, abs(q - a3[i, j]))
    # (b) finite differences at h = 1e-3
    fd_worst = 0.0
    for (i, j) in [(0, 0), (0, 4), (2, 7), (5, 5), (1, 8)]:
        fd = apply_L(basis3.operator, psi_section(basis3, j), *pts[i], 1e-3)
        fd_worst = max(fd_worst, abs(fd - a3[i, j]))
    # SPD up to 12x12; orthonormalization reconstruction on the working grid
    spd_ok = True
    recon = {}
    for n in (3, 6, 9, 12):
        a = gram_matrix(basis_for_grid(n))
        spd_ok &= bool(np.min(np.linalg.eigvalsh(a)) > 0.0)
        beta = np.linalg.inv(factor(a.copy()).L)
        recon[n] = float(np.max(np.abs(beta @ a @ beta.T - np.eye(len(a)))))
    print(f"  beta reconstruction residuals by grid: "
          + ", ".join(f"{n}x{n}: {recon[n]:.2e}" for n in sorted(recon)))
    ok = quad_worst <= 1e-6 and fd_worst <= 1e-4 and spd_ok and recon[3] <= 1e-8 and recon[6] <= 1e-8
    gate("04", ok, "Gram closed form vs quadrature and finite differences; SPD to 12x12",
         f"quad {quad_worst:.2e}, fd {fd_worst:.2e}, recon(3x3) {recon[3]:.2e}")


def test_criterion_05_ex51_refinement_strictly_decreasing(ex51, ex51_solutions):
    errs = {}
    for n in (3, 6, 12):
        errs[n] = max(abs(solver.evaluate(ex51_solutions[n], x, t) - ex51.exact(x, t))
                      for x, t in TABLE1_DIAGONAL)
    gate("05 refinement", errs[3] > errs[6] > errs[12],
         "linear wave: diagonal max error strictly decreasing over 3x3 -> 6x6 -> 12x12",
         " -> ".join(f"{errs[n]:.3e}" for n in (3, 6, 12)))


def test_criterion_05_ex51_nine_by_nine_gate(ex51, ex51_solutions):
    err = max(abs(solver.evaluate(ex51_solutions[9], x, t) - ex51.exact(x, t))
              for x, t in TABLE1_DIAGONAL)
    gate("05 gate", err <= 5e-3,
         "linear wave at 9x9: max error over the ten diagonal points <= 5e-3",
         f"measured {err:.3e}")


def test_criterion_06_ex52_soliton_gate(ex52, ex52_sol_9):
    e_mid = abs(solver.evaluate(ex52_sol_9, 0.0, 1.0) - math.pi)
    e_p = abs(solver.evaluate(ex52_sol_9, 0.8, 1.0) - 2.568109722)
    e_m = abs(solver.evaluate(ex52_sol_9, -0.8, 1.0) - 2.568109722)
    gate("06", max(e_mid, e_p, e_m) <= 5e-3,
         "sine-Gordon at 9x9, <=5 sweeps: |u(0,1) - pi| and |u(+-0.8,1) - ref| <= 5e-3",
         f"measured {e_mid:.3e} at x=0, {e_p:.3e} / {e_m:.3e} at x=+-0.8")


def test_criterion_07_norm_identity(ex51_solutions, ex52_sol_9):
    worst_rel = 0.0
    mono = True
    for sol in (ex51_solutions[9], ex52_sol_9):
        sum_b2 = float(np.sum(sol.B ** 2))
        w_norm2 = float(sol.psi_weights @ gram_matrix(sol.basis) @ sol.psi_weights)
        worst_rel = max(worst_rel, abs(w_norm2 - sum_b2) / sum_b2)
        mono &= bool(np.all(np.diff(sol.norm_history) >= -1e-15))
    gate("07", worst_rel <= 1e-8 and mono,
         "norm identity |norm^2 - sum B^2| <= 1e-8 rel; norm history nondecreasing",
         f"worst relative defect {worst_rel:.2e}")


def test_criterion_08_exact_data_reproduction(ex51, ex52, ex51_solutions, ex52_sol_9):
    worst = 0.0
    for p, sol in ((ex51, ex51_solutions[9]), (ex52, ex52_sol_9)):
        a, b, T = p.domain.a, p.domain.b, p.domain.T
        for x in np.linspace(a, b, 100):
            worst = max(worst, abs(solver.evaluate(sol, float(x), 0.0) - p.f.val(float(x))))
        for t in np.linspace(0.0, T, 100):
            worst = max(worst, abs(solver.evaluate(sol, a, float(t)) - p.h1.val(float(t))))
            worst = max(worst, abs(solver.evaluate(sol, b, float(t)) - p.h2.val(float(t))))
    gate("08", worst <= 1e-12, "initial and boundary data reproduced to 1e-12",
         f"worst trace error {worst:.2e}")


def test_criterion_09_derivative_series_refinement(ex51, ex51_solutions):
    errs = {}
    for n in (3, 6, 12):
        errs[n] = max(abs(solver.evaluate_dx(ex51_solutions[n], x, t) - ex51.exact_dx(x, t))
                      for x, t in TABLE1_DIAGONAL)
    gate("09 refinement", errs[3] > errs[6] > errs[12],
         "du/dx error decreasing under refinement",
         " -> ".join(f"{errs[n]:.3e}" for n in (3, 6, 12)))


def test_criterion_09_derivative_series_gate(ex51, ex51_solutions):
    err = max(abs(solver.evaluate_dx(ex51_solutions[9], x, t) - ex51.exact_dx(x, t))
              for x, t in TABLE1_DIAGONAL)
    gate("09 gate", err <= 5e-2, "du/dx error at 9x9 <= 5e-2", f"measured {err:.3e}")


def test_criterion_10_cli_determinism(tmp_path):
    body = ("problem = ex51\nnx = 3\nnt = 3\n"
            "eval_points = 0.1,0.1; 0.5,0.5; 0.9,0.9\n")
    outs = []
    for tag in ("a", "b"):
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(body)
        out = tmp_path / f"{tag}.csv"
        assert cli.main([str(cfg), "--out", str(out)]) == 0
        lines = (tmp_path / f"{tag}_summary.csv").read_text().strip().splitlines()
        # the summary's last column is its wall time
        summary = [lines[0]] + [",".join(ln.split(",")[:-1]) for ln in lines[1:]]
        outs.append((out.read_bytes(), summary))
    gate("10", outs[0] == outs[1],
         "identical config produces a byte-identical table CSV, and a summary CSV apart "
         "from its seconds column")
