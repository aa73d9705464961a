"""Benchmark workloads and the task each one repeats.

A task calls the library in the order ``rkwave.cli.run`` does:
``problems.homogenize`` -> ``solver.generate_collocation`` -> ``solver.solve``
-> ``problems.error_table``, plus ``solver.evaluate_dx`` compared against the
problem's ``exact_dx``.  Per grid level it makes three operations: one solve
and two evaluation passes over the point set (u and du/dx).

An operation fails when it raises an rkwave error, returns a non-finite
value, or its maximum error against the exact solution exceeds the level's
ceiling.  The ceilings are twice the error supremum measured on a 101 x 101
grid at the commit that introduced the benchmark, so the known accuracy
defects of that commit (ex52's error rising at 32 x 32) pass the check and
stay visible in ``max_abs_err``; a result that is wrong by a larger factor
counts as failed.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

# Picard sweep cap and stopping tolerance of every solve.
OUTER_SWEEPS = 5
TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    example: str
    grids: tuple[int, ...]
    n_points: int
    # grid n -> (ceiling on max |u - u_exact|, ceiling on max |u_x - u_x exact|)
    ceilings: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="linear_refine",
            example="ex51",
            grids=(8, 16, 32),
            n_points=300,
            ceilings={8: (0.34, 1.2), 16: (0.13, 0.43), 32: (0.038, 0.13)},
        ),
        Workload(
            name="soliton_refine",
            example="ex52",
            grids=(8, 16, 32),
            n_points=300,
            ceilings={8: (0.073, 0.11), 16: (0.020, 0.030), 32: (0.19, 0.54)},
        ),
        Workload(
            name="dense_eval",
            example="ex51",
            grids=(16,),
            n_points=101 * 101,
            ceilings={16: (0.13, 0.43)},
        ),
    )
}


def eval_points(domain, n: int, seed: int) -> list[tuple[float, float]]:
    """``n`` points drawn uniformly over the problem's rectangle from ``seed``."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(domain.a, domain.b, n)
    ts = rng.uniform(0.0, domain.T, n)
    return [(float(x), float(t)) for x, t in zip(xs, ts)]


@dataclass
class Level:
    """Outcome of one grid level of a task."""

    n: int
    ops: int = 0
    failed: int = 0
    failures: list = dataclasses.field(default_factory=list)
    sweeps: int = 0
    condition: float = float("nan")
    max_abs_err: float | None = None
    max_abs_err_dx: float | None = None

    def fail(self, op: str, reason: str) -> None:
        self.failed += 1
        self.failures.append(f"{op}: {reason}")


@dataclass
class TaskResult:
    seconds: float
    levels: list[Level]

    @property
    def ops(self) -> int:
        return sum(lv.ops for lv in self.levels)

    @property
    def failed(self) -> int:
        return sum(lv.failed for lv in self.levels)

    @property
    def finest(self) -> Level:
        return self.levels[-1]


def rkwave_errors(errors_module) -> tuple[type, ...]:
    """Every exception class the package defines in ``rkwave.errors``."""
    return tuple(c for c in vars(errors_module).values()
                 if isinstance(c, type) and issubclass(c, Exception))


def _finite_arrays(obj) -> bool:
    """True when every float array held by ``obj``'s fields is finite."""
    arrays = [v for v in vars(obj).values()
              if isinstance(v, np.ndarray) and v.dtype.kind == "f"]
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def _check_pass(level: Level, op: str, approx, exact, ceiling: float) -> float | None:
    approx = np.asarray(approx, dtype=float)
    if not np.all(np.isfinite(approx)):
        level.fail(op, "non-finite value returned")
        return None
    err = float(np.max(np.abs(approx - np.asarray(exact, dtype=float))))
    if not err <= ceiling:
        level.fail(op, f"max error {err:.3e} above ceiling {ceiling:.3e}")
    return err


def run_task(wl: Workload, rk, points, tracer=None) -> TaskResult:
    """One closed-loop task: every level's solve and both evaluation passes.

    ``rk`` is a namespace holding the ``problems``, ``solver`` and ``errors``
    modules.  With a ``tracer``, ``hp.M`` is wrapped to count its calls; the
    caller installs the span wrappers.
    """
    errors = rkwave_errors(rk.errors)
    start = time.perf_counter()
    problem = rk.problems.builtin(wl.example)
    hp = rk.problems.homogenize(problem)
    if tracer is not None:
        hp = dataclasses.replace(hp, M=tracer.counting("solver.m_calls", hp.M))
    levels = []
    for n in wl.grids:
        level = Level(n)
        levels.append(level)
        u_ceiling, dx_ceiling = wl.ceilings[n]
        level.ops += 3
        try:
            colloc = rk.solver.generate_collocation(n, n)
            sol = rk.solver.solve(hp, colloc, outer_sweeps=OUTER_SWEEPS, tol=TOL)
        except errors as exc:
            level.fail("solve", f"{type(exc).__name__}: {exc}")
            level.fail("evaluate", "skipped after failed solve")
            level.fail("evaluate_dx", "skipped after failed solve")
            continue
        level.sweeps = int(getattr(sol, "sweeps_used", 0))
        level.condition = float(getattr(getattr(sol, "beta", None), "condition_estimate",
                                        float("nan")))
        if not _finite_arrays(sol):
            level.fail("solve", "non-finite coefficients")

        try:
            rows = rk.problems.error_table(sol, points).rows
            level.max_abs_err = _check_pass(level, "evaluate", [r.approx for r in rows],
                                            [r.exact for r in rows], u_ceiling)
        except errors as exc:
            level.fail("evaluate", f"{type(exc).__name__}: {exc}")

        try:
            approx = [rk.solver.evaluate_dx(sol, x, t) for x, t in points]
            exact = [problem.exact_dx(x, t) for x, t in points]
            level.max_abs_err_dx = _check_pass(level, "evaluate_dx", approx, exact,
                                               dx_ceiling)
        except errors as exc:
            level.fail("evaluate_dx", f"{type(exc).__name__}: {exc}")
    return TaskResult(time.perf_counter() - start, levels)
