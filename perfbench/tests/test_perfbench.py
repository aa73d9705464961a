"""Fast checks of the benchmark harness on tiny grids.

Run from the repository root:  PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import run, tracing, workloads  # noqa: E402

TINY_POINTS = 7


@pytest.fixture(scope="module")
def rk():
    return run.load_rkwave()


def tiny(name, grids=(3, 4)):
    wl = workloads.WORKLOADS[name]
    return dataclasses.replace(wl, grids=grids, n_points=TINY_POINTS,
                               ceilings={n: (10.0, 10.0) for n in grids})


def finest(record):
    level = record["levels"][-1]
    return level["max_abs_err"], level["max_abs_err_dx"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_does_not_change_the_answer(rk, name):
    wl = tiny(name)
    plain, _ = run.measure(wl, 5, 0.0, False, rk)
    traced, tracer = run.measure(wl, 5, 0.0, True, rk)
    assert tracer.spans
    assert plain["correct"] and traced["correct"]
    assert plain["failed"] == traced["failed"] == 0
    assert finest(plain) == finest(traced)
    assert plain["raw_metrics"]["max_abs_err"] == finest(traced)[0]
    assert plain["raw_metrics"]["max_abs_err_dx"] == finest(traced)[1]


def test_trace_counts_repeat_and_match_the_workload(rk):
    counts = {}
    for name in ("linear_refine", "soliton_refine"):
        wl = tiny(name)
        first, second = (run.measure(wl, 2, 0.0, True, rk)[0]["raw_metrics"] for _ in range(2))
        counts[name] = {k: v for k, v in first.items() if isinstance(v, int)}
        assert counts[name] == {k: v for k, v in second.items() if isinstance(v, int)}
        assert first["solver.evaluate_calls"] == TINY_POINTS * len(wl.grids)
        assert first["solver.evaluate_dx_calls"] == TINY_POINTS * len(wl.grids)
        assert first["wave_operator.gram_entries"] == sum(n ** 4 for n in wl.grids)
        assert first["orthonormalize.factor_n_max"] == max(wl.grids) ** 2
        assert first["orthonormalize.factor_failed"] == 0
        sweeps = first["solver.sweeps"]
        assert first["solver.m_calls"] >= sweeps and sweeps >= 2 * len(wl.grids)
        assert first["solver.solve_self_s"] < first["solver.solve_s"]
    assert counts["linear_refine"]["solver.sweeps_at_cap"] == 0
    assert counts["linear_refine"]["solver.sweeps"] == 4
    assert counts["soliton_refine"]["solver.sweeps_at_cap"] == 2
    # ex52's M is evaluated at every basis point in each of the 5 sweeps.
    assert counts["soliton_refine"]["solver.m_calls"] == 5 * (9 + 16)


def test_per_layer_names_match_benchmark_json(rk):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = run.measure(tiny("dense_eval", grids=(3,)), 1, 0.0, True, rk)[0]["raw_metrics"]
    assert {m["name"] for m in spec["per_layer"]} == set(traced)
    for m in spec["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_error_above_ceiling_counts_as_failure(rk):
    wl = dataclasses.replace(tiny("linear_refine", grids=(3,)), ceilings={3: (1e-12, 10.0)})
    record, _ = run.measure(wl, 1, 0.0, False, rk)
    assert record["attempted"] == 3
    assert record["failed"] == 1
    assert not record["correct"]
    assert "above ceiling" in record["failures"][0]


def test_raised_rkwave_error_counts_as_failure(rk):
    """A non-finite source term makes solve raise; the level's ops all fail."""

    def homogenize(problem):
        hp = rk.problems.homogenize(problem)
        return dataclasses.replace(hp, M=lambda xi, tau, v: float("nan"))

    broken = types.SimpleNamespace(
        errors=rk.errors, solver=rk.solver,
        problems=types.SimpleNamespace(builtin=rk.problems.builtin, homogenize=homogenize,
                                       error_table=rk.problems.error_table))
    task = workloads.run_task(tiny("soliton_refine", grids=(3,)), broken, [(0.0, 0.5)])
    assert task.ops == 3 and task.failed == 3
    assert "NonFiniteValue" in task.levels[0].failures[0]


def test_missing_layer_function_reports_zero(rk):
    solver = types.SimpleNamespace(solve=rk.solver.solve)
    modules = {"problems": types.SimpleNamespace(), "solver": solver,
               "wave_operator": types.SimpleNamespace()}
    tracer = tracing.Tracer()
    with tracer.installed(modules):
        assert solver.solve is not rk.solver.solve
    assert solver.solve is rk.solver.solve
    metrics = tracing.layer_metrics(tracer.spans, {}, outer_sweeps=5, sweeps=[],
                                    log10_cond=0.0)
    assert metrics["orthonormalize.factor_n_max"] == 0
    assert metrics["solver.evaluate_calls"] == 0


def test_self_time_subtracts_direct_children():
    spans = [tracing.Span(1, 0, "child", 0, 1.0, 3.0),
             tracing.Span(2, 1, "grandchild", 0, 1.5, 2.0),
             tracing.Span(0, None, "parent", 0, 0.0, 10.0)]
    own = tracing.self_times(spans)
    assert own == {0: 8.0, 1: 1.5, 2: 0.5}


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense_eval",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
