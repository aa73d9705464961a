"""rkwave benchmark: one workload, one seed, one measured run.

Usage (from the repository root):

    python3 perfbench/run.py --workload linear_refine --seed 1 --seconds 36 --trace 0

The load is a closed loop from this single process: each task starts after
the previous one ends, and tasks repeat until another one would overrun
``--seconds`` (at least one always runs).  The seed draws only the
evaluation points; collocation grids are fixed by the method.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs traced
tasks and reports the per-layer metrics (medians over traced tasks) and
``trace.run_s``, the traced counterpart of ``run_s``; summarize.py subtracts
the two to give the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, with the environment, goes to
``.perfbench-out/<workload>-seed<seed>-trace<0|1>.json`` and the spans of a
traced run to ``...-spans.jsonl.gz`` beside it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import Tracer, layer_metrics, log10, median_metrics  # noqa: E402

SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

# Fresh-process set-up measurements per run; their median is setup_s.
SETUP_PROBES = 31

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "max_abs_err": "1",
    "max_abs_err_dx": "1",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("log10_cond"):
        return "log10"
    return "count"


def measure_setup(probes: int) -> list[float]:
    """Seconds to import rkwave and build its kernels, each in a new interpreter."""
    times = []
    for _ in range(probes):
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


def load_rkwave():
    sys.path.insert(0, str(SRC))
    from rkwave import errors, problems, solver, wave_operator

    return types.SimpleNamespace(errors=errors, problems=problems, solver=solver,
                                 wave_operator=wave_operator)


def closed_loop(seconds: float, task, started: float) -> list:
    """Run ``task()`` back to back until the next run would end past ``seconds``."""
    results = []
    while True:
        results.append(task())
        if time.perf_counter() - started + results[-1].seconds > seconds:
            return results


def _finest_errors(task):
    return task.finest.max_abs_err, task.finest.max_abs_err_dx


def measure(wl, seed: int, seconds: float, trace: bool, rk):
    """Run one workload for ``seconds``; return its result record and tracer.

    The tracer, which holds the spans, is None for an untraced run.
    """
    from perfbench.workloads import OUTER_SWEEPS, eval_points, run_task

    started = time.perf_counter()
    problem = rk.problems.builtin(wl.example)
    points = eval_points(problem.domain, wl.n_points, seed)
    record = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    tracer = None
    if not trace:
        tasks = closed_loop(seconds, lambda: run_task(wl, rk, points), started)
        err, err_dx = _finest_errors(tasks[0])
        metrics = {
            "max_abs_err": err,
            "max_abs_err_dx": err_dx,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        tracer = Tracer()
        modules = {"problems": rk.problems, "solver": rk.solver,
                   "wave_operator": rk.wave_operator}

        def traced_task():
            tracer.run_id += 1
            return run_task(wl, rk, points, tracer)

        with tracer.installed(modules):
            tasks = closed_loop(seconds, traced_task, started)
        spans_by_run = {}
        for s in tracer.spans:
            spans_by_run.setdefault(s.run_id, []).append(s)
        per_task = []
        for run_id, task in enumerate(tasks, start=1):
            per_task.append(layer_metrics(
                spans_by_run.get(run_id, []), tracer.counters.get(run_id, {}),
                outer_sweeps=OUTER_SWEEPS,
                sweeps=[lv.sweeps for lv in task.levels],
                log10_cond=log10(task.finest.condition)))
        metrics = median_metrics(per_task)
    metrics["trace.run_s" if trace else "run_s"] = statistics.median(t.seconds for t in tasks)

    record.update({
        "tasks": len(tasks),
        "task_seconds": [t.seconds for t in tasks],
        "levels": [dataclasses.asdict(lv) for lv in tasks[0].levels],
        "failures": [f for t in tasks for lv in t.levels for f in lv.failures],
        "attempted": sum(t.ops for t in tasks),
        "failed": sum(t.failed for t in tasks),
        # Every task of a run computes the same answer.
        "consistent": all(_finest_errors(t) == _finest_errors(tasks[0]) for t in tasks),
        "raw_metrics": metrics,
    })
    record["correct"] = record["failed"] == 0 and record["consistent"]
    return record, tracer


def _json_number(v):
    return None if v is None or v != v else v


def main(argv=None) -> int:
    # Imported here so that the BLAS cap is set before numpy loads.
    from perfbench.environment import cap_blas_threads, describe

    blas_cap = cap_blas_threads()
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rkwave" / "__init__.py").is_file():
        print(f"rkwave sources not found under {SRC}", file=sys.stderr)
        return 2
    setup_times = [] if args.trace else measure_setup(SETUP_PROBES)
    rk = load_rkwave()
    wl = WORKLOADS[args.workload]
    record, tracer = measure(wl, args.seed, args.seconds, bool(args.trace), rk)
    record["env"] = describe(ROOT, args.seed, blas_cap)
    raw = record.pop("raw_metrics")
    if args.trace:
        units = {k: per_layer_unit(k) for k in raw}
    else:
        raw["setup_s"] = statistics.median(setup_times)
        record["setup_seconds"] = setup_times
        units = END_TO_END_UNITS
    metrics = {k: {"value": _json_number(raw[k]), "unit": units[k]} for k in units}
    record["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(stem.with_name(stem.name + "-spans.jsonl.gz"))
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# env {json.dumps(record['env'])}")
    print(f"# {wl.name}: seed {args.seed}, {record['tasks']} measured task(s), "
          f"closed loop in one process, trace {args.trace}")
    for failure in record["failures"]:
        print(f"# failed {failure}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']!r:>24} {m['unit']}")
    print(f"{'ops_total':34s} {record['attempted']:>24} count")
    print(f"{'ops_failed':34s} {record['failed']:>24} count")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
