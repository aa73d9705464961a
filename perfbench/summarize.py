"""Median, quartiles and spread of benchmark records, per workload and metric.

Usage (from the repository root, after some runs of perfbench/run.py):

    python3 perfbench/summarize.py [--trace 0|1] [--dir .perfbench-out]
    python3 perfbench/summarize.py --append-to perfbench/trajectory.json --label "<text>"

The spread is the distance between the first and third quartile, as
``statistics.quantiles(values, n=4)`` gives them, as a share of the median;
with ``--trace 0`` it is compared against a third of each end-to-end metric's
bound from BENCHMARK.json.  With ``--trace 1`` it also prints the tracing
overhead, the median ``trace.run_s`` minus the median ``run_s`` of the
untraced records, and checks that tracing left the finest level's errors
bit-identical to the untraced run of the same seed.  ``--append-to`` adds
one trajectory point: the end-to-end and per-layer summaries of every record
in the directory, with the environment of the first one.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path, trace: int) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(directory.glob(f"*-trace{trace}.json")):
        record = json.loads(path.read_text())
        by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def summary(records: list[dict]) -> dict:
    out = {"runs": len(records), "seeds": sorted(r["seed"] for r in records),
           "attempted": sum(r["attempted"] for r in records),
           "failed": sum(r["failed"] for r in records), "metrics": {}}
    for name, m in records[0]["metrics"].items():
        med, q1, q3, rel = spread([r["metrics"][name]["value"] for r in records])
        out["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                                "unit": m["unit"]}
    return out


def tracing_check(directory: Path, workload: str, traced: list[dict]) -> list[str]:
    """Tracing overhead and bit-identity of errors against the untraced records."""
    untraced = {r["seed"]: r for r in load(directory, 0).get(workload, [])}
    if not untraced:
        return ["# no untraced records to compare against"]
    overhead = (statistics.median(r["metrics"]["trace.run_s"]["value"] for r in traced)
                - statistics.median(r["metrics"]["run_s"]["value"]
                                    for r in untraced.values()))
    pairs = [(r["levels"][-1], untraced[r["seed"]]["levels"][-1])
             for r in traced if r["seed"] in untraced]
    same = sum(1 for a, b in pairs if (a["max_abs_err"], a["max_abs_err_dx"])
               == (b["max_abs_err"], b["max_abs_err_dx"]))
    return [f"{'trace.overhead_s':34s} {overhead:.6g} s",
            f"# errors bit-identical to the untraced run in {same} of {len(pairs)} seeds"]


def append_point(path: Path, label: str, directory: Path) -> None:
    point = {"label": label, "end_to_end": {}, "per_layer": {}}
    for key, trace in (("end_to_end", 0), ("per_layer", 1)):
        for workload, records in load(directory, trace).items():
            point[key][workload] = summary(records)
            point.setdefault("env", records[0]["env"])
    trajectory = json.loads(path.read_text()) if path.exists() else {"points": []}
    trajectory["points"].append(point)
    path.write_text(json.dumps(trajectory, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", type=Path, default=ROOT / ".perfbench-out")
    parser.add_argument("--append-to", type=Path, default=None)
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)
    if args.append_to is not None:
        append_point(args.append_to, args.label, args.dir)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, records in load(args.dir, args.trace).items():
        sm = summary(records)
        print(f"# {workload}: {sm['runs']} runs, seeds {sm['seeds']}, "
              f"{sm['failed']} of {sm['attempted']} ops failed")
        for name, m in sm["metrics"].items():
            line = (f"{name:34s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                    f"q3 {m['q3']:<12.6g} spread {m['spread']:.3f}")
            if name in bounds:
                ok = m["spread"] < bounds[name] / 3
                line += f" (bound {bounds[name]}, {'ok' if ok else 'WIDE'})"
            print(line)
        if args.trace:
            print("\n".join(tracing_check(args.dir, workload, records)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
