"""Span tracing around the public functions of each rkwave layer.

Spans are recorded from the benchmark's side only: each traced function is
replaced, for the duration of a ``Tracer.installed()`` block, by a wrapper
stored at the module attribute its caller looks up.  ``solver`` imports
``factor`` and ``psi_values`` by name and ``wave_operator`` imports
``eval_kernel_grid`` by name, so those are wrapped where they are used, not
where they are defined.  Nothing inside ``src/rkwave`` changes.

A span is (id, parent id, name, run id, start, end, size, ok).  ``size`` is
the amount of work the call did where the layer has a natural count (kernel
values computed, Gram entries, basis size); ``ok`` is false when the call
raised.  Spans stay in memory until the run ends and ``write`` is called.
"""

from __future__ import annotations

import contextlib
import gzip
import itertools
import json
import math
import statistics
import time
from dataclasses import dataclass, field


def _result_size(args, result) -> int:
    return int(getattr(result, "size", 0))


def _matrix_order(args, result) -> int:
    return len(args[0])


# (module, attribute, span name, size of the work done, from the call's
# positional arguments and result).  Listed in the order the solve path
# reaches them.
TRACE_POINTS = (
    ("problems", "homogenize", "problems.homogenize", None),
    ("solver", "solve", "solver.solve", None),
    ("wave_operator", "gram_matrix", "wave_operator.gram_matrix", _result_size),
    ("solver", "factor", "orthonormalize.factor", _matrix_order),
    ("solver", "psi_values", "wave_operator.psi_values", None),
    ("wave_operator", "eval_kernel_grid", "kernels.eval_kernel_grid", _result_size),
    ("problems", "error_table", "problems.error_table", None),
    ("solver", "evaluate", "solver.evaluate", None),
    ("solver", "evaluate_dx", "solver.evaluate_dx", None),
)


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    run_id: int
    start: float
    end: float
    size: int = 0
    ok: bool = True

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory span recorder; one per traced benchmark run."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[int, dict[str, int]] = field(default_factory=dict)
    run_id: int = 0
    _stack: list[int] = field(default_factory=list)
    _ids: itertools.count = field(default_factory=itertools.count)

    def wrap(self, name: str, fn, size_of=None):
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            size, ok = 0, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                if size_of is not None:
                    size = size_of(args, result)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, parent, name, self.run_id, start, end, size, ok))

        return traced

    def counting(self, name: str, fn):
        """Wrap ``fn`` so that each call bumps counter ``name`` of the run (no span)."""

        def counted(*args, **kwargs):
            run = self.counters.setdefault(self.run_id, {})
            run[name] = run.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Install the wrappers at their module attributes; restore on exit.

        A trace point whose attribute no longer exists is skipped, so a
        refactor that removes a layer function reports zero for it.
        """
        saved = []
        try:
            for mod_name, attr, span_name, size_of in TRACE_POINTS:
                mod = modules[mod_name]
                if not hasattr(mod, attr):
                    continue
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(span_name, original, size_of))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path) -> None:
        """Write every span as one JSON array per line, gzip-compressed."""
        header = ["sid", "parent", "name", "run_id", "start", "end", "size", "ok"]
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps(header) + "\n")
            out.writelines(
                f'[{s.sid},{"null" if s.parent is None else s.parent},"{s.name}",'
                f'{s.run_id},{s.start!r},{s.end!r},{s.size},{"true" if s.ok else "false"}]\n'
                for s in self.spans)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time covered by its direct children.

    Calls are synchronous in one thread, so children never overlap and the
    covered time is the sum of their durations.
    """
    own = {s.sid: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.seconds
    return own


def layer_metrics(spans: list[Span], counters: dict[str, int], *, outer_sweeps: int,
                  sweeps: list[int], log10_cond: float) -> dict[str, float]:
    """Per-layer metrics of one benchmark task from its spans and counters.

    ``sweeps`` is the number of Picard sweeps each solve of the task used and
    ``log10_cond`` the finest level's condition estimate; both are read from
    the returned solutions, not from spans.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def busy(name):
        return sum(s.seconds for s in by_name.get(name, ()))

    def self_s(name):
        return sum(own[s.sid] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def sizes(name):
        return [s.size for s in by_name.get(name, ())]

    factor_spans = by_name.get("orthonormalize.factor", ())
    return {
        "kernels.eval_grid_s": busy("kernels.eval_kernel_grid"),
        "kernels.eval_grid_calls": calls("kernels.eval_kernel_grid"),
        "kernels.eval_grid_values": sum(sizes("kernels.eval_kernel_grid")),
        "wave_operator.gram_s": self_s("wave_operator.gram_matrix"),
        "wave_operator.gram_entries": sum(sizes("wave_operator.gram_matrix")),
        "wave_operator.psi_values_s": self_s("wave_operator.psi_values"),
        "wave_operator.psi_values_calls": calls("wave_operator.psi_values"),
        "orthonormalize.factor_s": busy("orthonormalize.factor"),
        "orthonormalize.factor_n_max": max(sizes("orthonormalize.factor"), default=0),
        "orthonormalize.factor_failed": sum(1 for s in factor_spans if not s.ok),
        "orthonormalize.log10_cond": log10_cond,
        "solver.solve_s": busy("solver.solve"),
        "solver.solve_self_s": self_s("solver.solve"),
        "solver.sweeps": sum(sweeps),
        "solver.sweeps_at_cap": sum(1 for n in sweeps if n >= outer_sweeps),
        "solver.m_calls": counters.get("solver.m_calls", 0),
        "solver.evaluate_s": busy("solver.evaluate"),
        "solver.evaluate_calls": calls("solver.evaluate"),
        "solver.evaluate_dx_s": busy("solver.evaluate_dx"),
        "solver.evaluate_dx_calls": calls("solver.evaluate_dx"),
        "problems.homogenize_s": busy("problems.homogenize"),
        "problems.error_table_self_s": self_s("problems.error_table"),
    }


def median_metrics(per_task: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over tasks; integer counts stay integers."""
    out = {}
    for k in per_task[0]:
        values = [m[k] for m in per_task]
        if all(isinstance(v, int) for v in values):
            out[k] = statistics.median_low(values)
        else:
            out[k] = statistics.median(values)
    return out


def log10(x: float) -> float:
    return math.log10(x) if x > 0 and math.isfinite(x) else 0.0
