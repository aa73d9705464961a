"""Batch front-end: flat config files in, error tables and summaries out.

Usage:

    rkwave <config-path> [--out <path>] [--format csv|markdown] [--print-config]

(a ``solve`` alias of the same entry point is installed as well).  The
config is flat ``key = value`` text with ``#`` comments; ``--print-config``
echoes the fully resolved configuration, defaults included, without
solving.  Exit codes: 0 success, 2 config error, 3 numerical failure.

One table is written per refinement level (each level doubles nx and nt)
plus a summary with per-level max absolute error, solution norm, Gram
condition estimate and wall time.  CSV output is deterministic for a fixed
config except for the seconds columns.
"""

from __future__ import annotations

import argparse
import ast
import logging
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import problems, solver
from .errors import ConfigError, NonFiniteValue, NotPositiveDefinite
from .problems import Curve, ProblemSpec, Rectangle, builtin, error_table
from .solver import generate_collocation

logger = logging.getLogger(__name__)

CSV_HEADER = "x,t,exact,approx,abs_err,rel_err,seconds"
SUMMARY_HEADER = "level,nx,nt,n_basis,max_abs_err,solution_norm,gram_condition,sweeps,seconds"

_EXPR_NAMES = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "asin": math.asin, "acos": math.acos, "atan": math.atan, "arctan": math.atan,
    "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
    "sech": lambda v: 1.0 / math.cosh(v),
    "exp": math.exp, "log": math.log, "sqrt": math.sqrt,
    "abs": abs, "min": min, "max": max,
    "pi": math.pi, "e": math.e,
}

_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Call,
    ast.Load, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod,
    ast.USub, ast.UAdd, ast.FloorDiv,
)


def compile_expression(src: str, variables=("x",)):
    """Compile a closed-form expression string into a float-valued callable.

    Only arithmetic, numbers (compiled as floats, so 9**9**9 overflows at once
    instead of building a huge integer), the listed math functions, and the
    given variable names are allowed.  Arithmetic failures at evaluation time
    (division by zero, overflow, domain errors) come back as NaN so that
    downstream finiteness checks can flag the offending point.
    """
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"bad expression {src!r}: {exc.msg}") from None
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ConfigError(f"bad expression {src!r}: {type(node).__name__} not allowed")
        if isinstance(node, ast.Call) and not isinstance(node.func, ast.Name):
            raise ConfigError(f"bad expression {src!r}: only direct function calls allowed")
        if isinstance(node, ast.Name) and node.id not in _EXPR_NAMES and node.id not in variables:
            raise ConfigError(f"bad expression {src!r}: unknown name {node.id!r}")
        if isinstance(node, ast.Constant):
            if type(node.value) not in (int, float) or abs(node.value) > sys.float_info.max:
                raise ConfigError(f"bad expression {src!r}: constants must be float numbers")
            node.value = float(node.value)
    code = compile(tree, "<config>", "eval")

    def fn(*args):
        scope = dict(_EXPR_NAMES)
        scope.update(zip(variables, args))
        try:
            return float(eval(code, {"__builtins__": {}}, scope))
        except (ZeroDivisionError, OverflowError, ValueError):
            return float("nan")

    return fn


@dataclass
class RunConfig:
    """Resolved run configuration with defaults filled in."""

    problem: str = "ex51"
    nx: int = 9
    nt: int = 9
    outer_sweeps: int = 5
    tol: float = 1e-10
    refinement_levels: int = 0
    fmt: str = "csv"
    out: str | None = None
    a: float | None = None
    b: float | None = None
    eval_points: list[tuple[float, float]] | None = None
    eval_grid: tuple[int, int] | None = None
    custom: dict[str, str] = field(default_factory=dict)


_CUSTOM_KEYS = (
    "T", "f", "f_d1", "f_d2", "g", "g_d1", "g_d2",
    "h1", "h1_d1", "h1_d2", "h2", "h2_d1", "h2_d2",
    "nonlinearity", "source", "exact", "exact_dx",
)
_INT_KEYS = {"nx", "nt", "outer_sweeps", "refinement_levels"}
_FLOAT_KEYS = {"tol", "a", "b"}


def parse_config(path: str | Path) -> RunConfig:
    """Parse and validate a flat key = value config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        _apply_key(cfg, key, value, f"{path}:{lineno}")
    _validate(cfg)
    return cfg


def _apply_key(cfg: RunConfig, key: str, value: str, where: str) -> None:
    try:
        if key == "problem":
            cfg.problem = value
        elif key in _INT_KEYS:
            setattr(cfg, key, int(value))
        elif key in _FLOAT_KEYS:
            setattr(cfg, key, float(value))
        elif key == "format":
            cfg.fmt = value
        elif key == "out":
            cfg.out = value
        elif key == "eval_points":
            pts = []
            for chunk in value.split(";"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                x_str, t_str = chunk.split(",")
                pts.append((float(x_str), float(t_str)))
            cfg.eval_points = pts
        elif key == "eval_grid":
            gx_str, gt_str = value.split(",")
            cfg.eval_grid = (int(gx_str), int(gt_str))
        elif key in _CUSTOM_KEYS:
            cfg.custom[key] = value
        else:
            raise ConfigError(f"unknown key {key!r}")
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from None


def _validate(cfg: RunConfig) -> None:
    if cfg.problem not in ("ex51", "ex52", "custom"):
        raise ConfigError(f"problem must be ex51, ex52 or custom, got {cfg.problem!r}")
    if cfg.nx < 1 or cfg.nt < 1:
        raise ConfigError(f"nx and nt must be >= 1, got nx={cfg.nx} nt={cfg.nt}")
    if cfg.outer_sweeps < 1:
        raise ConfigError("outer_sweeps must be >= 1")
    if cfg.refinement_levels < 0:
        raise ConfigError("refinement_levels must be >= 0")
    if cfg.fmt not in ("csv", "markdown"):
        raise ConfigError("format must be csv or markdown")
    if cfg.eval_points is not None and cfg.eval_grid is not None:
        raise ConfigError("eval_points and eval_grid are mutually exclusive")
    if cfg.eval_grid is not None and (cfg.eval_grid[0] < 2 or cfg.eval_grid[1] < 2):
        raise ConfigError("eval_grid sizes must be >= 2")
    if cfg.tol <= 0:
        raise ConfigError("tol must be positive")
    if cfg.problem == "custom":
        required = ("T", "f", "f_d1", "f_d2", "g", "g_d1", "g_d2",
                    "h1", "h1_d1", "h1_d2", "h2", "h2_d1", "h2_d2")
        missing = [k for k in required if k not in cfg.custom]
        if cfg.a is None or cfg.b is None:
            raise ConfigError("custom problems need explicit a and b")
        if missing:
            raise ConfigError(f"custom problem is missing keys: {', '.join(missing)}")
        nl = cfg.custom.get("nonlinearity", "none")
        if nl not in ("sin", "none"):
            raise ConfigError("nonlinearity must be sin or none")
    try:
        domain = _build_problem(cfg).domain  # surfaces expression errors too
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{cfg.problem} problem rejected: {exc}") from None
    for x, t in cfg.eval_points or ():
        if not (domain.a <= x <= domain.b and 0.0 <= t <= domain.T):
            raise ConfigError(f"eval point ({x}, {t}) lies outside "
                              f"[{domain.a}, {domain.b}] x [0, {domain.T}]")


def _build_problem(cfg: RunConfig) -> ProblemSpec:
    if cfg.problem == "ex51":
        return builtin("ex51")
    if cfg.problem == "ex52":
        return builtin("ex52", a=cfg.a, b=cfg.b)
    c = cfg.custom

    def curve(prefix: str, variable: str) -> Curve:
        return Curve(
            compile_expression(c[prefix], (variable,)),
            compile_expression(c[prefix + "_d1"], (variable,)),
            compile_expression(c[prefix + "_d2"], (variable,)),
        )

    nonlin = math.sin if c.get("nonlinearity", "none") == "sin" else None
    source = compile_expression(c["source"], ("x", "t")) if "source" in c else None
    exact = compile_expression(c["exact"], ("x", "t")) if "exact" in c else None
    exact_dx = compile_expression(c["exact_dx"], ("x", "t")) if "exact_dx" in c else None
    return ProblemSpec(
        domain=Rectangle(cfg.a, cfg.b, float(c["T"])),
        f=curve("f", "x"),
        g=curve("g", "x"),
        h1=curve("h1", "t"),
        h2=curve("h2", "t"),
        nonlinearity=nonlin,
        source=source,
        exact=exact,
        exact_dx=exact_dx,
    )


def _eval_points(cfg: RunConfig, domain: Rectangle) -> list[tuple[float, float]]:
    if cfg.eval_points is not None:
        return list(cfg.eval_points)
    if cfg.eval_grid is not None:
        gx, gt = cfg.eval_grid
        xs = [domain.a + i * (domain.b - domain.a) / (gx - 1) for i in range(gx)]
        ts = [j * domain.T / (gt - 1) for j in range(gt)]
        return [(x, t) for t in ts for x in xs]
    # default: ten diagonal points scaled to the rectangle
    return [(domain.a + k * (domain.b - domain.a) / 10, k * domain.T / 10)
            for k in range(1, 11)]


def resolved_config_text(cfg: RunConfig) -> str:
    lines = [
        f"problem = {cfg.problem}",
        f"nx = {cfg.nx}",
        f"nt = {cfg.nt}",
        f"outer_sweeps = {cfg.outer_sweeps}",
        f"tol = {cfg.tol:.17g}",
        f"refinement_levels = {cfg.refinement_levels}",
        f"format = {cfg.fmt}",
    ]
    if cfg.out is not None:
        lines.append(f"out = {cfg.out}")
    if cfg.a is not None:
        lines.append(f"a = {cfg.a:.17g}")
    if cfg.b is not None:
        lines.append(f"b = {cfg.b:.17g}")
    if cfg.eval_points is not None:
        pts = "; ".join(f"{x:.17g},{t:.17g}" for x, t in cfg.eval_points)
        lines.append(f"eval_points = {pts}")
    elif cfg.eval_grid is not None:
        lines.append(f"eval_grid = {cfg.eval_grid[0]},{cfg.eval_grid[1]}")
    else:
        lines.append("eval_points = <default: 10 diagonal points>")
    for key in _CUSTOM_KEYS:
        if key in cfg.custom:
            lines.append(f"{key} = {cfg.custom[key]}")
    return "\n".join(lines) + "\n"


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _table_lines(rows, fmt: str) -> list[str]:
    cols = CSV_HEADER.split(",")
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in rows:
            lines.append(",".join((_fmt(r.x), _fmt(r.t), _fmt(r.exact), _fmt(r.approx),
                                   _fmt(r.abs_err), _fmt(r.rel_err), f"{r.seconds:.6f}")))
        return lines
    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for r in rows:
        lines.append("| " + " | ".join((_fmt(r.x), _fmt(r.t), _fmt(r.exact), _fmt(r.approx),
                                        _fmt(r.abs_err), _fmt(r.rel_err), f"{r.seconds:.6f}")) + " |")
    return lines


def _summary_lines(entries, fmt: str) -> list[str]:
    cols = SUMMARY_HEADER.split(",")
    body = [[str(e["level"]), str(e["nx"]), str(e["nt"]), str(e["n_basis"]),
             _fmt(e["max_abs_err"]), _fmt(e["solution_norm"]), _fmt(e["gram_condition"]),
             str(e["sweeps"]), f"{e['seconds']:.6f}"] for e in entries]
    if fmt == "csv":
        return [SUMMARY_HEADER] + [",".join(row) for row in body]
    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    lines += ["| " + " | ".join(row) + " |" for row in body]
    return lines


def _output_paths(out: str, levels: int, fmt: str):
    base = Path(out)
    suffix = base.suffix or (".csv" if fmt == "csv" else ".md")
    stem = base.with_suffix("")
    if levels == 1:
        table_paths = [base if base.suffix else base.with_suffix(suffix)]
    else:
        table_paths = [Path(f"{stem}_level{k}{suffix}") for k in range(levels)]
    return table_paths, Path(f"{stem}_summary{suffix}")


def run(cfg: RunConfig, out: str | None = None, fmt: str | None = None) -> int:
    """Execute the configured solve(s) and write tables; returns an exit code."""
    fmt = fmt or cfg.fmt
    out = out if out is not None else cfg.out
    problem = _build_problem(cfg)
    pts_eval = _eval_points(cfg, problem.domain)
    hp = problems.homogenize(problem)

    nlevels = cfg.refinement_levels + 1
    tables = []
    summary = []
    for level in range(nlevels):
        nx = cfg.nx * 2 ** level
        nt = cfg.nt * 2 ** level
        start = time.perf_counter()
        colloc = generate_collocation(nx, nt)
        sol = solver.solve(hp, colloc, outer_sweeps=cfg.outer_sweeps, tol=cfg.tol)
        if not sol.converged:
            logger.warning("level %d (nx=%d, nt=%d): stopped at outer_sweeps = %d with the "
                           "last sweep moving the values by %.3e > tol = %.3e",
                           level, nx, nt, sol.sweeps_used, sol.last_update, cfg.tol)
        report = error_table(sol, pts_eval)
        seconds = time.perf_counter() - start
        tables.append(report.rows)
        summary.append({
            "level": level, "nx": nx, "nt": nt, "n_basis": len(sol.basis),
            "max_abs_err": report.max_abs_error,
            "solution_norm": solver.solution_norm(sol),
            "gram_condition": sol.beta.condition_estimate,
            "sweeps": sol.sweeps_used,
            "seconds": seconds,
        })

    if out is None:
        for level, rows in enumerate(tables):
            print(f"# level {level} (nx={summary[level]['nx']}, nt={summary[level]['nt']})")
            print("\n".join(_table_lines(rows, fmt)))
        print("# summary")
        print("\n".join(_summary_lines(summary, fmt)))
    else:
        table_paths, summary_path = _output_paths(out, nlevels, fmt)
        for path, rows in zip(table_paths, tables):
            path.write_text("\n".join(_table_lines(rows, fmt)) + "\n")
        summary_path.write_text("\n".join(_summary_lines(summary, fmt)) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rkwave",
        description="Kernel-collocation solver for 1-D sine-Gordon / linear wave problems",
    )
    parser.add_argument("config", help="path to a flat key = value run configuration")
    parser.add_argument("--out", default=None, help="output path (overrides the config)")
    parser.add_argument("--format", dest="fmt", choices=("csv", "markdown"), default=None,
                        help="output format (overrides the config)")
    parser.add_argument("--print-config", action="store_true",
                        help="print the resolved configuration and exit")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.print_config:
        sys.stdout.write(resolved_config_text(cfg))
        return 0
    try:
        return run(cfg, out=args.out, fmt=args.fmt)
    except NotPositiveDefinite as exc:
        print(f"numerical failure in orthonormalize.factor: {exc}", file=sys.stderr)
        return 3
    except NonFiniteValue as exc:
        print(f"numerical failure in solver.solve: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
