"""Batch front-end: flat config files in, error tables and summaries out.

Usage:

    rkwave <config-path> [--out <path>] [--format csv|markdown] [--print-config]

(a ``solve`` alias of the same entry point is installed as well).  The
config is flat ``key = value`` text with ``#`` comments; ``--print-config``
echoes the configuration that would run, defaults and the ``--out`` and
``--format`` overrides included, without solving.  Exit codes: 0 success,
2 config error, 3 numerical failure or a Gram matrix too large to map.

One table is written per refinement level (each level doubles nx and nt)
plus a summary with per-level max absolute error, solution norm, Gram
condition estimate and wall time.  For a fixed config the table files are
byte-identical from run to run; only the summary's seconds column varies.
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
from .errors import ConfigError, NonFiniteValue, NotPositiveDefinite, OutOfDomain
from .problems import (Curve, ErrorReport, ErrorRow, ProblemSpec, Rectangle, builtin,
                       error_table)
from .solver import generate_collocation

logger = logging.getLogger(__name__)

CSV_HEADER = ",".join(ErrorRow._fields)
SUMMARY_HEADER = "level,nx,nt,n_basis,max_abs_err,solution_norm,gram_condition,sweeps,seconds"
# the failures that exit 3, with the stderr prefix of each
_EXIT_3 = {NotPositiveDefinite: "numerical failure in orthonormalize.factor",
           NonFiniteValue: "numerical failure in solver.solve",
           MemoryError: "out of memory"}


def _g17(v: float) -> str:
    return f"{v:.17g}"


def _table_row(r: ErrorRow) -> list[str]:
    """The CSV_HEADER columns of one error-table row."""
    return list(map(_g17, r))


def _summary_row(level: int, nx: int, nt: int, sol: solver.Solution, report: ErrorReport,
                 seconds: float) -> list[str]:
    """The SUMMARY_HEADER columns of one refinement level."""
    return [str(level), str(nx), str(nt), str(len(sol.basis)), _g17(report.max_abs_error),
            _g17(solver.solution_norm(sol)), _g17(sol.beta.condition_estimate),
            str(sol.sweeps_used), f"{seconds:.6f}"]


_EXPR_NAMES = {name: getattr(math, name) for name in (
    "sin", "cos", "tan", "asin", "acos", "atan", "sinh", "cosh", "tanh", "exp", "log", "sqrt",
    "pi", "e")}
_EXPR_NAMES.update(arctan=math.atan, sech=problems.sech, abs=abs, min=min, max=max)
_ARITY = {name: (1, 1) for name, v in _EXPR_NAMES.items() if callable(v)}  # argument counts
_ARITY.update(log=(1, 2), min=(2, math.inf), max=(2, math.inf))

_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Call,
    ast.Load, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod,
    ast.USub, ast.UAdd, ast.FloorDiv,
)


class _PowAsCall(ast.NodeTransformer):
    """a ** b as pow(a, b), bound to math.pow: (-1) ** 0.5 raises ValueError, not a complex."""

    def visit_BinOp(self, node):
        node = self.generic_visit(node)
        if isinstance(node.op, ast.Pow):
            return ast.Call(ast.Name("pow", ast.Load()), [node.left, node.right], [])
        return node


def _checked_code(src: str, variables):
    """The code of ``src`` once it passes the checks ``compile_expression`` lists."""
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"bad expression {src!r}: {exc.msg}") from None
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ConfigError(f"bad expression {src!r}: {type(node).__name__} not allowed")
        if isinstance(node, ast.Call):
            low, high = _ARITY.get(getattr(node.func, "id", None), (1, 0))  # (1, 0): not callable
            if not low <= len(node.args) <= high:
                raise ConfigError(f"bad expression {src!r}: cannot call {ast.unparse(node)}")
        if isinstance(node, ast.Name) and node.id not in _EXPR_NAMES and node.id not in variables:
            raise ConfigError(f"bad expression {src!r}: unknown name {node.id!r}")
        if isinstance(node, ast.Constant):
            if type(node.value) not in (int, float) or abs(node.value) > sys.float_info.max:
                raise ConfigError(f"bad expression {src!r}: constants must be float numbers")
            node.value = float(node.value)
    return compile(ast.fix_missing_locations(_PowAsCall().visit(tree)), "<config>", "eval")


def compile_expression(src: str, variables=("x",)):
    """Compile a closed-form expression string into a float-valued callable.

    Only arithmetic, numbers (compiled as floats, so 9**9**9 overflows at once
    instead of building a huge integer), calls of the listed math functions
    with argument counts they take, and the given variable names are allowed.
    One nested too deeply to parse or compile (a 600-term sum) is a ConfigError.
    Arithmetic failures at evaluation time (division by zero, overflow, domain
    errors, such as a negative number to a fractional power) come back as NaN
    so that downstream finiteness checks can flag the offending point.
    """
    try:
        code = _checked_code(src, variables)
    except (RecursionError, MemoryError):
        raise ConfigError(f"bad expression {src!r}: nested too deeply") from None

    names = dict(_EXPR_NAMES, pow=math.pow, __builtins__={})

    def fn(*args):
        try:
            return float(eval(code, names, dict(zip(variables, args))))
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
    # the problem these keys build, set by parse_config; not a config key
    spec: ProblemSpec | None = field(default=None, init=False, repr=False, compare=False)


def _checked(convert, ok, requirement: str):
    """A key parser: ``convert`` the value text, then require ``ok`` of the result."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):  # written so that NaN fails
            raise ValueError(f"must be {requirement}")
        return value
    return parse


def _pair(convert, text: str) -> tuple:
    first, second = text.split(",")
    return convert(first), convert(second)


_POSITIVE = _checked(int, lambda v: v >= 1, ">= 1")

# config key -> (RunConfig field, parser with the key's range check, --print-config form),
# in --print-config order; unset (None) fields are not printed
_KEYS = {
    "problem": ("problem", _checked(str, lambda v: v in ("ex51", "ex52", "custom"),
                                    "ex51, ex52 or custom"), str),
    "nx": ("nx", _POSITIVE, str),
    "nt": ("nt", _POSITIVE, str),
    "outer_sweeps": ("outer_sweeps", _POSITIVE, str),
    "tol": ("tol", _checked(float, lambda v: 0.0 < v < math.inf, "positive and finite"), _g17),
    "refinement_levels": ("refinement_levels", _checked(int, lambda v: v >= 0, ">= 0"), str),
    "format": ("fmt", _checked(str, lambda v: v in ("csv", "markdown"), "csv or markdown"), str),
    "out": ("out", str, str),
    "a": ("a", float, _g17),
    "b": ("b", float, _g17),
    "eval_points": ("eval_points",
                    _checked(lambda s: [_pair(float, p) for p in s.split(";") if p.strip()],
                             bool, "at least one x,t point"),
                    lambda pts: "; ".join(f"{x:.17g},{t:.17g}" for x, t in pts)),
    "eval_grid": ("eval_grid", _checked(lambda s: _pair(int, s), lambda g: min(g) >= 2,
                                        "two sizes >= 2"), lambda g: f"{g[0]},{g[1]}"),
}
_OPTIONAL_CUSTOM_KEYS = ("nonlinearity", "source", "exact", "exact_dx")
_CUSTOM_KEYS = (
    "T", "f", "f_d1", "f_d2", "g", "g_d1", "g_d2",
    "h1", "h1_d1", "h1_d2", "h2", "h2_d1", "h2_d2",
) + _OPTIONAL_CUSTOM_KEYS


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
        if key in _CUSTOM_KEYS:
            cfg.custom[key] = value
        elif key in _KEYS:
            name, parse, _ = _KEYS[key]
            try:
                setattr(cfg, name, parse(value))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    cfg.spec = _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> ProblemSpec:
    """The rules that span keys (each key's own range is its parser's); returns the problem.

    An eval point must be one that ``Rectangle.to_canonical`` accepts.
    """
    if cfg.eval_points is not None and cfg.eval_grid is not None:
        raise ConfigError("eval_points and eval_grid are mutually exclusive")
    if cfg.problem != "custom" and cfg.custom:
        raise ConfigError(f"keys only for custom problems given with problem = {cfg.problem}: "
                          f"{', '.join(cfg.custom)}")
    if cfg.problem == "custom":
        if cfg.a is None or cfg.b is None:
            raise ConfigError("custom problems need explicit a and b")
        missing = [k for k in _CUSTOM_KEYS
                   if k not in cfg.custom and k not in _OPTIONAL_CUSTOM_KEYS]
        if missing:
            raise ConfigError(f"custom problem is missing keys: {', '.join(missing)}")
        if cfg.custom.get("nonlinearity", "none") not in ("sin", "none"):
            raise ConfigError("nonlinearity must be sin or none")
    try:
        spec = _build_problem(cfg)  # surfaces expression errors too
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{cfg.problem} problem rejected: {exc}") from None
    for x, t in cfg.eval_points or ():
        try:
            spec.domain.to_canonical(x, t)
        except OutOfDomain as exc:
            raise ConfigError(f"eval point {exc}") from None
    return spec


def _build_problem(cfg: RunConfig) -> ProblemSpec:
    if cfg.problem != "custom":
        return builtin(cfg.problem, a=cfg.a, b=cfg.b)
    c = cfg.custom

    def curve(prefix: str, variable: str) -> Curve:
        return Curve(*(compile_expression(c[prefix + d], (variable,)) for d in ("", "_d1", "_d2")))

    nonlin = math.sin if c.get("nonlinearity", "none") == "sin" else None
    optional = {k: compile_expression(c[k], ("x", "t"))
                for k in ("source", "exact", "exact_dx") if k in c}
    return ProblemSpec(
        domain=Rectangle(cfg.a, cfg.b, float(c["T"])),
        f=curve("f", "x"),
        g=curve("g", "x"),
        h1=curve("h1", "t"),
        h2=curve("h2", "t"),
        nonlinearity=nonlin,
        **optional,
    )


def _eval_points(cfg: RunConfig, domain: Rectangle) -> list[tuple[float, float]]:
    """The configured points, else a uniform grid or ten diagonal points of the unit
    square, x fastest, mapped onto the rectangle by ``from_canonical``."""
    if cfg.eval_points is not None:
        return list(cfg.eval_points)
    if cfg.eval_grid is not None:
        gx, gt = cfg.eval_grid
        return [domain.from_canonical(i / (gx - 1), j / (gt - 1))
                for j in range(gt) for i in range(gx)]
    return [domain.from_canonical(k / 10, k / 10) for k in range(1, 11)]


def resolved_config_text(cfg: RunConfig) -> str:
    lines = [f"{key} = {show(getattr(cfg, name))}"
             for key, (name, _, show) in _KEYS.items() if getattr(cfg, name) is not None]
    if cfg.eval_points is None and cfg.eval_grid is None:
        lines.append("eval_points = <default: 10 diagonal points>")
    lines += [f"{key} = {cfg.custom[key]}" for key in _CUSTOM_KEYS if key in cfg.custom]
    return "\n".join(lines) + "\n"


def _render(header: str, rows: list[list[str]], fmt: str) -> list[str]:
    """The lines of a CSV or markdown table."""
    if fmt == "csv":
        return [header] + [",".join(row) for row in rows]
    cols = header.split(",")
    return (["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
            + ["| " + " | ".join(row) + " |" for row in rows])


def _output_paths(out: str, levels: int, fmt: str):
    base = Path(out)
    suffix = base.suffix or (".csv" if fmt == "csv" else ".md")
    stem = base.with_suffix("")
    if levels == 1:
        table_paths = [base if base.suffix else base.with_suffix(suffix)]
    else:
        table_paths = [Path(f"{stem}_level{k}{suffix}") for k in range(levels)]
    return table_paths, Path(f"{stem}_summary{suffix}")


def run(cfg: RunConfig) -> int:
    """Execute the solve(s) of a ``parse_config`` result and write tables; returns an exit code.

    Raises ConfigError before any solve when ``cfg.out`` names no file, its
    directory does not exist, an output path is an existing directory or
    checking one fails (a file name too long for the file system).
    """
    grids = [(cfg.nx * 2 ** level, cfg.nt * 2 ** level)
             for level in range(cfg.refinement_levels + 1)]
    if cfg.out is not None:
        if Path(cfg.out).name in ("", ".."):
            raise ConfigError(f"cannot write {cfg.out!r}: the output path names no file")
        try:
            if not Path(cfg.out).parent.is_dir():
                raise ConfigError(f"cannot write {cfg.out}: "
                                  f"{Path(cfg.out).parent} is not an existing directory")
            table_paths, summary_path = _output_paths(cfg.out, len(grids), cfg.fmt)
            for path in (*table_paths, summary_path):
                if path.is_dir():
                    raise ConfigError(f"cannot write {path}: it is a directory")
        except OSError as exc:
            raise ConfigError(f"cannot write {exc.filename}: {exc.strerror}") from None
    problem = cfg.spec
    pts_eval = _eval_points(cfg, problem.domain)
    hp = problems.homogenize(problem)

    tables = []
    summary_rows = []
    for level, (nx, nt) in enumerate(grids):
        start = time.perf_counter()
        colloc = generate_collocation(nx, nt)
        sol = solver.solve(hp, colloc, outer_sweeps=cfg.outer_sweeps, tol=cfg.tol)
        if not sol.converged:
            logger.warning("level %d (nx=%d, nt=%d): stopped at outer_sweeps = %d with the "
                           "last sweep moving the values by %.3e > tol = %.3e",
                           level, nx, nt, sol.sweeps_used, sol.last_update, cfg.tol)
        report = error_table(sol, pts_eval)
        seconds = time.perf_counter() - start
        tables.append(_render(CSV_HEADER, [_table_row(r) for r in report.rows], cfg.fmt))
        summary_rows.append(_summary_row(level, nx, nt, sol, report, seconds))
    summary = _render(SUMMARY_HEADER, summary_rows, cfg.fmt)

    if cfg.out is None:
        for level, ((nx, nt), table) in enumerate(zip(grids, tables)):
            print(f"# level {level} (nx={nx}, nt={nt})")
            print("\n".join(table))
        print("# summary")
        print("\n".join(summary))
    else:
        for path, lines in zip([*table_paths, summary_path], [*tables, summary]):
            path.write_text("\n".join(lines) + "\n")
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
                        help="print the resolved configuration, overrides applied, and exit")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.out is not None:
            cfg.out = args.out
        if args.fmt is not None:
            cfg.fmt = args.fmt
        if args.print_config:
            sys.stdout.write(resolved_config_text(cfg))
            return 0
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except tuple(_EXIT_3) as exc:
        prefix = next(p for kind, p in _EXIT_3.items() if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
