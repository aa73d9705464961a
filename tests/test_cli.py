import errno
import math
import mmap
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rkwave import cli, problems
from rkwave.errors import ConfigError, NotPositiveDefinite


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def strip_seconds(text):
    lines = text.strip().splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        out.append(",".join(line.split(",")[:-1]))
    return "\n".join(out)


def test_parse_defaults(tmp_path):
    cfg = cli.parse_config(write(tmp_path, "problem = ex51\n"))
    assert (cfg.nx, cfg.nt) == (9, 9)
    assert cfg.outer_sweeps == 5
    assert cfg.tol == 1e-10
    assert cfg.refinement_levels == 0
    assert cfg.fmt == "csv"


def test_parse_rejects_bad_configs(tmp_path):
    for body in (
        "problem = ex51\nnx = 0\n",
        "problem = ex99\n",
        "problem = ex51\nordering = shuffled\n",
        "problem = ex51\nmystery = 1\n",
        "problem = ex51\nnx nine\n",
        "problem = custom\na = 0\nb = 1\n",  # missing expressions
        "problem = ex51\neval_points = 0.1,0.1\neval_grid = 3,3\n",
        "problem = ex51\nformat = yaml\n",
        "problem = ex51\neval_points = 2.0,0.5\n",  # outside the rectangle
        "problem = ex52\na = 1\nb = 0\n",  # degenerate rectangle
    ):
        with pytest.raises(ConfigError):
            cli.parse_config(write(tmp_path, body))


ZERO_DATA = "".join(f"{c}{d} = 0\n" for c in ("f", "g", "h1", "h2") for d in ("", "_d1", "_d2"))


@pytest.mark.parametrize("body, message", [
    ("problem = ex52\na = -inf\n", "is not finite"),
    ("problem = custom\na = 0\nb = inf\nT = 1\n" + ZERO_DATA, "is not finite"),
    ("problem = ex51\ntol = nan\n", "bad value for 'tol': must be positive and finite"),
    ("problem = ex52\ntol = inf\n", "bad value for 'tol': must be positive and finite"),
    ("problem = ex51\neval_points =\n", "bad value for 'eval_points'"),
    ("problem = ex51\nsource = x\nnonlinearity = sin\n", "problem = ex51: source, nonlinearity"),
    ("problem = ex52\nT = 2\nexact = 0\nf = 1\n", "problem = ex52: T, exact, f"),
    ("problem = ex52\na = -1e308\nb = 1e308\n", "has no unit-square operator"),
    ("problem = custom\na = 0\nb = 1\nT = 1e200\n" + ZERO_DATA, "has no unit-square operator"),
    ("problem = custom\na = 0\nb = 1e-170\nT = 1e-200\n" + ZERO_DATA,
     "has no unit-square operator"),
    ("problem = custom\na = 0\nb = 1e-150\nT = 1e150\n" + ZERO_DATA,
     "has no unit-square operator"),
    ("problem = ex51\na = 0.25\nb = 3\n", "ex51 is fixed on [0, 1]"),
    ("problem = custom\na = 0\nb = 1\nT = 1\n" + ZERO_DATA + "source = " + "+".join(["x"] * 600)
     + "\n", "nested too deeply"),
], ids=["ex52_a_-inf", "custom_b_inf", "tol_nan", "tol_inf", "empty_eval_points",
        "ex51_custom_keys", "ex52_custom_keys", "gamma_zero", "alpha_overflow",
        "operator_underflow", "gamma_squared_overflow", "ex51_rectangle", "deep_source"])
def test_config_error_exits_2_without_output(tmp_path, capsys, body, message):
    out = tmp_path / "o.csv"
    assert cli.main([str(write(tmp_path, body + f"nx = 2\nnt = 2\nout = {out}\n"))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert list(tmp_path.glob("o*")) == []


def test_missing_output_directory_exits_2_before_solving(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    missing = tmp_path / "nowhere" / "t.csv"
    solves = []
    monkeypatch.setattr(cli.solver, "solve", lambda *args, **kwargs: solves.append(args))
    body = "problem = ex51\nnx = 2\nnt = 2\n"
    assert cli.main([str(write(tmp_path, body + f"out = {missing}\n", "a.cfg"))]) == 2
    assert cli.main([str(write(tmp_path, body, "b.cfg")), "--out", str(missing)]) == 2
    assert capsys.readouterr().err.count(f"config error: cannot write {missing}") == 2
    # an output path that names no file; ".." would write "...csv" beside it
    for out in ("", "/", "..", f"{tmp_path}/.."):
        assert cli.main([str(write(tmp_path, body + f"out = {out}\n", "a.cfg"))]) == 2
        assert cli.main([str(write(tmp_path, body, "b.cfg")), "--out", out]) == 2
        assert capsys.readouterr().err.count(f"cannot write {out!r}: the output path names "
                                             "no file") == 2
    # a file name too long for the file system: the table's, or only the summary's
    for out, bad in ((tmp_path / f"{'a' * 300}.csv", None),
                     (tmp_path / f"{'b' * 250}.csv", tmp_path / f"{'b' * 250}_summary.csv")):
        assert cli.main([str(write(tmp_path, body + f"out = {out}\n", "a.cfg"))]) == 2
        assert cli.main([str(write(tmp_path, body, "b.cfg")), "--out", str(out)]) == 2
        assert capsys.readouterr().err.count(f"config error: cannot write {bad or out}: "
                                             "File name too long") == 2
    assert solves == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.cfg", "b.cfg"]


def test_directory_output_path_exits_2_before_solving(tmp_path, capsys, monkeypatch):
    # a table or summary path that is an existing directory
    solves = []
    monkeypatch.setattr(cli.solver, "solve", lambda *args, **kwargs: solves.append(args))
    (tmp_path / "x.csv").mkdir()
    (tmp_path / "y_summary.csv").mkdir()
    body = "problem = ex51\nnx = 2\nnt = 2\n"
    cfg = write(tmp_path, body, "a.cfg")
    levels = write(tmp_path, body + "refinement_levels = 1\n", "b.cfg")
    assert cli.main([str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert cli.main([str(levels), "--out", str(tmp_path / "y.csv")]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write {tmp_path / 'x.csv'}: it is a directory" in err
    assert f"config error: cannot write {tmp_path / 'y_summary.csv'}: it is a directory" in err
    assert solves == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.cfg", "b.cfg", "x.csv",
                                                          "y_summary.csv"]
    assert [list(p.iterdir()) for p in (tmp_path / "x.csv", tmp_path / "y_summary.csv")] == [[], []]


def test_expression_compiler_guards():
    f = cli.compile_expression("sin(pi*x)", ("x",))
    assert f(0.5) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        cli.compile_expression("__import__('os')", ("x",))
    with pytest.raises(ConfigError):
        cli.compile_expression("y + 1", ("x",))
    with pytest.raises(ConfigError):
        cli.compile_expression("lambda: 1", ("x",))
    # calls of a value or with an argument count the function cannot take
    for src in ("pi(x)", "x(1)", "sin(x, x)", "sin()", "min(x)"):
        with pytest.raises(ConfigError, match="cannot call"):
            cli.compile_expression(src, ("x",))
    assert math.isnan(cli.compile_expression("1/x", ("x",))(0.0))
    # a fractional power of a negative number is NaN, not a complex number
    for src in ("(x - 0.5)**0.5", "abs((x - 0.5)**0.5)"):
        assert math.isnan(cli.compile_expression(src, ("x",))(0.2))
    # too deep to parse or compile: 600- and 20000-term sums, a 3000-deep power tower
    for src in ("+".join(["x"] * 600), "+".join(["x"] * 20000), "**".join(["x"] * 3000)):
        with pytest.raises(ConfigError, match="nested too deeply"):
            cli.compile_expression(src, ("x",))
    assert cli.compile_expression("+".join(["x"] * 300), ("x",))(0.5) == 150.0


def test_compiled_expressions_keep_their_own_variables():
    f = cli.compile_expression("sin(pi*x) + 2**x", ("x",))
    g = cli.compile_expression("x - 3*t", ("x", "t"))
    for x, t in ((0.25, 1.0), (0.5, -2.0), (1.5, 0.0)):
        assert f(x) == math.sin(math.pi * x) + 2.0 ** x
        assert g(x, t) == x - 3.0 * t


def test_csv_columns_are_the_error_row_fields():
    # the header is built from the fields; the README documents this schema
    assert cli.CSV_HEADER == "x,t,exact,approx,abs_err,rel_err,seconds"
    row = problems.ErrorRow(0.1, 1 / 3, -2.5e-300, math.pi, math.inf, math.nan, 0.0012345678)
    with pytest.raises(AttributeError):
        row.approx = 0.0
    assert cli._table_row(row) == ["0.10000000000000001", "0.33333333333333331", "-2.5e-300",
                                   "3.1415926535897931", "inf", "nan", "0.001235"]
    assert cli._table_row(problems.ErrorRow(-1, 2, 0.0, -0.0, 1e-17, 7.0, 12.5)) == [
        "-1", "2", "0", "-0", "1.0000000000000001e-17", "7", "12.500000"]


def test_expression_sech_is_the_problems_sech(tmp_path):
    assert cli._EXPR_NAMES["sech"] is problems.sech
    assert cli.compile_expression("sech(x)", ("x",))(800.0) == 0.0
    # cosh overflows at x = 800; the ex52 boundary data there is sech(800) = 0
    cfg = write(tmp_path, "problem = ex52\na = -800\nb = 800\nnx = 2\nnt = 2\n")
    assert cli.main([str(cfg)]) == 0


def test_eval_points_within_the_margin_are_accepted(tmp_path, capsys):
    # ex51 is [0, 1] x [0, 1], whose margin is 1e-9
    margin = problems.builtin("ex51").domain.margin
    for k, accepted in ((0.5, True), (2.0, False)):
        for x, t in ((1 + k * margin, 0.5), (0.5, 1 + k * margin), (-k * margin, 0.5),
                     (0.5, -k * margin)):
            body = f"problem = ex51\nnx = 2\nnt = 2\neval_points = {x!r},{t!r}\n"
            code = cli.main([str(write(tmp_path, body))])
            captured = capsys.readouterr()
            if accepted:
                assert code == 0, captured.err
                assert f"\n{x:.17g},{t:.17g}," in captured.out
            else:
                assert code == 2 and captured.out == ""
                assert captured.err.startswith(f"config error: eval point ({x}, {t}) outside")


def test_eval_grid_and_default_points_on_the_builtins_keep_their_bits(tmp_path):
    for problem in ("ex51", "ex52"):
        for grid in (None, (2, 2), (3, 7), (11, 11), (101, 101)):
            body = f"problem = {problem}\n" + (f"eval_grid = {grid[0]},{grid[1]}\n" if grid
                                                else "")
            cfg = cli.parse_config(write(tmp_path, body))
            d = cli._build_problem(cfg).domain
            if grid is None:  # ten diagonal points
                want = [(d.a + k * (d.b - d.a) / 10, k * d.T / 10) for k in range(1, 11)]
            else:
                gx, gt = grid
                want = [(d.a + i * (d.b - d.a) / (gx - 1), j * d.T / (gt - 1))
                        for j in range(gt) for i in range(gx)]
            got = cli._eval_points(cfg, d)
            assert [(x.hex(), t.hex()) for x, t in got] == [(x.hex(), t.hex()) for x, t in want]


def test_eval_grid_on_a_custom_rectangle_is_the_mapped_unit_grid(tmp_path):
    cfg = cli.parse_config(write(tmp_path, "problem = custom\na = 0.1\nb = 0.7\nT = 3\n"
                                 + ZERO_DATA + "eval_grid = 11,11\n"))
    d = cli._build_problem(cfg).domain
    got = cli._eval_points(cfg, d)
    assert got == [d.from_canonical(i / 10, j / 10) for j in range(11) for i in range(11)]
    assert got[0] == (0.1, 0.0) and len(got) == 121
    for x, t in got:
        d.to_canonical(x, t)  # inside the margin
    cfg.eval_grid = None
    assert cli._eval_points(cfg, d) == [d.from_canonical(k / 10, k / 10) for k in range(1, 11)]


def test_expression_constants_must_be_numbers():
    # rejected at compile time, so nothing here is ever evaluated
    for src in ("'a'*10**10", "b'a'", "1j", "True + x", "None", "1" + "0" * 400):
        with pytest.raises(ConfigError):
            cli.compile_expression(src, ("x",))
    assert cli.compile_expression("7//2 + 2**-1", ("x",))(0.0) == 3.5


def test_power_tower_overflows_instead_of_hanging(tmp_path):
    # integer constants would make 9**9**9 a 369-million-digit integer; the
    # subprocess and its timeout keep a regression from hanging the suite.
    # The tower sits in f_d2, which the corner checks do not read (NaN
    # corner data is rejected, see test_nan_corner_data_exits_2)
    body = (
        "problem = custom\na = 0\nb = 1\nT = 1\n"
        "f = 0\nf_d1 = 0\nf_d2 = 9**9**9\n"
        "g = 0\ng_d1 = 0\ng_d2 = 0\n"
        "h1 = 0\nh1_d1 = 0\nh1_d2 = 0\n"
        "h2 = 0\nh2_d1 = 0\nh2_d2 = 0\n")
    script = ("import math, sys\nfrom rkwave import cli\n"
              "assert math.isnan(cli.compile_expression('9**9**9', ('x',))(0.5))\n"
              "sys.exit(cli.main([sys.argv[1], '--print-config']))\n")
    src_dir = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script, str(write(tmp_path, body))],
                         env={**os.environ, "PYTHONPATH": src_dir}, capture_output=True, text=True,
                         timeout=8)
    assert out.returncode == 0, out.stderr
    assert "f_d2 = 9**9**9" in out.stdout


def test_nan_corner_data_exits_2(tmp_path, capsys):
    # f = 9**9**9 evaluates to NaN at both corners, which no data can match
    out = tmp_path / "nan.csv"
    body = (
        "problem = custom\na = 0\nb = 1\nT = 1\n"
        "f = 9**9**9\nf_d1 = 0\nf_d2 = 0\n"
        "g = 0\ng_d1 = 0\ng_d2 = 0\n"
        "h1 = 0\nh1_d1 = 0\nh1_d2 = 0\n"
        "h2 = 0\nh2_d1 = 0\nh2_d2 = 0\n"
        f"exact = 0\nnx = 2\nnt = 2\nout = {out}\n")
    assert cli.main([str(write(tmp_path, body))]) == 2
    assert "corner compatibility h1(0) = f(a) fails: 0.0 vs nan" in capsys.readouterr().err
    assert list(tmp_path.glob("nan*")) == []


def test_malformed_config_exits_2_without_output(tmp_path):
    out = tmp_path / "t.csv"
    cfg = write(tmp_path, f"problem = ex51\nnx = 0\nout = {out}\n")
    assert cli.main([str(cfg)]) == 2
    assert not out.exists()
    assert cli.main([str(tmp_path / "missing.cfg")]) == 2


def test_print_config_resolves_defaults(tmp_path, capsys):
    cfg = write(tmp_path, "problem = ex52\nnx = 3\nnt = 4\n")
    assert cli.main([str(cfg), "--print-config"]) == 0
    text = capsys.readouterr().out
    assert "outer_sweeps = 5" in text
    assert "nx = 3" in text and "nt = 4" in text
    assert "eval_points = <default: 10 diagonal points>" in text


def test_print_config_applies_the_command_line_overrides(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "problem = ex51\nformat = csv\n")
    assert cli.main(["run.cfg", "--print-config", "--format", "markdown", "--out", "r.md"]) == 0
    text = capsys.readouterr().out
    assert "format = markdown" in text and "out = r.md" in text
    assert "format = csv" not in text
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_print_config_parses_back_to_the_same_config(tmp_path):
    custom = ("problem = custom\na = -0.5\nb = 1\nT = 2\n" + ZERO_DATA
              + "nonlinearity = none\nsource = 0\nexact = 0\nexact_dx = 0\n")
    for body in (custom + "nx = 3\nnt = 4\nouter_sweeps = 7\ntol = 1e-9\nrefinement_levels = 1\n"
                 "format = markdown\nout = r.md\neval_points = 0.1,0.2; 1,2\n",
                 "problem = ex52\na = -2\nb = 1.5\neval_grid = 4,3\n"):
        cfg = cli.parse_config(write(tmp_path, body))
        printed = write(tmp_path, cli.resolved_config_text(cfg), "printed.cfg")
        assert cli.parse_config(printed) == cfg


def test_run_ex51_csv(tmp_path):
    out = tmp_path / "t.csv"
    cfg = write(tmp_path, (
        "problem = ex51\nnx = 3\nnt = 3\n"
        "eval_points = 0.1,0.1; 0.5,0.5; 0.9,0.9\n"
        f"out = {out}\n"))
    assert cli.main([str(cfg)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.1 and float(first[1]) == 0.1
    assert float(first[2]) == pytest.approx(0.2938926262, abs=1e-9)
    summary = (tmp_path / "t_summary.csv").read_text().splitlines()
    assert summary[0] == cli.SUMMARY_HEADER
    assert len(summary) == 2


def test_csv_determinism_modulo_seconds(tmp_path):
    body = ("problem = ex51\nnx = 4\nnt = 4\n"
            "eval_points = 0.25,0.5; 0.5,0.5; 0.75,1.0\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main([str(write(tmp_path, body, "a.cfg")), "--out", str(out1)]) == 0
    assert cli.main([str(write(tmp_path, body, "b.cfg")), "--out", str(out2)]) == 0
    assert strip_seconds(out1.read_text()) == strip_seconds(out2.read_text())
    assert strip_seconds((tmp_path / "a_summary.csv").read_text()) == \
        strip_seconds((tmp_path / "b_summary.csv").read_text())


def test_refinement_levels_structure(tmp_path):
    out = tmp_path / "r.csv"
    cfg = write(tmp_path, (
        "problem = ex52\nnx = 3\nnt = 3\nrefinement_levels = 2\n"
        "eval_points = -0.8,1.0; 0.0,1.0; 0.8,1.0\n"
        f"out = {out}\n"))
    assert cli.main([str(cfg)]) == 0
    for k in range(3):
        assert (tmp_path / f"r_level{k}.csv").exists()
    summary = (tmp_path / "r_summary.csv").read_text().strip().splitlines()
    assert len(summary) == 4
    grids = [(line.split(",")[1], line.split(",")[2]) for line in summary[1:]]
    assert grids == [("3", "3"), ("6", "6"), ("12", "12")]
    errs = [float(line.split(",")[4]) for line in summary[1:]]
    assert errs[2] < errs[0]  # coarsest to finest improves


def test_refinement_monotone_max_error_ex51(tmp_path):
    out = tmp_path / "m.csv"
    cfg = write(tmp_path, (
        "problem = ex51\nnx = 3\nnt = 3\nrefinement_levels = 2\n"
        f"out = {out}\n"))
    assert cli.main([str(cfg)]) == 0
    summary = (tmp_path / "m_summary.csv").read_text().strip().splitlines()
    errs = [float(line.split(",")[4]) for line in summary[1:]]
    assert errs[0] > errs[1] > errs[2]


def test_markdown_output(tmp_path):
    out = tmp_path / "t.md"
    cfg = write(tmp_path, (
        "problem = ex51\nnx = 2\nnt = 2\nformat = markdown\n"
        "eval_points = 0.5,0.5\n"
        f"out = {out}\n"))
    assert cli.main([str(cfg)]) == 0
    text = out.read_text()
    assert text.startswith("| x | t | exact |")
    assert "|---|" in text


def test_eval_grid(tmp_path, capsys):
    cfg = write(tmp_path, "problem = ex51\nnx = 2\nnt = 2\neval_grid = 3,2\n")
    assert cli.main([str(cfg)]) == 0
    table = capsys.readouterr().out.split("# summary")[0]
    data = [ln for ln in table.splitlines()
            if ln and not ln.startswith(("#", "x,"))]
    assert len(data) == 6  # 3 x-values at 2 times


def test_custom_problem_matches_builtin(tmp_path):
    body = (
        "problem = custom\na = 0\nb = 1\nT = 1\n"
        "f = sin(pi*x)\nf_d1 = pi*cos(pi*x)\nf_d2 = -(pi**2)*sin(pi*x)\n"
        "g = 0\ng_d1 = 0\ng_d2 = 0\n"
        "h1 = 0\nh1_d1 = 0\nh1_d2 = 0\n"
        "h2 = 0\nh2_d1 = 0\nh2_d2 = 0\n"
        "nonlinearity = none\n"
        "exact = sin(pi*x)*cos(pi*t)\n"
        "nx = 3\nnt = 3\neval_points = 0.3,0.4\n")
    out_c = tmp_path / "custom.csv"
    assert cli.main([str(write(tmp_path, body, "c.cfg")), "--out", str(out_c)]) == 0
    out_b = tmp_path / "builtin.csv"
    assert cli.main([str(write(tmp_path,
                               "problem = ex51\nnx = 3\nnt = 3\neval_points = 0.3,0.4\n",
                               "b.cfg")), "--out", str(out_b)]) == 0
    row_c = out_c.read_text().splitlines()[1].split(",")
    row_b = out_b.read_text().splitlines()[1].split(",")
    assert float(row_c[3]) == pytest.approx(float(row_b[3]), abs=1e-12)


def test_each_problem_is_built_once_per_run(tmp_path, capsys, monkeypatch):
    # parse_config validates the keys by building the problem; run reuses it
    calls = []
    build = cli._build_problem

    def counted(cfg):
        calls.append(cfg.problem)
        return build(cfg)

    monkeypatch.setattr(cli, "_build_problem", counted)
    body = "problem = custom\na = 0\nb = 1\nT = 1\n" + ZERO_DATA + "source = x*t\nnx = 2\nnt = 2\n"
    assert cli.main([str(write(tmp_path, body))]) == 0
    assert calls == ["custom"]
    assert "# summary" in capsys.readouterr().out


def test_numerical_failure_exits_3(tmp_path, capsys):
    # the source expression blows up exactly at a collocation point, or is
    # NaN there as a fractional power of a negative number
    body = (
        "problem = custom\na = 0\nb = 1\nT = 1\n"
        "f = 0\nf_d1 = 0\nf_d2 = 0\n"
        "g = 0\ng_d1 = 0\ng_d2 = 0\n"
        "h1 = 0\nh1_d1 = 0\nh1_d2 = 0\n"
        "h2 = 0\nh2_d1 = 0\nh2_d2 = 0\n"
        "nx = 2\nnt = 2\n")
    for source in ("1/(x - 1/3)", "(x - 0.5)**0.5"):
        assert cli.main([str(write(tmp_path, body + f"source = {source}\n"))]) == 3
        assert "solver.solve" in capsys.readouterr().err


def test_factor_failure_exits_3(tmp_path, capsys, monkeypatch):
    exc = NotPositiveDefinite(3, "leading minor of order 4 is not positive definite at "
                                 "collocation point (xi, tau) = (0.5, 0.5)")

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli.solver, "solve", fail)
    assert cli.main([str(write(tmp_path, "problem = ex51\nnx = 2\nnt = 2\n"))]) == 3
    assert f"numerical failure in orthonormalize.factor: {exc}\n" in capsys.readouterr().err


def test_gram_matrix_too_large_to_map_exits_3(tmp_path, capsys, monkeypatch, unfolded):
    # mmap refuses A, as it refuses the 205 GB A of a 400x400 grid on a
    # machine without that much memory; the run stops with one line naming
    # N, not a traceback.  Unfolded, the first matrix mapped is A
    def refuse(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(mmap, "mmap", refuse)
    assert cli.main([str(write(tmp_path, "problem = ex51\nnx = 4\nnt = 4\n"))]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and "N = 16 " in err[0] and "2048 bytes" in err[0], err


def test_seconds_column_without_exact_solution(tmp_path):
    body = (
        "problem = custom\na = 0\nb = 1\nT = 1\n"
        "f = sin(pi*x)\nf_d1 = pi*cos(pi*x)\nf_d2 = -(pi**2)*sin(pi*x)\n"
        "g = 0\ng_d1 = 0\ng_d2 = 0\n"
        "h1 = 0\nh1_d1 = 0\nh1_d2 = 0\n"
        "h2 = 0\nh2_d1 = 0\nh2_d2 = 0\n"
        "nx = 3\nnt = 3\neval_points = 0.3,0.4; 0.5,0.5; 0.9,0.1\n")
    out = tmp_path / "run.csv"
    assert cli.main([str(write(tmp_path, body)), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 3
    for row in rows:
        assert math.isnan(float(row[2]))
        assert float(row[6]) > 0.0


def test_sweep_cap_warns_without_failing(tmp_path, caplog):
    body = "problem = ex52\nnx = 3\nnt = 3\nouter_sweeps = 2\nrefinement_levels = 1\n"
    out = tmp_path / "run.csv"
    with caplog.at_level("WARNING", logger="rkwave.cli"):
        assert cli.main([str(write(tmp_path, body)), "--out", str(out)]) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert [m.split(" ")[:2] for m in warnings] == [["level", "0"], ["level", "1"]]
    assert all("outer_sweeps = 2" in m for m in warnings)
    summary = (tmp_path / "run_summary.csv").read_text().splitlines()
    assert summary[0] == cli.SUMMARY_HEADER
    caplog.clear()
    with caplog.at_level("WARNING", logger="rkwave.cli"):
        assert cli.main([str(write(tmp_path, "problem = ex51\nnx = 3\nnt = 3\n"))]) == 0
    assert not [r for r in caplog.records if r.name == "rkwave.cli"]
