import math

import pytest

from rkwave import cli
from rkwave.errors import ConfigError


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


def test_expression_compiler_guards():
    f = cli.compile_expression("sin(pi*x)", ("x",))
    assert f(0.5) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        cli.compile_expression("__import__('os')", ("x",))
    with pytest.raises(ConfigError):
        cli.compile_expression("y + 1", ("x",))
    with pytest.raises(ConfigError):
        cli.compile_expression("lambda: 1", ("x",))
    assert math.isnan(cli.compile_expression("1/x", ("x",))(0.0))


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


def test_numerical_failure_exits_3(tmp_path, capsys):
    # the source expression blows up exactly at a collocation point
    body = (
        "problem = custom\na = 0\nb = 1\nT = 1\n"
        "f = 0\nf_d1 = 0\nf_d2 = 0\n"
        "g = 0\ng_d1 = 0\ng_d2 = 0\n"
        "h1 = 0\nh1_d1 = 0\nh1_d2 = 0\n"
        "h2 = 0\nh2_d1 = 0\nh2_d2 = 0\n"
        "source = 1/(x - 1/3)\n"
        "nx = 2\nnt = 2\n")
    assert cli.main([str(write(tmp_path, body))]) == 3
    assert "solver.solve" in capsys.readouterr().err
