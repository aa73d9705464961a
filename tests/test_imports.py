import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_does_not_load_scipy():
    # the package runs on numpy alone; importing scipy.linalg would add
    # 0.2-0.4 s to every start-up
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import sys, rkwave; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


PUBLIC_API = [
    "ConfigError", "Curve", "DegenerateDomain", "ErrorReport", "ErrorRow", "GramFactor",
    "HomogenizedProblem", "IncompatibleCorners", "NonFiniteValue", "NotPositiveDefinite",
    "OutOfDomain", "PiecewiseKernel", "ProblemSpec", "Rectangle", "RepresenterBasis",
    "SingularSystem", "Solution", "SpaceSpec", "WaveOperator", "builtin", "closed_form_kernel",
    "derive_kernel_oracle", "error_table", "errors", "eval_kernel_grid", "evaluate",
    "evaluate_dx", "factor", "generate_collocation", "gram_matrix", "homogenize", "kernels",
    "orthonormalize", "problems", "solution_norm", "solve", "solver", "space_spec",
    "wave_operator",
]


def test_public_api_is_the_solve_path():
    # verification references (pointwise representers, quadrature, finite
    # differences) live in tests/oracles.py, not in the package
    import rkwave

    assert sorted(rkwave.__all__) == PUBLIC_API


def test_benchmark_trace_points_resolve():
    # a trace point whose attribute is gone silently reports zero for its
    # layer; solver.psi_values left the solve when assembly became tensorial
    sys.path.insert(0, str(SRC.parent))
    try:
        from perfbench import run, tracing
    finally:
        sys.path.remove(str(SRC.parent))
    modules = vars(run.load_rkwave())
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in tracing.TRACE_POINTS
               if not hasattr(modules[mod], attr)]
    assert missing == ["solver.psi_values"]
