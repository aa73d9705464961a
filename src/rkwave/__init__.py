"""Reproducing-kernel collocation solver for 1-D sine-Gordon and wave problems."""

from .errors import (
    ConfigError,
    DegenerateDomain,
    DiagonalDerivativeUndefined,
    IncompatibleCorners,
    NoExactSolution,
    NonFiniteValue,
    NotPositiveDefinite,
    OutOfDomain,
    SingularSystem,
)
from .kernels import (
    PiecewiseKernel,
    SpaceSpec,
    closed_form_kernel,
    derive_kernel_oracle,
    eval_kernel,
    inner_product_numeric,
    kernel_section,
    space_spec,
)
from .orthonormalize import GramFactor, factor
from .problems import (
    Curve,
    ErrorReport,
    ErrorRow,
    HomogenizedProblem,
    ProblemSpec,
    Rectangle,
    builtin,
    canonicalize,
    error_table,
    homogenize,
)
from .solver import (
    CollocationSet,
    Solution,
    evaluate,
    evaluate_dx,
    generate_collocation,
    solution_norm,
    solve,
)
from .tensor_space import TensorKernel, eval_tensor, inner_product_numeric_2d, kernel_w, kernel_w_hat, tensor_section
from .wave_operator import (
    RepresenterBasis,
    WaveOperator,
    apply_L_numeric,
    gram_entry,
    gram_matrix,
    psi_eval,
    psi_section,
    psi_values,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
