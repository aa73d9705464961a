"""Reproducing-kernel collocation solver for 1-D sine-Gordon and wave problems."""

from .errors import (
    ConfigError,
    DegenerateDomain,
    IncompatibleCorners,
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
    eval_kernel_grid,
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
    error_table,
    homogenize,
)
from .solver import (
    Solution,
    evaluate,
    evaluate_dx,
    generate_collocation,
    solution_norm,
    solve,
)
from .wave_operator import (
    RepresenterBasis,
    WaveOperator,
    gram_matrix,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
