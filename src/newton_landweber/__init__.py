"""Newton-type iteratively regularized Landweber iteration in L^p spaces.

A two-loop regularizing solver for nonlinear ill-posed operator equations
posed between Lebesgue sequence/function spaces, together with an elliptic
coefficient-identification forward operator and a reproducible experiment
harness.  The outer loop linearizes the operator Newton-style and stops by
the discrepancy principle; the inner loop runs an iteratively regularized
Landweber iteration on the linearized equation in the dual space, with
adaptively chosen step factor omega and regularization weight alpha.
"""

from .geometry import (
    SpaceParams,
    bregman,
    conjugate_exponent,
    duality_map,
    inverse_duality_map,
    lp_norm,
    pairing,
    shifted_bregman,
)
from .grids import Grid, GridFunction, GridMismatchError
from .schedules import (
    ConfigurationError,
    InnerBudget,
    alpha_check,
    alpha_hat,
    choose_omega,
    choose_vartheta,
    next_alpha,
    phi,
    theta_exponent,
)
from .forward import (
    EllipticProblem,
    ForwardEvaluation,
    SingularOperatorError,
    adjoint_apply,
    derivative_apply,
    forward,
    solve_state,
)
from .solver import (
    IterationLog,
    IterationRecord,
    OuterRecord,
    RunResult,
    SolverConfig,
    run,
)
from .experiments import (
    ExperimentSpec,
    NoiseSpec,
    PRESETS,
    RunReport,
    add_outliers,
    apply_overrides,
    build_spec,
    compute_error,
    generate_noise,
    make_example1,
    make_example2,
    make_example2d,
    make_example3,
    run_experiment,
)
from .reporting import write_run, write_summary_rows

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "GridFunction",
    "GridMismatchError",
    "SpaceParams",
    "conjugate_exponent",
    "lp_norm",
    "pairing",
    "duality_map",
    "inverse_duality_map",
    "bregman",
    "shifted_bregman",
    "phi",
    "ConfigurationError",
    "InnerBudget",
    "theta_exponent",
    "choose_vartheta",
    "choose_omega",
    "alpha_check",
    "alpha_hat",
    "next_alpha",
    "EllipticProblem",
    "ForwardEvaluation",
    "SingularOperatorError",
    "solve_state",
    "forward",
    "derivative_apply",
    "adjoint_apply",
    "SolverConfig",
    "RunResult",
    "IterationLog",
    "IterationRecord",
    "OuterRecord",
    "run",
    "ExperimentSpec",
    "NoiseSpec",
    "RunReport",
    "PRESETS",
    "generate_noise",
    "add_outliers",
    "compute_error",
    "run_experiment",
    "apply_overrides",
    "build_spec",
    "make_example1",
    "make_example2",
    "make_example3",
    "make_example2d",
    "write_run",
    "write_summary_rows",
    "__version__",
]
