"""fracwave: closed-form travelling-wave solutions of fractional wave
equations on scaled coordinates, plus the numerical machinery to verify them
(fractional operators, grid residuals, stability bounds)."""

from .core import (
    DomainError,
    FractionalOrder,
    QuadratureError,
    Tolerance,
    as_order,
    euler_power_coefficient,
    gamma,
)
from .expr import EvaluationError, Expression, ParseError, evaluate, parse, to_text
from .fracops import (
    QuadratureConfig,
    Samples1D,
    caputo_derivative,
    integral_dx_alpha,
    jumarie_derivative,
    jumarie_derivative_grid,
    rl_derivative,
    rl_integral,
)
from .solver import (
    ClosedFormSolution,
    Field2D,
    WaveProblem,
    characteristic_constant,
    evaluate_field,
    g_integral,
    solve_dalembert,
    solve_first_order,
)
from .transform import FractalCoords, TransformSpec, from_fractal, operator_scale, to_fractal
from .verify import (
    InitialConditionReport,
    ResidualReport,
    StabilityReport,
    check_initial_conditions,
    pde_residual,
    route_equivalence,
    stability_check,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "FractionalOrder",
    "QuadratureError",
    "Tolerance",
    "as_order",
    "euler_power_coefficient",
    "gamma",
    "EvaluationError",
    "Expression",
    "ParseError",
    "evaluate",
    "parse",
    "to_text",
    "QuadratureConfig",
    "Samples1D",
    "caputo_derivative",
    "integral_dx_alpha",
    "jumarie_derivative",
    "jumarie_derivative_grid",
    "rl_derivative",
    "rl_integral",
    "ClosedFormSolution",
    "Field2D",
    "WaveProblem",
    "characteristic_constant",
    "evaluate_field",
    "g_integral",
    "solve_dalembert",
    "solve_first_order",
    "FractalCoords",
    "TransformSpec",
    "from_fractal",
    "operator_scale",
    "to_fractal",
    "InitialConditionReport",
    "ResidualReport",
    "StabilityReport",
    "check_initial_conditions",
    "pde_residual",
    "route_equivalence",
    "stability_check",
    "__version__",
]
