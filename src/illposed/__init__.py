"""Diagnostics for identifiability, conditioning, and estimability of inverse problems."""

from .diagnostics import (
    Classification,
    DiagnosisReport,
    bounded_away_from_zero,
    diagnose,
    perturbation_amplification,
    spectrum_decay,
    stability_bound_check,
)
from .errors import (
    CompositionError,
    IllposedError,
    InvalidInputError,
    NoSolutionError,
    NumericalFailureError,
    ParseError,
)
from .finite_maps import (
    FiniteMap,
    construct_inner_inverse,
    enumerate_sections,
    fisher_consistent_estimator,
    is_injective,
    parameter_identifiable_sections,
    parameter_identifiable_standard,
    promote_to_generalized,
    restrict_to_range,
    verify_inner_inverse,
    verify_outer_inverse,
)
from .fredholm import (
    FredholmProblem,
    Grid,
    analytic_perturbed_solution,
    density_constraints_check,
    heaviside_operator,
    oscillation_delta,
    ramp_problem,
    ramp_rhs,
    regression_functional,
    run_instability_experiment,
    solve_unregularized,
)
from .linop import (
    DenseOperator,
    SvdFactors,
    hat_operator,
    is_identifiable_linear,
    linear_parameter_identifiable,
    model_resolution,
    null_space,
    pseudoinverse,
    svd,
)
from .regularization import (
    discrepancy_select,
    filter_factors,
    restriction_sequence,
    tikhonov_solve,
    tsvd_solve,
)
from .robustness import (
    MEAN,
    MEDIAN,
    EmpiricalDistribution,
    Functional,
    FunctionalKind,
    InfluenceProfile,
    contaminate,
    evaluate,
    influence_function,
    influence_profile,
    sensitivity_attack,
    trimmed_mean,
)

__version__ = "0.1.0"
