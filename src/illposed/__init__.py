"""Diagnostics for identifiability, conditioning, and estimability of inverse problems.

The namespace is lazy (PEP 562): ``from illposed import X`` imports only
the submodule that defines X, so the pure-Python finite-map layer loads
without numpy.
"""

import importlib

_EXPORTS = {
    "diagnostics": (
        "Classification",
        "DiagnosisReport",
        "bounded_away_from_zero",
        "diagnose",
        "perturbation_amplification",
        "spectrum_decay",
        "stability_bound_check",
    ),
    "errors": (
        "CompositionError",
        "IllposedError",
        "InvalidInputError",
        "NoSolutionError",
        "NumericalFailureError",
        "ParseError",
    ),
    "finite_maps": (
        "FiniteMap",
        "construct_inner_inverse",
        "enumerate_sections",
        "fisher_consistent_estimator",
        "is_injective",
        "parameter_identifiable_sections",
        "parameter_identifiable_standard",
        "promote_to_generalized",
        "restrict_to_range",
        "verify_inner_inverse",
        "verify_outer_inverse",
    ),
    "fredholm": (
        "FredholmProblem",
        "Grid",
        "analytic_perturbed_solution",
        "density_constraints_check",
        "heaviside_operator",
        "oscillation_delta",
        "ramp_problem",
        "ramp_rhs",
        "regression_functional",
        "run_instability_experiment",
        "solve_unregularized",
    ),
    "linop": (
        "DenseOperator",
        "SvdFactors",
        "hat_operator",
        "is_identifiable_linear",
        "linear_parameter_identifiable",
        "model_resolution",
        "null_space",
        "pseudoinverse",
        "svd",
    ),
    "regularization": (
        "discrepancy_select",
        "filter_factors",
        "restriction_sequence",
        "tikhonov_solve",
        "tsvd_solve",
    ),
    "robustness": (
        "MEAN",
        "MEDIAN",
        "EmpiricalDistribution",
        "Functional",
        "FunctionalKind",
        "InfluenceProfile",
        "contaminate",
        "evaluate",
        "influence_function",
        "influence_profile",
        "sensitivity_attack",
        "trimmed_mean",
    ),
}

# exported name -> defining submodule
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, as the eager namespace bound them
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
