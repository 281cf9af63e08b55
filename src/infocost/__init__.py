"""Information costs of statistical experiments.

A library for pricing Blackwell experiments with the weighted
log-likelihood-ratio cost, solving optimal-information-acquisition
problems under that cost and under mutual information, and checking the
axioms the cost family is characterized by.

Submodules load on first use (PEP 562): `import infocost` runs only this
file and imports neither numpy nor any submodule.  The first access to an
exported name, such as `infocost.llr_cost`, imports the submodule that
defines it and caches the name here; `infocost.solver` and the other
submodule names resolve to the modules the same way.  `infocost.cumulants`
is the function, also after the `infocost.cumulants` module has loaded.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# submodule -> the names it exports at package level
_EXPORTS = {
    "checks": ("PropertyResult", "run_suite"),
    "cli": (),
    "costs": (
        "BetaMatrix",
        "Hypothesis",
        "beta_from_json",
        "beta_to_json",
        "binary_cost",
        "constant_betas",
        "hypothesis_test_cost",
        "inverse_square_betas",
        "kl_matrix",
        "llr_cost",
        "llr_cost_from_distribution",
        "llr_cost_via_posteriors",
        "mutual_information_cost",
        "normal_cost",
        "one_dimensional_betas",
        "partition_coefficient",
        "partition_experiment",
        "posterior_separable_value",
        "verification_asymmetry",
    ),
    "cumulants": (
        "CumulantVector",
        "FiniteDistribution",
        "MomentVector",
        "convolve",
        "cumulants",
        "cumulants_to_moments",
        "enumerate_lambda",
        "finite_distribution",
        "finite_distribution_from_llr",
        "lambda_count",
        "moments",
        "moments_to_cumulants",
        "multi_indices",
    ),
    "errors": ("InfoCostError", "NonConcaveWarning", "SolverFailure", "ValidationError"),
    "experiments": (
        "Experiment",
        "GarblingMatrix",
        "LLRDistribution",
        "StateSpace",
        "binary_experiment",
        "blackwell_dominates",
        "check_admissible",
        "convolve_llr",
        "dilute",
        "experiment_from_json",
        "experiment_to_json",
        "garble",
        "kl_divergence",
        "llr_distribution",
        "make_experiment",
        "make_normalized_experiment",
        "posterior_distribution",
        "product",
        "uninformative_experiment",
    ),
    "reproduce": ("coinflip_rows", "gdp_rows", "perception_rows", "reproduce_rows", "swans_rows"),
    "rng": ("Xoshiro256",),
    "solver": (
        "ChoiceRule",
        "DecisionProblem",
        "SolveOptions",
        "SolveResult",
        "foc_residual",
        "lipschitz_check",
        "objective",
        "perception_problem",
        "problem_from_json",
        "problem_to_json",
        "psychometric_curve",
        "solve_llr",
        "solve_mutual_information",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _EXPORTS.keys())


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value):
        # The import system binds each submodule on the package as it loads
        # it.  `cumulants` names both a submodule and an exported function,
        # and the function must win.
        if name in _HOME and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
