"""posikit: simultaneous max-|t| constants and universally valid
post-selection confidence intervals for linear designs.

Submodules load on first use. ``import posikit`` binds only
``__version__``; the first access to an exported name imports the submodule
that defines it (PEP 562) and binds the name here, so later accesses are
plain attribute lookups. ``posikit.load_design`` and ``posikit.canonicalize``
load ``posikit.design`` and ``posikit.errors`` and nothing else of the
package; model universes, the lattice walk and the direction streams are in
``posikit.lattice``.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "BOUND", "CLOSED_FORM", "MONTE_CARLO", "ConstantEstimate", "ErrorModel",
        "asymptotic_cap_constant", "cap_bonferroni_bound", "max_abs_t_draws",
        "orth_constant", "posi1_constant", "posi_constant", "scheffe_constant",
    ), "constants"),
    **dict.fromkeys(("CanonicalDesign", "DesignMatrix", "canonicalize", "load_design"),
                    "design"),
    **dict.fromkeys(("DataError", "InfeasibleError"), "errors"),
    **dict.fromkeys((
        "exchangeable_cosine", "exchangeable_design", "exchangeable_direction_formula",
        "exchangeable_inverse_param", "exchangeable_ratio_table",
        "exhaustive_worst_posi1_stat", "fast_worst_posi1_stat", "rate_function",
        "rate_function_max", "worst_posi1_design", "worst_posi1_table",
    ), "families"),
    **dict.fromkeys((
        "CensusReport", "DualityReport", "PolytopeSpec", "directions_match_up_to_sign",
        "dual_design", "orthogonality_census", "polytope_contains", "verify_duality",
    ), "geometry"),
    **dict.fromkeys((
        "CoverageResult", "FitResult", "IntervalReport", "IntervalRow", "TargetSpec",
        "coverage_experiment", "fit_submodel", "make_best_r2_selector",
        "make_spar1_selector", "make_spar_selector", "make_stepwise_selector",
        "posi_intervals", "spar1_select", "spar_select", "submodel_target", "t_ratio",
    ), "inference"),
    **dict.fromkeys((
        "Direction", "DirectionSet", "ModelId", "ModelUniverse", "adjusted_predictor",
        "direction_stream", "enumerate_models", "vif",
    ), "lattice"),
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted([*_EXPORTS, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    elif name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
