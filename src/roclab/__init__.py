"""ROC analysis toolkit: pooled, covariate-aware and time-dependent curves.

Estimators for the receiver operating characteristic curve and its
summaries (AUC, Youden index, optimal thresholds) from frequentist and
Bayesian viewpoints, with covariate-specific, covariate-adjusted and
cumulative/dynamic time-dependent variants, plus simulation scenarios
with known ground truth for validation.

The package loads lazily: ``import roclab`` runs no estimator module, and
``roclab.<name>`` imports the name's home submodule on first use.  The
value is looked up there on every access, not stored here, so a name
patched on its home module reads patched here too.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

__all__ = [
    "AllCensoredWarning", "BinormalScenario", "BSplineSpec",
    "ConfusionFractions", "ConvergenceError", "DdpConfig", "DdpDraw",
    "DegenerateSampleError", "DiagnosticSample", "DpmConfig",
    "ExtrapolationError", "InvalidInputError", "LocationScaleFit",
    "MixtureDraw", "MixtureEnsemble", "NegativeYoudenWarning", "NumericError",
    "PosteriorEnsemble", "Prevalence", "RegressionSample", "RocCurveEstimate",
    "RocGlmFit", "SeedSpec", "SeparationWarning", "SingularDesignError",
    "StepSurvival", "SurvivalSample", "TimeOutOfRangeError",
    "UndefinedPredictiveValueError", "YoudenResult", "aroc", "as_prob_grid",
    "auc_from_curve", "bb_roc", "bspline_design", "classification_fractions",
    "cumdyn_fractions", "ddp_conditional_cdf", "ddp_fit", "ddp_roc",
    "default_prob_grid", "dirichlet_uniform", "dpm_auc", "dpm_fit", "dpm_roc",
    "ecdf", "empirical_auc", "empirical_roc", "faraggi_roc", "gen_binormal",
    "gen_covariate_linear", "gen_survival", "kaplan_meier", "kernel_auc",
    "kernel_cdf", "kernel_roc", "location_scale_cdf", "location_scale_youden",
    "lscv_bandwidth", "mixture_cdf_callable", "ols_fit", "pepe_semiparam_roc",
    "placement_values", "predictive_values", "quantile", "rocglm_fit",
    "silverman_bandwidth", "std_normal_cdf", "std_normal_quantile",
    "timedep_auc", "timedep_roc", "true_binormal_auc", "true_binormal_roc",
    "true_binormal_youden", "validate_sample", "youden_empirical",
    "youden_from_cdfs", "youden_from_curve",
]

# exported name -> the submodule that defines it
_HOMES = {name: module for module, names in {
    "binary_metrics": "ConfusionFractions Prevalence classification_fractions "
                      "predictive_values",
    "core": "SeedSpec as_prob_grid default_prob_grid dirichlet_uniform ecdf quantile "
            "std_normal_cdf std_normal_quantile validate_sample",
    "covariate_roc": "BSplineSpec DdpConfig LocationScaleFit RegressionSample RocGlmFit "
                     "aroc bspline_design ddp_conditional_cdf ddp_fit ddp_roc faraggi_roc "
                     "location_scale_cdf location_scale_youden ols_fit pepe_semiparam_roc "
                     "placement_values rocglm_fit",
    "errors": "AllCensoredWarning ConvergenceError DegenerateSampleError "
              "ExtrapolationError InvalidInputError NegativeYoudenWarning NumericError "
              "SeparationWarning SingularDesignError TimeOutOfRangeError "
              "UndefinedPredictiveValueError",
    "indices": "YoudenResult auc_from_curve youden_empirical youden_from_cdfs "
               "youden_from_curve",
    "pooled_roc": "DdpDraw DpmConfig MixtureDraw MixtureEnsemble PosteriorEnsemble "
                  "RocCurveEstimate bb_roc dpm_auc dpm_fit dpm_roc empirical_auc "
                  "empirical_roc kernel_auc kernel_cdf kernel_roc lscv_bandwidth "
                  "mixture_cdf_callable silverman_bandwidth",
    "simulate": "BinormalScenario DiagnosticSample gen_binormal gen_covariate_linear "
                "gen_survival true_binormal_auc true_binormal_roc true_binormal_youden",
    "timedep_roc": "StepSurvival SurvivalSample cumdyn_fractions kaplan_meier timedep_auc "
                   "timedep_roc",
}.items() for name in names.split()}


def __getattr__(name):
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """The package's module type: the import system binds each submodule it
    loads on the package, and the function ``timedep_roc`` shares its name
    with its home module, so a submodule is not bound over an exported
    name (which then still resolves through ``__getattr__``)."""

    def __setattr__(self, name, value):
        if not (name in _HOMES and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
