"""Robust multiclass linear classification with tempered log/exp losses.

Two temperatures shape the surrogate loss: t1 deforms the logarithm
(bounding the loss for t1 < 1) and t2 deforms the exponential that maps
activations to probabilities (heavy tails for t2 > 1). The package bundles
the kernels, a matching-loss trainer, curvature and calibration
diagnostics, and a seeded noise-robustness experiment harness.
"""

from .tempered import (
    exp_t,
    log_t,
    tsallis_divergence,
    tsallis_entropy,
    validate_temperature,
)
from .partition import (
    PartitionResult,
    escort,
    log_partition,
    margin_derivatives,
    tempered_probs,
    tempered_probs_rows,
)
from .loss import TemperaturePair, activation_terms, batch_losses, regularized_objective
from .optimizer import OptimizerConfig, OptimizationTrace, lbfgs_minimize
from .data import (
    DataFormatError,
    Dataset,
    NoiseSpec,
    inject_margin_flip,
    inject_outlier_noise,
    inject_random_flip,
    parse_libsvm,
    serialize_libsvm,
    synth_gaussians,
)
from .model import (
    FitConfig,
    TTLRModel,
    fit,
    load_model,
    predict,
    predict_proba,
    save_model,
)
from .analysis import (
    BayesCheck,
    CurvatureReport,
    MulticlassBayesCheck,
    bayes_binary_check,
    bayes_checks_to_csv,
    bayes_multiclass_check,
    curvature_report,
    curvature_to_csv,
    find_inflection,
    loss_first_derivative,
    loss_second_derivative,
    margin_losses,
)
from .verify import run_verification
from .experiment import (
    CrossValSpec,
    ExperimentSpec,
    FileSource,
    MethodSpec,
    ResultRow,
    SyntheticSpec,
    parse_method,
    run_experiment,
    rows_to_csv,
    rows_to_json,
    select_lambda,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "exp_t",
    "log_t",
    "tsallis_divergence",
    "tsallis_entropy",
    "validate_temperature",
    "PartitionResult",
    "escort",
    "log_partition",
    "margin_derivatives",
    "tempered_probs",
    "tempered_probs_rows",
    "TemperaturePair",
    "activation_terms",
    "batch_losses",
    "regularized_objective",
    "OptimizerConfig",
    "OptimizationTrace",
    "lbfgs_minimize",
    "DataFormatError",
    "Dataset",
    "NoiseSpec",
    "inject_margin_flip",
    "inject_outlier_noise",
    "inject_random_flip",
    "parse_libsvm",
    "serialize_libsvm",
    "synth_gaussians",
    "FitConfig",
    "TTLRModel",
    "fit",
    "load_model",
    "predict",
    "predict_proba",
    "save_model",
    "BayesCheck",
    "CurvatureReport",
    "MulticlassBayesCheck",
    "bayes_binary_check",
    "bayes_checks_to_csv",
    "bayes_multiclass_check",
    "curvature_report",
    "curvature_to_csv",
    "find_inflection",
    "loss_first_derivative",
    "loss_second_derivative",
    "margin_losses",
    "run_verification",
    "CrossValSpec",
    "ExperimentSpec",
    "FileSource",
    "MethodSpec",
    "ResultRow",
    "SyntheticSpec",
    "parse_method",
    "run_experiment",
    "rows_to_csv",
    "rows_to_json",
    "select_lambda",
    "summarize",
]
