"""Defect detection on fringe-pattern patches via spline-smoothness features.

Pipeline: render sinusoidal deflectometry patches (synth), smooth each row
with a GCV-selected penalized cubic spline and collect the scaled effective
degrees of freedom as the feature vector (splinefit, features), classify
with a probabilistic nearest-neighbour rule (classifier), and score with
probability-based error metrics over repeated stratified splits (metrics).
"""

from .classifier import (LabeledFeatureSet, PosteriorVector, build_reference,
                         classify_batch)
from .features import (FeatureVector, Patch, colstd_features,
                       extract_edf_features, q_for_frequency,
                       read_features_csv, standardize_patch,
                       write_features_csv)
from .metrics import (EvaluationReport, average_entropy, hard_metrics,
                      probability_metrics, repeated_evaluation,
                      stratified_split)
from .splinefit import (PenalizedFit, SplineModel, build_spline_model,
                        fit_penalized, select_lambda)
from .synth import (DefectSpec, GenerationConfig, PatternSpec,
                    generate_dataset, load_dataset, render_patch)

__version__ = "0.1.0"

__all__ = [
    "DefectSpec", "EvaluationReport", "FeatureVector", "GenerationConfig",
    "LabeledFeatureSet", "Patch", "PatternSpec", "PenalizedFit",
    "PosteriorVector", "SplineModel", "average_entropy", "build_reference",
    "build_spline_model", "classify_batch", "colstd_features",
    "extract_edf_features", "fit_penalized", "generate_dataset",
    "hard_metrics", "load_dataset", "probability_metrics", "q_for_frequency",
    "read_features_csv", "render_patch", "repeated_evaluation",
    "select_lambda", "standardize_patch", "stratified_split",
    "write_features_csv",
]
