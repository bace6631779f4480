"""Defect detection on fringe-pattern patches via spline-smoothness features.

Pipeline: render sinusoidal deflectometry patches (synth), smooth each row
with a GCV-selected penalized cubic spline and collect the scaled effective
degrees of freedom as the feature vector (splinefit, features), classify
with a probabilistic nearest-neighbour rule (classifier), and score with
probability-based error metrics over repeated stratified splits (metrics).

Importing the package loads none of these modules: each public name is
imported from its module on first access (PEP 562), so a command loads
only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Defining module -> the public names the package re-exports from it.
_EXPORTS = {
    "classifier": ("LabeledFeatureSet", "PosteriorVector", "build_reference",
                   "classify_batch"),
    "features": ("FeatureVector", "Patch", "colstd_features", "extract_edf_features",
                 "q_for_frequency", "read_features_csv", "standardize_patch",
                 "write_features_csv"),
    "metrics": ("EvaluationReport", "average_entropy", "hard_metrics",
                "probability_metrics", "repeated_evaluation", "stratified_split"),
    "splinefit": ("PenalizedFit", "Selection", "SplineModel", "build_spline_model",
                  "fit_penalized", "select_lambda"),
    "synth": ("DefectSpec", "GenerationConfig", "PatternSpec", "generate_dataset",
              "load_dataset", "render_patch"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
