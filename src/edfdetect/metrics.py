"""Evaluation metrics, class merging, stratified splits, repeated runs.

Beyond the usual counting rates (MER, FPR, FNR) the module computes their
probability-based analogues: each point contributes its posterior
probability of being wrong rather than a 0/1 indicator, so a confident
correct classifier scores near zero while a hesitant one is penalized even
when the argmax is right. Per-point Shannon entropies of the posterior
vectors average into a single uncertainty number for a run.

Defect detection reports the binary view: the crater and dirt posteriors
are merged into one defect probability, with false negatives counted on
true defects and false positives on true defect-free patches.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classifier import _entropy_rows, build_reference, classify_batch
from .errors import DataError
from .features import FeatureVector


def _merge_rows(probabilities: np.ndarray, classes: tuple[str, ...],
                defect_classes: set[str]):
    """(p_defect, p_defect_free, predicted_defect, entropy) rows of an (n, K) matrix.

    defect_classes must be a nonempty proper subset of the class set; the
    merged probabilities sum to each row's total, and the binary label is
    the argmax with ties going to defect.
    """
    cl = set(classes)
    if not defect_classes or not defect_classes < cl:
        raise DataError(
            f"defect classes {sorted(defect_classes)} must be a nonempty proper "
            f"subset of {sorted(cl)}")
    mask = np.array([c in defect_classes for c in classes])
    p_def = probabilities[:, mask].sum(axis=1)
    p_free = probabilities[:, ~mask].sum(axis=1)
    entropy = _entropy_rows(np.column_stack([p_def, p_free]))
    return p_def, p_free, p_def >= p_free, entropy


def probability_metrics(is_defect: list[bool], p_defect: list[float]):
    """(prob_mer, prob_fpr, prob_fnr) from per-point defect probabilities.

    prob_mer averages the per-point misclassification probability over all
    points; prob_fnr only over true defects and prob_fpr only over true
    defect-free points. A rate whose class is absent is returned as None.
    """
    if len(is_defect) != len(p_defect):
        raise DataError("labels and posteriors must have equal length")
    if len(is_defect) == 0:
        raise DataError("empty input")
    truth = np.asarray(is_defect, dtype=bool)
    p1 = np.asarray(p_defect, dtype=float)
    pm = np.where(truth, 1.0 - p1, p1)
    prob_mer = float(pm.mean())
    prob_fnr = float((1.0 - p1[truth]).mean()) if truth.any() else None
    prob_fpr = float(p1[~truth].mean()) if (~truth).any() else None
    return prob_mer, prob_fpr, prob_fnr


def hard_metrics(is_defect: list[bool], predicted_defect: list[bool]):
    """Conventional counting rates (mer, fpr, fnr); absent classes give None."""
    if len(is_defect) != len(predicted_defect):
        raise DataError("labels and predictions must have equal length")
    if len(is_defect) == 0:
        raise DataError("empty input")
    truth = np.asarray(is_defect, dtype=bool)
    pred = np.asarray(predicted_defect, dtype=bool)
    mer = float((truth != pred).mean())
    fnr = float((~pred[truth]).mean()) if truth.any() else None
    fpr = float(pred[~truth].mean()) if (~truth).any() else None
    return mer, fpr, fnr


def average_entropy(posteriors) -> float:
    """Mean of per-point Shannon entropies (non-negative)."""
    if not posteriors:
        raise DataError("empty input")
    return float(np.mean([p.entropy for p in posteriors]))


def _train_count(n: int, train_fraction: float) -> int:
    """round(n * train_fraction), half up; the fraction must lie in (0, 1)."""
    if not 0.0 < train_fraction < 1.0:
        raise DataError(f"train_fraction must be in (0, 1), got {train_fraction}")
    return int(math.floor(n * train_fraction + 0.5))


def stratified_split(labels: list[str], train_fraction: float,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic per-class split; returns sorted (train, validation) indices.

    Each class contributes round(n_j * train_fraction) points to training
    (round half up); the remainder goes to validation.
    """
    labels_arr = np.asarray(labels)
    classes = []
    for lab in labels:
        if lab not in classes:
            classes.append(lab)
    rng = np.random.default_rng(seed)
    train_idx: list[np.ndarray] = []
    val_idx: list[np.ndarray] = []
    for c in classes:
        idx = np.flatnonzero(labels_arr == c)
        k = _train_count(len(idx), train_fraction)
        if len(idx) < 2:
            raise DataError(f"class {c!r} has {len(idx)} member(s); need >= 2")
        perm = rng.permutation(idx)
        train_idx.append(perm[:k])
        val_idx.append(perm[k:])
    val = np.sort(np.concatenate(val_idx)).astype(int)
    if not len(val):
        raise DataError(f"train_fraction {train_fraction} leaves no validation points")
    return np.sort(np.concatenate(train_idx)).astype(int), val


@dataclass
class MetricSeries:
    """Per-run values of one metric with mean and standard error."""

    runs: list[float | None] = field(default_factory=list)

    @property
    def values(self) -> list[float]:
        return [v for v in self.runs if v is not None]

    @property
    def mean(self) -> float | None:
        vals = self.values
        return float(np.mean(vals)) if vals else None

    @property
    def se(self) -> float | None:
        vals = self.values
        if len(vals) < 2:
            return None
        return float(np.std(vals, ddof=1) / math.sqrt(len(vals)))


BINARY_METRICS = ("mer", "fpr", "fnr", "prob_mer", "prob_fpr", "prob_fnr",
                  "avg_entropy")
THREE_CLASS_METRICS = ("mer_multiclass", "prob_mer_multiclass",
                       "avg_entropy_multiclass")


@dataclass
class EvaluationReport:
    """Aggregated result of repeated stratified evaluation runs."""

    classes: tuple[str, ...]
    defect_classes: tuple[str, ...]
    train_fraction: float
    seeds: tuple[int, ...]
    n_total: int
    n_defect: int
    n_defect_free: int
    metrics: dict[str, MetricSeries]

    def to_json_dict(self) -> dict:
        return {
            "classes": list(self.classes),
            "defect_classes": list(self.defect_classes),
            "train_fraction": self.train_fraction,
            "seeds": list(self.seeds),
            "counts": {
                "n_total": self.n_total,
                "n_defect": self.n_defect,
                "n_defect_free": self.n_defect_free,
            },
            "metrics": {
                name: {"runs": series.runs, "mean": series.mean, "se": series.se}
                for name, series in self.metrics.items()
            },
        }

    def write_json(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "statistic", "value"])
            for name, series in self.metrics.items():
                for i, v in enumerate(series.runs, start=1):
                    writer.writerow([name, f"run_{i}", "" if v is None else repr(v)])
                mean, se = series.mean, series.se
                writer.writerow([name, "mean", "" if mean is None else repr(mean)])
                writer.writerow([name, "se", "" if se is None else repr(se)])


def evaluate_single_run(features: list[FeatureVector], seed: int,
                        train_fraction: float,
                        defect_classes: set[str]) -> dict[str, float | None]:
    """One stratified split, classify the validation set, compute all metrics."""
    labels = [fv.label or "" for fv in features]
    train_idx, val_idx = stratified_split(labels, train_fraction, seed)
    ref = build_reference([features[i] for i in train_idx])
    posts = classify_batch(ref, [features[i] for i in val_idx])
    probabilities = np.array([p.probabilities for p in posts])

    true_labels = [labels[i] for i in val_idx]
    class_pos = {c: j for j, c in enumerate(ref.classes)}
    true_pos = np.array([class_pos.get(t, -1) for t in true_labels])
    p_true = np.where(true_pos >= 0,
                      probabilities[np.arange(len(posts)), true_pos], 0.0)
    mer_multi = float(np.mean(np.argmax(probabilities, axis=1) != true_pos))
    prob_mer_multi = float(np.mean(1.0 - p_true))

    p_def, _, predicted, entropy = _merge_rows(probabilities, ref.classes,
                                               defect_classes)
    truth = np.array([t in defect_classes for t in true_labels])
    mer, fpr, fnr = hard_metrics(truth, predicted)
    prob_mer, prob_fpr, prob_fnr = probability_metrics(truth, p_def)
    return {
        "mer": mer, "fpr": fpr, "fnr": fnr,
        "prob_mer": prob_mer, "prob_fpr": prob_fpr, "prob_fnr": prob_fnr,
        "avg_entropy": float(np.mean(entropy)),
        "mer_multiclass": mer_multi,
        "prob_mer_multiclass": prob_mer_multi,
        "avg_entropy_multiclass": average_entropy(posts),
    }


def repeated_evaluation(features: list[FeatureVector], seeds: list[int],
                        train_fraction: float,
                        defect_classes: set[str]) -> EvaluationReport:
    """Run split -> classify -> metrics once per seed and aggregate.

    Per-run metric values are kept alongside across-run means and standard
    errors.
    """
    if not seeds:
        raise DataError("need at least one seed")
    # validation points per class under stratified_split's rule, any seed
    val_counts = {c: n - _train_count(n, train_fraction)
                  for c, n in Counter(fv.label or "" for fv in features).items()}
    classes = tuple(val_counts)
    present_defects = {c for c in classes if c in defect_classes}

    series: dict[str, MetricSeries] = {
        name: MetricSeries() for name in BINARY_METRICS + THREE_CLASS_METRICS}
    for run, seed in enumerate(seeds):
        try:
            result = evaluate_single_run(features, seed, train_fraction,
                                         present_defects)
        except DataError as exc:
            raise DataError(f"evaluation run {run} (seed {seed}) failed: "
                            f"{exc}") from exc
        for name, value in result.items():
            series[name].runs.append(value)

    n_total = sum(val_counts.values())
    n_defect = sum(val_counts[c] for c in present_defects)
    return EvaluationReport(
        classes=classes, defect_classes=tuple(sorted(present_defects)),
        train_fraction=train_fraction, seeds=tuple(seeds),
        n_total=n_total, n_defect=n_defect,
        n_defect_free=n_total - n_defect, metrics=series)
