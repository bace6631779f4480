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

Repeated evaluation draws each run's stratified split, takes its
validation rows' per-class minimum distances to its training rows, and
then scores a whole block of runs at once: posteriors, the merged view and
all ten metrics are computed on the stacked validation rows and reduced
per run along a (runs, n_val) reshape. Every step is row-wise, so a run
scores exactly as it would alone. Class order is the one rule that needs
care: a run's reference orders its classes as classifier._class_members
does, by first appearance among its sorted training indices, which can
differ between runs, and the entropy and merged-probability sums run in
that order. So each run's distance columns are put into its own class
order before the posteriors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classifier import (LabeledFeatureSet, _class_members, _entropy_rows,
                         _min_distances, _posteriors, build_reference)
from .errors import DataError
from .features import FeatureVector, stacked_taus, write_csv_rows

# Most validation rows, over all its runs, that one scoring pass stacks (a run
# is never split). A pass holds about a dozen (rows, K) and (rows,) float
# arrays, under 20 MB at this bound and K = 3; one pass over all runs would
# hold 11.5 GB in each (rows, 3) array at cli.MAX_RUNS runs of 480 rows.
_BLOCK_ROWS = 2**16


def _defect_mask(classes: tuple[str, ...], defect_classes: set[str]) -> np.ndarray:
    """Which of classes are defect classes; defect_classes must be a nonempty
    proper subset of the class set."""
    cl = set(classes)
    if not defect_classes or not defect_classes < cl:
        raise DataError(
            f"defect classes {sorted(defect_classes)} must be a nonempty proper "
            f"subset of {sorted(cl)}")
    return np.array([c in defect_classes for c in classes])


def _merge_rows(probabilities: np.ndarray, is_defect: np.ndarray):
    """(p_defect, p_defect_free, predicted_defect, entropy) rows of an (n, K) matrix.

    is_defect marks the defect columns, as one (K,) mask or one mask per row;
    each side is summed in column order, so the merged probabilities sum to
    each row's total, and the binary label is the argmax with ties going to
    defect.
    """
    mask = np.broadcast_to(is_defect, probabilities.shape)
    n_def = int(mask[0].sum())
    # each row's defect columns first, both sides kept in column order
    sides = np.take_along_axis(probabilities,
                               np.argsort(~mask, axis=1, kind="stable"), axis=1)
    p_def = sides[:, :n_def].sum(axis=1)
    p_free = sides[:, n_def:].sum(axis=1)
    entropy = _entropy_rows(np.column_stack([p_def, p_free]))
    return p_def, p_free, p_def >= p_free, entropy


def _rates(truth: np.ndarray, p_defect: np.ndarray):
    """(mer, fpr, fnr) arrays, one value per row of (runs, n) inputs.

    A point's error is its probability of being wrong; mer averages it over
    a row, fnr over the row's true defects and fpr over its true defect-free
    points. Every row holds the same number of true defects; a rate whose
    class is absent is None.
    """
    error = np.where(truth, 1.0 - p_defect, p_defect)
    n_defect = int(truth[0].sum())

    def side(mask: np.ndarray, count: int):
        return error[mask].reshape(len(error), count).mean(axis=1) if count else None

    return (error.mean(axis=1), side(~truth, truth.shape[1] - n_defect),
            side(truth, n_defect))


def probability_metrics(is_defect: list[bool], p_defect: list[float]):
    """(prob_mer, prob_fpr, prob_fnr) from per-point defect probabilities.

    prob_mer averages the per-point misclassification probability over all
    points; prob_fnr only over true defects and prob_fpr only over true
    defect-free points. A rate whose class is absent is returned as None.
    """
    if len(is_defect) != len(p_defect):
        raise DataError("labels and predictions must have equal length")
    if len(is_defect) == 0:
        raise DataError("empty input")
    rates = _rates(np.asarray(is_defect, dtype=bool)[None],
                   np.asarray(p_defect, dtype=float)[None])
    return tuple(None if r is None else float(r[0]) for r in rates)


def hard_metrics(is_defect: list[bool], predicted_defect: list[bool]):
    """Conventional counting rates (mer, fpr, fnr): the probability rates of 0/1
    posteriors, whose error is 1 exactly where the prediction is wrong."""
    return probability_metrics(is_defect, np.asarray(predicted_defect, dtype=bool))


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


def _class_groups(labels: list[str], train_fraction: float):
    """The classes and their indices (classifier._class_members) and training
    counts; a class under 2 members or no validation point is refused."""
    classes, groups = _class_members(labels)
    counts = [_train_count(len(idx), train_fraction) for idx in groups]
    for c, idx in zip(classes, groups):
        if len(idx) < 2:
            raise DataError(f"class {c!r} has {len(idx)} member(s); need >= 2")
    if sum(map(len, groups)) == sum(counts):
        raise DataError(f"train_fraction {train_fraction} leaves no validation points")
    return classes, groups, counts


def _draw_split(groups: list[np.ndarray], counts: list[int], seed: int):
    """Per-class (train, validation) index parts of one seeded split."""
    rng = np.random.default_rng(seed)
    perms = [rng.permutation(idx) for idx in groups]
    return ([p[:k] for p, k in zip(perms, counts)],
            [p[k:] for p, k in zip(perms, counts)])


def stratified_split(labels: list[str], train_fraction: float,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic per-class split; returns sorted (train, validation) indices.

    Each class contributes round(n_j * train_fraction) points to training
    (round half up); the remainder goes to validation.
    """
    _, groups, counts = _class_groups(labels, train_fraction)
    train, val = _draw_split(groups, counts, seed)
    return (np.sort(np.concatenate(train)).astype(int),
            np.sort(np.concatenate(val)).astype(int))


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
        rows = [["metric", "statistic", "value"]]
        for name, series in self.metrics.items():
            stats = [(f"run_{i}", v) for i, v in enumerate(series.runs, start=1)]
            stats += [("mean", series.mean), ("se", series.se)]
            rows += [[name, stat, "" if v is None else repr(v)] for stat, v in stats]
        write_csv_rows(path, rows)


def _score_runs(dist: np.ndarray, orders: np.ndarray, true_class: np.ndarray,
                truth: np.ndarray, is_defect: np.ndarray, dim: int) -> dict:
    """All ten metrics of a block of runs, each a (runs,) array or None.

    dist holds the runs' stacked validation rows, n_val a run, with columns
    in the reference's class order; orders[r] lists run r's classes (as
    columns of dist) in its own order. true_class is each row's column or
    -1, truth whether it is a defect, is_defect the defect columns.
    """
    runs = len(orders)
    cols = np.repeat(orders, len(dist) // runs, axis=0)   # each row in its run's order
    p, _, _, entropy = _posteriors(np.take_along_axis(dist, cols, axis=1), dim)
    true_pos = np.where(true_class >= 0,
                        np.argmax(cols == true_class[:, None], axis=1), -1)
    p_true = np.where(true_pos >= 0, p[np.arange(len(p)), true_pos], 0.0)
    p_def, _, predicted, merged_entropy = _merge_rows(p, is_defect[cols])

    def by_run(values: np.ndarray) -> np.ndarray:
        return values.reshape(runs, -1)

    mer, fpr, fnr = _rates(by_run(truth), by_run(predicted.astype(float)))
    prob_mer, prob_fpr, prob_fnr = _rates(by_run(truth), by_run(p_def))
    return {
        "mer": mer, "fpr": fpr, "fnr": fnr,
        "prob_mer": prob_mer, "prob_fpr": prob_fpr, "prob_fnr": prob_fnr,
        "avg_entropy": by_run(merged_entropy).mean(axis=1),
        "mer_multiclass": by_run(np.argmax(p, axis=1) != true_pos).mean(axis=1),
        "prob_mer_multiclass": by_run(1.0 - p_true).mean(axis=1),
        "avg_entropy_multiclass": by_run(entropy).mean(axis=1),
    }


def repeated_evaluation(features: list[FeatureVector], seeds: list[int],
                        train_fraction: float,
                        defect_classes: set[str]) -> EvaluationReport:
    """One stratified split per seed, each scored on its validation set, and
    aggregated.

    Per-run metric values are kept alongside across-run means and standard
    errors. Every run has the same class counts, so the classifier's
    reference and query checks pass on every run's rows if they pass on run
    0's: they run once, on run 0's own training and validation rows, and a
    failure is run 0's, in run 0's words.
    """
    if not seeds:
        raise DataError("need at least one seed")
    _train_count(0, train_fraction)     # a bad fraction fails before any run
    labels = [fv.label or "" for fv in features]
    try:
        classes, groups, counts = _class_groups(labels, train_fraction)
        train, val = _draw_split(groups, counts, seeds[0])
        run0 = build_reference([features[i] for i in np.sort(np.concatenate(train))])
        stacked_taus([features[i] for i in np.sort(np.concatenate(val))], run0.dim)
        # every run's reference holds the classes with a training count
        ref_classes = tuple(c for c, k in zip(classes, counts) if k)
        present_defects = {c for c in classes if c in defect_classes}
        is_defect_col = _defect_mask(ref_classes, present_defects)
    except DataError as exc:
        raise DataError(f"evaluation run 0 (seed {seeds[0]}) failed: "
                        f"{exc}") from exc

    vectors = np.array([fv.tau for fv in features], dtype=float)
    column = {c: j for j, c in enumerate(ref_classes)}
    true_class = np.array([column.get(label, -1) for label in labels])
    is_defect_row = np.array([label in present_defects for label in labels])
    ref_sizes = np.array([k for k in counts if k])
    n_val = sum(len(g) for g in groups) - sum(counts)

    series: dict[str, MetricSeries] = {
        name: MetricSeries() for name in BINARY_METRICS + THREE_CLASS_METRICS}
    per_block = max(1, _BLOCK_ROWS // n_val)
    for lo in range(0, len(seeds), per_block):
        dists, orders, val_rows = [], [], []
        for seed in seeds[lo:lo + per_block]:
            train, val = _draw_split(groups, counts, seed)
            train = [np.sort(t) for t in train if len(t)]
            val = np.sort(np.concatenate(val))
            ref = LabeledFeatureSet(vectors[np.concatenate(train)], ref_classes,
                                    ref_sizes)
            dists.append(_min_distances(ref, vectors[val]))
            # the run's class order: first appearance among its training rows
            orders.append(np.argsort([t[0] for t in train]))
            val_rows.append(val)
        val = np.concatenate(val_rows)
        scores = _score_runs(np.concatenate(dists), np.array(orders), true_class[val],
                             is_defect_row[val], is_defect_col, run0.dim)
        for name, values in scores.items():
            series[name].runs.extend(
                [None] * len(orders) if values is None else map(float, values))

    n_defect = sum(len(g) - k for c, g, k in zip(classes, groups, counts)
                   if c in present_defects)
    return EvaluationReport(
        classes=classes, defect_classes=tuple(sorted(present_defects)),
        train_fraction=train_fraction, seeds=tuple(seeds),
        n_total=n_val, n_defect=n_defect,
        n_defect_free=n_val - n_defect, metrics=series)
