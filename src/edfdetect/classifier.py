"""Probabilistic nearest-neighbour classification over feature vectors.

For a query point the minimum Euclidean distance D_j to each class is
turned into posterior class probabilities proportional to D_j^(-m), where
m is the feature dimension. This is the density estimate one gets from the
volume of the smallest ball around the query that reaches class j (ball
volume a_m * r^m; the dimension constant a_m and the class counts cancel
against class priors proportional to those counts).

With m up to 171, D^(-m) overflows double precision for quite ordinary
distances, so all posterior arithmetic runs in log space. A query at
exactly zero distance from one or more classes gets probability mass 1
split uniformly over those classes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, DimensionMismatchError, SingleClassError
from .features import FeatureVector, read_features_csv


@dataclass
class LabeledFeatureSet:
    """Immutable reference sample: vectors and class bookkeeping."""

    vectors: np.ndarray                 # (N, m)
    classes: tuple[str, ...]            # (K,) in order of first appearance
    patch_ids: tuple[str, ...]          # (N,)
    _by_class: dict[str, np.ndarray] = field(repr=False, default_factory=dict)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def class_rows(self, label: str) -> np.ndarray:
        return self._by_class[label]


@dataclass
class PosteriorVector:
    """Posterior class probabilities for one query.

    log_probabilities carries the exact log-space values; probabilities is
    their exp, which flushes to 0.0 where the true mass lies below the
    smallest double (e.g. a distance ratio of 1e6 at dimension 91).
    """

    probabilities: np.ndarray
    predicted: str
    entropy: float
    log_probabilities: np.ndarray
    log_distances: np.ndarray
    patch_id: str = ""
    true_label: str | None = None


def build_reference(vectors: list[FeatureVector]) -> LabeledFeatureSet:
    """Validate labeled feature vectors and freeze them as a reference set."""
    if not vectors:
        raise DataError("empty reference set")
    dim = vectors[0].dim
    labels = []
    for fv in vectors:
        if fv.dim != dim:
            raise DimensionMismatchError(
                f"feature vector {fv.patch_id!r} has dim {fv.dim}, expected {dim}")
        if fv.label is None:
            raise DataError(f"reference vector {fv.patch_id!r} is unlabeled")
        labels.append(fv.label)

    classes: list[str] = []
    for lab in labels:
        if lab not in classes:
            classes.append(lab)
    if len(classes) < 2:
        raise SingleClassError(f"need >= 2 classes, got {classes}")

    arr = np.array([fv.tau for fv in vectors], dtype=float)
    label_arr = np.array(labels)
    by_class = {c: np.flatnonzero(label_arr == c) for c in classes}
    return LabeledFeatureSet(vectors=arr, classes=tuple(classes),
                             patch_ids=tuple(fv.patch_id for fv in vectors),
                             _by_class=by_class)


def _min_distances(ref: LabeledFeatureSet, queries: np.ndarray,
                   exclude_ids: list[str] | None = None) -> np.ndarray:
    """(n_queries, K) matrix of per-class minimum Euclidean distances.

    A reference point whose patch id equals a query's nonempty exclude id
    is left out of that query's scan (ids compared as integer codes).
    """
    from scipy.spatial.distance import cdist

    full = cdist(queries, ref.vectors)
    if exclude_ids is not None:
        codes = {pid: k for k, pid in enumerate(ref.patch_ids)}
        ref_codes = np.array([codes[pid] for pid in ref.patch_ids])
        query_codes = np.array([codes.get(qid, -1) if qid else -1
                                for qid in exclude_ids])
        full[query_codes[:, None] == ref_codes[None, :]] = np.inf
    out = np.empty((queries.shape[0], len(ref.classes)))
    for j, c in enumerate(ref.classes):
        out[:, j] = full[:, ref.class_rows(c)].min(axis=1)
    return out


def _entropy_rows(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of every row of p; zero entries contribute nothing."""
    pos = p > 0.0
    return -np.where(pos, p * np.log(np.where(pos, p, 1.0)), 0.0).sum(axis=1)


def _posteriors(dist: np.ndarray, dim: int):
    """Map an (n, K) min-distance matrix to (p, log p, log d, entropy) rows.

    A row with one or more zero distances puts mass 1 uniformly on those
    classes; every other row is normalized D^-m in log space.
    """
    from scipy.special import logsumexp

    with np.errstate(divide="ignore", invalid="ignore"):
        log_d = np.log(dist)
        ell = -dim * log_d
        log_p = ell - logsumexp(ell, axis=1, keepdims=True)
        p = np.exp(log_p)
        total = p.sum(axis=1, keepdims=True)
        np.divide(p, total, out=p, where=total > 0)
        zero = dist == 0.0
        tied = zero.any(axis=1)
        if tied.any():
            p_tied = zero[tied].astype(float)
            p_tied /= p_tied.sum(axis=1, keepdims=True)
            p[tied] = p_tied
            log_p[tied] = np.log(p_tied)
    return p, log_p, log_d, _entropy_rows(p)


def classify_batch(ref: LabeledFeatureSet, queries: list[FeatureVector],
                   leave_one_out: bool = False) -> list[PosteriorVector]:
    """Posterior for every query, order preserving.

    With leave_one_out=True, a reference point whose patch_id equals the
    query's is excluded from the distance scan (training-set diagnostics).
    """
    if not queries:
        return []
    for i, fv in enumerate(queries):
        if fv.dim != ref.dim:
            raise DimensionMismatchError(
                f"query {i} ({fv.patch_id!r}) has dim {fv.dim}, "
                f"reference dim is {ref.dim}")
    arr = np.array([fv.tau for fv in queries], dtype=float)
    ids = [fv.patch_id for fv in queries] if leave_one_out else None

    dists = _min_distances(ref, arr, exclude_ids=ids)
    p, log_p, log_d, entropy = _posteriors(dists, ref.dim)
    predicted = np.argmax(p, axis=1)
    return [PosteriorVector(probabilities=p[i], predicted=ref.classes[predicted[i]],
                            entropy=float(entropy[i]), log_probabilities=log_p[i],
                            log_distances=log_d[i], patch_id=fv.patch_id,
                            true_label=fv.label)
            for i, fv in enumerate(queries)]


def load_reference_csv(path: str | Path,
                       rows: list[FeatureVector] | None = None) -> LabeledFeatureSet:
    """Build a reference set from a features CSV (labeled rows only).

    rows, when given, are that file's vectors already read, so a caller
    that also needs them as queries parses the file once.
    """
    if rows is None:
        rows = read_features_csv(path)
    vectors = [fv for fv in rows if fv.label]
    if not vectors:
        raise DataError(f"{path}: no labeled feature vectors")
    return build_reference(vectors)


def write_posteriors_csv(posteriors: list[PosteriorVector],
                         classes: tuple[str, ...], path: str | Path) -> None:
    """Serialize posteriors: patch_id, true_label, predicted, p_<class>.., entropy."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patch_id", "true_label", "predicted"]
                        + [f"p_{c}" for c in classes] + ["entropy"])
        for pv in posteriors:
            writer.writerow([pv.patch_id, pv.true_label or "", pv.predicted]
                            + [repr(float(p)) for p in pv.probabilities]
                            + [repr(float(pv.entropy))])
