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

The per-class minimum distances come from a screen and an exact
recompute. The screen scales queries and reference by one power of two,
2^-k with k the binary exponent of the largest |value| (exact, and no
square can overflow), and forms every approximate squared distance
|q|^2 + |r|^2 - 2 q.r from one matrix product. By the dot-product error
bound (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
section 3.1), each approximation and each exactly summed squared
distance lie within about (2 dim + 6) eps (|q|^2 + |r|^2) of the true
value, whatever order BLAS sums in. A pair whose approximation exceeds its
class minimum by more than tol = 16 (dim + 4) eps (|q|^2 + max |r|^2),
twice the needed margin (plus a term for unscaled squares that
underflow), therefore cannot hold the class minimum, and only the pairs
within tol are kept. Each kept pair is recomputed from the
unscaled values as the square root of its squared differences summed left
to right over the features, which is scipy's cdist arithmetic, and the
class minimum is taken over those values. The screen only chooses
candidates, so every reported distance is bit-identical to the naive
per-pair distance, except where that overflows to inf (differences past
~1e154): such a pair is recomputed in the scaled units and scaled back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DataError, SingleClassError
from .features import FeatureVector, read_features_csv, stacked_taus, write_csv_rows

# Candidate margin of the distance screen, in units of the dot-product
# error bound (dim + 4) * eps * (|q|^2 + max |r|^2); twice the bound on the
# gap between screened and exact values, about 8, is needed.
_SCREEN_MARGIN = 16
_EPS = float(np.finfo(float).eps)


@dataclass(eq=False)
class LabeledFeatureSet:
    """Immutable reference sample, its rows grouped by class: the first
    sizes[0] rows of vectors and patch_ids are classes[0], the next sizes[1]
    classes[1], and so on."""

    vectors: np.ndarray                 # (N, m)
    classes: tuple[str, ...]            # (K,)
    sizes: np.ndarray                   # (K,) rows of each class
    patch_ids: tuple[str, ...] = ()     # (N,)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(eq=False)
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


def _class_members(labels: list[str]) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """The classes in order of first appearance and each one's rows, ascending:
    the one rule that groups labels. Labels are told apart as Python strings,
    so two that differ only in trailing NULs (as numpy's == does not) differ."""
    members: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        members.setdefault(label, []).append(i)
    return tuple(members), [np.array(rows) for rows in members.values()]


def build_reference(vectors: list[FeatureVector]) -> LabeledFeatureSet:
    """Validate labeled feature vectors and freeze them as a reference set,
    its classes in order of first appearance and rows in input order within
    a class."""
    if not vectors:
        raise DataError("empty reference set")
    taus = stacked_taus(vectors)
    for fv in vectors:
        if not fv.label:
            raise DataError(f"reference vector {fv.patch_id!r} is unlabeled")
    classes, members = _class_members([fv.label for fv in vectors])
    if len(classes) < 2:
        raise SingleClassError(f"need >= 2 classes, got {list(classes)}")
    order = np.concatenate(members)
    return LabeledFeatureSet(
        vectors=taus[order], classes=classes,
        sizes=np.array([len(rows) for rows in members]),
        patch_ids=tuple(vectors[i].patch_id for i in order))


def _min_distances(ref: LabeledFeatureSet, queries: np.ndarray,
                   exclude_ids: list[str] | None = None) -> np.ndarray:
    """(n_queries, K) matrix of per-class minimum Euclidean distances.

    A reference point whose patch id equals a query's nonempty exclude id
    is left out of that query's scan (ids compared as integer codes); a
    class with no point left gets inf. The screen and the exact recompute
    are described in the module docstring.
    """
    refs, sizes = ref.vectors, ref.sizes    # each class a column slice
    ends = np.cumsum(sizes)

    top = max(np.abs(queries).max(initial=0.0), np.abs(refs).max(initial=0.0))
    k = math.frexp(float(top))[1]
    q, r = np.ldexp(queries, -k), np.ldexp(refs, -k)
    q2, r2 = (q * q).sum(axis=1), (r * r).sum(axis=1)
    approx = q @ r.T                    # built in place: one (n, N) array
    approx *= -2.0
    approx += q2[:, None]
    approx += r2
    # An unscaled square that underflows errs by up to 2^-1074, which is
    # 2^(-1074-2k) in the units of the screen.
    tiny = np.ldexp(1.0, min(-1074 - 2 * k, 900))
    tol = _SCREEN_MARGIN * (ref.dim + 4) * (_EPS * (q2 + r2.max()) + tiny)

    admissible = None
    if exclude_ids is not None:
        codes = {pid: i for i, pid in enumerate(ref.patch_ids)}
        ref_codes = np.array([codes[pid] for pid in ref.patch_ids])
        query_codes = np.array([codes.get(qid, -1) if qid else -1
                                for qid in exclude_ids])
        admissible = query_codes[:, None] != ref_codes[None, :]
        approx[~admissible] = np.inf
    near = np.empty(approx.shape, dtype=bool)
    for lo, hi in zip(ends - sizes, ends):
        block = approx[:, lo:hi]
        np.less_equal(block, (block.min(axis=1) + tol)[:, None], out=near[:, lo:hi])
    if admissible is not None:
        near &= admissible

    qi, ri = np.nonzero(near)
    diff = queries[qi] - refs[ri]
    with np.errstate(over="ignore"):
        exact = np.sqrt(np.cumsum(diff * diff, axis=1)[:, -1])   # cdist's order
    wide = np.isinf(exact)      # a square past ~1e308: recompute it scaled
    if wide.any():
        diff = q[qi[wide]] - r[ri[wide]]
        exact[wide] = np.ldexp(np.sqrt(np.cumsum(diff * diff, axis=1)[:, -1]), k)
    out = np.full((queries.shape[0], len(sizes)), np.inf)
    np.minimum.at(out, (qi, np.searchsorted(ends, ri, side="right")), exact)
    return out


def _entropy_rows(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of every row of p; zero entries contribute nothing."""
    pos = p > 0.0
    return -np.where(pos, p * np.log(np.where(pos, p, 1.0)), 0.0).sum(axis=1)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of a real 2-D array, as an (n, 1) column.

    scipy.special.logsumexp's algorithm (Blanchard, Higham & Higham, 2021)
    step for step, so the result is bit-identical to it: the row maximum
    and its n tied copies are taken out of the sum, the rest is summed
    shifted by the maximum, and the row is log1p(s / n) + log(n) + max.
    A row where that is not finite (an inf or NaN in it, or all -inf)
    falls back to log(sum(exp(a))). Call under np.errstate that ignores
    divide, invalid and overflow.
    """
    a_max = a.max(axis=1, keepdims=True)
    is_max = a == a_max
    n_max = is_max.sum(axis=1, keepdims=True, dtype=a.dtype)
    s = np.exp(np.where(is_max, -np.inf, a) - a_max).sum(axis=1, keepdims=True)
    s = np.where(s == 0, s, s / n_max)
    out = np.log1p(s) + np.log(n_max) + a_max
    bad = ~np.isfinite(out[:, 0])
    if bad.any():
        out[bad] = np.log(np.exp(a[bad]).sum(axis=1, keepdims=True))
    return out


def _posteriors(dist: np.ndarray, dim: int):
    """Map an (n, K) min-distance matrix to (p, log p, log d, entropy) rows.

    A row with one or more zero distances puts mass 1 uniformly on those
    classes; every other row is normalized D^-m in log space.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_d = np.log(dist)
        ell = -dim * log_d
        log_p = ell - _logsumexp_rows(ell)
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
    arr = stacked_taus(queries, ref.dim)
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
    header = ["patch_id", "true_label", "predicted", *(f"p_{c}" for c in classes), "entropy"]
    write_csv_rows(path, chain([header], (
        [pv.patch_id, pv.true_label or "", pv.predicted]
        + [repr(float(p)) for p in pv.probabilities] + [repr(float(pv.entropy))]
        for pv in posteriors)))
