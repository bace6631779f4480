"""Patch standardization and smoothness-based feature vectors.

A patch is an m x m grid of grey intensities of a reflected sinusoidal
pattern that varies along rows. After standardizing the whole patch, every
row is smoothed with a GCV-selected penalized spline; the per-row effective
degrees of freedom, scaled by their maximum, form the feature vector. Rows
crossing a surface defect come out wigglier and need more degrees of
freedom, so the feature profile peaks there.

A cheap baseline feature (per-column standard deviations) is provided for
comparison runs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import DataError, DegenerateGcvError
from .splinefit import SplineModel, build_spline_model, select_lambda

# Standard deviation below this marks a constant (degenerate) patch.
_CONSTANT_STD_TOL = 1e-12

# Affine fits consume exactly two degrees of freedom; degenerate rows are
# floored there.
EDF_FLOOR = 2.0


@dataclass
class Patch:
    """One m x m grey-intensity patch plus its channel metadata.

    origin_col and seed record how the patch was rendered (column offset
    into the full pattern width, noise seed) so a synthetic patch can be
    re-rendered bit-identically; both stay None for externally loaded data.
    """

    pixels: np.ndarray
    frequency: float
    phase: float
    label: str | None = None
    patch_id: str = ""
    origin_col: int = 0
    seed: int | None = None
    degenerate: bool = False

    @property
    def side(self) -> int:
        return self.pixels.shape[0]

    def validate(self) -> None:
        if self.pixels.ndim != 2 or self.pixels.shape[0] != self.pixels.shape[1]:
            raise DataError(f"patch pixels must be square, got {self.pixels.shape}")
        if not np.isfinite(self.pixels).all():
            raise DataError(f"patch {self.patch_id!r} has non-finite pixels")


@dataclass
class FeatureVector:
    """Scaled per-row EDFs for one patch (or the col.std baseline values)."""

    tau: np.ndarray
    raw_edf: np.ndarray | None
    label: str | None
    patch_id: str
    frequency: float
    phase: float
    degenerate: bool = False

    @property
    def dim(self) -> int:
        return len(self.tau)


def standardize_patch(patch: Patch) -> Patch:
    """Center and scale the whole patch to mean 0, standard deviation 1.

    The denominator is the sample form (m^2 - 1). Reductions run over the
    sorted pixel values so the result is exactly invariant to pixel
    permutations (rows of a shuffled patch standardize bit-identically).
    A constant patch cannot be scaled; it comes back as the zero patch with
    the degenerate flag set.
    """
    patch.validate()
    pixels = patch.pixels.astype(float)
    flat = np.sort(pixels, axis=None)
    mean = flat.sum() / flat.size
    var = np.sort((flat - mean) ** 2).sum() / (flat.size - 1)
    std = math.sqrt(var)
    if std < _CONSTANT_STD_TOL:
        return replace(patch, pixels=np.zeros_like(pixels), degenerate=True)
    return replace(patch, pixels=(pixels - mean) / std, degenerate=False)


def q_for_frequency(f: float) -> int:
    """Basis dimension for the smoother, keyed on the pattern frequency."""
    if f <= 0:
        raise DataError(f"frequency must be positive, got {f}")
    if f <= 8:
        return 20
    if f <= 32:
        return 30
    return 40


@lru_cache(maxsize=32)
def _cached_model(m: int, q: int) -> SplineModel:
    model = build_spline_model(m, q)
    model.factorization()
    return model


def extract_edf_features(patch: Patch, q: int | None = None) -> FeatureVector:
    """Standardize the patch, smooth every row, and return the scaled EDFs.

    The basis dimension defaults to q_for_frequency(patch.frequency), capped
    at the patch side. Rows whose GCV search degenerates are floored at
    EDF = 2.
    """
    m = patch.side
    if m < 31:
        raise DataError(f"patch side must be >= 31, got {m}")
    std = standardize_patch(patch)
    if std.degenerate:
        raw = np.full(m, EDF_FLOOR)
        return FeatureVector(tau=np.ones(m), raw_edf=raw, label=patch.label,
                             patch_id=patch.patch_id, frequency=patch.frequency,
                             phase=patch.phase, degenerate=True)

    q_eff = q if q is not None else min(q_for_frequency(patch.frequency), m)
    model = _cached_model(m, q_eff)
    raw = np.empty(m)
    for r in range(m):
        try:
            raw[r] = select_lambda(model, std.pixels[r]).edf
        except DegenerateGcvError:
            raw[r] = EDF_FLOOR
    return FeatureVector(tau=raw / raw.max(), raw_edf=raw, label=patch.label,
                         patch_id=patch.patch_id, frequency=patch.frequency,
                         phase=patch.phase)


def colstd_features(patch: Patch) -> FeatureVector:
    """Baseline feature: per-column standard deviations, scaled by their max."""
    m = patch.side
    std = standardize_patch(patch)
    if std.degenerate:
        return FeatureVector(tau=np.zeros(m), raw_edf=np.zeros(m),
                             label=patch.label, patch_id=patch.patch_id,
                             frequency=patch.frequency, phase=patch.phase,
                             degenerate=True)
    col_std = std.pixels.std(axis=0, ddof=1)
    top = col_std.max()
    if top < _CONSTANT_STD_TOL:
        return FeatureVector(tau=np.zeros(m), raw_edf=col_std, label=patch.label,
                             patch_id=patch.patch_id, frequency=patch.frequency,
                             phase=patch.phase, degenerate=True)
    return FeatureVector(tau=col_std / top, raw_edf=col_std, label=patch.label,
                         patch_id=patch.patch_id, frequency=patch.frequency,
                         phase=patch.phase)


def write_features_csv(features: list[FeatureVector], path: str | Path) -> None:
    """Serialize feature vectors: patch_id, label, f, psi, m, tau_1..tau_m."""
    if not features:
        raise DataError("no feature vectors to write")
    m = features[0].dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patch_id", "label", "f", "psi", "m"]
                        + [f"tau_{i}" for i in range(1, m + 1)])
        for fv in features:
            if fv.dim != m:
                raise DataError("feature vectors of mixed dimension")
            writer.writerow([fv.patch_id, fv.label or "", repr(fv.frequency),
                             repr(fv.phase), m] + [repr(float(v)) for v in fv.tau])


def read_features_csv(path: str | Path) -> list[FeatureVector]:
    """Load feature vectors written by write_features_csv."""
    out: list[FeatureVector] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:5] != ["patch_id", "label", "f", "psi", "m"]:
            raise DataError(f"{path}: not a feature CSV (bad header)")
        for row in reader:
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            try:
                m = int(row[4])
                frequency, phase = float(row[2]), float(row[3])
                tau = np.array([float(v) for v in row[5:]])
            except (ValueError, IndexError) as exc:
                raise DataError(f"{where}: malformed feature row ({exc})") from exc
            if len(row) != 5 + m:
                raise DataError(f"{where}: row for {row[0]!r} has wrong tau count")
            if not np.isfinite(tau).all():
                raise DataError(f"{where}: row for {row[0]!r} has non-finite tau")
            out.append(FeatureVector(tau=tau, raw_edf=None,
                                     label=row[1] or None, patch_id=row[0],
                                     frequency=frequency, phase=phase))
    return out
