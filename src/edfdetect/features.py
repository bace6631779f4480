"""Patch standardization and smoothness-based feature vectors.

A patch is an m x m grid of grey intensities of a reflected sinusoidal
pattern that varies along rows. After standardizing the whole patch, every
row is smoothed with a GCV-selected penalized spline; the per-row effective
degrees of freedom, scaled by their maximum, form the feature vector. Rows
crossing a surface defect come out wigglier and need more degrees of
freedom, so the feature profile peaks there.

A cheap baseline feature (per-column standard deviations) is provided for
comparison runs. The module also holds the readers and the writer every
command shares: UTF-8 text, CSV rows and flat key=value config lines.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, DegenerateGcvError, DimensionMismatchError
from .splinefit import SplineModel, build_spline_model, select_lambda

# Standard deviation below this marks a constant (degenerate) patch.
_CONSTANT_STD_TOL = 1e-12

# Affine fits consume exactly two degrees of freedom; degenerate rows are
# floored there.
EDF_FLOOR = 2.0

# Smallest patch side extract_edf_features smooths, and so generate renders.
MIN_PATCH_SIDE = 31


@dataclass(eq=False)
class Patch:
    """One m x m grey-intensity patch plus its channel metadata."""

    pixels: np.ndarray
    frequency: float
    phase: float
    label: str | None = None
    patch_id: str = ""

    @property
    def side(self) -> int:
        return self.pixels.shape[0]

    def validate(self) -> None:
        shape = self.pixels.shape
        if len(shape) != 2 or not 2 <= shape[0] == shape[1]:
            raise DataError(f"patch pixels must be square with side >= 2, got {shape}")
        if not np.isfinite(self.pixels).all():
            raise DataError(f"patch {self.patch_id!r} has non-finite pixels")
        check_channel(self.frequency, self.phase, f"patch {self.patch_id!r}: ")


@dataclass(eq=False)
class FeatureVector:
    """Scaled per-row EDFs for one patch (or the col.std baseline values).

    The fields are those of one features CSV row.
    """

    tau: np.ndarray
    label: str | None
    patch_id: str
    frequency: float
    phase: float

    @property
    def dim(self) -> int:
        """Length of tau's first axis; a 0-d tau holds one value."""
        return np.shape(self.tau)[0] if np.ndim(self.tau) else 1


def standardize_patch(patch: Patch) -> Patch:
    """Center and scale the whole patch to mean 0, standard deviation 1.

    The denominator is the sample form (m^2 - 1). Reductions run over the
    sorted pixel values so the result is exactly invariant to pixel
    permutations (rows of a shuffled patch standardize bit-identically).
    The pixels are first scaled by 2^-k, with k the binary exponent of
    max|pixel|, so that the sums cannot overflow; the scaling is exact and
    cancels in the result. A constant patch (std under the tolerance, in
    pixel units) cannot be scaled; it comes back as the zero patch, which
    no other patch gives (one of its pixels is >= sqrt(1 - 1/m^2) std out).
    """
    patch.validate()
    k = math.frexp(float(np.abs(patch.pixels).max()))[1]
    pixels = np.ldexp(patch.pixels.astype(float), -k)
    flat = np.sort(pixels, axis=None)
    mean = flat.sum() / flat.size
    var = np.sort((flat - mean) ** 2).sum() / (flat.size - 1)
    std = math.sqrt(var)
    if std < math.ldexp(_CONSTANT_STD_TOL, -k):
        return replace(patch, pixels=np.zeros_like(pixels))
    return replace(patch, pixels=(pixels - mean) / std)


def check_channel(f: float, psi: float, prefix: str = "",
                  error: type[DataError] = DataError) -> None:
    """Raise error(prefix + why) unless (f, psi) is a channel: f in (0, inf), psi finite."""
    if not 0 < f < math.inf:
        raise error(f"{prefix}frequency must be in (0, inf), got {f!r}")
    if not math.isfinite(psi):
        raise error(f"{prefix}phase must be finite, got {psi!r}")


def q_for_frequency(f: float) -> int:
    """Basis dimension for the smoother, keyed on the pattern frequency."""
    check_channel(f, 0.0)  # the channel rule for f alone
    if f <= 8:
        return 20
    if f <= 32:
        return 30
    return 40


@lru_cache(maxsize=32)
def _cached_model(m: int, q: int) -> SplineModel:
    return build_spline_model(m, q)


def extract_edf_features(patch: Patch, q: int | None = None) -> FeatureVector:
    """Standardize the patch, smooth every row, and return the scaled EDFs.

    The basis dimension defaults to q_for_frequency(patch.frequency), capped
    at the patch side. Rows whose GCV search degenerates are floored at
    EDF = 2; so is every row of a constant patch.
    """
    m = patch.side
    if m < MIN_PATCH_SIDE:
        raise DataError(f"patch side must be >= {MIN_PATCH_SIDE}, got {m}")
    std = standardize_patch(patch)
    raw = np.full(m, EDF_FLOOR)
    if std.pixels.any():
        q_eff = q if q is not None else min(q_for_frequency(patch.frequency), m)
        model = _cached_model(m, q_eff)
        for r in range(m):
            try:
                raw[r] = select_lambda(model, std.pixels[r]).edf
            except DegenerateGcvError:
                continue  # the row keeps the floor
    return FeatureVector(tau=raw / raw.max(), label=patch.label,
                         patch_id=patch.patch_id, frequency=patch.frequency,
                         phase=patch.phase)


def colstd_features(patch: Patch) -> FeatureVector:
    """Baseline feature: per-column standard deviations, scaled by their max.

    All-constant columns (a constant patch standardizes to zeros) give the
    zero vector.
    """
    col_std = standardize_patch(patch).pixels.std(axis=0, ddof=1)
    top = col_std.max()
    tau = np.zeros(patch.side) if top < _CONSTANT_STD_TOL else col_std / top
    return FeatureVector(tau=tau, label=patch.label, patch_id=patch.patch_id,
                         frequency=patch.frequency, phase=patch.phase)


def write_csv_rows(path: str | Path, rows: Iterable[Iterable]) -> None:
    """Write rows to path as one UTF-8 CSV, whatever the locale's encoding."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def stacked_taus(vectors: list[FeatureVector], dim: int | None = None) -> np.ndarray:
    """The tau of one or more vectors of dimension dim (the first one's by
    default) as an (n, dim) array: the one rule for a set of feature vectors.
    It refuses, naming the first vector that breaks it, a vector of another
    dimension (DimensionMismatchError) and what read_features_csv refuses
    (DataError): no vectors, a dim under 1, a tau that is not 1-D and finite,
    or an (f, psi) that is not a channel."""
    if not vectors:
        raise DataError("no feature vectors")
    dim = vectors[0].dim if dim is None else dim
    if dim < 1:
        raise DataError(f"feature vectors have m={dim}; need m >= 1")
    # a tau that is not 1-D, or not of dimension dim, stacks as a NaN row
    taus = np.array([fv.tau if np.ndim(fv.tau) == 1 and fv.dim == dim
                     else np.full(dim, np.nan) for fv in vectors], dtype=float)
    for i, (fv, ok) in enumerate(zip(vectors, np.isfinite(taus).all(axis=1).tolist())):
        where = f"feature vector {fv.patch_id!r}: "
        if fv.dim != dim:
            raise DimensionMismatchError(f"{where}dim {fv.dim}, not {dim}, at position {i}")
        if not ok:
            raise DataError(f"{where}tau not 1-D and finite")
        check_channel(fv.frequency, fv.phase, where)
    return taus


def write_features_csv(features: list[FeatureVector], path: str | Path) -> None:
    """Serialize feature vectors: patch_id, label, f, psi, m, tau_1..tau_m."""
    taus = stacked_taus(features)       # nothing its reader would refuse
    m = taus.shape[1]
    header = ["patch_id", "label", "f", "psi", "m"] + [f"tau_{i}" for i in range(1, m + 1)]
    write_csv_rows(path, chain([header], (
        [fv.patch_id, fv.label or "", repr(float(fv.frequency)), repr(float(fv.phase)), m,
         *map(repr, row)] for fv, row in zip(features, taus.tolist()))))


def read_utf8(path: str | Path, error: type[DataError] = DataError) -> str:
    """The text of a UTF-8 file; a byte that is not UTF-8 is error at path:line."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text ({exc.reason})") from exc


def csv_rows(path: str | Path):
    """(line number, row) for each row of a UTF-8 CSV file; a byte that is not
    UTF-8 and a csv parse error are DataError at path:line."""
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc


def parse_key_values(lines: list[str], source: str) -> dict[str, tuple[str, str]]:
    """Read flat key=value lines into {key: (value, "<source>:<line>")}.

    Blank lines and '#' comment lines are skipped and a later line for a
    key wins; each value keeps its location so later errors can name it.
    """
    values: dict[str, tuple[str, str]] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{source}:{lineno}"
        key, sep, val = line.partition("=")
        if not sep:
            raise ConfigError(f"{where}: expected key=value, got {line!r}")
        values[key.strip()] = (val.strip(), where)
    return values


def typed_values(values: dict[str, tuple[str, str]],
                 keys: dict[str, Callable[[str], object]]) -> dict[str, object]:
    """{key: keys[key](value)} of parse_key_values output; a key not in the table
    or a value its parser rejects is a ConfigError at the value's location."""
    typed = {}
    for key, (val, where) in values.items():
        if key not in keys:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        try:
            typed[key] = keys[key](val)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key!r}: {val!r}") from exc
    return typed


def read_features_csv(path: str | Path) -> list[FeatureVector]:
    """Load feature vectors written by write_features_csv, each of the header's m."""
    out: list[FeatureVector] = []
    rows = csv_rows(path)
    _, header = next(rows, (0, None))
    if header is None or header[:5] != ["patch_id", "label", "f", "psi", "m"]:
        raise DataError(f"{path}: not a feature CSV (bad header)")
    for line, row in rows:
        if not row:
            continue
        where = f"{path}:{line}"
        try:
            m = int(row[4])
            frequency, phase = float(row[2]), float(row[3])
            tau = np.array([float(v) for v in row[5:]])
        except (ValueError, IndexError) as exc:
            raise DataError(f"{where}: malformed feature row ({exc})") from exc
        if m < 1:
            raise DataError(f"{where}: row for {row[0]!r} has m={m}; need m >= 1")
        if len(row) != 5 + m:
            raise DataError(f"{where}: row for {row[0]!r} has wrong tau count")
        if len(row) != len(header):     # the row's m is not the header's
            raise DataError(f"{where}: row for {row[0]!r} has m={m}, not the "
                            f"header's {len(header) - 5}")
        if not np.isfinite(tau).all():
            raise DataError(f"{where}: row for {row[0]!r} has non-finite tau")
        check_channel(frequency, phase, f"{where}: ")
        out.append(FeatureVector(tau=tau, label=row[1] or None, patch_id=row[0],
                                 frequency=frequency, phase=phase))
    return out
