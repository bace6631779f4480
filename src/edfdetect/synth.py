"""Synthetic deflectometry patches: fringe rendering and defect injection.

The screen shows I = B + A*sin(2*pi*f*q + psi) with q the normalized
coordinate across the captured pattern width; a patch is an m x m crop at
some column offset. On a perfect surface every patch row carries the same
sinusoid. A surface defect changes the local slope, which under specular
reflection shifts the observed pattern phase, so defects are injected as
compact spatially varying phase perturbations:

  crater - ring-shaped profile (radial derivative of a smooth bowl built
           from a difference of Gaussians): zero at the center, peak
           magnitude = strength at about radius/2, exactly zero at and
           beyond radius;
  dirt   - Gaussian bump of width radius/2 with peak = strength at the
           center, tapered to exactly zero at 2.5 * radius.

Rendering is deterministic given a seed; datasets derive one seed per patch
from the master seed and the patch index.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .features import Patch, q_for_frequency

DEFECT_FREE = "defect_free"
CRATER = "crater"
DIRT = "dirt"
CLASS_ORDER = (DEFECT_FREE, CRATER, DIRT)


@dataclass(frozen=True)
class PatternSpec:
    """Sinusoidal screen pattern plus the pixel-noise level of the capture."""

    offset: float = 0.5
    amplitude: float = 0.5
    frequency: float = 8.0
    phase: float = 0.0
    pattern_width: int = 728
    noise_sigma: float = 0.005

    def validate(self) -> None:
        if self.amplitude <= 0:
            raise ConfigError("amplitude must be positive")
        if self.pattern_width < 1:
            raise ConfigError("pattern_width must be >= 1")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")


@dataclass(frozen=True)
class DefectSpec:
    """Local phase distortion: kind, center (row, col), radius, peak strength."""

    kind: str
    center: tuple[float, float]
    radius: float
    strength: float

    def validate(self, m: int) -> None:
        if self.kind not in (CRATER, DIRT):
            raise ConfigError(f"unknown defect kind {self.kind!r}")
        if self.radius <= 0:
            raise ConfigError("defect radius must be positive")
        if self.strength < 0:
            raise ConfigError("defect strength must be >= 0")
        r, c = self.center
        if not (0 <= r < m and 0 <= c < m):
            raise DataError(f"defect center {self.center} outside {m}x{m} patch")

    @property
    def support_radius(self) -> float:
        """Distance beyond which the phase perturbation is exactly zero."""
        return self.radius if self.kind == CRATER else 2.5 * self.radius


# Crater ring: difference of Gaussians with sigma2 = sigma1/2 peaks at
# 0.9614 * sigma1; choosing sigma1 = radius / (2 * 0.9614) puts the peak at
# radius/2. The cosine taper starts where the ring has mostly decayed.
_CRATER_SIGMA_SCALE = 0.5 / 0.9614
_CRATER_TAPER_START = 0.7
_DIRT_TAPER_START_R = 1.5
_DIRT_TAPER_END_R = 2.5


def _cos_taper(d: np.ndarray, start: float, end: float) -> np.ndarray:
    ramp = 0.5 * (1.0 + np.cos(np.pi * (d - start) / (end - start)))
    return np.where(d <= start, 1.0, np.where(d >= end, 0.0, ramp))


def phase_field(defect: DefectSpec, m: int) -> np.ndarray:
    """Phase perturbation phi(row, col) of the defect on an m x m grid."""
    defect.validate(m)
    rows = np.arange(m, dtype=float)[:, None]
    cols = np.arange(m, dtype=float)[None, :]
    d = np.hypot(rows - defect.center[0], cols - defect.center[1])
    if defect.kind == CRATER:
        s1 = _CRATER_SIGMA_SCALE * defect.radius
        s2 = s1 / 2.0
        ring = np.exp(-d**2 / (2 * s1**2)) - np.exp(-d**2 / (2 * s2**2))
        ring *= _cos_taper(d, _CRATER_TAPER_START * defect.radius, defect.radius)
        ring[d >= defect.radius] = 0.0
        dd = np.linspace(0.0, defect.radius, 2001)
        gg = np.exp(-dd**2 / (2 * s1**2)) - np.exp(-dd**2 / (2 * s2**2))
        gg *= _cos_taper(dd, _CRATER_TAPER_START * defect.radius, defect.radius)
        peak = gg.max()
        return -defect.strength * ring / peak
    sigma = defect.radius / 2.0
    bump = np.exp(-d**2 / (2 * sigma**2))
    bump *= _cos_taper(d, _DIRT_TAPER_START_R * defect.radius,
                       _DIRT_TAPER_END_R * defect.radius)
    bump[d >= _DIRT_TAPER_END_R * defect.radius] = 0.0
    return defect.strength * bump


def _render(spec: PatternSpec, m: int, origin_col: int, phi: np.ndarray | None,
            seed: int | None) -> np.ndarray:
    """Pattern plus noise on the m x m grid. phi None renders the clean pattern
    as one repeated row, bit-identical to phi = 0 since theta + 0.0 is theta."""
    cols = origin_col + np.arange(m, dtype=float)
    theta = 2.0 * np.pi * spec.frequency * cols / spec.pattern_width + spec.phase
    if phi is None:
        pixels = np.tile(spec.offset + spec.amplitude * np.sin(theta), (m, 1))
    else:
        pixels = spec.offset + spec.amplitude * np.sin(theta[None, :] + phi)
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(seed)
        pixels = pixels + spec.noise_sigma * rng.standard_normal((m, m))
    return pixels


def render_clean_patch(spec: PatternSpec, m: int, origin_col: int = 0,
                       seed: int | None = None, patch_id: str = "") -> Patch:
    """Render a defect-free patch cut at origin_col from the pattern width."""
    spec.validate()
    if origin_col < 0 or origin_col + m > spec.pattern_width:
        raise DataError(
            f"patch [{origin_col}, {origin_col + m}) exceeds pattern width "
            f"{spec.pattern_width}")
    pixels = _render(spec, m, origin_col, None, seed)
    return Patch(pixels=pixels, frequency=spec.frequency, phase=spec.phase,
                 label=DEFECT_FREE, patch_id=patch_id, origin_col=origin_col,
                 seed=seed)


def inject_defect(patch: Patch, spec: PatternSpec, defect: DefectSpec) -> Patch:
    """Re-render the patch with the defect's phase perturbation applied.

    Reads the side, id, origin column and noise seed of the patch, not its
    pixels; a zero strength defect reproduces the clean patch bit for bit.
    """
    spec.validate()
    m = patch.side
    phi = phase_field(defect, m)
    pixels = _render(spec, m, patch.origin_col, phi, patch.seed)
    return Patch(pixels=pixels, frequency=spec.frequency, phase=spec.phase,
                 label=defect.kind, patch_id=patch.patch_id,
                 origin_col=patch.origin_col, seed=patch.seed)


# ---------------------------------------------------------------------------
# Patch files: plain-text PGM (16 bit) or raw CSV matrices.
#
# The PGM writer formats a patch with one table gather, not one str() per
# sample. Entry v of the table is the text of v (0..65535) as five
# right-aligned digits and a space, padded to 8 bytes read as one uint64; its
# keep-mask drops the leading zeros and the padding. Gathering both at the
# grey levels, turning each line's last space into a newline and keeping the
# masked bytes gives " ".join(map(str, row)) per line. The table is built on
# the first write, so commands that write no PGM never pay for it.

def _pgm_range(spec: PatternSpec) -> tuple[float, float]:
    lo = spec.offset - spec.amplitude - 4 * spec.noise_sigma
    hi = spec.offset + spec.amplitude + 4 * spec.noise_sigma
    return lo, hi


@functools.cache
def _decimal_table() -> tuple[np.ndarray, np.ndarray]:
    """(text, keep) per grey level 0..65535, each 8 bytes read as one uint64."""
    values = np.arange(65536)
    text = np.zeros((65536, 8), dtype=np.uint8)
    text[:, :5] = values[:, None] // 10 ** np.arange(4, -1, -1) % 10 + ord("0")
    text[:, 5] = ord(" ")
    width = 1 + sum(values >= 10**k for k in range(1, 5))
    keep = np.zeros((65536, 8), dtype=bool)
    keep[:, :5] = np.arange(5) >= 5 - width[:, None]
    keep[:, 5] = True
    tables = text.view(np.uint64)[:, 0], keep.view(np.uint64)[:, 0]
    for table in tables:
        table.setflags(write=False)     # shared by every later write
    return tables


def write_patch_pgm(patch: Patch, path: str | Path, lo: float, hi: float) -> None:
    """Write a P2 PGM, mapping [lo, hi] linearly onto [0, 65535]."""
    grey = np.rint((patch.pixels - lo) / (hi - lo) * 65535.0)
    if np.isnan(grey).any():
        raise DataError(f"{path}: pixels do not map onto 0..65535 with range "
                        f"{lo!r} {hi!r}")
    grey = np.clip(grey, 0, 65535).astype(np.intp)
    text_table, keep_table = _decimal_table()
    text = text_table[grey].view(np.uint8).reshape(*grey.shape, 8)
    text[:, -1, 5] = ord("\n")
    body = text[keep_table[grey].view(bool).reshape(text.shape)]
    m = patch.side
    with open(path, "wb") as fh:
        fh.write(f"P2\n# range {lo!r} {hi!r}\n{m} {m}\n65535\n".encode())
        fh.write(body.tobytes())


def read_patch_pgm(path: str | Path) -> tuple[np.ndarray, float, float]:
    """Read a P2 PGM written by write_patch_pgm; returns (pixels, lo, hi)."""
    tokens: list[str] = []
    lo = hi = None
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                parts = line.split()
                if len(parts) == 4 and parts[1] == "range":
                    lo, hi = float(parts[2]), float(parts[3])
                continue
            tokens.extend(line.split())
    if not tokens or tokens[0] != "P2":
        raise DataError(f"{path}: not a P2 PGM file")
    if lo is None or hi is None:
        raise DataError(f"{path}: missing '# range lo hi' comment")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        grey = np.array([int(t) for t in tokens[4:]], dtype=float)
    except IndexError as exc:
        raise DataError(f"{path}: truncated PGM header") from exc
    except ValueError as exc:
        raise DataError(f"{path}: non-integer PGM token ({exc})") from exc
    if width < 1 or height < 1 or maxval < 1:
        raise DataError(f"{path}: bad PGM header {width} {height} {maxval}")
    if grey.size != width * height:
        raise DataError(f"{path}: expected {width * height} samples, got {grey.size}")
    if grey.min() < 0 or grey.max() > maxval:
        raise DataError(f"{path}: samples outside 0..{maxval}")
    pixels = lo + grey.reshape(height, width) / maxval * (hi - lo)
    return pixels, lo, hi


def write_patch_csv(patch: Patch, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in patch.pixels:
            writer.writerow([repr(float(v)) for v in row])


def read_patch_csv(path: str | Path) -> np.ndarray:
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise DataError(f"{where}: malformed pixel value ({exc})") from exc
            if len(row) != len(rows[0]):
                raise DataError(
                    f"{where}: expected {len(rows[0])} values, got {len(row)}")
    pixels = np.array(rows)
    if pixels.ndim != 2 or pixels.shape[0] != pixels.shape[1]:
        raise DataError(f"{path}: expected a square matrix, got {pixels.shape}")
    return pixels


# ---------------------------------------------------------------------------
# Dataset generation.

_MANIFEST_COLUMNS = ["patch_id", "file", "label", "f", "psi", "m", "kind",
                     "center_row", "center_col", "radius", "strength",
                     "origin_col", "seed"]

# Channel-dependent defaults, fixed by the calibration sweep recorded in
# docs/calibration.md. Keyed on the smoother's basis dimension for the
# channel frequency. Cycles per patch positions the clean-row EDF in the
# mid range of the basis; the noise floor (as a fraction of the pattern
# amplitude) anchors the GCV selection; the dirt radius range keeps the
# bump wide enough for the channel's spline resolution.
_AUTO_CYCLES = {20: 2.0, 30: 3.0, 40: 4.0}
_AUTO_NOISE_FRAC = {20: 0.20, 30: 0.12, 40: 0.08}
_AUTO_DIRT_RADIUS = {20: (8.0, 12.0), 30: (6.0, 10.0), 40: (5.0, 9.0)}


@dataclass
class GenerationConfig:
    """Desk-scale dataset recipe; counts default to the plant proportions.

    pattern_width, noise_sigma and dirt_radius default to None, meaning
    per-channel values from the calibrated tables above; set them
    explicitly to pin one value for every channel.
    """

    m: int = 91
    pattern_width: int | None = None
    offset: float = 0.5
    amplitude: float = 0.5
    noise_sigma: float | None = None
    frequencies: tuple[float, ...] = (8.0,)
    phases: tuple[float, ...] = (math.pi,)
    count_defect_free: int = 750
    count_dirt: int = 230
    count_crater: int = 20
    crater_radius: tuple[float, float] = (10.0, 16.0)
    crater_strength: tuple[float, float] = (2.0, 3.5)
    dirt_radius: tuple[float, float] | None = None
    dirt_strength: tuple[float, float] = (2.0, 4.0)
    center_jitter: float = 10.0
    file_format: str = "pgm"

    def channel_spec(self, f: float, psi: float) -> PatternSpec:
        """Resolve the pattern spec for one channel, applying auto defaults."""
        q = q_for_frequency(f)
        width = self.pattern_width
        if width is None:
            width = max(round(f * self.m / _AUTO_CYCLES[q]), self.m)
        sigma = self.noise_sigma
        if sigma is None:
            sigma = _AUTO_NOISE_FRAC[q] * self.amplitude
        return PatternSpec(offset=self.offset, amplitude=self.amplitude,
                           frequency=f, phase=psi, pattern_width=width,
                           noise_sigma=sigma)

    def dirt_radius_for(self, f: float) -> tuple[float, float]:
        if self.dirt_radius is not None:
            return self.dirt_radius
        return _AUTO_DIRT_RADIUS[q_for_frequency(f)]

    def validate(self) -> None:
        if self.m < 31 or self.m % 2 == 0:
            raise ConfigError(f"m must be odd and >= 31, got {self.m}")
        if self.pattern_width is not None and self.pattern_width < self.m:
            raise ConfigError("pattern_width must be >= m")
        if min(self.count_defect_free, self.count_dirt, self.count_crater) < 0:
            raise ConfigError("class counts must be >= 0")
        if not self.frequencies or not self.phases:
            raise ConfigError("need at least one frequency and one phase")
        if not all(0 < f < math.inf for f in self.frequencies):
            raise ConfigError(
                f"frequencies must be in (0, inf), got {self.frequencies}")
        if not all(math.isfinite(psi) for psi in self.phases):
            raise ConfigError(f"phases must be finite, got {self.phases}")
        for name in ("offset", "amplitude", "noise_sigma", "center_jitter"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        for name in ("crater_radius", "crater_strength", "dirt_radius",
                     "dirt_strength"):
            bounds = getattr(self, name)
            if bounds is None:
                continue
            lo, hi = bounds
            if not 0 < lo <= hi < math.inf:
                raise ConfigError(f"{name} must satisfy 0 < lo <= hi < inf")
        if self.file_format not in ("pgm", "csv"):
            raise ConfigError(f"file format must be pgm or csv, got {self.file_format}")
        for f in self.frequencies:
            for psi in self.phases:
                spec = self.channel_spec(f, psi)
                spec.validate()
                lo, hi = _pgm_range(spec)
                if not 0 < hi - lo < math.inf:
                    raise ConfigError(
                        f"offset {spec.offset!r}, amplitude {spec.amplitude!r} and "
                        f"noise_sigma {spec.noise_sigma!r} give the PGM range "
                        f"{lo!r} {hi!r} at f={f!r}; need finite lo < hi")


_PHASE_TOKENS = {"0": 0.0, "pi/2": math.pi / 2, "pi": math.pi,
                 "3pi/2": 3 * math.pi / 2}


def _parse_phase(token: str) -> float:
    token = token.strip()
    if token in _PHASE_TOKENS:
        return _PHASE_TOKENS[token]
    return float(token)


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


def generation_config(values: dict[str, tuple[str, str]]) -> GenerationConfig:
    """Apply parse_key_values output to the defaults, then validate once."""
    cfg = GenerationConfig()
    for key, (val, where) in values.items():
        try:
            apply_config_override(cfg, key, val)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    cfg.validate()
    return cfg


def apply_config_override(cfg: GenerationConfig, key: str, val: str) -> GenerationConfig:
    """Return cfg with one key=value override applied; 'auto' restores defaults."""
    try:
        if key in ("m", "count_defect_free", "count_dirt", "count_crater"):
            setattr(cfg, key, int(val))
        elif key == "pattern_width":
            cfg.pattern_width = None if val == "auto" else int(val)
        elif key == "noise_sigma":
            cfg.noise_sigma = None if val == "auto" else float(val)
        elif key in ("offset", "amplitude", "center_jitter"):
            setattr(cfg, key, float(val))
        elif key == "frequencies":
            cfg.frequencies = tuple(float(v) for v in val.split(","))
        elif key == "phases":
            cfg.phases = tuple(_parse_phase(v) for v in val.split(","))
        elif key == "dirt_radius" and val == "auto":
            cfg.dirt_radius = None
        elif key in ("crater_radius", "crater_strength", "dirt_radius",
                     "dirt_strength"):
            lo, hi = (float(v) for v in val.split(","))
            setattr(cfg, key, (lo, hi))
        elif key == "format":
            cfg.file_format = val
        else:
            raise ConfigError(f"unknown config key {key!r}")
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {val!r}") from exc
    return cfg


def _patch_seed_and_rng(master_seed: int, index: int):
    words = np.random.SeedSequence([master_seed, index]).generate_state(2)
    return int(words[0]), np.random.default_rng(int(words[1]))


def _sample_defect(kind: str, cfg: GenerationConfig, f: float,
                   rng: np.random.Generator) -> DefectSpec:
    if kind == CRATER:
        radius_range, strength_range = cfg.crater_radius, cfg.crater_strength
    else:
        radius_range, strength_range = cfg.dirt_radius_for(f), cfg.dirt_strength
    radius = rng.uniform(*radius_range)
    strength = rng.uniform(*strength_range)
    mid = (cfg.m - 1) / 2.0
    jitter = min(cfg.center_jitter, mid - radius)
    jitter = max(jitter, 0.0)
    center = (mid + rng.uniform(-jitter, jitter), mid + rng.uniform(-jitter, jitter))
    return DefectSpec(kind=kind, center=center, radius=radius, strength=strength)


def generate_dataset(cfg: GenerationConfig, seed: int, out_dir: str | Path) -> Path:
    """Render the configured dataset into out_dir and write manifest.csv.

    Every patch gets a seed derived from (seed, patch index), so the output
    is byte-identical across repeated runs with the same arguments.
    """
    cfg.validate()
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    out = Path(out_dir)
    patches_dir = out / "patches"
    patches_dir.mkdir(parents=True, exist_ok=True)

    counts = {DEFECT_FREE: cfg.count_defect_free, CRATER: cfg.count_crater,
              DIRT: cfg.count_dirt}
    rows: list[list] = []
    index = 0
    for f in cfg.frequencies:
        for psi in cfg.phases:
            spec = cfg.channel_spec(f, psi)
            lo, hi = _pgm_range(spec)
            for label in CLASS_ORDER:
                for _ in range(counts[label]):
                    noise_seed, rng = _patch_seed_and_rng(seed, index)
                    origin = int(rng.integers(0, spec.pattern_width - cfg.m + 1))
                    patch_id = f"p{index:06d}"
                    if label == DEFECT_FREE:
                        defect = None
                        patch = render_clean_patch(spec, cfg.m, origin, seed=noise_seed,
                                                   patch_id=patch_id)
                    else:
                        defect = _sample_defect(label, cfg, f, rng)
                        # inject_defect reads no pixels: the stand-in spares
                        # rendering a clean patch only to drop it
                        recipe = Patch(pixels=np.broadcast_to(np.nan, (cfg.m, cfg.m)),
                                       frequency=f, phase=psi, patch_id=patch_id,
                                       origin_col=origin, seed=noise_seed)
                        patch = inject_defect(recipe, spec, defect)
                    ext = "pgm" if cfg.file_format == "pgm" else "csv"
                    fname = f"patches/{patch_id}.{ext}"
                    if cfg.file_format == "pgm":
                        write_patch_pgm(patch, out / fname, lo, hi)
                    else:
                        write_patch_csv(patch, out / fname)
                    rows.append([
                        patch_id, fname, label, repr(f), repr(psi), cfg.m,
                        defect.kind if defect else "",
                        repr(defect.center[0]) if defect else "",
                        repr(defect.center[1]) if defect else "",
                        repr(defect.radius) if defect else "",
                        repr(defect.strength) if defect else "",
                        origin, noise_seed,
                    ])
                    index += 1

    with open(out / "manifest.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_MANIFEST_COLUMNS)
        writer.writerows(rows)
    return out / "manifest.csv"


def load_dataset(manifest_path: str | Path, transpose: bool = False) -> list[Patch]:
    """Load all patches listed in a manifest written by generate_dataset."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    patches: list[Patch] = []
    with open(manifest_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "patch_id" not in reader.fieldnames:
            raise DataError(f"{manifest_path}: not a manifest CSV")
        missing = [c for c in ("file", "label", "f", "psi")
                   if c not in reader.fieldnames]
        if missing:
            raise DataError(f"{manifest_path}: manifest lacks column(s) {missing}")
        for row in reader:
            where = f"{manifest_path}:{reader.line_num}"
            try:
                path = base / row["file"]
                frequency, phase = float(row["f"]), float(row["psi"])
                origin = int(row.get("origin_col") or 0)
                seed = int(row["seed"]) if row.get("seed") else None
            except (TypeError, ValueError) as exc:
                raise DataError(f"{where}: malformed manifest row ({exc})") from exc
            if path.suffix == ".pgm":
                pixels, _, _ = read_patch_pgm(path)
            else:
                pixels = read_patch_csv(path)
            if transpose:
                pixels = pixels.T
            patches.append(Patch(
                pixels=pixels, frequency=frequency, phase=phase,
                label=row["label"] or None, patch_id=row["patch_id"],
                origin_col=origin, seed=seed,
            ))
    return patches
