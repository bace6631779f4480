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

import functools
import math
import threading
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .features import (MIN_PATCH_SIDE, Patch, check_channel, csv_rows,
                       parse_key_values, q_for_frequency, read_utf8, typed_values,
                       write_csv_rows)

DEFECT_FREE = "defect_free"
CRATER = "crater"
DIRT = "dirt"
CLASS_ORDER = (DEFECT_FREE, CRATER, DIRT)
# Defect radii keep the squared Gaussian widths of phase_field normal floats.
_MIN_RADIUS, _MAX_RADIUS = 1e-100, 1e100


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
        check_channel(self.frequency, self.phase, error=ConfigError)
        if not self.pattern_width >= 1:
            raise ConfigError(f"pattern_width must be >= 1, got {self.pattern_width!r}")
        if not self.amplitude > 0:
            raise ConfigError(f"amplitude must be positive, got {self.amplitude!r}")
        if not self.noise_sigma >= 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma!r}")
        check_pgm_range(*_pgm_range(self), f"offset {self.offset!r}, amplitude "
                        f"{self.amplitude!r} and noise_sigma {self.noise_sigma!r} at "
                        f"f={self.frequency!r} give the PGM ", ConfigError)


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
        if not _MIN_RADIUS <= self.radius <= _MAX_RADIUS:
            raise ConfigError(f"defect radius must be positive and finite, in [{_MIN_RADIUS}, "
                              f"{_MAX_RADIUS}], got {self.radius!r}")
        if not 0 <= self.strength < math.inf:
            raise ConfigError(f"defect strength must be in [0, inf), got {self.strength!r}")
        r, c = self.center
        if not (0 <= r < m and 0 <= c < m):
            raise DataError(f"defect center {self.center} outside {m}x{m} patch")

    @property
    def support_radius(self) -> float:
        """Distance beyond which the phase perturbation is exactly zero."""
        return self.radius if self.kind == CRATER else _DIRT_TAPER_END_R * self.radius


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


def _phase_box(defect: DefectSpec, m: int) -> tuple[tuple[slice, slice], np.ndarray, float]:
    """(box, phi on the box, phi everywhere else) of the defect on an m x m grid.

    The box holds the rows and columns within support_radius of the center,
    one more on each side, clipped to the grid; beyond it phi is the final
    scaling applied to 0.0, the signed zero of a full-grid evaluation.
    """
    defect.validate(m)
    reach = defect.support_radius
    (r0, r1), (c0, c1) = ((max(0, math.floor(c - reach)), min(m, math.ceil(c + reach) + 1))
                          for c in defect.center)
    rows = np.arange(r0, r1, dtype=float)[:, None]
    cols = np.arange(c0, c1, dtype=float)[None, :]
    d = np.hypot(rows - defect.center[0], cols - defect.center[1])
    if defect.kind == CRATER:
        s1 = _CRATER_SIGMA_SCALE * defect.radius
        s2 = s1 / 2.0
        profile = np.exp(-d**2 / (2 * s1**2)) - np.exp(-d**2 / (2 * s2**2))
        profile *= _cos_taper(d, _CRATER_TAPER_START * defect.radius, defect.radius)
        dd = np.linspace(0.0, defect.radius, 2001)
        gg = np.exp(-dd**2 / (2 * s1**2)) - np.exp(-dd**2 / (2 * s2**2))
        gg *= _cos_taper(dd, _CRATER_TAPER_START * defect.radius, defect.radius)
        scale, peak = -defect.strength, gg.max()
    else:
        sigma = defect.radius / 2.0
        profile = np.exp(-d**2 / (2 * sigma**2))
        profile *= _cos_taper(d, _DIRT_TAPER_START_R * defect.radius,
                              _DIRT_TAPER_END_R * defect.radius)
        scale, peak = defect.strength, 1.0     # x / 1.0 is x, bit for bit
    profile[d >= reach] = 0.0
    return (slice(r0, r1), slice(c0, c1)), scale * profile / peak, scale * 0.0 / peak


def phase_field(defect: DefectSpec, m: int) -> np.ndarray:
    """Phase perturbation phi(row, col) of the defect on an m x m grid."""
    box, inside, outside = _phase_box(defect, m)
    field = np.full((m, m), outside)
    field[box] = inside
    return field


def render_patch(spec: PatternSpec, m: int, origin_col: int = 0,
                 seed: int | None = None, patch_id: str = "",
                 defect: DefectSpec | None = None) -> Patch:
    """Render the m x m patch cut at origin_col from the pattern width.

    Pattern plus the noise drawn from seed, with the defect's phase
    perturbation inside the sine when one is given. The patch tiles one row,
    rendered with the phi that holds beyond the defect's box, and then
    renders the box on its own. A clean patch is bit-identical to a
    zero-strength defect since theta + 0.0 is theta.
    """
    spec.validate()
    if origin_col < 0 or origin_col + m > spec.pattern_width:
        raise DataError(
            f"patch [{origin_col}, {origin_col + m}) exceeds pattern width "
            f"{spec.pattern_width}")
    cols = origin_col + np.arange(m, dtype=float)
    theta = 2.0 * np.pi * spec.frequency * cols / spec.pattern_width + spec.phase
    if defect is None:
        pixels = np.tile(spec.offset + spec.amplitude * np.sin(theta), (m, 1))
    else:
        box, phi, outside = _phase_box(defect, m)
        pixels = np.tile(spec.offset + spec.amplitude * np.sin(theta + outside), (m, 1))
        pixels[box] = spec.offset + spec.amplitude * np.sin(theta[box[1]] + phi)
    if spec.noise_sigma > 0:    # in place: a * b and a + b round alike in either order
        noise = np.random.default_rng(seed).standard_normal((m, m))
        noise *= spec.noise_sigma
        noise += pixels
        pixels = noise
    return Patch(pixels=pixels, frequency=spec.frequency, phase=spec.phase,
                 label=defect.kind if defect else DEFECT_FREE, patch_id=patch_id)


# ---------------------------------------------------------------------------
# Patch files: plain-text PGM (16 bit) or raw CSV matrices.
#
# The PGM writer formats a patch with one table gather, not one str() per
# sample. Entry v of the table is the text of v (0..65535) as five
# right-aligned digits and a space, padded to 8 bytes read as one uint64,
# with a NUL in place of each leading zero and of the padding. Gathering it at
# the grey levels, turning each line's last space into a newline and deleting
# the NULs gives " ".join(map(str, row)) per line. The table is built on the
# first write, so commands that write no PGM never pay for it.

def check_pgm_range(lo: float, hi: float, prefix: str = "",
                    error: type[DataError] = DataError) -> None:
    """Raise error(prefix + why) unless [lo, hi] is a PGM range: 0 < hi - lo < inf."""
    if not 0 < hi - lo < math.inf:
        raise error(f"{prefix}range {lo!r} {hi!r}, not a finite lo < hi")


def _pgm_range(spec: PatternSpec) -> tuple[float, float]:
    lo = spec.offset - spec.amplitude - 4 * spec.noise_sigma
    hi = spec.offset + spec.amplitude + 4 * spec.noise_sigma
    return lo, hi


@functools.cache
def _decimal_table() -> np.ndarray:
    """Text per grey level 0..65535, NUL where dropped, 8 bytes read as one uint64."""
    # Digit column p (place 10**p) of 0..65535 is runs of 10**p copies of
    # '0'..'9', repeated: no integer division. Each v < 10**p has a leading
    # zero there, except that 0 keeps its units digit.
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    text = np.zeros((65536, 8), dtype=np.uint8)
    for col, place in enumerate((10_000, 1000, 100, 10, 1)):
        period = np.repeat(digits, place)
        text[:, col] = np.tile(period, -(-65536 // period.size))[:65536]
        text[:place, col] = 0
    text[0, 4] = ord("0")
    text[:, 5] = ord(" ")
    table = text.view(np.uint64)[:, 0]
    table.setflags(write=False)     # shared by every later write
    return table


def write_patch_pgm(patch: Patch, path: str | Path, lo: float, hi: float) -> None:
    """Write a P2 PGM, mapping [lo, hi] linearly onto [0, 65535]."""
    lo, hi = float(lo), float(hi)  # a numpy scalar's repr is not a number
    check_pgm_range(lo, hi, f"{path}: ")    # one its reader takes
    grey = patch.pixels - lo        # then in place, in the same order
    grey /= hi - lo
    grey *= 65535.0
    np.rint(grey, out=grey)
    if np.isnan(grey).any():
        raise DataError(f"{path}: pixels do not map onto 0..65535 with range "
                        f"{lo!r} {hi!r}")
    np.clip(grey, 0, 65535, out=grey)
    m = patch.side
    text = _decimal_table()[grey.astype(np.intp)].view(np.uint8).reshape(m, m, 8)
    del grey                        # 134 MB at m = 4095, not held through the write
    text[:, -1, 5] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(f"P2\n# range {lo!r} {hi!r}\n{m} {m}\n65535\n".encode())
        fh.write(text.tobytes().translate(None, b"\0"))


def read_patch_pgm(path: str | Path) -> tuple[np.ndarray, float, float]:
    """Read a P2 PGM written by write_patch_pgm; returns (pixels, lo, hi).

    A line starting with '#' is a comment wherever it stands; the last
    '# range lo hi' gives the range. Every sample is read as int() reads it,
    in one numpy conversion for the whole file.
    """
    # Line ends as universal newlines read them: \r\n and \r become \n, and
    # only \n ends a line (str.splitlines would also end one at \x85 or \u2028).
    text = read_utf8(path)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    body, bounds = [], None
    for line in text.split("\n"):
        if not line.startswith("#"):
            body.append(line)
            continue
        parts = line.split()
        if len(parts) == 4 and parts[1] == "range":
            bounds = parts[2:]
    tokens = "\n".join(body).split()
    if not tokens or tokens[0] != "P2":
        raise DataError(f"{path}: not a P2 PGM file")
    if bounds is None:
        raise DataError(f"{path}: missing '# range lo hi' comment")
    try:
        lo, hi = float(bounds[0]), float(bounds[1])
    except ValueError as exc:
        raise DataError(f"{path}: malformed range comment {' '.join(bounds)!r}") from exc
    check_pgm_range(lo, hi, f"{path}: ")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        if width < 1 or height < 1 or not 0 < maxval <= 65535:
            raise DataError(f"{path}: bad PGM header {width} {height} {maxval}")
        grey = np.array(tokens[4:], dtype=np.int64)    # int() per token, in C
    except IndexError as exc:
        raise DataError(f"{path}: truncated PGM header") from exc
    except ValueError as exc:
        raise DataError(f"{path}: non-integer PGM token ({exc})") from exc
    except OverflowError as exc:                       # a sample outside int64
        raise DataError(f"{path}: samples outside 0..{maxval}") from exc
    if grey.size != width * height:
        raise DataError(f"{path}: expected {width * height} samples, got {grey.size}")
    if grey.min() < 0 or grey.max() > maxval:
        raise DataError(f"{path}: samples outside 0..{maxval}")
    pixels = lo + grey.reshape(height, width) / maxval * (hi - lo)
    return pixels, lo, hi


def write_patch_csv(patch: Patch, path: str | Path) -> None:
    rows = patch.pixels.astype(float, copy=False).tolist()
    write_csv_rows(path, (map(repr, row) for row in rows))


def read_patch_csv(path: str | Path) -> np.ndarray:
    rows: list[list[float]] = []
    for line, row in csv_rows(path):
        if not row:
            continue
        where = f"{path}:{line}"
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
# Patch origins are drawn with rng.integers, which holds int64 values.
_MAX_PATTERN_WIDTH = 2**63 - 1
# Largest patch side: rendering and the PGM writer hold several m x m arrays
# of 8-byte values at once, 134 MB each at m = 4095, and generate_dataset
# renders the next patch while the writer thread writes the last one, so a
# dataset of m = 4095 patches peaks at about 0.8 GB (0.55 GB for one patch). A
# larger m is refused before numpy fails to allocate.
MAX_PATCH_SIDE = 4095


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
    format: str = "pgm"

    def channel_spec(self, f: float, psi: float) -> PatternSpec:
        """Resolve the pattern spec for one channel, applying auto defaults."""
        q = q_for_frequency(f)
        width = self.pattern_width
        if width is None:
            width = f * self.m / _AUTO_CYCLES[q]
            if not width <= _MAX_PATTERN_WIDTH:
                raise ConfigError(f"f={f!r} gives auto pattern_width {width!r} > 2**63 - 1")
            width = max(round(width), self.m)
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
        if not MIN_PATCH_SIDE <= self.m <= MAX_PATCH_SIDE or self.m % 2 == 0:
            raise ConfigError(f"m must be odd and in [{MIN_PATCH_SIDE}, "
                              f"{MAX_PATCH_SIDE}], got {self.m}")
        if (self.pattern_width is not None
                and not self.m <= self.pattern_width <= _MAX_PATTERN_WIDTH):
            raise ConfigError("pattern_width must be >= m and <= 2**63 - 1")
        if min(self.count_defect_free, self.count_dirt, self.count_crater) < 0:
            raise ConfigError("class counts must be >= 0")
        if not self.frequencies or not self.phases:
            raise ConfigError("need at least one frequency and one phase")
        if not 0 <= self.center_jitter < math.inf:
            raise ConfigError(f"center_jitter must be in [0, inf), got {self.center_jitter}")
        for name in ("crater_radius", "crater_strength", "dirt_radius",
                     "dirt_strength"):
            bounds = getattr(self, name)
            if bounds is None:
                continue
            lo, hi = bounds
            if not 0 < lo <= hi < math.inf:
                raise ConfigError(f"{name} must satisfy 0 < lo <= hi < inf")
            if name.endswith("radius") and not _MIN_RADIUS <= lo <= hi <= _MAX_RADIUS:
                raise ConfigError(f"{name} must lie in [{_MIN_RADIUS}, {_MAX_RADIUS}], "
                                  f"got {bounds}")
        if self.format not in ("pgm", "csv"):
            raise ConfigError(f"file format must be pgm or csv, got {self.format}")
        for f in self.frequencies:
            for psi in self.phases:
                check_channel(f, psi, error=ConfigError)
                spec = self.channel_spec(f, psi)
                spec.validate()
                width = spec.pattern_width
                top = 2.0 * math.pi * f * (width - 1) / width + psi  # render_patch's order
                # a defect adds at most its strength (1% over: room for the
                # crater's sampled peak) to the phase render_patch takes the sine of
                reach = max(abs(psi), abs(top)) + 1.01 * max(self.crater_strength[1],
                                                             self.dirt_strength[1])
                if not math.isfinite(reach):
                    raise ConfigError(f"f={f!r}, phase {psi!r}, pattern_width {width!r} "
                                      f"and the defect strengths give the non-finite "
                                      f"phase {reach!r}")


_PHASE_TOKENS = {"0": 0.0, "pi/2": math.pi / 2, "pi": math.pi,
                 "3pi/2": 3 * math.pi / 2}


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _phases(text: str) -> tuple[float, ...]:
    return tuple(float(_PHASE_TOKENS.get(v.strip(), v)) for v in text.split(","))


def _pair(text: str) -> tuple[float, float]:
    lo, hi = _floats(text)
    return lo, hi


def _or_auto(parse: Callable[[str], object]) -> Callable[[str], object]:
    """parse, except that 'auto' is None: the per-channel default."""
    return lambda text: None if text == "auto" else parse(text)


# Config key -> parser of its value text; each key names a GenerationConfig field.
GENERATION_KEYS: dict[str, Callable[[str], object]] = {
    "m": int, "pattern_width": _or_auto(int), "offset": float,
    "amplitude": float, "noise_sigma": _or_auto(float), "frequencies": _floats,
    "phases": _phases, "count_defect_free": int, "count_dirt": int,
    "count_crater": int, "crater_radius": _pair, "crater_strength": _pair,
    "dirt_radius": _or_auto(_pair), "dirt_strength": _pair,
    "center_jitter": float, "format": str,
}


def generation_config(values: dict[str, tuple[str, str]]) -> GenerationConfig:
    """Apply parse_key_values output to the defaults, then validate once."""
    cfg = GenerationConfig(**typed_values(values, GENERATION_KEYS))
    cfg.validate()
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


# generate_dataset renders on the calling thread and writes patch files on one
# writer thread: creating and writing a file and the PGM writer's numpy passes
# run without the GIL, so the next patch renders meanwhile, though the
# writer's bytes.translate holds it. At most _HANDOFF rendered patches wait
# for the writer, which bounds the memory this adds.
_HANDOFF = 1


def _write_behind(writes: Iterable[Callable[[], None]]) -> None:
    """Call each write of writes, in order, on one writer thread while this
    thread makes the next one.

    The first failure in write order is raised here, as a serial loop would
    raise it: a failed write stops the iteration at its next step, no later
    write runs, and a write failure wins over a failure of the iteration
    that comes after it. The writer thread is joined on every exit.
    """
    import queue    # extract imports synth too, but writes no patch file

    handoff: queue.Queue = queue.Queue(maxsize=_HANDOFF)
    failed: list[BaseException] = []

    def drain() -> None:
        while (write := handoff.get()) is not None:
            if not failed:
                try:
                    write()
                except BaseException as exc:    # raised again on the calling thread
                    failed.append(exc)

    writer = threading.Thread(target=drain, name="edfdetect-patch-writer")
    writer.start()
    try:
        for write in writes:
            handoff.put(write)
            if failed:
                break
    finally:
        handoff.put(None)
        writer.join()
        if failed:
            raise failed[0]


def generate_dataset(cfg: GenerationConfig, seed: int, out_dir: str | Path) -> Path:
    """Render the configured dataset into out_dir and write manifest.csv.

    Every patch gets a seed derived from (seed, patch index), so the output
    is byte-identical across repeated runs with the same arguments. Patch
    files are written in patch order on one background thread; the first
    failure is raised here, after which the patch files before it are on
    disk and no manifest is written.
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

    def writes():
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
                        defect = (None if label == DEFECT_FREE
                                  else _sample_defect(label, cfg, f, rng))
                        patch = render_patch(spec, cfg.m, origin, noise_seed, patch_id,
                                             defect)
                        fname = f"patches/{patch_id}.{cfg.format}"
                        rows.append([
                            patch_id, fname, label, repr(float(f)), repr(float(psi)), cfg.m,
                            defect.kind if defect else "",
                            repr(defect.center[0]) if defect else "",
                            repr(defect.center[1]) if defect else "",
                            repr(defect.radius) if defect else "",
                            repr(defect.strength) if defect else "",
                            origin, noise_seed,
                        ])
                        index += 1
                        if cfg.format == "pgm":
                            yield functools.partial(write_patch_pgm, patch, out / fname,
                                                    lo, hi)
                        else:
                            yield functools.partial(write_patch_csv, patch, out / fname)

    _write_behind(writes())
    write_csv_rows(out / "manifest.csv", [_MANIFEST_COLUMNS] + rows)
    return out / "manifest.csv"


def load_dataset(manifest_path: str | Path, transpose: bool = False) -> list[Patch]:
    """Load all patches listed in a manifest written by generate_dataset."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    patches: list[Patch] = []
    rows = csv_rows(manifest_path)
    _, header = next(rows, (0, None))
    if header is None or "patch_id" not in header:
        raise DataError(f"{manifest_path}: not a manifest CSV")
    missing = [c for c in ("file", "label", "f", "psi") if c not in header]
    if missing:
        raise DataError(f"{manifest_path}: manifest lacks column(s) {missing}")
    for line, values in rows:
        if not values:
            continue
        where = f"{manifest_path}:{line}"
        if len(values) != len(header):
            raise DataError(f"{where}: expected {len(header)} fields, got {len(values)}")
        row = dict(zip(header, values))
        try:
            path = base / row["file"]
            frequency, phase = float(row["f"]), float(row["psi"])
            side = int(row["m"]) if row.get("m") else None
        except ValueError as exc:
            raise DataError(f"{where}: malformed manifest row ({exc})") from exc
        check_channel(frequency, phase, f"{where}: ")
        if "\0" in row["file"]:
            raise DataError(f"{where}: file name {row['file']!r} holds a NUL byte")
        if path.suffix == ".pgm":
            pixels, _, _ = read_patch_pgm(path)
        else:
            pixels = read_patch_csv(path)
        if side is not None and pixels.shape != (side, side):
            raise DataError(f"{where}: {path} holds {pixels.shape[0]}x{pixels.shape[1]} "
                            f"pixels, not m={side}")
        if transpose:
            pixels = pixels.T
        patches.append(Patch(
            pixels=pixels, frequency=frequency, phase=phase,
            label=row["label"] or None, patch_id=row["patch_id"]))
    return patches
