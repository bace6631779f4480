"""Fringe rendering, defect injection, and dataset generation."""

import csv
import hashlib
import io
import math
import re
import sys
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import edfdetect.synth as synth
from edfdetect.errors import ConfigError, DataError
from edfdetect.features import q_for_frequency, read_utf8, standardize_patch
from edfdetect.splinefit import build_spline_model, select_lambda
from edfdetect.synth import (CRATER, DIRT, GENERATION_KEYS, DefectSpec,
                             GenerationConfig, PatternSpec, _decimal_table,
                             _pgm_range,
                             generate_dataset, generation_config,
                             load_dataset, parse_key_values, phase_field,
                             read_patch_csv, read_patch_pgm, render_patch,
                             write_patch_csv, write_patch_pgm)


def test_render_matches_stated_formula():
    spec = PatternSpec(offset=0.5, amplitude=0.5, frequency=8.0, phase=0.0,
                       pattern_width=91, noise_sigma=0.0)
    patch = render_patch(spec, 91, origin_col=0)
    c = np.arange(91)
    expected = 0.5 + 0.5 * np.sin(2 * np.pi * 8.0 * c / 91)
    for r in range(91):
        np.testing.assert_allclose(patch.pixels[r], expected, atol=1e-15)


def test_phase_pi_flips_sign_about_offset():
    base = PatternSpec(frequency=8.0, phase=0.0, pattern_width=364, noise_sigma=0.0)
    flipped = replace(base, phase=math.pi)
    p0 = render_patch(base, 91, origin_col=10)
    p1 = render_patch(flipped, 91, origin_col=10)
    np.testing.assert_allclose(p1.pixels - 0.5, -(p0.pixels - 0.5), atol=1e-12)


def test_frequency_scales_zero_crossings():
    def crossings(f):
        spec = PatternSpec(frequency=f, phase=0.0, pattern_width=728, noise_sigma=0.0)
        row = render_patch(spec, 91, origin_col=0).pixels[0] - 0.5
        return int(np.sum(np.diff(np.sign(row)) != 0))

    assert crossings(64.0) == 8 * crossings(8.0)


def test_rows_identical_without_noise():
    spec = PatternSpec(frequency=16.0, phase=1.0, pattern_width=500, noise_sigma=0.0)
    patch = render_patch(spec, 51, origin_col=100)
    assert np.all(patch.pixels == patch.pixels[0])


def test_pattern_periodicity():
    spec = PatternSpec(frequency=8.0, phase=0.3, pattern_width=728, noise_sigma=0.0)
    patch = render_patch(spec, 91, origin_col=0)
    period = 728 // 8  # = 91: column c and c + period match where both exist
    assert period == 91
    wide = PatternSpec(frequency=8.0, phase=0.3, pattern_width=248, noise_sigma=0.0)
    p2 = render_patch(wide, 91, origin_col=0)
    step = 248 // 8
    np.testing.assert_allclose(p2.pixels[0, :91 - step], p2.pixels[0, step:],
                               atol=1e-12)


def test_intensity_range_without_noise():
    spec = PatternSpec(offset=0.4, amplitude=0.3, frequency=32.0,
                       pattern_width=364, noise_sigma=0.0)
    patch = render_patch(spec, 91, origin_col=5)
    assert patch.pixels.min() >= 0.4 - 0.3 - 1e-12
    assert patch.pixels.max() <= 0.4 + 0.3 + 1e-12


def test_patch_exceeding_pattern_width_rejected():
    spec = PatternSpec(pattern_width=100)
    with pytest.raises(DataError):
        render_patch(spec, 91, origin_col=20)


def test_zero_strength_defect_is_bit_identical():
    spec = PatternSpec(frequency=16.0, phase=math.pi, pattern_width=485,
                       noise_sigma=0.06)
    clean = render_patch(spec, 91, origin_col=30, seed=99)
    injected = render_patch(spec, 91, origin_col=30, seed=99,
                            defect=DefectSpec(CRATER, (45.0, 45.0), 10.0, 0.0))
    assert np.array_equal(clean.pixels, injected.pixels)


def test_defect_locality():
    # crater radius 10 at the centre: the mid row deviates only within the
    # radius, and nothing changes outside the support disk
    spec = PatternSpec(frequency=16.0, phase=math.pi, pattern_width=485,
                       noise_sigma=0.0)
    clean = render_patch(spec, 91, origin_col=30, seed=1)
    crater = DefectSpec(CRATER, (45.0, 45.0), radius=10.0, strength=1.0)
    distorted = render_patch(spec, 91, origin_col=30, seed=1, defect=crater)
    diff = np.abs(distorted.pixels - clean.pixels)
    mid = diff[45]
    cols = np.arange(91)
    assert np.all(mid[np.abs(cols - 45) >= 10] == 0.0)
    assert mid[np.abs(cols - 45) < 10].max() > 0.0
    rows = np.arange(91)[:, None]
    outside = np.hypot(rows - 45.0, cols[None, :] - 45.0) >= crater.support_radius
    assert np.all(diff[outside] == 0.0)


def test_defect_row_edf_gap_at_default_strength():
    # calibrated in docs/calibration.md: craters at the default strength lift
    # the centre-row EDF well clear of the clean row
    cfg = GenerationConfig()
    spec = cfg.channel_spec(16.0, math.pi)
    clean = render_patch(spec, 91, origin_col=30, seed=5)
    strength = sum(cfg.crater_strength) / 2
    crater = DefectSpec(CRATER, (45.0, 45.0), radius=10.0, strength=strength)
    model = build_spline_model(91, q_for_frequency(16.0))

    def centre_row_edf(patch):
        return select_lambda(model, standardize_patch(patch).pixels[45]).edf

    crater_patch = render_patch(spec, 91, origin_col=30, seed=5, defect=crater)
    gap = centre_row_edf(crater_patch) - centre_row_edf(clean)
    assert gap >= 2.0


def test_crater_phase_profile_shape():
    d = DefectSpec(CRATER, (45.0, 45.0), radius=12.0, strength=2.0)
    phi = phase_field(d, 91)
    assert phi[45, 45] == 0.0
    assert abs(np.abs(phi).max() - 2.0) <= 1e-6
    peak_dist = np.hypot(*(np.unravel_index(np.argmax(np.abs(phi)), phi.shape)
                           - np.array([45.0, 45.0])))
    assert 0.3 * 12 <= peak_dist <= 0.7 * 12
    cols = np.arange(91)
    dist = np.hypot(np.arange(91)[:, None] - 45.0, cols[None, :] - 45.0)
    assert np.all(phi[dist >= 12.0] == 0.0)


def test_dirt_phase_profile_shape():
    d = DefectSpec(DIRT, (45.0, 45.0), radius=6.0, strength=1.5)
    phi = phase_field(d, 91)
    assert abs(phi[45, 45] - 1.5) <= 1e-12
    assert np.abs(phi).max() == phi[45, 45]
    dist = np.hypot(np.arange(91)[:, None] - 45.0, np.arange(91)[None, :] - 45.0)
    assert np.all(phi[dist >= 2.5 * 6.0] == 0.0)


def test_defect_center_outside_patch_rejected():
    with pytest.raises(DataError):
        phase_field(DefectSpec(CRATER, (100.0, 45.0), 5.0, 1.0), 91)
    with pytest.raises(ConfigError):
        phase_field(DefectSpec("scratch", (45.0, 45.0), 5.0, 1.0), 91)


@pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan, 1e-200, 1e200])
def test_defect_radius_must_be_positive_and_finite(radius):
    with pytest.raises(ConfigError, match="radius must be positive and finite"):
        phase_field(DefectSpec(DIRT, (45.0, 45.0), radius, 1.0), 91)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["offset", "amplitude", "frequency", "phase",
                                  "noise_sigma"])
def test_render_patch_refuses_a_non_finite_pattern_value(name, value):
    spec = replace(PatternSpec(pattern_width=91), **{name: value})
    with pytest.raises(ConfigError):
        render_patch(spec, 31)


@pytest.mark.parametrize("strength", [math.nan, math.inf, -1.0])
def test_render_patch_refuses_a_defect_strength_outside_zero_to_inf(strength):
    defect = DefectSpec(DIRT, (15.0, 15.0), 3.0, strength)
    with pytest.raises(ConfigError, match="defect strength must be in"):
        render_patch(PatternSpec(pattern_width=91), 31, defect=defect)


def _first_written_phase_field(defect, m):
    """The first phase_field, over the whole grid: the oracle for the support box."""
    defect.validate(m)
    rows = np.arange(m, dtype=float)[:, None]
    cols = np.arange(m, dtype=float)[None, :]
    d = np.hypot(rows - defect.center[0], cols - defect.center[1])
    if defect.kind == CRATER:
        s1 = synth._CRATER_SIGMA_SCALE * defect.radius
        s2 = s1 / 2.0
        taper_start = synth._CRATER_TAPER_START * defect.radius
        ring = np.exp(-d**2 / (2 * s1**2)) - np.exp(-d**2 / (2 * s2**2))
        ring *= synth._cos_taper(d, taper_start, defect.radius)
        ring[d >= defect.support_radius] = 0.0
        dd = np.linspace(0.0, defect.radius, 2001)
        gg = np.exp(-dd**2 / (2 * s1**2)) - np.exp(-dd**2 / (2 * s2**2))
        gg *= synth._cos_taper(dd, taper_start, defect.radius)
        return -defect.strength * ring / gg.max()
    bump = np.exp(-d**2 / (2 * (defect.radius / 2.0)**2))
    bump *= synth._cos_taper(d, synth._DIRT_TAPER_START_R * defect.radius,
                             synth._DIRT_TAPER_END_R * defect.radius)
    bump[d >= defect.support_radius] = 0.0
    return defect.strength * bump


def _first_written_render(spec, m, origin_col, seed, defect):
    """The first render_patch pixels, out of place on the full-grid phase."""
    cols = origin_col + np.arange(m, dtype=float)
    theta = 2.0 * np.pi * spec.frequency * cols / spec.pattern_width + spec.phase
    phi = _first_written_phase_field(defect, m)
    pixels = spec.offset + spec.amplitude * np.sin(theta[None, :] + phi)
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(seed)
        pixels = pixels + spec.noise_sigma * rng.standard_normal((m, m))
    return pixels


@st.composite
def _defects(draw):
    """(m, defect): any center in [0, m), radii over the configurable range."""
    m = draw(st.sampled_from([31, 91, 301]))
    center = st.one_of(st.sampled_from([0.0, 0.5, m / 2, m - 1.0, math.nextafter(m, 0)]),
                       st.floats(0.0, m, exclude_max=True))
    radius = st.one_of(st.sampled_from([1e-100, 0.3, 1.0, 2.0, 2.0 * m, 1e100]),
                       st.floats(-100.0, 100.0).map(lambda e: 10.0**e),
                       st.floats(0.1, 1.5 * m))
    return m, DefectSpec(kind=draw(st.sampled_from([CRATER, DIRT])),
                         center=(draw(center), draw(center)), radius=draw(radius),
                         strength=draw(st.sampled_from([0.0, 1.0, 3.5]) | st.floats(0.0, 5.0)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_defects(), frequency=st.sampled_from([8.0, 64.0]),
       phase=st.sampled_from([0.0, math.pi / 2, math.pi]),
       noise_sigma=st.sampled_from([0.0, 0.005, 0.1]), seed=st.integers(0, 2**32))
def test_phase_field_and_render_match_first_written_full_grid(case, frequency, phase,
                                                              noise_sigma, seed):
    m, defect = case
    # tobytes so that -0.0 and 0.0 differ
    assert phase_field(defect, m).tobytes() == _first_written_phase_field(defect, m).tobytes()
    spec = PatternSpec(frequency=frequency, phase=phase, pattern_width=3 * m,
                       noise_sigma=noise_sigma)
    got = render_patch(spec, m, origin_col=m // 2, seed=seed, defect=defect).pixels
    want = _first_written_render(spec, m, m // 2, seed, defect)
    assert got.tobytes() == want.tobytes()


def test_pgm_round_trip(tmp_path):
    spec = PatternSpec(frequency=8.0, pattern_width=364, noise_sigma=0.01)
    patch = render_patch(spec, 31, origin_col=3, seed=11)
    lo, hi = 0.5 - 0.5 - 0.04, 0.5 + 0.5 + 0.04
    path = tmp_path / "p.pgm"
    write_patch_pgm(patch, path, lo, hi)
    pixels, got_lo, got_hi = read_patch_pgm(path)
    assert (got_lo, got_hi) == (lo, hi)
    assert pixels.shape == (31, 31)
    assert np.abs(pixels - patch.pixels).max() <= (hi - lo) / 65535


def test_pgm_round_trip_of_a_numpy_scalar_range(tmp_path):
    # repr(np.float64(0.0)) is 'np.float64(0.0)', which the reader rejects
    patch = render_patch(PatternSpec(frequency=8.0, pattern_width=364), 31, origin_col=3,
                         seed=11)
    new, plain = tmp_path / "new.pgm", tmp_path / "plain.pgm"
    write_patch_pgm(patch, new, np.float64(-0.04), np.float64(1.04))
    write_patch_pgm(patch, plain, -0.04, 1.04)
    assert new.read_bytes() == plain.read_bytes()
    pixels, lo, hi = read_patch_pgm(new)
    assert (lo, hi) == (-0.04, 1.04)
    np.testing.assert_array_equal(pixels, read_patch_pgm(plain)[0])


def _first_written_pgm(patch, path, lo, hi):
    """The first P2 writer, one str() per sample: the oracle for the table writer."""
    grey = np.rint((patch.pixels - lo) / (hi - lo) * 65535.0)
    grey = np.clip(grey, 0, 65535).astype(np.int64)
    m = patch.side
    with open(path, "w") as fh:
        fh.write(f"P2\n# range {lo!r} {hi!r}\n{m} {m}\n65535\n")
        fh.write("\n".join(" ".join(map(str, row)) for row in grey))
        fh.write("\n")


@pytest.mark.parametrize("case", ["rendered", "clipped", "digit-widths"])
@pytest.mark.parametrize("m", [31, 91])
def test_pgm_writer_matches_first_written_oracle(tmp_path, m, case):
    spec = PatternSpec(frequency=8.0, pattern_width=364, noise_sigma=0.05)
    patch = render_patch(spec, m, origin_col=7, seed=m)
    lo, hi = _pgm_range(spec)
    if case == "clipped":
        lo, hi = 0.25, 0.75          # the sinusoid runs past both ends
    elif case == "digit-widths":
        levels = np.geomspace(1.0, 65535.0, m * m).reshape(m, m)
        patch = replace(patch, pixels=lo + levels / 65535.0 * (hi - lo))
    new, old = tmp_path / "new.pgm", tmp_path / "old.pgm"
    write_patch_pgm(patch, new, lo, hi)
    _first_written_pgm(patch, old, lo, hi)
    assert new.read_bytes() == old.read_bytes()
    samples = old.read_text().split()[8:]
    assert len(samples) == m * m
    if case == "clipped":
        assert {"0", "65535"} <= set(samples)
    elif case == "digit-widths":
        assert {len(s) for s in samples} == {1, 2, 3, 4, 5}


def test_decimal_table_matches_first_written_division_oracle():
    # The first table: digits by integer division, widths by comparison, and
    # a keep-mask beside it. The one table is its text with a 0 in every
    # byte the mask dropped.
    values = np.arange(65536)
    text = np.zeros((65536, 8), dtype=np.uint8)
    text[:, :5] = values[:, None] // 10 ** np.arange(4, -1, -1) % 10 + ord("0")
    text[:, 5] = ord(" ")
    width = 1 + sum(values >= 10**k for k in range(1, 5))
    keep = np.zeros((65536, 8), dtype=bool)
    keep[:, :5] = np.arange(5) >= 5 - width[:, None]
    keep[:, 5] = True
    got = _decimal_table()
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, np.where(keep, text, 0).view(np.uint64)[:, 0])


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_pgm_writer_rejects_pixels_without_grey_level(tmp_path):
    patch = render_patch(PatternSpec(pattern_width=364), 31)
    path = tmp_path / "p.pgm"
    # each range is one read_patch_pgm refuses
    for lo, hi in [(-math.inf, math.inf), (0.5, 0.5), (1.0, 0.0), (0.0, math.inf),
                   (-1e308, 1e308)]:
        with pytest.raises(DataError, match=re.escape(str(path))):
            write_patch_pgm(patch, path, lo, hi)
        assert not path.exists()
    bad = replace(patch, pixels=np.where(patch.pixels > 0.9, np.nan, patch.pixels))
    with pytest.raises(DataError, match=re.escape(str(path))):
        write_patch_pgm(bad, path, 0.0, 1.0)
    assert not path.exists()


def test_patch_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    patch = render_patch(PatternSpec(pattern_width=364, noise_sigma=0.0),
                         31, origin_col=0)
    path = tmp_path / "p.csv"
    write_patch_csv(patch, path)
    np.testing.assert_array_equal(read_patch_csv(path), patch.pixels)


def _first_written_csv(patch, path):
    """The first CSV writer, one repr(float(v)) per numpy scalar."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in patch.pixels:
            writer.writerow([repr(float(v)) for v in row])


def test_patch_csv_writer_matches_first_written_oracle(tmp_path):
    patch = render_patch(PatternSpec(pattern_width=364, noise_sigma=0.05), 31,
                         origin_col=5, seed=3,
                         defect=DefectSpec(DIRT, (15.0, 15.0), 4.0, 2.0))
    pixels = patch.pixels.copy()
    pixels[0, :4] = [-0.0, 5e-324, 1e-300, 1e300]
    for case in (patch, replace(patch, pixels=pixels),
                 replace(patch, pixels=patch.pixels.astype(np.float32))):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_patch_csv(case, new)
        _first_written_csv(case, old)
        assert new.read_bytes() == old.read_bytes()
        if case.pixels is pixels:
            assert old.read_text().startswith("-0.0,5e-324,1e-300,1e+300,")


def small_config(**overrides):
    cfg = GenerationConfig(m=31, count_defect_free=8, count_dirt=4,
                           count_crater=2, frequencies=(8.0,),
                           phases=(math.pi,))
    for key, val in overrides.items():
        setattr(cfg, key, val)
    return cfg


def test_generate_dataset_counts_and_manifest(tmp_path):
    manifest = generate_dataset(small_config(), seed=5, out_dir=tmp_path / "ds")
    patches = load_dataset(manifest)
    labels = [p.label for p in patches]
    assert labels.count("defect_free") == 8
    assert labels.count("dirt") == 4
    assert labels.count("crater") == 2
    assert len({p.patch_id for p in patches}) == 14
    assert all(p.side == 31 for p in patches)


def test_generate_dataset_byte_identical(tmp_path):
    cfg = small_config()
    m1 = generate_dataset(cfg, seed=9, out_dir=tmp_path / "a")
    m2 = generate_dataset(cfg, seed=9, out_dir=tmp_path / "b")
    assert m1.read_bytes() == m2.read_bytes()
    for child in sorted((tmp_path / "a" / "patches").iterdir()):
        twin = tmp_path / "b" / "patches" / child.name
        assert child.read_bytes() == twin.read_bytes()


def test_generate_dataset_matches_pinned_digest(tmp_path):
    # sha256 of the manifest, then each patch file's name and bytes in name
    # order, taken with the str()-per-sample writer (numpy 2.4, x86-64). Any
    # change to rendering, seeding or the PGM text changes it; so does a
    # numpy whose sin rounds differently.
    cfg = small_config(count_defect_free=4, count_dirt=3, count_crater=2,
                       phases=(0.0, math.pi))
    manifest = generate_dataset(cfg, seed=2024, out_dir=tmp_path / "ds")
    digest = hashlib.sha256(manifest.read_bytes())
    paths = sorted((tmp_path / "ds" / "patches").iterdir())
    for path in paths:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    assert len(paths) == 18
    assert digest.hexdigest() == (
        "ff993d2b9617446a553541e4c0a235b81efc09a31fa01b7053dc37b36c2ee407")


def _dataset_digest(ds):
    """sha256 of the manifest, then each patch file's name and bytes in name order."""
    digest = hashlib.sha256((ds / "manifest.csv").read_bytes())
    for path in sorted((ds / "patches").iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# numpy's AVX-512 exp loop (x86-64) rounds differently from libm at some
# inputs, this one among them; its other exp loops call libm.
_EXP_PROBE = -4.6


def _exp_rounds_as_libm() -> bool:
    return np.exp(np.array([_EXP_PROBE]))[0] == math.exp(_EXP_PROBE)


@pytest.mark.parametrize("m, fmt, counts, expected", [
    # centers stay within 40 of the middle, so every box lies inside the patch
    (301, "pgm", (2, 3, 3), dict.fromkeys(
        (True, False), "b70739e1bedc592cd18667feca0c8b7cf7145d0012532c9162d58c3f7f7382d0")),
    # centers reach 1..29 here, so 7 of the 10 dirt supports cross the edge
    (31, "csv", (1, 10, 6), {
        True: "094fab6ed931bfcf009d421a333b29f0460569a83aae594e4561d7ea78f83bda",
        False: "489377cd3803dd12235df05917225741a83c4703ebbce9e6490d0a650edd2845"}),
], ids=["m301-pgm", "m31-csv"])
def test_generate_dataset_of_small_jittered_defects_matches_pinned_digest(
        tmp_path, m, fmt, counts, expected):
    # Taken at commit d720c29, whose phase_field evaluated the whole grid
    # (numpy 2.4, x86-64): the support box must not change a byte, also
    # where it is clipped at the patch edge. Each digest is keyed on whether
    # np.exp rounds as libm does: a CSV patch writes every float's full repr,
    # so the ulps of the AVX-512 exp show there, while the 16-bit grey levels
    # of a PGM hide them. The libm digests were taken with numpy's AVX-512
    # loops off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR").
    cfg = GenerationConfig(m=m, count_defect_free=counts[0], count_dirt=counts[1],
                           count_crater=counts[2], frequencies=(8.0,), phases=(math.pi,),
                           center_jitter=40.0, crater_radius=(1.0, 2.0),
                           dirt_radius=(1.0, 2.0), format=fmt)
    generate_dataset(cfg, seed=10, out_dir=tmp_path / "ds")
    assert _dataset_digest(tmp_path / "ds") == expected[_exp_rounds_as_libm()]


def test_generate_dataset_of_numpy_scalar_channels_loads_back(tmp_path):
    # repr(np.float64(8.0)) is 'np.float64(8.0)', which load_dataset rejects
    numpy_cfg = small_config(frequencies=(np.float64(8.0),), phases=(np.float64(math.pi),))
    manifest = generate_dataset(numpy_cfg, seed=9, out_dir=tmp_path / "np")
    plain = generate_dataset(small_config(), seed=9, out_dir=tmp_path / "plain")
    assert manifest.read_bytes() == plain.read_bytes()
    assert {(p.frequency, p.phase) for p in load_dataset(manifest)} == {(8.0, math.pi)}


def test_generate_dataset_zero_count_class_absent(tmp_path):
    cfg = small_config(count_crater=0)
    manifest = generate_dataset(cfg, seed=5, out_dir=tmp_path / "ds")
    labels = {p.label for p in load_dataset(manifest)}
    assert labels == {"defect_free", "dirt"}


def test_generate_dataset_csv_format(tmp_path):
    cfg = small_config(format="csv")
    manifest = generate_dataset(cfg, seed=5, out_dir=tmp_path / "ds")
    patches = load_dataset(manifest)
    assert len(patches) == 14


def _patch_names(count, suffix="pgm"):
    return [f"p{i:06d}.{suffix}" for i in range(count)]


def _patch_files(ds):
    """{name: bytes} of every patch file of a dataset, in name order."""
    return {path.name: path.read_bytes() for path in sorted((ds / "patches").iterdir())}


# where the patch file's path is among the arguments of each generate seam
_PATH_ARG = {"_pgm_text": 3, "_write_file": 0}


def _failing_at(k, error, seam):
    """synth's seam, except that patch k raises error in it: no byte of patch k is written."""
    call = getattr(synth, seam)

    def fail(*args):
        if Path(args[_PATH_ARG[seam]]).stem == f"p{k:06d}":
            raise error
        return call(*args)
    return fail


# the PGM text fails on the calling thread, its file write on the writer's
_WRITE_FAILURES = [
    (DataError, "p.pgm: pixels do not map onto 0..65535", "_pgm_text"),
    (OSError, "[Errno 28] No space left on device", "_write_file"),
    (DataError, "p.pgm: written by a refusing disk", "_write_file"),
]


@pytest.mark.parametrize("error_type, message, seam", _WRITE_FAILURES, ids=[
    f"{error_type.__name__}-{message}" for error_type, message, _ in _WRITE_FAILURES])
@pytest.mark.parametrize("k", [0, 6, 13])
def test_generate_dataset_write_failure_leaves_what_serial_generation_leaves(
        tmp_path, monkeypatch, k, error_type, message, seam):
    full = tmp_path / "full"
    generate_dataset(small_config(), seed=5, out_dir=full)
    error = error_type(message)
    renders = []

    def render(*args):
        renders.append(args)
        return render_patch(*args)

    monkeypatch.setattr(synth, seam, _failing_at(k, error, seam))
    monkeypatch.setattr(synth, "render_patch", render)
    threads = threading.active_count()
    ds = tmp_path / "ds"
    with pytest.raises(error_type) as info:
        generate_dataset(small_config(), seed=5, out_dir=ds)
    assert info.value is error and str(info.value) == message
    assert threading.active_count() == threads
    assert not (ds / "manifest.csv").exists()
    written, serial = _patch_files(ds), _patch_files(full)
    assert list(written) == _patch_names(k)
    assert written == {name: serial[name] for name in written}
    # rendering stops once the failure is seen: patch k is with the writer,
    # the hand-off holds the next ones and one more waits to be handed off
    assert len(renders) <= k + synth._HANDOFF + 2


def test_generate_dataset_reports_a_write_failure_before_a_later_render_failure(
        tmp_path, monkeypatch):
    render_failed = threading.Event()
    write_file = synth._write_file

    def write(path, data):
        if Path(path).stem == "p000003":
            render_failed.wait(timeout=60)      # fail after the render of p000004 fails
            raise OSError(5, "Input/output error")
        write_file(path, data)

    def render(spec, m, origin, seed, patch_id, defect):
        if patch_id == "p000004":
            render_failed.set()
            raise DataError("render of p000004 failed")
        return render_patch(spec, m, origin, seed, patch_id, defect)

    monkeypatch.setattr(synth, "_write_file", write)
    monkeypatch.setattr(synth, "render_patch", render)
    threads = threading.active_count()
    ds = tmp_path / "ds"
    with pytest.raises(OSError, match=re.escape("[Errno 5] Input/output error")):
        generate_dataset(small_config(), seed=5, out_dir=ds)
    assert render_failed.is_set()
    assert threading.active_count() == threads
    assert list(_patch_files(ds)) == _patch_names(3)
    assert not (ds / "manifest.csv").exists()


def test_generate_dataset_joins_the_writer_on_keyboard_interrupt(tmp_path, monkeypatch):
    def render(spec, m, origin, seed, patch_id, defect):
        if patch_id == "p000005":
            raise KeyboardInterrupt
        return render_patch(spec, m, origin, seed, patch_id, defect)

    monkeypatch.setattr(synth, "render_patch", render)
    threads = threading.active_count()
    ds = tmp_path / "ds"
    with pytest.raises(KeyboardInterrupt):
        generate_dataset(small_config(), seed=5, out_dir=ds)
    assert threading.active_count() == threads
    assert list(_patch_files(ds)) == _patch_names(5)
    assert not (ds / "manifest.csv").exists()


def test_generate_dataset_keeps_patch_order_when_the_hand_off_fills(tmp_path, monkeypatch):
    csv_cfg = small_config(format="csv")
    plain = tmp_path / "plain"
    generate_dataset(csv_cfg, seed=5, out_dir=plain)
    events = []          # +1 per finished render, -1 per finished write

    def slow(write):
        def wrapped(*args):
            time.sleep(0.01)        # renders of m = 31 take well under 1 ms
            write(*args)
            events.append(-1)
        return wrapped

    def render(*args):
        patch = render_patch(*args)
        events.append(1)
        return patch

    monkeypatch.setattr(synth, "_write_file", slow(synth._write_file))
    monkeypatch.setattr(synth, "write_patch_csv", slow(write_patch_csv))
    monkeypatch.setattr(synth, "render_patch", render)
    test_generate_dataset_matches_pinned_digest(tmp_path / "pinned")
    # one patch being written, a full hand-off and one rendered patch waiting
    assert max(np.cumsum(events)) == synth._HANDOFF + 2
    events.clear()
    slowed = tmp_path / "slowed"
    generate_dataset(csv_cfg, seed=5, out_dir=slowed)
    assert max(np.cumsum(events)) == synth._HANDOFF + 2
    assert (slowed / "manifest.csv").read_bytes() == (plain / "manifest.csv").read_bytes()
    assert list(_patch_files(slowed)) == _patch_names(14, "csv")
    assert _patch_files(slowed) == _patch_files(plain)


@pytest.fixture
def dense_thread_switches():
    """Switch threads every microsecond, not every 5 ms, for one test."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("test, params", [
    *(pytest.param(test_generate_dataset_write_failure_leaves_what_serial_generation_leaves,
                   dict(k=k, error_type=error_type, message=message, seam=seam),
                   id=f"write-failure-{k}-{error_type.__name__}-{seam}")
      for k in (0, 6, 13) for error_type, message, seam in _WRITE_FAILURES),
    pytest.param(test_generate_dataset_reports_a_write_failure_before_a_later_render_failure,
                 {}, id="write-failure-before-render-failure"),
    pytest.param(test_generate_dataset_joins_the_writer_on_keyboard_interrupt, {},
                 id="keyboard-interrupt"),
    pytest.param(test_generate_dataset_keeps_patch_order_when_the_hand_off_fills, {},
                 id="full-hand-off"),
])
def test_generate_writer_rules_hold_under_dense_thread_switches(
        dense_thread_switches, tmp_path, monkeypatch, test, params):
    # each thread switch point is a chance for the writer and the calling
    # thread to interleave: first failure in patch order, and a join on every exit
    test(tmp_path=tmp_path, monkeypatch=monkeypatch, **params)


def test_generate_dataset_formats_on_the_calling_thread_and_writes_on_one_other(
        tmp_path, monkeypatch):
    formats, writes = [], []

    def on_thread(call, threads):
        def wrapped(*args):
            threads.append(threading.current_thread())
            return call(*args)
        return wrapped

    monkeypatch.setattr(synth, "_pgm_text", on_thread(synth._pgm_text, formats))
    monkeypatch.setattr(synth, "_write_file", on_thread(synth._write_file, writes))
    generate_dataset(small_config(), seed=5, out_dir=tmp_path / "ds")
    assert len(formats) == len(writes) == 14
    assert set(formats) == {threading.current_thread()}
    assert len(set(writes)) == 1 and writes[0] is not threading.current_thread()


def _parse_config(text):
    return generation_config(parse_key_values(text.splitlines(), "gen.cfg"))


def test_config_parsing():
    cfg = _parse_config(
        "m=51\nfrequencies=8,16\nphases=pi,3pi/2\ncount_crater=1\n"
        "crater_strength=1.0,2.0\nnoise_sigma=0.02\n# comment\n")
    assert cfg.m == 51
    assert cfg.frequencies == (8.0, 16.0)
    assert cfg.phases == (math.pi, 3 * math.pi / 2)
    assert cfg.crater_strength == (1.0, 2.0)
    assert cfg.noise_sigma == 0.02


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        _parse_config("unknown_key=1\n")
    with pytest.raises(ConfigError):
        _parse_config("m=not_an_int\n")
    with pytest.raises(ConfigError):
        _parse_config("just a line\n")


def test_config_auto_channel_defaults():
    cfg = GenerationConfig()
    spec8 = cfg.channel_spec(8.0, math.pi)
    spec64 = cfg.channel_spec(64.0, math.pi)
    assert spec8.pattern_width == 364
    assert spec64.pattern_width == 1456
    assert spec8.noise_sigma > spec64.noise_sigma
    assert cfg.dirt_radius_for(8.0)[0] > cfg.dirt_radius_for(64.0)[0]
    cfg2 = _parse_config("pattern_width=500")
    assert cfg2.channel_spec(8.0, 0.0).pattern_width == 500
    cfg3 = _parse_config("pattern_width=auto")
    assert cfg3.channel_spec(8.0, 0.0).pattern_width == 364


def test_generation_keys_are_the_config_fields():
    assert set(GENERATION_KEYS) == {f.name for f in fields(GenerationConfig)}


def test_default_counts_follow_plant_proportions():
    # 13827 / 4234 / 372 at roughly 1/18 scale
    cfg = GenerationConfig()
    assert (cfg.count_defect_free, cfg.count_dirt, cfg.count_crater) == (750, 230, 20)
    total = cfg.count_defect_free + cfg.count_dirt + cfg.count_crater
    assert abs(cfg.count_defect_free / total - 13827 / 18433) < 0.01
    assert abs(cfg.count_dirt / total - 4234 / 18433) < 0.01


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        small_config(m=30).validate()
    with pytest.raises(ConfigError):
        small_config(pattern_width=20).validate()
    with pytest.raises(ConfigError):
        small_config(crater_strength=(2.0, 1.0)).validate()
    with pytest.raises(ConfigError):
        small_config(format="png").validate()


@pytest.mark.parametrize("body", [
    "2 2\n65535\n0 1 x 3\n",   # non-numeric sample
    "2 2\n",                    # header without maxval
    "",                         # header with no sizes
    "2 2\n0\n0 0 0 0\n",       # maxval 0
    "2 2\n-5\n0 0 0 0\n",      # negative maxval
    "2 2\n10\n0 1 2 11\n",     # sample above maxval
    "2 2\n10\n0 -1 2 3\n",     # negative sample
    "2 2\n65535\n0 1 3.5 3\n",  # float sample
    "2 2\n65535\n0 1 2 3 abc\n",  # trailing garbage after the last sample
    "2 2\n65536\n0 0 0 0\n",   # maxval above 16 bits
    "2 2\n65535\n0 1 2 99999999999999999999\n",  # sample outside int64
])
def test_malformed_pgm_is_data_error_naming_path(tmp_path, body):
    path = tmp_path / "bad.pgm"
    path.write_text("P2\n# range 0.0 1.0\n" + body)
    with pytest.raises(DataError, match=re.escape(str(path))):
        read_patch_pgm(path)


def _first_written_pgm_reader(path):
    """The first P2 reader, one int() per token: the oracle for the one-conversion
    reader. One line differs from it: the maxval bound, added with that reader."""
    tokens: list[str] = []
    bounds = None
    for line in io.StringIO(read_utf8(path), newline=None):
        if line.startswith("#"):
            parts = line.split()
            if len(parts) == 4 and parts[1] == "range":
                bounds = parts[2:]
            continue
        tokens.extend(line.split())
    if not tokens or tokens[0] != "P2":
        raise DataError(f"{path}: not a P2 PGM file")
    if bounds is None:
        raise DataError(f"{path}: missing '# range lo hi' comment")
    try:
        lo, hi = float(bounds[0]), float(bounds[1])
    except ValueError as exc:
        raise DataError(f"{path}: malformed range comment {' '.join(bounds)!r}") from exc
    if not 0 < hi - lo < math.inf:
        raise DataError(f"{path}: range {lo!r} {hi!r} is not a finite lo < hi")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        grey = np.array([int(t) for t in tokens[4:]], dtype=float)
    except IndexError as exc:
        raise DataError(f"{path}: truncated PGM header") from exc
    except ValueError as exc:
        raise DataError(f"{path}: non-integer PGM token ({exc})") from exc
    if width < 1 or height < 1 or not 0 < maxval <= 65535:     # was maxval < 1
        raise DataError(f"{path}: bad PGM header {width} {height} {maxval}")
    if grey.size != width * height:
        raise DataError(f"{path}: expected {width * height} samples, got {grey.size}")
    if grey.min() < 0 or grey.max() > maxval:
        raise DataError(f"{path}: samples outside 0..{maxval}")
    pixels = lo + grey.reshape(height, width) / maxval * (hi - lo)
    return pixels, lo, hi


# Spellings int() accepts, non-integers it rejects, and whitespace that splits a
# token but not a line: \x0b, \x0c, \x1c, \x85 and \u2028 end a line for
# str.splitlines, so "0\x85# range ..." would turn into a comment there.
_DIGITS = {"arabic": "٠١٢٣٤٥٦٧٨٩", "fullwidth": "０１２３４５６７８９"}
_SPELLINGS = ("plain", "plus", "zero", "underscore", *_DIGITS)
_NON_SAMPLES = ("3.5", "1e3", "0x10", "abc", "-1", "#", "99999999999999999999",
                "1" + "0" * 400)
_SEPARATORS = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "  ", "\t ",
               "\x85# range 0.0 2.0 ")
_LINE_ENDS = ("\n", "\r\n", "\r")
_COMMENTS = ("# range 0.0 1.0", "# range 0.25 0.75", "# a comment", "#range 0 1",
             "# range 1.0 0.0", "# range x 1", "# note\x85# range 0.0 2.0",
             "# note\u20287 7", "#", " # range 0.0 2.0")


def _spell(value: int, how: str) -> str:
    text = str(value)
    if how == "plus":
        return "+" + text
    if how == "zero":
        return "0" + text
    if how == "underscore":
        return text[0] + "_" + text[1:] if len(text) > 1 else text
    if how in _DIGITS:
        return text.translate(str.maketrans("0123456789", _DIGITS[how]))
    return text


@st.composite
def _pgm_texts(draw) -> str:
    """A P2 text near write_patch_pgm's: odd spellings, comments between lines,
    mixed line ends, and now and then a token or count that is wrong."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    maxval = draw(st.sampled_from([65535] * 5 + [255, 10, 1, 0, 65536]))
    count = width * height + draw(st.sampled_from([0] * 8 + [-1, 1]))
    values = [width, height, maxval] + [draw(st.integers(0, max(maxval, 1)))
                                        for _ in range(count)]
    if count and draw(st.integers(0, 15)) == 0:
        values[draw(st.integers(3, len(values) - 1))] = maxval + 1
    tokens = ["P2"] + [_spell(v, draw(st.sampled_from(_SPELLINGS))) for v in values]
    if draw(st.integers(0, 7)) == 0:
        tokens[draw(st.integers(1, len(tokens) - 1))] = draw(st.sampled_from(_NON_SAMPLES))
    lines = [tokens[0]]
    for token in tokens[1:]:
        if draw(st.booleans()):
            lines.append(token)
        else:
            odd = draw(st.integers(0, 3)) == 0
            lines[-1] += (draw(st.sampled_from(_SEPARATORS)) if odd else " ") + token
    comments = [draw(st.sampled_from(_COMMENTS))
                for _ in range(draw(st.integers(0, 2)))]
    if draw(st.integers(0, 15)):
        comments.append("# range 0.0 1.0")
    for comment in comments:
        lines.insert(draw(st.integers(0, len(lines))), comment)
    ends = [draw(st.sampled_from(_LINE_ENDS)) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


def _read_outcome(read, path, errors=(DataError,)):
    """(pixel bytes, shape, lo, hi), or "DataError" for any of errors."""
    try:
        pixels, lo, hi = read(path)
    except errors:
        return "DataError"
    assert pixels.dtype == np.float64
    return pixels.tobytes(), pixels.shape, lo, hi


@settings(max_examples=300, deadline=None, derandomize=True)
@example(text="P2\r\n# range 0.0 1.0\r3 1\r\n65535\n+5 1_000 ٣\n")
@example(text="P2\n# range 0.0 1.0\n1 1\n255\n7\x85# range 0.0 2.0\n")
@example(text="P2\n# range 0.0 1.0\n1 1\n255\n1" + "0" * 400 + "\n")
@given(text=_pgm_texts())
def test_pgm_reader_matches_first_written_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("pgm") / "p.pgm"
    path.write_bytes(text.encode("utf-8"))
    # A sample past the float range overflows the oracle's float conversion;
    # the contract for it is the DataError of any other out-of-range sample.
    assert _read_outcome(read_patch_pgm, path) == _read_outcome(
        _first_written_pgm_reader, path, (DataError, OverflowError))


@pytest.mark.parametrize("edit, lineno", [
    (lambda lines: lines.__setitem__(2, "abc," + lines[2].split(",", 1)[1]), 3),
    (lambda lines: lines.__setitem__(4, lines[4].rsplit(",", 1)[0]), 5),
], ids=["non-numeric", "ragged"])
def test_malformed_patch_csv_is_data_error_naming_line(tmp_path, edit, lineno):
    patch = render_patch(PatternSpec(pattern_width=364), 31)
    path = tmp_path / "p.csv"
    write_patch_csv(patch, path)
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:{lineno}:")):
        read_patch_csv(path)


def test_patch_csv_parse_error_is_data_error_naming_path(tmp_path):
    # A stray quote opens a field that runs past csv's field size limit.
    patch = render_patch(PatternSpec(pattern_width=728), 91)
    path = tmp_path / "p.csv"
    write_patch_csv(patch, path)
    lines = path.read_text().splitlines()
    lines[1] = '"' + lines[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:") + r"\d+: field larger"):
        read_patch_csv(path)


def _manifest_rows(tmp_path):
    manifest = generate_dataset(small_config(count_defect_free=2, count_dirt=2,
                                             count_crater=0),
                                seed=5, out_dir=tmp_path / "ds")
    return manifest, manifest.read_text().splitlines()


@pytest.mark.parametrize("column", ["file", "label", "f", "psi"])
def test_manifest_missing_column_is_data_error(tmp_path, column):
    manifest, lines = _manifest_rows(tmp_path)
    drop = lines[0].split(",").index(column)
    manifest.write_text("".join(
        ",".join(v for i, v in enumerate(line.split(",")) if i != drop) + "\n"
        for line in lines))
    with pytest.raises(DataError, match=re.escape(f"{manifest}:") + ".*" + column):
        load_dataset(manifest)


@pytest.mark.parametrize("column", ["f", "psi"])
def test_manifest_non_numeric_field_is_data_error_naming_line(tmp_path, column):
    manifest, lines = _manifest_rows(tmp_path)
    pos = lines[0].split(",").index(column)
    row = lines[2].split(",")
    row[pos] = "x1"
    lines[2] = ",".join(row)
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=re.escape(f"{manifest}:3:")):
        load_dataset(manifest)
