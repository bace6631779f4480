"""Fringe rendering, defect injection, and dataset generation."""

import hashlib
import io
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edfdetect.errors import ConfigError, DataError
from edfdetect.features import q_for_frequency, read_utf8, standardize_patch
from edfdetect.splinefit import build_spline_model, select_lambda
from edfdetect.synth import (CRATER, DIRT, GENERATION_KEYS, DefectSpec,
                             GenerationConfig, PatternSpec, _pgm_range,
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


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_pgm_writer_rejects_pixels_without_grey_level(tmp_path):
    patch = render_patch(PatternSpec(pattern_width=364), 31)
    path = tmp_path / "p.pgm"
    with pytest.raises(DataError, match=re.escape(str(path))):
        write_patch_pgm(patch, path, -math.inf, math.inf)
    bad = replace(patch, pixels=np.where(patch.pixels > 0.9, np.nan, patch.pixels))
    with pytest.raises(DataError, match=re.escape(str(path))):
        write_patch_pgm(bad, path, 0.0, 1.0)


def test_patch_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    patch = render_patch(PatternSpec(pattern_width=364, noise_sigma=0.0),
                         31, origin_col=0)
    path = tmp_path / "p.csv"
    write_patch_csv(patch, path)
    np.testing.assert_array_equal(read_patch_csv(path), patch.pixels)


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
