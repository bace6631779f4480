"""Standardization, EDF feature extraction, and the col.std baseline."""

from dataclasses import replace

import numpy as np
import pytest

from edfdetect.errors import DataError
from edfdetect.errors import DegenerateGcvError
from edfdetect.features import (FeatureVector, Patch, colstd_features,
                                extract_edf_features, q_for_frequency,
                                read_features_csv, standardize_patch,
                                write_features_csv)
from edfdetect.splinefit import build_spline_model, select_lambda
from edfdetect.synth import CRATER, DefectSpec, GenerationConfig, render_patch

F8_SPEC = GenerationConfig().channel_spec(8.0, np.pi)


def make_patch(pixels, f=8.0, psi=0.0, label=None, patch_id="t"):
    return Patch(pixels=np.asarray(pixels, dtype=float), frequency=f, phase=psi,
                 label=label, patch_id=patch_id)


def row_edfs(patch):
    """Per-row EDFs of the standardized patch, one select_lambda call each."""
    model = build_spline_model(patch.side, q_for_frequency(patch.frequency))
    edfs = []
    for row in standardize_patch(patch).pixels:
        try:
            edfs.append(select_lambda(model, row).edf)
        except DegenerateGcvError:
            edfs.append(2.0)
    return np.array(edfs)


def test_standardize_constant_patch_degenerate():
    patch = make_patch(np.full((31, 31), 5.0))
    out = standardize_patch(patch)
    assert out.pixels.shape == (31, 31)
    assert np.all(out.pixels == 0.0)


def test_standardize_checkerboard():
    pixels = np.indices((31, 31)).sum(axis=0) % 2
    out = standardize_patch(make_patch(pixels))
    assert abs(out.pixels.mean()) < 1e-10
    assert abs(out.pixels.std(ddof=1) - 1.0) < 1e-10


def test_standardize_affine_invariance():
    rng = np.random.default_rng(0)
    pixels = rng.standard_normal((31, 31))
    a = standardize_patch(make_patch(pixels))
    b = standardize_patch(make_patch(3.7 * pixels + 11.0))
    np.testing.assert_allclose(a.pixels, b.pixels, atol=1e-10)


def test_standardize_is_exact_under_power_of_two_scaling():
    # the sums run on pixels scaled by 2^-k, so near the float range they
    # cannot overflow, and a tiny-amplitude patch is still constant in pixel units
    pixels = np.random.default_rng(1).standard_normal((31, 31))
    out = standardize_patch(make_patch(pixels))
    for scale in (2.0**1020, 2.0**-30):
        assert np.array_equal(standardize_patch(make_patch(scale * pixels)).pixels,
                              out.pixels)
    assert not standardize_patch(make_patch(1e-13 * pixels)).pixels.any()


@pytest.mark.parametrize("shape", [(1, 1), (0, 0), (31, 30), (31,)])
def test_standardize_needs_a_square_of_side_two_or_more(shape):
    with pytest.raises(DataError, match="side >= 2"):
        standardize_patch(make_patch(np.ones(shape)))


@pytest.mark.parametrize("f,q", [(8, 20), (16, 30), (32, 30), (33, 40), (64, 40),
                                 (0.5, 20), (9, 30)])
def test_q_for_frequency(f, q):
    assert q_for_frequency(f) == q


def test_q_for_frequency_rejects_nonpositive():
    with pytest.raises(DataError):
        q_for_frequency(0.0)


def test_defect_free_rows_noiseless_are_homogeneous():
    # without pixel noise every row is the same sinusoid, so tau is constant
    from dataclasses import replace
    spec = replace(F8_SPEC, noise_sigma=0.0)
    patch = render_patch(spec, 91, origin_col=50, seed=0)
    fv = extract_edf_features(patch)
    assert fv.tau.max() - fv.tau.min() <= 0.05


def test_defect_free_rows_noisy_spread_within_calibrated_band():
    # noisy rows jitter through the GCV selection; bound fixed by the
    # calibration sweep in docs/calibration.md
    patch = render_patch(F8_SPEC, 91, origin_col=50, seed=0)
    fv = extract_edf_features(patch)
    assert fv.tau.max() - fv.tau.min() <= 0.55
    assert fv.tau.max() == 1.0


@pytest.mark.parametrize("f", [8.0, 16.0, 32.0, 64.0])
def test_clean_row_edf_median_sits_in_the_calibrated_band(f):
    # docs/calibration.md: the shipped defaults put the median EDF of clean
    # rows at 0.55-0.65 q; 20 clean patches with fixed origins and noise seeds
    spec, q = GenerationConfig().channel_spec(f, np.pi), q_for_frequency(f)
    model = build_spline_model(91, q)
    origins = np.random.default_rng(11).integers(0, spec.pattern_width - 91 + 1, 20)
    edfs = [select_lambda(model, row).edf
            for seed, origin in enumerate(origins)
            for row in standardize_patch(render_patch(spec, 91, int(origin), seed)).pixels]
    assert 0.55 <= np.median(edfs) / q <= 0.65


def test_crater_rows_are_the_wiggliest():
    crater = DefectSpec(CRATER, (41.0, 45.0), radius=13.0, strength=2.75)
    fv = extract_edf_features(render_patch(F8_SPEC, 91, origin_col=50, seed=0,
                                           defect=crater))
    peak_row = int(np.argmax(fv.tau))
    assert 41 - 13 <= peak_row <= 41 + 13  # max sits inside the crater footprint
    assert fv.tau[41] > fv.tau[:10].mean()
    assert fv.tau[41] >= 0.85


@pytest.mark.xfail(reason="ring rows adjacent to the centre tie within GCV "
                   "selection noise, so the argmax can land a few rows off "
                   "centre; the footprint-level property is asserted above",
                   strict=True)
def test_crater_centre_row_scales_to_exactly_one():
    crater = DefectSpec(CRATER, (41.0, 45.0), radius=13.0, strength=2.75)
    fv = extract_edf_features(render_patch(F8_SPEC, 91, origin_col=50, seed=0,
                                           defect=crater))
    assert fv.tau[41] == 1.0


def test_constant_patch_features_floor():
    fv = extract_edf_features(make_patch(np.full((31, 31), 2.5)))
    np.testing.assert_array_equal(fv.tau, np.ones(31))


@pytest.mark.parametrize("tolerances, floored", [(0.0, True), (0.99, True),
                                                 (1.01, False)])
def test_only_a_patch_under_the_std_tolerance_is_floored(tolerances, floored):
    # one pixel d off a constant 31 x 31 patch gives a sample std of d / 31
    pixels = np.full((31, 31), 5.0)
    pixels[15, 15] += tolerances * 31 * 1e-12
    fv = extract_edf_features(make_patch(pixels))
    assert (fv.tau == 1.0).all() == floored


def test_feature_vector_invariants():
    rng = np.random.default_rng(10)
    patch = make_patch(rng.standard_normal((31, 31)))
    fv = extract_edf_features(patch)
    assert fv.tau.max() == 1.0
    assert np.all(fv.tau > 0)
    raw = row_edfs(patch)
    np.testing.assert_allclose(fv.tau, raw / raw.max(), rtol=1e-10)
    assert fv.dim == 31


def test_feature_affine_invariance():
    rng = np.random.default_rng(11)
    pixels = rng.standard_normal((31, 31))
    fv1 = extract_edf_features(make_patch(pixels))
    fv2 = extract_edf_features(make_patch(0.25 * pixels - 4.0))
    np.testing.assert_allclose(fv1.tau, fv2.tau, atol=1e-8)


def test_row_permutation_equivariance():
    rng = np.random.default_rng(12)
    pixels = rng.standard_normal((31, 31))
    perm = rng.permutation(31)
    fv = extract_edf_features(make_patch(pixels))
    fv_perm = extract_edf_features(make_patch(pixels[perm]))
    np.testing.assert_array_equal(fv.tau[perm], fv_perm.tau)


def test_extraction_is_deterministic():
    rng = np.random.default_rng(13)
    pixels = rng.standard_normal((31, 31))
    a = extract_edf_features(make_patch(pixels))
    b = extract_edf_features(make_patch(pixels))
    assert np.array_equal(a.tau, b.tau)


def test_small_patch_rejected():
    with pytest.raises(DataError):
        extract_edf_features(make_patch(np.zeros((21, 21))))


def test_colstd_constant_patch():
    fv = colstd_features(make_patch(np.full((31, 31), 1.0)))
    np.testing.assert_array_equal(fv.tau, np.zeros(31))
    # constant columns in a non-constant patch take the same branch
    ramp = np.tile(np.arange(31.0), (31, 1))
    np.testing.assert_array_equal(colstd_features(make_patch(ramp)).tau, np.zeros(31))


def test_colstd_loud_column_scales_to_one():
    rng = np.random.default_rng(14)
    pixels = 0.1 * rng.standard_normal((31, 31))
    pixels[:, 7] = rng.standard_normal(31) * 10.0
    fv = colstd_features(make_patch(pixels))
    assert fv.tau[7] == 1.0
    assert np.all(fv.tau[np.arange(31) != 7] < 1.0)


def test_colstd_matches_two_pass_oracle():
    rng = np.random.default_rng(15)
    pixels = rng.standard_normal((31, 31))
    fv = colstd_features(make_patch(pixels))
    std = standardize_patch(make_patch(pixels)).pixels
    oracle = np.empty(31)
    for c in range(31):
        col = std[:, c]
        mean = col.sum() / 31
        oracle[c] = np.sqrt(((col - mean) ** 2).sum() / 30)
    np.testing.assert_allclose(fv.tau, oracle / oracle.max(), atol=1e-10)


def test_features_csv_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    vectors = [extract_edf_features(make_patch(rng.standard_normal((31, 31)),
                                               label="dirt", patch_id=f"p{i}"))
               for i in range(3)]
    path = tmp_path / "features.csv"
    write_features_csv(vectors, path)
    loaded = read_features_csv(path)
    assert len(loaded) == 3
    for orig, back in zip(vectors, loaded):
        assert back.patch_id == orig.patch_id
        assert back.label == orig.label
        assert back.frequency == orig.frequency
        assert back.phase == orig.phase
        np.testing.assert_array_equal(back.tau, orig.tau)


def test_features_csv_round_trip_of_numpy_scalars(tmp_path):
    # repr(np.float64(8.0)) is 'np.float64(8.0)', which the reader rejects
    fv = extract_edf_features(make_patch(np.random.default_rng(3).standard_normal((31, 31)),
                                         f=np.float64(8.0), psi=np.float64(np.pi)))
    path = tmp_path / "features.csv"
    write_features_csv([fv], path)
    (back,) = read_features_csv(path)
    assert (back.frequency, back.phase) == (8.0, np.pi)
    assert "np.float64" not in path.read_text()
    np.testing.assert_array_equal(back.tau, fv.tau)


def test_features_csv_of_mixed_dimension_writes_no_file(tmp_path):
    rng = np.random.default_rng(5)
    vectors = [extract_edf_features(make_patch(rng.standard_normal((m, m)), patch_id=f"p{m}"))
               for m in (31, 33)]
    path = tmp_path / "features.csv"
    with pytest.raises(DataError, match="mixed dimension"):
        write_features_csv(vectors, path)
    assert not path.exists()


def test_features_csv_is_utf8_text(tmp_path):
    fv = extract_edf_features(make_patch(np.random.default_rng(4).standard_normal((31, 31)),
                                         label="défaut", patch_id="été-1"))
    path = tmp_path / "features.csv"
    write_features_csv([fv], path)
    assert path.read_bytes().startswith("patch_id,".encode())
    assert "été-1,défaut,".encode("utf-8") in path.read_bytes()
    (back,) = read_features_csv(path)
    assert (back.patch_id, back.label) == ("été-1", "défaut")


def test_features_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DataError):
        read_features_csv(path)


def test_features_csv_rejects_non_finite_tau(tmp_path):
    path = tmp_path / "naff.csv"
    path.write_text("patch_id,label,f,psi,m,tau_1,tau_2\np0,dirt,8.0,0.0,2,nan,1.0\n")
    with pytest.raises(DataError):
        read_features_csv(path)


@pytest.mark.parametrize("body, line", [
    (b"p0,dirt,8.0,0.0,1,1.0\np1,dirt,8.0,0.0,1,0.\xff5\n", 3),     # not UTF-8
    (b"p0,dirt,8.0,0.0,1,\"1.0" + b"0" * 140_000 + b"\n", 2),       # field too long
], ids=["not_utf8", "field_too_long"])
def test_features_csv_unreadable_bytes_are_data_errors(tmp_path, body, line):
    path = tmp_path / "bytes.csv"
    path.write_bytes(b"patch_id,label,f,psi,m,tau_1\n" + body)
    with pytest.raises(DataError, match=f"{path}:{line}: "):
        read_features_csv(path)


@pytest.mark.parametrize("f", [np.nan, np.inf, -np.inf, -1.0])
def test_q_for_frequency_refuses_every_frequency_outside_zero_to_inf(f):
    with pytest.raises(DataError, match="frequency must be in"):
        q_for_frequency(f)


@pytest.mark.parametrize("f, psi", [(np.nan, 0.0), (np.inf, 0.0), (0.0, 0.0),
                                    (8.0, np.nan), (8.0, -np.inf)])
@pytest.mark.parametrize("extract", [extract_edf_features, colstd_features])
def test_a_patch_outside_every_channel_is_refused(extract, f, psi):
    # its features CSV would be one that read_features_csv refuses
    patch = make_patch(render_patch(F8_SPEC, 31).pixels, f=f, psi=psi, patch_id="p7")
    with pytest.raises(DataError, match="patch 'p7': (frequency|phase) must be"):
        extract(patch)


@pytest.mark.parametrize("bad", [dict(tau=np.array([1.0, np.nan])),
                                 dict(tau=np.array([np.inf, 1.0])),
                                 dict(tau=np.ones((2, 2))), dict(frequency=np.nan),
                                 dict(frequency=0.0), dict(phase=np.inf)],
                         ids=["nan-tau", "inf-tau", "2d-tau", "nan-f", "zero-f",
                              "inf-psi"])
def test_features_csv_refuses_a_row_its_reader_would_and_writes_no_file(tmp_path, bad):
    good = FeatureVector(tau=np.array([0.5, 1.0]), label="a", patch_id="p0",
                         frequency=8.0, phase=0.0)
    path = tmp_path / "f.csv"
    with pytest.raises(DataError, match="feature vector 'p1': "):
        write_features_csv([good, replace(good, patch_id="p1", **bad)], path)
    assert not path.exists()
