"""The in-process API that perfbench/ calls, pinned so it stays runnable.

perfbench/run.py re-derives features from PGM files, times select_lambda
on standardized rows and imports build_spline_model from features;
perfbench/tracing.py reads LAMBDA_GRID, the reference vectors and three
fields of every classify_batch result, and calls cli.main in-process. The
benchmark's own suite (perfbench/tests) is too slow for every run, so
these checks stand in for it here.
"""

import inspect

import numpy as np

from edfdetect import classifier, cli, errors, features, splinefit, synth
from edfdetect.features import build_spline_model


def _patch(m: int = 31) -> features.Patch:
    cols = np.arange(m)
    pixels = np.tile(0.5 + 0.4 * np.sin(2 * np.pi * 3 * cols / m), (m, 1))
    return features.Patch(pixels=pixels, frequency=8.0, phase=0.0,
                          label="defect_free", patch_id="p0")


def test_read_patch_pgm_returns_pixels_lo_hi(tmp_path):
    path = tmp_path / "p.pgm"
    synth.write_patch_pgm(_patch(), path, 0.0, 1.0)
    pixels, lo, hi = synth.read_patch_pgm(path)
    assert pixels.shape == (31, 31)
    assert (lo, hi) == (0.0, 1.0)


def test_feature_functions_take_a_patch():
    patch = _patch()
    assert features.q_for_frequency(patch.frequency) == 20
    assert features.standardize_patch(patch).pixels.shape == (31, 31)
    assert features.colstd_features(patch).tau.shape == (31,)
    assert features.extract_edf_features(patch).tau.shape == (31,)


def test_select_lambda_on_a_built_model():
    model = build_spline_model(31, 20)
    model.factorization()
    row = features.standardize_patch(_patch()).pixels[0]
    fit = splinefit.select_lambda(model, row)
    grid = splinefit.LAMBDA_GRID
    assert len(grid) >= 3 and grid[0] <= fit.lam <= grid[-1]
    assert issubclass(errors.DegenerateGcvError, Exception)


def test_classify_batch_result_fields():
    vecs = [features.FeatureVector(tau=np.array([0.1 * i, 1.0]),
                                   label=("a", "b")[i % 2], patch_id=f"p{i}",
                                   frequency=8.0, phase=0.0) for i in range(4)]
    ref = classifier.build_reference(vecs)
    assert len(ref.vectors) == 4
    posts = classifier.classify_batch(ref, vecs, leave_one_out=True)
    for post in posts:
        for values in (post.probabilities, post.log_probabilities,
                       post.log_distances):
            assert values.shape == (2,)


def test_cli_main_takes_an_argv_list():
    assert list(inspect.signature(cli.main).parameters) == ["argv"]


def test_extract_selects_lambda_once_per_row(monkeypatch):
    # perfbench's splinefit.select_lambda.* spans, its rows_per_s pass and its
    # stress check all count one select_lambda call per patch row
    rows = []

    def counting_select(model, z):
        rows.append(z)
        return splinefit.select_lambda(model, z)

    monkeypatch.setattr(features, "select_lambda", counting_select)
    patch = _patch()
    patch.pixels[5] += 0.1 * np.sin(np.arange(31.0))  # rows differ
    std = features.standardize_patch(patch)
    assert not std.degenerate
    features.extract_edf_features(patch)
    assert len(rows) == 31
    for got, want in zip(rows, std.pixels):
        np.testing.assert_array_equal(got, want)
