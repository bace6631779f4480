"""Spline model, penalized fit, and GCV selection against dense oracles."""

import math

import numpy as np
import pytest
from scipy.interpolate import BSpline

import edfdetect.splinefit as splinefit
from edfdetect.errors import (DataError, DegenerateGcvError, IllPosedFitError,
                              InvalidBasisError)
from edfdetect.features import q_for_frequency, standardize_patch
from edfdetect.splinefit import (_GAUSS2_NODES, LAMBDA_GRID, SplineModel,
                                 _basis_values, _gcv, _golden_minimize,
                                 _slope_bisect, build_spline_model,
                                 fit_penalized, select_lambda)
from edfdetect.synth import (CRATER, DIRT, DefectSpec, GenerationConfig,
                             inject_defect, render_clean_patch)


def brute_force_penalty(model, n_grid=100_000):
    """Trapezoid quadrature of second-derivative products on a dense grid."""
    t = np.linspace(1.0, float(model.m), n_grid)
    d2 = BSpline(model.knots, np.eye(model.q), 3)(t, nu=2)
    return np.trapezoid(d2[:, :, None] * d2[:, None, :], t, axis=0)


def dense_fit(model, z, lam):
    """Explicitly assembled and densely solved normal equations."""
    a = model.design.T @ model.design + lam * model.penalty
    beta = np.linalg.solve(a, model.design.T @ z)
    hat = model.design @ np.linalg.solve(a, model.design.T)
    return beta, np.trace(hat)


def test_model_shapes_and_invariants():
    model = build_spline_model(91, 20)
    assert model.design.shape == (91, 20)
    assert model.penalty.shape == (20, 20)
    assert np.all(np.diff(model.knots) >= 0)
    assert model.knots[0] <= 1.0 and model.knots[-1] >= 91.0
    assert np.abs(model.penalty - model.penalty.T).max() == 0.0

    eig = np.linalg.eigvalsh(model.penalty)
    assert eig.min() >= -1e-10
    assert np.sum(eig < 1e-8 * eig.max()) == 2  # affine null space

    sv = np.linalg.svd(model.design, compute_uv=False)
    assert sv.min() > 1e-10 * sv.max()


def _bit_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("m, q", [(m, q) for m in (31, 45, 91, 181)
                                  for q in sorted({4, 20, 30, 40, m}) if q <= m])
def test_numpy_basis_matches_scipy_bspline_to_the_bit(m, q):
    model = build_spline_model(m, q)
    sites = np.arange(1, m + 1, dtype=float)  # the last site is the right end knot
    assert sites[-1] == model.knots[-1]
    assert _bit_equal(_basis_values(model.knots, sites, 0),
                      BSpline.design_matrix(sites, model.knots, 3).toarray())

    breaks = model.knots[3:-3]
    half = np.diff(breaks) / 2.0
    nodes = ((breaks[:-1] + half)[:, None] + half[:, None] * _GAUSS2_NODES).ravel()
    assert _bit_equal(_basis_values(model.knots, nodes, 2),
                      BSpline(model.knots, np.eye(q), 3)(nodes, nu=2))


def _scipy_grid_edf(model, xtx):
    """grid_edf of the factorization as first written on scipy.linalg, whose
    eigh runs LAPACK's evr driver (numpy's runs evd)."""
    from scipy.linalg import cholesky, eigh, solve_triangular

    r_upper = cholesky(xtx, lower=False)
    tmp = solve_triangular(r_upper, model.penalty, trans=1, lower=False)
    core = solve_triangular(r_upper, tmp.T, trans=1, lower=False).T
    gamma = np.maximum(eigh((core + core.T) / 2.0, eigvals_only=True), 0.0)
    gamma[gamma < splinefit._NULLSPACE_TOL * max(gamma[-1], 1.0)] = 0.0
    return (1.0 / (1.0 + LAMBDA_GRID[:, None] * gamma)).sum(axis=1)


# Largest |grid_edf| drift from the scipy path over the cases below is
# 2.95e-10 (m=45, q=40); it is 2.8e-6 at m = q = 45, which no channel uses.
_GRID_EDF_DRIFT = 1e-9


@pytest.mark.parametrize("m, q", [(m, q) for m in (31, 45, 91, 181)
                                  for q in (4, 20, 30, 40) if q < m])
def test_numpy_factorization_matches_scipy(monkeypatch, m, q):
    from scipy.linalg import cholesky

    factors = []
    numpy_cholesky = np.linalg.cholesky

    def recording_cholesky(a, **kwargs):
        factors.append((a, numpy_cholesky(a, **kwargs)))
        return factors[-1][1]

    monkeypatch.setattr(np.linalg, "cholesky", recording_cholesky)
    model = build_spline_model(m, q)
    fact = model.factorization()
    monkeypatch.undo()
    (xtx, r_upper), = factors
    assert _bit_equal(r_upper, cholesky(xtx, lower=False))
    assert np.sum(fact.gamma == 0.0) == 2
    assert np.abs(fact.ortho_design.T @ fact.ortho_design - np.eye(q)).max() < 1e-12
    assert np.abs(fact.grid_edf - _scipy_grid_edf(model, xtx)).max() < _GRID_EDF_DRIFT


def test_single_cubic_space_has_rank_two_penalty():
    model = build_spline_model(10, 4)
    eig = np.linalg.eigvalsh(model.penalty)
    assert np.sum(eig > 1e-8 * eig.max()) == 2


def test_penalty_matches_dense_quadrature_oracle():
    model = build_spline_model(30, 12)
    brute = brute_force_penalty(model)
    err = np.abs(model.penalty - brute).max() / np.abs(brute).max()
    assert err < 1e-6


def test_fit_matches_dense_normal_equations():
    rng = np.random.default_rng(42)
    model = build_spline_model(50, 15)
    t = np.arange(1, 51)
    z = np.sin(2 * np.pi * t / 17) + 0.1 * rng.standard_normal(50)
    fit = fit_penalized(model, z, 1.0)
    beta, trace = dense_fit(model, z, 1.0)
    assert np.linalg.norm(fit.coefficients - beta) <= 1e-8 * np.linalg.norm(beta)
    assert abs(fit.edf - trace) <= 1e-8 * trace
    np.testing.assert_allclose(fit.fitted, model.design @ fit.coefficients, rtol=0, atol=0)


def test_huge_lambda_gives_affine_fit():
    rng = np.random.default_rng(1)
    model = build_spline_model(40, 12)
    z = rng.standard_normal(40)
    fit = fit_penalized(model, z, 1e12)
    assert 2 - 1e-3 <= fit.edf <= 2 + 1e-3
    t = np.arange(1, 41, dtype=float)
    design_affine = np.c_[np.ones(40), t]
    affine = design_affine @ np.linalg.lstsq(design_affine, z, rcond=None)[0]
    np.testing.assert_allclose(fit.fitted, affine, atol=1e-6)


def test_zero_lambda_edf_equals_q():
    rng = np.random.default_rng(2)
    model = build_spline_model(35, 11)
    fit = fit_penalized(model, rng.standard_normal(35), 0.0)
    assert abs(fit.edf - 11) <= 1e-8


def test_gcv_identity():
    rng = np.random.default_rng(3)
    model = build_spline_model(45, 14)
    for lam in (1e-4, 0.3, 17.0, 1e4):
        fit = fit_penalized(model, rng.standard_normal(45), lam)
        recomputed = 45 * fit.rss / (45 - fit.edf) ** 2
        assert abs(fit.gcv - recomputed) <= 1e-12 * max(recomputed, 1e-300)


def test_edf_monotone_in_lambda():
    rng = np.random.default_rng(4)
    model = build_spline_model(50, 16)
    z = rng.standard_normal(50)
    for _ in range(20):
        la, lb = np.exp(rng.uniform(-14, 14, size=2))
        fa = fit_penalized(model, z, min(la, lb))
        fb = fit_penalized(model, z, max(la, lb))
        assert fa.edf >= fb.edf - 1e-12


def test_edf_bounds():
    rng = np.random.default_rng(5)
    model = build_spline_model(40, 13)
    z = rng.standard_normal(40)
    for lam in np.geomspace(1e-8, 1e14, 12):
        fit = fit_penalized(model, z, lam)
        assert 2 - 1e-6 <= fit.edf <= 13 + 1e-6


def test_trace_matches_explicit_hat_matrix():
    rng = np.random.default_rng(6)
    for m, q in ((20, 6), (37, 12), (60, 20)):
        model = build_spline_model(m, q)
        z = rng.standard_normal(m)
        lam = float(np.exp(rng.uniform(-6, 6)))
        fit = fit_penalized(model, z, lam)
        _, trace = dense_fit(model, z, lam)
        assert abs(fit.edf - trace) <= 1e-8 * trace


def test_objective_optimality():
    rng = np.random.default_rng(7)
    model = build_spline_model(30, 10)
    z = rng.standard_normal(30)
    lam = 2.5
    fit = fit_penalized(model, z, lam)

    def objective(beta):
        r = z - model.design @ beta
        return r @ r + lam * beta @ model.penalty @ beta

    base = objective(fit.coefficients)
    for _ in range(100):
        delta = rng.standard_normal(10)
        delta *= 1e-4 / np.linalg.norm(delta)
        assert objective(fit.coefficients + delta) >= base - 1e-15


def test_select_affine_data_prefers_smoothest():
    model = build_spline_model(50, 15)
    t = np.arange(1, 51, dtype=float)
    z = 0.3 + 0.05 * t
    fit = select_lambda(model, z)
    assert fit.rss <= 1e-16 * (z @ z)
    assert fit.lam == LAMBDA_GRID[-1]  # tie-break toward the largest lambda
    assert fit.edf <= 2.2
    # every grid lambda reproduces affine data to machine precision
    for lam in LAMBDA_GRID[::12]:
        assert fit_penalized(model, z, lam).rss <= 1e-16 * (z @ z)


def test_select_matches_fine_grid():
    rng = np.random.default_rng(8)
    model = build_spline_model(50, 15)
    t = np.arange(1, 51)
    z = np.sin(2 * np.pi * t / 13) + 0.05 * rng.standard_normal(50)
    fit = select_lambda(model, z)
    fine = np.geomspace(1e-6, 1e6, 12 * 70 + 1)
    gcv_fine = min(fit_penalized(model, z, lam).gcv for lam in fine)
    assert abs(fit.gcv - gcv_fine) <= 1e-3 * gcv_fine


def test_select_clean_row_smoother_than_bumped_row():
    # f=8 channel patch; a mid-row phase bump must cost degrees of freedom
    from edfdetect.features import standardize_patch
    from edfdetect.synth import (DefectSpec, GenerationConfig, inject_defect,
                                 render_clean_patch)
    spec = GenerationConfig().channel_spec(8.0, np.pi)
    patch = render_clean_patch(spec, 91, origin_col=50, seed=3)
    model = build_spline_model(91, 20)
    clean_edf = select_lambda(model, standardize_patch(patch).pixels[45]).edf
    bump = DefectSpec("dirt", (45.0, 45.0), radius=5.0, strength=1.0)
    bumped = inject_defect(patch, spec, bump)
    bumped_edf = select_lambda(model, standardize_patch(bumped).pixels[45]).edf
    assert clean_edf < bumped_edf


def test_invalid_basis_errors():
    with pytest.raises(InvalidBasisError):
        build_spline_model(10, 3)
    with pytest.raises(InvalidBasisError):
        build_spline_model(10, 11)


def test_rank_deficient_design_raises():
    model = build_spline_model(20, 8)
    bad_design = model.design.copy()
    bad_design[:, 1] = bad_design[:, 0]  # duplicated column
    bad = SplineModel(q=8, m=20, knots=model.knots, design=bad_design,
                      penalty=model.penalty)
    with pytest.raises(IllPosedFitError):
        fit_penalized(bad, np.ones(20), 0.0)


def test_degenerate_gcv_error_at_interpolation():
    model = build_spline_model(6, 6)
    with pytest.raises(DegenerateGcvError):
        fit_penalized(model, np.arange(6.0), 0.0)


def test_select_all_grid_points_degenerate_raises():
    # zero penalty keeps edf == m at every lambda
    model = build_spline_model(4, 4)
    saturated = SplineModel(q=4, m=4, knots=model.knots, design=model.design,
                            penalty=np.zeros((4, 4)))
    with pytest.raises(DegenerateGcvError):
        select_lambda(saturated, np.array([0.0, 1.0, 0.5, 2.0]))


@pytest.mark.parametrize("call", [
    lambda model: fit_penalized(model, np.zeros(19), 1.0),
    lambda model: fit_penalized(model, np.full(20, np.nan), 1.0),
    lambda model: fit_penalized(model, np.zeros(20), -1.0),
    lambda model: fit_penalized(model, np.zeros(20), np.inf),
    lambda model: fit_penalized(model, np.zeros(20), np.nan),
    lambda model: select_lambda(model, np.zeros((2, 10))),
    lambda model: select_lambda(model, np.r_[np.zeros(19), np.inf]),
], ids=["short-row", "nan-row", "negative-lam", "inf-lam", "nan-lam", "2d-row",
        "inf-row"])
def test_malformed_row_or_lambda_is_data_error(call):
    with pytest.raises(DataError):
        call(build_spline_model(20, 8))


def test_gcv_floor_tolerance_and_inf_elementwise():
    edf = np.array([3.0, 10.0 - 5e-9, 10.0, 4.0])
    rss = np.array([2.0, 2.0, 2.0, 0.5e-6])
    gcv, floored = _gcv(10, edf, rss, 1e-6)
    np.testing.assert_array_equal(gcv, [10 * 2.0 / 7.0 ** 2, np.inf, np.inf, 0.0])
    np.testing.assert_array_equal(floored, [2.0, 2.0, 2.0, 0.0])
    for i in range(4):  # scalars score exactly like array elements
        assert _gcv(10, edf[i], rss[i], 1e-6)[0] == gcv[i]


def test_golden_minimize_brackets_the_minimum():
    assert abs(_golden_minimize(lambda x: (x - 0.3) ** 2, 0.0, 1.0) - 0.3) < 1e-8
    # a monotone function drives the bracket onto the lower end
    assert abs(_golden_minimize(lambda x: x, -2.0, 5.0) + 2.0) < 1e-8


def _noise_row(seed=0, m=91):
    # white noise whose GCV keeps falling up to the last grid point
    return np.random.default_rng(seed).standard_normal(m)


@pytest.mark.parametrize("row", [_noise_row(), 0.3 + 0.05 * np.arange(1.0, 92.0)],
                         ids=["pure-noise", "affine"])
def test_grid_edge_lambda_through_golden_fallback(monkeypatch, row):
    calls = []

    def spy(fun, lo, hi, tol=1e-9):
        calls.append((lo, hi))
        return _golden_minimize(fun, lo, hi, tol)

    monkeypatch.setattr(splinefit, "_golden_minimize", spy)
    fit = select_lambda(build_spline_model(91, 20), row)
    assert fit.lam == LAMBDA_GRID[-1]
    assert calls == [(math.log(LAMBDA_GRID[-2]), math.log(LAMBDA_GRID[-1]))]


def test_select_lambda_is_scale_free_on_huge_rows():
    # w^2 of the 1e160 row would overflow without the power-of-two scaling
    model = build_spline_model(91, 20)
    z = _noise_row(5) + np.sin(np.arange(91) / 7.0)
    plain = select_lambda(model, z)
    huge = select_lambda(model, z * 1e160)
    assert (huge.lam, huge.edf) == (plain.lam, plain.edf)
    exact = select_lambda(model, z * 2.0 ** 530)
    assert (exact.lam, exact.edf) == (plain.lam, plain.edf)
    np.testing.assert_array_equal(exact.coefficients, plain.coefficients * 2.0 ** 530)
    assert exact.rss == math.inf and huge.rss == math.inf


def _oracle_select(model, z):
    """Grid search and refinement as first written: one GCV profile with its
    own closures, a Python argmin loop, then a separate closing fit."""
    z = np.asarray(z, dtype=float)
    fact = model.factorization()
    w = fact.ortho_design.T @ z
    resid0 = z - fact.ortho_design @ w
    rss0 = float(resid0 @ resid0)
    w_sq = w * w
    rss_floor = 1e-16 * float(z @ z)

    rss_grid = rss0 + fact.grid_shrink_sq @ w_sq
    rss_grid[rss_grid < rss_floor] = 0.0
    denom = model.m - fact.grid_edf
    gcv_grid = np.where(denom >= 1e-8,
                        model.m * rss_grid / np.maximum(denom, 1e-8) ** 2, np.inf)

    def gcv_at(log_lam):
        d = 1.0 / (1.0 + math.exp(log_lam) * fact.gamma)
        edf = d.sum()
        if model.m - edf < 1e-8:
            return math.inf
        rss = rss0 + ((1.0 - d) ** 2) @ w_sq
        if rss < rss_floor:
            rss = 0.0
        return model.m * rss / (model.m - edf) ** 2

    def gcv_slope_at(log_lam):
        d = 1.0 / (1.0 + math.exp(log_lam) * fact.gamma)
        one_minus = 1.0 - d
        edf = d.sum()
        rss = rss0 + (one_minus ** 2) @ w_sq
        rss_slope = 2.0 * (d * one_minus ** 2) @ w_sq
        edf_slope = -(d * one_minus).sum()
        return rss_slope * (model.m - edf) + 2.0 * rss * edf_slope

    best = 0
    for i in range(1, len(LAMBDA_GRID)):
        if gcv_grid[i] <= gcv_grid[best]:
            best = i
    log_grid = np.log(LAMBDA_GRID)
    lo = log_grid[max(best - 1, 0)]
    hi = log_grid[min(best + 1, len(LAMBDA_GRID) - 1)]
    lam_best, gcv_best = float(LAMBDA_GRID[best]), float(gcv_grid[best])
    log_ref = _slope_bisect(gcv_slope_at, lo, hi)
    if log_ref is None:
        log_ref = _golden_minimize(gcv_at, lo, hi)
    gcv_ref, lam_ref = gcv_at(log_ref), math.exp(log_ref)
    if gcv_ref < gcv_best or (gcv_ref == gcv_best and lam_ref > lam_best):
        lam_best = lam_ref
    return lam_best, float((1.0 / (1.0 + lam_best * fact.gamma)).sum())


def _oracle_rows(f):
    spec = GenerationConfig().channel_spec(f, np.pi)
    clean = render_clean_patch(spec, 91, origin_col=20, seed=4)
    dirt = DefectSpec(DIRT, (45.0, 40.0), radius=9.0, strength=3.0)
    crater = DefectSpec(CRATER, (50.0, 45.0), radius=13.0, strength=3.0)
    patches = [clean, inject_defect(clean, spec, dirt),
               inject_defect(clean, spec, crater)]
    spike = np.zeros(91)
    spike[45] = 1.0
    extra = [0.3 + 0.05 * np.arange(1.0, 92.0), _noise_row(), spike]
    return [row for p in patches for row in standardize_patch(p).pixels] + extra


@pytest.mark.parametrize("f", [8.0, 64.0])
def test_select_lambda_matches_first_written_oracle(f):
    model = build_spline_model(91, q_for_frequency(f))
    for z in _oracle_rows(f):
        fit = select_lambda(model, z)
        assert (fit.lam, fit.edf) == _oracle_select(model, z)
