"""Spline model, penalized fit, and GCV selection against dense oracles."""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

import edfdetect.splinefit as splinefit
from edfdetect.errors import (DataError, DegenerateGcvError, IllPosedFitError,
                              InvalidBasisError)
from edfdetect.features import q_for_frequency, standardize_patch
from edfdetect.splinefit import (_GAUSS2_NODES, _LOG_GRID, LAMBDA_GRID,
                                 _GCV_DENOM_TOL, SplineModel, _basis_values,
                                 _gcv, _project, _slope_root,
                                 build_spline_model, fit_penalized,
                                 select_lambda)
from edfdetect.synth import (CRATER, DIRT, DefectSpec, GenerationConfig,
                             render_patch)


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
    # build_spline_model's knots: q - 2 even breakpoints on [1, m], 4-fold ends
    breaks = np.linspace(1.0, float(m), q - 2)
    knots = np.concatenate([[1.0] * 3, breaks, [float(m)] * 3])
    if (m, q) == (181, 181):  # X'X is not positive definite: no model is made
        with pytest.raises(IllPosedFitError):
            build_spline_model(m, q)
    else:
        assert _bit_equal(build_spline_model(m, q).knots, knots)
    sites = np.arange(1, m + 1, dtype=float)  # the last site is the right end knot
    assert sites[-1] == knots[-1]
    assert _bit_equal(_basis_values(knots, sites, 0),
                      BSpline.design_matrix(sites, knots, 3).toarray())

    half = np.diff(breaks) / 2.0
    nodes = ((breaks[:-1] + half)[:, None] + half[:, None] * _GAUSS2_NODES).ravel()
    assert _bit_equal(_basis_values(knots, nodes, 2),
                      BSpline(knots, np.eye(q), 3)(nodes, nu=2))


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
    monkeypatch.undo()
    (xtx, r_upper), = factors
    assert _bit_equal(r_upper, cholesky(xtx, lower=False))
    assert np.sum(model.gamma == 0.0) == 2
    assert np.abs(model.ortho_design.T @ model.ortho_design - np.eye(q)).max() < 1e-12
    assert np.abs(model.grid_edf - _scipy_grid_edf(model, xtx)).max() < _GRID_EDF_DRIFT


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
    fit = fit_penalized(model, z, select_lambda(model, z).lam)
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
    fit = fit_penalized(model, z, select_lambda(model, z).lam)
    fine = np.geomspace(1e-6, 1e6, 12 * 70 + 1)
    gcv_fine = min(fit_penalized(model, z, lam).gcv for lam in fine)
    assert abs(fit.gcv - gcv_fine) <= 1e-3 * gcv_fine


def test_select_clean_row_smoother_than_bumped_row():
    # f=8 channel patch; a mid-row phase bump must cost degrees of freedom
    from edfdetect.features import standardize_patch
    from edfdetect.synth import DefectSpec, GenerationConfig, render_patch
    spec = GenerationConfig().channel_spec(8.0, np.pi)
    patch = render_patch(spec, 91, origin_col=50, seed=3)
    model = build_spline_model(91, 20)
    clean_edf = select_lambda(model, standardize_patch(patch).pixels[45]).edf
    bump = DefectSpec("dirt", (45.0, 45.0), radius=5.0, strength=1.0)
    bumped = render_patch(spec, 91, origin_col=50, seed=3, defect=bump)
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
    with pytest.raises(IllPosedFitError):
        SplineModel(q=8, m=20, knots=model.knots, design=bad_design, penalty=model.penalty)


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


def _array_gcv(m, edf, rss, rss_floor):
    """The GCV rule as first written, elementwise over arrays: (gcv, floored rss)."""
    rss = rss * (rss >= rss_floor)
    denom = m - edf
    gcv = np.where(denom >= 1e-8, m * rss / np.maximum(denom, 1e-8) ** 2, np.inf)
    return gcv, rss


def test_gcv_floor_tolerance_and_inf_elementwise():
    cases = [(3.0, 2.0, 10 * 2.0 / 7.0 ** 2, 2.0), (10.0 - 5e-9, 2.0, math.inf, 2.0),
             (10.0, 2.0, math.inf, 2.0), (4.0, 0.5e-6, 0.0, 0.0)]
    for edf, rss, gcv, floored in cases:
        assert _gcv(10, edf, rss, 1e-6) == (gcv, floored)


def _near(value):
    # value itself or a few ulps to either side
    return st.integers(-3, 3).map(lambda n: float(value + n * math.ulp(value)))


def _m_and_edf(m):
    # m - edf anywhere, a few ulps either side of _GCV_DENOM_TOL, or near it
    return st.tuples(st.just(m), st.one_of(
        st.floats(2.0, m + 1.0), _near(m - _GCV_DENOM_TOL),
        st.floats(0.5, 2.0).map(lambda t: m - t * _GCV_DENOM_TOL)))


# edfs at m = 91 whose 91 - edf libm pow squares otherwise than x * x does
# (about 0.1% of floats), where a gcv squared by x * x would drift
_POW_EDGE_EDFS = [e for e in np.random.default_rng(0).uniform(2.0, 91.0, 20_000).tolist()
                  if (91 - e) ** 2 != (91 - e) * (91 - e)]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(m_edf=st.one_of(st.integers(4, 4095).flatmap(_m_and_edf),
                       st.tuples(st.just(91), st.sampled_from(_POW_EDGE_EDFS))),
       rss_floor=st.one_of(st.just(0.0), st.floats(1e-300, 1e-10)), data=st.data())
def test_scalar_gcv_is_the_first_written_array_rule(m_edf, rss_floor, data):
    # bit for bit: the float ** 2 is libm pow, as numpy's power on a 0-d value
    (m, edf), floor_near = m_edf, _near(rss_floor).map(abs)
    rss = data.draw(st.one_of(st.floats(0.0, 1e6), st.just(0.0), floor_near))
    gcv, floored = _gcv(m, edf, rss, rss_floor)
    want_gcv, want_floored = _array_gcv(m, edf, np.float64(rss), rss_floor)
    assert type(gcv) is float and type(floored) is float
    assert _bit_equal(np.float64(gcv), want_gcv)
    assert _bit_equal(np.float64(floored), want_floored)


def _noise_row(seed=0, m=91):
    # white noise whose GCV keeps falling up to the last grid point
    return np.random.default_rng(seed).standard_normal(m)


@pytest.mark.parametrize("row", [_noise_row(), 0.3 + 0.05 * np.arange(1.0, 92.0)],
                         ids=["pure-noise", "affine"])
def test_grid_edge_lambda_without_a_slope_sign_change(monkeypatch, row):
    calls = []

    def spy(slope, lo, hi, tol=1e-13):
        calls.append((lo, hi, _slope_root(slope, lo, hi, tol)))
        return calls[-1][2]

    monkeypatch.setattr(splinefit, "_slope_root", spy)
    fit = select_lambda(build_spline_model(91, 20), row)
    assert fit.lam == LAMBDA_GRID[-1]
    assert calls == [(math.log(LAMBDA_GRID[-2]), math.log(LAMBDA_GRID[-1]), None)]


def test_select_lambda_is_scale_free_on_huge_rows():
    # w^2 of the 1e160 row would overflow without the power-of-two scaling
    model = build_spline_model(91, 20)
    z = _noise_row(5) + np.sin(np.arange(91) / 7.0)
    plain = select_lambda(model, z)
    huge = select_lambda(model, z * 1e160)
    assert (huge.lam, huge.edf) == (plain.lam, plain.edf)
    exact = select_lambda(model, z * 2.0 ** 530)
    assert (exact.lam, exact.edf) == (plain.lam, plain.edf)
    plain_fit = fit_penalized(model, z, plain.lam)
    huge_fit = fit_penalized(model, z * 1e160, huge.lam)
    exact_fit = fit_penalized(model, z * 2.0 ** 530, exact.lam)
    np.testing.assert_array_equal(exact_fit.coefficients, plain_fit.coefficients * 2.0 ** 530)
    assert exact_fit.rss == math.inf and huge_fit.rss == math.inf


@pytest.mark.parametrize("q", [20, 30, 40])
def test_grid_edf_is_the_sum_of_each_grid_points_shrinkage(q):
    # select_lambda takes a winning grid point's edf from grid_edf, so it must
    # be the edf fit_penalized computes at that lambda, to the bit
    model = build_spline_model(91, q)
    for i in range(len(LAMBDA_GRID)):
        assert model.grid_edf[i] == (1 / (1 + LAMBDA_GRID[i] * model.gamma)).sum()


def _eager_fit(model, proj, lam):
    """(coefficients, fitted, edf, gcv, rss) as first written, in numpy."""
    w, w_sq, rss0, rss_floor, k = proj
    d = 1.0 / (1.0 + lam * model.gamma)
    edf = float(d.sum())
    gcv, rss = _array_gcv(model.m, edf, rss0 + ((1.0 - d) ** 2) @ w_sq, rss_floor)
    with np.errstate(over="ignore"):  # the rss of a row near the float range is inf
        coef = np.ldexp(model.basis_map @ (d * w), k)
        gcv, rss = np.ldexp(gcv, 2 * k), np.ldexp(rss, 2 * k)
    return coef, model.design @ coef, edf, float(gcv), float(rss)


@pytest.mark.parametrize("f", [8.0, 64.0])
def test_fit_penalized_matches_an_eager_fit_and_the_selected_edf(f):
    model = build_spline_model(91, q_for_frequency(f))
    z = _noise_row(5) + np.sin(np.arange(91) / 7.0)
    huge = [z * 1e160, z * 2.0 ** 530]  # rss is inf on both
    for row in _oracle_rows(f) + huge:
        selected = select_lambda(model, row)
        fit = fit_penalized(model, row, selected.lam)
        coef, fitted, edf, gcv, rss = _eager_fit(model, _project(model, row), selected.lam)
        assert fit.edf == edf
        assert _bit_equal(fit.fitted, fitted) and _bit_equal(fit.coefficients, coef)
        assert (fit.gcv, fit.rss) == (gcv, rss)
        # the edf select_lambda reports is the edf of the fit at its lambda
        assert selected.edf == fit.edf
    assert math.isinf(fit_penalized(model, huge[0], select_lambda(model, huge[0]).lam).rss)


def _bisect(slope, lo, hi, tol=1e-13):
    """Zero of the slope by plain bisection, as the selector first did it."""
    s_lo, s_hi = slope(lo), slope(hi)
    if not (s_lo < 0.0 < s_hi):
        return None
    a, b = lo, hi
    while b - a > tol:
        mid = (a + b) / 2.0
        if slope(mid) < 0.0:
            a = mid
        else:
            b = mid
    return (a + b) / 2.0


def _oracle_select(model, z):
    """Grid search and refinement as first written: one GCV profile with its
    own closures, a Python argmin loop, then a separate closing fit. Without a
    slope sign change the grid point stands."""
    z = np.asarray(z, dtype=float)
    w = model.ortho_design.T @ z
    resid0 = z - model.ortho_design @ w
    rss0 = float(resid0 @ resid0)
    w_sq = w * w
    rss_floor = 1e-16 * float(z @ z)

    rss_grid = rss0 + model.grid_shrink_sq @ w_sq
    rss_grid[rss_grid < rss_floor] = 0.0
    denom = model.m - model.grid_edf
    gcv_grid = np.where(denom >= 1e-8,
                        model.m * rss_grid / np.maximum(denom, 1e-8) ** 2, np.inf)

    def gcv_at(log_lam):
        d = 1.0 / (1.0 + math.exp(log_lam) * model.gamma)
        edf = d.sum()
        if model.m - edf < 1e-8:
            return math.inf
        rss = rss0 + ((1.0 - d) ** 2) @ w_sq
        if rss < rss_floor:
            rss = 0.0
        return model.m * rss / (model.m - edf) ** 2

    def gcv_slope_at(log_lam):
        d = 1.0 / (1.0 + math.exp(log_lam) * model.gamma)
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
    log_ref = _bisect(gcv_slope_at, lo, hi)
    if log_ref is not None:
        gcv_ref, lam_ref = gcv_at(log_ref), math.exp(log_ref)
        if gcv_ref < gcv_best or (gcv_ref == gcv_best and lam_ref > lam_best):
            lam_best = lam_ref
    return lam_best, float((1.0 / (1.0 + lam_best * model.gamma)).sum())


def _oracle_rows(f):
    spec = GenerationConfig().channel_spec(f, np.pi)
    clean = render_patch(spec, 91, origin_col=20, seed=4)
    dirt = DefectSpec(DIRT, (45.0, 40.0), radius=9.0, strength=3.0)
    crater = DefectSpec(CRATER, (50.0, 45.0), radius=13.0, strength=3.0)
    patches = [clean, render_patch(spec, 91, origin_col=20, seed=4, defect=dirt),
               render_patch(spec, 91, origin_col=20, seed=4, defect=crater)]
    spike = np.zeros(91)
    spike[45] = 1.0
    extra = [0.3 + 0.05 * np.arange(1.0, 92.0), _noise_row(), spike]
    return [row for p in patches for row in standardize_patch(p).pixels] + extra


@pytest.mark.parametrize("f", [8.0, 16.0, 32.0, 64.0])
def test_select_lambda_matches_first_written_oracle(f):
    model = build_spline_model(91, q_for_frequency(f))
    for z in _oracle_rows(f):
        fit = select_lambda(model, z)
        assert (fit.lam, fit.edf) == _oracle_select(model, z)


def _constructed_row(kind, seed):
    rng, x = np.random.default_rng(seed), np.arange(1.0, 92.0)
    if kind == "noise":
        return rng.standard_normal(91)
    if kind == "walk":
        return rng.standard_normal(91).cumsum()
    if kind == "sine":
        return (np.sin(rng.uniform(0.02, 1.5) * x + rng.uniform(0.0, 2 * np.pi))
                + rng.uniform(0.0, 0.5) * rng.standard_normal(91))
    if kind == "near-affine":
        return (rng.uniform(-1.0, 1.0) + rng.uniform(-0.1, 0.1) * x
                + 10.0 ** rng.uniform(-12.0, -2.0) * rng.standard_normal(91))
    if kind == "spikes":
        row, at = np.zeros(91), rng.integers(0, 91, rng.integers(1, 6))
        row[at] = rng.uniform(-3.0, 3.0, len(at))
        return row
    if kind == "two-scale":
        # a smooth part plus a high-frequency part at tuned noise, which can
        # give two GCV dips between the same grid neighbours
        smooth = np.sin(rng.uniform(0.02, 0.15) * x + rng.uniform(0.0, 2 * np.pi))
        fast = rng.uniform(0.02, 0.5) * np.sin(rng.uniform(0.6, 2.5) * x
                                               + rng.uniform(0.0, 2 * np.pi))
        return smooth + fast + 10.0 ** rng.uniform(-4.0, -0.5) * rng.standard_normal(91)
    # a quadratic or a cubic: the spline reproduces it to within the rss
    # floor, so gcv ties at 0 with no slope sign change and the grid decides
    return np.polyval(rng.uniform(-1.0, 1.0, rng.integers(3, 5)), (x - 46.0) / 45.0)


@functools.cache
def _model_91(q):
    return build_spline_model(91, q)


@pytest.mark.parametrize("q", [20, 30, 40])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["noise", "walk", "sine", "near-affine", "spikes", "two-scale",
                             "polynomial"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_select_lambda_matches_first_written_oracle_on_constructed_rows(q, kind, seed):
    model, z = _model_91(q), _constructed_row(kind, seed)
    fit = select_lambda(model, z)
    assert (fit.lam, fit.edf) == _oracle_select(model, z)


def test_a_row_the_spline_reproduces_keeps_its_largest_perfect_fit_grid_point():
    # gcv is 0 up to the rss floor at every small lambda and the slope keeps
    # its sign, so the grid's tie rule decides: the largest grid lambda whose
    # fit is exact, not a point between it and the next grid lambda
    x = np.arange(1.0, 92.0)
    for q in (20, 30, 40):
        for z in ((x - 45.0) ** 2, (x - 30.0) ** 3 / 1e4):
            fit = fit_penalized(_model_91(q), z, select_lambda(_model_91(q), z).lam)
            (i,) = np.flatnonzero(LAMBDA_GRID == fit.lam)
            assert fit.gcv == 0.0 and i < len(LAMBDA_GRID) - 1, (q, fit.lam)
            assert fit_penalized(_model_91(q), z, LAMBDA_GRID[i + 1]).gcv > 0.0, q


@functools.cache
def _mp_spectrum(q):
    """(gamma, P) of the m=91 model at mpmath's working precision, its double
    design X and penalty S taken as exact: X'X = L L' (Cholesky), C = L^-1 S L^-T = U G U',
    eigenvalues under 1e-12 x max set to 0 (the rule _factorize uses), and
    P = U' L^-1 X', so that w = P z. Call inside mpmath.workdps(40)."""
    model = build_spline_model(91, q)
    x = mpmath.matrix(model.design.tolist())
    l_inv = mpmath.inverse(mpmath.cholesky(x.T * x))
    core = l_inv * mpmath.matrix(model.penalty.tolist()) * l_inv.T
    gamma, u = mpmath.eigsy((core + core.T) / 2)
    top = max(gamma)
    gamma = [g if g >= mpmath.mpf("1e-12") * top else mpmath.mpf(0) for g in gamma]
    return gamma, u.T * l_inv * x.T


def _true_stationary_edf(q, z, lo, hi):
    """(edf, |dEDF/drho|, lambda) at the zero of the exact GCV slope in
    log-lambda rho, bisected 160 times inside [lo, hi]."""
    gamma, proj = _mp_spectrum(q)
    zm = mpmath.matrix([float(v) for v in z])
    w_sq = [v * v for v in proj * zm]
    rss0 = sum(v * v for v in zm) - sum(w_sq)

    def at(rho):
        d = [1 / (1 + mpmath.exp(rho) * g) for g in gamma]
        edf = sum(d)
        rss = rss0 + sum((1 - di) ** 2 * v for di, v in zip(d, w_sq))
        rss_slope = 2 * sum(di * (1 - di) ** 2 * v for di, v in zip(d, w_sq))
        edf_slope = -sum(di * (1 - di) for di in d)
        return edf, edf_slope, rss_slope * (91 - edf) + 2 * rss * edf_slope

    a, b = mpmath.mpf(lo), mpmath.mpf(hi)
    assert at(a)[2] < 0 < at(b)[2]  # the row has an interior GCV minimum
    for _ in range(160):
        mid = (a + b) / 2
        a, b = (mid, b) if at(mid)[2] < 0 else (a, mid)
    edf, edf_slope, _ = at((a + b) / 2)
    return float(edf), float(-edf_slope), float(mpmath.exp((a + b) / 2))


# Rows 45 of the clean, dirt and crater patches, row 35 of the crater patch,
# and the spike: the rows of _oracle_rows(f) with a GCV minimum inside the
# grid (the affine and noise rows smooth to the grid end, where none is).
_TRUTH_ROWS = (45, 136, 227, 217, 275)


@pytest.mark.parametrize("f", [8.0, 16.0, 32.0, 64.0])
def test_select_lambda_edf_is_the_true_gcv_stationary_edf(f):
    """EDF of select_lambda against the exact stationary point of GCV.

    The error bound has three terms, each taken at the true point:
    - 1e-13 (the slope root's log-lambda tolerance) x |dEDF/drho|;
    - q eps edf, the rounding of edf = sum(d);
    - 4 eps max(gamma) sum(d (1 - d) / gamma) over nonzero gamma: the double
      spectrum of C carries absolute errors of order eps max(gamma), a relative
      error eps max(gamma) / gamma on each eigenvalue, which moves the EDF at a
      fixed lambda by up to the sum; the factor 4 is 2 (it moves the root of the
      slope too) times 2 (margin). This term dominates on the spike, whose
      minimum lies where only the smallest nonzero eigenvalues are active.
    Measured: the error is at most 0.27 of the bound on these rows.
    """
    q = q_for_frequency(f)
    model = build_spline_model(91, q)
    eps = np.finfo(float).eps
    rows, last = _oracle_rows(f), len(LAMBDA_GRID) - 1
    with mpmath.workdps(40):
        for i in _TRUTH_ROWS:
            _, w_sq, rss0, rss_floor, _ = _project(model, rows[i])
            gcv, _ = _array_gcv(91, model.grid_edf, rss0 + model.grid_shrink_sq @ w_sq,
                                rss_floor)
            best = last - int(np.argmin(gcv[::-1]))  # select_lambda's grid point
            lo, hi = _LOG_GRID[max(best - 1, 0)], _LOG_GRID[min(best + 1, last)]
            edf, edf_slope, lam = _true_stationary_edf(q, rows[i], lo, hi)
            gamma = np.array([float(g) for g in _mp_spectrum(q)[0]])
            d = 1.0 / (1.0 + lam * gamma[gamma > 0])
            bound = (1e-13 * edf_slope + q * eps * edf
                     + 4 * eps * gamma.max() * np.sum(d * (1 - d) / gamma[gamma > 0]))
            assert abs(select_lambda(model, rows[i]).edf - edf) <= bound, (i, bound)


def _counting(slope, calls):
    def counted(x):
        calls.append(x)
        return slope(x)
    return counted


@pytest.mark.parametrize("lo, hi, root", [
    (_LOG_GRID[40], _LOG_GRID[42], 0.1 * _LOG_GRID[41]),
    (_LOG_GRID[0], _LOG_GRID[2], _LOG_GRID[1] + 0.01),
    (_LOG_GRID[-3], _LOG_GRID[-1], _LOG_GRID[-1] - 1e-3),
    (-1.0, 2.0, 1.0 / 3.0),
])
def test_slope_root_is_the_bisection_point_on_a_monotone_slope(lo, hi, root):
    def slope(x):
        return math.expm1(x - root) + (x - root) ** 3

    calls = []
    got = _slope_root(_counting(slope, calls), lo, hi)
    assert got == _bisect(slope, lo, hi)
    assert abs(got - root) <= 1e-13
    assert len(calls) < 25


@pytest.mark.parametrize("slope", [lambda x: x + 10.0, lambda x: x - 10.0,
                                   lambda x: x, lambda x: -x, lambda x: math.nan],
                         ids=["positive", "negative", "zero-at-lo", "falling", "nan"])
def test_slope_root_without_a_sign_change_is_none(slope):
    assert _slope_root(slope, 0.0, 1.0) is None


@pytest.mark.parametrize("roots", [(0.2, 0.5, 0.8), (0.05, 0.1, 0.9),
                                   (0.1, 0.9, 0.95), (1 / 3, 0.4, 0.41)])
def test_slope_root_with_three_sign_changes_returns_one_of_them(roots):
    def slope(x):
        return math.prod(x - r for r in roots)

    tol = 1e-13
    got = _slope_root(slope, 0.0, 1.0, tol)
    assert (slope(got - tol) < 0.0) != (slope(got + tol) < 0.0)
    assert min(abs(got - r) for r in roots) <= tol


@pytest.mark.parametrize("slope", [
    lambda x: math.nan if 0.2 < x < 0.9 else x - 0.5,
    lambda x: math.inf if x > 0.3 else x - 0.6,
    lambda x: -math.inf if x < 0.7 else x - 0.6,
    lambda x: -math.inf if x < 0.5 else math.inf,
    lambda x: (math.nan, -1.0, math.inf)[int(x * 1e6) % 3] if 0.0 < x < 1.0 else x - 0.5,
], ids=["nan-band", "inf-right", "neg-inf-left", "inf-step", "mixed"])
def test_slope_root_terminates_on_non_finite_slopes(slope):
    calls = []
    got = _slope_root(_counting(slope, calls), 0.0, 1.0)
    assert 0.0 <= got <= 1.0
    assert len(calls) <= 4 * 45  # every fourth point at worst is a bisection step


def test_slope_root_calls_the_slope_a_third_as_often_as_bisection(monkeypatch):
    calls, rows = [], 0

    def counting_root(slope, lo, hi, tol=1e-13):
        return _slope_root(_counting(slope, calls), lo, hi, tol)

    monkeypatch.setattr(splinefit, "_slope_root", counting_root)
    for f in (8.0, 64.0):
        model = build_spline_model(91, q_for_frequency(f))
        for z in _oracle_rows(f):
            select_lambda(model, z)
            rows += 1
    # bisection takes 45 calls a row; measured here: 14.9 a row
    assert len(calls) / rows < 17.0
