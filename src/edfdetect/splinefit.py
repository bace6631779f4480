"""Penalized cubic B-spline smoothing with GCV-chosen smoothing parameters.

One row of pixel values z (observed at sites 1..m) is fitted by minimizing

    ||z - X b||^2 + lam * b' S b

where X holds cubic B-spline basis functions evaluated at the sites and S
is the exact Gram matrix of their second derivatives. The basis values and
second derivatives come from the de Boor recursion, vectorized over the
sites in numpy (_basis_values), and the model is factorized with
numpy.linalg, so smoothing needs no library beyond numpy. The effective
degrees of freedom (EDF) of the fit, the trace of the influence matrix
X (X'X + lam S)^-1 X', is what downstream feature extraction consumes:
wigglier rows need more degrees of freedom.

The smoothing parameter is selected by minimizing the GCV score
m * rss / (m - edf)^2 over a geometric grid, then refining between the grid
neighbours of the minimizer by bisecting the analytic GCV slope in
log-lambda (a value-only golden-section pass serves as the fallback).

Internally each model carries a one-off spectral factorization: with
X'X = R'R (Cholesky) and R^{-T} S R^{-1} = U diag(g) U', every quantity of
the penalized fit becomes a diagonal reweighting with d_i = 1/(1 + lam*g_i),
so a full GCV profile costs O(q) per lambda. The two zero entries of g span
the affine functions, which the penalty never touches; that makes
edf = sum(d) land exactly on q at lam = 0 and never fall below 2.

Every row passes through the same three steps: _project checks it once,
scales it by a power of two and computes w = Q'z (Q the design in spectral
coordinates) and the residual rss0 outside the spline space; _gcv scores
any lambda, on the grid or off it, from edf and the spectral
rss = rss0 + sum((1 - d)^2 w^2); _fit undoes the scaling and turns the
chosen lambda into a PenalizedFit. fit_penalized is _project plus _fit,
and select_lambda puts the grid search and its refinement in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DegenerateGcvError, IllPosedFitError, InvalidBasisError

# Selection grid: 7 points per decade over [1e-6, 1e6].
LAMBDA_GRID = np.geomspace(1e-6, 1e6, 12 * 7 + 1)
_LOG_GRID = np.log(LAMBDA_GRID)

# m - edf below this is treated as a vanishing GCV denominator.
_GCV_DENOM_TOL = 1e-8

# rss below this fraction of ||z||^2 is roundoff noise from a fit that
# reproduces the data exactly; it is floored to 0 so that all perfect-fit
# lambdas tie at gcv = 0 and the tie-break can prefer the smoothest one.
_RSS_FLOOR_REL = 1e-16

# Relative cutoff under which penalty eigenvalues are snapped to exactly 0.
_NULLSPACE_TOL = 1e-12

_GAUSS2_NODES = np.array([-1.0, 1.0]) / math.sqrt(3.0)


@dataclass
class _Factorization:
    """Spectral form of the penalized normal equations for one model."""

    gamma: np.ndarray        # (q,) eigenvalues of R^-T S R^-1, >= 0, ascending
    basis_map: np.ndarray    # (q, q) maps spectral coords to spline coefficients
    ortho_design: np.ndarray  # (m, q) design in spectral coords, orthonormal columns
    grid_edf: np.ndarray     # (G,) edf at each LAMBDA_GRID point
    grid_shrink_sq: np.ndarray  # (G, q) (1 - d)^2 at each grid point


@dataclass
class SplineModel:
    """Cubic B-spline basis, design and curvature penalty for rows of length m.

    Immutable after construction; safe to share across workers. The design is
    evaluated at sites 1..m, the penalty integrates squared second derivatives
    over [1, m].
    """

    q: int
    m: int
    knots: np.ndarray
    design: np.ndarray
    penalty: np.ndarray
    _fact: _Factorization | None = field(default=None, repr=False, compare=False)

    def factorization(self) -> _Factorization:
        # Idempotent fill; a race between workers recomputes the same value.
        if self._fact is None:
            self._fact = _factorize(self.design, self.penalty)
        return self._fact


@dataclass
class PenalizedFit:
    """Result of one penalized least-squares fit."""

    coefficients: np.ndarray
    lam: float
    fitted: np.ndarray
    edf: float
    gcv: float
    rss: float


def build_spline_model(m: int, q: int) -> SplineModel:
    """Construct the q-dimensional cubic B-spline model on sites 1..m.

    Knots: q - 2 evenly spaced breakpoints on [1, m] with 4-fold boundary
    repetition, giving exactly q order-4 B-splines. The penalty is computed
    by 2-point Gauss-Legendre quadrature per knot span, which is exact
    because second derivatives of cubics are piecewise linear.
    """
    if q < 4 or q > m:
        raise InvalidBasisError(f"need 4 <= q <= m, got q={q}, m={m}")
    breaks = np.linspace(1.0, float(m), q - 2)
    knots = np.concatenate([[1.0] * 3, breaks, [float(m)] * 3])

    design = _basis_values(knots, np.arange(1, m + 1, dtype=float), 0)

    # All q second derivatives at the Gauss nodes of every span.
    half = np.diff(breaks) / 2.0
    mid = (breaks[:-1] + breaks[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * _GAUSS2_NODES).ravel()
    weights = np.repeat(half, 2)
    d2 = _basis_values(knots, nodes, 2)
    raw = (d2 * weights[:, None]).T @ d2
    penalty = (raw + raw.T) / 2.0

    return SplineModel(q=q, m=m, knots=knots, design=design, penalty=penalty)


def _basis_values(knots: np.ndarray, x: np.ndarray, nu: int) -> np.ndarray:
    """(len(x), q) values of the nu-th derivative of all q cubic B-splines.

    The de Boor recursion, run for every site at once: 3 - nu value steps,
    then nu derivative steps, over the 4 splines that are nonzero on the
    site's knot span (every span of build_spline_model's knots has positive
    width). A site on the right end knot belongs to the last span. The steps
    are the ones scipy.interpolate.BSpline takes, in its order, so the
    values are the same to the bit.
    """
    q = len(knots) - 4
    span = np.clip(np.searchsorted(knots, x, side="right") - 1, 3, q - 1)
    h = np.ones((len(x), 1))
    for j in range(1, 4):
        n = np.arange(1, j + 1)
        right, left = knots[span[:, None] + n], knots[span[:, None] + n - j]
        new = np.zeros((len(x), j + 1))
        if j <= 3 - nu:
            w = h / (right - left)
            new[:, 1:] = w * (x[:, None] - left)
            new[:, :-1] += w * (right - x[:, None])
        else:
            w = j * h / (right - left)
            new[:, 1:] = w
            new[:, :-1] -= w
        h = new
    out = np.zeros((len(x), q))
    out[np.arange(len(x))[:, None], span[:, None] - 3 + np.arange(4)] = h
    return out


def _factorize(design: np.ndarray, penalty: np.ndarray) -> _Factorization:
    xtx = design.T @ design
    xtx = (xtx + xtx.T) / 2.0
    try:
        r_upper = np.linalg.cholesky(xtx, upper=True)
    except np.linalg.LinAlgError as exc:
        raise IllPosedFitError("design matrix is rank deficient") from exc

    # C = R^-T S R^-1, symmetric PSD with a 2-dim null space (affine fits).
    tmp = np.linalg.solve(r_upper.T, penalty)
    core = np.linalg.solve(r_upper.T, tmp.T).T
    core = (core + core.T) / 2.0
    gamma, u = np.linalg.eigh(core)
    gamma = np.maximum(gamma, 0.0)
    gamma[gamma < _NULLSPACE_TOL * max(gamma[-1], 1.0)] = 0.0

    basis_map = np.linalg.solve(r_upper, u)
    ortho_design = design @ basis_map

    shrink = 1.0 / (1.0 + LAMBDA_GRID[:, None] * gamma[None, :])
    return _Factorization(
        gamma=gamma,
        basis_map=basis_map,
        ortho_design=ortho_design,
        grid_edf=shrink.sum(axis=1),
        grid_shrink_sq=(1.0 - shrink) ** 2,
    )


def _project(model: SplineModel, z) -> tuple[np.ndarray, np.ndarray, float, float, int]:
    """Check one row and project it onto the spectral basis.

    The row is first scaled by 2^-k, with k the binary exponent of max|z|, so
    that w^2 cannot overflow; the scaling is exact and _fit undoes it.
    Returns (w, w^2, rss0, rss_floor, k) of the scaled row: the spectral
    coordinates w = Q'z, their squares, the rss of the part of z outside the
    spline space, and the rss under which a fit counts as exact. Raises
    DataError for a row of the wrong shape or with non-finite values.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (model.m,):
        raise DataError(f"row must have shape ({model.m},), got {z.shape}")
    if not np.isfinite(z).all():
        raise DataError("row contains non-finite values")
    k = math.frexp(float(np.abs(z).max()))[1]
    z = np.ldexp(z, -k)
    fact = model.factorization()
    w = fact.ortho_design.T @ z
    resid0 = z - fact.ortho_design @ w
    return w, w * w, float(resid0 @ resid0), _RSS_FLOOR_REL * float(z @ z), k


def _gcv(m: int, edf, rss, rss_floor: float):
    """GCV score m * rss / (m - edf)^2, elementwise; returns (gcv, floored rss).

    rss under rss_floor counts as 0, and a denominator m - edf under
    _GCV_DENOM_TOL scores inf.
    """
    rss = rss * (rss >= rss_floor)
    denom = m - edf
    gcv = np.where(denom >= _GCV_DENOM_TOL,
                   m * rss / np.maximum(denom, _GCV_DENOM_TOL) ** 2, np.inf)
    return gcv, rss


def _fit(model: SplineModel, proj: tuple, lam: float) -> PenalizedFit:
    """Penalized fit at lam of a row, given its projection from _project."""
    w, w_sq, rss0, rss_floor, k = proj
    fact = model.factorization()
    d = 1.0 / (1.0 + lam * fact.gamma)
    edf = float(d.sum())
    if model.m - edf < _GCV_DENOM_TOL:
        raise DegenerateGcvError(
            f"m - edf = {model.m - edf:.3e} leaves no residual degrees of freedom"
        )
    gcv, rss = _gcv(model.m, edf, rss0 + ((1.0 - d) ** 2) @ w_sq, rss_floor)
    with np.errstate(over="ignore"):  # the rss of a row near the float range is inf
        coef = np.ldexp(fact.basis_map @ (d * w), k)
        gcv, rss = np.ldexp(gcv, 2 * k), np.ldexp(rss, 2 * k)
    return PenalizedFit(coefficients=coef, lam=float(lam), fitted=model.design @ coef,
                        edf=edf, gcv=float(gcv), rss=float(rss))


def fit_penalized(model: SplineModel, z: np.ndarray, lam: float) -> PenalizedFit:
    """Solve argmin ||z - X b||^2 + lam * b' S b and attach EDF and GCV.

    Raises DataError for a malformed row or lambda, IllPosedFitError for a
    rank-deficient design and DegenerateGcvError when m - edf falls below
    tolerance.
    """
    proj = _project(model, z)
    if not np.isfinite(lam) or lam < 0.0:
        raise DataError(f"lambda must be finite and >= 0, got {lam}")
    return _fit(model, proj, lam)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_minimize(fun, lo: float, hi: float, tol: float = 1e-9) -> float:
    """Golden-section minimizer on [lo, hi]; returns the bracket midpoint."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


def _slope_bisect(slope, lo: float, hi: float, tol: float = 1e-13) -> float | None:
    """Zero of the GCV slope inside [lo, hi], or None without a sign change.

    The stationary point is a continuous function of the data, unlike the
    comparison path of a value-only search, so the returned point is stable
    under last-ulp perturbations of the row being smoothed.
    """
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


def select_lambda(model: SplineModel, z: np.ndarray) -> PenalizedFit:
    """Pick the GCV-minimizing smoothing parameter for one row.

    Grid search over LAMBDA_GRID, then one refinement pass in log-lambda
    between the grid neighbours of the minimizer: the stationary point of
    the GCV curve located by bisection on its analytic slope (falling back
    to a golden-section pass when the bracket holds no sign change). The
    refined candidate only replaces the grid minimizer when its score is
    strictly better; ties resolve toward larger lambda (the smoother fit).
    """
    proj = _project(model, z)
    _, w_sq, rss0, rss_floor, _ = proj
    fact = model.factorization()
    m, gamma = model.m, fact.gamma

    gcv_grid, _ = _gcv(m, fact.grid_edf, rss0 + fact.grid_shrink_sq @ w_sq, rss_floor)
    if not np.isfinite(gcv_grid).any():
        raise DegenerateGcvError("every grid point has a vanishing GCV denominator")
    last = len(LAMBDA_GRID) - 1
    best = last - int(np.argmin(gcv_grid[::-1]))  # the last of tied minima

    def gcv_at(log_lam: float) -> float:
        d = 1.0 / (1.0 + math.exp(log_lam) * gamma)
        return _gcv(m, d.sum(), rss0 + ((1.0 - d) ** 2) @ w_sq, rss_floor)[0]

    def gcv_slope_at(log_lam: float) -> float:
        # sign of dV/drho up to the positive factor m / (m - edf)^3
        d = 1.0 / (1.0 + math.exp(log_lam) * gamma)
        one_minus = 1.0 - d
        rss = rss0 + (one_minus ** 2) @ w_sq
        rss_slope = 2.0 * (d * one_minus ** 2) @ w_sq
        edf_slope = -(d * one_minus).sum()
        return rss_slope * (m - d.sum()) + 2.0 * rss * edf_slope

    lo, hi = _LOG_GRID[max(best - 1, 0)], _LOG_GRID[min(best + 1, last)]
    log_ref = _slope_bisect(gcv_slope_at, lo, hi)
    if log_ref is None:
        log_ref = _golden_minimize(gcv_at, lo, hi)
    gcv_ref, lam_ref = gcv_at(log_ref), math.exp(log_ref)
    lam_best = float(LAMBDA_GRID[best])
    if gcv_ref < gcv_grid[best] or (gcv_ref == gcv_grid[best] and lam_ref > lam_best):
        lam_best = lam_ref
    return _fit(model, proj, lam_best)
