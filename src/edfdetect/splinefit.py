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
m * rss / (m - edf)^2 over a geometric grid (Craven & Wahba 1979), then
refining between the grid neighbours of the minimizer at a zero of the
analytic GCV slope in log-lambda. Without a sign change the grid minimizer
stands: a row that the spline reproduces to within the rss floor keeps the
largest grid lambda at which it does. The zero is found in two phases:
Illinois regula falsi (Dowell & Jarratt 1971) narrows a sign-change bracket
to the tolerance, then bisection's own path from the grid neighbours is
replayed, calling the slope only for midpoints near that bracket. The answer
is therefore a bisection point, the one plain bisection returns whenever the
slope keeps its sign more than 4 tol away from the bracket, found with
about 15 slope calls instead of 45; unlike a secant point, it does not move
with the last bits of the row.

Each model is made with its one-off spectral (Demmler-Reinsch) form: with
X'X = R'R (Cholesky) and R^{-T} S R^{-1} = U diag(g) U', every quantity of
the penalized fit becomes a diagonal reweighting with d_i = 1/(1 + lam*g_i),
so a full GCV profile costs O(q) per lambda. The two zero entries of g span
the affine functions, which the penalty never touches; that makes
edf = sum(d) land exactly on q at lam = 0 and never fall below 2. A design
whose X'X is not positive definite makes no model (IllPosedFitError).

Every row passes through _project, which checks it once, scales it by a
power of two and computes w = Q'z (Q the design in spectral coordinates) and
the residual rss0 outside the spline space. GCV scores a lambda from edf and
the spectral rss = rss0 + sum((1 - d)^2 w^2): on the grid as one vector with
the denominators the model was made with, off it by _gcv in floats with
the same operations. Choosing lambda and fitting at it are separate calls:
select_lambda returns only the choice, a Selection (lam, edf), and
fit_penalized builds the whole PenalizedFit at a given lambda, with the
scaling undone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

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

# 1 as a 0-d array: a ufunc skips the scalar conversion that a float costs.
_ONE = np.ones(())
_SPECTRAL = {"init": False, "repr": False}     # SplineModel's computed arrays


@dataclass(eq=False)
class SplineModel:
    """Cubic B-spline basis, design and curvature penalty for rows of length m.

    The design is evaluated at sites 1..m, the penalty integrates squared
    second derivatives over [1, m]. __post_init__ computes the spectral
    fields from them, so every model carries the spectrum of its own parts,
    or raises IllPosedFitError. No field changes after construction.
    """

    q: int
    m: int
    knots: np.ndarray = field(repr=False)
    design: np.ndarray = field(repr=False)
    penalty: np.ndarray = field(repr=False)
    gamma: np.ndarray = field(**_SPECTRAL)  # (q,) eigenvalues of R^-T S R^-1, >= 0, ascending
    basis_map: np.ndarray = field(**_SPECTRAL)  # (q, q) spectral coords to coefficients
    ortho_design: np.ndarray = field(**_SPECTRAL)  # (m, q) orthonormal spectral design
    grid_edf: np.ndarray = field(**_SPECTRAL)  # (G,) edf at each LAMBDA_GRID point
    grid_shrink_sq: np.ndarray = field(**_SPECTRAL)  # (G, q) (1 - d)^2 on the grid
    grid_scored: np.ndarray = field(**_SPECTRAL)  # (G,) m - grid_edf >= _GCV_DENOM_TOL
    grid_denom_sq: np.ndarray = field(**_SPECTRAL)  # (G,) max(m - grid_edf, tol)^2

    def __post_init__(self) -> None:
        (self.gamma, self.basis_map, self.ortho_design, self.grid_edf, self.grid_shrink_sq,
         self.grid_scored, self.grid_denom_sq) = _factorize(self.design, self.penalty)

    def factorization(self) -> SplineModel:
        """The model itself, which carries its spectral form since it was made."""
        return self


class Selection(NamedTuple):
    """The GCV choice for one row: lambda and the edf of the fit at it.

    m - edf is at least _GCV_DENOM_TOL: select_lambda returns only points with
    a finite GCV.
    """

    lam: float
    edf: float


@dataclass(frozen=True, eq=False)
class PenalizedFit:
    """Result of one penalized least-squares fit at lam, every field computed
    by fit_penalized. m - edf is at least _GCV_DENOM_TOL."""

    lam: float
    edf: float
    coefficients: np.ndarray
    fitted: np.ndarray
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


def _factorize(design: np.ndarray, penalty: np.ndarray) -> tuple[np.ndarray, ...]:
    """SplineModel's spectral fields, in field order, from its design and penalty."""
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
    grid_edf = shrink.sum(axis=1)
    denom = len(design) - grid_edf  # _gcv's denominator, row-independent on the grid
    return (gamma, basis_map, ortho_design, grid_edf, (1.0 - shrink) ** 2,
            denom >= _GCV_DENOM_TOL, np.maximum(denom, _GCV_DENOM_TOL) ** 2)


def _project(model: SplineModel, z) -> tuple[np.ndarray, np.ndarray, float, float, int]:
    """Check one row and project it onto the spectral basis.

    The row is first scaled by 2^-k, with k the binary exponent of max|z|, so
    that w^2 cannot overflow; the scaling is exact and fit_penalized undoes it.
    Returns (w, w^2, rss0, rss_floor, k) of the scaled row: the spectral
    coordinates w = Q'z, their squares, the rss of the part of z outside the
    spline space, and the rss under which a fit counts as exact. Raises
    DataError for a row of the wrong shape or with non-finite values.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (model.m,):
        raise DataError(f"row must have shape ({model.m},), got {z.shape}")
    mantissa, k = math.frexp(float(np.abs(z).max()))  # nan or inf if any value is
    if not math.isfinite(mantissa):
        raise DataError("row contains non-finite values")
    z = np.ldexp(z, -k)
    w = model.ortho_design.T @ z
    resid0 = z - model.ortho_design @ w
    return w, w * w, float(resid0 @ resid0), _RSS_FLOOR_REL * float(z @ z), k


def _gcv(m: int, edf: float, rss: float, rss_floor: float) -> tuple[float, float]:
    """GCV score m * rss / (m - edf)^2 of one lambda; returns (gcv, floored rss).

    rss under rss_floor counts as 0, and a denominator m - edf under
    _GCV_DENOM_TOL scores inf. ** 2 on a float is libm pow, which rounds like
    numpy's power on a 0-d value (x * x rounds differently for about 0.1% of x).
    """
    rss = rss if rss >= rss_floor else 0.0
    denom = m - edf
    if not denom >= _GCV_DENOM_TOL:
        return math.inf, rss
    return m * rss / denom ** 2, rss


def fit_penalized(model: SplineModel, z: np.ndarray, lam: float) -> PenalizedFit:
    """Solve argmin ||z - X b||^2 + lam * b' S b and attach EDF and GCV.

    Every field is computed here, with the 2^k row scaling of _project undone
    on the coefficients (and so the fitted values), gcv and rss; the rss and
    gcv of a row near the float range are inf. Raises DataError for a
    malformed row or lambda, DegenerateGcvError when m - edf is under tolerance.
    """
    w, w_sq, rss0, rss_floor, k = _project(model, z)
    if not np.isfinite(lam) or lam < 0.0:
        raise DataError(f"lambda must be finite and >= 0, got {lam}")
    d = 1.0 / (1.0 + lam * model.gamma)
    edf = float(d.sum())
    if model.m - edf < _GCV_DENOM_TOL:
        raise DegenerateGcvError(f"m - edf = {model.m - edf:.3e} leaves no "
                                 "residual degrees of freedom")
    gcv, rss = _gcv(model.m, edf, rss0 + float(((1.0 - d) ** 2) @ w_sq), rss_floor)
    with np.errstate(over="ignore"):  # a row near the float range
        coefficients = np.ldexp(model.basis_map @ (d * w), k)
        gcv, rss = float(np.ldexp(gcv, 2 * k)), float(np.ldexp(rss, 2 * k))
    return PenalizedFit(float(lam), edf, coefficients, model.design @ coefficients, gcv, rss)


def _slope_root(slope, lo: float, hi: float, tol: float = 1e-13) -> float | None:
    """Zero of the GCV slope inside [lo, hi], or None without a sign change.

    Returns a point of bisection's path from [lo, hi] down to width tol: the
    one plain bisection returns, unless the slope changes sign more than
    4 tol away from the bracket of phase 1.

    Phase 1 narrows a bracket slope(a) < 0 <= slope(b) to width tol by
    Illinois regula falsi. A secant point is kept at least tol/2 inside the
    bracket, and the midpoint is taken instead when a bracket value is not
    finite or the last three points did not halve the bracket, so a point
    beside the root or a nan does not stall the loop. Phase 2 replays
    bisection from [lo, hi]: a midpoint more than 4 tol outside [a, b] takes
    the side it lies on without a call, and only midpoints near the bracket
    are evaluated. A bisection point moves continuously with the data,
    unlike the comparison path of a value-only search or a secant point, so
    the answer is stable under last-ulp perturbations of the row.
    """
    s_lo, s_hi = slope(lo), slope(hi)
    if not (s_lo < 0.0 < s_hi):
        return None
    a, b, fa, fb, side = lo, hi, s_lo, s_hi, 0
    span3 = span2 = span1 = math.inf  # bracket widths before the last three points
    while b - a > tol:
        x = (a + b) / 2.0
        if b - a <= span3 / 2.0 and 0.0 < fb - fa < math.inf:
            x = min(max(b - fb * (b - a) / (fb - fa), a + tol / 2.0), b - tol / 2.0)
        span3, span2, span1 = span2, span1, b - a
        if not a < x < b:
            break  # no float lies strictly between a and b
        fx = slope(x)
        if fx < 0.0:
            a, fa = x, fx
            if side < 0:
                fb /= 2.0  # Illinois: b kept twice in a row
            side = -1
        else:
            b, fb = x, fx
            if side > 0:
                fa /= 2.0
            side = 1
    left, right = a - 4.0 * tol, b + 4.0 * tol
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if mid <= left or (mid < right and slope(mid) < 0.0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def select_lambda(model: SplineModel, z: np.ndarray) -> Selection:
    """Pick the GCV-minimizing smoothing parameter for one row.

    Grid search over LAMBDA_GRID, then one refinement pass in log-lambda
    between the grid neighbours of the minimizer: the stationary point of
    the GCV curve, located by _slope_root as the bisection point of a zero
    of its analytic slope. The refined candidate only replaces the grid
    minimizer when its score is strictly better; ties resolve toward larger
    lambda (the smoother fit). Without a sign change in the bracket the grid
    minimizer stands, so a row that the spline reproduces to within the rss
    floor keeps the largest grid lambda at which it does. Returns only the
    choice; fit_penalized(model, z, lam) builds the fit at it.
    """
    _, w_sq, rss0, rss_floor, _ = _project(model, z)
    m, gamma = model.m, model.gamma

    # _gcv's rule on the grid, with the row-independent denominator made once per model
    rss_grid = rss0 + model.grid_shrink_sq @ w_sq
    gcv_grid = np.where(model.grid_scored,
                        m * (rss_grid * (rss_grid >= rss_floor)) / model.grid_denom_sq, np.inf)
    last = len(LAMBDA_GRID) - 1
    best = last - int(np.argmin(gcv_grid[::-1]))  # the last of tied minima
    if not math.isfinite(gcv_grid[best]):
        raise DegenerateGcvError("every grid point has a vanishing GCV denominator")

    # one buffer's rows, rewritten in place at each lambda; the first two are
    # summed in one call, which adds each row as the 1-d sum does
    buf = np.empty((5, len(gamma)))
    d, d_om, om, om_sq, d_om_sq = buf  # d, d (1 - d), 1 - d, (1 - d)^2, d (1 - d)^2
    w_sq2 = 2.0 * w_sq  # exact, so d (1 - d)^2 . 2 w^2 rounds like 2 d (1 - d)^2 . w^2

    def shrink_at(log_lam: float) -> tuple[float, float, float]:
        # fills the buffer at lambda; returns edf, sum(d (1 - d)) and the
        # unfloored rss. reciprocal is the same correctly rounded 1 / x.
        np.multiply(gamma, math.exp(log_lam), out=d)
        np.add(d, _ONE, out=d)
        np.reciprocal(d, out=d)
        np.subtract(_ONE, d, out=om)
        np.multiply(d, om, out=d_om)
        np.multiply(om, om, out=om_sq)
        edf, d_om_sum = np.add.reduce(buf[:2], axis=1).tolist()
        return edf, d_om_sum, rss0 + float(om_sq.dot(w_sq))

    def gcv_slope_at(log_lam: float) -> float:
        # sign of dV/drho up to the positive factor m / (m - edf)^3; every
        # value rounds as first written, so every bit stays the same
        edf, d_om_sum, rss = shrink_at(log_lam)
        np.multiply(d, om_sq, out=d_om_sq)
        return float(d_om_sq.dot(w_sq2)) * (m - edf) - 2.0 * rss * d_om_sum

    lo, hi = _LOG_GRID[max(best - 1, 0)], _LOG_GRID[min(best + 1, last)]
    log_ref = _slope_root(gcv_slope_at, lo, hi)
    lam, edf = float(LAMBDA_GRID[best]), float(model.grid_edf[best])
    if log_ref is not None:
        edf_ref, _, rss_ref = shrink_at(log_ref)
        gcv_ref, lam_ref = _gcv(m, edf_ref, rss_ref, rss_floor)[0], math.exp(log_ref)
        if gcv_ref < gcv_grid[best] or (gcv_ref == gcv_grid[best] and lam_ref > lam):
            lam, edf = lam_ref, edf_ref
    return Selection(lam, edf)
