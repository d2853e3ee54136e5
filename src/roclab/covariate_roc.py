"""Covariate-specific and covariate-adjusted ROC estimation.

Induced methodology models each group's outcome distribution given
covariates and derives the conditional curve from the two fits:

* ``faraggi_roc``: normal linear location-scale model in both groups; the
  conditional curve and AUC are closed forms in
  ``a(x) = x~'(beta_ND - beta_D)/sigma_D`` and ``b = sigma_ND/sigma_D``.
* ``pepe_semiparam_roc``: same location-scale mean structure, but the
  error law is left unspecified and replaced by the empirical CDF of the
  standardized residuals.
* ``ddp_fit`` / ``ddp_roc``: Bayesian linear dependent Dirichlet process
  mixture: a common set of stick-breaking weights with component means
  ``z' beta_l``, where ``z`` is a design row (typically an intercept plus
  a cubic B-spline basis, see ``bspline_design``).  The draws form a
  ``MixtureEnsemble`` with (S, L, d) coefficients.

Direct methodology regresses the curve itself on covariates through
placement values (``rocglm_fit``), and ``aroc`` pools covariate-specific
curves into the covariate-adjusted ROC.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import core
from .core import as_prob_grid, default_prob_grid, std_normal_cdf, validate_sample
from .errors import (ConvergenceError, DegenerateSampleError, ExtrapolationError,
                     InvalidInputError, NumericError, SeparationWarning,
                     SingularDesignError)
from .indices import YoudenResult, _clamped_trapezoid, youden_from_cdfs
from .pooled_roc import (_BLOCK, DpmConfig, MixtureEnsemble, PosteriorEnsemble,
                         RocCurveEstimate, _blocked_gibbs,
                         _ensemble_from_mixture_arrays, _exact_fit,
                         _mean_mixture_cdf, empirical_roc)


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class RegressionSample:
    """Outcomes with a design matrix whose first column is the intercept."""

    outcomes: np.ndarray
    design: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        y = validate_sample(self.outcomes, "outcomes")
        x = np.asarray(self.design, dtype=float)
        if x.ndim != 2 or x.shape[0] != y.size:
            raise InvalidInputError("design must be a matrix with one row per outcome")
        if not np.all(np.isfinite(x)):
            raise InvalidInputError("design contains non-finite values")
        if not np.all(x[:, 0] == 1.0):
            raise InvalidInputError("first design column must be the all-ones intercept")
        labels = self.labels
        if labels is None:
            labels = ("intercept",) + tuple(f"x{i}" for i in range(1, x.shape[1]))
        elif len(labels) != x.shape[1]:
            raise InvalidInputError("one label per design column required")
        object.__setattr__(self, "outcomes", y)
        object.__setattr__(self, "design", x)
        object.__setattr__(self, "labels", tuple(labels))

    @property
    def n(self) -> int:
        return int(np.asarray(self.outcomes).size)


@dataclass(frozen=True)
class LocationScaleFit:
    """Linear location-scale fit: coefficients, residual scale, residuals."""

    beta: np.ndarray
    sigma: float
    residuals: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.sigma) or self.sigma <= 0.0:
            raise InvalidInputError("sigma must be positive")
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "residuals",
                           validate_sample(self.residuals, "residuals"))

    def mean_at(self, x) -> float:
        """Fitted location at covariate vector ``x`` (without intercept)."""
        xt = np.concatenate([[1.0], np.atleast_1d(np.asarray(x, dtype=float)).ravel()])
        if xt.size != self.beta.size:
            raise InvalidInputError(
                f"covariate vector of length {xt.size - 1} does not match "
                f"{self.beta.size - 1} fitted covariates")
        if not np.all(np.isfinite(xt)):
            raise InvalidInputError(f"covariate values must be finite, got {xt[1:].tolist()}")
        return float(xt @ self.beta)


@dataclass(frozen=True)
class BSplineSpec:
    """Cubic B-spline layout: interior knots inside a boundary interval."""

    interior_knots: tuple[float, ...]
    boundary: tuple[float, float]
    degree: int = 3

    def __post_init__(self):
        if self.degree != 3:
            raise InvalidInputError("only cubic (degree 3) splines are supported")
        lo, hi = float(self.boundary[0]), float(self.boundary[1])
        if not lo < hi:
            raise InvalidInputError("boundary knots must be an increasing pair")
        ik = tuple(float(k) for k in self.interior_knots)
        if any(not lo < k < hi for k in ik):
            raise InvalidInputError("interior knots must lie strictly inside the boundary")
        if list(ik) != sorted(ik):
            raise InvalidInputError("interior knots must be sorted")
        object.__setattr__(self, "interior_knots", ik)
        object.__setattr__(self, "boundary", (lo, hi))

    @classmethod
    def from_data(cls, x_values, n_interior: int = 3) -> "BSplineSpec":
        """Knots at evenly spaced sample quantiles, boundary at min/max."""
        x = validate_sample(x_values, "covariate", min_size=2)
        lo, hi = float(x.min()), float(x.max())
        if not lo < hi:
            raise DegenerateSampleError("constant covariate: no spline layout")
        probs = np.linspace(0.0, 1.0, n_interior + 2)[1:-1]
        interior = tuple(float(v) for v in np.quantile(x, probs)
                         if lo < float(v) < hi)
        return cls(interior_knots=interior, boundary=(lo, hi))

    @property
    def n_basis(self) -> int:
        return len(self.interior_knots) + self.degree + 1

    def knot_vector(self) -> np.ndarray:
        lo, hi = self.boundary
        return np.array([lo] * (self.degree + 1) + list(self.interior_knots)
                        + [hi] * (self.degree + 1))


# the dependent mixture shares the pooled mixture's sampler and settings
DdpConfig = DpmConfig


# ---------------------------------------------------------------------------
# location-scale fits and induced curves


def ols_fit(sample: RegressionSample) -> LocationScaleFit:
    """Ordinary least squares with scale ``sqrt(RSS / (n - q - 1))``.

    ``q + 1`` is the number of design columns (intercept included), so the
    intercept-only model uses the familiar ``n - 1`` denominator.  The
    returned residuals are standardized by the fitted scale.
    """
    y, x = sample.outcomes, sample.design
    n, ncol = x.shape
    if n <= ncol:
        raise InvalidInputError(f"need more than {ncol} observations, got {n}")
    beta, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < ncol:
        raise SingularDesignError(f"design rank {rank} below column count {ncol}")
    resid = y - x @ beta
    with np.errstate(over="ignore"):  # _exact_fit names an overflow
        sigma2 = float(resid @ resid) / (n - ncol)
    if _exact_fit(y, sigma2):
        raise DegenerateSampleError("zero residual variance: exact linear fit")
    sigma = math.sqrt(sigma2)
    return LocationScaleFit(beta=beta, sigma=sigma, residuals=resid / sigma)


def _roc_scale_params(fit_d: LocationScaleFit, fit_nd: LocationScaleFit, x):
    a_x = (fit_nd.mean_at(x) - fit_d.mean_at(x)) / fit_d.sigma
    b = fit_nd.sigma / fit_d.sigma
    return a_x, b


def faraggi_roc(fit_d: LocationScaleFit, fit_nd: LocationScaleFit, x,
                grid=None) -> RocCurveEstimate:
    """Normal-theory conditional ROC at covariate vector ``x``.

    ``roc(p) = 1 - Phi(a(x) + b Phi^{-1}(1-p))`` with the closed-form
    ``auc = Phi(-a(x) / sqrt(1 + b^2))``.
    """
    grid = default_prob_grid() if grid is None else as_prob_grid(grid)
    a_x, b = _roc_scale_params(fit_d, fit_nd, x)
    roc = np.where(grid <= 0.0, 0.0, 1.0)
    interior = (grid > 0.0) & (grid < 1.0)
    roc[interior] = 1.0 - core.ndtr(a_x + b * core.ndtri(1.0 - grid[interior]))
    auc = std_normal_cdf(-a_x / math.sqrt(1.0 + b * b))
    return RocCurveEstimate(grid=grid, roc=roc, auc=auc)


def pepe_semiparam_roc(fit_d: LocationScaleFit, fit_nd: LocationScaleFit, x,
                       grid=None) -> RocCurveEstimate:
    """Semiparametric conditional ROC via standardized-residual ECDFs.

    The curve is ``1 - Fhat_eD(a(x) + b Qhat_eND(1-p))`` with residual
    ECDF/quantile in place of the normal law: since ``b > 0`` the map
    ``e -> a(x) + b e`` keeps the order of the residuals, so this is
    ``empirical_roc`` of the diseased residuals against the mapped
    nondiseased ones, with its exact rank rule (with intercept-only fits,
    the empirical curve of the two samples).  The AUC is the conditional
    Mann-Whitney form: the fraction of residual pairs with
    ``mu_ND(x) + sigma_ND e_NDi <= mu_D(x) + sigma_D e_Dj`` (ties count
    fully, matching the closed-form expression for continuous data).
    """
    a_x, b = _roc_scale_params(fit_d, fit_nd, x)
    curve = empirical_roc(fit_d.residuals, a_x + b * fit_nd.residuals, grid)
    v_d = fit_d.mean_at(x) + fit_d.sigma * fit_d.residuals
    v_nd = np.sort(fit_nd.mean_at(x) + fit_nd.sigma * fit_nd.residuals)
    pairs = int(np.searchsorted(v_nd, v_d, side="right").sum())
    return RocCurveEstimate(grid=curve.grid, roc=curve.roc,
                            auc=pairs / (v_d.size * v_nd.size))


def location_scale_cdf(fit: LocationScaleFit, errors: str = "empirical"):
    """Conditional CDF ``F(y | x)`` induced by a location-scale fit.

    ``errors="empirical"`` uses the standardized-residual ECDF (the
    default, no distributional assumption); ``errors="normal"`` uses the
    standard normal law.  Returns ``cdf(y, x)`` with ``x`` the covariate
    vector without intercept.
    """
    if errors not in ("empirical", "normal"):
        raise InvalidInputError("errors must be 'empirical' or 'normal'")
    if errors == "normal":
        law = core.ndtr
    else:
        res = np.sort(fit.residuals)

        def law(z):
            return np.searchsorted(res, z, side="right") / res.size

    def cdf(y, x):
        out = law((np.asarray(y, dtype=float) - fit.mean_at(x)) / fit.sigma)
        return float(out) if np.ndim(y) == 0 else out

    return cdf


# ---------------------------------------------------------------------------
# B-spline designs and the dependent mixture


def _bspline_basis(x: np.ndarray, t: np.ndarray, k: int) -> np.ndarray:
    """Every degree-``k`` B-spline on knots ``t`` at ``x`` in ``[t[k], t[-k-1]]``.

    Cox-de Boor's triangular recursion on each point's ``k + 1`` nonzero
    splines, in the operation order of FITPACK's ``fpbspl`` (as scipy's
    ``BSpline`` evaluates them): a point on a knot belongs to the
    interval on its right, the right boundary to the last interval.
    """
    n_basis = t.size - k - 1
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, k, n_basis - 1)
    vals = np.zeros((x.size, k + 1))
    vals[:, 0] = 1.0
    for j in range(1, k + 1):
        prev = vals[:, :j].copy()
        vals[:, 0] = 0.0
        for m in range(1, j + 1):
            right, left = t[ell + m], t[ell + m - j]
            # a zero-length span (repeated knot) carries no spline
            w = np.divide(prev[:, m - 1], right - left, out=np.zeros(x.size),
                          where=right > left)
            vals[:, m - 1] += w * (right - x)
            vals[:, m] = w * (x - left)
    basis = np.zeros((x.size, n_basis))
    basis[np.arange(x.size)[:, None], ell[:, None] + np.arange(-k, 1)] = vals
    return basis


def bspline_design(x_values, spec: BSplineSpec, categorical=None,
                   interactions: bool = False) -> np.ndarray:
    """Design matrix: intercept, cubic B-spline basis, dummies, interactions.

    The basis columns form a partition of unity over the boundary interval
    (so the matrix is deliberately column-rank deficient by one; the
    Bayesian fit regularizes through its proper prior).  ``categorical``
    is an optional sequence of label columns; each contributes
    reference-coded dummy columns, and ``interactions=True`` additionally
    crosses every basis column with every dummy.

    Raises an extrapolation error when any ``x`` lies outside the boundary.
    """
    x = validate_sample(x_values, "covariate")
    lo, hi = spec.boundary
    if np.any(x < lo) or np.any(x > hi):
        bad = int(np.argmax((x < lo) | (x > hi)))
        raise ExtrapolationError(
            f"covariate value {x[bad]} outside spline boundary [{lo}, {hi}]")
    basis = _bspline_basis(x, spec.knot_vector(), spec.degree)
    cols = [np.ones((x.size, 1)), basis]
    dummies = []
    if categorical is not None:
        for col in categorical:
            vals = np.asarray(col)
            if vals.shape != (x.size,):
                raise InvalidInputError("categorical columns must match x in length")
            levels = np.unique(vals)
            for lev in levels[1:]:  # first level is the reference
                dummies.append((vals == lev).astype(float))
    if dummies:
        dummy_mat = np.column_stack(dummies)
        cols.append(dummy_mat)
        if interactions:
            inter = basis[:, :, None] * dummy_mat[:, None, :]
            cols.append(inter.reshape(x.size, -1))
    return np.hstack(cols)


def ddp_fit(sample: RegressionSample, cfg: DdpConfig) -> MixtureEnsemble:
    """Fit the single-weights dependent mixture by blocked Gibbs.

    The model is ``y_i ~ sum_l w_l N(x_i' beta_l, 1/tau_l)`` with
    stick-breaking weights shared across covariate values, a conjugate
    normal prior on each coefficient vector and a gamma prior on each
    precision (see ``DdpConfig``, the same class as ``DpmConfig``).  It
    runs the sampler behind ``dpm_fit``: with an intercept-only design the
    two give identical chains for the same ``cfg``.

    Rank-deficient designs (e.g. intercept plus a full partition-of-unity
    spline basis) are accepted: the proper prior keeps every conditional
    well defined, and default centring uses the minimum-norm least-squares
    solution.  Returns a ``MixtureEnsemble`` with (S, L, d) coefficients.
    """
    return MixtureEnsemble(*_blocked_gibbs(sample.outcomes, sample.design, cfg))


def ddp_roc(draws_d, draws_nd, z, grid=None, *, z_nd=None,
            youden: bool = False) -> PosteriorEnsemble:
    """Conditional posterior ROC ensemble at design row ``z``.

    ``draws_d``/``draws_nd`` are ``ddp_fit`` ensembles or equal-length
    sequences of ``DdpDraw``.  ``z`` is the design row (intercept, basis,
    dummies) at the covariate value of interest, built the same way as the
    fit designs; ``z_nd`` overrides it for the nondiseased group when the
    groups use different designs.  Per-draw curves and closed-form AUCs
    mirror the pooled mixture ensemble with component means ``z' beta_l``,
    in the same forked parts above the same floor as ``dpm_roc``.
    """
    ens_d, ens_nd = MixtureEnsemble.from_draws(draws_d), MixtureEnsemble.from_draws(draws_nd)
    z = np.asarray(z, dtype=float).ravel()
    z2 = z if z_nd is None else np.asarray(z_nd, dtype=float).ravel()
    return _ensemble_from_mixture_arrays(*ens_d._normals(z), *ens_nd._normals(z2),
                                         grid, youden)


def ddp_conditional_cdf(draws, design_fn):
    """Posterior-mean conditional CDF from dependent-mixture draws.

    ``draws`` is a ``ddp_fit`` ensemble or a sequence of ``DdpDraw``;
    ``design_fn(x)`` must return the design row for covariate vector ``x``.
    The returned ``cdf(y, x)`` averages the mixture CDF over draws.
    """
    ensemble = MixtureEnsemble.from_draws(draws)

    def cdf(y, x):
        z_row = np.asarray(design_fn(x), dtype=float).ravel()
        return _mean_mixture_cdf(*ensemble._normals(z_row), y)

    return cdf


# ---------------------------------------------------------------------------
# direct methodology: placement values, ROC-GLM, AROC


def placement_values(sample_d: RegressionSample, nondiseased_cdf) -> np.ndarray:
    """Nondiseased-referenced standardization ``1 - F_ND(y_j | x_j)``."""
    y = sample_d.outcomes
    xs = sample_d.design[:, 1:]
    pv = np.array([1.0 - float(nondiseased_cdf(y[j], xs[j])) for j in range(y.size)])
    if np.any(pv < -1e-9) or np.any(pv > 1.0 + 1e-9):
        raise NumericError("conditional CDF produced values outside [0, 1]")
    return np.clip(pv, 0.0, 1.0)


def _ispline_basis(p: np.ndarray, interior_knots: tuple[float, ...]) -> np.ndarray:
    """Monotone (integrated B-spline) basis on [0, 1], each column 0 to 1.

    Column i is the antiderivative of cubic B-spline i over its value at
    1.  With ``tau`` the cubic knots, that antiderivative is the sum of the
    degree-4 B-splines after i, on ``tau`` extended by one knot at each
    end, each times ``(tau[i+4] - tau[i]) / 4``; the products are summed
    in spline order, which gives the bits of scipy's
    ``BSpline(tau, e_i, 3).antiderivative()``.
    """
    t = np.array([0.0] * 5 + list(interior_knots) + [1.0] * 5)
    m = len(interior_knots) + 4
    quartic = _bspline_basis(np.append(p, 1.0), t, 4)
    coef = (t[5:m + 5] - t[1:m + 1]) / 4.0
    cols = []
    for i in range(m):
        anti = np.add.accumulate(coef[i] * quartic[:, i + 1:], axis=1)[:, -1]
        cols.append(anti[:-1] / anti[-1])
    return np.column_stack(cols)


def _baseline_matrix(p: np.ndarray, knots: tuple[float, ...] | None) -> np.ndarray:
    """ROC-GLM baseline regressors at ``p``: ``(1, Phi^{-1}(p))``, or with
    spline ``knots`` an intercept and the monotone basis on them."""
    if knots is None:
        return np.column_stack([np.ones(p.size), core.ndtri(p)])
    return np.column_stack([np.ones(p.size), _ispline_basis(p, knots)])


@dataclass(frozen=True)
class RocGlmFit:
    """Fitted direct ROC regression (probit link).

    ``alpha`` holds the baseline coefficients (intercept first), ``beta``
    the covariate effects in design-column order.  ``curve(x, grid)``
    evaluates the implied conditional curve, with the p=0 and p=1 values
    pinned to their theoretical limits.
    """

    alpha: np.ndarray
    beta: np.ndarray
    baseline: str
    p_grid: np.ndarray
    labels: tuple[str, ...]
    converged: bool
    n_iter: int
    spline_knots: tuple[float, ...] | None = None

    def curve(self, x=None, grid=None) -> RocCurveEstimate:
        """Conditional ROC curve at covariate vector ``x`` (None = no covariates)."""
        grid = default_prob_grid() if grid is None else as_prob_grid(grid)
        xv = np.zeros(0) if x is None else np.atleast_1d(np.asarray(x, dtype=float))
        if xv.size != self.beta.size:
            raise InvalidInputError(
                f"expected {self.beta.size} covariate values, got {xv.size}")
        if not np.all(np.isfinite(xv)):
            raise InvalidInputError(f"covariate values must be finite, got {xv.tolist()}")
        shift = float(xv @ self.beta) if self.beta.size else 0.0
        roc = np.where(grid <= 0.0, 0.0, 1.0)
        interior = (grid > 0.0) & (grid < 1.0)
        if np.any(interior):
            h = _baseline_matrix(grid[interior], self.spline_knots)
            roc[interior] = core.ndtr(h @ self.alpha + shift)
        return RocCurveEstimate(grid=grid, roc=roc, auc=_clamped_trapezoid(roc, grid))


_LH_STEPS_PER_COLUMN = 10


def _nonneg_lstsq(r: np.ndarray, c: np.ndarray, bounded: np.ndarray,
                  rcond: float | None = None) -> np.ndarray:
    """Exact ``argmin ||a x - b||`` subject to ``x[bounded] >= 0``, given the
    triangular system ``R x ~ Q'b`` of a QR factorisation ``a = Q R``.

    ``||a x - b||^2 = ||R x - Q'b||^2 + const``, so the small system holds
    the whole problem.  It is solved by Lawson and Hanson's active-set
    method (*Solving Least Squares Problems*, 1974, ch. 23) with the
    unbounded columns always free.  A bounded column at its bound enters
    the free set when the gradient favours it most; a step that would take
    a free bounded coefficient below zero stops where the first one
    reaches zero, and that one returns to its bound as exactly 0.0.  Each
    subproblem is a minimum-norm ``lstsq`` with rank cut ``rcond`` (pass
    the one a solve on ``a`` would use, which ``R`` alone does not carry),
    so rank-deficient designs are fine.  More than ``_LH_STEPS_PER_COLUMN * (columns + 1)`` entering and
    leaving steps raise a convergence error.
    """
    n = r.shape[1]
    limit = _LH_STEPS_PER_COLUMN * (n + 1)
    tol = 10.0 * n * np.finfo(float).eps * np.linalg.norm(r) * np.linalg.norm(c)

    def solve(free: np.ndarray) -> np.ndarray:
        z = np.zeros(n)
        z[free] = np.linalg.lstsq(r[:, free], c, rcond=rcond)[0]
        return z

    free = ~bounded
    x = z = solve(free)
    stuck = np.zeros(n, dtype=bool)  # entered, but rounding left them at <= 0
    for _ in range(limit + 1):  # the last pass may only find x optimal
        low = free & bounded & (z <= 0.0)
        if low.any():  # leave: walk from x towards z until a coefficient is 0
            ratio = np.where(low, x / np.where(low, x - z, 1.0), np.inf)
            k = int(np.argmin(ratio))
            x = x + ratio[k] * (z - x)
            leave = free & bounded & (x <= 0.0)
            leave[k] = True
            x[leave] = 0.0
            free &= ~leave
            z = solve(free)
            continue
        x = z
        grad = r.T @ (c - r @ x)  # minus the gradient of half the squared norm
        enter = bounded & ~free & ~stuck & (grad > tol)
        if not enter.any():
            return x
        j = int(np.argmax(np.where(enter, grad, -np.inf)))
        free[j] = True
        z = solve(free)
        if z[j] <= 0.0:
            free[j], stuck[j], z = False, True, x
        else:
            stuck[:] = False
    raise ConvergenceError(f"bounded least squares did not converge in {limit} steps")


def rocglm_fit(sample_d: RegressionSample, nondiseased_cdf, p_grid=None,
               baseline: str = "parametric") -> RocGlmFit:
    """Direct ROC regression through placement-value indicators.

    The five-step procedure: fix a set of FPF points; form each diseased
    subject's placement value under the conditional nondiseased CDF; build
    binary indicators ``u_jl = I(pv_j <= p_l)``; take one record per
    (subject, FPF point) with regressors ``(h(p_l), x_j)``; and fit the
    probit-link binary regression by iteratively reweighted least squares.

    ``baseline="parametric"`` uses ``h(p) = (1, Phi^{-1}(p))``, so with no
    covariates the fit is the binormal curve ``Phi(a + b Phi^{-1}(p))``;
    ``baseline="spline"`` uses an intercept plus a monotone integrated
    B-spline basis with nonnegative coefficients.

    The records are never stacked.  The linear predictor is
    ``eta_jl = (h alpha)_l + (x beta)_j``, and each IRLS step walks the
    subjects in blocks whose weighted records fill at most ``_BLOCK``
    elements.  Each block's rows are folded into one running triangular
    factor of the weighted least squares, with its ``Q'z`` (tall-skinny
    QR: Demmel, Grigori, Hoemmen and Langou 2012, *SIAM J. Sci. Comput.*
    34:A206), and both baselines solve that small system by
    ``_nonneg_lstsq``, which with no bounded column (the parametric
    baseline) is one minimum-norm least squares.  The deviance is summed
    over the same blocks, so memory does not grow with the number of FPF
    points times subjects.

    Raises a convergence error after 100 IRLS iterations; near-separated
    indicator sets produce a warning and clamped estimates.
    """
    if baseline not in ("parametric", "spline"):
        raise InvalidInputError("baseline must be 'parametric' or 'spline'")
    if p_grid is None:
        p_grid = np.arange(1, 51) / 51.0
    else:
        p_grid = as_prob_grid(p_grid)
        if p_grid[0] <= 0.0 or p_grid[-1] >= 1.0:
            raise InvalidInputError("p_grid must lie strictly inside (0, 1)")
    pv = placement_values(sample_d, nondiseased_cdf)
    n, n_p = pv.size, p_grid.size
    if np.all(pv <= p_grid[0]) or np.all(pv > p_grid[-1]):
        # every placement value on the same side of the whole grid: the
        # baseline intercept has no finite maximizer
        warnings.warn("placement-value indicators are all identical; the "
                      "groups look completely separated and estimates are "
                      "clamped", SeparationWarning)

    knots = (0.25, 0.5, 0.75) if baseline == "spline" else None
    h = _baseline_matrix(p_grid, knots)
    covs = sample_d.design[:, 1:]
    n_base = h.shape[1]
    n_coef = n_base + covs.shape[1]

    bounded = np.zeros(n_coef, dtype=bool)
    if baseline == "spline":
        bounded[1:n_base] = True  # monotone baseline: spline coefficients >= 0
    # subjects per block: their weighted records and working response,
    # n_p rows of n_coef + 1 columns each, fill at most _BLOCK elements
    per_block = max(1, _BLOCK // (n_p * (n_coef + 1)))
    # the rank cut of a least-squares solve on the records themselves
    rcond = np.finfo(float).eps * max(n * n_p, n_coef)

    def blocks(b: np.ndarray):
        # (subjects, eta, indicators) of each block, in subject order
        hb, xb = h @ b[:n_base], covs @ b[n_base:]
        for start in range(0, n, per_block):
            rows = slice(start, start + per_block)
            yield rows, hb + xb[rows, None], pv[rows, None] <= p_grid

    def deviance(b: np.ndarray) -> float:
        total = 0.0
        for _, eta, u in blocks(b):
            mu = np.clip(core.ndtr(eta), 1e-12, 1.0 - 1e-12)
            total += float(np.where(u, np.log(mu), np.log1p(-mu)).sum())
        return -2.0 * total

    def weighted_system(b: np.ndarray):
        # R and Q'z of the IRLS step's weighted least squares: each block's
        # rows go under the running factor (with Q'z as its last column,
        # so mode "r" keeps it) and are factored again
        fold = np.zeros((n_coef + 1, n_coef + 1))
        for rows, eta, u in blocks(b):
            eta = np.clip(eta, -8.0, 8.0)
            mu = np.clip(core.ndtr(eta), 1e-10, 1.0 - 1e-10)
            dens = np.maximum(np.exp(-0.5 * eta * eta) / math.sqrt(2.0 * math.pi), 1e-10)
            sw = np.sqrt(dens * dens / (mu * (1.0 - mu)))
            stacked = np.empty((n_coef + 1 + sw.size, n_coef + 1))
            stacked[:n_coef + 1] = fold
            records = stacked[n_coef + 1:].reshape(*sw.shape, n_coef + 1)
            records[..., :n_base] = h * sw[..., None]
            records[..., n_base:n_coef] = covs[rows, None, :] * sw[..., None]
            records[..., n_coef] = (eta + (u - mu) / dens) * sw
            fold = np.linalg.qr(stacked, mode="r")
        return fold[:n_coef, :n_coef], fold[:n_coef, n_coef]

    beta = np.zeros(n_coef)
    dev = deviance(beta)
    converged = False
    it = 0
    for it in range(1, 101):
        r, c = weighted_system(beta)
        proposal = _nonneg_lstsq(r, c, bounded, rcond)
        new_dev = deviance(proposal)
        halvings = 0
        while new_dev > dev + 1e-10 and halvings < 30:
            proposal = 0.5 * (proposal + beta)
            new_dev = deviance(proposal)
            halvings += 1
        step = float(np.max(np.abs(proposal - beta)))
        beta = proposal
        if abs(dev - new_dev) <= 1e-8 * (1.0 + abs(dev)) or step <= 1e-8:
            dev = new_dev
            converged = True
            break
        dev = new_dev
    if not converged:
        raise ConvergenceError("IRLS did not converge within 100 iterations")
    # rounding is monotone, so the largest and smallest eta_jl are the sums
    # of the largest and of the smallest terms
    hb, xb = h @ beta[:n_base], covs @ beta[n_base:]
    if max(hb.max() + xb.max(), -(hb.min() + xb.min())) >= 8.0 - 1e-9:
        warnings.warn("placement-value indicators look separated; estimates "
                      "were clamped at the working-response bound", SeparationWarning)

    labels = tuple(f"h{i}" for i in range(n_base)) + tuple(sample_d.labels[1:])
    return RocGlmFit(alpha=beta[:n_base], beta=beta[n_base:], baseline=baseline,
                     p_grid=p_grid, labels=labels, converged=converged,
                     n_iter=it, spline_knots=knots)


def aroc(sample_d: RegressionSample, nondiseased_cdf, grid=None) -> RocCurveEstimate:
    """Covariate-adjusted ROC: the ECDF of conditional placement values.

    ``AROC(p) = (1/n_D) sum_j I(1 - F_ND(y_j | x_j) <= p)``; the attached
    AUC integrates this step function over the grid by trapezoid.
    """
    grid = default_prob_grid() if grid is None else as_prob_grid(grid)
    pv = np.sort(placement_values(sample_d, nondiseased_cdf))
    roc = np.searchsorted(pv, grid, side="right") / pv.size
    return RocCurveEstimate(grid=grid, roc=roc, auc=_clamped_trapezoid(roc, grid))


# ---------------------------------------------------------------------------
# conditional Youden index


def location_scale_youden(fit_d: LocationScaleFit, fit_nd: LocationScaleFit, x,
                          errors: str = "empirical") -> YoudenResult:
    """Youden index at covariate ``x`` from two location-scale fits.

    Conditional CDFs follow ``location_scale_cdf``; with empirical errors
    the induced support points at ``x`` are used as exact candidate
    thresholds.
    """
    mu_d, mu_nd = fit_d.mean_at(x), fit_nd.mean_at(x)
    vals_d = mu_d + fit_d.sigma * fit_d.residuals
    vals_nd = mu_nd + fit_nd.sigma * fit_nd.residuals
    lo = float(min(vals_d.min(), vals_nd.min()))
    hi = float(max(vals_d.max(), vals_nd.max()))
    span = 3.0 * max(fit_d.sigma, fit_nd.sigma)
    cdf_d = location_scale_cdf(fit_d, errors)
    cdf_nd = location_scale_cdf(fit_nd, errors)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    cands = np.concatenate([vals_d, vals_nd]) if errors == "empirical" else None
    return youden_from_cdfs(lambda c: cdf_d(c, xv), lambda c: cdf_nd(c, xv),
                            lo - span, hi + span, candidates=cands)
