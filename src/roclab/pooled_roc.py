"""Pooled (no-covariate) ROC estimation.

Four estimators of ``ROC(p) = 1 - F_D(F_ND^{-1}(1-p))`` from two samples:

* ``empirical_roc`` / ``empirical_auc``: plug-in ECDFs; the AUC is the
  Mann-Whitney statistic with half credit for ties.
* ``kernel_roc`` / ``kernel_auc``: normal-kernel smoothed CDFs with
  Silverman or cross-validated bandwidths; the AUC has a closed form.
* ``bb_roc``: Bayesian bootstrap ensemble; each draw reweights both
  samples with flat Dirichlet weights.
* ``dpm_fit`` / ``dpm_roc`` / ``dpm_auc``: Dirichlet process mixture of
  normals per group, fit by truncated blocked Gibbs into a
  ``MixtureEnsemble``; the per-draw AUC again has a closed form.

Smooth CDFs (kernel and mixture) are inverted by safeguarded Newton
iteration, started from a short per-draw table of the CDF that brackets
every root and interpolates its first guess; the empirical estimator
resolves quantile ranks in exact integer arithmetic so grid probabilities
that sit exactly on ECDF jumps are handled deterministically.  Sums over
kernel or mixture components run in bounded blocks, so memory stays linear
in the sample size.  The kernel AUC evaluates the normal CDF only for pairs
inside the window where it is neither exactly 1 nor below 5.3e-17.  With
``youden=True`` the mixture estimators search every draw's Youden index in
one batched pass (``indices._youden_search``) that gives the same bits as a
``youden_from_cdfs`` call per draw.

Independent blocks (the kernel AUC's row blocks, the kernel CDF's point
blocks, the component blocks of ``_mixture_sums``, the draw blocks of the
inversion and the curve evaluation, and the Youden scan's draw blocks) run
through ``core.ordered_map`` on one thread per usable CPU.  Each block
computes what the serial loop would and results combine in block order, so
outputs do not depend on the thread count.  Block sizes are fixed by the
inputs (mostly ``_BLOCK`` elements per buffer), so each extra thread adds
at most one block's buffers to the peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (SeedSpec, as_prob_grid, default_prob_grid, dirichlet_uniform,
                   ordered_map, validate_sample)
from .errors import DegenerateSampleError, InvalidInputError, NumericError
from .indices import _youden_search


@dataclass(frozen=True)
class RocCurveEstimate:
    """A ROC curve on a probability grid, with its AUC and optional bands."""

    grid: np.ndarray
    roc: np.ndarray
    auc: float
    band_lo: np.ndarray | None = None
    band_hi: np.ndarray | None = None
    auc_ci: tuple[float, float] | None = None

    def __post_init__(self):
        grid = as_prob_grid(self.grid)
        roc = np.asarray(self.roc, dtype=float)
        if roc.shape != grid.shape:
            raise InvalidInputError("roc and grid lengths differ")
        if np.any(roc < -1e-9) or np.any(roc > 1.0 + 1e-9):
            raise InvalidInputError("roc values outside [0, 1]")
        if grid[-1] == 1.0 and abs(roc[-1] - 1.0) > 1e-6:
            raise InvalidInputError("roc at p=1 must equal 1")
        if not np.isfinite(self.auc) or not -1e-9 <= self.auc <= 1.0 + 1e-9:
            raise InvalidInputError(f"auc {self.auc} is not a probability")
        for name in ("band_lo", "band_hi"):
            band = getattr(self, name)
            if band is not None and np.asarray(band).shape != grid.shape:
                raise InvalidInputError(f"{name} and grid lengths differ")
        if self.band_lo is not None and self.band_hi is not None:
            lo = np.asarray(self.band_lo, dtype=float)
            hi = np.asarray(self.band_hi, dtype=float)
            if np.any(lo > roc + 1e-12) or np.any(hi < roc - 1e-12):
                raise InvalidInputError("bands must bracket the curve")


@dataclass(frozen=True)
class PosteriorEnsemble:
    """S posterior ROC draws on a common grid, with per-draw AUCs.

    ``yis``, ``thresholds`` and ``p_stars`` are filled when the producing
    estimator was asked to track the Youden index per draw.
    """

    grid: np.ndarray
    curves: np.ndarray
    aucs: np.ndarray
    yis: np.ndarray | None = None
    thresholds: np.ndarray | None = None
    p_stars: np.ndarray | None = None

    def __post_init__(self):
        grid = as_prob_grid(self.grid)
        curves = np.asarray(self.curves, dtype=float)
        aucs = np.asarray(self.aucs, dtype=float)
        if curves.ndim != 2 or curves.shape[1] != grid.size:
            raise InvalidInputError("curves must have shape (S, len(grid))")
        if curves.shape[0] < 1:
            raise InvalidInputError("ensemble needs at least one draw")
        if aucs.shape != (curves.shape[0],):
            raise InvalidInputError("one auc per draw required")
        if np.any(curves < -1e-9) or np.any(curves > 1.0 + 1e-9):
            raise InvalidInputError("curve values outside [0, 1]")

    @property
    def n_draws(self) -> int:
        return int(np.asarray(self.curves).shape[0])

    def summarize(self, level: float = 0.95) -> RocCurveEstimate:
        """Ensemble mean curve with equal-tail pointwise percentile bands."""
        if not 0.0 < level < 1.0:
            raise InvalidInputError("level must be in (0, 1)")
        tail = 100.0 * (1.0 - level) / 2.0
        curves = np.asarray(self.curves, dtype=float)
        mean = curves.mean(axis=0)
        lo = np.percentile(curves, tail, axis=0)
        hi = np.percentile(curves, 100.0 - tail, axis=0)
        # percentile bands bracket the mean in all but pathological
        # ensembles; nudge so the estimate invariant always holds
        lo = np.minimum(lo, mean)
        hi = np.maximum(hi, mean)
        aucs = np.asarray(self.aucs, dtype=float)
        auc_ci = (float(np.percentile(aucs, tail)), float(np.percentile(aucs, 100.0 - tail)))
        return RocCurveEstimate(grid=self.grid, roc=mean, auc=float(aucs.mean()),
                                band_lo=lo, band_hi=hi, auc_ci=auc_ci)

    def youden_summary(self, level: float = 0.95) -> dict | None:
        """Posterior mean and equal-tail interval for yi, c* and p*."""
        if self.yis is None:
            return None
        tail = 100.0 * (1.0 - level) / 2.0
        return {name: (float(np.mean(v)), float(np.percentile(v, tail)),
                       float(np.percentile(v, 100.0 - tail)))
                for name, v in (("yi", self.yis), ("c_star", self.thresholds),
                                ("p_star", self.p_stars))}


def _checked_mixture(weights, locations, variances, w_ndim: int, loc_ndims: tuple):
    # the arrays as floats once they pass the rules of every mixture draw,
    # with L >= 1 components on the last axis of weights and variances
    w, loc, var = (np.asarray(v, dtype=float) for v in (weights, locations, variances))
    if (w.ndim != w_ndim or w.shape[-1] < 1 or var.shape != w.shape
            or loc.ndim not in loc_ndims or loc.shape[:w_ndim] != w.shape):
        raise InvalidInputError(f"mixture weights {w.shape}, locations {loc.shape} and "
                                f"variances {var.shape} do not match")
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(loc)) and np.all(np.isfinite(var))):
        raise InvalidInputError("mixture draw contains non-finite values")
    if np.any(w < 0.0) or np.any(np.abs(w.sum(axis=-1) - 1.0) > 1e-10):
        raise InvalidInputError("weights must be a simplex vector (sum 1 within 1e-10)")
    if np.any(var <= 0.0):
        raise InvalidInputError("variances must be strictly positive")
    return w, loc, var


@dataclass(frozen=True)
class MixtureDraw:
    """One finite normal mixture: weights, component means and variances."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        _checked_mixture(self.weights, self.means, self.variances, 1, (1,))


@dataclass(frozen=True)
class DdpDraw:
    """One dependent-mixture draw: weights, per-component coefficients, variances."""

    weights: np.ndarray
    coef: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        _checked_mixture(self.weights, self.coef, self.variances, 1, (2,))


@dataclass(frozen=True, eq=False)
class MixtureEnsemble:
    """S posterior draws of a finite normal mixture, held as arrays.

    ``weights`` and ``variances`` are (S, L); ``locations`` are component
    means (S, L), or the component coefficients (S, L, d) of a dependent
    mixture, whose means at design row ``z`` are ``locations @ z``.  All
    rows are checked at once against the rules of a ``MixtureDraw``.  As a
    read-only sequence, index ``s`` gives draw ``s`` as a ``MixtureDraw``
    (a ``DdpDraw`` if dependent) over row views, and a slice an ensemble.
    """

    weights: np.ndarray
    locations: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        arrays = _checked_mixture(self.weights, self.locations, self.variances, 2, (2, 3))
        for name, value in zip(("weights", "locations", "variances"), arrays):
            object.__setattr__(self, name, value)

    @classmethod
    def from_draws(cls, draws) -> "MixtureEnsemble":
        """Stack a sequence of ``MixtureDraw`` or ``DdpDraw``; an ensemble is kept as is."""
        if isinstance(draws, cls):
            return draws
        draws = list(draws)
        loc = "coef" if draws and isinstance(draws[0], DdpDraw) else "means"
        try:
            arrays = [np.stack([getattr(d, name) for d in draws])
                      for name in ("weights", loc, "variances")]
        except ValueError as exc:  # no draws, or unequal component counts
            raise InvalidInputError("need draws with equally many components") from exc
        return cls(*arrays)

    def __len__(self) -> int:
        return self.weights.shape[0]

    def __getitem__(self, index):
        rows = (self.weights[index], self.locations[index], self.variances[index])
        if isinstance(index, slice):
            return MixtureEnsemble(*rows)
        return (MixtureDraw if self.locations.ndim == 2 else DdpDraw)(*rows)

    def _normals(self, z=None):
        # weights, component means and scales, each (S, L); a dependent
        # ensemble takes the design row z its means are evaluated at
        if self.locations.shape[2:] != np.shape(z):
            raise InvalidInputError("design row does not match the mixture coefficients")
        mu = self.locations if z is None else self.locations @ z
        return self.weights, mu, np.sqrt(self.variances)


@dataclass(frozen=True)
class DpmConfig:
    """Settings for the truncated blocked Gibbs sampler of both mixture fits.

    One config serves ``dpm_fit`` and ``ddp_fit`` (``DdpConfig`` is another
    name for this class).  With ``d`` design columns (``d = 1`` for the
    pooled mixture), ``centre_mean`` is a length-``d`` vector (a scalar when
    ``d = 1``) and ``centre_var`` a positive-definite ``d x d`` matrix or a
    positive scalar multiple of the identity.  ``shape``/``rate``
    parameterize the Gamma prior on component precisions (rate
    parameterization).  Unset values default at fit time from the least
    squares fit: ``centre_mean`` to its coefficients, ``centre_var`` to
    ``10 sigma_hat^2 I`` and ``rate`` to ``sigma_hat^2``, where
    ``sigma_hat^2 = RSS / (n - rank)``; for ``d = 1`` that is the sample
    mean and the ddof=1 sample variance.
    """

    seed: SeedSpec
    truncation: int = 10
    alpha: float = 1.0
    centre_mean: float | np.ndarray | None = None
    centre_var: float | np.ndarray | None = None
    shape: float = 2.0
    rate: float | None = None
    burn_in: int = 500
    n_save: int = 1000

    def __post_init__(self):
        if not isinstance(self.seed, SeedSpec):
            raise InvalidInputError("seed must be a SeedSpec")
        if self.truncation < 2:
            raise InvalidInputError("truncation must be at least 2")
        if self.alpha <= 0.0 or self.shape <= 0.0:
            raise InvalidInputError("alpha and shape must be positive")
        scalar_var = self.centre_var is not None and np.ndim(self.centre_var) == 0
        if scalar_var and self.centre_var <= 0.0:
            raise InvalidInputError("centre_var must be positive")
        if self.rate is not None and self.rate <= 0.0:
            raise InvalidInputError("rate must be positive")
        if self.burn_in < 0 or self.n_save < 1:
            raise InvalidInputError("need burn_in >= 0 and n_save >= 1")


# ---------------------------------------------------------------------------
# empirical estimator


def empirical_auc(diseased, nondiseased) -> float:
    """Mann-Whitney AUC: Pr(Y_D > Y_ND) + 0.5 Pr(Y_D = Y_ND), exactly.

    Computed through midranks; the rank sums are dyadic rationals held
    exactly in floats, so the result is bit-identical to the brute-force
    double loop over all pairs.
    """
    d = validate_sample(diseased, "diseased")
    nd = validate_sample(nondiseased, "nondiseased")
    rank_sum = _midranks(np.concatenate([d, nd]))[: d.size].sum()
    return (rank_sum - d.size * (d.size + 1) / 2.0) / (d.size * nd.size)


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with each tie group given the mean of its ranks.

    A tie group at sorted positions ``start .. end - 1`` gets
    ``(start + end + 1) / 2``, a multiple of 1/2, so every rank and every
    rank sum below 2**52 is exact in a float.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _inverse_rank(n: int, one_minus_p_num: int, den: int) -> int:
    # smallest j with j/n >= (den - num)/den for p = num/den, as exact ints
    return -((-n * one_minus_p_num) // den)


def empirical_roc(diseased, nondiseased, grid=None) -> RocCurveEstimate:
    """Plug-in ECDF estimate of the ROC curve on a probability grid.

    ``roc(p) = 1 - F_D(q)`` with ``q`` the smallest nondiseased order
    statistic whose ECDF level reaches ``1 - p``; ``roc(1) = 1`` by
    convention and ``roc(0)`` is the right limit (the fraction of diseased
    above the nondiseased maximum).  Rank selection uses exact integer
    arithmetic on the binary value of each grid probability.
    """
    d = np.sort(validate_sample(diseased, "diseased"))
    nd = np.sort(validate_sample(nondiseased, "nondiseased"))
    grid = default_prob_grid() if grid is None else as_prob_grid(grid)
    roc = np.empty(grid.size)
    for i, p in enumerate(grid):
        if p == 1.0:
            roc[i] = 1.0
            continue
        num, den = float(p).as_integer_ratio()
        j = _inverse_rank(nd.size, den - num, den)
        q = nd[j - 1]
        roc[i] = (d.size - np.searchsorted(d, q, side="right")) / d.size
    return RocCurveEstimate(grid=grid, roc=roc, auc=empirical_auc(d, nd))


# ---------------------------------------------------------------------------
# kernel estimator


def silverman_bandwidth(sample) -> float:
    """Rule-of-thumb bandwidth ``0.9 min(sd, IQR/1.34) n^(-1/5)``."""
    y = validate_sample(sample, "sample", min_size=2)
    sd = float(np.std(y, ddof=1))
    q25, q75 = np.percentile(y, [25.0, 75.0])
    spread = min(sd, (q75 - q25) / 1.34)
    if spread <= 0.0:
        raise DegenerateSampleError("sample has no usable spread for a bandwidth")
    return 0.9 * spread * y.size ** (-0.2)


def lscv_bandwidth(sample, n_steps: int = 60) -> float:
    """Least-squares cross-validation bandwidth for the normal kernel.

    Minimizes the closed-form LSCV criterion over a log-spaced band around
    the rule-of-thumb value.  Time is quadratic in the sample size; the
    pair sums are accumulated over blocks of rows, so memory is linear.
    """
    y = validate_sample(sample, "sample", min_size=3)
    h0 = silverman_bandwidth(y)
    n = y.size
    hs = np.geomspace(h0 / 20.0, 5.0 * h0, n_steps)
    quad, loo = np.zeros((2, n_steps))
    for start in range(0, n, 512):  # chunked to bound the pair matrix
        diff2 = (y[start:start + 512, None] - y[None, :]) ** 2
        for j, h in enumerate(hs):
            quad[j] += np.exp(-diff2 / (4.0 * h * h)).sum()
            loo[j] += np.exp(-diff2 / (2.0 * h * h)).sum()
    # integral of fhat^2 minus twice the leave-one-out mean density
    quad /= 2.0 * math.sqrt(math.pi) * hs * n * n
    loo -= n  # drop i == j terms
    loo /= math.sqrt(2.0 * math.pi) * hs * n * (n - 1)
    return float(hs[int(np.argmin(quad - 2.0 * loo))])


def _check_bandwidths(*hs: float) -> None:
    for h in hs:
        if not (np.isfinite(h) and h > 0.0):
            raise InvalidInputError(f"bandwidth must be finite and positive, got {h}")


# elements in one (points x components) buffer of the kernel and mixture sums
_BLOCK = 1 << 16


def kernel_cdf(sample, h: float, y):
    """Normal-kernel CDF estimate ``(1/n) sum Phi((y - y_i)/h)``.

    Evaluated over blocks of ``y``, spread over ``ordered_map``, so each
    (points, n) buffer stays below ``_BLOCK`` elements; each point's mean
    is the same either way.
    """
    from scipy.special import ndtr

    s = validate_sample(sample, "sample")
    _check_bandwidths(h)
    yv = np.asarray(y, dtype=float)
    flat = yv.reshape(-1)
    out = np.empty(flat.size)
    step = max(1, _BLOCK // s.size)

    def block(start):
        out[start:start + step] = ndtr((flat[start:start + step, None] - s) / h).mean(axis=-1)

    ordered_map(block, range(0, flat.size, step))
    return float(out[0]) if np.isscalar(y) or yv.ndim == 0 else out.reshape(yv.shape)


# The mixture helpers take scipy.special.ndtr from their caller, which
# imports it once per public call, so scipy loads on first use.
#
# Rules for every block function handed to ordered_map: compute exactly
# what the serial loop computes for that block, and combine results in
# block order; set any np.errstate inside the block, because a pool thread
# does not inherit the caller's; leave warnings to the calling thread; and
# never call ndtr with where=, which writes wrong values on scipy 1.17.1.


def _mixture_cdf(w, mu, sigma, x, ndtr, density=False):
    # w, mu, sigma: (..., L); x: (..., K) broadcastable; returns the CDF
    # (..., K), or with density=True the CDF and density from one buffer
    z = (x[..., :, None] - mu[..., None, :]) / sigma[..., None, :]
    if not density:
        return (ndtr(z) * w[..., None, :]).sum(axis=-1)
    terms = ndtr(z)
    terms *= w[..., None, :]
    cdf = terms.sum(axis=-1)
    np.multiply(z, z, out=z)
    z *= -0.5
    np.exp(z, out=z)
    z *= (w / (sigma * math.sqrt(2.0 * math.pi)))[..., None, :]
    return cdf, z.sum(axis=-1)


# draws per block of the inversion and the curve evaluation
_DRAW_CHUNK = 32
# points in each draw's starting table
_TABLE_POINTS = 64


def _mixture_sums(w, mu, sigma, x, ndtr, density=False):
    """Mixture CDF (and density, with ``density=True``) at ``x``, summed over
    blocks of components so no buffer exceeds ``_BLOCK`` elements.

    ``w, mu, sigma`` have shape (R, L) and ``x`` shape (R', K) with R == R'
    or R == 1.  The blocks run through ``ordered_map`` and are added in
    block order.  When one block holds all L components this is
    ``_mixture_cdf`` bit for bit.
    """
    step = max(1, _BLOCK // max(x.size, 1))
    parts = ordered_map(lambda b: _mixture_cdf(w[:, b:b + step], mu[:, b:b + step],
                                               sigma[:, b:b + step], x, ndtr, density),
                        range(0, w.shape[-1], step))
    return tuple(map(sum, zip(*parts))) if density else sum(parts)


def _invert_mixture_cdf(w, mu, sigma, targets, ndtr):
    """Solve F(x) = q for mixture CDFs by table-started safeguarded Newton.

    ``w, mu, sigma`` have shape (S, L); ``targets`` has shape (K,) with
    values strictly inside (0, 1); returns roots of shape (S, K).  Draws are
    solved in blocks of ``_DRAW_CHUNK``, spread over ``ordered_map``.  Each
    draw's CDF is tabulated at ``_TABLE_POINTS`` points over its own
    ``[min mu - 10 sigma, max mu + 10 sigma]``, widened (doubling) while the
    table misses a target.  The table gives each root a bracket
    ``F(lo) < q <= F(hi)`` one table step wide and a start by linear
    interpolation in it.  A Newton step that
    leaves the bracket, or that fails to halve the step before last, is
    replaced by bisection, so the steps shrink at least as fast as
    bisection's every other iteration and convergence is quadratic near the
    root.  Converged roots leave the working set, and the component sums
    run in blocks (``_mixture_sums``), so a kernel CDF with L = n keeps its
    buffers bounded.  Raises when the residual in CDF scale exceeds 1e-10.
    """
    n_draws, n_targets = w.shape[0], targets.size
    qmin, qmax = float(targets.min()), float(targets.max())
    unit = np.linspace(0.0, 1.0, _TABLE_POINTS)

    def solve(start):
        rows = slice(start, start + _DRAW_CHUNK)
        wc, mc, sc = w[rows], mu[rows], sigma[rows]
        r = wc.shape[0]
        lo = (mc - 10.0 * sc).min(axis=1)
        hi = (mc + 10.0 * sc).max(axis=1)
        for _ in range(61):
            xs = lo[:, None] + (hi - lo)[:, None] * unit
            table = _mixture_sums(wc, mc, sc, xs, ndtr)
            low, high = table[:, 0] >= qmin, table[:, -1] < qmax
            if not (low.any() or high.any()):
                break
            width = hi - lo
            lo = np.where(low, lo - width, lo)
            hi = np.where(high, hi + width, hi)
        # bracket each target between the table points around it
        j = np.clip((table[:, :, None] < targets).sum(axis=1), 1, _TABLE_POINTS - 1)
        x_lo = np.take_along_axis(xs, j - 1, axis=1).ravel()
        x_hi = np.take_along_axis(xs, j, axis=1).ravel()
        f_lo = np.take_along_axis(table, j - 1, axis=1).ravel()
        f_hi = np.take_along_axis(table, j, axis=1).ravel()
        tgt = np.tile(targets, r)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = x_lo + (tgt - f_lo) / (f_hi - f_lo) * (x_hi - x_lo)
        x = np.where((x >= x_lo) & (x <= x_hi), x, 0.5 * (x_lo + x_hi))
        out = x.copy()
        owner = np.repeat(np.arange(r), n_targets)
        # a root is done once its move falls below the spacing of doubles
        # there plus a rounding floor on its draw's table range
        floor = np.finfo(float).eps * (hi - lo)[owner]
        active = np.arange(x.size)
        step_last = step_before = x_hi - x_lo
        for _ in range(120):
            if r == 1:
                f, dens = _mixture_sums(wc, mc, sc, x[None, :], ndtr, density=True)
            else:
                o = owner[active]
                f, dens = _mixture_sums(wc[o], mc[o], sc[o], x[:, None], ndtr, density=True)
            f, dens = f.ravel(), dens.ravel()
            below = f < tgt
            x_lo = np.where(below, x, x_lo)
            x_hi = np.where(below, x_hi, x)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                newton = x - (f - tgt) / dens
            use_newton = ((newton >= x_lo) & (newton <= x_hi)
                          & (np.abs(newton - x) <= 0.5 * step_before))
            x_new = np.where(use_newton, newton, 0.5 * (x_lo + x_hi))
            step = np.abs(x_new - x)
            out[active] = x_new
            moving = step > 2.0 * np.spacing(np.abs(x_new)) + floor
            if not moving.any():
                break
            active, x, x_lo, x_hi, tgt, floor = (
                v[moving] for v in (active, x_new, x_lo, x_hi, tgt, floor))
            step_last, step_before = step[moving], step_last[moving]
        roots = out.reshape(r, n_targets)
        resid = np.abs(_mixture_sums(wc, mc, sc, roots, ndtr) - targets)
        worst = float(resid.max())
        if worst > 1e-10:
            s, k = np.unravel_index(int(resid.argmax()), resid.shape)
            raise NumericError(
                f"CDF inversion residual {worst:.2e} at target {targets[k]:.6g} "
                f"(draw {start + s}) exceeds 1e-10"
            )
        return roots

    return np.concatenate(ordered_map(solve, range(0, n_draws, _DRAW_CHUNK)))


def _roc_from_mixtures(w_d, mu_d, sg_d, w_nd, mu_nd, sg_nd, grid):
    """Per-draw ROC curves for paired mixture arrays of shape (S, L)."""
    from scipy.special import ndtr

    interior = (grid > 0.0) & (grid < 1.0)
    curves = np.empty((w_d.shape[0], grid.size))
    curves[:, grid == 0.0] = 0.0
    curves[:, grid == 1.0] = 1.0
    if np.any(interior):
        q = 1.0 - grid[interior]
        roots = _invert_mixture_cdf(w_nd, mu_nd, sg_nd, q, ndtr)

        def evaluate(start):
            rows = slice(start, start + _DRAW_CHUNK)
            return 1.0 - _mixture_sums(w_d[rows], mu_d[rows], sg_d[rows], roots[rows], ndtr)

        curves[:, interior] = np.concatenate(
            ordered_map(evaluate, range(0, w_d.shape[0], _DRAW_CHUNK)))
    return np.clip(curves, 0.0, 1.0)


def kernel_roc(diseased, nondiseased, h_d: float | None = None,
               h_nd: float | None = None, grid=None) -> RocCurveEstimate:
    """Normal-kernel smoothed ROC curve.

    Bandwidths default to ``silverman_bandwidth`` of each sample.  The
    nondiseased CDF is inverted by safeguarded Newton iteration (residual
    below 1e-10 in CDF scale); the attached ``auc`` is the closed form from ``kernel_auc``,
    not a grid integration.
    """
    d = validate_sample(diseased, "diseased")
    nd = validate_sample(nondiseased, "nondiseased")
    h_d = silverman_bandwidth(d) if h_d is None else h_d
    h_nd = silverman_bandwidth(nd) if h_nd is None else h_nd
    _check_bandwidths(h_d, h_nd)
    grid = default_prob_grid() if grid is None else as_prob_grid(grid)
    curves = _roc_from_mixtures(
        np.full((1, d.size), 1.0 / d.size), d[None, :], np.full((1, d.size), h_d),
        np.full((1, nd.size), 1.0 / nd.size), nd[None, :], np.full((1, nd.size), h_nd),
        grid,
    )
    return RocCurveEstimate(grid=grid, roc=curves[0],
                            auc=kernel_auc(d, nd, h_d, h_nd))


# ndtr(z) is exactly 1.0 for z >= 8.2925 and below 5.3e-17 for z <= -8.3
_SATURATED = 8.3
# diseased values per task of the kernel AUC
_AUC_ROWS = 64


def kernel_auc(diseased, nondiseased, h_d: float | None = None,
               h_nd: float | None = None) -> float:
    """Closed-form AUC of the kernel-smoothed ROC.

    ``(1/(n_D n_ND)) sum_j sum_i Phi((y_Dj - y_NDi) / sqrt(h_D^2 + h_ND^2))``.
    Both samples are sorted and the diseased one is taken in blocks of
    ``_AUC_ROWS``, one ``ordered_map`` task each.  Against each block, the
    nondiseased values more than 8.3 scales below the block's smallest value
    give pairs with ``Phi = 1.0`` exactly, which are counted; those more
    than 8.3 scales above its largest value give pairs below 5.3e-17 each,
    which are skipped.  ``Phi`` is evaluated only in the window between, in
    column pieces of one reused ``_BLOCK``-element buffer per task, and the
    piece sums are added exactly (``math.fsum``), so the result equals the
    full pair sum up to the rounding inside each piece and the skipped
    tail, whatever the number of threads.
    """
    from scipy.special import ndtr

    d = np.sort(validate_sample(diseased, "diseased"))
    nd = np.sort(validate_sample(nondiseased, "nondiseased"))
    h_d = silverman_bandwidth(d) if h_d is None else h_d
    h_nd = silverman_bandwidth(nd) if h_nd is None else h_nd
    _check_bandwidths(h_d, h_nd)
    scale = math.hypot(h_d, h_nd)
    reach = _SATURATED * scale
    starts = np.arange(0, d.size, _AUC_ROWS)
    sizes = np.minimum(_AUC_ROWS, d.size - starts)
    # nd[:lo] sit strictly below the block minimum less reach, nd[hi:]
    # strictly above the block maximum plus reach
    lo = np.searchsorted(nd, d[starts] - reach, side="left")
    hi = np.searchsorted(nd, d[starts + sizes - 1] + reach, side="right")
    cols = _BLOCK // _AUC_ROWS

    def window_sums(task):
        start, a, b = task
        block = d[start:start + _AUC_ROWS]
        buf = np.empty((block.size, min(cols, b - a)))
        sums = []
        for c in range(a, b, cols):
            piece = nd[c:min(c + cols, b)]
            window = buf[:, :piece.size]
            np.subtract(block[:, None], piece, out=window)
            window /= scale
            ndtr(window, out=window)
            sums.append(float(window.sum()))
        return sums

    tasks = zip(starts.tolist(), lo.tolist(), hi.tolist())
    ones = int(sizes @ lo)
    sums = [v for part in ordered_map(window_sums, tasks) for v in part]
    return math.fsum([ones, *sums]) / (d.size * nd.size)


# ---------------------------------------------------------------------------
# Bayesian bootstrap


def bb_roc(diseased, nondiseased, n_draws: int, grid=None, *,
           seed: SeedSpec, youden: bool = False) -> PosteriorEnsemble:
    """Bayesian bootstrap ROC ensemble.

    Each draw ``s`` reweights the nondiseased sample with flat Dirichlet
    weights to form weighted placement values
    ``U_j = sum_i q1_i I(y_NDi >= y_Dj)``, then reweights the diseased
    sample to form the curve ``ROC(p) = sum_j q2_j I(U_j <= p)`` and the
    closed-form ``auc = 1 - sum_j q2_j U_j``.  Draw ``s`` uses the child
    stream ``seed.rng(s)``, so results do not depend on evaluation order.

    With ``youden=True`` the per-draw weighted-ECDF Youden index, threshold
    and FPF are tracked (candidate thresholds are the pooled data values).
    """
    d = validate_sample(diseased, "diseased")
    nd = validate_sample(nondiseased, "nondiseased")
    if n_draws < 1:
        raise InvalidInputError("n_draws must be at least 1")
    if not isinstance(seed, SeedSpec):
        raise InvalidInputError("seed must be a SeedSpec")
    grid = default_prob_grid() if grid is None else as_prob_grid(grid)

    nd_order = np.argsort(nd, kind="stable")
    nd_sorted = nd[nd_order]
    d_order = np.argsort(d, kind="stable")
    d_sorted = d[d_order]
    # position of each diseased value in the sorted nondiseased sample:
    # weights at or above that position make up U_j
    pos = np.searchsorted(nd_sorted, d_sorted, side="left")
    if youden:
        cand = np.unique(np.concatenate([d, nd]))
        cand_nd = np.searchsorted(nd_sorted, cand, side="right")
        cand_d = np.searchsorted(d_sorted, cand, side="right")

    curves = np.empty((n_draws, grid.size))
    aucs = np.empty(n_draws)
    yis = np.empty(n_draws) if youden else None
    thresholds = np.empty(n_draws) if youden else None
    p_stars = np.empty(n_draws) if youden else None

    for s in range(n_draws):
        rng = seed.rng(s)
        # weights are drawn in input order, then carried to the sort order
        q1_sorted = dirichlet_uniform(nd.size, rng)[nd_order]
        q2_sorted = dirichlet_uniform(d.size, rng)[d_order]
        tail = np.concatenate([np.cumsum(q1_sorted[::-1])[::-1], [0.0]])
        # cumulative rounding can push a full suffix sum one ulp above 1,
        # which would leave that point uncounted even at p=1
        u = np.minimum(tail[pos], 1.0)  # placement value of d_sorted[j]
        order_u = np.argsort(u, kind="stable")
        u_sorted = u[order_u]
        cum = np.concatenate([[0.0], np.cumsum(q2_sorted[order_u])])
        curves[s] = cum[np.searchsorted(u_sorted, grid, side="right")]
        aucs[s] = 1.0 - float(u @ q2_sorted)
        if youden:
            f_nd = np.concatenate([[0.0], np.cumsum(q1_sorted)])[cand_nd]
            f_d = np.concatenate([[0.0], np.cumsum(q2_sorted)])[cand_d]
            gap = f_nd - f_d
            k = int(np.argmax(gap))
            yis[s] = gap[k]
            thresholds[s] = cand[k]
            p_stars[s] = 1.0 - f_nd[k]
    curves = np.clip(curves, 0.0, 1.0)
    # every U_j <= 1, so p=1 counts the whole diseased mass; only cumsum
    # rounding keeps the float sum from being exactly 1
    curves[:, grid == 1.0] = 1.0
    return PosteriorEnsemble(grid=grid, curves=curves, aucs=np.clip(aucs, 0.0, 1.0),
                             yis=yis, thresholds=thresholds, p_stars=p_stars)


# ---------------------------------------------------------------------------
# Dirichlet process mixture


def _exact_fit(y: np.ndarray, sigma2: float) -> bool:
    # least squares rounds each fitted value by up to about n eps max|y|; a
    # residual variance below that is an exact fit (e.g. a constant sample)
    return sigma2 <= (y.size * np.finfo(float).eps * float(np.abs(y).max())) ** 2


def _blocked_gibbs(y: np.ndarray, design: np.ndarray, cfg: DpmConfig):
    """Truncated blocked Gibbs sampler for a mixture of normal regressions.

    The model is ``y_i ~ sum_l w_l N(x_i' beta_l, 1/tau_l)`` with
    stick-breaking weights truncated at ``L = cfg.truncation`` components,
    a conjugate ``N(centre_mean, centre_var)`` prior on each coefficient
    vector and a ``Gamma(shape, rate)`` prior on each precision.  Each
    sweep resamples the sticks from component counts, then all L
    components at once, then the allocations; the state saved after the
    component step gives ``cfg.n_save`` draws following ``cfg.burn_in``
    warm-up sweeps.  An empty component has ``X'X = 0``, so its update
    draws from the prior without a branch of its own.

    Returns weights (S, L), coefficients (S, L, d) and variances (S, L).
    """
    n, d = design.shape
    if n < 2:
        raise InvalidInputError("need at least two observations")
    beta_hat, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta_hat
    sigma2 = float(resid @ resid) / max(n - rank, 1)
    if _exact_fit(y, sigma2):
        raise DegenerateSampleError("zero residual variance: mixture fit undefined")

    L = cfg.truncation
    m = beta_hat if cfg.centre_mean is None else np.atleast_1d(
        np.asarray(cfg.centre_mean, dtype=float))
    if m.shape != (d,):
        raise InvalidInputError(f"centre_mean must have length {d}")
    s_mat = np.asarray(10.0 * sigma2 if cfg.centre_var is None else cfg.centre_var,
                       dtype=float)
    if s_mat.ndim == 0:
        s_mat = s_mat * np.eye(d)
    if s_mat.shape != (d, d):
        raise InvalidInputError(f"centre_var must be a scalar or a {d}x{d} matrix")
    try:
        np.linalg.cholesky(s_mat)
    except np.linalg.LinAlgError as exc:
        raise InvalidInputError("centre_var must be positive definite") from exc
    s_inv = np.linalg.inv(s_mat)
    s_inv_m = s_inv @ m
    a = float(cfg.shape)
    b = sigma2 if cfg.rate is None else float(cfg.rate)
    rng = cfg.seed.rng()

    # per-observation sufficient statistics vec(x x') and x y, summed per
    # component by one bincount over offset indices
    k = d * d + d
    stats = np.hstack([(design[:, :, None] * design[:, None, :]).reshape(n, d * d),
                       design * y[:, None]]).ravel()
    offsets = np.arange(k)

    # deterministic start: quantile-bin allocations, data-scale precisions
    ranks = np.argsort(np.argsort(y, kind="stable"), kind="stable")
    z = np.minimum((ranks * L) // n, L - 1).astype(np.intp)
    tau = np.full(L, 1.0 / sigma2)

    weights = np.empty((cfg.n_save, L))
    coefs = np.empty((cfg.n_save, L, d))
    variances = np.empty((cfg.n_save, L))
    for it in range(cfg.burn_in + cfg.n_save):
        counts = np.bincount(z, minlength=L)
        tail = counts[::-1].cumsum()[::-1]
        v = rng.beta(1.0 + counts[:-1], cfg.alpha + tail[1:])
        stick = np.concatenate([v, [1.0]])
        w = stick * np.concatenate([[1.0], np.cumprod(1.0 - v)])

        sums = np.bincount((z[:, None] * k + offsets).ravel(), weights=stats,
                           minlength=L * k).reshape(L, k)
        prec = s_inv + tau[:, None, None] * sums[:, :d * d].reshape(L, d, d)
        rhs = s_inv_m + tau[:, None] * sums[:, d * d:]
        try:
            chol = np.linalg.cholesky(prec)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"non-positive-definite update at Gibbs iteration {it}") from exc
        mean = np.linalg.solve(prec, rhs[:, :, None])[:, :, 0]
        noise = np.linalg.solve(chol.transpose(0, 2, 1),
                                rng.standard_normal((L, d))[:, :, None])[:, :, 0]
        coef = mean + noise
        r = y - np.einsum("ij,ij->i", design, coef[z])
        rss = np.bincount(z, weights=r * r, minlength=L)
        tau = rng.gamma(a + 0.5 * counts, 1.0 / (b + 0.5 * rss))

        if not (np.all(np.isfinite(coef)) and np.all(np.isfinite(tau)) and np.all(tau > 0.0)):
            raise NumericError(f"non-finite mixture state at Gibbs iteration {it}")
        if it >= cfg.burn_in:
            s = it - cfg.burn_in
            weights[s], coefs[s], variances[s] = w, coef, 1.0 / tau

        means = design @ coef.T
        with np.errstate(divide="ignore"):
            logp = np.log(w) + 0.5 * np.log(tau) - 0.5 * tau * (y[:, None] - means) ** 2
        logp -= logp.max(axis=1, keepdims=True)
        prob = np.exp(logp)
        prob /= prob.sum(axis=1, keepdims=True)
        z = (prob.cumsum(axis=1) < rng.uniform(size=(n, 1))).sum(axis=1)
        z = np.minimum(z, L - 1).astype(np.intp)
    return weights, coefs, variances


def dpm_fit(sample, cfg: DpmConfig) -> MixtureEnsemble:
    """Fit a truncated DPM of normals by blocked Gibbs sampling.

    The model is ``y_i ~ sum_l w_l N(mu_l, 1/tau_l)``: the mixture of
    normal regressions behind ``ddp_fit`` with an intercept-only design,
    run by the same sampler.  With the same ``cfg``, ``dpm_fit(y, cfg)``
    and ``ddp_fit`` on ``y`` with a column of ones give identical chains.
    See ``DpmConfig`` for the priors and their data-driven defaults.

    Returns
    -------
    MixtureEnsemble
        ``cfg.n_save`` posterior mixture draws, deterministic given
        ``cfg.seed``.
    """
    y = validate_sample(sample, "sample", min_size=2)
    weights, coefs, variances = _blocked_gibbs(y, np.ones((y.size, 1)), cfg)
    return MixtureEnsemble(weights, coefs[:, :, 0], variances)


def _mixture_aucs(w_d, mu_d, sg_d, w_nd, mu_nd, sg_nd, ndtr):
    """Closed-form AUC of each pair of mixtures given as (S, L) arrays.

    ``sum_k sum_l w_NDk w_Dl Phi(a_kl / sqrt(1 + b_kl^2))`` with
    ``a_kl = (mu_Dl - mu_NDk)/sigma_Dl`` and ``b_kl = sigma_NDk/sigma_Dl``.
    """
    a = (mu_d[:, None, :] - mu_nd[:, :, None]) / sg_d[:, None, :]
    b = sg_nd[:, :, None] / sg_d[:, None, :]
    return np.einsum("sk,sl,skl->s", w_nd, w_d, ndtr(a / np.sqrt(1.0 + b * b)))


def dpm_auc(draw_d: MixtureDraw, draw_nd: MixtureDraw) -> float:
    """Closed-form AUC between two normal-mixture draws (``_mixture_aucs``)."""
    from scipy.special import ndtr

    d = MixtureEnsemble.from_draws([draw_d])._normals()
    nd = MixtureEnsemble.from_draws([draw_nd])._normals()
    return float(_mixture_aucs(*d, *nd, ndtr)[0])


def _mean_mixture_cdf(w, mu, sg, y, ndtr):
    # the mixture CDF at y, averaged over the (S, L) rows of w, mu and sg
    yv = np.asarray(y, dtype=float)
    points = np.broadcast_to(yv.reshape(1, -1), (w.shape[0], yv.size))
    out = _mixture_sums(w, mu, sg, points, ndtr).mean(axis=0).reshape(yv.shape)
    return float(out) if yv.ndim == 0 else out


def mixture_cdf_callable(draw: MixtureDraw):
    """CDF of one mixture draw as a plain callable (scalar or array in/out)."""
    from scipy.special import ndtr

    normals = MixtureEnsemble.from_draws([draw])._normals()
    return lambda c: _mean_mixture_cdf(*normals, c, ndtr)


def _ensemble_from_mixture_arrays(w_d, mu_d, sg_d, w_nd, mu_nd, sg_nd, grid,
                                  youden: bool) -> PosteriorEnsemble:
    """Ensemble curves/AUCs for paired per-draw mixtures of shape (S, L)."""
    from scipy.special import ndtr

    if w_d.shape[0] != w_nd.shape[0] or w_d.shape[0] < 1:
        raise InvalidInputError("need equally many draws for both groups")
    grid = default_prob_grid() if grid is None else as_prob_grid(grid)
    curves = _roc_from_mixtures(w_d, mu_d, sg_d, w_nd, mu_nd, sg_nd, grid)
    aucs = _mixture_aucs(w_d, mu_d, sg_d, w_nd, mu_nd, sg_nd, ndtr)

    yis = thresholds = p_stars = None
    if youden:
        sg_max = max(float(sg_d.max()), float(sg_nd.max()))
        lo = min(float(mu_d.min()), float(mu_nd.min())) - 4.0 * sg_max
        hi = max(float(mu_d.max()), float(mu_nd.max())) + 4.0 * sg_max

        def cdfs(x, rows):
            return (_mixture_cdf(w_nd[rows], mu_nd[rows], sg_nd[rows], x, ndtr),
                    _mixture_cdf(w_d[rows], mu_d[rows], sg_d[rows], x, ndtr))

        # unblocked over components (blocking them would reorder each sum),
        # so the draws per scan block keep its (draws, points, L) buffers
        # within _BLOCK elements
        pts = np.linspace(lo, hi, 1000)
        block = max(1, _BLOCK // (pts.size * max(w_d.shape[1], w_nd.shape[1])))
        yis, thresholds, p_stars = _youden_search(cdfs, pts, lo, hi, w_d.shape[0], block)
    return PosteriorEnsemble(grid=grid, curves=curves, aucs=np.clip(aucs, 0.0, 1.0),
                             yis=yis, thresholds=thresholds, p_stars=p_stars)


def dpm_roc(draws_d, draws_nd, grid=None, *, youden: bool = False) -> PosteriorEnsemble:
    """Posterior ROC ensemble from ``dpm_fit`` ensembles or sequences of draws.

    Draw ``s`` pairs ``draws_d[s]`` with ``draws_nd[s]``; both must have
    equal length.  Curves come from Newton inversion of the nondiseased
    mixture CDF; AUCs from the closed form in ``dpm_auc``.
    """
    ens_d, ens_nd = MixtureEnsemble.from_draws(draws_d), MixtureEnsemble.from_draws(draws_nd)
    return _ensemble_from_mixture_arrays(*ens_d._normals(), *ens_nd._normals(),
                                         grid, youden)
