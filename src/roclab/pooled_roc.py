"""Pooled (no-covariate) ROC estimation.

Four estimators of ``ROC(p) = 1 - F_D(F_ND^{-1}(1-p))`` from two samples:

* ``empirical_roc`` / ``empirical_auc``: plug-in ECDFs, with quantile
  ranks resolved in exact integer arithmetic; the AUC is the
  Mann-Whitney statistic with half credit for ties.
* ``kernel_roc`` / ``kernel_auc``: normal-kernel smoothed CDFs with
  Silverman or cross-validated bandwidths; the AUC has a closed form.
* ``bb_roc``: Bayesian bootstrap ensemble; each draw reweights both
  samples with flat Dirichlet weights.
* ``dpm_fit`` / ``dpm_roc`` / ``dpm_auc``: Dirichlet process mixture of
  normals per group, fit by truncated blocked Gibbs (one serial chain per
  call) into a ``MixtureEnsemble``; the per-draw AUC again has a closed
  form.

Every smooth CDF (kernel and mixture) is summed by ``_mixture_sums``, with
the bits of one unblocked sum whatever the shape of a call, in blocks of
bounded size.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (SeedSpec, _exact_ranks, as_prob_grid, default_prob_grid,
                   dirichlet_uniform, forked_spans, validate_sample)
from .errors import DegenerateSampleError, InvalidInputError, NumericError
from .indices import _step_candidates, _step_youden, _youden_search


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
        if not np.all((roc >= -1e-9) & (roc <= 1.0 + 1e-9)):  # NaN fails too
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


def _tail_percent(level: float) -> float:
    """The percent in each tail of an equal-tail interval at ``level``."""
    if not 0.0 < level < 1.0:
        raise InvalidInputError("level must be in (0, 1)")
    return 100.0 * (1.0 - level) / 2.0


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
        if not np.all((curves >= -1e-9) & (curves <= 1.0 + 1e-9)):  # NaN fails too
            raise InvalidInputError("curve values outside [0, 1]")

    @property
    def n_draws(self) -> int:
        return int(np.asarray(self.curves).shape[0])

    def summarize(self, level: float = 0.95) -> RocCurveEstimate:
        """Ensemble mean curve with equal-tail pointwise percentile bands."""
        tail = _tail_percent(level)
        curves = np.asarray(self.curves, dtype=float)
        mean = curves.mean(axis=0)
        lo = np.percentile(curves, tail, axis=0)
        hi = np.percentile(curves, 100.0 - tail, axis=0)
        # so the bands bracket the mean even in a pathological ensemble
        lo = np.minimum(lo, mean)
        hi = np.maximum(hi, mean)
        auc, *auc_ci = _mean_and_interval(np.asarray(self.aucs, dtype=float), tail)
        return RocCurveEstimate(grid=self.grid, roc=mean, auc=auc,
                                band_lo=lo, band_hi=hi, auc_ci=tuple(auc_ci))

    def youden_summary(self, level: float = 0.95) -> dict | None:
        """Posterior mean and equal-tail interval for yi, c* and p*."""
        tail = _tail_percent(level)
        if self.yis is None:
            return None
        return {name: _mean_and_interval(v, tail)
                for name, v in (("yi", self.yis), ("c_star", self.thresholds),
                                ("p_star", self.p_stars))}


def _mean_and_interval(values, tail: float) -> tuple[float, float, float]:
    return (float(np.mean(values)), float(np.percentile(values, tail)),
            float(np.percentile(values, 100.0 - tail)))


def _checked_mixture(weights, locations, variances, w_ndim: int, loc_ndims: tuple):
    # the arrays as floats once they pass the rules of every mixture draw
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
    mixture, whose means at design row ``z`` are ``locations @ z``.  Every
    row must pass the rules of a ``MixtureDraw``.  As a read-only sequence,
    index ``s`` gives draw ``s`` as a ``MixtureDraw`` (a ``DdpDraw`` if
    dependent) and a slice gives an ensemble.
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
        # weights, component means and scales, each (S, L), at design row z
        if self.locations.shape[2:] != np.shape(z):
            raise InvalidInputError("design row does not match the mixture coefficients")
        if z is not None and not np.all(np.isfinite(z)):
            raise InvalidInputError(f"design row values must be finite, got {np.asarray(z).tolist()}")
        mu = self.locations if z is None else self.locations @ z
        return self.weights, mu, np.sqrt(self.variances)


@dataclass(frozen=True)
class DpmConfig:
    """Settings of the blocked Gibbs sampler behind ``dpm_fit`` and ``ddp_fit``.

    ``DdpConfig`` is another name for this class.  With ``d`` design
    columns (1 for ``dpm_fit``), ``centre_mean`` is a length-``d`` vector
    (a scalar when ``d = 1``) and ``centre_var`` a positive-definite
    ``d x d`` matrix or a positive scalar times the identity.
    ``shape``/``rate`` are the Gamma prior's on component precisions.
    Unset values default at fit time from least squares: ``centre_mean``
    to its coefficients, ``centre_var`` to ``10 sigma_hat^2 I`` and
    ``rate`` to ``sigma_hat^2 = RSS / (n - rank)``.
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
        positive = {"alpha": self.alpha, "shape": self.shape, "rate": self.rate}
        if np.ndim(self.centre_var) == 0:
            positive["centre_var"] = self.centre_var
        for name, value in positive.items():
            if value is not None and not (math.isfinite(value) and value > 0.0):
                raise InvalidInputError(f"{name} must be finite and positive, got {value}")
        if self.burn_in < 0 or self.n_save < 1:
            raise InvalidInputError("need burn_in >= 0 and n_save >= 1")


# ---------------------------------------------------------------------------
# empirical estimator


def empirical_auc(diseased, nondiseased) -> float:
    """Mann-Whitney AUC: Pr(Y_D > Y_ND) + 0.5 Pr(Y_D = Y_ND).

    Bit-identical to the brute-force double loop over all pairs: the
    midrank sums are held exactly in floats.
    """
    d = validate_sample(diseased, "diseased")
    nd = validate_sample(nondiseased, "nondiseased")
    rank_sum = _midranks(np.concatenate([d, nd]))[: d.size].sum()
    return (rank_sum - d.size * (d.size + 1) / 2.0) / (d.size * nd.size)


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, each tie group given the mean of its ranks: multiples
    of 1/2, so every rank sum below 2**52 is exact in a float."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def empirical_roc(diseased, nondiseased, grid=None) -> RocCurveEstimate:
    """Plug-in ECDF estimate of the ROC curve on a probability grid.

    ``roc(p) = 1 - F_D(q)`` with ``q`` the smallest nondiseased order
    statistic whose ECDF level reaches ``1 - p``; ``roc(1) = 1`` by
    convention and ``roc(0)`` is the right limit (the fraction of diseased
    above the nondiseased maximum).  Ranks follow ``core.quantile``'s exact
    rule.
    """
    d = np.sort(validate_sample(diseased, "diseased"))
    nd = np.sort(validate_sample(nondiseased, "nondiseased"))
    grid = default_prob_grid() if grid is None else as_prob_grid(grid)
    ranks = _exact_ranks(nd.size, grid, complement=True)
    # rank 0 (p = 1) takes no order statistic: below every value, roc(1) = 1
    q = np.where(ranks > 0, nd[ranks - 1], -np.inf)
    roc = (d.size - np.searchsorted(d, q, side="right")) / d.size
    return RocCurveEstimate(grid=grid, roc=roc, auc=empirical_auc(d, nd))


# ---------------------------------------------------------------------------
# kernel estimator


def silverman_bandwidth(sample) -> float:
    """Rule-of-thumb bandwidth ``0.9 min(sd, IQR/1.34) n^(-1/5)``."""
    y = validate_sample(sample, "sample", min_size=2)
    with np.errstate(over="ignore"):
        sd = float(np.std(y, ddof=1))
    if not math.isfinite(sd) or (sd == 0.0 and y.min() < y.max()):
        word = "underflow" if sd == 0.0 else "overflow"
        raise InvalidInputError(f"values of magnitude {float(np.abs(y).max()):.3g} {word} "
                                "the variance of the bandwidth rule; rescale them")
    q25, q75 = np.percentile(y, [25.0, 75.0])
    spread = min(sd, (q75 - q25) / 1.34)
    if spread <= 0.0:
        raise DegenerateSampleError("sample has no usable spread for a bandwidth")
    return 0.9 * spread * y.size ** (-0.2)


def lscv_bandwidth(sample, n_steps: int = 60) -> float:
    """Least-squares cross-validation bandwidth for the normal kernel.

    Minimizes the closed-form LSCV criterion (Bowman 1984) over
    ``n_steps`` log-spaced bandwidths from 1/20 to 5 times Silverman's.
    Time is ``n (n - 1) / 2`` pairs times ``n_steps``; beyond the sorted
    sample, memory is a few arrays of ``_BLOCK`` elements.
    """
    y = validate_sample(sample, "sample", min_size=3)
    h0 = silverman_bandwidth(y)  # before sorting, which moves np.std's bits
    y = np.sort(y)  # np.exp runs faster on the sorted differences
    n = y.size
    hs = np.geomspace(h0 / 20.0, 5.0 * h0, n_steps)
    quad, loo = np.zeros((2, n_steps))
    # each unordered pair i < j once, in blocks of rows with at most _BLOCK
    # pairs (or one row); exp(-d^2 / 2h^2) is the square of exp(-d^2 / 4h^2)
    ends = np.cumsum(np.arange(n - 1, 0, -1))  # pairs in rows 0 .. i
    stop = 0
    while stop < n - 1:  # the pairs i < j with i in [start, stop)
        start = stop
        below = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, below + _BLOCK, side="right")))
        rows, cols = np.triu_indices(stop - start, 1, n - start)
        neg_diff2 = -((y[start + cols] - y[start + rows]) ** 2)
        terms = np.empty_like(neg_diff2)
        for j, h in enumerate(hs):
            np.divide(neg_diff2, 4.0 * h * h, out=terms)
            np.exp(terms, out=terms)
            quad[j] += terms.sum()
            terms *= terms
            loo[j] += terms.sum()
    # integral of fhat^2 minus twice the leave-one-out mean density; the
    # diagonal adds n to the first sum and is left out of the second
    quad = (2.0 * quad + n) / (2.0 * math.sqrt(math.pi) * hs * n * n)
    loo = 2.0 * loo / (math.sqrt(2.0 * math.pi) * hs * n * (n - 1))
    return float(hs[int(np.argmin(quad - 2.0 * loo))])


def _check_bandwidths(samples, *hs: float) -> None:
    # each h against the data the smoothed CDFs are evaluated across
    span = max(float(s.max()) for s in samples) - min(float(s.min()) for s in samples)
    for h in hs:
        if not (np.isfinite(h) and h > 0.0):
            raise InvalidInputError(f"bandwidth must be finite and positive, got {h}")
        if h < np.finfo(float).tiny:  # 1/h would overflow
            raise InvalidInputError(f"bandwidth {h:.3g} is below the smallest normal "
                                    f"double, {np.finfo(float).tiny:.3g}")
        if not math.isfinite(span / float(h)):  # so would (y - y_i) / h
            raise InvalidInputError(f"bandwidth {h:.3g} is too small for data spanning {span:.3g}")


def _kernel_inputs(diseased, nondiseased, h_d, h_nd, pick=silverman_bandwidth):
    """The validated samples and their checked bandwidths; a bandwidth
    that is None is ``pick`` of its sample, taken in the order given."""
    d = validate_sample(diseased, "diseased")
    nd = validate_sample(nondiseased, "nondiseased")
    h_d = pick(d) if h_d is None else h_d
    h_nd = pick(nd) if h_nd is None else h_nd
    _check_bandwidths((d, nd), h_d, h_nd)
    return d, nd, h_d, h_nd


# elements in one (rows x points x components) buffer of a normal-CDF sum
_BLOCK = 1 << 16


def kernel_cdf(sample, h: float, y):
    """Normal-kernel CDF estimate ``(1/n) sum Phi((y - y_i)/h)``.

    Bit-identical to ``ndtr((y - y_i) / h).mean(-1)``, in buffers of at
    most ``_BLOCK`` elements (or one point's n).  A point far outside the
    sample gives 0 or 1 without an overflow warning.
    """
    s = validate_sample(sample, "sample")
    _check_bandwidths((s,), h)
    # the mixture of n unit weights, its one row divided by n
    return _mean_mixture_cdf(np.ones((1, s.size)), s[None, :],
                             np.full((1, s.size), h, dtype=float), y) / s.size


def _mixture_cdf(w, mu, sigma, x, density=False, bufs=None, rows=None):
    # w, mu, sigma: (..., L); x: (..., K) broadcastable; returns the CDF
    # (..., K), or with density=True the CDF, the density and its slope
    # f' = -sum w phi(z) z / sigma^2.  With rows (an index array), x row i
    # takes parameter row rows[i], taken into a buffer just before its use.
    # The buffers are fresh, or bufs[0:3] (see _scratch), with the same bits
    if rows is None:
        shape = np.broadcast_shapes(x.shape + (1,), mu.shape[:-1] + (1, mu.shape[-1]))

        def param(a):
            return a[..., None, :]
    else:
        shape = (rows.size, x.shape[-1], mu.shape[-1])

        def param(a):
            # mode="clip" writes straight into the buffer, "raise" via a copy
            return np.take(a, rows, axis=0, mode="clip",
                           out=_scratch(bufs, 2, (rows.size, a.shape[-1])))[:, None, :]
    z = np.subtract(x[..., :, None], param(mu), out=_scratch(bufs, 0, shape))
    z /= param(sigma)
    if not density:
        terms = core.ndtr(z, out=z)
        terms *= param(w)
        return terms.sum(axis=-1)
    terms = core.ndtr(z, out=_scratch(bufs, 1, shape))
    terms *= param(w)
    cdf = terms.sum(axis=-1)
    np.multiply(z, z, out=terms)
    terms *= -0.5
    np.exp(terms, out=terms)
    # w / (sigma sqrt(2 pi)) on the parameter rows
    scale = np.multiply(sigma, math.sqrt(2.0 * math.pi),
                        out=_scratch(bufs if rows is None else None, 2, sigma.shape))
    terms *= param(np.divide(w, scale, out=scale))
    pdf = terms.sum(axis=-1)
    terms *= z
    terms /= param(sigma)
    return cdf, pdf, -terms.sum(axis=-1)


def _scratch(bufs, i, shape):
    # an uninitialised array of this shape: fresh when bufs is None, else
    # the front of work buffer bufs[i], made on first need (at least _BLOCK
    # elements) as an anonymous mapping, apart from the malloc heap.
    # Measured: BENCH_16.json
    if bufs is None:
        return np.empty(shape)
    size = math.prod(shape)
    if bufs[i] is None or bufs[i].size < size:
        bufs[i] = np.frombuffer(mmap.mmap(-1, 8 * max(_BLOCK, size)), dtype=float)
    return bufs[i][:size].reshape(shape)


# draws per block of the inversion
_DRAW_CHUNK = 32
# points in each draw's starting table
_TABLE_POINTS = 64


def _mixture_sums(w, mu, sigma, x, density=False, rows=None, work=None):
    """Mixture CDF ``sum_l w_l Phi((x - mu_l) / sigma_l)`` at ``x`` (and,
    with ``density=True``, its density and the density's slope).

    ``w, mu, sigma`` have shape (R, L) and ``x`` shape (K,), points shared
    by every row, or (R, K).  With ``rows`` (an index array, or a slice)
    output row ``i`` takes parameter row ``rows[i]``, and ``x`` is
    (len(rows), K) or (K,); no (len(rows), L) copy of the parameters is
    made.  The (row, point) evaluations run in blocks of at most
    ``_BLOCK`` elements that never split the L components, so each value
    has the bits of one unblocked sum whatever the shape of the call.
    Every smooth CDF of the package is summed here.

    With ``work`` (a caller's ``[None] * 3``, passed to many calls) the
    blocks evaluate into at most three buffers of max(_BLOCK, L) elements,
    kept in the list for reuse; without it, into fresh arrays.
    """
    if isinstance(rows, slice):
        w, mu, sigma, rows = w[rows], mu[rows], sigma[rows], None
    n_comp = w.shape[1]
    n_rows, k = (w.shape[0] if rows is None else rows.size), x.shape[-1]
    x = np.broadcast_to(x, (n_rows, k))
    per = max(1, _BLOCK // n_comp)
    cols = max(1, min(k, per))
    step = per // cols
    out = np.empty((3 if density else 1, n_rows, k))
    for r in range(0, n_rows, step):
        for c in range(0, k, cols):
            if rows is None:
                params, at_rows = (w[r:r + step], mu[r:r + step], sigma[r:r + step]), None
            else:
                params, at_rows = (w, mu, sigma), rows[r:r + step]
            sums = _mixture_cdf(*params, x[r:r + step, c:c + cols], density, work, at_rows)
            # one output at a time: a tuple would be stacked in a copy
            for dst, src in zip(out, sums if density else (sums,)):
                dst[r:r + step, c:c + cols] = src
    return tuple(out) if density else out[0]


def _halley_step(state, r, f, fp, allowance):
    """One safeguarded step of ``_invert_mixture_cdf`` from each active root.

    ``state`` has a row per field of the active roots: point ``x``, bracket
    ``[x_lo, x_hi]``, target, rounding floor, bound ``M3`` on ``|F^(3)|``
    and the last two step lengths; ``r = F(x) - q``, and ``f``, ``fp`` are
    the density and its slope at ``x``.  Moves ``x`` and the step lengths
    in place and returns the new step's length, its stop tolerance and the
    Taylor bound ``T`` where it proves the step (inf elsewhere).
    """
    x, x_lo, x_hi, _, floor, m3, step_last, step_before = state
    eps = np.finfo(float).eps
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # Halley's step, Newton's over 1 - t, where |t| < 1 (so it keeps
        # Newton's direction and at least half its length), else Newton's
        newton = r / f
        t = 0.5 * newton * fp / f
        x_new = x - np.where(np.abs(t) < 1.0, newton / (1.0 - t), newton)
        x_new = np.where((x_new >= x_lo) & (x_new <= x_hi)
                         & (np.abs(x_new - x) <= 0.5 * step_before),
                         x_new, 0.5 * (x_lo + x_hi))
        s = x_new - x
        tol = 2.0 * np.spacing(np.abs(x_new)) + np.minimum(floor, 8.0 * eps / f)
        f_min = f - np.abs(fp * s) - 0.5 * m3 * s * s
        bound = np.abs(r + f * s + 0.5 * fp * s * s) + m3 * np.abs(s) ** 3 / 6.0
        bound[~((f_min > 0.0) & (bound / f_min <= tol) & (bound + allowance <= 1e-10))] = np.inf
    x[:] = x_new
    step_before[:] = step_last
    np.abs(s, out=step_last)
    return step_last, tol, bound


def _invert_mixture_cdf(w, mu, sigma, targets):
    """Solve F(x) = q for mixture CDFs by table-started safeguarded Halley.

    ``w, mu, sigma`` have shape (S, L); ``targets`` has shape (K,) with
    values strictly inside (0, 1); returns roots of shape (S, K).  Each
    root starts in a bracket ``F(lo) < q <= F(hi)`` from a table of its
    draw's CDF; a step that leaves the bracket or fails to halve the step
    before last is replaced by bisection.  A root stops when its step is
    within the tolerance (the point just evaluated, with that evaluation's
    residual), or when Taylor's theorem with ``|F^(3)| <= M3 = phi(0)
    sum_l w_l / sigma_l^3`` proves the step: the root is then ``x + s``
    and the bound its residual.  Raises ``NumericError``, naming the
    first failing draw, when a residual in CDF scale exceeds 1e-10.
    Beyond the result and O(K) state per draw block of ``_DRAW_CHUNK``,
    memory is at most three buffers of max(_BLOCK, L) elements.
    """
    n_draws, n_targets = w.shape[0], targets.size
    qmin, qmax = float(targets.min()), float(targets.max())
    unit = np.linspace(0.0, 1.0, _TABLE_POINTS)
    eps = np.finfo(float).eps
    # a sum of L terms whose weights sum to 1 rounds by at most about L eps
    allowance = 2.0 * w.shape[1] * eps
    work = [None] * 3
    roots = np.empty((n_draws, n_targets))
    # per-root state of a draw block, one row per field (see _halley_step)
    state = np.empty((8, min(n_draws, _DRAW_CHUNK) * n_targets))

    def solve(start):
        rows = slice(start, start + _DRAW_CHUNK)
        wc, mc, sc = w[rows], mu[rows], sigma[rows]
        r = wc.shape[0]
        lo = (mc - 10.0 * sc).min(axis=1)
        hi = (mc + 10.0 * sc).max(axis=1)
        for _ in range(61):
            xs = lo[:, None] + (hi - lo)[:, None] * unit
            table = _mixture_sums(wc, mc, sc, xs, work=work)
            low, high = table[:, 0] >= qmin, table[:, -1] < qmax
            if not (low.any() or high.any()):
                break
            width = hi - lo
            lo = np.where(low, lo - width, lo)
            hi = np.where(high, hi + width, hi)
        n = r * n_targets
        x, x_lo, x_hi, tgt, floor, m3, step_last, step_before = state[:, :n]
        # a table row is nondecreasing (so is each rounded term), so a
        # search finds the table points around each target
        j = np.clip([np.searchsorted(row, targets) for row in table], 1, _TABLE_POINTS - 1)
        x_lo[:] = np.take_along_axis(xs, j - 1, axis=1).ravel()
        x_hi[:] = np.take_along_axis(xs, j, axis=1).ravel()
        f_lo = np.take_along_axis(table, j - 1, axis=1).ravel()
        f_hi = np.take_along_axis(table, j, axis=1).ravel()
        tgt[:] = np.tile(targets, r)
        with np.errstate(divide="ignore", invalid="ignore"):
            start_x = x_lo + (tgt - f_lo) / (f_hi - f_lo) * (x_hi - x_lo)
        x[:] = np.where((start_x >= x_lo) & (start_x <= x_hi), start_x, 0.5 * (x_lo + x_hi))
        owner = np.repeat(np.arange(r), n_targets)
        # a sigma whose cube underflows makes M3 infinite: no step proven
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            m3[:] = ((wc / sc ** 3).sum(axis=1) / math.sqrt(2.0 * math.pi))[owner]
        floor[:] = eps * (hi - lo)[owner]
        np.subtract(x_hi, x_lo, out=step_last)
        step_before[:] = step_last
        out, resid = roots[start:start + r].reshape(-1), np.empty(n)
        active = np.arange(n)
        for _ in range(120):
            m = active.size
            fields = state[:, :m]
            x, tgt = fields[0], fields[3]
            out[active] = x
            # the layout with the smaller buffers: the whole (draws,
            # targets) rectangle (two buffers of n roots), or the active
            # roots alone with their parameter rows taken (three of m)
            if r == 1:
                sums = _mixture_sums(wc, mc, sc, x[None, :], density=True, work=work)
            elif 2 * n <= 3 * m:
                sums = _mixture_sums(wc, mc, sc, out.reshape(r, n_targets), density=True,
                                     work=work)
                if m < n:
                    sums = [v.reshape(-1)[active] for v in sums]
            else:
                sums = _mixture_sums(wc, mc, sc, x[:, None], density=True,
                                     rows=active // n_targets, work=work)
            diff, dens, slope = (v.reshape(-1) for v in sums)
            diff -= tgt  # r = F(x) - q
            resid[active] = np.abs(diff)
            below = diff < 0.0
            np.putmask(fields[1], below, x)
            np.putmask(fields[2], ~below, x)
            step, tol, bound = _halley_step(fields, diff, dens, slope, allowance)
            proven = bound < np.inf
            done = active[proven]
            out[done], resid[done] = x[proven], bound[proven]
            moving = step > tol
            moving &= ~proven
            if not moving.any():
                break
            # the moving roots' state to the front, one row at a time, so no
            # temporary of the whole state is made
            kept = np.count_nonzero(moving)
            for row in fields:
                np.compress(moving, row, out=row[:kept])
            active = active[moving]
        worst = float(resid.max())
        if worst > 1e-10:
            s, k = np.unravel_index(int(resid.argmax()), (r, n_targets))
            raise NumericError(
                f"CDF inversion residual {worst:.2e} at target {targets[k]:.6g} "
                f"(draw {start + s}) exceeds 1e-10"
            )

    for start in range(0, n_draws, _DRAW_CHUNK):
        solve(start)
    return roots


def _roc_from_mixtures(w_d, mu_d, sg_d, w_nd, mu_nd, sg_nd, grid):
    """Per-draw ROC curves for paired mixture arrays of shape (S, L)."""
    interior = (grid > 0.0) & (grid < 1.0)
    if np.any(interior):  # the roots first, so the inversion runs without the curves
        roots = _invert_mixture_cdf(w_nd, mu_nd, sg_nd, 1.0 - grid[interior])
        f_d = _mixture_sums(w_d, mu_d, sg_d, roots)
    curves = np.empty((w_d.shape[0], grid.size))
    curves[:, grid == 0.0] = 0.0
    curves[:, grid == 1.0] = 1.0
    if np.any(interior):
        curves[:, interior] = np.subtract(1.0, f_d, out=f_d)
    return np.clip(curves, 0.0, 1.0, out=curves)


def kernel_roc(diseased, nondiseased, h_d: float | None = None,
               h_nd: float | None = None, grid=None) -> RocCurveEstimate:
    """Normal-kernel smoothed ROC curve.

    Bandwidths default to ``silverman_bandwidth`` of each sample.  The
    nondiseased CDF is inverted with residual at most 1e-10 in CDF scale;
    the ``auc`` is ``kernel_auc``'s closed form.
    """
    d, nd, h_d, h_nd = _kernel_inputs(diseased, nondiseased, h_d, h_nd)
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
# diseased values per task of the kernel AUC's direct pair sums
_AUC_ROWS = 64
# order of the kernel AUC's Taylor expansion, and the fewest diseased
# values in a Taylor block.  Measured: BENCH_11.json
_TAYLOR_ORDER = 16
_TAYLOR_ROWS = 32
# e^m / m! times the m-th derivative of Phi is e^m (-1)^(m-1) He_(m-1) phi / m!
_TAYLOR_SIGNS = np.array([1.0] + [(-1.0) ** (m - 1) / math.factorial(m)
                                  for m in range(1, _TAYLOR_ORDER + 1)])


def _taylor_row_sums(rows, window, scale):
    """``sum_i Phi((y - window_i) / scale)`` for each ``y`` in ``rows``, a
    sorted block at most ``0.5 scale`` wide, by expansion about its centre.

    With ``t_i = (c - window_i) / scale`` and ``e = (y - c) / scale``,
    ``Phi(t + e) = sum_m e^m / m! Phi^(m)(t)`` and
    ``Phi^(m) = (-1)^(m-1) He_(m-1) phi`` for ``m >= 1``; the window sums
    go through one ``_BLOCK``-element buffer.
    """
    c = 0.5 * (rows[0] + rows[-1])
    cols = max(1, min(window.size, _BLOCK // (_TAYLOR_ORDER + 3)))
    buf = np.empty((_TAYLOR_ORDER + 3, cols))
    sums = np.zeros(_TAYLOR_ORDER + 1)
    for start in range(0, window.size, cols):
        piece = window[start:start + cols]
        h, t, tmp = buf[:-2, :piece.size], buf[-2, :piece.size], buf[-1, :piece.size]
        np.subtract(c, piece, out=t)
        t /= scale
        core.ndtr(t, out=h[0])
        np.square(t, out=h[1])
        h[1] *= -0.5
        np.exp(h[1], out=h[1])
        h[1] *= 1.0 / math.sqrt(2.0 * math.pi)
        np.multiply(t, h[1], out=h[2])
        for k in range(2, _TAYLOR_ORDER):  # h[k + 1] = He_k phi
            np.multiply(t, h[k], out=h[k + 1])
            np.multiply(h[k - 1], k - 1, out=tmp)
            h[k + 1] -= tmp
        sums += h.sum(axis=1)
    coef = sums * _TAYLOR_SIGNS
    e = (rows - c) / scale
    out = np.full(rows.size, coef[-1])
    for a in coef[-2::-1]:
        out *= e
        out += a
    return out


def kernel_auc(diseased, nondiseased, h_d: float | None = None,
               h_nd: float | None = None) -> float:
    """Closed-form AUC of the kernel-smoothed ROC.

    ``(1/(n_D n_ND)) sum_j sum_i Phi((y_Dj - y_NDi) / s)`` with
    ``s = sqrt(h_D^2 + h_ND^2)``, the same for any order of either sample.
    Pairs more than 8.3 s apart count as exactly 1 or are skipped (each
    below 5.3e-17).  Diseased values that crowd into a bin ``0.5 s`` wide
    (at least ``_TAYLOR_ROWS``) share an order-16 Taylor expansion about
    its centre, each pair within 3e-19 of its term (Cramer's inequality,
    ``|He_k phi| <= 0.434 sqrt(k!)``); the rest are summed directly.
    Partial sums are added exactly (``math.fsum``), and memory is linear
    in n.
    """
    d, nd, h_d, h_nd = _kernel_inputs(diseased, nondiseased, h_d, h_nd)
    d, nd = np.sort(d), np.sort(nd)
    scale = math.hypot(h_d, h_nd)
    reach = _SATURATED * scale
    # Taylor blocks: full bins 0.5 scale wide (one wider by rounding goes direct)
    bins = np.floor((d - d[0]) / (0.5 * scale))
    starts = np.flatnonzero(np.r_[True, bins[1:] != bins[:-1]])
    ends = np.r_[starts[1:], d.size]
    taylor = (ends - starts >= _TAYLOR_ROWS) & (d[ends - 1] - d[starts] <= 0.5 * scale)
    in_taylor = np.repeat(taylor, ends - starts)
    # tasks: every Taylor block, the other values cut at multiples of _AUC_ROWS
    runs = np.arange(0, d.size, _AUC_ROWS)
    first = np.union1d(runs[~in_taylor[runs]], np.r_[starts[taylor], ends[taylor]])
    first = first[first < d.size]
    last = np.r_[first[1:], d.size] - 1
    # each task's window nd[lo:hi]: within reach of its values
    lo = np.searchsorted(nd, d[first] - reach, side="left")
    hi = np.searchsorted(nd, d[last] + reach, side="right")
    cols = _BLOCK // _AUC_ROWS
    sums = [int((last - first + 1) @ lo)]  # the pairs with Phi = 1.0
    for a, b, wa, wb, expand in zip(first.tolist(), last.tolist(), lo.tolist(), hi.tolist(),
                                    in_taylor[first].tolist()):
        rows, window = d[a:b + 1], nd[wa:wb]
        if expand:
            sums += _taylor_row_sums(rows, window, scale).tolist()
            continue
        buf = np.empty((rows.size, min(cols, window.size)))
        for c in range(0, window.size, cols):
            piece = window[c:c + cols]
            pairs = buf[:, :piece.size]
            np.subtract(rows[:, None], piece, out=pairs)
            pairs /= scale
            core.ndtr(pairs, out=pairs)
            sums.append(float(pairs.sum()))
    return math.fsum(sums) / (d.size * nd.size)


# ---------------------------------------------------------------------------
# Bayesian bootstrap


# draws times subjects from which bb_roc forks.  Measured: BENCH_26.json fork_floors
_FORK_BB = 1_000_000


def _joined(parts):
    # each field of forked_spans' parts joined in span order, without a
    # copy of one span's arrays
    return [f[0] if len(f) == 1 or f[0] is None else np.concatenate(f) for f in zip(*parts)]


def bb_roc(diseased, nondiseased, n_draws: int, grid=None, *,
           seed: SeedSpec, youden: bool = False) -> PosteriorEnsemble:
    """Bayesian bootstrap ROC ensemble.

    Each draw ``s`` reweights the nondiseased sample with flat Dirichlet
    weights to form weighted placement values
    ``U_j = sum_i q1_i I(y_NDi >= y_Dj)``, then reweights the diseased
    sample to form the curve ``ROC(p) = sum_j q2_j I(U_j <= p)`` and the
    closed-form ``auc = 1 - sum_j q2_j U_j``.  Draw ``s`` uses the child
    stream ``seed.rng(s)``, so results do not depend on evaluation order,
    and from ``_FORK_BB`` draws times subjects on the draws run in forked
    spans (``core.forked_spans``) with the same bits.  With
    ``youden=True`` each draw also gives the Youden index, threshold and
    FPF of its two weighted ECDFs by the step rule of ``indices``.
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
        cand, cand_d, cand_nd = _step_candidates(d_sorted, nd_sorted)

    def draws(start, stop):
        curves = np.empty((stop - start, grid.size))
        aucs = np.empty(stop - start)
        yis, thresholds, p_stars = np.empty((3, stop - start)) if youden else (None,) * 3
        for i, s in enumerate(range(start, stop)):
            rng = seed.rng(s)
            # weights are drawn in input order, then carried to the sort order
            q1_sorted = dirichlet_uniform(nd.size, rng)[nd_order]
            q2_sorted = dirichlet_uniform(d.size, rng)[d_order]
            tail = np.concatenate([np.cumsum(q1_sorted[::-1])[::-1], [0.0]])
            # placement values of d_sorted, nonincreasing; a suffix sum can
            # round above 1, which p = 1 would not count
            u = np.minimum(tail[pos], 1.0)
            order_u = _stable_order_of_nonincreasing(u)
            cum = np.concatenate([[0.0], np.cumsum(q2_sorted[order_u])])
            curves[i] = cum[np.searchsorted(u[::-1], grid, side="right")]
            aucs[i] = 1.0 - float(u @ q2_sorted)
            if youden:
                yis[i], thresholds[i], p_stars[i] = _step_youden(
                    cand, np.concatenate([[0.0], np.cumsum(q2_sorted)])[cand_d],
                    np.concatenate([[0.0], np.cumsum(q1_sorted)])[cand_nd])
        return curves, aucs, yis, thresholds, p_stars

    parts = forked_spans(draws, n_draws, n_draws * (d.size + nd.size) >= _FORK_BB)
    curves, aucs, yis, thresholds, p_stars = _joined(parts)
    np.clip(curves, 0.0, 1.0, out=curves)
    curves[:, grid == 1.0] = 1.0  # the whole diseased mass, but for cumsum rounding
    return PosteriorEnsemble(grid=grid, curves=curves, aucs=np.clip(aucs, 0.0, 1.0),
                             yis=yis, thresholds=thresholds, p_stars=p_stars)


def _stable_order_of_nonincreasing(u: np.ndarray) -> np.ndarray:
    """``np.argsort(u, kind="stable")`` for a nonincreasing ``u``, without a sort."""
    n = u.size
    v = u[::-1]
    starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
    ends = np.r_[starts[1:], n]
    return n - np.repeat(starts + ends, ends - starts) + np.arange(n)


# ---------------------------------------------------------------------------
# Dirichlet process mixture


def _exact_fit(y: np.ndarray, sigma2: float) -> bool:
    """Whether residual variance ``sigma2`` of outcomes ``y`` is an exact fit:
    at most ``(n eps max|y|)^2``, the rounding of least squares.  Where
    that or ``sigma2`` overflows, or both underflow, an
    ``InvalidInputError`` names the overflow or underflow."""
    scale = float(np.abs(y).max())
    with np.errstate(over="ignore"):
        bound = float((y.size * np.finfo(float).eps * scale) ** 2)
    if not (math.isfinite(sigma2) and math.isfinite(bound)):
        raise InvalidInputError(f"values of magnitude {scale:.3g} overflow the "
                                "residual variance; rescale them")
    tiny = np.finfo(float).tiny
    if sigma2 >= tiny or bound >= tiny or scale == 0.0:
        return sigma2 <= bound
    raise InvalidInputError(f"values of magnitude {scale:.3g} underflow the "
                            "residual variance; rescale them")


def _blocked_gibbs(y: np.ndarray, design: np.ndarray, cfg: DpmConfig):
    """Truncated blocked Gibbs sampler for a mixture of normal regressions.

    The model is ``y_i ~ sum_l w_l N(x_i' beta_l, 1/tau_l)`` with
    stick-breaking weights truncated at ``L = cfg.truncation`` components,
    a conjugate ``N(centre_mean, centre_var)`` prior on each coefficient
    vector and a ``Gamma(shape, rate)`` prior on each precision; an empty
    component draws from the prior.  Saves ``cfg.n_save`` draws after
    ``cfg.burn_in`` sweeps.  The chain is a function of the data and
    ``cfg`` alone: the same bits in any process.

    Returns weights (S, L), coefficients (S, L, d) and variances (S, L).
    """
    n, d = design.shape
    if n < 2:
        raise InvalidInputError("need at least two observations")
    beta_hat, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta_hat
    with np.errstate(over="ignore"):  # _exact_fit names an overflow
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

    # per-observation statistics vec(x x') and x y, summed per component
    k = d * d + d
    stats = np.hstack([(design[:, :, None] * design[:, None, :]).reshape(n, d * d),
                       design * y[:, None]]).ravel()
    offsets = np.arange(k)
    design_t = np.ascontiguousarray(design.T)

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
        # rng.gamma(shape, scale) in bits and stream, at half the cost
        tau = rng.standard_gamma(a + 0.5 * counts) * (1.0 / (b + 0.5 * rss))

        if not (np.isfinite(coef).all() and np.isfinite(tau).all() and (tau > 0.0).all()):
            raise NumericError(f"non-finite mixture state at Gibbs iteration {it}")
        if it >= cfg.burn_in:
            s = it - cfg.burn_in
            weights[s], coefs[s], variances[s] = w, coef, 1.0 / tau
        z = _allocate(y, design_t, coef, w, tau, rng)
    return weights, coefs, variances


def _allocate(y, design_t, coef, w, tau, rng):
    """The allocation step: draw each observation's component from its
    posterior probabilities, proportional to ``w_l N(y_i; x_i' beta_l, 1/tau_l)``.

    Laid out (L, n), it rounds exactly as the (n, L) form
    ``p = exp(logp - max)``, ``p /= p.sum(axis=1)``,
    ``(p.cumsum(axis=1) < u).sum(axis=1)`` does.
    """
    L = w.size
    with np.errstate(divide="ignore"):
        level = np.log(w) + 0.5 * np.log(tau)
    # logp = level - 0.5 tau (y - x'beta)^2 in one buffer; np.dot, since
    # matmul takes a slow path when d = 1
    logp = np.dot(coef, design_t)
    np.subtract(y, logp, out=logp)
    np.square(logp, out=logp)
    logp *= (0.5 * tau)[:, None]
    np.subtract(level[:, None], logp, out=logp)
    logp -= logp.max(axis=0)
    prob = np.exp(logp, out=logp)
    prob /= _pairwise_rows(prob, 0, L)
    for l in range(1, L):
        prob[l] += prob[l - 1]
    z = (prob < rng.uniform(size=y.size)).sum(axis=0)
    return np.minimum(z, L - 1).astype(np.intp)


def _pairwise_rows(a, lo, hi):
    """Sum of rows ``lo .. hi - 1`` of ``a``, added in the order numpy's
    pairwise summation adds a contiguous run of ``hi - lo`` values:
    one by one below 8, in eight interleaved partial sums up to 128, and
    as two halves (the first a multiple of 8 long) above that.  Not a
    closure: one that calls itself is a reference cycle, which would keep
    every row buffer alive until the cycle collector runs.
    """
    n = hi - lo
    if n < 8:
        total = a[lo].copy()
        for i in range(lo + 1, hi):
            total += a[i]
        return total
    if n <= 128:
        end = hi - n % 8
        acc = a[lo:lo + 8].copy()
        for i in range(lo + 8, end, 8):
            acc += a[i:i + 8]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for i in range(end, hi):
            total += a[i]
        return total
    half = n // 2 - (n // 2) % 8
    return _pairwise_rows(a, lo, lo + half) + _pairwise_rows(a, lo + half, hi)


def dpm_fit(sample, cfg: DpmConfig) -> MixtureEnsemble:
    """Fit a truncated DPM of normals by blocked Gibbs sampling.

    The model is ``y_i ~ sum_l w_l N(mu_l, 1/tau_l)``, with the priors of
    ``DpmConfig``.  ``dpm_fit(y, cfg)`` and ``ddp_fit`` on ``y`` with a
    column of ones give identical chains.  Returns a ``MixtureEnsemble`` of
    ``cfg.n_save`` draws, deterministic given ``cfg.seed``.
    """
    y = validate_sample(sample, "sample", min_size=2)
    weights, coefs, variances = _blocked_gibbs(y, np.ones((y.size, 1)), cfg)
    return MixtureEnsemble(weights, coefs[:, :, 0], variances)


def _mixture_aucs(w_d, mu_d, sg_d, w_nd, mu_nd, sg_nd):
    """Closed-form AUC of each pair of mixtures given as (S, L) arrays.

    ``sum_k sum_l w_NDk w_Dl Phi(a_kl / sqrt(1 + b_kl^2))`` with
    ``a_kl = (mu_Dl - mu_NDk)/sigma_Dl`` and ``b_kl = sigma_NDk/sigma_Dl``,
    in draw blocks of at most ``_BLOCK`` (k, l) terms that leave each
    draw's sum unchanged.
    """
    step = max(1, _BLOCK // (w_d.shape[1] * w_nd.shape[1]))

    def block(start):
        rows = slice(start, start + step)
        a = (mu_d[rows, None, :] - mu_nd[rows, :, None]) / sg_d[rows, None, :]
        b = sg_nd[rows, :, None] / sg_d[rows, None, :]
        return np.einsum("sk,sl,skl->s", w_nd[rows], w_d[rows],
                         core.ndtr(a / np.sqrt(1.0 + b * b)))

    return np.concatenate([block(start) for start in range(0, w_d.shape[0], step)])


def dpm_auc(draw_d: MixtureDraw, draw_nd: MixtureDraw) -> float:
    """Closed-form AUC between two normal-mixture draws (``_mixture_aucs``)."""
    d = MixtureEnsemble.from_draws([draw_d])._normals()
    nd = MixtureEnsemble.from_draws([draw_nd])._normals()
    return float(_mixture_aucs(*d, *nd)[0])


def _mean_mixture_cdf(w, mu, sg, y):
    # the mixture CDF at y averaged over the (S, L) rows, added in row order
    # for any number of points (a mean would add one point's pairwise)
    yv = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):  # (y - mu) / sigma = +-inf has Phi 0 or 1 exactly
        sums = _mixture_sums(w, mu, sg, yv.reshape(-1))
    out = np.cumsum(sums, axis=0, out=sums)[-1] / w.shape[0]
    return float(out[0]) if yv.ndim == 0 else out.reshape(yv.shape)


def mixture_cdf_callable(draw: MixtureDraw):
    """CDF of one mixture draw as a plain callable (scalar or array in/out)."""
    normals = MixtureEnsemble.from_draws([draw])._normals()
    return lambda c: _mean_mixture_cdf(*normals, c)


# draw components (S times L) from which an ensemble forks.  Measured: BENCH_26.json fork_floors
_FORK_ENSEMBLE = 1500


def _ensemble_from_mixture_arrays(w_d, mu_d, sg_d, w_nd, mu_nd, sg_nd, grid,
                                  youden: bool) -> PosteriorEnsemble:
    """Ensemble curves, closed-form AUCs and, with ``youden``, Youden
    indices (one search range for all draws) for paired (S, L) mixtures.
    From ``_FORK_ENSEMBLE`` draw components on, the draws run in forked
    spans (``core.forked_spans``) with the same bits.
    """
    if w_d.shape[0] != w_nd.shape[0] or w_d.shape[0] < 1:
        raise InvalidInputError("need equally many draws for both groups")
    grid = default_prob_grid() if grid is None else as_prob_grid(grid)
    n_comp = max(w_d.shape[1], w_nd.shape[1])
    if youden:
        sg_max = max(float(sg_d.max()), float(sg_nd.max()))
        lo = min(float(mu_d.min()), float(mu_nd.min())) - 4.0 * sg_max
        hi = max(float(mu_d.max()), float(mu_nd.max())) + 4.0 * sg_max

    def part(start, stop):
        pairs = slice(start, stop)
        d = w_d[pairs], mu_d[pairs], sg_d[pairs]
        nd = w_nd[pairs], mu_nd[pairs], sg_nd[pairs]
        found = (_roc_from_mixtures(*d, *nd, grid), _mixture_aucs(*d, *nd))
        if not youden:
            return found + (None,) * 3
        work = [None] * 3

        def cdfs(x, rows):
            return (_mixture_sums(*nd, x, rows=rows, work=work),
                    _mixture_sums(*d, x, rows=rows, work=work))

        # a fine-stage call takes an (L,) parameter row per (pair, point)
        # into one buffer, so _BLOCK // L evaluations keep it within _BLOCK
        return found + _youden_search(cdfs, np.linspace(lo, hi, 1000), lo, hi, stop - start,
                                      _BLOCK // n_comp)

    parts = forked_spans(part, w_d.shape[0], w_d.shape[0] * n_comp >= _FORK_ENSEMBLE)
    curves, aucs, yis, thresholds, p_stars = _joined(parts)
    return PosteriorEnsemble(grid=grid, curves=curves, aucs=np.clip(aucs, 0.0, 1.0),
                             yis=yis, thresholds=thresholds, p_stars=p_stars)


def dpm_roc(draws_d, draws_nd, grid=None, *, youden: bool = False) -> PosteriorEnsemble:
    """Posterior ROC ensemble from ``dpm_fit`` ensembles or sequences of draws.

    Draw ``s`` pairs ``draws_d[s]`` with ``draws_nd[s]``; both must have
    equal length.  Curves invert the nondiseased mixture CDF (residual at
    most 1e-10); AUCs are ``dpm_auc``'s closed form.  With ``youden=True``
    each draw's Youden index comes from the smooth rule of ``indices``.
    From ``_FORK_ENSEMBLE`` draws times components on, the draws run in
    forked spans with the same bits.
    """
    ens_d, ens_nd = MixtureEnsemble.from_draws(draws_d), MixtureEnsemble.from_draws(draws_nd)
    return _ensemble_from_mixture_arrays(*ens_d._normals(), *ens_nd._normals(),
                                         grid, youden)
