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

Smooth CDFs (kernel and mixture) are inverted by safeguarded Halley
iteration, started from a short per-draw table of the CDF that brackets
every root and interpolates its first guess.  A Taylor bound proves most
roots' last step without evaluating the CDF there, so a root takes about
2.1 CDF evaluations at the CLI's defaults (Newton steps with a confirming
evaluation took 4.1).  The empirical estimator resolves quantile ranks in
exact integer arithmetic so grid probabilities that sit exactly on ECDF
jumps are handled deterministically.  The kernel
AUC takes only pairs inside the window where the normal CDF is neither
exactly 1 nor below 5.3e-17, and where diseased values crowd into a bin
half a combined bandwidth wide it expands the CDF about the bin centre, so
it takes one ``ndtr`` per (bin, nondiseased value) instead of one per
pair.  With ``youden=True`` the
mixture estimators search every draw's Youden index in one batched pass
(``indices._youden_search``, coarse to fine: only scan points whose gap
can reach the best one are evaluated) that gives the same bits as a full
1000-point scan and as a ``youden_from_cdfs`` call per draw.

Every smooth CDF is a sum ``sum_l w_l Phi((x - mu_l) / sigma_l)``; the
kernel CDF is the one with n equal weights.  One function takes all of
them, ``_mixture_sums``, with one block rule: (row, point) blocks of at
most ``_BLOCK`` elements (at least one evaluation), never splitting the
components, so each value is one unblocked sum whose bits do not depend on
the shape of the call.  The kernel CDF, the inversion's tables and Halley
passes, the curve evaluation, the Youden scan and the posterior-mean CDFs
all call it, and memory stays linear in the sample size.

Independent blocks (those of ``_mixture_sums``, the draw blocks of the
inversion and of the closed-form mixture AUCs, the kernel AUC's Taylor
blocks and row runs, and the Youden scan's pair blocks) run through
``core.ordered_map`` on one thread per usable CPU.  Each block computes
what the serial loop would and results combine in block order, so outputs
do not depend on the thread count.
Block sizes are fixed by the inputs (mostly ``_BLOCK`` elements per
buffer), so each extra thread adds at most one block's buffers to the peak.
Two per-draw loops hold the interpreter lock, the batched Youden search
of the mixture ensembles and the draws of ``bb_roc``; above a measured
work floor (``_FORK_YOUDEN``, ``_FORK_BB``) they run in one span of
draws per CPU through ``core.forked_spans``, again with the same bits.

The Gibbs sampler itself is serial, one chain per call: its sweeps are many
small numpy calls that hold the interpreter lock.  Its allocation step
works on (L, n) arrays so each reduction runs along the n observations,
with sums that round exactly as the (n, L) form did.  Callers that fit two
groups (the CLI) run the two chains in two processes (``core.forked_map``).
"""

from __future__ import annotations

import math
import mmap
import threading
from dataclasses import dataclass

import numpy as np

from .core import (SeedSpec, _exact_ranks, as_prob_grid, default_prob_grid,
                   dirichlet_uniform, forked_spans, ordered_map, validate_sample)
from .errors import DegenerateSampleError, InvalidInputError, NumericError
from .indices import _warn_if_negative, _youden_search


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


def empirical_roc(diseased, nondiseased, grid=None) -> RocCurveEstimate:
    """Plug-in ECDF estimate of the ROC curve on a probability grid.

    ``roc(p) = 1 - F_D(q)`` with ``q`` the smallest nondiseased order
    statistic whose ECDF level reaches ``1 - p``; ``roc(1) = 1`` by
    convention and ``roc(0)`` is the right limit (the fraction of diseased
    above the nondiseased maximum).  Rank selection uses exact integer
    arithmetic on the binary value of each grid probability
    (``core._exact_ranks``, the rank rule of ``quantile`` too).
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
    sd = float(np.std(y, ddof=1))
    q25, q75 = np.percentile(y, [25.0, 75.0])
    spread = min(sd, (q75 - q25) / 1.34)
    if spread <= 0.0:
        raise DegenerateSampleError("sample has no usable spread for a bandwidth")
    return 0.9 * spread * y.size ** (-0.2)


def lscv_bandwidth(sample, n_steps: int = 60) -> float:
    """Least-squares cross-validation bandwidth for the normal kernel.

    Minimizes the closed-form LSCV criterion over a log-spaced band around
    the rule-of-thumb value (Bowman 1984).  Both of its pair sums are
    symmetric, so each unordered pair ``i < j`` is visited once, in
    blocks of rows, and the ``i == j`` terms are added in closed form;
    ``exp(-d^2 / 2h^2)`` is the square of ``exp(-d^2 / 4h^2)``, so each
    pair costs one ``exp`` per bandwidth.  Time is ``n (n - 1) / 2`` pairs
    times ``n_steps``; memory is linear in the sample size.
    """
    y = validate_sample(sample, "sample", min_size=3)
    h0 = silverman_bandwidth(y)  # before sorting, which moves np.std's bits
    # sorted, each row's differences grow along the row: np.exp then ran
    # about 1.7x faster at n = 1,000 than on the input order
    y = np.sort(y)
    n = y.size
    hs = np.geomspace(h0 / 20.0, 5.0 * h0, n_steps)
    quad, loo = np.zeros((2, n_steps))
    for start in range(0, n - 1, 256):  # the pairs i < j with i in [start, stop)
        stop = min(start + 256, n - 1)
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


def _check_bandwidths(*hs: float) -> None:
    for h in hs:
        if not (np.isfinite(h) and h > 0.0):
            raise InvalidInputError(f"bandwidth must be finite and positive, got {h}")


# elements in one (rows x points x components) buffer of a normal-CDF sum
_BLOCK = 1 << 16


def kernel_cdf(sample, h: float, y):
    """Normal-kernel CDF estimate ``(1/n) sum Phi((y - y_i)/h)``.

    The n-component mixture with unit weights, summed by ``_mixture_sums``
    and divided once by n, which gives the bits of
    ``ndtr((y - y_i) / h).mean(-1)`` in buffers of at most ``_BLOCK``
    elements (or one point's n).
    """
    from scipy.special import ndtr

    s = validate_sample(sample, "sample")
    _check_bandwidths(h)
    yv = np.asarray(y, dtype=float)
    sums = _mixture_sums(np.ones((1, s.size)), s[None, :], np.full((1, s.size), h, dtype=float),
                         yv.reshape(-1), ndtr)
    out = sums[0] / s.size
    return float(out[0]) if np.isscalar(y) or yv.ndim == 0 else out.reshape(yv.shape)


# The mixture helpers take scipy.special.ndtr from their caller, which
# imports it once per public call, so scipy loads on first use.
#
# Rules for every block function handed to ordered_map: compute exactly
# what the serial loop computes for that block, and combine results in
# block order; set any np.errstate inside the block, because a pool thread
# does not inherit the caller's; leave warnings to the calling thread; and
# never call ndtr with where=, which writes wrong values on scipy 1.17.1.


def _mixture_cdf(w, mu, sigma, x, ndtr, density=False, bufs=None):
    # w, mu, sigma: (..., L); x: (..., K) broadcastable; returns the CDF
    # (..., K), or with density=True the CDF, the density and the density's
    # slope f' = -sum w phi(z) z / sigma^2, whose terms are the density's
    # times z / sigma: the density terms go into the CDF-term buffer, so z
    # survives for them.  The buffers are fresh, or bufs[0:3] (see
    # _scratch); the bits are the same either way
    shape = np.broadcast_shapes(x.shape + (1,), mu.shape[:-1] + (1, mu.shape[-1]))
    z = np.subtract(x[..., :, None], mu[..., None, :], out=_scratch(bufs, 0, shape))
    z /= sigma[..., None, :]
    if not density:
        terms = ndtr(z, out=z)
        terms *= w[..., None, :]
        return terms.sum(axis=-1)
    terms = ndtr(z, out=_scratch(bufs, 1, shape))
    terms *= w[..., None, :]
    cdf = terms.sum(axis=-1)
    np.multiply(z, z, out=terms)
    terms *= -0.5
    np.exp(terms, out=terms)
    scale = np.multiply(sigma, math.sqrt(2.0 * math.pi), out=_scratch(bufs, 2, sigma.shape))
    terms *= np.divide(w, scale, out=scale)[..., None, :]
    pdf = terms.sum(axis=-1)
    terms *= z
    terms /= sigma[..., None, :]
    return cdf, pdf, -terms.sum(axis=-1)


def _scratch(bufs, i, shape):
    # an uninitialised array of this shape: fresh when bufs is None, else
    # the front of work buffer bufs[i], made on first need (at least _BLOCK
    # elements) as an anonymous mapping of its own.  Such a buffer lives for
    # a whole call: in the malloc heap it pushed the call's other
    # allocations above it (compute_mix peak RSS measured 5 MB higher); a
    # mapping stays apart, costs only the pages touched and is unmapped
    # when dropped
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


def _mixture_sums(w, mu, sigma, x, ndtr, density=False, rows=None, work=None):
    """Mixture CDF (and, with ``density=True``, its density and the
    density's slope) at ``x``, as ``_mixture_cdf`` computes them, in blocks
    of (row, point) evaluations.

    ``w, mu, sigma`` have shape (R, L) and ``x`` shape (K,), points shared
    by every row, or (R, K).  With ``rows`` (an index array, or a slice)
    output row ``i`` takes parameter row ``rows[i]``, and ``x`` is
    (len(rows), K) or (K,): each block gathers its own rows into work
    buffers, so no caller copies (len(rows), L) arrays.  A block takes as
    many evaluations as keep its (rows, points, L) buffer within ``_BLOCK``
    elements, and at least one; the blocks run through ``ordered_map``.
    The components are never split, so each value is one sum over all L of
    them, with the bits of an unblocked ``_mixture_cdf`` call whatever the
    shape of the call.  This is the only place a sum of normal CDFs is
    blocked.

    With ``work`` (a ``threading.local`` that a caller creates and passes
    to many calls) each thread's blocks evaluate into at most six work
    buffers of max(_BLOCK, L) elements, made on first need and kept there,
    so the calls reuse those pages instead of faulting in fresh ones.
    Without it each block evaluates into fresh arrays, which costs less for
    a short call than mapping buffers.
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

    def block(at):
        r, c = at
        bufs = None if work is None else vars(work).setdefault("bufs", [None] * 6)
        if rows is None:
            params = w[r:r + step], mu[r:r + step], sigma[r:r + step]
        else:
            at_rows = rows[r:r + step]
            # mode="clip" writes straight into the buffer; "raise" would
            # copy through a temporary
            params = [np.take(a, at_rows, axis=0, mode="clip",
                              out=_scratch(bufs, 3 + i, (at_rows.size, n_comp)))
                      for i, a in enumerate((w, mu, sigma))]
        sums = _mixture_cdf(*params, x[r:r + step, c:c + cols], ndtr, density, bufs)
        # one output at a time: assigning the tuple would stack it in a copy
        for dst, src in zip(out, sums if density else (sums,)):
            dst[r:r + step, c:c + cols] = src

    ordered_map(block, [(r, c) for r in range(0, n_rows, step) for c in range(0, k, cols)])
    return tuple(out) if density else out[0]


def _halley_step(x, r, f, fp, x_lo, x_hi, step_before, floor, m3, allowance):
    """One safeguarded step of ``_invert_mixture_cdf`` from each point ``x``.

    ``r = F(x) - q``, ``f`` and ``fp`` are the density and its slope at
    ``x``; ``[x_lo, x_hi]`` is the bracket; ``floor`` and ``m3`` are each
    root's rounding floor and bound on ``|F^(3)|``.  Returns the new point,
    the step's length, its stop tolerance and the Taylor bound ``T`` where
    it proves the step (inf elsewhere).  A function of its own, so its
    temporaries are freed before the next pass evaluates.
    """
    eps = np.finfo(float).eps
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # Halley's step is Newton's over 1 - t.  It is taken where |t| < 1,
        # so it keeps Newton's direction and at least half its length, else
        # Newton's is (t is infinite where the density underflows): no step
        # vanishes far from its root
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
    return x_new, np.abs(s), tol, bound


def _invert_mixture_cdf(w, mu, sigma, targets, ndtr):
    """Solve F(x) = q for mixture CDFs by table-started safeguarded Halley.

    ``w, mu, sigma`` have shape (S, L); ``targets`` has shape (K,) with
    values strictly inside (0, 1); returns roots of shape (S, K).  Draws are
    solved in blocks of ``_DRAW_CHUNK``, spread over ``ordered_map``.  Each
    draw's CDF is tabulated at ``_TABLE_POINTS`` points over its own
    ``[min mu - 10 sigma, max mu + 10 sigma]``, widened (doubling) while the
    table misses a target.  The table gives each root a bracket
    ``F(lo) < q <= F(hi)`` one table step wide and a start by linear
    interpolation in it.  Each pass evaluates the CDF, the density f and
    its slope f' at every active root and takes Halley's step
    ``s = -2 r f / (2 f^2 - r f')`` with ``r = F(x) - q``, or Newton's
    where Halley's would not keep Newton's direction and at least half its
    length (``_halley_step``).  A step that leaves the bracket, or that
    fails to halve the step before last, is replaced by bisection, so the
    steps shrink at least as fast as bisection's every other iteration and
    convergence is cubic near the root.  A step's stop tolerance is the
    spacing of doubles at its end plus a rounding floor (the smaller of
    ``eps`` times the table range and ``8 eps`` over the density).  A root
    stops, with no CDF pass that only confirms it, in one of two ways:

    * its step is proven.  ``|F^(3)| <= M3 = phi(0) sum_l w_l / sigma_l^3``
      because ``|phi''| <= phi(0)``, so by Taylor's theorem
      ``T = |r + f s + f' s^2 / 2| + M3 |s|^3 / 6`` bounds
      ``|F(x + s) - q|`` and ``f_min = f - |f'| |s| - M3 s^2 / 2`` bounds
      the density at ``x + s`` from below.  When ``f_min > 0``,
      ``T / f_min`` (a bound on the next step) is within the tolerance and
      ``T`` plus a rounding allowance is at most 1e-10, the root is
      ``x + s`` and ``T`` its residual;
    * or its step is within the tolerance.  The root is then the point
      just evaluated, and its residual ``|F(x) - q|`` comes from that
      evaluation.

    The tables and the passes take their sums from ``_mixture_sums``, in
    (row, point) blocks of at most ``_BLOCK`` elements that never split the
    components, so a kernel CDF with L = n keeps its buffers bounded and
    each value's bits do not depend on the working set.  A pass gathers the
    parameter rows of the roots still active block by block (``rows=``),
    and every call shares one ``threading.local`` of work buffers, at most
    six of max(_BLOCK, L) elements per thread, that live for the whole
    call, so the passes reuse the same pages.  Raises when the residual in
    CDF scale exceeds 1e-10.
    """
    n_draws, n_targets = w.shape[0], targets.size
    qmin, qmax = float(targets.min()), float(targets.max())
    unit = np.linspace(0.0, 1.0, _TABLE_POINTS)
    eps = np.finfo(float).eps
    # the rounding of r and of a CDF computed at x + s: a sum of L terms
    # whose weights sum to 1 rounds by at most about L eps
    allowance = 2.0 * w.shape[1] * eps
    work = threading.local()

    def solve(start):
        rows = slice(start, start + _DRAW_CHUNK)
        wc, mc, sc = w[rows], mu[rows], sigma[rows]
        r = wc.shape[0]
        lo = (mc - 10.0 * sc).min(axis=1)
        hi = (mc + 10.0 * sc).max(axis=1)
        for _ in range(61):
            xs = lo[:, None] + (hi - lo)[:, None] * unit
            table = _mixture_sums(wc, mc, sc, xs, ndtr, work=work)
            low, high = table[:, 0] >= qmin, table[:, -1] < qmax
            if not (low.any() or high.any()):
                break
            width = hi - lo
            lo = np.where(low, lo - width, lo)
            hi = np.where(high, hi + width, hi)
        # bracket each target between the table points around it.  A table
        # row is nondecreasing (so is each rounded term, and so their sum),
        # so a search counts the points below a target
        j = np.clip([np.searchsorted(row, targets) for row in table], 1, _TABLE_POINTS - 1)
        x_lo = np.take_along_axis(xs, j - 1, axis=1).ravel()
        x_hi = np.take_along_axis(xs, j, axis=1).ravel()
        f_lo = np.take_along_axis(table, j - 1, axis=1).ravel()
        f_hi = np.take_along_axis(table, j, axis=1).ravel()
        tgt = np.tile(targets, r)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = x_lo + (tgt - f_lo) / (f_hi - f_lo) * (x_hi - x_lo)
        x = np.where((x >= x_lo) & (x <= x_hi), x, 0.5 * (x_lo + x_hi))
        out, resid = np.empty((2, x.size))
        owner = np.repeat(np.arange(r), n_targets)
        # a sigma of 0, or one whose cube underflows, makes M3 infinite,
        # which proves no step
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            m3 = ((wc / sc ** 3).sum(axis=1) / math.sqrt(2.0 * math.pi))[owner]
        floor = eps * (hi - lo)[owner]
        active = np.arange(x.size)
        step_last = step_before = x_hi - x_lo
        for _ in range(120):
            if r == 1:
                diff, dens, slope = _mixture_sums(wc, mc, sc, x[None, :], ndtr, density=True,
                                                  work=work)
            else:
                diff, dens, slope = _mixture_sums(wc, mc, sc, x[:, None], ndtr, density=True,
                                                  rows=owner[active], work=work)
            # diff is r = F(x) - q
            diff, dens, slope = diff.ravel() - tgt, dens.ravel(), slope.ravel()
            out[active] = x
            resid[active] = np.abs(diff)
            below = diff < 0.0
            x_lo = np.where(below, x, x_lo)
            x_hi = np.where(below, x_hi, x)
            x_new, step, tol, bound = _halley_step(x, diff, dens, slope, x_lo, x_hi,
                                                   step_before, floor, m3, allowance)
            proven = bound < np.inf
            done = active[proven]
            out[done], resid[done] = x_new[proven], bound[proven]
            moving = (step > tol) & ~proven
            if not moving.any():
                break
            active, x, x_lo, x_hi, tgt, floor, m3 = (
                v[moving] for v in (active, x_new, x_lo, x_hi, tgt, floor, m3))
            step_last, step_before = step[moving], step_last[moving]
        worst = float(resid.max())
        if worst > 1e-10:
            s, k = np.unravel_index(int(resid.argmax()), (r, n_targets))
            raise NumericError(
                f"CDF inversion residual {worst:.2e} at target {targets[k]:.6g} "
                f"(draw {start + s}) exceeds 1e-10"
            )
        return out.reshape(r, n_targets)

    return np.concatenate(ordered_map(solve, range(0, n_draws, _DRAW_CHUNK)))


def _roc_from_mixtures(w_d, mu_d, sg_d, w_nd, mu_nd, sg_nd, grid):
    """Per-draw ROC curves for paired mixture arrays of shape (S, L)."""
    from scipy.special import ndtr

    interior = (grid > 0.0) & (grid < 1.0)
    curves = np.empty((w_d.shape[0], grid.size))
    curves[:, grid == 0.0] = 0.0
    curves[:, grid == 1.0] = 1.0
    if np.any(interior):
        roots = _invert_mixture_cdf(w_nd, mu_nd, sg_nd, 1.0 - grid[interior], ndtr)
        curves[:, interior] = 1.0 - _mixture_sums(w_d, mu_d, sg_d, roots, ndtr)
    return np.clip(curves, 0.0, 1.0)


def kernel_roc(diseased, nondiseased, h_d: float | None = None,
               h_nd: float | None = None, grid=None) -> RocCurveEstimate:
    """Normal-kernel smoothed ROC curve.

    Bandwidths default to ``silverman_bandwidth`` of each sample.  The
    nondiseased CDF is inverted by safeguarded Halley iteration (residual
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
# diseased values per task of the kernel AUC's direct pair sums
_AUC_ROWS = 64
# order of the kernel AUC's Taylor expansion, and the fewest diseased
# values in a Taylor block: with 16 to 24 the direct pair sums measured as
# fast at n = 10^4 on a 2-CPU VM, so 32 keeps every case at least as fast
_TAYLOR_ORDER = 16
_TAYLOR_ROWS = 32
# e^m / m! times the m-th derivative of Phi is e^m (-1)^(m-1) He_(m-1) phi / m!
_TAYLOR_SIGNS = np.array([1.0] + [(-1.0) ** (m - 1) / math.factorial(m)
                                  for m in range(1, _TAYLOR_ORDER + 1)])


def _taylor_row_sums(rows, window, scale, ndtr):
    """``sum_i Phi((y - window_i) / scale)`` for each ``y`` in ``rows``, a
    sorted block at most ``0.5 scale`` wide, by expansion about its centre.

    With ``t_i = (c - window_i) / scale`` and ``e = (y - c) / scale``,
    ``Phi(t + e) = sum_m e^m / m! Phi^(m)(t)`` and
    ``Phi^(m) = (-1)^(m-1) He_(m-1) phi`` for ``m >= 1``.  The window
    sums of ``Phi(t_i)`` and of ``He_k(t_i) phi(t_i)`` (by the recursion
    ``He_(k+1) = t He_k - k He_(k-1)``) are taken once, in column pieces
    of one ``_BLOCK``-element buffer, and each row is one polynomial in
    ``e``.
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
        ndtr(t, out=h[0])
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
    ``s = sqrt(h_D^2 + h_ND^2)``.  Both samples are sorted.  Each block of
    diseased values has a window of nondiseased values: those more than
    8.3 s below its smallest value give pairs with ``Phi = 1.0`` exactly,
    which are counted; those more than 8.3 s above its largest value give
    pairs below 5.3e-17 each, which are skipped.

    The diseased values are cut into blocks by bins ``0.5 s`` wide.  A
    block of at least ``_TAYLOR_ROWS`` values expands
    ``Phi((c - y_NDi)/s + e)`` to order 16 in ``e`` about the block centre
    ``c`` (``_taylor_row_sums``): one ``ndtr`` and one ``exp`` per window
    value, then one polynomial per diseased value.  Since ``|e| <= 1/4``
    and, by Cramer's inequality, ``|He_k phi| <= 0.434 sqrt(k!)``, each
    pair is off by at most ``0.434 (1/4)^17 / (17 sqrt(16!))``, about
    3e-19.  The other diseased values go in runs of at most
    ``_AUC_ROWS``, whose window pairs are evaluated directly in column
    pieces of one reused ``_BLOCK``-element buffer.  Blocks and runs are
    fixed by the data and run through ``ordered_map``; their row and piece
    sums are added exactly (``math.fsum``), so the result does not depend
    on the number of threads.
    """
    from scipy.special import ndtr

    d = np.sort(validate_sample(diseased, "diseased"))
    nd = np.sort(validate_sample(nondiseased, "nondiseased"))
    h_d = silverman_bandwidth(d) if h_d is None else h_d
    h_nd = silverman_bandwidth(nd) if h_nd is None else h_nd
    _check_bandwidths(h_d, h_nd)
    scale = math.hypot(h_d, h_nd)
    reach = _SATURATED * scale
    # Taylor blocks: bins of width 0.5 scale with enough values in them (a
    # bin measured wider, from rounding at extreme ratios, goes direct)
    bins = np.floor((d - d[0]) / (0.5 * scale))
    starts = np.flatnonzero(np.r_[True, bins[1:] != bins[:-1]])
    ends = np.r_[starts[1:], d.size]
    taylor = (ends - starts >= _TAYLOR_ROWS) & (d[ends - 1] - d[starts] <= 0.5 * scale)
    in_taylor = np.repeat(taylor, ends - starts)
    # task boundaries: every Taylor block, and the other values cut at
    # multiples of _AUC_ROWS
    runs = np.arange(0, d.size, _AUC_ROWS)
    first = np.union1d(runs[~in_taylor[runs]], np.r_[starts[taylor], ends[taylor]])
    first = first[first < d.size]
    last = np.r_[first[1:], d.size] - 1
    # nd[:lo] sit strictly below the task minimum less reach, nd[hi:]
    # strictly above the task maximum plus reach
    lo = np.searchsorted(nd, d[first] - reach, side="left")
    hi = np.searchsorted(nd, d[last] + reach, side="right")
    cols = _BLOCK // _AUC_ROWS

    def task(args):
        a, b, wa, wb, expand = args
        rows, window = d[a:b + 1], nd[wa:wb]
        if expand:
            return _taylor_row_sums(rows, window, scale, ndtr).tolist()
        buf = np.empty((rows.size, min(cols, window.size)))
        sums = []
        for c in range(0, window.size, cols):
            piece = window[c:c + cols]
            pairs = buf[:, :piece.size]
            np.subtract(rows[:, None], piece, out=pairs)
            pairs /= scale
            ndtr(pairs, out=pairs)
            sums.append(float(pairs.sum()))
        return sums

    tasks = zip(first.tolist(), last.tolist(), lo.tolist(), hi.tolist(),
                in_taylor[first].tolist())
    ones = int((last - first + 1) @ lo)
    sums = [v for part in ordered_map(task, tasks) for v in part]
    return math.fsum([ones, *sums]) / (d.size * nd.size)


# ---------------------------------------------------------------------------
# Bayesian bootstrap


# draws times subjects at which bb_roc runs its draws in forked parts.
# Measured as for _FORK_YOUDEN, with Youden: 500 draws at n = 1,000 per
# group (10^6) took 55 ms either way, 200 draws at n = 10,000 (4 x 10^6)
# 155 -> 82 ms forked
_FORK_BB = 1_000_000


def bb_roc(diseased, nondiseased, n_draws: int, grid=None, *,
           seed: SeedSpec, youden: bool = False) -> PosteriorEnsemble:
    """Bayesian bootstrap ROC ensemble.

    Each draw ``s`` reweights the nondiseased sample with flat Dirichlet
    weights to form weighted placement values
    ``U_j = sum_i q1_i I(y_NDi >= y_Dj)``, then reweights the diseased
    sample to form the curve ``ROC(p) = sum_j q2_j I(U_j <= p)`` and the
    closed-form ``auc = 1 - sum_j q2_j U_j``.  Draw ``s`` uses the child
    stream ``seed.rng(s)``, so results do not depend on evaluation order.

    The curve adds the diseased weights in the stable ascending order of
    ``U``.  Over the sorted diseased values ``U`` is nonincreasing (suffix
    sums of nonnegative weights, at nondecreasing positions, clipped at 1),
    so that order is the reversal with each run of equal values put back
    in index order (``_stable_order_of_nonincreasing``), found without a
    sort.  The per-draw loop holds the interpreter lock, so with at least
    ``_FORK_BB`` draws times subjects the draws go in one span per CPU, side
    by side through ``core.forked_spans``.

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
            # cumulative rounding can push a full suffix sum one ulp above 1,
            # which would leave that point uncounted even at p=1
            u = np.minimum(tail[pos], 1.0)  # placement value of d_sorted[j]
            order_u = _stable_order_of_nonincreasing(u)
            cum = np.concatenate([[0.0], np.cumsum(q2_sorted[order_u])])
            curves[i] = cum[np.searchsorted(u[::-1], grid, side="right")]
            aucs[i] = 1.0 - float(u @ q2_sorted)
            if youden:
                f_nd = np.concatenate([[0.0], np.cumsum(q1_sorted)])[cand_nd]
                f_d = np.concatenate([[0.0], np.cumsum(q2_sorted)])[cand_d]
                gap = f_nd - f_d
                k = int(np.argmax(gap))
                yis[i] = gap[k]
                thresholds[i] = cand[k]
                p_stars[i] = 1.0 - f_nd[k]
        return curves, aucs, yis, thresholds, p_stars

    parts = forked_spans(draws, n_draws, n_draws * (d.size + nd.size) >= _FORK_BB)
    curves, aucs, yis, thresholds, p_stars = (
        None if part[0] is None else np.concatenate(part) for part in zip(*parts))
    curves = np.clip(curves, 0.0, 1.0)
    # every U_j <= 1, so p=1 counts the whole diseased mass; only cumsum
    # rounding keeps the float sum from being exactly 1
    curves[:, grid == 1.0] = 1.0
    # 1 - F_ND rounds below 0 where the weighted ECDF sums to just above 1
    if youden:
        p_stars = np.clip(p_stars, 0.0, 1.0)
    return PosteriorEnsemble(grid=grid, curves=curves, aucs=np.clip(aucs, 0.0, 1.0),
                             yis=yis, thresholds=thresholds, p_stars=p_stars)


def _stable_order_of_nonincreasing(u: np.ndarray) -> np.ndarray:
    """``np.argsort(u, kind="stable")`` for a nonincreasing ``u``, without a sort.

    The ascending order is the reversal, except that a run of equal values
    keeps its index order: for the run ``[s, e)`` of ``u[::-1]``,
    ``order[k] = n - s - e + k``.
    """
    n = u.size
    v = u[::-1]
    starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
    ends = np.r_[starts[1:], n]
    return n - np.repeat(starts + ends, ends - starts) + np.arange(n)


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
    components at once, then the allocations (``_allocate``, over (L, n)
    arrays); the state saved after the component step gives
    ``cfg.n_save`` draws following ``cfg.burn_in`` warm-up sweeps.  An
    empty component has ``X'X = 0``, so its update draws from the prior
    without a branch of its own.  The chain is a function of the data,
    ``cfg`` and nothing else: the same bits in any process and whether or
    not another chain runs beside it.

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

    The work is laid out (L, n) so every reduction runs along n, and it
    rounds exactly as the (n, L) form ``p = exp(logp - max)``,
    ``p /= p.sum(axis=1)``, ``(p.cumsum(axis=1) < u).sum(axis=1)`` does:
    the column sums follow numpy's pairwise order (``_pairwise_rows``) and
    the cumulative sum is the same sequence of row additions.
    """
    L = w.size
    with np.errstate(divide="ignore"):
        level = np.log(w) + 0.5 * np.log(tau)
    # logp = level - 0.5 tau (y - x'beta)^2, one operation at a time in one
    # buffer; np.dot, since matmul takes a slow path when d = 1
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
    as two halves (the first a multiple of 8 long) above that.

    A plain recursive function: a closure that calls itself is a
    reference cycle that would keep every row buffer alive until the
    cycle collector runs.
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
    Draws go in blocks, spread over ``ordered_map``, whose (draws, L, L)
    buffers stay within ``_BLOCK`` elements; each draw's sum is the same.
    """
    step = max(1, _BLOCK // (w_d.shape[1] * w_nd.shape[1]))

    def block(start):
        rows = slice(start, start + step)
        a = (mu_d[rows, None, :] - mu_nd[rows, :, None]) / sg_d[rows, None, :]
        b = sg_nd[rows, :, None] / sg_d[rows, None, :]
        return np.einsum("sk,sl,skl->s", w_nd[rows], w_d[rows], ndtr(a / np.sqrt(1.0 + b * b)))

    return np.concatenate(ordered_map(block, range(0, w_d.shape[0], step)))


def dpm_auc(draw_d: MixtureDraw, draw_nd: MixtureDraw) -> float:
    """Closed-form AUC between two normal-mixture draws (``_mixture_aucs``)."""
    from scipy.special import ndtr

    d = MixtureEnsemble.from_draws([draw_d])._normals()
    nd = MixtureEnsemble.from_draws([draw_nd])._normals()
    return float(_mixture_aucs(*d, *nd, ndtr)[0])


def _mean_mixture_cdf(w, mu, sg, y, ndtr):
    # the mixture CDF at y, averaged over the (S, L) rows of w, mu and sg,
    # with the draws added in row order: a mean down axis 0 would add
    # pairwise for one point and row by row for several
    yv = np.asarray(y, dtype=float)
    sums = _mixture_sums(w, mu, sg, yv.reshape(-1), ndtr)
    out = np.cumsum(sums, axis=0, out=sums)[-1] / w.shape[0]
    return float(out[0]) if yv.ndim == 0 else out.reshape(yv.shape)


def mixture_cdf_callable(draw: MixtureDraw):
    """CDF of one mixture draw as a plain callable (scalar or array in/out)."""
    from scipy.special import ndtr

    normals = MixtureEnsemble.from_draws([draw])._normals()
    return lambda c: _mean_mixture_cdf(*normals, c, ndtr)


# A forked part costs about 5-10 ms before it pays (fork, the pages it
# writes, the pickled result back), and the serial search already spreads
# its array work over threads.  Measured on a 2-CPU VM in a 70 MB process
# (medians of 15), the Youden search of S draws of L = 10 components took
# 24 -> 28 ms forked at S = 200, 36 -> 36 ms at 300, 56 -> 50 ms at 600
# and 94 -> 77 ms at 1,000; so parts start at 6,000 draw components
_FORK_YOUDEN = 6000


def _ensemble_from_mixture_arrays(w_d, mu_d, sg_d, w_nd, mu_nd, sg_nd, grid,
                                  youden: bool) -> PosteriorEnsemble:
    """Ensemble curves/AUCs for paired per-draw mixtures of shape (S, L).

    The Youden search (``indices._youden_search``) holds the interpreter
    lock for most of its time, so with at least ``_FORK_YOUDEN`` draw
    components (S times L) the draws go in one span per CPU, side by side
    through ``core.forked_spans``; each draw's result does not depend on
    its span.  ``NegativeYoudenWarning`` is issued here, once per call.
    """
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
        # a fine-stage call gathers one (L,) parameter row per (pair,
        # point), so _BLOCK // L evaluations per call keep those within
        # _BLOCK elements
        n_comp = max(w_d.shape[1], w_nd.shape[1])
        budget = _BLOCK // n_comp

        def part(start, stop):
            pairs = slice(start, stop)
            nd = w_nd[pairs], mu_nd[pairs], sg_nd[pairs]
            d = w_d[pairs], mu_d[pairs], sg_d[pairs]
            work = threading.local()

            def cdfs(x, rows):
                return (_mixture_sums(*nd, x, ndtr, rows=rows, work=work),
                        _mixture_sums(*d, x, ndtr, rows=rows, work=work))

            return _youden_search(cdfs, np.linspace(lo, hi, 1000), lo, hi, stop - start, budget)

        parts = forked_spans(part, w_d.shape[0], w_d.shape[0] * n_comp >= _FORK_YOUDEN)
        yis, thresholds, p_stars = map(np.concatenate, zip(*parts))
        _warn_if_negative(yis)
    return PosteriorEnsemble(grid=grid, curves=curves, aucs=np.clip(aucs, 0.0, 1.0),
                             yis=yis, thresholds=thresholds, p_stars=p_stars)


def dpm_roc(draws_d, draws_nd, grid=None, *, youden: bool = False) -> PosteriorEnsemble:
    """Posterior ROC ensemble from ``dpm_fit`` ensembles or sequences of draws.

    Draw ``s`` pairs ``draws_d[s]`` with ``draws_nd[s]``; both must have
    equal length.  Curves come from Halley inversion of the nondiseased
    mixture CDF; AUCs from the closed form in ``dpm_auc``.
    """
    ens_d, ens_nd = MixtureEnsemble.from_draws(draws_d), MixtureEnsemble.from_draws(draws_nd)
    return _ensemble_from_mixture_arrays(*ens_d._normals(), *ens_nd._normals(),
                                         grid, youden)
