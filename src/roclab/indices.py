"""Scalar summaries of ROC curves and CDF pairs: AUC, Youden index, cutoffs.

The Youden index is the largest vertical gap between the two population
CDFs, ``max_c {F_nondiseased(c) - F_diseased(c)}``, equivalently
``max_p {roc(p) - p}``.  Its maximizer is the optimal threshold ``c*`` and
``p* = 1 - F_nondiseased(c*)`` is the false positive fraction in use there.
Ties go to the smallest threshold (the largest ``p``) everywhere, and three
rules compute it:

* **Step rule** (``youden_empirical`` with unit weights, every ``bb_roc``
  draw with its bootstrap weights): two weighted ECDFs compared at the
  pooled values and at one value below the pooled minimum, with the gap
  cross-multiplied by the total weights ``W_D`` and ``W_ND``.  Both
  trivial rules (everyone positive, everyone negative) score exactly 0
  and ``p* = (W_ND - F_ND(c*)) / W_ND`` lies in [0, 1] without a clamp.
* **Curve rule** (``youden_from_curve``, and the CLI's curves without a
  threshold): the largest ``roc(p) - p`` on the curve's grid.
* **Smooth rule** (``youden_from_cdfs`` and the batched search behind the
  mixture ensembles): a coarse-to-fine scan refined by golden section,
  with the everyone-positive rule at the search interval's lower end as a
  candidate that scores exactly 0.

The step and smooth rules never score below 0.  None of the rules warns:
whether a marker orders the groups the other way is a fact about the
data, which the CLI reports from the AUC (``NegativeYoudenWarning``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import as_prob_grid, validate_sample
from .errors import InvalidInputError, NumericError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class YoudenResult:
    """Youden index with the threshold and FPF at which it is attained."""

    yi: float
    c_star: float
    p_star: float

    def __post_init__(self):
        if np.isnan(self.yi) or not -1.0 <= self.yi <= 1.0 + 1e-12:
            raise InvalidInputError(f"Youden index {self.yi} outside [-1, 1]")
        if np.isnan(self.c_star):
            raise InvalidInputError("threshold is NaN")
        if np.isnan(self.p_star) or not 0.0 <= self.p_star <= 1.0:
            raise InvalidInputError(f"p_star {self.p_star} is not a probability")


def auc_from_curve(curve) -> float:
    """Trapezoidal area under ``curve.roc`` over ``curve.grid``, clamped to [0, 1]."""
    grid = as_prob_grid(curve.grid)
    if grid.size < 2:
        raise InvalidInputError("AUC needs a grid with at least two points")
    roc = np.asarray(curve.roc, dtype=float)
    if roc.shape != grid.shape:
        raise InvalidInputError("curve and grid lengths differ")
    return _clamped_trapezoid(roc, grid)


def _clamped_trapezoid(roc: np.ndarray, grid: np.ndarray) -> float:
    # the trapezoid rule over a probability grid, clamped to [0, 1]
    return float(min(1.0, max(0.0, np.trapezoid(roc, grid))))


def _golden_max(f, lo, hi, iters: int = 100):
    # golden-section search for the maximum of f on each bracket [lo_s, hi_s]
    # at once: f(x, rows) maps one abscissa per bracket listed in the index
    # array rows to its value there, and each bracket runs the scalar
    # recurrence and is evaluated only until its own tolerance test stops it
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    every = np.arange(a.size)
    f1, f2 = f(x1, every), f(x2, every)
    for _ in range(iters):
        live = np.flatnonzero(~(b - a <= 1e-13 * (1.0 + np.abs(a) + np.abs(b))))
        if live.size == 0:
            break
        up = f1[live] < f2[live]
        u, d = live[up], live[~up]
        a[u], b[d] = x1[u], x2[d]
        x1[u], f1[u] = x2[u], f2[u]
        x2[d], f2[d] = x1[d], f1[d]
        span = b[live] - a[live]
        x_new = np.where(up, a[live] + _INVPHI * span, b[live] - _INVPHI * span)
        f_new = f(x_new, live)
        x2[u], f2[u] = x_new[up], f_new[up]
        x1[d], f1[d] = x_new[~up], f_new[~up]
    keep = f1 >= f2
    return np.where(keep, x1, x2), np.where(keep, f1, f2)


# the coarse stage of the Youden scan evaluates every _STRIDE-th scan point
_STRIDE = 16
# how far a computed CDF may step backwards between scan points.  A true
# CDF never does; a computed one can only through rounding: ndtr is good to
# a few ulps, and a sum of n terms in [0, 1] rounds by at most n eps (2.2e-11
# at n = 10^5).  1e-9 leaves a wide margin above that and stays far below
# any gap that matters.
_SLACK = 1e-9


def _coarse_indices(m: int) -> np.ndarray:
    """Indices of the coarse scan among ``m`` points: every ``_STRIDE``-th and the last."""
    idx = np.arange(0, m, _STRIDE)
    return idx if idx[-1] == m - 1 else np.append(idx, m - 1)


def _youden_search(cdfs, pts, search_lo: float, search_hi: float, n_pairs: int,
                   budget: int):
    """Youden search for ``n_pairs`` CDF pairs at once.

    ``cdfs(x, rows)`` returns ``(F_dbar(x), F_d(x))`` for the pairs
    ``rows`` (a slice, or an index array that may repeat pairs): at shared
    points (``x`` of shape ``(m,)``) as ``(r, m)`` arrays, and at one
    abscissa per listed pair (``x`` of shape ``(r, 1)``) as ``(r, 1)``
    arrays.  Both CDFs must be nondecreasing.

    The scan finds each pair's first largest gap over the scan points
    ``pts`` without evaluating all of them.  A coarse stage takes every
    ``_STRIDE``-th point and the last; between coarse points ``x_i < x_j``
    no gap exceeds ``F_dbar(x_j) - F_d(x_i)``, so the fine stage evaluates
    only the points inside intervals where that bound, plus ``_SLACK`` for
    rounding, reaches the best coarse gap.  Every point left out has a
    smaller gap than the best one, so the point chosen, its gap and the
    golden-section bracket are those of the full scan, bit for bit.  A
    CDF that falls by more than ``_SLACK`` between coarse points raises
    ``InvalidInputError``.

    One ``cdfs`` call may take ``budget`` (pair, point) evaluations.  The
    scan runs over blocks of as many pairs as the coarse stage fits in
    that, one after the other, and a fine-stage call takes as many
    (pair, point) evaluations as a coarse one; each pair's result does not
    depend on the block size.  The golden section then refines every
    pair's bracket in one array recurrence, whose calls list (as an index
    array) only the pairs whose brackets are still above tolerance.  The
    everyone-positive rule is a candidate too: gap exactly 0 at
    ``search_lo`` with ``p* = 1``, as in the step rule, so a pair whose
    best gap is not above 0 gets that rule.  Returns ``yi``, ``c_star``
    and ``p_star`` arrays of length ``n_pairs``.

    The result is that of the full scan for CDFs whose value at a point
    does not depend on how many points one call takes.  A non-finite value
    at a skipped point goes unseen, and so does a fall inside an interval.
    """
    coarse = _coarse_indices(pts.size)
    inside = np.diff(coarse) - 1  # scan points strictly inside each interval
    block = min(n_pairs, max(1, budget // coarse.size))
    chunk = block * coarse.size

    def scan(start):
        rows = slice(start, start + block)
        f_dbar, f_d = cdfs(pts[coarse], rows)
        gaps = f_dbar - f_d
        if not np.all(np.isfinite(gaps)):
            raise NumericError("non-finite CDF evaluation during Youden search")
        if np.any(np.diff(f_dbar, axis=1) < -_SLACK) or np.any(np.diff(f_d, axis=1) < -_SLACK):
            raise InvalidInputError("a CDF decreases between Youden scan points")
        k = np.argmax(gaps, axis=1)  # first max = smallest c
        yi = gaps[np.arange(k.size), k]
        best = coarse[k]
        live = (f_dbar[:, 1:] - f_d[:, :-1] + _SLACK >= yi[:, None]) & (inside > 0)
        pair, interval = np.nonzero(live)
        # the points inside every live interval, in (pair, point) order:
        # each interval's first inside point plus the offset within it
        counts = inside[interval]
        owner = np.repeat(pair, counts)
        point = np.arange(counts.sum()) + np.repeat(
            coarse[interval] + 1 - (np.cumsum(counts) - counts), counts)
        for c in range(0, point.size, chunk):
            o, p = owner[c:c + chunk], point[c:c + chunk]
            f_dbar, f_d = cdfs(pts[p][:, None], start + o)
            g = (f_dbar - f_d)[:, 0]
            if not np.all(np.isfinite(g)):
                raise NumericError("non-finite CDF evaluation during Youden search")
            # each pair's first largest gap in this chunk, kept if it beats
            # the best so far or ties it at a smaller index
            order = np.lexsort((p, -g, o))
            first = order[np.r_[True, o[order[1:]] != o[order[:-1]]]]
            o, g, p = o[first], g[first], p[first]
            better = (g > yi[o]) | ((g == yi[o]) & (p < best[o]))
            yi[o[better]], best[o[better]] = g[better], p[better]
        return best, yi

    best, yi = map(np.concatenate, zip(*[scan(start) for start in range(0, n_pairs, block)]))

    def gap(x, rows):
        f_dbar, f_d = cdfs(x[:, None], rows)
        return (f_dbar - f_d)[:, 0]

    lo = np.where(best > 0, pts[best - 1], search_lo)
    hi = np.where(best + 1 < pts.size, pts[np.minimum(best + 1, pts.size - 1)], search_hi)
    c_ref, yi_ref = _golden_max(gap, lo, hi)
    if not np.all(np.isfinite(yi_ref)):
        raise NumericError("non-finite CDF evaluation during Youden refinement")
    better = yi_ref > yi
    c_star = np.where(better, c_ref, pts[best])
    yi = np.where(better, yi_ref, yi)
    f_dbar, _ = cdfs(c_star[:, None], slice(None))
    p_star = np.minimum(1.0, np.maximum(0.0, 1.0 - f_dbar[:, 0]))
    # the everyone-positive rule: gap exactly 0 at search_lo with p* = 1;
    # ties go to the smallest threshold, so only a larger gap beats it
    trivial = ~(yi > 0.0)
    return (np.where(trivial, 0.0, yi), np.where(trivial, search_lo, c_star),
            np.where(trivial, 1.0, p_star))


def youden_from_cdfs(cdf_d, cdf_dbar, search_lo: float, search_hi: float,
                     candidates=None, grid_size: int = 1000) -> YoudenResult:
    """Maximize ``cdf_dbar(c) - cdf_d(c)`` over ``[search_lo, search_hi]``.

    A grid scan (``grid_size`` points, coarse to fine as in the batched
    search) locates the rough maximizer and a golden-section pass refines
    it; the refined point is kept only when it strictly improves the gap, so
    piecewise-constant (empirical) inputs keep their exact grid/candidate
    maximum.  This is the one-pair case of the batched search behind
    ``dpm_roc`` and ``ddp_roc``: the same scan, the same golden-section
    recurrence (run on arrays, here of length one) and the same rules, so a
    mixture draw gives the same bits either way.  The CDFs are always called
    with 1-D arrays, of 1 to ``grid_size`` points, and must evaluate each
    element on its own, with bits that do not depend on how many points one
    call takes (true of every CDF callable in this package); then the
    result is the full scan's, bit for bit.

    Parameters
    ----------
    cdf_d, cdf_dbar : callable
        CDFs of the diseased and nondiseased populations.  Both must be
        nondecreasing: the scan skips points where that rule says the gap
        cannot reach its best.  A CDF that falls by more than 1e-9 between
        coarse scan points (every 16th) raises ``InvalidInputError``; one
        that falls only between two coarse points, or is non-finite at a
        skipped point, is not detected and may give another answer than
        the full scan.
    search_lo, search_hi : float
        Search interval; must cover both supports for a meaningful answer.
    candidates : array_like, optional
        Extra thresholds evaluated exactly, e.g. pooled sample values.  With
        empirical CDFs, passing the pooled observations makes the scan hit
        every jump, so the result is the two-sample Kolmogorov-Smirnov
        statistic up to one rounding of the CDF difference (use
        ``youden_empirical`` on raw samples for the exact-rational value).
    grid_size : int
        Number of scan points, default 1000.

    Notes
    -----
    Ties are broken toward the smallest threshold.  When no gap is above 0
    the result is the everyone-positive rule, ``yi = 0`` at ``search_lo``
    with ``p* = 1``, without a warning; reversing the positivity rule is
    left to the caller.  ``p*`` is clamped to [0, 1], since a smooth CDF
    may round just above 1.
    """
    if not np.isfinite(search_lo) or not np.isfinite(search_hi) or search_lo >= search_hi:
        raise InvalidInputError("need finite search_lo < search_hi")
    pts = np.linspace(search_lo, search_hi, max(2, grid_size))
    if candidates is not None:
        extra = np.asarray(candidates, dtype=float).ravel()
        extra = extra[(extra >= search_lo) & (extra <= search_hi)]
        pts = np.unique(np.concatenate([pts, extra]))

    def cdfs(x, rows):
        # shared scan points (m,) come back as one (1, m) row, per-pair
        # points (r, 1) as they came
        shape = (1, -1) if x.ndim == 1 else x.shape
        return (np.asarray(cdf_dbar(x.ravel()), dtype=float).reshape(shape),
                np.asarray(cdf_d(x.ravel()), dtype=float).reshape(shape))

    yi, c_star, p_star = _youden_search(cdfs, pts, search_lo, search_hi, 1, pts.size)
    return YoudenResult(yi=float(yi[0]), c_star=float(c_star[0]), p_star=float(p_star[0]))


def _curve_gap(curve) -> tuple[float, float]:
    """The curve rule: the largest ``roc(p) - p`` on the curve's grid and its
    ``p``, the largest ``p`` (the smallest threshold) on ties."""
    grid = as_prob_grid(curve.grid)
    roc = np.asarray(curve.roc, dtype=float)
    if roc.shape != grid.shape:
        raise InvalidInputError("curve and grid lengths differ")
    gaps = roc - grid
    best = int(gaps.size - 1 - np.argmax(gaps[::-1]))  # last max = largest p
    return float(gaps[best]), float(grid[best])


def youden_from_curve(curve, nondiseased_quantile) -> YoudenResult:
    """Maximize ``roc(p) - p`` over the curve grid (the curve rule).

    ``c* = nondiseased_quantile(1 - p*)``.  Ties are broken toward the
    largest ``p`` (equivalently the smallest threshold).  When the maximizer
    is ``p* = 1`` the threshold is ``-inf``: everything classified positive.
    """
    yi, p_star = _curve_gap(curve)
    c_star = -math.inf if p_star >= 1.0 else float(nondiseased_quantile(1.0 - p_star))
    return YoudenResult(yi=yi, c_star=c_star, p_star=p_star)


def _step_candidates(d: np.ndarray, nd: np.ndarray):
    """Candidate thresholds of the step rule for sorted samples ``d`` and
    ``nd``: the double just below the pooled minimum (``np.nextafter``, so
    below it at any magnitude), then the pooled values in ascending order.
    Returns them with the positions in ``d`` and in ``nd`` that end at or
    below each (``searchsorted(..., "right")``).  Multiplying the data by
    2^k multiplies every candidate by 2^k exactly, except where the
    minimum is 0 or the candidate is subnormal."""
    with np.errstate(over="ignore"):  # below the most negative double: -inf
        below = np.nextafter(min(d[0], nd[0]), -np.inf)
    cand = np.unique(np.concatenate([[below], d, nd]))
    return (cand, np.searchsorted(d, cand, side="right"),
            np.searchsorted(nd, cand, side="right"))


def _step_youden(cand: np.ndarray, cum_d: np.ndarray, cum_nd: np.ndarray):
    """The step rule: Youden index of two weighted ECDFs.

    ``cum_d`` and ``cum_nd`` are each sample's weight at or below every
    candidate of ``_step_candidates``, so their first entries are 0 and
    their last the totals ``W_D`` and ``W_ND``.  The gap is taken
    cross-multiplied, ``cum_nd W_D - cum_d W_ND``, which is exactly 0 at
    both ends, and divided once by ``W_D W_ND``; the first maximum (the
    smallest threshold) wins.  Returns ``yi``, ``c*`` and
    ``p* = (W_ND - cum_nd) / W_ND``, which lies in [0, 1] as computed.
    With unit weights and counts below 2^53 every product is exact, so
    ``yi`` is the correctly rounded exact rational.
    """
    w_d, w_nd = cum_d[-1], cum_nd[-1]
    gap = cum_nd * w_d - cum_d * w_nd
    k = int(np.argmax(gap))
    return float(gap[k] / (w_d * w_nd)), float(cand[k]), float((w_nd - cum_nd[k]) / w_nd)


def youden_empirical(diseased, nondiseased) -> YoudenResult:
    """Youden index from the two empirical CDFs, exact over pooled values.

    The step rule with unit weights: the ECDF gap at every pooled
    observation is carried as exact counts
    (``#{nd <= c} n_D - #{d <= c} n_ND``) and divided once at the end, so
    ``yi`` is the correctly rounded one-sided two-sample Kolmogorov-Smirnov
    statistic, bit-identical to an exact-rational evaluation.  Ties break
    toward the smallest threshold; a candidate below the pooled minimum
    (gap zero: everything classified positive) is included, matching the
    search-interval behaviour of ``youden_from_cdfs``.  A reversed marker
    gives ``yi = 0`` there, with ``p* = 1``.
    """
    d = np.sort(validate_sample(diseased, "diseased"))
    nd = np.sort(validate_sample(nondiseased, "nondiseased"))
    cand, k_d, k_nd = _step_candidates(d, nd)
    yi, c_star, p_star = _step_youden(cand, k_d.astype(float), k_nd.astype(float))
    return YoudenResult(yi=yi, c_star=c_star, p_star=p_star)
