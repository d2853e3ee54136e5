"""Scalar summaries of ROC curves and CDF pairs: AUC, Youden index, cutoffs.

The Youden index is the largest vertical gap between the two population
CDFs, ``max_c {F_nondiseased(c) - F_diseased(c)}``, equivalently
``max_p {roc(p) - p}``.  Its maximizer is the optimal threshold ``c*`` and
``p* = 1 - F_nondiseased(c*)`` is the false positive fraction in use there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import as_prob_grid, ordered_map, validate_sample
from .errors import InvalidInputError, NegativeYoudenWarning, NumericError

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
    return float(min(1.0, max(0.0, np.trapezoid(roc, grid))))


def _golden_max(f, lo, hi, iters: int = 100):
    # golden-section search for the maximum of f on each bracket [lo_s, hi_s]
    # at once: f maps S abscissae to S values, and each bracket runs the
    # scalar recurrence elementwise and stops on its own tolerance test
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        go = ~(b - a <= 1e-13 * (1.0 + np.abs(a) + np.abs(b)))
        if not go.any():
            break
        up = go & (f1 < f2)
        down = go & ~up
        a = np.where(up, x1, a)
        b = np.where(down, x2, b)
        x1, f1, x2, f2 = (np.where(up, x2, x1), np.where(up, f2, f1),
                          np.where(down, x1, x2), np.where(down, f1, f2))
        x_new = np.where(up, a + _INVPHI * (b - a), b - _INVPHI * (b - a))
        f_new = f(x_new)
        x2, f2 = np.where(up, x_new, x2), np.where(up, f_new, f2)
        x1, f1 = np.where(down, x_new, x1), np.where(down, f_new, f1)
    keep = f1 >= f2
    return np.where(keep, x1, x2), np.where(keep, f1, f2)


def _youden_search(cdfs, pts, search_lo: float, search_hi: float, n_pairs: int,
                   block: int):
    """Youden search for ``n_pairs`` CDF pairs at once.

    ``cdfs(x, rows)`` returns ``(F_dbar(x), F_d(x))`` for the pairs in the
    slice ``rows``: at the shared scan points (``x = pts``, shape ``(m,)``)
    as ``(r, m)`` arrays, and at one abscissa per pair (``x`` of shape
    ``(r, 1)``) as ``(r, 1)`` arrays.  The scan runs over blocks of
    ``block`` pairs, spread over ``ordered_map``; each pair's result does
    not depend on the block size.  The golden section then refines every
    pair's bracket in one array recurrence.  Returns ``yi``, ``c_star`` and
    ``p_star`` arrays of length ``n_pairs``.
    """
    def scan(start):
        f_dbar, f_d = cdfs(pts, slice(start, start + block))
        gaps = f_dbar - f_d
        if not np.all(np.isfinite(gaps)):
            raise NumericError("non-finite CDF evaluation during Youden search")
        best = np.argmax(gaps, axis=1)  # first max = smallest c
        return best, np.take_along_axis(gaps, best[:, None], axis=1)[:, 0]

    best, yi = map(np.concatenate, zip(*ordered_map(scan, range(0, n_pairs, block))))

    every = slice(None)

    def gap(x):
        f_dbar, f_d = cdfs(x[:, None], every)
        return (f_dbar - f_d)[:, 0]

    lo = np.where(best > 0, pts[best - 1], search_lo)
    hi = np.where(best + 1 < pts.size, pts[np.minimum(best + 1, pts.size - 1)], search_hi)
    c_ref, yi_ref = _golden_max(gap, lo, hi)
    if not np.all(np.isfinite(yi_ref)):
        raise NumericError("non-finite CDF evaluation during Youden refinement")
    better = yi_ref > yi
    c_star = np.where(better, c_ref, pts[best])
    yi = np.where(better, yi_ref, yi)
    if np.any(yi < 0.0):
        warnings.warn("best Youden gap is negative; marker orders the groups "
                      "the other way", NegativeYoudenWarning)
    f_dbar, _ = cdfs(c_star[:, None], every)
    p_star = np.minimum(1.0, np.maximum(0.0, 1.0 - f_dbar[:, 0]))
    return yi, c_star, p_star


def youden_from_cdfs(cdf_d, cdf_dbar, search_lo: float, search_hi: float,
                     candidates=None, grid_size: int = 1000) -> YoudenResult:
    """Maximize ``cdf_dbar(c) - cdf_d(c)`` over ``[search_lo, search_hi]``.

    A dense grid scan (``grid_size`` points) locates the rough maximizer and
    a golden-section pass refines it; the refined point is kept only when it
    strictly improves the gap, so piecewise-constant (empirical) inputs keep
    their exact grid/candidate maximum.  This is the one-pair case of the
    batched search behind ``dpm_roc`` and ``ddp_roc``: the same scan, the
    same golden-section recurrence (run on arrays, here of length one) and
    the same rules, so a mixture draw gives the same bits either way.

    Parameters
    ----------
    cdf_d, cdf_dbar : callable
        CDFs of the diseased and nondiseased populations.
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
    Ties are broken toward the smallest threshold.  A negative best gap is
    returned as computed, with a warning; reversing the positivity rule is
    left to the caller.
    """
    if not np.isfinite(search_lo) or not np.isfinite(search_hi) or search_lo >= search_hi:
        raise InvalidInputError("need finite search_lo < search_hi")
    pts = np.linspace(search_lo, search_hi, max(2, grid_size))
    if candidates is not None:
        extra = np.asarray(candidates, dtype=float).ravel()
        extra = extra[(extra >= search_lo) & (extra <= search_hi)]
        pts = np.unique(np.concatenate([pts, extra]))

    def scalar(cdf, c):
        # tolerate callables that return a length-1 array for scalar input
        return float(np.asarray(cdf(c), dtype=float).ravel()[0])

    def cdfs(x, rows):
        if x.ndim == 1:
            return (np.asarray(cdf_dbar(x), dtype=float)[None, :],
                    np.asarray(cdf_d(x), dtype=float)[None, :])
        c = float(x[0, 0])
        return np.array([[scalar(cdf_dbar, c)]]), np.array([[scalar(cdf_d, c)]])

    yi, c_star, p_star = _youden_search(cdfs, pts, search_lo, search_hi, 1, 1)
    return YoudenResult(yi=float(yi[0]), c_star=float(c_star[0]), p_star=float(p_star[0]))


def youden_from_curve(curve, nondiseased_quantile) -> YoudenResult:
    """Maximize ``roc(p) - p`` over the curve grid.

    ``c* = nondiseased_quantile(1 - p*)``.  Ties are broken toward the
    largest ``p`` (equivalently the smallest threshold).  When the maximizer
    is ``p* = 1`` the threshold is ``-inf``: everything classified positive.
    """
    grid = as_prob_grid(curve.grid)
    roc = np.asarray(curve.roc, dtype=float)
    if roc.shape != grid.shape:
        raise InvalidInputError("curve and grid lengths differ")
    gaps = roc - grid
    best = int(gaps.size - 1 - np.argmax(gaps[::-1]))  # last max = largest p
    yi, p_star = float(gaps[best]), float(grid[best])
    if yi < 0.0:
        warnings.warn("best Youden gap is negative; marker orders the groups "
                      "the other way", NegativeYoudenWarning)
    c_star = -math.inf if p_star >= 1.0 else float(nondiseased_quantile(1.0 - p_star))
    return YoudenResult(yi=yi, c_star=c_star, p_star=p_star)


def youden_empirical(diseased, nondiseased) -> YoudenResult:
    """Youden index from the two empirical CDFs, exact over pooled values.

    The ECDF gap at every pooled observation is carried as an integer count
    (``#{nd <= c} n_D - #{d <= c} n_ND``) and divided once at the end, so
    ``yi`` is the correctly rounded one-sided two-sample Kolmogorov-Smirnov
    statistic, bit-identical to an exact-rational evaluation.  Ties break
    toward the smallest threshold; a candidate below the pooled minimum
    (gap zero: everything classified positive) is included, matching the
    search-interval behaviour of ``youden_from_cdfs``.
    """
    d = np.sort(validate_sample(diseased, "diseased"))
    nd = np.sort(validate_sample(nondiseased, "nondiseased"))
    cand = np.unique(np.concatenate([[d[0] - 1.0, nd[0] - 1.0], d, nd]))
    k_nd = np.searchsorted(nd, cand, side="right").astype(np.int64)
    k_d = np.searchsorted(d, cand, side="right").astype(np.int64)
    num = k_nd * d.size - k_d * nd.size
    best = int(np.argmax(num))  # first max = smallest threshold
    yi = float(num[best] / (d.size * nd.size))
    p_star = float((nd.size - k_nd[best]) / nd.size)
    return YoudenResult(yi=yi, c_star=float(cand[best]), p_star=p_star)
