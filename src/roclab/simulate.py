"""Scenario generators with known ground truth, for tests and pipelines.

The binormal scenario has nondiseased outcomes standard normal and diseased
outcomes ``N(a/b, 1/b^2)``, which makes the true curve
``ROC(p) = Phi(a + b Phi^{-1}(p))`` with ``AUC = Phi(a / sqrt(1 + b^2))``
and a closed-form Youden maximizer, all exposed here as oracles.  The
scalar truths (AUC and Youden) take Phi from ``math.erfc``, so they load
no scipy; for |x| <= 6 that is within 1e-14 relative of ``core.ndtr``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (SeedSpec, _pinned_curve, std_normal_cdf, std_normal_quantile,
                   validate_sample)
from .errors import InvalidInputError
from .indices import YoudenResult

@dataclass(frozen=True)
class DiagnosticSample:
    """Test outcomes for the diseased and nondiseased groups."""

    diseased: np.ndarray
    nondiseased: np.ndarray

    def __post_init__(self):
        validate_sample(self.diseased, "diseased")
        validate_sample(self.nondiseased, "nondiseased")


@dataclass(frozen=True)
class BinormalScenario:
    """Parameters of the two-normal generating model.

    ``a`` and ``b`` are the ROC-scale parameters: diseased outcomes have
    mean ``a/b`` and standard deviation ``1/b``; nondiseased are N(0, 1).
    """

    a: float
    b: float
    n_diseased: int
    n_nondiseased: int
    seed: SeedSpec

    def __post_init__(self):
        if not np.isfinite(self.a):
            raise InvalidInputError("a must be finite")
        if not np.isfinite(self.b) or self.b <= 0.0:
            raise InvalidInputError("b must be positive")
        if self.n_diseased < 1 or self.n_nondiseased < 1:
            raise InvalidInputError("group sizes must be positive")
        if not isinstance(self.seed, SeedSpec):
            raise InvalidInputError("seed must be a SeedSpec")


def gen_binormal(sc: BinormalScenario) -> DiagnosticSample:
    """Draw one diagnostic sample from a binormal scenario.

    Nondiseased values are drawn first, then diseased; both from the single
    stream ``sc.seed.rng()``, so output is bit-reproducible.
    """
    rng = sc.seed.rng()
    nondiseased = rng.standard_normal(sc.n_nondiseased)
    diseased = sc.a / sc.b + rng.standard_normal(sc.n_diseased) / sc.b
    return DiagnosticSample(diseased=diseased, nondiseased=nondiseased)


def true_binormal_roc(a: float, b: float, p):
    """Exact binormal ROC value(s) ``Phi(a + b Phi^{-1}(p))``."""
    if b <= 0.0:
        raise InvalidInputError("b must be positive")
    pv = np.asarray(p, dtype=float)
    if np.any(pv < 0.0) or np.any(pv > 1.0):
        raise InvalidInputError("p must lie in [0, 1]")
    out = _pinned_curve(pv, lambda q: std_normal_cdf(a + b * std_normal_quantile(q)))
    return float(out) if np.isscalar(p) or pv.ndim == 0 else out


def _phi(x: float) -> float:
    # the standard normal CDF of a scalar, refusing NaN as std_normal_cdf does
    if math.isnan(x):
        raise InvalidInputError("normal CDF argument is NaN")
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def true_binormal_auc(a: float, b: float) -> float:
    """Exact binormal AUC ``Phi(a / sqrt(1 + b^2))``."""
    if b <= 0.0:
        raise InvalidInputError("b must be positive")
    return _phi(a / math.sqrt(1.0 + b * b))


def true_binormal_youden(a: float, b: float) -> YoudenResult:
    """Closed-form Youden index of the binormal model.

    The maximizer of ``Phi(c) - Phi((c - mu)/sigma)`` (``mu = a/b``,
    ``sigma = 1/b``) solves the equal-density equation, a quadratic in
    ``c``; with ``b = 1`` it is the midpoint ``mu/2``.  When the densities
    are identical (``a = 0``, ``b = 1``) the gap is identically zero and
    the midpoint (0) is reported.
    """
    if b <= 0.0:
        raise InvalidInputError("b must be positive")
    mu = a / b
    sigma = 1.0 / b
    if b == 1.0:
        roots = [mu / 2.0] if mu != 0.0 else [0.0]
    else:
        # (1 - sigma^2) c^2 - 2 mu c + mu^2 + 2 sigma^2 log(sigma) = 0
        qa = 1.0 - sigma * sigma
        qb = -2.0 * mu
        qc = mu * mu + 2.0 * sigma * sigma * math.log(sigma)
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            roots = [mu / (1.0 + sigma)]  # numerical fallback between the means
        else:
            sq = math.sqrt(disc)
            roots = [(-qb + sq) / (2.0 * qa), (-qb - sq) / (2.0 * qa)]

    def gap(c: float) -> float:
        return _phi(c) - _phi((c - mu) / sigma)

    c_star = max(roots, key=gap)
    yi = gap(c_star)
    return YoudenResult(yi=yi, c_star=c_star, p_star=1.0 - _phi(c_star))


def gen_covariate_linear(beta_d, beta_nd, sigma_d: float, sigma_nd: float,
                         n_d: int, n_nd: int, *, x_range=(0.0, 1.0),
                         seed: SeedSpec):
    """Two linear location-scale samples sharing a uniform covariate law.

    ``y = beta[0] + beta[1] x + sigma eps`` in each group, with ``x``
    uniform on ``x_range`` and standard normal errors.  Returns the pair of
    ``RegressionSample`` objects (diseased, nondiseased) with design
    columns ``(1, x)``.  Nondiseased covariates and errors are drawn first.
    """
    from .covariate_roc import RegressionSample

    beta_d = np.asarray(beta_d, dtype=float)
    beta_nd = np.asarray(beta_nd, dtype=float)
    if beta_d.shape != (2,) or beta_nd.shape != (2,):
        raise InvalidInputError("coefficient vectors must have length 2 (intercept, slope)")
    if sigma_d <= 0.0 or sigma_nd <= 0.0:
        raise InvalidInputError("error scales must be positive")
    if n_d < 1 or n_nd < 1:
        raise InvalidInputError("group sizes must be positive")
    lo, hi = float(x_range[0]), float(x_range[1])
    if not lo < hi:
        raise InvalidInputError("x_range must be an increasing interval")
    if not isinstance(seed, SeedSpec):
        raise InvalidInputError("seed must be a SeedSpec")

    rng = seed.rng()
    out = []
    for beta, sigma, n in ((beta_nd, sigma_nd, n_nd), (beta_d, sigma_d, n_d)):
        x = rng.uniform(lo, hi, size=n)
        y = beta[0] + beta[1] * x + sigma * rng.standard_normal(n)
        design = np.column_stack([np.ones(n), x])
        out.append(RegressionSample(outcomes=y, design=design, labels=("intercept", "x")))
    nd_sample, d_sample = out
    return d_sample, nd_sample


def gen_survival(n: int, gamma: float, censor_rate: float, *,
                 marker_loc: float = 0.0, marker_scale: float = 1.0,
                 seed: SeedSpec):
    """Survival cohort with marker-driven exponential event times.

    Marker ``y`` is normal; the event time is exponential with rate
    ``exp(gamma * y)``; censoring is an independent exponential with rate
    ``censor_rate`` (0 disables censoring and skips that RNG call).
    """
    from .timedep_roc import SurvivalSample

    if n < 1:
        raise InvalidInputError("n must be positive")
    if marker_scale <= 0.0:
        raise InvalidInputError("marker_scale must be positive")
    if not (math.isfinite(censor_rate) and censor_rate >= 0.0):
        raise InvalidInputError(f"censor_rate must be finite and nonnegative, got {censor_rate}")
    if not isinstance(seed, SeedSpec):
        raise InvalidInputError("seed must be a SeedSpec")
    rng = seed.rng()
    y = marker_loc + marker_scale * rng.standard_normal(n)
    t_event = rng.exponential(scale=np.exp(-gamma * y))
    if censor_rate > 0.0:
        t_cens = rng.exponential(scale=1.0 / censor_rate, size=n)
    else:
        t_cens = np.full(n, np.inf)
    event = t_event <= t_cens
    return SurvivalSample(marker=y, time=np.minimum(t_event, t_cens),
                          event=event.astype(int))
