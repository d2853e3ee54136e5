"""Shared primitives: seeding, probability grids, ECDF/quantile, normal CDF.

Conventions used throughout the package:

* The empirical CDF is right continuous, ``F(y) = #{y_i <= y} / n``.
* The empirical quantile is the left-continuous generalized inverse,
  ``Q(p) = inf{y : F(y) >= p}``, i.e. the smallest order statistic whose
  ECDF level reaches ``p``.  The rank is resolved in exact integer
  arithmetic on the binary value of ``p`` so that boundary probabilities
  (``p`` exactly at a jump) never depend on floating-point rounding.
* ROC curves live on probability grids: strictly increasing 1-d arrays
  inside ``[0, 1]``.
* Independent blocks of array work (normal-CDF sums over kernel or mixture
  components) run through ``ordered_map``, one thread per CPU the process
  may use; every block computes the same bits on any thread and results
  come back in block order, so no output depends on the worker count.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class SeedSpec:
    """Reproducible RNG root: a master seed plus a stream identifier.

    Identical ``(master_seed, stream_id)`` pairs give bit-identical draws;
    distinct ``stream_id`` values give independent streams under the same
    master seed.  ``rng(*extra)`` derives further child streams, used to
    make per-draw randomness independent of execution order.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not isinstance(self.master_seed, (int, np.integer)):
            raise InvalidInputError("master_seed must be an integer")
        if not isinstance(self.stream_id, (int, np.integer)):
            raise InvalidInputError("stream_id must be an integer")
        if not 0 <= int(self.master_seed) < 2**64:
            raise InvalidInputError("master_seed must fit in 64 unsigned bits")
        if self.stream_id < 0:
            raise InvalidInputError("stream_id must be nonnegative")

    def rng(self, *extra: int) -> np.random.Generator:
        """Return a fresh generator for this stream (plus optional substream)."""
        return np.random.default_rng([int(self.master_seed), int(self.stream_id), *map(int, extra)])


def default_prob_grid(num: int = 201) -> np.ndarray:
    """Equally spaced grid on [0, 1] including both endpoints."""
    if num < 2:
        raise InvalidInputError("grid needs at least two points")
    return np.linspace(0.0, 1.0, num)


def as_prob_grid(grid) -> np.ndarray:
    """Validate a probability grid: 1-d, strictly increasing, inside [0, 1]."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 1:
        raise InvalidInputError("probability grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(g)):
        raise InvalidInputError("probability grid contains non-finite values")
    if g[0] < 0.0 or g[-1] > 1.0:
        raise InvalidInputError("probability grid must lie in [0, 1]")
    if g.size > 1 and not np.all(np.diff(g) > 0.0):
        raise InvalidInputError("probability grid must be strictly increasing")
    return g


def validate_sample(values, name: str = "sample", min_size: int = 1) -> np.ndarray:
    """Coerce to a finite 1-d float array of at least ``min_size`` entries."""
    y = np.asarray(values, dtype=float)
    if y.ndim != 1:
        raise InvalidInputError(f"{name} must be 1-d, got shape {y.shape}")
    if y.size < min_size:
        raise InvalidInputError(f"{name} needs at least {min_size} observations, got {y.size}")
    if not np.all(np.isfinite(y)):
        raise InvalidInputError(f"{name} contains non-finite values")
    return y


def ecdf(sample, y):
    """Empirical CDF of ``sample`` evaluated at ``y`` (right continuous).

    Parameters
    ----------
    sample : array_like
        Observations, any order.
    y : scalar or array_like
        Evaluation points.

    Returns
    -------
    float or ndarray
        ``#{sample <= y} / n``; each value is a single correctly rounded
        division, so jump levels ``k/n`` are reproduced exactly.
    """
    s = np.sort(validate_sample(sample))
    yv = np.asarray(y, dtype=float)
    if np.any(np.isnan(yv)):
        raise InvalidInputError("ECDF evaluation point is NaN")
    counts = np.searchsorted(s, yv, side="right")
    out = counts / s.size
    return float(out) if np.isscalar(y) or yv.ndim == 0 else out


def _exact_rank(n: int, p: float) -> int:
    # smallest k with k/n >= p, i.e. ceil(n*p), decided on the exact binary
    # rational of p so jump boundaries are deterministic
    num, den = float(p).as_integer_ratio()
    return -((-n * num) // den)


def quantile(sample, p):
    """Left-continuous empirical quantile ``inf{y : F(y) >= p}``.

    ``p`` must lie in ``(0, 1]``.  At a jump of the ECDF the infimum is the
    order statistic that attains the level, resolved in exact integer
    arithmetic (no tolerance fudge).
    """
    s = np.sort(validate_sample(sample))
    pv = np.asarray(p, dtype=float)
    if np.any(pv <= 0.0) or np.any(pv > 1.0):
        raise InvalidInputError("quantile probability must be in (0, 1]")
    flat = np.atleast_1d(pv)
    idx = np.fromiter((_exact_rank(s.size, q) - 1 for q in flat), dtype=np.intp, count=flat.size)
    out = s[idx]
    return float(out[0]) if pv.ndim == 0 else out.reshape(pv.shape)


def std_normal_cdf(x):
    """Standard normal CDF (vectorized)."""
    from scipy.special import ndtr

    xv = np.asarray(x, dtype=float)
    if np.any(np.isnan(xv)):
        raise InvalidInputError("normal CDF argument is NaN")
    out = ndtr(xv)
    return float(out) if np.isscalar(x) or xv.ndim == 0 else out


def std_normal_quantile(p):
    """Standard normal quantile; domain is the open interval (0, 1)."""
    from scipy.special import ndtri

    pv = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(pv)) or np.any(pv <= 0.0) or np.any(pv >= 1.0):
        raise InvalidInputError("normal quantile probability must be in (0, 1)")
    out = ndtri(pv)
    return float(out) if np.isscalar(p) or pv.ndim == 0 else out


def dirichlet_uniform(n: int, seed) -> np.ndarray:
    """One draw from the flat Dirichlet(1, ..., 1) on the ``n``-simplex.

    Implemented as normalized unit-rate exponentials, which is also how the
    Bayesian bootstrap perturbs an empirical distribution.  ``seed`` is a
    :class:`SeedSpec`; an already-built ``numpy.random.Generator`` is also
    accepted so ensemble code can reuse a stream.
    """
    if n < 1:
        raise InvalidInputError("Dirichlet dimension must be positive")
    rng = seed.rng() if isinstance(seed, SeedSpec) else seed
    g = rng.exponential(scale=1.0, size=n)
    total = g.sum()
    if total <= 0.0 or not np.isfinite(total):
        raise InvalidInputError("degenerate exponential draws")
    return g / total


# ---------------------------------------------------------------------------
# ordered thread map

# (executor, size) of the process-wide pool, made on the first parallel map
_pool = None
_pool_lock = threading.Lock()
_thread = threading.local()


def _worker_count() -> int:
    """CPUs this process may run on (its affinity mask, so ``taskset`` narrows it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _mark_worker() -> None:
    _thread.in_worker = True


def _forget_pool() -> None:
    # a forked child has only the forking thread: the parent's workers and
    # any lock one of its threads held are gone, so start afresh
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def ordered_map(fn, items) -> list:
    """``[fn(x) for x in items]``, with the calls spread over a thread pool.

    The pool has one thread per CPU the process may use and is created on
    first need.  The calls run serially when that is one CPU, when there is
    one item, or when the caller is itself a pool thread, so nested maps
    never wait on the pool they run in.  Results and the first exception
    come back in item order, exactly as from the serial loop.  ``fn``
    should spend its time in native code that releases the interpreter
    lock (numpy arithmetic, ``scipy.special.ndtr``), must not warn, and
    must set any ``np.errstate`` it needs itself: the error state is
    context-local and a pool thread does not inherit the caller's.
    """
    global _pool
    items = list(items)
    size = 1 if len(items) < 2 or getattr(_thread, "in_worker", False) else _worker_count()
    if size < 2:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with _pool_lock:
        if _pool is None or _pool[1] != size:
            # a replaced pool's idle threads exit once it is collected
            _pool = (ThreadPoolExecutor(size, thread_name_prefix="roclab",
                                        initializer=_mark_worker), size)
        pool = _pool[0]
    return list(pool.map(fn, items))
