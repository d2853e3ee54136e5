"""Shared primitives: seeding, probability grids, ECDF/quantile, normal CDF.

Conventions used throughout the package:

* The empirical CDF is right continuous, ``F(y) = #{y_i <= y} / n``.
* The empirical quantile is the left-continuous generalized inverse,
  ``Q(p) = inf{y : F(y) >= p}``, i.e. the smallest order statistic whose
  ECDF level reaches ``p``.  The rank is resolved in exact integer
  arithmetic on the binary value of ``p`` so that boundary probabilities
  (``p`` exactly at a jump) never depend on floating-point rounding.
  ``quantile`` and every empirical ROC curve take their ranks from this
  one rule, ``_exact_ranks``.
* ROC curves live on probability grids: strictly increasing 1-d arrays
  inside ``[0, 1]``.
* Parallel work has one seam, ``forked_spans``: the two groups' Gibbs
  chains, the draws of a large posterior ensemble or Bayesian bootstrap,
  and the kernel analysis's curve and Youden search run in consecutive
  spans, one per CPU the process may use, the first in the caller and
  each other one in a forked child.  Every span computes the same bits
  wherever it runs and results come back in span order, so no output
  depends on the worker count.  Each span is a part, and spans nested
  inside a part run serially.
"""

from __future__ import annotations

import os
import pickle
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericError


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


def _exact_ranks(n: int, probs: np.ndarray, complement: bool = False) -> np.ndarray:
    """Smallest ``k`` with ``k/n >= p`` (or ``>= 1 - p`` with ``complement``).

    That is ``ceil(n p)``, decided on the exact binary rational of each
    ``p``, so a level exactly on an ECDF jump never depends on rounding.
    """
    def rank(p: float) -> int:
        num, den = p.as_integer_ratio()
        return -((-n * (den - num if complement else num)) // den)

    return np.fromiter(map(rank, probs.tolist()), dtype=np.intp, count=probs.size)


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
    out = s[_exact_ranks(s.size, pv.ravel()) - 1]
    return float(out[0]) if pv.ndim == 0 else out.reshape(pv.shape)


def std_normal_cdf(x):
    """Standard normal CDF (vectorized)."""
    from .core import ndtr

    xv = np.asarray(x, dtype=float)
    if np.any(np.isnan(xv)):
        raise InvalidInputError("normal CDF argument is NaN")
    out = ndtr(xv)
    return float(out) if np.isscalar(x) or xv.ndim == 0 else out


def std_normal_quantile(p):
    """Standard normal quantile; domain is the open interval (0, 1)."""
    from .core import ndtri

    pv = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(pv)) or np.any(pv <= 0.0) or np.any(pv >= 1.0):
        raise InvalidInputError("normal quantile probability must be in (0, 1)")
    out = ndtri(pv)
    return float(out) if np.isscalar(p) or pv.ndim == 0 else out


# the modules of scipy.special that ndtr and ndtri need, in their load order
_SPECIAL_MODULES = ["scipy.special." + m for m in
                    "_sf_error _ufuncs_cxx _ellip_harm_2 _special_ufuncs _gufuncs _ufuncs".split()]


def __getattr__(name):
    """``ndtr`` and ``ndtri``, scipy's own normal CDF and quantile ufuncs.

    The package's one source of Phi and its inverse: every estimator calls
    ``core.ndtr`` and ``core.ndtri``.  They come from ``scipy.special``'s
    own modules, loaded without running ``scipy/special/__init__.py``
    (whose array-API layer loads ``numpy.testing`` and ``numpy.f2py``,
    about 20 MB and 0.2 s).  Each module goes into ``sys.modules`` under
    its own name, and one already there is reused, so a later or earlier
    ``import scipy.special`` exports these very objects.  If a load fails,
    the modules this call registered are removed before it raises.  The
    first access binds the name here.  ``ndtr`` is never called with
    ``where=``, which writes wrong values on scipy 1.17.1.
    """
    if name not in ("ndtr", "ndtri"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import machinery, util

    import scipy

    added = [mod for mod in _SPECIAL_MODULES if mod not in sys.modules]
    try:
        for mod in added:
            spec = machinery.PathFinder.find_spec(mod, [os.path.join(scipy.__path__[0], "special")])
            if spec is None:
                raise ImportError(f"scipy {scipy.__version__} has no module {mod}")
            sys.modules[mod] = module = util.module_from_spec(spec)
            spec.loader.exec_module(module)
    except BaseException:
        for mod in added:
            sys.modules.pop(mod, None)
        raise
    globals()[name] = getattr(sys.modules["scipy.special._ufuncs"], name)
    return globals()[name]


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
# forked spans

# set while this process runs a part: a span of forked_spans in the
# caller, or a forked child
_in_part = False


def _worker_count() -> int:
    """CPUs this process may run on (its affinity mask, so ``taskset`` narrows it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def forked_spans(fn, n: int, fork: bool) -> list:
    """``[fn(start, stop), ...]`` over consecutive spans that cover ``range(n)``.

    The package's one way to run work in parallel.  With ``fork`` (the
    caller's measure of work is above its floor) the spans are one per CPU
    the process may use, and at most ``n``: the first runs in the caller
    and each other one in an ``os.fork`` child, which sends back its
    result or exception by pickle through a pipe.  Without it, on one CPU,
    inside a part, or where ``os.fork`` does not exist, there is one span,
    ``fn(0, n)``.  Each span is a part: spans nested in it, in a child as
    in the caller, run serially, so the parts use one CPU each.  If a fork
    fails the spans left over run in the caller, each as a part.  Results
    and the first exception come back in span order, exactly as from the
    serial loop, and no child outlives the call.  A child that ends
    without a result raises ``NumericError`` naming its exit status.
    ``fn`` must give each item the same result whatever span holds it,
    must not warn, since a child's warnings stay in the child, and its
    result and exceptions must pickle.
    """
    serial = not fork or _in_part or not hasattr(os, "fork")
    count = max(1, min(n, 1 if serial else _worker_count()))
    edges = [n * i // count for i in range(count + 1)]
    spans = list(zip(edges[:-1], edges[1:]))
    children = []  # (pid, pipe) of each child not yet reaped, in span order
    try:
        for span in spans[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the caller runs the rest
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                _child(fn, span, read, write)
            os.close(write)
            children.append((pid, open(read, "rb")))
        forked = len(children)
        results = [_run_part(fn, spans[0])]
        while children:
            pid, pipe = children[0]
            # read to the end before waiting: a child whose result does not
            # fit in the pipe buffer cannot exit until it is read
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            if not data:
                raise NumericError("forked worker ended without a result "
                                   f"(exit status {os.waitstatus_to_exitcode(status)})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results + [_run_part(fn, span) for span in spans[1 + forked:]]
    finally:
        if children:  # after a raise: stop and reap the rest
            import signal

            for pid, pipe in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _run_part(fn, span):
    # fn(*span) in the caller's own part, with nested spans serial
    global _in_part
    outer, _in_part = _in_part, True
    try:
        return fn(*span)
    finally:
        _in_part = outer


def _child(fn, span, read, write) -> None:
    # the body of a forked child: it sends (ok, value or exception) and
    # leaves through os._exit, never back into the caller's frames
    global _in_part
    code = 1
    try:
        os.close(read)
        _in_part = True
        try:
            outcome = (True, fn(*span))
        except Exception as exc:
            outcome = (False, exc)
        try:
            data = pickle.dumps(outcome)
        except Exception as exc:  # an unpicklable result or exception
            data = pickle.dumps((False, NumericError(
                f"forked worker result cannot be sent back: {exc!r}")))
        with open(write, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)
