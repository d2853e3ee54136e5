"""Output checks for benchmark analyses, computed independently of roclab.

Each check takes the parsed ``summary.txt`` (line key -> first value token)
and the analysis's output directory, and raises ``CheckError`` when the
output is wrong.  Expected values come from integer pair counts or closed
forms written here, never from roclab itself.
"""

from __future__ import annotations

import math
import os

import numpy as np


class CheckError(Exception):
    """An analysis produced output that fails its check."""


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def binormal_auc(a: float, b: float) -> float:
    """AUC of the binormal curve ``Phi(a + b Phi^-1(p))``."""
    return normal_cdf(a / math.sqrt(1.0 + b * b))


def linear_conditional_auc(beta_d, beta_nd, x: float) -> float:
    """AUC at covariate ``x`` when each group is ``b0 + b1 x + N(0, 1)``."""
    shift = beta_d[0] - beta_nd[0] + (beta_d[1] - beta_nd[1]) * x
    return normal_cdf(shift / math.sqrt(2.0))


def linear_adjusted_auc(beta_d, beta_nd, nodes: int = 32) -> float:
    """Covariate-adjusted AUC of the same model with x ~ U(0, 1).

    The adjusted curve averages the conditional curves over the diseased
    covariate law, so its AUC is the conditional AUC averaged over x, here
    by Gauss-Legendre quadrature.
    """
    t, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * sum(float(wi) * linear_conditional_auc(beta_d, beta_nd, (ti + 1.0) / 2.0)
                     for ti, wi in zip(t, w))


def mann_whitney_auc(diseased, nondiseased) -> float:
    """Pr(D > ND) + Pr(D = ND)/2 from integer pair counts, correctly rounded."""
    nd = np.sort(np.asarray(nondiseased, dtype=float))
    d = np.asarray(diseased, dtype=float)
    below = np.searchsorted(nd, d, side="left")
    at_or_below = np.searchsorted(nd, d, side="right")
    twice_wins = 2 * int(below.sum()) + int((at_or_below - below).sum())
    return twice_wins / (2 * d.size * nd.size)  # exact ints, one rounding


def auc_tolerance(auc: float, n_d: int, n_nd: int, width: float = 5.0) -> float:
    """``width`` Hanley-McNeil standard errors of an AUC estimate.

    At five, a correct estimator fails about once in a million checks, and
    a full set of benchmark runs makes about a thousand.
    """
    q1 = auc / (2.0 - auc)
    q2 = 2.0 * auc * auc / (1.0 + auc)
    var = (auc * (1.0 - auc) + (n_d - 1) * (q1 - auc * auc)
           + (n_nd - 1) * (q2 - auc * auc)) / (n_d * n_nd)
    return width * math.sqrt(var)


def read_summary(outdir: str) -> dict[str, str]:
    out = {}
    with open(os.path.join(outdir, "summary.txt")) as fh:
        for line in fh:
            key, _, value = line.partition(":")
            out[key.strip()] = value.split()[0] if value.split() else ""
    return out


def _number(summary: dict, key: str) -> float:
    if key not in summary:
        raise CheckError(f"summary has no '{key}' line")
    try:
        return float(summary[key])
    except ValueError:
        raise CheckError(f"'{key}' is not a number: {summary[key]!r}") from None


def lines_equal(**expected: str):
    """Summary lines equal the given strings exactly."""
    def check(summary, outdir):
        for key, want in expected.items():
            if summary.get(key) != want:
                raise CheckError(f"{key}: got {summary.get(key)!r}, expected {want!r}")
    return check


def auc_near(truth: float, tol: float):
    """The summary AUC lies within ``tol`` of ``truth``."""
    def check(summary, outdir):
        auc = _number(summary, "auc")
        if not abs(auc - truth) <= tol:
            raise CheckError(f"auc {auc:.6g} is more than {tol:.3g} from {truth:.6g}")
    return check


def probabilities(*keys: str):
    """Each named summary value is a finite number in [0, 1]."""
    def check(summary, outdir):
        for key in keys:
            value = _number(summary, key)
            if not 0.0 <= value <= 1.0:
                raise CheckError(f"{key} = {value!r} is not a probability")
    return check


def csv_rows(name: str, n_rows: int):
    """Artifact ``name`` holds a header plus ``n_rows`` data rows."""
    def check(summary, outdir):
        with open(os.path.join(outdir, name)) as fh:
            got = sum(1 for _ in fh) - 1
        if got != n_rows:
            raise CheckError(f"{name} has {got} data rows, expected {n_rows}")
    return check
