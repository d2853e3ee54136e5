"""Accuracy of a binary (or thresholded) test: error fractions and PPV/NPV.

The positivity rule is ``y >= c`` everywhere: a result at the threshold
counts as positive.  Fractions are computed as single integer-count
divisions so that values like 2/3 come out correctly rounded and agree
bit-for-bit with ``cumdyn_fractions`` on the labels ``I(T <= t)`` when
nobody is censored at or before ``t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import validate_sample
from .errors import InvalidInputError, UndefinedPredictiveValueError


@dataclass(frozen=True)
class ConfusionFractions:
    """True/false positive and negative fractions at one threshold."""

    tpf: float
    fpf: float
    tnf: float
    fnf: float

    def __post_init__(self):
        for name in ("tpf", "fpf", "tnf", "fnf"):
            v = getattr(self, name)
            if not np.isfinite(v) or not 0.0 <= v <= 1.0:
                raise InvalidInputError(f"{name}={v} is not a probability")
        if abs(self.tpf + self.fnf - 1.0) > 1e-12 or abs(self.fpf + self.tnf - 1.0) > 1e-12:
            raise InvalidInputError("complementary fractions must sum to 1")


@dataclass(frozen=True)
class Prevalence:
    """Disease prevalence, strictly inside (0, 1).

    The boundary values are rejected at construction: with pi in {0, 1} the
    predictive-value ratios lose meaning before any arithmetic happens.
    """

    pi: float

    def __post_init__(self):
        if not np.isfinite(self.pi) or not 0.0 < self.pi < 1.0:
            raise InvalidInputError(f"prevalence must be in (0, 1), got {self.pi}")


def classification_fractions(diseased, nondiseased, threshold: float) -> ConfusionFractions:
    """Error fractions of the rule ``positive iff y >= threshold``.

    Parameters
    ----------
    diseased, nondiseased : array_like
        Test outcomes in each population.
    threshold : float
        Positivity cutoff ``c``; may be +/-inf to force all-negative or
        all-positive classification.

    Returns
    -------
    ConfusionFractions
        tpf = #{diseased >= c}/n_diseased and so on, each a single
        correctly rounded division.
    """
    d = np.sort(validate_sample(diseased, "diseased"))
    nd = np.sort(validate_sample(nondiseased, "nondiseased"))
    if np.isnan(threshold):
        raise InvalidInputError("threshold is NaN")
    # searchsorted(side='left') counts values < c, so n - count is #{y >= c}
    d_below = int(np.searchsorted(d, threshold, side="left"))
    nd_below = int(np.searchsorted(nd, threshold, side="left"))
    return ConfusionFractions(
        tpf=(d.size - d_below) / d.size,
        fpf=(nd.size - nd_below) / nd.size,
        tnf=nd_below / nd.size,
        fnf=d_below / d.size,
    )


def predictive_values(f: ConfusionFractions, prev) -> tuple[float, float]:
    """Positive and negative predictive values at prevalence ``prev``.

    ``ppv = pi*tpf / (pi*tpf + (1-pi)*fpf)`` and
    ``npv = (1-pi)*tnf / ((1-pi)*tnf + pi*fnf)``.  A zero denominator (the
    test never flags positive, or never flags negative) makes the
    corresponding value undefined and raises, naming the failed quantity.
    """
    if not isinstance(prev, Prevalence):
        prev = Prevalence(float(prev))
    pi = prev.pi
    ppv_den = pi * f.tpf + (1.0 - pi) * f.fpf
    if ppv_den <= 0.0:
        raise UndefinedPredictiveValueError(
            "ppv undefined: the test is never positive (tpf = fpf = 0)", which="ppv"
        )
    npv_den = (1.0 - pi) * f.tnf + pi * f.fnf
    if npv_den <= 0.0:
        raise UndefinedPredictiveValueError(
            "npv undefined: the test is never negative (tnf = fnf = 0)", which="npv"
        )
    return pi * f.tpf / ppv_den, (1.0 - pi) * f.tnf / npv_den
