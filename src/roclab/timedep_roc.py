"""Cumulative/dynamic time-dependent ROC under right censoring.

Cases at horizon ``t`` are subjects with onset by ``t``; controls are
disease-free beyond ``t``.  The accuracy fractions combine Kaplan-Meier
estimates through Bayes' rule:

    TPF(c, t) = P(Y >= c) * (1 - S(t | Y >= c)) / (1 - S(t))
    TNF(c, t) = P(Y <  c) * S(t | Y < c) / S(t)

with marker-subset and overall product-limit estimates, all read from one
sweep over the distinct markers, in O(n m) time for m event times up to
``t``.  With no censoring at or before ``t`` each fraction is a count
ratio rounded once, and the curve and AUC are ``empirical_roc`` and
``empirical_auc`` of the labels ``D = I(T <= t)``.  Under censoring the
products are taken in floats, and the curve need not be monotone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import as_prob_grid, default_prob_grid
from .errors import AllCensoredWarning, InvalidInputError, TimeOutOfRangeError
from .pooled_roc import RocCurveEstimate, empirical_auc, empirical_roc

@dataclass(frozen=True)
class SurvivalSample:
    """Marker, follow-up time and event indicator (1 = onset observed)."""

    marker: np.ndarray
    time: np.ndarray
    event: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.marker, dtype=float)
        t, e = _as_survival_arrays(self.time, self.event)
        if y.shape != t.shape:
            raise InvalidInputError("marker, time and event must be equal-length vectors")
        if not np.all(np.isfinite(y)):
            raise InvalidInputError("marker contains non-finite values")
        object.__setattr__(self, "marker", y)
        object.__setattr__(self, "time", t)
        object.__setattr__(self, "event", e)

    @property
    def n(self) -> int:
        return int(np.asarray(self.marker).size)


@dataclass(frozen=True)
class StepSurvival:
    """Right-continuous product-limit survival curve: S just after each of
    the strictly increasing ``jump_times``."""

    jump_times: np.ndarray
    surv_values: np.ndarray

    def __post_init__(self):
        jt = np.asarray(self.jump_times, dtype=float)
        sv = np.asarray(self.surv_values, dtype=float)
        if jt.shape != sv.shape or jt.ndim != 1:
            raise InvalidInputError("jump_times and surv_values must be matching vectors")
        if jt.size and np.any(np.diff(jt) <= 0.0):
            raise InvalidInputError("jump times must be strictly increasing")
        if jt.size and (np.any(np.diff(sv) > 0.0) or sv[0] > 1.0 or np.any(sv < 0.0)):
            raise InvalidInputError("survival values must be nonincreasing within [0, 1]")

    def at(self, t):
        """S(t), right continuous; 1 before the first event time."""
        tv = np.asarray(t, dtype=float)
        if np.any(np.isnan(tv)):
            raise InvalidInputError("time is NaN")
        jt = np.asarray(self.jump_times, dtype=float)
        sv = np.concatenate([[1.0], np.asarray(self.surv_values, dtype=float)])
        out = sv[np.searchsorted(jt, tv, side="right")]
        return float(out) if np.isscalar(t) or tv.ndim == 0 else out


def _as_survival_arrays(times, events):
    t = np.asarray(times, dtype=float)
    e = np.asarray(events)
    if t.ndim != 1 or e.shape != t.shape or t.size < 1:
        raise InvalidInputError("times and events must be equal-length nonempty vectors")
    if not np.all(np.isfinite(t)) or np.any(t < 0.0):
        raise InvalidInputError("times must be finite and nonnegative")
    if not np.all(np.isin(e, (0, 1, True, False))):
        raise InvalidInputError("event indicators must be 0 or 1")
    return t, e.astype(int)


def _risk_table(times: np.ndarray, events: np.ndarray, t: float = np.inf):
    # distinct event times up to t, with the numbers at risk (time >= it) and failing
    event_times, deaths = np.unique(times[(events == 1) & (times <= t)], return_counts=True)
    return event_times, times.size - np.searchsorted(np.sort(times), event_times), deaths


def kaplan_meier(times, events) -> StepSurvival:
    """Product-limit survival estimate, a running product of
    (at risk - events) / at risk.

    Subjects censored at an event time stay in its risk set.  No events at
    all give S identically 1, with an ``AllCensoredWarning``.
    """
    t, e = _as_survival_arrays(times, events)
    if not np.any(e == 1):
        warnings.warn("no events observed: survival curve is identically 1",
                      AllCensoredWarning)
        return StepSurvival(jump_times=np.empty(0), surv_values=np.empty(0))
    jump_times, at_risk, deaths = _risk_table(t, e)
    return StepSurvival(jump_times=jump_times,
                        surv_values=np.cumprod((at_risk - deaths) / at_risk))


def _check_horizon(t: float) -> float:
    t = float(t)
    if not np.isfinite(t) or t <= 0.0:
        raise InvalidInputError(f"horizon must be a positive real, got {t}")
    return t


@dataclass(frozen=True)
class _Sweep:
    """TPF ``tp``, FPF ``fp`` and TNF ``tn`` of the rules ``Y >= c`` at the
    ascending distinct markers, plus a rule above every marker.  ``labels``
    is the case indicator ``I(T <= t)`` when nobody is censored at or
    before ``t``, else None.
    """

    thresholds: np.ndarray
    tp: np.ndarray
    fp: np.ndarray
    tn: np.ndarray
    labels: np.ndarray | None


def _sweep(s: SurvivalSample, t: float, fraction: str) -> _Sweep:
    """One pass over the distinct markers, from the largest down.
    ``fraction`` names the one that S(t) = 0 leaves undefined."""
    y, times, events = s.marker, s.time, s.event
    event_times, at_risk, deaths = _risk_table(times, events, t)
    if deaths.size == 0:
        raise TimeOutOfRangeError(
            f"no event mass at or before t={t}: TPF denominator 1-S(t) is zero", t=t)
    if np.any(at_risk == deaths):
        raise TimeOutOfRangeError(
            f"no survival mass beyond t={t}: {fraction} denominator S(t) is zero", t=t)
    n = y.size
    order = np.argsort(y, kind="stable")
    thresholds, start = np.unique(y[order], return_index=True)
    # the subjects with Y >= thresholds[k] are order[bounds[k]:]
    bounds = np.append(start, n)
    n_ge = n - bounds
    case = (events == 1) & (times <= t)
    cases_ge = np.append(np.cumsum(case[order][::-1])[::-1], 0)[bounds]
    if not np.any((events == 0) & (times <= t)):
        cases = int(deaths.sum())
        fp = n_ge - cases_ge
        return _Sweep(thresholds, cases_ge / cases, fp / (n - cases),
                      (n - cases - fp) / (n - cases), case)

    # row 0 counts {Y >= c} and row 1 counts {Y < c} at each event time
    steps = np.searchsorted(event_times, times, side="right")
    risk = np.stack([np.zeros(at_risk.size), at_risk.astype(float)])
    dead = np.stack([np.zeros(deaths.size), deaths.astype(float)])
    move = np.array([1.0, -1.0])
    surv = np.ones((bounds.size, 2))
    for k in range(thresholds.size - 1, -1, -1):
        for i in order[bounds[k]:bounds[k + 1]]:
            risk[:, :steps[i]] += move[:, None]
            if case[i]:
                dead[:, steps[i] - 1] += move
        # Kaplan-Meier products; a factor is 1 where nobody is at risk
        surv[k] = (1.0 - dead / np.maximum(risk, 1.0)).prod(axis=1)
    s_ge, s_lt = surv.T
    s_t = s_lt[-1] = s_ge[0]
    # the raw ratios can spill out of [0, 1] under heavy censoring
    tp = np.clip(n_ge / n * (1.0 - s_ge) / (1.0 - s_t), 0.0, 1.0)
    fp = np.clip(n_ge / n * s_ge / s_t, 0.0, 1.0)
    tn = np.clip((n - n_ge) / n * s_lt / s_t, 0.0, 1.0)
    return _Sweep(thresholds, tp, fp, tn, None)


def cumdyn_fractions(s: SurvivalSample, c, t: float):
    """Cumulative TPF and dynamic TNF at threshold ``c`` and horizon ``t``.

    Requires ``0 < 1 - S(t)`` and ``S(t) > 0``, else ``TimeOutOfRangeError``
    names ``t``.  Without censoring at or before ``t`` each fraction is a
    count ratio rounded once, as ``classification_fractions`` gives for
    the labels ``I(T <= t)``; under censoring a float ratio clamped to
    [0, 1].  A scalar ``c`` gives two floats, an array two arrays.
    """
    t = _check_horizon(t)
    cv = np.asarray(c, dtype=float)
    if np.any(np.isnan(cv)):
        raise InvalidInputError("threshold is NaN")
    sw = _sweep(s, t, "TNF")
    k = np.searchsorted(sw.thresholds, cv, side="left")
    tpf, tnf = sw.tp[k], sw.tn[k]
    return (float(tpf), float(tnf)) if cv.ndim == 0 else (tpf, tnf)


def _pav_nonincreasing(values: np.ndarray) -> np.ndarray:
    # pool-adjacent-violators projection onto nonincreasing sequences
    vals: list[float] = []
    wts: list[int] = []
    for x in reversed(values.tolist()):
        vals.append(x)
        wts.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            w = wts[-2] + wts[-1]
            merged = (vals[-2] * wts[-2] + vals[-1] * wts[-1]) / w
            vals[-2:] = [merged]
            wts[-2:] = [w]
    out: list[float] = []
    for v, w in zip(vals, wts):
        out.extend([v] * w)
    return np.asarray(out[::-1])


def _roc_and_youden(s: SurvivalSample, t: float, grid=None, *, isotonic: bool = False):
    """``timedep_roc`` and a dict of ``yi``, ``c_star`` and ``p_star``: the
    largest ``TPF + TNF - 1`` of the rules ``Y >= c`` at the distinct
    markers (the smallest ``c`` on ties), from one sweep.
    """
    t = _check_horizon(t)
    grid = default_prob_grid() if grid is None else as_prob_grid(grid)
    sw = _sweep(s, t, "FPF")
    if sw.labels is not None:
        # count ratios are already monotone: the empirical curve of the labels
        curve = empirical_roc(s.marker[sw.labels], s.marker[~sw.labels], grid)
    else:
        fpf, tpf = sw.fp, sw.tp
        if isotonic:
            fpf, tpf = _pav_nonincreasing(fpf), _pav_nonincreasing(tpf)
        # the first threshold whose FPF is at most p: the first whose running minimum is
        first = np.searchsorted(-np.minimum.accumulate(fpf), -grid, side="left")
        curve = RocCurveEstimate(grid=grid, roc=tpf[first], auc=_auc(s, sw))
    youden = sw.tp[:-1] + sw.tn[:-1] - 1.0
    best = int(np.argmax(youden))
    return curve, {"yi": youden[best], "c_star": sw.thresholds[best],
                   "p_star": 1.0 - sw.tn[best]}


def _auc(s: SurvivalSample, sw: _Sweep) -> float:
    if sw.labels is not None:
        return float(empirical_auc(s.marker[sw.labels], s.marker[~sw.labels]))
    area = np.sum((sw.tp[:-1] + sw.tp[1:]) * (sw.fp[:-1] - sw.fp[1:]))
    return float(np.clip(area / 2, 0.0, 1.0))


def timedep_roc(s: SurvivalSample, t: float, grid=None, *,
                isotonic: bool = False) -> RocCurveEstimate:
    """Time-dependent ROC at horizon ``t``: ``ROC(p, t) = TPF(FPF^{-1}(p))``.

    Each grid ``p`` takes the smallest threshold whose FPF is at most
    ``p``.  Without censoring at or before ``t`` this is ``empirical_roc``
    of the labels ``I(T <= t)``, whatever ``isotonic`` says.  Under
    censoring ``isotonic=True`` first makes both swept fraction sequences
    monotone by pool-adjacent-violators.  The ``auc`` is ``timedep_auc``'s.
    """
    return _roc_and_youden(s, t, grid, isotonic=isotonic)[0]


def timedep_auc(s: SurvivalSample, t: float) -> float:
    """Area under the swept time-dependent curve from the raw fractions: a
    trapezoid over the swept vertices (the Mann-Whitney half-tie rule), and
    ``empirical_auc`` of the labels ``I(T <= t)`` without censoring at or
    before ``t``.
    """
    return _auc(s, _sweep(s, _check_horizon(t), "FPF"))
