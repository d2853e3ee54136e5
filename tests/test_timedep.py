from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from roclab import (AllCensoredWarning, InvalidInputError, SeedSpec,
                    SurvivalSample, TimeOutOfRangeError, classification_fractions,
                    cumdyn_fractions, empirical_auc, empirical_roc, gen_survival,
                    kaplan_meier, timedep_auc, timedep_roc)
from roclab.timedep_roc import _roc_and_youden, _sweep


# Reference oracle: the exact-rational estimator, one product-limit fit per
# threshold, with each fraction and the trapezoid rounded once at the end.

def oracle_km_at(times, events, t):
    """Exact Kaplan-Meier survival at one time."""
    event_times, counts = np.unique(times[events == 1], return_counts=True)
    t_sorted = np.sort(times)
    running = Fraction(1)
    for et, d in zip(event_times, counts):
        if et > t:
            break
        at_risk = times.size - int(np.searchsorted(t_sorted, et, side="left"))
        running *= Fraction(at_risk - int(d), at_risk)
    return running


def _clamp01(f):
    return min(max(f, Fraction(0)), Fraction(1))


def oracle_survival_at(s, t):
    """Exact S(t), or None where the time-dependent fractions are undefined."""
    s_t = oracle_km_at(s.time, s.event, t)
    return None if s_t in (0, 1) else s_t


def oracle_fractions(s, c, t):
    """Exact (TPF, TNF) of the rule ``Y >= c`` at horizon ``t``."""
    s_t = oracle_survival_at(s, t)
    n, ge = s.n, s.marker >= c
    n_ge = int(ge.sum())
    tpf = Fraction(0) if n_ge == 0 else _clamp01(
        Fraction(n_ge, n) * (1 - oracle_km_at(s.time[ge], s.event[ge], t)) / (1 - s_t))
    tnf = Fraction(0) if n_ge == n else _clamp01(
        Fraction(n - n_ge, n) * oracle_km_at(s.time[~ge], s.event[~ge], t) / s_t)
    return tpf, tnf


def oracle_sweep(s, t):
    """Exact (FPF, TPF) at every distinct marker, ascending, plus the (0, 0) corner."""
    s_t = oracle_survival_at(s, t)
    order = np.argsort(s.marker, kind="stable")
    y, times, events = s.marker[order], s.time[order], s.event[order]
    fpf, tpf = [], []
    for c in np.unique(y):
        i = int(np.searchsorted(y, c, side="left"))
        share = Fraction(s.n - i, s.n)
        s_ge = oracle_km_at(times[i:], events[i:], t)
        fpf.append(_clamp01(share * s_ge / s_t))
        tpf.append(_clamp01(share * (1 - s_ge) / (1 - s_t)))
    return fpf + [Fraction(0)], tpf + [Fraction(0)]


def oracle_curve(fpf, tpf, grid):
    """TPF at the smallest threshold whose FPF is at most each ``p``, exactly."""
    return np.array([float(next(b for a, b in zip(fpf, tpf) if a <= Fraction(float(p))))
                     for p in grid])


def oracle_auc(fpf, tpf):
    area = sum((tpf[k] + tpf[k + 1]) * (fpf[k] - fpf[k + 1])
               for k in range(len(fpf) - 1)) / 2
    return float(_clamp01(area))


def _uncensored(marker, times):
    marker = np.asarray(marker, dtype=float)
    return SurvivalSample(marker=marker, time=np.asarray(times, dtype=float),
                          event=np.ones(marker.size))


class TestKaplanMeier:
    def test_no_censoring_hand_values(self):
        km = kaplan_meier([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
        assert np.array_equal(km.jump_times, [1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(km.surv_values, [0.75, 0.5, 0.25, 0.0])

    def test_censoring_holds_the_curve(self):
        # event at 1 of 4 at risk, censorings keep S(1)=3/4 flat afterwards
        km = kaplan_meier([1.0, 2.0, 3.0, 4.0], [1, 0, 0, 0])
        assert np.array_equal(km.jump_times, [1.0])
        assert km.surv_values[0] == 0.75

    def test_classic_mixed_example(self):
        # events at 1 (4 at risk) and 3 (2 at risk): S = 3/4 then 3/8
        km = kaplan_meier([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0])
        assert np.array_equal(km.jump_times, [1.0, 3.0])
        assert km.surv_values[0] == 0.75
        assert km.surv_values[1] == 0.375

    def test_tie_convention_event_before_censoring(self):
        # censored subject at the event time stays in the risk set
        km = kaplan_meier([1.0, 1.0, 2.0], [1, 0, 1])
        assert km.surv_values[0] == pytest.approx(2.0 / 3.0)

    def test_matches_the_exact_product_limit(self):
        rng = np.random.default_rng(71)
        for n in (5, 60, 2000):
            times = np.round(rng.exponential(1.0, n), 1)  # tied times
            events = (np.arange(n) == 0) | (rng.uniform(size=n) < 0.7)
            km = kaplan_meier(times, events.astype(int))
            exact = [float(oracle_km_at(times, events, t)) for t in km.jump_times]
            assert np.max(np.abs(km.surv_values - exact)) <= 1e-12
            assert np.array_equal(km.at(km.jump_times), km.surv_values)

    def test_all_censored_warns(self):
        with pytest.warns(AllCensoredWarning):
            km = kaplan_meier([1.0, 2.0], [0, 0])
        assert km.jump_times.size == 0

    def test_rejects_negative_times(self):
        with pytest.raises(InvalidInputError):
            kaplan_meier([-1.0, 2.0], [1, 1])


class TestCumdynFractions:
    def test_zero_censoring_equals_binary_fractions(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            n = int(rng.integers(8, 60))
            y = np.round(rng.normal(0, 1, n), 2)
            tt = rng.exponential(np.exp(-0.7 * y))
            s = _uncensored(y, tt)
            t = float(np.quantile(tt, 0.5))
            lab = tt <= t
            if not (lab.any() and (~lab).any()):
                continue
            for c in np.unique(y):
                tpf, tnf = cumdyn_fractions(s, float(c), t)
                ref = classification_fractions(y[lab], y[~lab], float(c))
                assert tpf == ref.tpf and tnf == ref.tnf

    def test_threshold_below_all_markers(self):
        s = _uncensored([1.0, 2.0, 3.0], [0.5, 1.5, 2.5])
        tpf, tnf = cumdyn_fractions(s, 0.0, 1.0)
        assert (tpf, tnf) == (1.0, 0.0)

    def test_threshold_above_all_markers(self):
        s = _uncensored([1.0, 2.0, 3.0], [0.5, 1.5, 2.5])
        tpf, tnf = cumdyn_fractions(s, 99.0, 1.0)
        assert (tpf, tnf) == (0.0, 1.0)

    def test_horizon_before_first_event(self):
        s = _uncensored([1.0, 2.0], [5.0, 6.0])
        with pytest.raises(TimeOutOfRangeError):
            cumdyn_fractions(s, 1.5, 1.0)

    def test_horizon_after_last_event(self):
        s = _uncensored([1.0, 2.0], [5.0, 6.0])
        with pytest.raises(TimeOutOfRangeError):
            cumdyn_fractions(s, 1.5, 10.0)

    def test_horizon_between_is_fine_with_censoring(self):
        # S(t) stays positive through the censored tail
        s = SurvivalSample(marker=[1.0, 2.0, 3.0], time=[1.0, 2.0, 9.0],
                           event=[1, 1, 0])
        tpf, tnf = cumdyn_fractions(s, 2.5, 5.0)
        assert 0.0 <= tpf <= 1.0 and 0.0 <= tnf <= 1.0


class TestTimedepRoc:
    def test_zero_censoring_reduction_bitwise(self):
        rng = np.random.default_rng(62)
        for _ in range(8):
            n = int(rng.integers(10, 120))
            y = np.round(rng.normal(0, 1, n), 2)
            tt = rng.exponential(np.exp(-0.8 * y))
            s = _uncensored(y, tt)
            t = float(np.quantile(tt, 0.6))
            lab = tt <= t
            if not (lab.any() and (~lab).any()):
                continue
            for grid in (np.linspace(0, 1, 201), np.arange(0, n + 1) / n):
                a = timedep_roc(s, t, grid)
                b = empirical_roc(y[lab], y[~lab], grid)
                assert np.array_equal(a.roc, b.roc)

    def test_auc_reduction_bitwise(self):
        rng = np.random.default_rng(63)
        for _ in range(8):
            n = int(rng.integers(10, 120))
            y = np.round(rng.normal(0, 1, n), 2)
            tt = rng.exponential(np.exp(-0.8 * y))
            s = _uncensored(y, tt)
            t = float(np.quantile(tt, 0.4))
            lab = tt <= t
            if not (lab.any() and (~lab).any()):
                continue
            assert timedep_auc(s, t) == empirical_auc(y[lab], y[~lab])

    def test_null_marker_near_diagonal(self):
        s = gen_survival(500, 0.0, 0.3, seed=SeedSpec(64, 0))
        t = float(np.quantile(s.time[s.event == 1], 0.5))
        est = timedep_roc(s, t)
        assert np.max(np.abs(est.roc - est.grid)) < 2.5 / np.sqrt(250)
        assert 0.42 < est.auc < 0.58

    def test_strong_marker_beats_null(self):
        s = gen_survival(400, 3.0, 0.2, seed=SeedSpec(64, 1))
        t = float(np.quantile(s.time[s.event == 1], 0.5))
        assert timedep_auc(s, t) > 0.8

    def test_perfect_marker(self):
        # marker equal to event time orders cases exactly (larger marker
        # means later onset, so cases have SMALL markers: flip the sign)
        tt = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        s = _uncensored(-tt, tt)
        assert timedep_auc(s, 2.5) == 1.0

    def test_isotonic_matches_reference_pav(self):
        s = gen_survival(150, 1.0, 0.45, seed=SeedSpec(64, 2))
        t = float(np.quantile(s.time[s.event == 1], 0.7))
        raw = timedep_roc(s, t)
        iso = timedep_roc(s, t, isotonic=True)
        assert np.all(np.diff(iso.roc) >= -1e-12)
        # isotonic projection cannot move the curve past the raw extremes
        assert iso.roc.min() >= raw.roc.min() - 1e-12
        assert iso.roc.max() <= raw.roc.max() + 1e-12

    def test_heavy_censoring_stays_in_range(self):
        s = gen_survival(300, 1.5, 2.0, seed=SeedSpec(64, 3))
        t = float(np.quantile(s.time[s.event == 1], 0.5))
        est = timedep_roc(s, t)
        assert np.all(est.roc >= 0.0) and np.all(est.roc <= 1.0)
        assert 0.0 <= est.auc <= 1.0

    def test_rejects_nonpositive_horizon(self):
        s = _uncensored([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(InvalidInputError):
            timedep_roc(s, 0.0)


class TestSurvivalSampleType:
    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            SurvivalSample(marker=[1.0], time=[1.0, 2.0], event=[1, 1])

    def test_bad_event_codes(self):
        with pytest.raises(InvalidInputError):
            SurvivalSample(marker=[1.0, 2.0], time=[1.0, 2.0], event=[1, 2])


@st.composite
def survival_cases(draw, censored_by_t=None):
    """Small cohorts with tied markers and times and a horizon on or between times.

    ``censored_by_t`` True keeps at least one subject censored at or before
    the horizon, False censors nobody there, None leaves censoring free.
    """
    n = draw(st.integers(2, 30))
    ints = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    marker = np.array(draw(ints)) / 4.0
    time = np.array(draw(st.lists(st.integers(1, 8), min_size=n, max_size=n)), dtype=float)
    event = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    t = draw(st.sampled_from(sorted(set(time.tolist())))) + draw(st.sampled_from([0.0, 0.5]))
    if censored_by_t is False:
        event[time <= t] = 1
    elif censored_by_t:
        event[draw(st.sampled_from(np.flatnonzero(time <= t).tolist()))] = 0
    return SurvivalSample(marker=marker, time=time, event=event), t


def _grids(s, fpf):
    return [np.linspace(0, 1, 21), np.arange(0, s.n + 1) / s.n,
            np.unique(np.clip([float(f) for f in fpf], 0.0, 1.0))]


class TestSweepAgainstOracle:
    @given(survival_cases(censored_by_t=False))
    def test_uncensored_equals_oracle_bitwise(self, case):
        s, t = case
        if oracle_survival_at(s, t) is None:
            with pytest.raises(TimeOutOfRangeError):
                timedep_roc(s, t)
            return
        fpf, tpf = oracle_sweep(s, t)
        sw = _sweep(s, t, "FPF")
        assert np.array_equal(sw.labels, (s.event == 1) & (s.time <= t))
        assert np.array_equal(sw.fp, [float(f) for f in fpf])
        assert np.array_equal(sw.tp, [float(f) for f in tpf])
        cs = np.append(sw.thresholds, np.inf)
        ref = np.array([[float(f) for f in oracle_fractions(s, c, t)] for c in cs])
        assert np.array_equal(np.column_stack(cumdyn_fractions(s, cs, t)), ref)
        for grid in _grids(s, fpf):
            # the count ratios are monotone already, so isotonic changes nothing
            for isotonic in (False, True):
                est = timedep_roc(s, t, grid, isotonic=isotonic)
                assert np.array_equal(est.roc, oracle_curve(fpf, tpf, grid))
                assert est.auc == timedep_auc(s, t) == oracle_auc(fpf, tpf)

    @given(survival_cases(censored_by_t=True))
    def test_censored_within_tolerance_of_oracle(self, case):
        s, t = case
        if oracle_survival_at(s, t) is None:
            with pytest.raises(TimeOutOfRangeError):
                timedep_roc(s, t)
            return
        fpf, tpf = oracle_sweep(s, t)
        sw = _sweep(s, t, "FPF")
        assert sw.labels is None
        ref_fpf = np.array([float(f) for f in fpf])
        assert np.allclose(sw.fp, ref_fpf, rtol=0.0, atol=1e-12)
        assert np.allclose(sw.tp, [float(f) for f in tpf], rtol=0.0, atol=1e-12)
        cs = np.append(sw.thresholds, np.inf)
        ref = np.array([[float(f) for f in oracle_fractions(s, c, t)] for c in cs])
        assert np.allclose(np.column_stack(cumdyn_fractions(s, cs, t)), ref,
                           rtol=0.0, atol=1e-12)
        for grid in _grids(s, fpf):
            # away from every oracle FPF the rounding cannot change the threshold
            far = np.abs(grid[:, None] - ref_fpf[None, :]).min(axis=1) > 1e-12
            est = timedep_roc(s, t, grid)
            assert np.allclose(est.roc[far], oracle_curve(fpf, tpf, grid[far]),
                               rtol=0.0, atol=1e-12)
        assert abs(timedep_auc(s, t) - oracle_auc(fpf, tpf)) <= 1e-12

    @given(survival_cases(), st.data())
    def test_permuting_subjects_changes_nothing(self, case, data):
        s, t = case
        if oracle_survival_at(s, t) is None:
            return
        perm = np.array(data.draw(st.permutations(range(s.n))))
        shuffled = SurvivalSample(marker=s.marker[perm], time=s.time[perm],
                                  event=s.event[perm])
        a, b = timedep_roc(s, t), timedep_roc(shuffled, t)
        assert np.array_equal(a.roc, b.roc) and a.auc == b.auc
        cs = np.unique(s.marker)
        assert np.array_equal(cumdyn_fractions(s, cs, t), cumdyn_fractions(shuffled, cs, t))

    @given(survival_cases())
    def test_increasing_marker_transform_changes_nothing(self, case):
        s, t = case
        if oracle_survival_at(s, t) is None:
            return
        moved = SurvivalSample(marker=np.exp(3.0 * s.marker) - 7.0, time=s.time,
                               event=s.event)
        for iso in (False, True):
            a, b = timedep_roc(s, t, isotonic=iso), timedep_roc(moved, t, isotonic=iso)
            assert np.array_equal(a.roc, b.roc) and a.auc == b.auc

    @given(survival_cases(), st.booleans())
    def test_one_sweep_youden_equals_cumdyn_fractions(self, case, isotonic):
        # the CLI's Youden index, from the sweep behind the curve, against
        # the fractions of a second sweep at every distinct marker
        s, t = case
        if oracle_survival_at(s, t) is None:
            with pytest.raises(TimeOutOfRangeError):
                _roc_and_youden(s, t)
            return
        curve, youden = _roc_and_youden(s, t, isotonic=isotonic)
        est = timedep_roc(s, t, isotonic=isotonic)
        assert np.array_equal(curve.roc, est.roc) and curve.auc == est.auc
        cs = np.unique(s.marker)
        tpf, tnf = cumdyn_fractions(s, cs, t)
        j = tpf + tnf - 1.0
        best = int(np.argmax(j))
        assert youden == {"yi": j[best], "c_star": cs[best], "p_star": 1.0 - tnf[best]}

    @given(survival_cases())
    def test_array_thresholds_equal_scalar_calls(self, case):
        s, t = case
        if oracle_survival_at(s, t) is None:
            return
        u = np.unique(s.marker)
        cs = np.concatenate([u, (u[:-1] + u[1:]) / 2, [-np.inf, u[0] - 1.0, u[-1] + 1.0, np.inf]])
        tpf, tnf = cumdyn_fractions(s, cs, t)
        for c, a, b in zip(cs, tpf, tnf):
            assert cumdyn_fractions(s, float(c), t) == (a, b)
