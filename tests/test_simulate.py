import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import roclab.simulate

from roclab import (BinormalScenario, InvalidInputError, SeedSpec,
                    empirical_auc, gen_binormal, gen_covariate_linear,
                    gen_survival, std_normal_cdf, timedep_auc,
                    true_binormal_auc, true_binormal_roc, true_binormal_youden)


class TestGenBinormal:
    def test_null_scenario_auc(self):
        sc = BinormalScenario(a=0.0, b=1.0, n_diseased=500, n_nondiseased=500,
                              seed=SeedSpec(70, 0))
        smp = gen_binormal(sc)
        assert abs(empirical_auc(smp.diseased, smp.nondiseased) - 0.5) < 0.03

    def test_group_moments(self):
        sc = BinormalScenario(a=1.5, b=0.5, n_diseased=40_000,
                              n_nondiseased=40_000, seed=SeedSpec(70, 1))
        smp = gen_binormal(sc)
        assert abs(smp.diseased.mean() - 3.0) < 0.05       # a/b
        assert abs(smp.diseased.std(ddof=1) - 2.0) < 0.05  # 1/b
        assert abs(smp.nondiseased.mean()) < 0.05
        assert abs(smp.nondiseased.std(ddof=1) - 1.0) < 0.05

    def test_deterministic(self):
        sc = BinormalScenario(a=1.0, b=1.0, n_diseased=20, n_nondiseased=20,
                              seed=SeedSpec(70, 2))
        s1, s2 = gen_binormal(sc), gen_binormal(sc)
        assert np.array_equal(s1.diseased, s2.diseased)
        assert np.array_equal(s1.nondiseased, s2.nondiseased)

    def test_rejects_bad_b(self):
        with pytest.raises(InvalidInputError):
            BinormalScenario(a=1.0, b=0.0, n_diseased=10, n_nondiseased=10,
                             seed=SeedSpec(70, 3))


class TestTruthFunctions:
    def test_null_roc_is_identity(self):
        p = np.linspace(0, 1, 21)
        assert np.allclose(true_binormal_roc(0.0, 1.0, p), p, atol=1e-12)

    def test_unit_auc_constant(self):
        assert true_binormal_auc(1.0, 1.0) == pytest.approx(0.7602499389065233,
                                                            abs=1e-12)

    def test_auc_equals_curve_integral(self):
        p = np.linspace(0, 1, 10_001)
        for a, b in ((1.0, 1.0), (0.5, 0.8), (2.0, 1.7)):
            num = np.trapezoid(true_binormal_roc(a, b, p), p)
            assert abs(num - true_binormal_auc(a, b)) < 1e-6

    def test_unit_youden_values(self):
        y = true_binormal_youden(1.0, 1.0)
        assert abs(y.yi - 0.3829) < 1e-4
        assert y.c_star == pytest.approx(0.5, abs=1e-12)
        assert abs(y.p_star - std_normal_cdf(-0.5)) < 1e-12

    def test_youden_matches_numeric_optimizer(self):
        # independent oracle: directly maximize the CDF gap
        for a, b in ((1.0, 1.0), (0.8, 0.6), (1.5, 2.0), (0.3, 1.2)):
            mu, sigma = a / b, 1.0 / b
            gap = lambda c: -(std_normal_cdf(c) - std_normal_cdf((c - mu) / sigma))
            res = minimize_scalar(gap, bounds=(-10, 10), method="bounded",
                                  options={"xatol": 1e-10})
            y = true_binormal_youden(a, b)
            assert abs(y.c_star - res.x) < 1e-6
            assert abs(y.yi - (-res.fun)) < 1e-10
            assert abs(y.p_star - (1.0 - std_normal_cdf(y.c_star))) < 1e-12

    def test_degenerate_null_youden(self):
        y = true_binormal_youden(0.0, 1.0)
        assert y.yi == 0.0 and y.c_star == 0.0

    def test_null_auc_is_exactly_one_half(self):
        assert true_binormal_auc(0.0, 1.0) == 0.5

    @given(st.floats(-6.0, 6.0), st.floats(0.05, 20.0))
    def test_scalar_truths_match_ndtr(self, a, b):
        # the scalar Phi (math.erfc) against the same formulas on
        # scipy's ndtr; yi and p* are differences of probabilities, so
        # they get an absolute floor of 1e-15 for the cancellation
        got_auc, got = true_binormal_auc(a, b), true_binormal_youden(a, b)
        phi, roclab.simulate._phi = roclab.simulate._phi, std_normal_cdf
        try:
            want_auc, want = true_binormal_auc(a, b), true_binormal_youden(a, b)
        finally:
            roclab.simulate._phi = phi
        assert math.isclose(got_auc, want_auc, rel_tol=1e-13)
        assert got.c_star == want.c_star
        for name in ("yi", "p_star"):
            assert math.isclose(getattr(got, name), getattr(want, name),
                                rel_tol=1e-13, abs_tol=1e-15), name

    def test_truths_refuse_nan(self):
        with pytest.raises(InvalidInputError, match="NaN"):
            true_binormal_auc(np.nan, 1.0)
        with pytest.raises(InvalidInputError, match="NaN"):
            true_binormal_youden(1.0, np.nan)

    def test_domain(self):
        with pytest.raises(InvalidInputError):
            true_binormal_auc(1.0, -1.0)
        with pytest.raises(InvalidInputError):
            true_binormal_roc(1.0, 1.0, [0.5, 1.2])


class TestGenCovariateLinear:
    def test_shapes_and_design(self):
        s_d, s_nd = gen_covariate_linear([0.5, 1.0], [0.0, 1.0], 1.0, 1.0,
                                         30, 40, seed=SeedSpec(71, 0))
        assert s_d.outcomes.shape == (30,)
        assert s_nd.outcomes.shape == (40,)
        assert s_d.design.shape == (30, 2)
        assert np.all(s_d.design[:, 0] == 1.0)

    def test_covariate_range(self):
        s_d, s_nd = gen_covariate_linear([0.0, 1.0], [0.0, 1.0], 1.0, 1.0,
                                         500, 500, x_range=(2.0, 3.0),
                                         seed=SeedSpec(71, 1))
        for s in (s_d, s_nd):
            x = s.design[:, 1]
            assert x.min() >= 2.0 and x.max() <= 3.0
        assert abs(s_d.design[:, 1].mean() - 2.5) < 0.05

    def test_equal_groups_are_null(self):
        s_d, s_nd = gen_covariate_linear([0.2, 1.0], [0.2, 1.0], 1.0, 1.0,
                                         800, 800, seed=SeedSpec(71, 2))
        a = empirical_auc(s_d.outcomes, s_nd.outcomes)
        assert abs(a - 0.5) < 0.05

    def test_linear_model_holds(self):
        s_d, _ = gen_covariate_linear([1.0, 2.0], [0.0, 0.0], 0.5, 1.0,
                                      20_000, 2, seed=SeedSpec(71, 3))
        x = s_d.design[:, 1]
        resid = s_d.outcomes - (1.0 + 2.0 * x)
        assert abs(resid.mean()) < 0.02
        assert abs(resid.std(ddof=1) - 0.5) < 0.02

    def test_deterministic(self):
        a1 = gen_covariate_linear([0.5, 1.0], [0.0, 1.0], 1.0, 1.0, 25, 25,
                                  seed=SeedSpec(71, 4))
        a2 = gen_covariate_linear([0.5, 1.0], [0.0, 1.0], 1.0, 1.0, 25, 25,
                                  seed=SeedSpec(71, 4))
        assert np.array_equal(a1[0].outcomes, a2[0].outcomes)
        assert np.array_equal(a1[1].design, a2[1].design)


class TestGenSurvival:
    def test_zero_censor_rate_observes_everything(self):
        s = gen_survival(200, 1.0, 0.0, seed=SeedSpec(72, 0))
        assert np.all(s.event == 1)

    def test_null_marker_auc(self):
        s = gen_survival(500, 0.0, 0.3, seed=SeedSpec(72, 1))
        t = float(np.quantile(s.time[s.event == 1], 0.5))
        assert abs(timedep_auc(s, t) - 0.5) < 0.05

    def test_auc_monotone_in_gamma(self):
        aucs = []
        for gamma in (0.0, 1.0, 3.0):
            s = gen_survival(600, gamma, 0.2, seed=SeedSpec(72, 2))
            t = float(np.quantile(s.time[s.event == 1], 0.5))
            aucs.append(timedep_auc(s, t))
        assert aucs[0] < aucs[1] < aucs[2]
        assert aucs[2] > 0.85

    def test_marker_location_scale(self):
        s = gen_survival(30_000, 0.5, 0.1, marker_loc=2.0, marker_scale=3.0,
                         seed=SeedSpec(72, 3))
        assert abs(s.marker.mean() - 2.0) < 0.06
        assert abs(s.marker.std(ddof=1) - 3.0) < 0.06

    def test_censoring_rate_scales(self):
        light = gen_survival(2000, 1.0, 0.1, seed=SeedSpec(72, 4))
        heavy = gen_survival(2000, 1.0, 3.0, seed=SeedSpec(72, 4))
        assert heavy.event.mean() < light.event.mean()

    def test_deterministic(self):
        s1 = gen_survival(50, 1.0, 0.5, seed=SeedSpec(72, 5))
        s2 = gen_survival(50, 1.0, 0.5, seed=SeedSpec(72, 5))
        assert np.array_equal(s1.marker, s2.marker)
        assert np.array_equal(s1.time, s2.time)
        assert np.array_equal(s1.event, s2.event)

    def test_rejects_bad_n(self):
        with pytest.raises(InvalidInputError):
            gen_survival(0, 1.0, 0.5, seed=SeedSpec(72, 6))

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_censor_rate_that_is_not_finite_and_nonnegative(self, rate):
        with pytest.raises(InvalidInputError, match="censor_rate must be finite"):
            gen_survival(20, 1.0, rate, seed=SeedSpec(72, 7))
