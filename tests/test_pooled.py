import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import rankdata

from roclab import (BinormalScenario, DdpDraw, DegenerateSampleError, DpmConfig,
                    InvalidInputError, MixtureDraw, MixtureEnsemble,
                    NumericError, PosteriorEnsemble, RegressionSample, RocCurveEstimate,
                    SeedSpec, bb_roc, ddp_conditional_cdf, ddp_fit, ddp_roc,
                    dpm_auc, dpm_fit, dpm_roc, empirical_auc, empirical_roc,
                    gen_binormal, kernel_auc, kernel_cdf, kernel_roc, lscv_bandwidth,
                    mixture_cdf_callable, silverman_bandwidth, std_normal_cdf,
                    youden_empirical, youden_from_cdfs)
from roclab import pooled_roc
from roclab.core import default_prob_grid
from roclab.indices import _golden_max, _youden_search
from roclab.pooled_roc import (_allocate, _blocked_gibbs, _ensemble_from_mixture_arrays,
                               _invert_mixture_cdf, _midranks, _mixture_aucs, _mixture_cdf,
                               _mixture_sums, _pairwise_rows, _roc_from_mixtures)


def brute_auc(d, nd):
    d, nd = np.asarray(d, float), np.asarray(nd, float)
    total = 0.0
    for y1 in d:
        for y0 in nd:
            total += 1.0 if y1 > y0 else (0.5 if y1 == y0 else 0.0)
    return total / (d.size * nd.size)


class TestEmpiricalAuc:
    def test_no_overlap(self):
        assert empirical_auc([5.0, 6.0], [1.0, 2.0]) == 1.0
        assert empirical_auc([1.0, 2.0], [5.0, 6.0]) == 0.0

    def test_half_tie_counting(self):
        # single tied pair contributes 1/2
        assert empirical_auc([1.0], [1.0]) == 0.5

    def test_bitwise_equal_to_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n1, n0 = rng.integers(2, 40), rng.integers(2, 40)
            d = np.round(rng.normal(0.7, 1, n1), 1)  # rounding forces ties
            nd = np.round(rng.normal(0.0, 1, n0), 1)
            assert empirical_auc(d, nd) == brute_auc(d, nd)

    def test_matches_trapezoid_of_step_curve_without_ties(self):
        rng = np.random.default_rng(8)
        d, nd = rng.normal(1, 1, 60), rng.normal(0, 1, 80)
        grid = np.linspace(0, 1, 60 * 80 * 2 + 1)
        est = empirical_roc(d, nd, grid)
        # step curve on a grid finer than 1/(n1*n0) integrates to the AUC
        assert abs(est.auc - empirical_auc(d, nd)) < 1.0 / (60 * 80)


# heavy ties: values drawn from a small pool that holds both signed zeros,
# mixed with arbitrary finite floats
tied_floats = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, 5e-324, -1e300, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False))
tied_samples = st.lists(tied_floats, min_size=1, max_size=40)
# integer markers (many ties) and strictly increasing maps that keep them distinct
lattice = st.lists(st.integers(-20, 20).map(float), min_size=1, max_size=30)
increasing = st.sampled_from([lambda v: v ** 3, lambda v: np.exp(v / 4.0),
                              np.arctan, lambda v: 2.0 ** v - 1e6])


class TestEmpiricalProperties:
    @given(tied_samples)
    def test_midranks_equal_scipy_rankdata_bitwise(self, values):
        x = np.array(values)
        assert _midranks(x).tobytes() == rankdata(x).astype(float).tobytes()

    @given(tied_samples, tied_samples)
    def test_auc_equals_pair_count_bitwise(self, d, nd):
        dv, ndv = np.array(d), np.array(nd)
        above = int(np.sum(dv[:, None] > ndv[None, :]))
        tied = int(np.sum(dv[:, None] == ndv[None, :]))
        # one rounding of the exact count, as in the brute-force double loop
        assert empirical_auc(dv, ndv) == (2 * above + tied) / (2 * dv.size * ndv.size)

    @given(lattice, lattice, increasing)
    def test_increasing_marker_transform_changes_nothing(self, d, nd, f):
        dv, ndv = np.array(d), np.array(nd)
        before = empirical_roc(dv, ndv)
        after = empirical_roc(f(dv), f(ndv))
        assert np.array_equal(before.roc, after.roc)
        assert before.auc == after.auc == empirical_auc(f(dv), f(ndv))

    @given(lattice, lattice, st.integers(0, 2**32 - 1))
    def test_permuting_subjects_changes_nothing(self, d, nd, seed):
        dv, ndv = np.array(d), np.array(nd)
        rng = np.random.default_rng(seed)
        before = empirical_roc(dv, ndv)
        after = empirical_roc(rng.permutation(dv), rng.permutation(ndv))
        assert np.array_equal(before.roc, after.roc)
        assert before.auc == after.auc


class TestEmpiricalRoc:
    def test_two_point_example(self):
        est = empirical_roc([1.0, 3.0], [0.0, 2.0], grid=[0.0, 0.49, 0.5, 1.0])
        # p=0.49: threshold is the nd maximum, one of two diseased above it
        assert est.roc[1] == 0.5
        # p=0.5: rank ceil(2*0.5)=1 leaves threshold 0, both diseased above
        assert est.roc[2] == 1.0

    def test_p0_is_right_limit(self):
        est = empirical_roc([1.0, 3.0], [0.0, 2.0], grid=[0.0, 1.0])
        assert est.roc[0] == 0.5  # fraction of diseased above max(nd)
        assert est.roc[-1] == 1.0

    def test_complete_separation(self):
        est = empirical_roc([10.0, 12.0], [1.0, 2.0])
        assert est.auc == 1.0
        assert np.all(est.roc[1:] == 1.0)

    def test_null_curve_near_diagonal(self):
        rng = np.random.default_rng(9)
        y = rng.normal(size=400)
        est = empirical_roc(y[:200], y[200:])
        assert np.max(np.abs(est.roc - est.grid)) < 2.5 / np.sqrt(200)

    def test_exact_levels_on_sample_fractions(self):
        # grid points k/n hit ECDF jump levels through integer rank math
        nd = np.arange(10.0)
        d = nd + 0.5
        grid = np.arange(11) / 10.0
        est = empirical_roc(d, nd, grid)
        assert np.all((est.roc * 10).astype(int) == est.roc * 10)


class TestBandwidths:
    def test_silverman_formula(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        sd = np.std(y, ddof=1)
        iqr = np.percentile(y, 75) - np.percentile(y, 25)
        want = 0.9 * min(sd, iqr / 1.34) * 5 ** (-0.2)
        assert silverman_bandwidth(y) == pytest.approx(want, rel=1e-12)

    def test_silverman_scale_equivariance(self):
        rng = np.random.default_rng(10)
        y = rng.normal(size=50)
        assert silverman_bandwidth(3.0 * y) == pytest.approx(
            3.0 * silverman_bandwidth(y), rel=1e-12)

    def test_silverman_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            silverman_bandwidth([2.0, 2.0, 2.0])

    @pytest.mark.parametrize("scale, word", [(1e300, "overflow"), (1e-300, "underflow")])
    def test_extreme_magnitudes_name_the_overflow_or_underflow(self, scale, word):
        # the samples have spread; only their variance leaves the doubles
        y = np.random.default_rng(12).normal(size=50) * scale
        for fit in (silverman_bandwidth, lscv_bandwidth,
                    lambda v: dpm_fit(v, DpmConfig(seed=SeedSpec(12, 0), burn_in=1, n_save=1))):
            with pytest.raises(InvalidInputError, match=word):
                fit(y)

    def test_lscv_near_optimal_for_normal_data(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=300)
        h = lscv_bandwidth(y)
        # loose sanity window around the rule-of-thumb value
        h0 = silverman_bandwidth(y)
        assert h0 / 20.0 <= h <= 5.0 * h0

    @staticmethod
    def _lscv_unchunked(y, n_steps=60):
        # reference: the criterion on the whole n x n pair matrix at once
        n, h0 = y.size, silverman_bandwidth(y)
        diff2 = (y[:, None] - y[None, :]) ** 2

        def crit(h):
            quad = np.exp(-diff2 / (4.0 * h * h)).sum() / (2.0 * np.sqrt(np.pi) * h * n * n)
            loo = np.exp(-diff2 / (2.0 * h * h)).sum() - n
            loo /= np.sqrt(2.0 * np.pi) * h * n * (n - 1)
            return quad - 2.0 * loo

        hs = np.geomspace(h0 / 20.0, 5.0 * h0, n_steps)
        return float(hs[int(np.argmin([crit(float(h)) for h in hs]))])

    def test_lscv_blocks_choose_the_unchunked_bandwidth(self):
        # 540,280 pairs: eight blocks of whole rows, each just under _BLOCK
        # pairs, and a short one
        y = np.random.default_rng(12).standard_t(5, size=1040)
        assert lscv_bandwidth(y) == self._lscv_unchunked(y)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 400),
           st.sampled_from(["normal", "t5", "tied", "clustered"]))
    def test_lscv_unordered_pairs_choose_the_ordered_pair_bandwidth(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        if kind == "normal":
            y = rng.normal(size=n)
        elif kind == "t5":
            y = rng.standard_t(5, size=n)
        elif kind == "tied":
            y = np.round(2.0 * rng.normal(size=n)) / 2.0
        else:
            centres = rng.normal(scale=5.0, size=rng.integers(1, 5))
            y = centres[rng.integers(0, centres.size, n)] + rng.normal(scale=1e-3, size=n)
        try:
            want = self._lscv_unchunked(y)
        except DegenerateSampleError:
            with pytest.raises(DegenerateSampleError):
                lscv_bandwidth(y)
            return
        assert lscv_bandwidth(y) == want

    def test_lscv_memory_stays_below_the_pair_matrix(self):
        import tracemalloc
        n = 3000
        y = np.random.default_rng(14).normal(size=n)
        tracemalloc.start()
        try:
            lscv_bandwidth(y, n_steps=3)  # memory does not depend on the step count
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n


class TestKernelCdf:
    def test_single_point_half(self):
        assert kernel_cdf([0.0], 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_matches_mean_of_normal_cdfs(self):
        y = np.array([0.0, 1.0, 2.0])
        got = kernel_cdf(y, 0.5, 1.0)
        want = np.mean([std_normal_cdf((1.0 - yi) / 0.5) for yi in y])
        assert got == pytest.approx(want, abs=1e-15)

    def test_vector_input(self):
        out = kernel_cdf([0.0, 1.0], 1.0, np.array([-10.0, 0.5, 10.0]))
        assert out.shape == (3,)
        assert out[0] < 1e-9 and abs(out[1] - 0.5) < 1e-12 and out[2] > 1 - 1e-9

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(InvalidInputError):
            kernel_cdf([0.0, 1.0], 0.0, 0.5)

    def test_points_far_outside_the_sample_give_0_and_1_without_a_warning(self):
        # (y - y_i) / h overflows to +-inf, whose normal CDF is exactly 1 or 0
        draws = [MixtureDraw(weights=[1.0], means=[-1e308], variances=[1.0]),
                 MixtureDraw(weights=[1.0], means=[0.0], variances=[1e-300])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel_cdf([0.0, 1.0], 1e-300, 1e10) == 1.0
            assert kernel_cdf([0.0, 1.0], 1e-300, [-1e10, 0.5]).tolist() == [0.0, 0.5]
            assert mixture_cdf_callable(draws[0])(1e308) == 1.0
            assert mixture_cdf_callable(draws[1])([-1e200, 1e200]).tolist() == [0.0, 1.0]

    def test_blocks_give_the_unblocked_means_bitwise(self):
        rng = np.random.default_rng(15)
        s, y = rng.normal(0, 1, 3000), rng.normal(0, 2, (40, 25))
        assert np.array_equal(kernel_cdf(s, 0.3, y), ndtr((y[..., None] - s) / 0.3).mean(axis=-1))

    def test_memory_stays_below_the_point_by_sample_matrix(self):
        rng = np.random.default_rng(16)
        s, y = rng.normal(0, 1, 10_000), np.linspace(-4.0, 4.0, 1000)
        tracemalloc.start()
        try:
            kernel_cdf(s, 0.2, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6  # the (1000, 10_000) matrix alone is 80 MB

    def test_memory_at_n_100_000(self, force_workers):
        # each buffer holds one point's 10^5 terms (800 kB): the unit
        # weights, the bandwidth row and the buffer stay near 2.4 MB, where
        # the (200, 10^5) matrix alone is 160 MB
        force_workers(2)
        rng = np.random.default_rng(17)
        s, y = rng.normal(0, 1, 100_000), np.linspace(-4.0, 4.0, 200)
        assert traced_peak(lambda: kernel_cdf(s, 0.05, y)) < 6e6


class TestKernelRoc:
    @pytest.mark.parametrize("estimate", [kernel_roc, kernel_auc])
    @pytest.mark.parametrize("h", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_rejects_bandwidth_that_is_not_finite_and_positive(self, estimate, h):
        d, nd = [0.5, 1.0, 2.0], [0.0, 0.3, 1.1]
        for h_d, h_nd in ((h, 0.5), (0.5, h)):
            with pytest.raises(InvalidInputError, match="bandwidth"):
                estimate(d, nd, h_d, h_nd)

    @pytest.mark.parametrize("estimate", [kernel_roc, kernel_auc])
    @pytest.mark.parametrize("h", [1e-320, 5e-324, np.finfo(float).tiny / 2.0])
    def test_rejects_subnormal_bandwidth(self, estimate, h):
        d, nd = [0.5, 1.0, 2.0], [0.0, 0.3, 1.1]
        for h_d, h_nd in ((h, 0.5), (0.5, h)):
            with pytest.raises(InvalidInputError, match="smallest normal double"):
                estimate(d, nd, h_d, h_nd)
        with pytest.raises(InvalidInputError, match="smallest normal double"):
            kernel_cdf(d, h, 1.0)
        assert kernel_cdf([1.0], np.finfo(float).tiny, 1.0) == 0.5

    @pytest.mark.parametrize("estimate", [kernel_roc, kernel_auc])
    def test_rejects_bandwidth_that_overflows_across_the_data(self, estimate):
        # 1 / h is finite, but (y - y_i) / h across a range of 11 is not
        d, nd = [10.0, 12.0], [1.0, 2.0]
        for h_d, h_nd in ((3e-308, 0.5), (0.5, 3e-308)):
            with pytest.raises(InvalidInputError, match="too small for data spanning 11"):
                estimate(d, nd, h_d, h_nd)
        with pytest.raises(InvalidInputError, match="too small for data spanning 11"):
            kernel_cdf(d + nd, 3e-308, 1.0)

    def test_auc_closed_form_vs_grid_integration(self):
        rng = np.random.default_rng(12)
        d, nd = rng.normal(1, 1, 150), rng.normal(0, 1, 150)
        est = kernel_roc(d, nd, grid=np.linspace(0, 1, 2001))
        assert abs(est.auc - np.trapezoid(est.roc, est.grid)) < 1e-3

    def test_small_bandwidth_limit_is_empirical(self):
        rng = np.random.default_rng(13)
        d, nd = rng.normal(1, 1, 40), rng.normal(0, 1, 40)
        a = kernel_auc(d, nd, h_d=1e-8, h_nd=1e-8)
        assert abs(a - empirical_auc(d, nd)) < 1e-6

    def test_default_bandwidths_give_kernel_auc_bitwise(self):
        # both take Silverman's bandwidths of the samples in the order given
        rng = np.random.default_rng(368)
        d = np.round(rng.normal(1, 1, rng.integers(5, 60)), 3)
        nd = np.round(rng.normal(0, 1, rng.integers(5, 60)), 3)
        assert kernel_roc(d, nd).auc == kernel_auc(d, nd)
        assert kernel_auc(d, nd) == kernel_auc(d, nd, silverman_bandwidth(d),
                                               silverman_bandwidth(nd))

    def test_curve_monotone_and_pinned(self):
        rng = np.random.default_rng(14)
        d, nd = rng.normal(0.8, 1, 100), rng.normal(0, 1, 100)
        est = kernel_roc(d, nd)
        assert est.roc[0] >= 0.0 and est.roc[-1] == 1.0
        assert np.all(np.diff(est.roc) >= -1e-9)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 200), st.integers(2, 200))
    def test_permuting_subjects_changes_nothing(self, seed, n_d, n_nd):
        # the bandwidths and CDF sums add in subject order, so values may
        # move in the last bits, and no more
        rng = np.random.default_rng(seed)
        d, nd = rng.normal(1.0, 1.0, n_d), rng.normal(0.0, 1.3, n_nd)
        before = kernel_roc(d, nd)
        after = kernel_roc(rng.permutation(d), rng.permutation(nd))
        assert np.allclose(before.roc, after.roc, rtol=0.0, atol=1e-12)
        assert before.auc == pytest.approx(after.auc, rel=0.0, abs=1e-12)

    def test_two_points_closed_form(self):
        # AUC = Phi((d - nd) / hypot(h_d, h_nd)) for singleton samples
        got = kernel_auc([1.0], [0.0], h_d=1.0, h_nd=1.0)
        assert got == pytest.approx(std_normal_cdf(1.0 / np.sqrt(2.0)), abs=1e-12)


class TestBayesianBootstrap:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(17)
        d, nd = rng.normal(1, 1, 30), rng.normal(0, 1, 30)
        a = bb_roc(d, nd, 25, seed=SeedSpec(5, 0))
        b = bb_roc(d, nd, 25, seed=SeedSpec(5, 0))
        assert np.array_equal(a.curves, b.curves)
        assert np.array_equal(a.aucs, b.aucs)

    def test_stream_changes_draws(self):
        rng = np.random.default_rng(18)
        d, nd = rng.normal(1, 1, 30), rng.normal(0, 1, 30)
        a = bb_roc(d, nd, 10, seed=SeedSpec(5, 0))
        b = bb_roc(d, nd, 10, seed=SeedSpec(5, 1))
        assert not np.array_equal(a.curves, b.curves)

    def test_curve_shape_and_range(self):
        rng = np.random.default_rng(19)
        d, nd = rng.normal(1, 1, 25), rng.normal(0, 1, 35)
        ens = bb_roc(d, nd, 40, seed=SeedSpec(6, 0))
        assert ens.curves.shape == (40, ens.grid.size)
        assert np.all(ens.curves >= 0.0) and np.all(ens.curves <= 1.0)
        assert np.all(ens.curves[:, -1] == 1.0)
        assert np.all(np.diff(ens.curves, axis=1) >= -1e-12)

    def test_per_draw_auc_matches_curve_integral(self):
        # closed form 1 - sum q2 U vs integrating the step curve on a grid
        # finer than the smallest jump
        rng = np.random.default_rng(20)
        d, nd = rng.normal(1, 1, 20), rng.normal(0, 1, 20)
        grid = np.linspace(0.0, 1.0, 4001)
        ens = bb_roc(d, nd, 10, grid, seed=SeedSpec(7, 0))
        for s in range(10):
            num = np.trapezoid(ens.curves[s], grid)
            assert abs(ens.aucs[s] - num) < 1.0 / (2 * 20)

    def test_centers_on_empirical_auc(self):
        rng = np.random.default_rng(21)
        d, nd = rng.normal(1, 1, 120), rng.normal(0, 1, 120)
        ens = bb_roc(d, nd, 400, seed=SeedSpec(8, 0))
        assert abs(ens.aucs.mean() - empirical_auc(d, nd)) < 0.02

    def test_youden_tracking(self):
        rng = np.random.default_rng(22)
        d, nd = rng.normal(1.2, 1, 50), rng.normal(0, 1, 50)
        ens = bb_roc(d, nd, 30, seed=SeedSpec(9, 0), youden=True)
        summ = ens.youden_summary(0.95)
        assert set(summ) == {"yi", "c_star", "p_star"}
        mean, lo, hi = summ["yi"]
        assert lo <= mean <= hi
        assert bb_roc(d, nd, 3, seed=SeedSpec(9, 0)).youden_summary() is None

    @pytest.mark.parametrize("level", [0.0, 1.5])
    def test_youden_summary_rejects_a_level_outside_0_1(self, level):
        rng = np.random.default_rng(22)
        ens = bb_roc(rng.normal(1, 1, 20), rng.normal(0, 1, 20), 5, seed=SeedSpec(9, 0),
                     youden=True)
        for summary in (ens.summarize, ens.youden_summary):
            with pytest.raises(InvalidInputError, match=r"level must be in \(0, 1\)"):
                summary(level)


class TestDpm:
    def _fit(self, y, stream, **kw):
        cfg = DpmConfig(seed=SeedSpec(31, stream), burn_in=kw.pop("burn_in", 60),
                        n_save=kw.pop("n_save", 40), **kw)
        return dpm_fit(y, cfg)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(23)
        y = rng.normal(size=60)
        a, b = self._fit(y, 0), self._fit(y, 0)
        assert len(a) == len(b) == 40
        for da, db in zip(a, b):
            assert np.array_equal(da.weights, db.weights)
            assert np.array_equal(da.means, db.means)
            assert np.array_equal(da.variances, db.variances)

    def test_draws_are_valid_mixtures(self):
        rng = np.random.default_rng(24)
        y = rng.normal(2.0, 1.5, 80)
        for d in self._fit(y, 1):
            assert abs(d.weights.sum() - 1.0) < 1e-9
            assert np.all(d.weights >= 0.0)
            assert np.all(d.variances > 0.0)

    def test_posterior_mean_cdf_tracks_the_data(self):
        rng = np.random.default_rng(25)
        y = rng.normal(1.0, 2.0, 200)
        draws = self._fit(y, 2, burn_in=100, n_save=80)
        med = float(np.median(y))
        vals = [mixture_cdf_callable(d)(med) for d in draws]
        assert 0.4 < np.mean(vals) < 0.6

    def test_rejects_bad_config(self):
        with pytest.raises(InvalidInputError):
            DpmConfig(seed=SeedSpec(1, 0), truncation=1)
        with pytest.raises(InvalidInputError):
            DpmConfig(seed=42)  # must be a SeedSpec

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
    @pytest.mark.parametrize("name", ["alpha", "shape", "rate", "centre_var"])
    def test_rejects_prior_settings_that_are_not_finite_and_positive(self, name, value):
        with pytest.raises(InvalidInputError, match=f"^{name} must be finite and positive"):
            DpmConfig(seed=SeedSpec(1, 0), **{name: value})


class TestDpmAuc:
    def test_identical_mixtures_half(self):
        m = MixtureDraw(weights=[0.3, 0.7], means=[0.0, 1.0], variances=[1.0, 2.0])
        assert dpm_auc(m, m) == pytest.approx(0.5, abs=1e-12)

    def test_single_normal_closed_form(self):
        d = MixtureDraw(weights=[1.0], means=[1.0], variances=[1.0])
        nd = MixtureDraw(weights=[1.0], means=[0.0], variances=[1.0])
        assert dpm_auc(d, nd) == pytest.approx(0.7602499389065233, abs=1e-12)

    def test_matches_numerical_integration(self):
        d = MixtureDraw(weights=[0.4, 0.6], means=[1.0, 2.5], variances=[0.8, 1.2])
        nd = MixtureDraw(weights=[0.5, 0.5], means=[0.0, 0.7], variances=[1.0, 0.5])
        ens = dpm_roc([d], [nd], grid=np.linspace(0, 1, 4001))
        num = np.trapezoid(ens.curves[0], ens.grid)
        assert abs(dpm_auc(d, nd) - num) < 1e-4


class TestDpmRoc:
    def test_identical_draws_give_diagonal(self):
        m = MixtureDraw(weights=[0.5, 0.5], means=[0.0, 1.5], variances=[1.0, 0.7])
        ens = dpm_roc([m, m], [m, m])
        assert np.max(np.abs(ens.curves - ens.grid)) < 1e-9
        assert np.allclose(ens.aucs, 0.5, atol=1e-12)

    def test_mismatched_lengths_rejected(self):
        m = MixtureDraw(weights=[1.0], means=[0.0], variances=[1.0])
        with pytest.raises(InvalidInputError):
            dpm_roc([m, m], [m])

    def test_end_to_end_recovers_binormal_auc(self):
        rng = np.random.default_rng(26)
        d, nd = rng.normal(1, 1, 150), rng.normal(0, 1, 150)
        cfg_d = DpmConfig(seed=SeedSpec(32, 0), burn_in=150, n_save=100)
        cfg_nd = DpmConfig(seed=SeedSpec(32, 1), burn_in=150, n_save=100)
        ens = dpm_roc(dpm_fit(d, cfg_d), dpm_fit(nd, cfg_nd))
        assert abs(ens.aucs.mean() - 0.7602) < 0.06


class TestEnsembleSummaries:
    def _toy(self):
        grid = np.linspace(0, 1, 21)
        curves = np.stack([np.clip(grid + s, 0, 1) for s in (0.0, 0.1, 0.2)])
        curves[:, -1] = 1.0
        return PosteriorEnsemble(grid=grid, curves=curves,
                                 aucs=np.array([0.5, 0.6, 0.7]))

    def test_nan_curves_are_rejected(self):
        toy = self._toy()
        curves = np.array(toy.curves)
        curves[1, 5] = np.nan
        with pytest.raises(InvalidInputError, match="curve values outside"):
            PosteriorEnsemble(grid=toy.grid, curves=curves, aucs=toy.aucs)
        with pytest.raises(InvalidInputError, match="roc values outside"):
            RocCurveEstimate(grid=toy.grid, roc=curves[1], auc=0.6)

    def test_mean_and_band_bracketing(self):
        est = self._toy().summarize(0.90)
        assert np.all(est.band_lo <= est.roc + 1e-12)
        assert np.all(est.roc <= est.band_hi + 1e-12)
        assert est.auc == pytest.approx(0.6)
        lo, hi = est.auc_ci
        assert lo <= 0.6 <= hi

    def test_degenerate_ensemble_has_zero_width_band(self):
        grid = np.linspace(0, 1, 11)
        curves = np.tile(grid, (5, 1))
        ens = PosteriorEnsemble(grid=grid, curves=curves, aucs=np.full(5, 0.5))
        est = ens.summarize()
        assert np.allclose(est.band_hi - est.band_lo, 0.0, atol=1e-12)
        assert np.max(np.abs(est.roc - grid)) < 1e-12

    def test_level_domain(self):
        with pytest.raises(InvalidInputError):
            self._toy().summarize(1.0)


# ---------------------------------------------------------------------------
# small samples on a coarse lattice, so ties are common
lattice_sample = st.lists(st.integers(-40, 40).map(lambda v: v / 8.0), min_size=4, max_size=25)


# batched posterior post-processing against per-draw references

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def scalar_youden(cdf_d, cdf_dbar, lo, hi, grid_size=1000, candidates=None):
    """The per-pair Youden search on Python floats: a full scan, then golden section."""
    pts = np.linspace(lo, hi, grid_size)
    if candidates is not None:
        extra = np.asarray(candidates, dtype=float)
        pts = np.unique(np.concatenate([pts, extra[(extra >= lo) & (extra <= hi)]]))
    gaps = np.asarray(cdf_dbar(pts), float) - np.asarray(cdf_d(pts), float)
    best = int(np.argmax(gaps))
    c_star, yi = float(pts[best]), float(gaps[best])

    def f(c):
        return float(np.ravel(cdf_dbar(c))[0]) - float(np.ravel(cdf_d(c))[0])

    a = float(pts[best - 1]) if best > 0 else lo
    b = float(pts[best + 1]) if best + 1 < pts.size else hi
    x1, x2 = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(100):
        if b - a <= 1e-13 * (1.0 + abs(a) + abs(b)):
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
    c_ref, yi_ref = (x1, f1) if f1 >= f2 else (x2, f2)
    if yi_ref > yi:
        c_star, yi = c_ref, yi_ref
    p_star = min(1.0, max(0.0, 1.0 - float(np.ravel(cdf_dbar(c_star))[0])))
    return yi, c_star, p_star


def stacked(draws, loc="means"):
    """Weights, ``loc`` field and scales of a list of draws, one row per draw."""
    w = np.stack([np.asarray(d.weights, dtype=float) for d in draws])
    mu = np.stack([np.asarray(getattr(d, loc), dtype=float) for d in draws])
    sg = np.sqrt(np.stack([np.asarray(d.variances, dtype=float) for d in draws]))
    return w, mu, sg


def cdf_from_arrays(w, mu, sg):
    """CDF of one mixture with weights, means and scales ``w, mu, sg``."""
    def cdf(c):
        vals = _mixture_cdf(w, mu, sg, np.atleast_1d(np.asarray(c, dtype=float)))
        return float(vals[0]) if np.ndim(c) == 0 else vals

    return cdf


def per_draw_youden(w_d, mu_d, sg_d, w_nd, mu_nd, sg_nd, lo, hi):
    """One ``youden_from_cdfs`` call per draw, over ``cdf_from_arrays``."""
    out = np.empty((3, w_d.shape[0]))
    for s in range(w_d.shape[0]):
        res = youden_from_cdfs(cdf_from_arrays(w_d[s], mu_d[s], sg_d[s]),
                               cdf_from_arrays(w_nd[s], mu_nd[s], sg_nd[s]),
                               lo, hi)
        out[:, s] = res.yi, res.c_star, res.p_star
    return out


def search_range(mu_d, sg_d, mu_nd, sg_nd):
    sg_max = max(float(sg_d.max()), float(sg_nd.max()))
    return (min(float(mu_d.min()), float(mu_nd.min())) - 4.0 * sg_max,
            max(float(mu_d.max()), float(mu_nd.max())) + 4.0 * sg_max)


def mixture_cdfs(w_d, mu_d, sg_d, w_nd, mu_nd, sg_nd):
    """The ``cdfs(x, rows)`` of ``_youden_search`` over unblocked component sums."""
    def cdfs(x, rows):
        return (_mixture_cdf(w_nd[rows], mu_nd[rows], sg_nd[rows], x),
                _mixture_cdf(w_d[rows], mu_d[rows], sg_d[rows], x))

    return cdfs


def batched_youden(w_d, mu_d, sg_d, w_nd, mu_nd, sg_nd, lo, hi, budget=64 * 64):
    """The batched search over unblocked component sums, ``budget`` (pair,
    point) evaluations per call: 64 draws per scan block by default."""
    return np.stack(_youden_search(mixture_cdfs(w_d, mu_d, sg_d, w_nd, mu_nd, sg_nd),
                                   np.linspace(lo, hi, 1000), lo, hi, w_d.shape[0], budget))


def all_bracket_golden_max(f, lo, hi, iters=100):
    """Golden-section search on every bracket at once, with ``f(x)`` taking
    one abscissa per bracket on every iteration until the last bracket
    has converged; each bracket runs the scalar recurrence elementwise."""
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


def full_scan_youden(cdfs, pts, lo, hi, n_pairs):
    """The batched search with every scan point of every pair evaluated:
    the first largest gap, then the same golden section and rules."""
    every = slice(None)
    f_dbar, f_d = cdfs(pts, every)
    gaps = f_dbar - f_d
    best = np.argmax(gaps, axis=1)
    yi = gaps[np.arange(n_pairs), best]

    def gap(x):
        f_dbar, f_d = cdfs(x[:, None], every)
        return (f_dbar - f_d)[:, 0]

    a = np.where(best > 0, pts[best - 1], lo)
    b = np.where(best + 1 < pts.size, pts[np.minimum(best + 1, pts.size - 1)], hi)
    c_ref, yi_ref = all_bracket_golden_max(gap, a, b)
    better = yi_ref > yi
    c_star = np.where(better, c_ref, pts[best])
    yi = np.where(better, yi_ref, yi)
    f_dbar, _ = cdfs(c_star[:, None], every)
    p_star = np.minimum(1.0, np.maximum(0.0, 1.0 - f_dbar[:, 0]))
    trivial = ~(yi > 0.0)  # the everyone-positive rule: gap 0 at lo, p* = 1
    return np.stack([np.where(trivial, 0.0, yi), np.where(trivial, lo, c_star),
                     np.where(trivial, 1.0, p_star)])


def oracle_youden(w_d, mu_d, sg_d, w_nd, mu_nd, sg_nd, lo, hi):
    """``full_scan_youden`` of mixture pairs on the 1000-point scan of ``[lo, hi]``."""
    return full_scan_youden(mixture_cdfs(w_d, mu_d, sg_d, w_nd, mu_nd, sg_nd),
                            np.linspace(lo, hi, 1000), lo, hi, w_d.shape[0])


def ensemble_youden(ens):
    return np.stack([ens.yis, ens.thresholds, ens.p_stars])


class TestBatchedYouden:
    @pytest.fixture(scope="class")
    def dpm_arrays(self):
        rng = np.random.default_rng(61)
        y_d, y_nd = rng.normal(1.0, 1.3, 300), rng.normal(0.0, 1.0, 300)
        draws_d = dpm_fit(y_d, DpmConfig(seed=SeedSpec(62, 0), burn_in=100, n_save=301))
        draws_nd = dpm_fit(y_nd, DpmConfig(seed=SeedSpec(62, 1), burn_in=100, n_save=301))
        return draws_d, draws_nd

    def test_dpm_roc_equals_per_draw_search_bitwise(self, dpm_arrays):
        draws_d, draws_nd = dpm_arrays
        arrays = (*stacked(draws_d), *stacked(draws_nd))
        lo, hi = search_range(arrays[1], arrays[2], arrays[4], arrays[5])
        got = ensemble_youden(dpm_roc(draws_d, draws_nd, youden=True))
        assert np.array_equal(got, per_draw_youden(*arrays, lo, hi))
        assert np.array_equal(got, oracle_youden(*arrays, lo, hi))

    def test_ddp_roc_equals_per_draw_search_bitwise(self):
        rng = np.random.default_rng(63)
        x_d, x_nd = rng.uniform(0, 1, 200), rng.uniform(0, 1, 200)
        y_d = 0.5 + 1.5 * x_d + rng.normal(0, 1, 200)
        y_nd = x_nd + rng.normal(0, 1, 200)
        design = lambda x: np.column_stack([np.ones(x.size), x])
        cfg = lambda stream: DpmConfig(seed=SeedSpec(64, stream), burn_in=100, n_save=300)
        draws_d = ddp_fit(RegressionSample(y_d, design(x_d)), cfg(0))
        draws_nd = ddp_fit(RegressionSample(y_nd, design(x_nd)), cfg(1))
        z = np.array([1.0, 0.7])
        w_d, coef_d, sg_d = stacked(draws_d, "coef")
        w_nd, coef_nd, sg_nd = stacked(draws_nd, "coef")
        mu_d, mu_nd = coef_d @ z, coef_nd @ z
        lo, hi = search_range(mu_d, sg_d, mu_nd, sg_nd)
        got = ensemble_youden(ddp_roc(draws_d, draws_nd, z, youden=True))
        arrays = (w_d, mu_d, sg_d, w_nd, mu_nd, sg_nd)
        assert np.array_equal(got, per_draw_youden(*arrays, lo, hi))
        assert np.array_equal(got, oracle_youden(*arrays, lo, hi))

    def test_reversed_groups_get_the_everyone_positive_rule_without_warning(self):
        # each diseased draw is its nondiseased draw shifted down by 2, so
        # every gap is negative and each draw gets the everyone-positive rule
        rng = np.random.default_rng(60)
        w = rng.dirichlet(np.ones(3), 70)
        mu = rng.uniform(-0.5, 0.5, (70, 3))
        var = rng.uniform(0.7, 1.4, (70, 3))
        draws_nd = [MixtureDraw(*row) for row in zip(w, mu, var)]
        draws_d = [MixtureDraw(*row) for row in zip(w, mu - 2.0, var)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ens = dpm_roc(draws_d, draws_nd, youden=True)
        assert caught == []
        arrays = (w, mu - 2.0, np.sqrt(var), w, mu, np.sqrt(var))
        lo, hi = search_range(arrays[1], arrays[2], arrays[4], arrays[5])
        assert np.all(ens.yis == 0.0) and np.all(ens.thresholds == lo)
        assert np.all(ens.p_stars == 1.0)
        assert np.array_equal(ensemble_youden(ens), per_draw_youden(*arrays, lo, hi))

    @pytest.mark.parametrize("n_draws", [1, 63, 64, 65, 129])
    def test_draw_counts_around_the_chunk(self, dpm_arrays, n_draws):
        draws_d, draws_nd = dpm_arrays
        arrays = (*stacked(draws_d[:n_draws]), *stacked(draws_nd[:n_draws]))
        lo, hi = search_range(arrays[1], arrays[2], arrays[4], arrays[5])
        got = ensemble_youden(dpm_roc(draws_d[:n_draws], draws_nd[:n_draws], youden=True))
        assert np.array_equal(got, per_draw_youden(*arrays, lo, hi))
        assert np.array_equal(got, oracle_youden(*arrays, lo, hi))

    def test_maximum_at_first_and_last_scan_point(self):
        # normal pairs whose gap peaks at the crossing (a + b) / 2: left of,
        # inside and right of the search interval [-1, 1]; identical pairs
        # tie everywhere and keep the first scan point
        a = np.array([-7.0, -0.4, 5.0, 0.3, 2.0])
        b = np.array([-5.0, 1.1, 7.0, 0.3, 4.0])
        one = np.ones((a.size, 1))
        arrays = (one, b[:, None], one, one, a[:, None], one)
        got = batched_youden(*arrays, -1.0, 1.0)
        want = per_draw_youden(*arrays, -1.0, 1.0)
        assert np.array_equal(got, want)
        assert np.array_equal(got, oracle_youden(*arrays, -1.0, 1.0))
        assert got[1, 0] == -1.0 and got[1, 3] == -1.0 and got[1, 4] == 1.0
        assert got[1, 2] == 1.0 or got[1, 2] > 0.999

    @pytest.mark.parametrize("truncation", [10, 50])
    def test_scan_blocks_give_the_64_draw_blocking_bitwise(self, truncation):
        # each (draw, point) sum over components is the same in any block
        rng = np.random.default_rng(79)
        cfg = lambda stream: DpmConfig(seed=SeedSpec(80, stream), truncation=truncation,
                                       burn_in=20, n_save=150)
        draws_d = dpm_fit(rng.normal(1.0, 1.2, 200), cfg(0))
        draws_nd = dpm_fit(rng.normal(0.0, 1.0, 200), cfg(1))
        arrays = (*draws_d._normals(), *draws_nd._normals())
        lo, hi = search_range(arrays[1], arrays[2], arrays[4], arrays[5])
        got = ensemble_youden(dpm_roc(draws_d, draws_nd, youden=True))
        assert np.array_equal(got, batched_youden(*arrays, lo, hi, budget=64 * 64))

    def test_scan_memory_at_truncation_50_with_two_workers(self, force_workers):
        # one 64-draw scan block held three 64 x 1000 x 50 buffers: the
        # unblocked scan peaked at 79.6 MB here
        rng = np.random.default_rng(85)
        cfg = lambda stream: DpmConfig(seed=SeedSpec(86, stream), truncation=50,
                                       burn_in=5, n_save=256)
        draws_d = dpm_fit(rng.normal(1.0, 1.2, 300), cfg(0))
        draws_nd = dpm_fit(rng.normal(0.0, 1.0, 300), cfg(1))
        force_workers(2)
        assert traced_peak(lambda: dpm_roc(draws_d, draws_nd, youden=True)) < 40e6

    def test_scalar_path_matches_the_float_recurrence(self, dpm_arrays):
        draws_d, draws_nd = dpm_arrays
        for s in range(0, 300, 37):
            cdf_d, cdf_nd = mixture_cdf_callable(draws_d[s]), mixture_cdf_callable(draws_nd[s])
            res = youden_from_cdfs(cdf_d, cdf_nd, -6.0, 7.0)
            assert (res.yi, res.c_star, res.p_star) == scalar_youden(cdf_d, cdf_nd, -6.0, 7.0)
        ecdf = lambda v: (lambda c: np.searchsorted(np.sort(v), c, side="right") / len(v))
        rng = np.random.default_rng(65)
        d, nd = rng.normal(1, 1, 40), rng.normal(0, 1, 40)
        res = youden_from_cdfs(ecdf(d), ecdf(nd), -4.0, 5.0)
        assert (res.yi, res.c_star, res.p_star) == scalar_youden(ecdf(d), ecdf(nd), -4.0, 5.0)


def youden_mixtures(seed, S, L, kind):
    """Paired (S, L) mixture arrays: random, multimodal or identical pairs."""
    rng = np.random.default_rng(seed)
    w_nd = rng.dirichlet(np.ones(L), S)
    if kind == "multimodal":
        # clusters 6 apart with the diseased one shifted by about 1 in
        # each: the gap has one peak of similar height per cluster
        mu_nd = 6.0 * rng.integers(0, 3, (S, L)) + rng.normal(0.0, 0.05, (S, L))
        sg_nd = rng.uniform(0.5, 0.7, (S, L))
        arrays = (w_nd, mu_nd + rng.normal(1.0, 0.02, (S, L)), sg_nd, w_nd, mu_nd, sg_nd)
    else:
        mu_nd = rng.normal(0.0, 2.0, (S, L))
        sg_nd = np.exp(rng.uniform(-2.0, 1.0, (S, L)))
        if kind == "identical":
            arrays = (w_nd, mu_nd, sg_nd, w_nd, mu_nd, sg_nd)
        else:
            arrays = (rng.dirichlet(np.ones(L), S), rng.normal(1.0, 2.0, (S, L)),
                      np.exp(rng.uniform(-2.0, 1.0, (S, L))), w_nd, mu_nd, sg_nd)
    return arrays


def ecdf_callable(v):
    v = np.sort(np.asarray(v, dtype=float))
    return lambda c: np.searchsorted(v, c, side="right") / v.size


class TestCoarseToFineYouden:
    """The coarse-to-fine scan picks the full scan's point, bit for bit."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from([1, 10, 50]),
           st.sampled_from(["random", "multimodal", "identical"]), st.integers(1, 4096))
    def test_equals_the_full_scan(self, seed, S, L, kind, budget):
        arrays = youden_mixtures(seed, S, L, kind)
        lo, hi = search_range(arrays[1], arrays[2], arrays[4], arrays[5])
        got = batched_youden(*arrays, lo, hi, budget)
        assert np.array_equal(got, oracle_youden(*arrays, lo, hi))
        if kind == "identical":  # every gap is 0: the first scan point
            assert np.all(got[0] == 0.0) and np.all(got[1] == lo)

    @given(lattice_sample, lattice_sample, st.integers(2, 1200))
    def test_ecdfs_with_candidates_and_ties(self, d, nd, grid_size):
        cdf_d, cdf_nd = ecdf_callable(d), ecdf_callable(nd)
        lo, hi = min(d + nd) - 1.0, max(d + nd) + 1.0
        res = youden_from_cdfs(cdf_d, cdf_nd, lo, hi, candidates=d + nd, grid_size=grid_size)
        want = scalar_youden(cdf_d, cdf_nd, lo, hi, grid_size, candidates=d + nd)
        assert (res.yi, res.c_star, res.p_star) == want

    def test_a_decreasing_cdf_raises(self):
        with pytest.raises(InvalidInputError, match="decreases"):
            youden_from_cdfs(lambda c: ndtr(-np.asarray(c)), ndtr, -5.0, 5.0)
        with pytest.raises(InvalidInputError, match="decreases"):
            youden_from_cdfs(ndtr, lambda c: 1.0 - ndtr(np.asarray(c) - 1.0), -5.0, 5.0)

    def test_a_fall_between_two_coarse_points_is_not_detected(self):
        # the documented limit of the check: only every 16th scan point is
        # tested, so a dip of F_d at scan point 8 (inside an interval the
        # bound rules out) is not seen, and the gap of 0.5 it makes there,
        # which the full scan finds, is not found
        pts = np.linspace(-5.0, 5.0, 1000)
        cdf_d = lambda c: np.where(np.asarray(c) == pts[8], -0.5, ndtr(np.asarray(c) - 1.0))
        res = youden_from_cdfs(cdf_d, ndtr, -5.0, 5.0)
        assert abs(res.c_star - 0.5) < 1e-5 and res.yi < 0.4
        assert scalar_youden(cdf_d, ndtr, -5.0, 5.0)[0] > 0.5

    def test_mixture_cdf_callable_gives_the_full_scan(self):
        # 130 components: more than a 1000-point call's component block
        # would hold if blocks were sized by the number of points
        rng = np.random.default_rng(91)
        draw = lambda shift: MixtureDraw(weights=rng.dirichlet(np.ones(130)),
                                         means=rng.normal(shift, 2.0, 130),
                                         variances=np.exp(rng.uniform(-2.0, 1.0, 130)))
        cdf_d, cdf_nd = mixture_cdf_callable(draw(1.0)), mixture_cdf_callable(draw(0.0))
        ys = np.linspace(-8.0, 9.0, 1000)
        assert np.array_equal(cdf_d(ys), [cdf_d(y) for y in ys[::-1]][::-1])
        res = youden_from_cdfs(cdf_d, cdf_nd, -8.0, 9.0)
        assert (res.yi, res.c_star, res.p_star) == scalar_youden(cdf_d, cdf_nd, -8.0, 9.0)

    def test_ddp_conditional_cdf_gives_the_full_scan(self):
        # 12 draws: more than numpy adds one by one in a pairwise sum, so a
        # mean over draws for one point would round differently
        rng = np.random.default_rng(92)
        draws = lambda shift: [DdpDraw(weights=rng.dirichlet(np.ones(10)),
                                       coef=np.c_[rng.normal(shift, 1.5, 10),
                                                  rng.normal(0.5, 0.3, 10)],
                                       variances=np.exp(rng.uniform(-1.5, 0.5, 10)))
                               for _ in range(12)]
        design = lambda x: np.concatenate([[1.0], x])
        cdf_d, cdf_nd = ddp_conditional_cdf(draws(1.0), design), ddp_conditional_cdf(draws(0.0), design)
        ys = np.linspace(-6.0, 7.0, 1000)
        assert np.array_equal(cdf_d(ys, [0.3]), [cdf_d(y, [0.3]) for y in ys])
        f_d, f_nd = lambda c: cdf_d(c, [0.3]), lambda c: cdf_nd(c, [0.3])
        res = youden_from_cdfs(f_d, f_nd, -6.0, 7.0)
        assert (res.yi, res.c_star, res.p_star) == scalar_youden(f_d, f_nd, -6.0, 7.0)

    def test_rounding_steps_within_the_slack_are_accepted(self):
        # a CDF that steps back by 1e-12 between scan points still passes
        wobble = lambda c: ndtr(np.asarray(c)) - 1e-12 * (np.floor(np.asarray(c) * 7.0) % 2)
        res = youden_from_cdfs(lambda c: ndtr(np.asarray(c) - 1.0), wobble, -6.0, 6.0)
        assert abs(res.c_star - 0.5) < 1e-5

    def test_fine_stage_memory_when_every_interval_survives(self, force_workers):
        # identical pairs: every gap is 0, so every interval survives.  All
        # 20 draws of one block at all 936 fine points would be three 7.5 MB
        # buffers
        force_workers(2)
        arrays = youden_mixtures(87, 256, 50, "identical")
        lo, hi = search_range(arrays[1], arrays[2], arrays[4], arrays[5])
        cdfs = mixture_cdfs(*arrays)
        pts = np.linspace(lo, hi, 1000)
        budget = pooled_roc._BLOCK // 50
        peak = traced_peak(lambda: _youden_search(cdfs, pts, lo, hi, 256, budget))
        assert peak < 6_000_000


class TestLiveBracketGolden:
    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_live_brackets_match_the_all_bracket_recurrence(self, seed, n):
        # gaps of normal CDF pairs on brackets 1e-15 to 10 wide, so some
        # start converged and the others need different iteration counts
        rng = np.random.default_rng(seed)
        m1, m2 = rng.normal(0.0, 2.0, (2, n))
        s1, s2 = np.exp(rng.uniform(-2.0, 1.0, (2, n)))
        width = 10.0 ** rng.uniform(-15.0, 1.0, n)
        lo = rng.normal(0.0, 3.0, n)
        hi = lo + width

        def gap(x, rows):
            return ndtr((x - m1[rows]) / s1[rows]) - ndtr((x - m2[rows]) / s2[rows])

        every, live, alone = [], [], []
        want = all_bracket_golden_max(lambda x: every.append(x.size) or gap(x, slice(None)),
                                      lo, hi)
        got = _golden_max(lambda x, rows: live.append(rows.size) or gap(x, rows), lo, hi)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        # each bracket is evaluated as often as when it runs alone
        for s in range(n):
            rows = slice(s, s + 1)
            all_bracket_golden_max(lambda x: alone.append(1) or gap(x, rows), lo[rows], hi[rows])
        assert sum(live) == len(alone) <= sum(every)


def global_bracket_newton(w, mu, sigma, targets):
    """CDF inversion with every root started at the middle of one global bracket."""
    lo = float((mu - 10.0 * sigma).min())
    hi = float((mu + 10.0 * sigma).max())
    qmin, qmax = float(targets.min()), float(targets.max())
    for _ in range(60):
        if _mixture_cdf(w, mu, sigma, np.array([lo])).min() <= qmin:
            break
        lo -= hi - lo
    for _ in range(60):
        if _mixture_cdf(w, mu, sigma, np.array([hi])).max() >= qmax:
            break
        hi += hi - lo
    shape = (w.shape[0], targets.size)
    lo_a, hi_a = np.full(shape, lo), np.full(shape, hi)
    tgt = np.broadcast_to(targets, shape)
    x = np.full(shape, 0.5 * (lo + hi))
    floor = np.finfo(float).eps * (hi - lo)
    step_last = step_before = np.full(shape, hi - lo)
    done = np.zeros(shape, dtype=bool)
    for _ in range(120):
        f, dens, _ = _mixture_cdf(w, mu, sigma, x, density=True)
        below = f < tgt
        lo_a, hi_a = np.where(below, x, lo_a), np.where(below, hi_a, x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            newton = x - (f - tgt) / dens
        use_newton = ((newton >= lo_a) & (newton <= hi_a)
                      & (np.abs(newton - x) <= 0.5 * step_before))
        x_new = np.where(use_newton, newton, 0.5 * (lo_a + hi_a))
        step = np.abs(x_new - x)
        x = np.where(done, x, x_new)
        done |= step <= 2.0 * np.spacing(np.abs(x)) + floor
        if done.all():
            break
        step_last, step_before = step, step_last
    return x


def check_inversion(w, mu, sigma, targets):
    w, mu, sigma = (np.atleast_2d(np.asarray(v, float)) for v in (w, mu, sigma))
    roots = _invert_mixture_cdf(w, mu, sigma, targets)
    oracle = global_bracket_newton(w, mu, sigma, targets)
    # a root is fixed only to within the CDF's rounding over its slope: on a
    # plateau between components far apart any point of the plateau solves
    _, dens, _ = _mixture_cdf(w, mu, sigma, oracle, density=True)
    with np.errstate(divide="ignore"):
        spread = 8.0 * np.finfo(float).eps / dens
    assert np.all(np.abs(roots - oracle) <= 1e-12 * (1.0 + np.abs(oracle)) + spread)
    assert np.abs(_mixture_cdf(w, mu, sigma, roots) - targets).max() <= 1e-10


TARGETS = 1.0 - default_prob_grid()[1:-1]


class TestTableStartedInversion:
    def test_components_far_apart(self):
        check_inversion([[0.3, 0.3, 0.4]], [[-40.0, 0.0, 55.0]], [[1.0, 0.5, 2.0]], TARGETS)

    def test_tiny_sigma_next_to_unit_sigma(self):
        check_inversion([[0.5, 0.5]], [[0.0, 0.3]], [[1e-6, 1.0]], TARGETS)

    def test_component_a_million_sigmas_away(self):
        check_inversion([[0.6, 0.4]], [[0.0, 1e6]], [[1.0, 1.0]], TARGETS)
        check_inversion([[0.6, 0.4]], [[0.0, 1.0]], [[1e-6, 1e-6]], TARGETS)

    def test_targets_in_the_far_tails_widen_the_table(self):
        # F(-10) is about 4e-24 here, so 1e-30 lies left of the first table
        # and only a widened table brackets it; the absolute residual cannot
        # tell, the relative one can
        q = np.array([1e-30, 1e-3, 0.5, 1.0 - 1e-15])
        w, mu, sigma = np.array([[0.5, 0.5]]), np.array([[0.0, 2.0]]), np.array([[1.0, 0.5]])
        check_inversion(w, mu, sigma, q)
        roots = _invert_mixture_cdf(w, mu, sigma, q)
        assert np.allclose(_mixture_cdf(w, mu, sigma, roots), q, rtol=1e-9, atol=0.0)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 70))
    def test_random_mixtures_match_the_global_bracket(self, seed, n_comp, n_draws):
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(n_comp), n_draws)
        mu = rng.normal(0.0, 5.0, (n_draws, n_comp))
        sigma = np.exp(rng.uniform(-3.0, 2.0, (n_draws, n_comp)))
        check_inversion(w, mu, sigma, TARGETS)

    def test_dpm_draws_match_the_global_bracket(self):
        rng = np.random.default_rng(66)
        draws = dpm_fit(rng.normal(0.0, 1.0, 200),
                        DpmConfig(seed=SeedSpec(67, 0), burn_in=50, n_save=150))
        check_inversion(*stacked(draws), TARGETS)

    def test_kernel_inversion_memory_is_linear(self):
        rng = np.random.default_rng(68)
        n = 100_000
        d, nd = rng.normal(1.0, 1.0, n), rng.normal(0.0, 1.0, n)
        h_d, h_nd = silverman_bandwidth(d), silverman_bandwidth(nd)
        args = (np.full((1, n), 1.0 / n), d[None, :], np.full((1, n), h_d),
                np.full((1, n), 1.0 / n), nd[None, :], np.full((1, n), h_nd),
                default_prob_grid())
        tracemalloc.start()
        try:
            _roc_from_mixtures(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6


def density_as_before(w, mu, sigma, x):
    """The CDF and density of ``_mixture_cdf(density=True)`` with the
    density terms evaluated in place in z: where the terms live must not
    move a bit."""
    z = (x[..., :, None] - mu[..., None, :]) / sigma[..., None, :]
    cdf = (ndtr(z) * w[..., None, :]).sum(axis=-1)
    np.multiply(z, z, out=z)
    z *= -0.5
    np.exp(z, out=z)
    z *= (w / (sigma * math.sqrt(2.0 * math.pi)))[..., None, :]
    return cdf, z.sum(axis=-1)


class TestHalleyInversion:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 8), st.integers(1, 30))
    def test_density_bits_unchanged_and_slope_is_the_analytic_sum(self, seed, n_comp, rows,
                                                                   points):
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(n_comp), rows)
        mu = rng.normal(0.0, 2.0, (rows, n_comp))
        sigma = np.exp(rng.uniform(-3.0, 1.0, (rows, n_comp)))
        x = rng.normal(0.0, 3.0, (rows, points))
        cdf, dens, slope = _mixture_cdf(w, mu, sigma, x, density=True)
        want_cdf, want_dens = density_as_before(w, mu, sigma, x)
        assert np.array_equal(cdf, want_cdf) and np.array_equal(dens, want_dens)
        assert np.array_equal(cdf, _mixture_cdf(w, mu, sigma, x))
        # f'(x) = -sum_l w_l phi(z_l) z_l / sigma_l^2, rounded another way;
        # terms below the smallest normal double keep no relative precision
        z = (x[:, :, None] - mu[:, None, :]) / sigma[:, None, :]
        terms = w[:, None, :] * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * z
        terms /= (sigma * sigma)[:, None, :]
        info = np.finfo(float)
        bound = (n_comp + 8) * info.eps * np.abs(terms).sum(axis=-1) + info.tiny
        assert np.all(np.abs(slope + terms.sum(axis=-1)) <= bound)

    def test_cli_default_dpm_draws_take_at_most_2_5_evaluations_per_root(self, monkeypatch):
        # 1,000 nondiseased values, burn-in 500, 1,000 draws of 10
        # components: the CLI's defaults.  Only the passes count; the
        # starting tables are a fixed 64 points per draw
        rng = np.random.default_rng(94)
        fit = dpm_fit(rng.normal(0.0, 1.0, 1000), DpmConfig(seed=SeedSpec(95, 2)))
        w, mu, sigma = fit._normals()
        evaluated = []
        real = pooled_roc._mixture_sums

        def counted(w, mu, sigma, x, density=False, rows=None, work=None):
            if density:
                evaluated.append((w.shape[0] if rows is None else rows.size) * x.shape[-1])
            return real(w, mu, sigma, x, density, rows, work)

        monkeypatch.setattr(pooled_roc, "_mixture_sums", counted)
        roots = _invert_mixture_cdf(w, mu, sigma, TARGETS)
        assert roots.shape == (1000, TARGETS.size)
        assert sum(evaluated) / roots.size <= 2.5


class TestOneEvaluator:
    """``_mixture_sums``, which blocks every sum of normal CDFs, against one
    unblocked ``_mixture_cdf`` call."""

    @pytest.mark.parametrize("workers", [1, 2])
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_blocks_give_the_unblocked_sums(self, force_workers, workers, data):
        force_workers(workers)
        n_comp = data.draw(st.sampled_from([1, 10, 50, 7_000, 70_000]), "L")
        rows = data.draw(st.integers(1, 40), "R")
        # at most about 10^6 terms (or one point per row), so L = 70,000 stays fast
        points = data.draw(st.integers(1, max(1, min(300, 1_000_000 // (rows * n_comp)))), "K")
        shared = data.draw(st.booleans(), "shared points")
        density = data.draw(st.booleans(), "density")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
        w = rng.dirichlet(np.ones(n_comp), rows)
        mu = rng.normal(0.0, 2.0, (rows, n_comp))
        sigma = np.exp(rng.uniform(-3.0, 1.0, (rows, n_comp)))
        x = rng.normal(0.0, 3.0, points if shared else (rows, points))
        got = _mixture_sums(w, mu, sigma, x, density)
        want = _mixture_cdf(w, mu, sigma, x, density)
        if not density:
            got, want = (got,), (want,)
        for a, b in zip(got, want):
            assert a.shape == (rows, points) and np.array_equal(a, b)


def brute_kernel_auc(d, nd, h_d, h_nd):
    d, nd = np.asarray(d, float), np.asarray(nd, float)
    return float(ndtr((d[:, None] - nd[None, :]) / math.hypot(h_d, h_nd)).mean())


class TestWindowedKernelAuc:
    @pytest.mark.parametrize("h", [1e-12, 1e-3, 0.05, 0.3, 1e3])
    def test_matches_the_pair_mean(self, h):
        rng = np.random.default_rng(69)
        d = np.round(rng.normal(0.8, 1.0, 1300), 1)  # ties; 1300 = 2 * 512 + 276
        nd = np.round(rng.normal(0.0, 1.0, 1100), 1)
        assert abs(kernel_auc(d, nd, h, h) - brute_kernel_auc(d, nd, h, h)) <= 1e-15

    def test_every_pair_saturated(self):
        d, nd = np.arange(600.0) + 1000.0, np.arange(700.0)
        assert kernel_auc(d, nd, 1e-3, 1e-3) == 1.0
        assert kernel_auc(nd, d, 1e-3, 1e-3) == 0.0

    @given(st.lists(st.integers(-20, 20).map(float), min_size=1, max_size=60),
           st.lists(st.integers(-20, 20).map(float), min_size=1, max_size=60),
           st.sampled_from([1e-9, 0.01, 0.2, 1.0, 50.0]),
           st.sampled_from([1e-9, 0.1, 3.0]))
    def test_property_matches_the_pair_mean(self, d, nd, h_d, h_nd):
        assert abs(kernel_auc(d, nd, h_d, h_nd) - brute_kernel_auc(d, nd, h_d, h_nd)) <= 1e-15

    def test_same_value_when_the_samples_are_permuted(self):
        rng = np.random.default_rng(70)
        d, nd = rng.normal(1.0, 1.0, 900), rng.normal(0.0, 1.0, 800)
        assert kernel_auc(d, nd, 0.2, 0.3) == kernel_auc(d[::-1], rng.permutation(nd), 0.2, 0.3)


def exact_kernel_auc(d, nd, h_d, h_nd):
    """The pair mean with each Phi rounded once and the pair sum exact."""
    z = (np.asarray(d, float)[:, None] - np.asarray(nd, float)[None, :]) / math.hypot(h_d, h_nd)
    return math.fsum(ndtr(z).ravel().tolist()) / z.size


def kernel_sample(rng, kind, n, shift):
    if kind == "normal":
        return rng.normal(shift, 1.0, n)
    if kind == "t2":
        return rng.standard_t(2, n) + shift
    if kind == "exponential":
        return rng.exponential(1.0 + shift, n)
    return np.round(rng.normal(shift, 1.0, n), 1)  # ties


class TestTaylorKernelAuc:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 300),
           st.sampled_from(["normal", "t2", "exponential", "tied"]),
           st.floats(-9.0, 3.0), st.floats(-1.0, 1.0))
    def test_within_two_ulps_of_the_exact_pair_sum(self, seed, n_d, n_nd, kind, log_h, tilt):
        # the skipped tail is below 5.3e-17 per pair and the expansion is
        # off by at most 3e-19, so ulps measure the error where the AUC is
        # at least 1/2: the groups go in the order that gives that
        rng = np.random.default_rng(seed)
        d, nd = kernel_sample(rng, kind, n_d, 0.5), kernel_sample(rng, kind, n_nd, 0.0)
        h_d, h_nd = 10.0 ** log_h, 10.0 ** (log_h + tilt)
        want = exact_kernel_auc(d, nd, h_d, h_nd)
        if want < 0.5:
            d, nd, h_d, h_nd = nd, d, h_nd, h_d
            want = exact_kernel_auc(d, nd, h_d, h_nd)
        assert abs(kernel_auc(d, nd, h_d, h_nd) - want) <= 2.0 * np.spacing(want)

    def test_blocks_are_expanded_and_stay_exact(self):
        # 2,000 values in a range of 2 scales: every pair is in a Taylor
        # block, and the samples have no ties
        rng = np.random.default_rng(71)
        d, nd = rng.uniform(0.0, 1.0, 2000), rng.uniform(-0.2, 0.8, 1500)
        want = exact_kernel_auc(d, nd, 0.4, 0.3)
        assert abs(kernel_auc(d, nd, 0.4, 0.3) - want) <= 2.0 * np.spacing(want)


class TestWorkerCount:
    """One worker or two: every output is the same, bit for bit."""

    @pytest.fixture(scope="class")
    def fits(self):
        rng = np.random.default_rng(81)
        cfg = lambda stream: DpmConfig(seed=SeedSpec(82, stream), burn_in=30, n_save=100)
        design = lambda x: np.column_stack([np.ones(x.size), x])
        x_d, x_nd = rng.uniform(0, 1, 150), rng.uniform(0, 1, 150)
        dpm = (dpm_fit(rng.normal(1.0, 1.2, 150), cfg(0)),
               dpm_fit(rng.normal(0.0, 1.0, 150), cfg(1)))
        ddp = (ddp_fit(RegressionSample(0.5 + x_d + rng.normal(0, 1, 150), design(x_d)), cfg(2)),
               ddp_fit(RegressionSample(x_nd + rng.normal(0, 1, 150), design(x_nd)), cfg(3)))
        return dpm, ddp

    @staticmethod
    def both(force_workers, fn):
        # fn() with one worker, then with two
        force_workers(1)
        one = fn()
        force_workers(2)
        return one, fn()

    def test_mixture_ensembles(self, force_workers, fits):
        (dpm_d, dpm_nd), (ddp_d, ddp_nd) = fits
        assert_same_posterior(*self.both(force_workers,
                                         lambda: dpm_roc(dpm_d, dpm_nd, youden=True)))
        z = np.array([1.0, 0.4])
        assert_same_posterior(*self.both(force_workers,
                                         lambda: ddp_roc(ddp_d, ddp_nd, z, youden=True)))

    def test_kernel_estimators(self, force_workers):
        rng = np.random.default_rng(83)
        d, nd = rng.normal(1.0, 1.0, 3000), rng.normal(0.0, 1.0, 2500)
        one, two = self.both(force_workers, lambda: kernel_roc(d, nd))
        assert np.array_equal(one.roc, two.roc) and one.auc == two.auc
        one, two = self.both(force_workers, lambda: kernel_auc(d, nd, 0.05, 0.5))
        assert one == two
        points = np.linspace(-4.0, 5.0, 2000)
        one, two = self.both(force_workers, lambda: kernel_cdf(nd, 0.2, points))
        assert np.array_equal(one, two)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_inversion_error_names_the_first_failing_draw(self, force_workers, workers):
        # draws 40 and 75 (blocks 1 and 2) are steps: two components of scale
        # 1e-150, so no root reaches the 1e-10 residual.  Their scale cubed
        # is 0, and the step bound that divides by it warns of nothing
        force_workers(workers)
        w = np.full((100, 2), 0.5)
        mu = np.tile([0.0, 1.0], (100, 1))
        sigma = np.ones((100, 2))
        sigma[[40, 75]] = 1e-150
        with pytest.raises(NumericError, match=r"\(draw 40\)"):
            _invert_mixture_cdf(w, mu, sigma, TARGETS)


def bb_roc_argsort_oracle(d, nd, n_draws, grid, seed, youden):
    """``bb_roc``'s per-draw loop as it was before the sort-free order:
    a stable argsort of the placement values in every draw."""
    nd_order, d_order = np.argsort(nd, kind="stable"), np.argsort(d, kind="stable")
    nd_sorted, d_sorted = nd[nd_order], d[d_order]
    pos = np.searchsorted(nd_sorted, d_sorted, side="left")
    cand = np.unique(np.concatenate([[min(d.min(), nd.min()) - 1.0], d, nd]))
    cand_nd = np.searchsorted(nd_sorted, cand, side="right")
    cand_d = np.searchsorted(d_sorted, cand, side="right")
    curves, aucs, yis, thresholds, p_stars = (np.empty((n_draws, grid.size)),
                                              *np.empty((4, n_draws)))
    for s in range(n_draws):
        rng = seed.rng(s)
        q1_sorted = pooled_roc.dirichlet_uniform(nd.size, rng)[nd_order]
        q2_sorted = pooled_roc.dirichlet_uniform(d.size, rng)[d_order]
        tail = np.concatenate([np.cumsum(q1_sorted[::-1])[::-1], [0.0]])
        u = np.minimum(tail[pos], 1.0)
        order_u = np.argsort(u, kind="stable")
        u_sorted = u[order_u]
        cum = np.concatenate([[0.0], np.cumsum(q2_sorted[order_u])])
        curves[s] = cum[np.searchsorted(u_sorted, grid, side="right")]
        aucs[s] = 1.0 - float(u @ q2_sorted)
        f_nd = np.concatenate([[0.0], np.cumsum(q1_sorted)])[cand_nd]
        f_d = np.concatenate([[0.0], np.cumsum(q2_sorted)])[cand_d]
        gap = f_nd * f_d[-1] - f_d * f_nd[-1]
        k = int(np.argmax(gap))
        yis[s] = gap[k] / (f_d[-1] * f_nd[-1])
        thresholds[s], p_stars[s] = cand[k], (f_nd[-1] - f_nd[k]) / f_nd[-1]
    curves = np.clip(curves, 0.0, 1.0)
    curves[:, grid == 1.0] = 1.0
    if not youden:
        yis = thresholds = p_stars = None
    return PosteriorEnsemble(grid=grid, curves=curves, aucs=np.clip(aucs, 0.0, 1.0),
                             yis=yis, thresholds=thresholds, p_stars=p_stars)


class SpanFault(Exception):
    pass


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestPosteriorWorkAfterTheFit:
    """Work buffers, forked parts and the sort-free bootstrap order give
    the same answers, bit for bit, at any worker count."""

    @pytest.fixture(scope="class")
    def fits(self):
        rng = np.random.default_rng(91)
        cfg = lambda stream: DpmConfig(seed=SeedSpec(92, stream), burn_in=30, n_save=100)
        return (dpm_fit(rng.normal(1.0, 1.2, 150), cfg(0)),
                dpm_fit(rng.normal(0.0, 1.0, 150), cfg(1)))

    @pytest.fixture(scope="class")
    def ensembles(self, fits):
        # dpm_roc and ddp_roc of the first S draws (81 unless given): at 81
        # the two spans (40 and 41 draws) differ in length, and each takes
        # more than one block of sums
        rng = np.random.default_rng(99)
        cfg = lambda stream: DpmConfig(seed=SeedSpec(92, stream), burn_in=30, n_save=100)
        design = lambda x: np.column_stack([np.ones(x.size), x])
        x_d, x_nd = rng.uniform(0, 1, 150), rng.uniform(0, 1, 150)
        ddp = (ddp_fit(RegressionSample(0.5 + x_d + rng.normal(0, 1, 150), design(x_d)), cfg(2)),
               ddp_fit(RegressionSample(x_nd + rng.normal(0, 1, 150), design(x_nd)), cfg(3)))
        return {"dpm_roc": lambda youden, S=81: dpm_roc(fits[0][:S], fits[1][:S], youden=youden),
                "ddp_roc": lambda youden, S=81: ddp_roc(ddp[0][:S], ddp[1][:S],
                                                        np.array([1.0, 0.6]), youden=youden)}

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_roc_from_mixtures_at_one_and_two_workers(self, force_workers, fits):
        args = (*fits[0]._normals(), *fits[1]._normals(), default_prob_grid())
        one, two = TestWorkerCount.both(force_workers, lambda: _roc_from_mixtures(*args))
        assert np.array_equal(one, two)

    def test_inversion_makes_no_active_by_components_copy(self, force_workers):
        # S = 1,000 draws of L = 50 components: one (active, L) float array
        # of a full draw chunk is 32 x 199 x 50 x 8 bytes, about 2.5 MB, and
        # a pass that copied w, mu and sigma would hold three of them (the
        # peak was 12.4 MB so).  The work buffers are at most six of _BLOCK
        # elements, about 3.1 MB, and the roots are held once (each chunk
        # writes its rows of one (S, K) array); less than one copy is left
        # above that
        force_workers(1)
        rng = np.random.default_rng(93)
        S, L = 1000, 50
        w = rng.dirichlet(np.ones(L), S)
        mu, sigma = rng.normal(0.0, 2.0, (S, L)), np.exp(rng.uniform(-2.0, 1.0, (S, L)))
        copy = pooled_roc._DRAW_CHUNK * TARGETS.size * L * 8
        roots = S * TARGETS.size * 8
        peak = traced_peak(lambda: _invert_mixture_cdf(w, mu, sigma, TARGETS))
        assert peak < 6 * pooled_roc._BLOCK * 8 + roots + copy

    @given(st.lists(st.sampled_from([0.0, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.7]), min_size=1,
                    max_size=40),
           st.lists(st.integers(0, 40), min_size=1, max_size=60))
    def test_sort_free_order_is_the_stable_argsort(self, weights, positions):
        # as in bb_roc: suffix sums of nonnegative weights at nondecreasing
        # positions, clipped at 1 (the weights may sum above 1 here, so
        # the clip makes ties too)
        q = np.array(weights)
        tail = np.concatenate([np.cumsum(q[::-1])[::-1], [0.0]])
        pos = np.sort(np.minimum(positions, q.size))
        u = np.minimum(tail[pos], 1.0)
        assert np.all(np.diff(u) <= 0.0)
        got = pooled_roc._stable_order_of_nonincreasing(u)
        assert np.array_equal(got, np.argsort(u, kind="stable"))

    @pytest.mark.parametrize("youden", [False, True])
    @pytest.mark.parametrize("floor", [0, 10**12])
    def test_bb_roc_equals_the_argsort_loop(self, force_workers, monkeypatch, forks, youden,
                                            floor):
        # ties in the data and at the clip; forked parts and one process
        force_workers(2)
        monkeypatch.setattr(pooled_roc, "_FORK_BB", floor)
        rng = np.random.default_rng(94)
        d, nd = np.round(rng.normal(1.0, 1.0, 300), 1), np.round(rng.normal(0.0, 1.0, 250), 1)
        grid = default_prob_grid()
        got = bb_roc(d, nd, 41, grid, seed=SeedSpec(95, 0), youden=youden)
        want = bb_roc_argsort_oracle(d, nd, 41, grid, SeedSpec(95, 0), youden)
        assert_same_posterior(got, want)
        assert len(forks) == (1 if floor == 0 else 0)

    @staticmethod
    def forked_and_serial(force_workers, monkeypatch, forks, ensemble, youden):
        """``ensemble(youden)`` serial, in forked parts at two workers and at
        one, bit for bit; returns the layouts its serial passes took."""
        force_workers(2)
        monkeypatch.setattr(pooled_roc, "_FORK_ENSEMBLE", 10**12)
        layouts = set()
        real = pooled_roc._mixture_sums

        def recorded(w, mu, sigma, x, density=False, rows=None, work=None):
            if density:
                layouts.add("taken" if rows is not None else "row" if x.shape[0] == 1
                            else "rectangle")
            return real(w, mu, sigma, x, density, rows, work)

        monkeypatch.setattr(pooled_roc, "_mixture_sums", recorded)
        serial = ensemble(youden)
        monkeypatch.setattr(pooled_roc, "_mixture_sums", real)
        assert forks == []
        assert (serial.yis is not None) == youden
        monkeypatch.setattr(pooled_roc, "_FORK_ENSEMBLE", 0)
        assert_same_posterior(ensemble(youden), serial)
        assert len(forks) == 1
        force_workers(1)
        assert_same_posterior(ensemble(youden), serial)
        assert len(forks) == 1
        return layouts

    @pytest.mark.parametrize("youden", [False, True])
    @pytest.mark.parametrize("estimator", ["dpm_roc", "ddp_roc"])
    def test_ensemble_parts_forked_and_serial(self, force_workers, monkeypatch, forks, ensembles,
                                              estimator, youden):
        layouts = self.forked_and_serial(force_workers, monkeypatch, forks,
                                         ensembles[estimator], youden)
        assert layouts == {"rectangle", "taken"}

    @pytest.mark.parametrize("youden", [False, True])
    @pytest.mark.parametrize("estimator", ["dpm_roc", "ddp_roc"])
    def test_every_pass_layout_forked_and_serial(self, force_workers, monkeypatch, forks,
                                                 ensembles, estimator, youden):
        # 65 draws: the serial inversion's draw blocks are 32, 32 and 1 and
        # the forked spans 32 and 33, so the passes take every layout: the
        # (draws, targets) rectangle, a one-draw row of points and the
        # active roots' taken rows
        layouts = self.forked_and_serial(force_workers, monkeypatch, forks,
                                         lambda youden: ensembles[estimator](youden, 65), youden)
        assert layouts == {"rectangle", "row", "taken"}

    @pytest.mark.parametrize("estimator", ["dpm_roc", "ddp_roc"])
    def test_work_buffers_of_one_ensemble(self, force_workers, monkeypatch, ensembles,
                                          estimator):
        # S = 100 draws of L = 10, below the fork floor, so one process
        # runs the inversion (one list of work buffers) and the Youden
        # search (another).  A pass of the inversion holds at most two
        # block-sized buffers: the rectangle's z and terms, or the active
        # roots' z, terms and taken parameter rows when they are fewer
        # than two thirds of the block's roots.  The search holds z and
        # the taken rows.  Taking the three parameters into buffers of
        # their own held six buffers and four, about 5.8 and 3.4 blocks
        force_workers(2)
        lists = []  # (list, indices of the buffers made, elements touched per index)
        real = pooled_roc._scratch

        def counted(bufs, i, shape):
            if bufs is None:
                return real(bufs, i, shape)
            if not any(bufs is seen for seen, _, _ in lists):
                lists.append((bufs, set(), {}))
            _, made, touched = next(entry for entry in lists if entry[0] is bufs)
            before = bufs[i]
            out = real(bufs, i, shape)
            if bufs[i] is not before:
                made.add(i)
            touched[i] = max(touched.get(i, 0), math.prod(shape))
            return out

        monkeypatch.setattr(pooled_roc, "_scratch", counted)
        ensembles[estimator](True, 100)
        (_, inv_made, inv_touched), (_, search_made, search_touched) = lists
        block = pooled_roc._BLOCK
        assert inv_made == {0, 1, 2} and max(inv_touched.values()) <= block
        assert sum(inv_touched.values()) <= (2.0 + 2.0 / 3.0) * block
        assert search_made == {0, 2} and sum(search_touched.values()) <= 2 * block

    def test_a_fault_in_the_second_span_reaches_the_caller(self, force_workers, monkeypatch,
                                                          forks, ensembles):
        force_workers(2)
        monkeypatch.setattr(pooled_roc, "_FORK_ENSEMBLE", 0)
        real = pooled_roc._mixture_aucs

        def aucs(*args):
            if args[0].shape[0] == 41:  # the second of the spans 0-40 and 40-81
                raise SpanFault("in the span of 41 draws")
            return real(*args)

        monkeypatch.setattr(pooled_roc, "_mixture_aucs", aucs)
        with pytest.raises(SpanFault, match="in the span of 41 draws"):
            ensembles["dpm_roc"](True)
        assert len(forks) == 1

    def test_nothing_forks_below_the_floor(self, force_workers, monkeypatch, forks):
        force_workers(2)
        rng = np.random.default_rng(96)
        S = (pooled_roc._FORK_ENSEMBLE - 1) // 3  # draws of three components
        w, var = rng.dirichlet(np.ones(3), S), rng.uniform(0.5, 2.0, (S, 3))
        mu = rng.normal(0.0, 1.0, (S, 3))
        ens_d, ens_nd = MixtureEnsemble(w, mu + 1.0, var), MixtureEnsemble(w, mu, var)
        dpm_roc(ens_d, ens_nd, youden=True)
        n = 500
        bb_roc(rng.normal(1, 1, n), rng.normal(0, 1, n), (pooled_roc._FORK_BB - 1) // (2 * n),
               seed=SeedSpec(97, 0), youden=True)
        assert forks == []
        monkeypatch.setattr(pooled_roc, "_FORK_ENSEMBLE", 3 * S)
        dpm_roc(ens_d, ens_nd, youden=True)
        assert len(forks) == 1

    def test_reversed_draws_from_the_child_part_come_back(self, force_workers, monkeypatch, forks):
        # the second half of the draws is reversed, so only the forked
        # child's part finds no positive gap; its trivial rules come back
        force_workers(2)
        monkeypatch.setattr(pooled_roc, "_FORK_ENSEMBLE", 0)
        rng = np.random.default_rng(98)
        w = rng.dirichlet(np.ones(3), 40)
        mu = rng.uniform(-0.5, 0.5, (40, 3))
        var = rng.uniform(0.7, 1.4, (40, 3))
        shift = np.where(np.arange(40) < 20, 2.0, -2.0)[:, None]
        ens_d = MixtureEnsemble(w, mu + shift, var)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ens = dpm_roc(ens_d, MixtureEnsemble(w, mu, var), youden=True)
        assert len(forks) == 1
        assert np.all(ens.yis[:20] > 0.0) and np.all(ens.yis[20:] == 0.0)
        assert np.all(ens.p_stars[20:] == 1.0)
        assert caught == []


def assert_same_posterior(a, b):
    for name in ("curves", "aucs", "yis", "thresholds", "p_stars"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def assert_same_mixtures(a, b):
    for name in ("weights", "locations", "variances"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestMixtureEnsemble:
    @pytest.fixture(scope="class")
    def fits(self):
        rng = np.random.default_rng(72)
        cfg = lambda stream: DpmConfig(seed=SeedSpec(73, stream), burn_in=50, n_save=70)
        design = lambda x: np.column_stack([np.ones(x.size), x])
        x_d, x_nd = rng.uniform(0, 1, 120), rng.uniform(0, 1, 120)
        dpm = (dpm_fit(rng.normal(1.0, 1.2, 120), cfg(0)),
               dpm_fit(rng.normal(0.0, 1.0, 120), cfg(1)))
        ddp = (ddp_fit(RegressionSample(0.5 + x_d + rng.normal(0, 1, 120), design(x_d)), cfg(2)),
               ddp_fit(RegressionSample(x_nd + rng.normal(0, 1, 120), design(x_nd)), cfg(3)))
        return dpm, ddp

    def test_dpm_roc_equals_the_list_and_stacked_paths(self, fits):
        ens_d, ens_nd = fits[0]
        got = dpm_roc(ens_d, ens_nd, youden=True)
        assert_same_posterior(got, dpm_roc(list(ens_d), list(ens_nd), youden=True))
        # the list path as it stacked the draws before the ensemble existed
        listed = _ensemble_from_mixture_arrays(*stacked(list(ens_d)), *stacked(list(ens_nd)),
                                               None, True)
        assert_same_posterior(got, listed)

    def test_ddp_roc_equals_the_list_and_stacked_paths(self, fits):
        ens_d, ens_nd = fits[1]
        z = np.array([1.0, 0.6])
        got = ddp_roc(ens_d, ens_nd, z, youden=True)
        assert_same_posterior(got, ddp_roc(list(ens_d), list(ens_nd), z, youden=True))
        (w_d, coef_d, sg_d), (w_nd, coef_nd, sg_nd) = (stacked(list(e), "coef")
                                                       for e in (ens_d, ens_nd))
        listed = _ensemble_from_mixture_arrays(w_d, coef_d @ z, sg_d, w_nd, coef_nd @ z,
                                               sg_nd, None, True)
        assert_same_posterior(got, listed)

    def test_len_slicing_and_iteration(self, fits):
        ens = fits[0][0]
        assert len(ens) == 70
        part = ens[10:30:2]
        assert isinstance(part, MixtureEnsemble) and len(part) == 10
        assert np.array_equal(part.locations, ens.locations[10:30:2])
        draws = list(ens)
        assert len(draws) == 70 and all(isinstance(d, MixtureDraw) for d in draws)
        assert all(isinstance(d, DdpDraw) for d in fits[1][0][:3])
        with pytest.raises(IndexError):
            ens[70]

    def test_views_equal_the_array_rows(self, fits):
        for ens, loc in ((fits[0][0], "means"), (fits[1][0], "coef")):
            for s in (0, 33, -1):
                draw = ens[s]
                assert np.array_equal(draw.weights, ens.weights[s])
                assert np.array_equal(getattr(draw, loc), ens.locations[s])
                assert np.array_equal(draw.variances, ens.variances[s])
            assert_same_mixtures(MixtureEnsemble.from_draws(list(ens)), ens)
            assert MixtureEnsemble.from_draws(ens) is ens

    @pytest.mark.parametrize("broken", ["simplex", "variance", "nan", "shape"])
    def test_invalid_rows_raise(self, broken):
        w = np.array([[0.3, 0.7], [0.5, 0.5]])
        mu, var = np.zeros((2, 2)), np.ones((2, 2))
        if broken == "simplex":
            w[1] = [0.5, 0.6]
        elif broken == "variance":
            var[1, 1] = 0.0
        elif broken == "nan":
            mu[1, 0] = np.nan
        else:
            var = np.ones((2, 3))
        with pytest.raises(InvalidInputError):
            MixtureEnsemble(w, mu, var)
        with pytest.raises(InvalidInputError):
            MixtureEnsemble(w, mu[:, :, None], var)
        with pytest.raises(InvalidInputError):
            DdpDraw(w[-1], mu[-1][:, None], var[-1])

    def test_draws_with_different_component_counts_raise(self):
        one = MixtureDraw(weights=[1.0], means=[0.0], variances=[1.0])
        two = MixtureDraw(weights=[0.5, 0.5], means=[0.0, 1.0], variances=[1.0, 1.0])
        with pytest.raises(InvalidInputError):
            dpm_roc([one, two], [one, one])

    def test_pooled_and_dependent_draws_do_not_mix(self, fits):
        with pytest.raises(InvalidInputError):
            dpm_roc(*fits[1])
        with pytest.raises(InvalidInputError):
            ddp_roc(*fits[0], [1.0])

    def test_dpm_auc_matches_the_matrix_product(self, fits):
        for d, nd in zip(fits[0][0][:25], fits[0][1][:25]):
            sg_d, sg_nd = np.sqrt(d.variances), np.sqrt(nd.variances)
            a = (d.means[None, :] - nd.means[:, None]) / sg_d[None, :]
            b = sg_nd[:, None] / sg_d[None, :]
            ref = float(nd.weights @ ndtr(a / np.sqrt(1.0 + b * b)) @ d.weights)
            assert abs(dpm_auc(d, nd) - ref) <= 1e-14

    def test_ddp_conditional_cdf_matches_the_draw_mean(self, fits):
        ens = fits[1][0]
        cdf = ddp_conditional_cdf(ens, lambda x: np.concatenate([[1.0], x]))
        ys = np.linspace(-2.0, 4.0, 13)
        for x in (0.1, 0.8):
            mu = ens.locations @ np.array([1.0, x])
            ref = (ndtr((ys[:, None, None] - mu) / np.sqrt(ens.variances))
                   * ens.weights).sum(axis=-1).mean(axis=-1)
            assert np.max(np.abs(cdf(ys, [x]) - ref)) <= 1e-14
            assert np.max(np.abs(cdf(ys.reshape(13, 1), [x]).ravel() - ref)) <= 1e-14
            one = cdf(float(ys[4]), [x])
            assert isinstance(one, float) and abs(one - ref[4]) <= 1e-14


class TestSeedDeterminism:
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**16))
    def test_same_seed_spec_gives_identical_results(self, seed, stream):
        spec = SeedSpec(seed, stream)
        scenario = BinormalScenario(a=1.0, b=1.0, n_diseased=30, n_nondiseased=25, seed=spec)
        first, again = gen_binormal(scenario), gen_binormal(scenario)
        assert np.array_equal(first.diseased, again.diseased)
        assert np.array_equal(first.nondiseased, again.nondiseased)
        d, nd = first.diseased, first.nondiseased
        cfg = DpmConfig(seed=spec, burn_in=3, n_save=5)
        assert_same_mixtures(dpm_fit(d, cfg), dpm_fit(d, cfg))
        sample = RegressionSample(nd, np.column_stack([np.ones(nd.size), np.linspace(0, 1, nd.size)]))
        assert_same_mixtures(ddp_fit(sample, cfg), ddp_fit(sample, cfg))
        assert_same_posterior(bb_roc(d, nd, 4, seed=spec, youden=True),
                              bb_roc(d, nd, 4, seed=spec, youden=True))


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryAtScale:
    """Peaks at n = 10^5 per group stay linear in n.

    One (grid, n) float buffer on the 201-point default grid alone is
    1608 n bytes, and an (n, n) one is 8 n^2.
    """

    N = 100_000

    @pytest.fixture(scope="class")
    def samples(self):
        rng = np.random.default_rng(74)
        return rng.normal(1.0, 1.0, self.N), rng.normal(0.0, 1.0, self.N)

    def test_empirical(self, samples):
        assert traced_peak(lambda: empirical_roc(*samples)) < 400 * self.N
        assert traced_peak(lambda: empirical_auc(*samples)) < 400 * self.N

    def test_bayesian_bootstrap(self, samples):
        assert traced_peak(lambda: bb_roc(*samples, 3, seed=SeedSpec(75, 0),
                                          youden=True)) < 400 * self.N

    def test_kernel_auc_with_two_workers(self, force_workers, samples):
        # every nondiseased value within 1e-3 of 0, so the windows of the
        # diseased values near 0 span the whole nondiseased sample
        force_workers(2)
        nd = np.random.default_rng(84).normal(0.0, 1e-4, self.N)
        assert traced_peak(lambda: kernel_auc(samples[0], nd, 1e-3, 1e-3)) < 800 * self.N

    def test_short_dpm_chain_and_curves(self, samples):
        def run():
            fits = [dpm_fit(y, DpmConfig(seed=SeedSpec(76, k), burn_in=2, n_save=4))
                    for k, y in enumerate(samples)]
            dpm_roc(*fits, youden=True)

        assert traced_peak(run) < 800 * self.N


def allocation_cdf_n_by_l(y, design, coef, w, tau):
    # the allocation step's cumulative probabilities as the sampler first
    # computed them, over (n, L) arrays
    means = design @ coef.T
    with np.errstate(divide="ignore"):
        logp = np.log(w) + 0.5 * np.log(tau) - 0.5 * tau * (y[:, None] - means) ** 2
    logp -= logp.max(axis=1, keepdims=True)
    prob = np.exp(logp)
    prob /= prob.sum(axis=1, keepdims=True)
    return prob.cumsum(axis=1)


def allocate_n_by_l(y, design_t, coef, w, tau, rng):
    cum = allocation_cdf_n_by_l(y, np.ascontiguousarray(design_t.T), coef, w, tau)
    z = (cum < rng.uniform(size=(y.size, 1))).sum(axis=1)
    return np.minimum(z, w.size - 1).astype(np.intp)


class FixedUniforms:
    """A stand-in generator whose ``uniform`` returns the given values."""

    def __init__(self, u):
        self.u = u

    def uniform(self, size):
        return self.u.reshape(size)


def regression_data(n, d, seed):
    rng = np.random.default_rng(seed)
    design = np.column_stack([np.ones(n), rng.normal(size=(n, d - 1))])
    y = (design @ rng.normal(size=d) + np.where(rng.random(n) < 0.3, 2.5, 0.0)
         + rng.normal(size=n))
    return y, design


# L on both sides of numpy's pairwise-summation boundaries (8 and 128 terms)
PAIRWISE_LS = [2, 7, 8, 9, 16, 17, 50, 130]


class TestAllocationStep:
    """The (L, n) allocation step rounds exactly as the (n, L) one did."""

    def test_pairwise_rows_add_as_numpy_sums_rows(self):
        rng = np.random.default_rng(92)
        for L in range(1, 301):
            x = np.exp(4.0 * rng.normal(size=(40, L)))
            assert np.array_equal(_pairwise_rows(np.ascontiguousarray(x.T), 0, L),
                                  x.sum(axis=1)), L

    @pytest.mark.parametrize("L", PAIRWISE_LS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_draws_split_where_the_n_by_l_probabilities_do(self, L, d):
        # uniforms placed exactly on, and one ulp either side of, the old
        # cumulative probabilities: any rounding difference moves a count
        y, design = regression_data(400, d, 93 + L)
        rng = np.random.default_rng(L)
        coef = y.mean() + rng.normal(size=(L, d))
        w, tau = rng.dirichlet(np.ones(L)), rng.gamma(2.0, 1.0, L)
        cum = allocation_cdf_n_by_l(y, design, coef, w, tau)
        on = cum[np.arange(y.size), rng.integers(0, L, y.size)]
        design_t = np.ascontiguousarray(design.T)
        for u in (on, np.nextafter(on, 2.0), np.nextafter(on, 0.0)):
            want = np.minimum((cum < u[:, None]).sum(axis=1), L - 1)
            got = _allocate(y, design_t, coef, w, tau, FixedUniforms(u))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("L", PAIRWISE_LS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_chain_equals_the_n_by_l_chain(self, monkeypatch, L, d):
        y, design = regression_data(240, d, 94 + L)
        cfg = DpmConfig(seed=SeedSpec(95, L), truncation=L, burn_in=15, n_save=15)
        chain = _blocked_gibbs(y, design, cfg)
        monkeypatch.setattr(pooled_roc, "_allocate", allocate_n_by_l)
        for got, want in zip(chain, _blocked_gibbs(y, design, cfg)):
            assert np.array_equal(got, want)

    def test_sweeps_free_their_buffers(self):
        # 200 sweeps at n = 1,000 hold well under one sweep's (L, n)
        # buffers each; buffers kept alive until the cycle collector runs
        # would pile up to about 10 MB
        y = np.random.default_rng(96).normal(size=1000)
        cfg = DpmConfig(seed=SeedSpec(97, 0), burn_in=100, n_save=100)
        assert traced_peak(lambda: dpm_fit(y, cfg)) < 2_000_000


def blocked_gibbs_reference(y, design, cfg):
    """The sampler with its earlier precision draw, ``rng.gamma``."""
    n, d = design.shape
    beta_hat, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta_hat
    sigma2 = float(resid @ resid) / max(n - rank, 1)
    L = cfg.truncation
    m = beta_hat
    s_inv = np.linalg.inv(10.0 * sigma2 * np.eye(d))
    s_inv_m = s_inv @ m
    a, b = float(cfg.shape), sigma2
    rng = cfg.seed.rng()
    k = d * d + d
    stats = np.hstack([(design[:, :, None] * design[:, None, :]).reshape(n, d * d),
                       design * y[:, None]]).ravel()
    offsets = np.arange(k)
    design_t = np.ascontiguousarray(design.T)
    ranks = np.argsort(np.argsort(y, kind="stable"), kind="stable")
    z = np.minimum((ranks * L) // n, L - 1).astype(np.intp)
    tau = np.full(L, 1.0 / sigma2)
    weights = np.empty((cfg.n_save, L))
    coefs = np.empty((cfg.n_save, L, d))
    variances = np.empty((cfg.n_save, L))
    for it in range(cfg.burn_in + cfg.n_save):
        counts = np.bincount(z, minlength=L)
        tail = counts[::-1].cumsum()[::-1]
        v = rng.beta(1.0 + counts[:-1], cfg.alpha + tail[1:])
        w = np.concatenate([v, [1.0]]) * np.concatenate([[1.0], np.cumprod(1.0 - v)])
        sums = np.bincount((z[:, None] * k + offsets).ravel(), weights=stats,
                           minlength=L * k).reshape(L, k)
        prec = s_inv + tau[:, None, None] * sums[:, :d * d].reshape(L, d, d)
        rhs = s_inv_m + tau[:, None] * sums[:, d * d:]
        chol = np.linalg.cholesky(prec)
        mean = np.linalg.solve(prec, rhs[:, :, None])[:, :, 0]
        noise = np.linalg.solve(chol.transpose(0, 2, 1),
                                rng.standard_normal((L, d))[:, :, None])[:, :, 0]
        coef = mean + noise
        r = y - np.einsum("ij,ij->i", design, coef[z])
        rss = np.bincount(z, weights=r * r, minlength=L)
        tau = rng.gamma(a + 0.5 * counts, 1.0 / (b + 0.5 * rss))
        assert np.isfinite(coef).all() and np.isfinite(tau).all() and (tau > 0.0).all()
        if it >= cfg.burn_in:
            s = it - cfg.burn_in
            weights[s], coefs[s], variances[s] = w, coef, 1.0 / tau
        z = _allocate(y, design_t, coef, w, tau, rng)
    return weights, coefs, variances


class TestComponentStep:
    """The precisions drawn by ``standard_gamma`` times the scale are ``rng.gamma``'s."""

    @pytest.mark.parametrize("L", [2, 10, 50])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_chain_equals_the_reference_chain(self, L, d):
        y, design = regression_data(300, d, 120 + L)
        cfg = DpmConfig(seed=SeedSpec(121, L), truncation=L, burn_in=40, n_save=40)
        for got, want in zip(_blocked_gibbs(y, design, cfg),
                             blocked_gibbs_reference(y, design, cfg)):
            assert np.array_equal(got, want)

    def test_dpm_fit_chain_over_a_thousand_values(self):
        y = np.random.default_rng(122).standard_t(3, 1000)
        cfg = DpmConfig(seed=SeedSpec(123, 0), burn_in=100, n_save=100)
        fit = dpm_fit(y, cfg)
        want = blocked_gibbs_reference(y, np.ones((y.size, 1)), cfg)
        got = (fit.weights, fit.locations[:, :, None], fit.variances)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def mixture_aucs_unblocked(w_d, mu_d, sg_d, w_nd, mu_nd, sg_nd):
    a = (mu_d[:, None, :] - mu_nd[:, :, None]) / sg_d[:, None, :]
    b = sg_nd[:, :, None] / sg_d[:, None, :]
    return np.einsum("sk,sl,skl->s", w_nd, w_d, ndtr(a / np.sqrt(1.0 + b * b)))


class TestBlockedMixtureAucs:
    @staticmethod
    def mixtures(S, L, seed):
        rng = np.random.default_rng(seed)
        return [a for k in range(2) for a in (rng.dirichlet(np.ones(L), S),
                                              rng.normal(k, 1.0, (S, L)),
                                              rng.uniform(0.2, 2.0, (S, L)))]

    @pytest.mark.parametrize("S, L", [(1, 2), (7, 10), (1000, 10), (333, 50), (5, 130)])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_equal_to_the_unblocked_sum(self, force_workers, S, L, workers):
        force_workers(workers)
        arrays = self.mixtures(S, L, 98 + L)
        assert np.array_equal(_mixture_aucs(*arrays), mixture_aucs_unblocked(*arrays))

    def test_memory_stays_within_blocks(self, force_workers):
        # one (S, L, L) array at S = 1,000, L = 50 is 20 MB
        force_workers(2)
        arrays = self.mixtures(1000, 50, 99)
        assert traced_peak(lambda: _mixture_aucs(*arrays)) < 8_000_000


def assert_monotone_curves(curves):
    assert np.all(np.diff(curves, axis=-1) >= 0.0)
    assert np.all((curves >= 0.0) & (curves <= 1.0))


def assert_bands_bracket(estimate):
    assert_monotone_curves(np.stack([estimate.band_lo, estimate.roc, estimate.band_hi]))
    assert np.all(estimate.band_lo <= estimate.roc) and np.all(estimate.roc <= estimate.band_hi)


GRID = np.linspace(0.0, 1.0, 41)


class TestCurveProperties:
    """Every estimator's curves are nondecreasing in p, and bands bracket them."""

    @given(lattice_sample, lattice_sample)
    def test_empirical(self, d, nd):
        assert_monotone_curves(empirical_roc(d, nd, GRID).roc)

    @given(lattice_sample, lattice_sample)
    def test_kernel(self, d, nd):
        assume(np.ptp(d) > 0.0 and np.ptp(nd) > 0.0)
        try:
            curve = kernel_roc(d, nd, grid=GRID)
        except DegenerateSampleError:  # no interquartile spread for a bandwidth
            assume(False)
        assert_monotone_curves(curve.roc)

    @given(lattice_sample, lattice_sample, st.integers(0, 2**32))
    def test_bayesian_bootstrap(self, d, nd, seed):
        ens = bb_roc(d, nd, 12, GRID, seed=SeedSpec(seed, 0))
        assert_monotone_curves(ens.curves)
        assert_bands_bracket(ens.summarize(0.9))

    @given(lattice_sample, lattice_sample, st.integers(0, 2**32))
    def test_short_dpm_chain(self, d, nd, seed):
        assume(np.ptp(d) > 0.0 and np.ptp(nd) > 0.0)
        fits = [dpm_fit(y, DpmConfig(seed=SeedSpec(seed, k), truncation=4, burn_in=4,
                                     n_save=6)) for k, y in enumerate((d, nd))]
        ens = dpm_roc(*fits, GRID)
        assert_monotone_curves(ens.curves)
        assert_bands_bracket(ens.summarize(0.9))


def power_of_two_samples(seed, kind):
    """Two samples of 2 to 120 values; the diseased one may sit below the
    other (a reversed marker)."""
    rng = np.random.default_rng(seed)
    n_d, n_nd = rng.integers(2, 121, 2)
    shift = rng.uniform(-2.0, 2.0)
    if kind == "t5":
        return shift + rng.standard_t(5, n_d), rng.standard_t(5, n_nd)
    d, nd = rng.normal(shift, 1.0, n_d), rng.normal(0.0, 1.0, n_nd)
    if kind == "tied":
        return np.round(2.0 * d) / 2.0, np.round(2.0 * nd) / 2.0
    return d, nd


scale_cases = given(st.integers(0, 2**32 - 1), st.integers(-20, 20),
                    st.sampled_from(["normal", "t5", "tied"]))


class TestPowerOfTwoScale:
    """Multiplying the marker by ``2^k`` (``|k| <= 20``) moves no bit that
    the marker's scale should not move.

    Scaling by a power of two is exact, so every estimator whose arithmetic
    is scale-free gives the same bits.  These hold: the empirical,
    Silverman-kernel and Bayesian bootstrap curves and AUCs; the step
    rule's Youden index and p* (``youden_empirical`` and every ``bb_roc``
    draw), whose thresholds scale by exactly ``2^k``, the everyone-positive
    one (the double just below the pooled minimum) included, except below
    a minimum of 0; and the grid index that LSCV chooses.  These do not:

    * the LSCV bandwidth is ``np.geomspace``'s grid value at that index,
      rounded another way at another scale;
    * the kernel Youden search (``youden_from_cdfs`` on kernel CDFs, as the
      CLI runs it) stops its golden section at ``1e-13 (1 + |a| + |b|)``,
      an absolute width below unit scale, so its threshold, p* and at
      times its index move with the scale (``test_kernel_youden``).
    """

    @settings(max_examples=40, deadline=None)
    @scale_cases
    def test_empirical_and_bootstrap(self, seed, k, kind):
        d, nd = power_of_two_samples(seed, kind)
        f = 2.0 ** k
        pooled = np.concatenate([d, nd])
        before, after = empirical_roc(d, nd), empirical_roc(f * d, f * nd)
        assert np.array_equal(before.roc, after.roc) and before.auc == after.auc
        # below a minimum of 0 the candidate is the least subnormal at every scale
        before, after = youden_empirical(d, nd), youden_empirical(f * d, f * nd)
        assert before.yi == after.yi and before.p_star == after.p_star
        if pooled.min() != 0.0 or before.c_star in pooled:
            assert after.c_star == f * before.c_star
        before = bb_roc(d, nd, 20, seed=SeedSpec(seed, 0), youden=True)
        after = bb_roc(f * d, f * nd, 20, seed=SeedSpec(seed, 0), youden=True)
        for name in ("curves", "aucs", "yis", "p_stars"):
            assert np.array_equal(getattr(before, name), getattr(after, name)), name
        data = np.isin(before.thresholds, pooled) | (pooled.min() != 0.0)
        assert np.array_equal(after.thresholds[data], f * before.thresholds[data])

    @pytest.mark.parametrize("k", [0, 53, 54, 60, 900])
    def test_step_rule_everyone_positive_at_large_magnitudes(self, k):
        # a reversed marker: the rule that scores exactly 0 classifies
        # everyone positive, at a threshold below the data at any magnitude
        f = 2.0 ** k
        d, nd = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        base = youden_empirical(d, nd)
        res = youden_empirical(f * d, f * nd)
        assert (res.yi, res.p_star) == (0.0, 1.0)
        assert res.c_star < f and res.c_star == f * base.c_star
        ens = bb_roc(f * d, f * nd, 5, seed=SeedSpec(7, 0), youden=True)
        assert np.array_equal(ens.p_stars, np.ones(5))
        assert np.array_equal(ens.thresholds, np.full(5, f * base.c_star))

    def test_step_rule_everyone_positive_at_1e17(self):
        res = youden_empirical([1e17, 2e17], [3e17, 4e17])
        assert (res.yi, res.p_star) == (0.0, 1.0) and res.c_star < 1e17

    @settings(max_examples=40, deadline=None)
    @scale_cases
    def test_silverman_kernel(self, seed, k, kind):
        d, nd = power_of_two_samples(seed, kind)
        f = 2.0 ** k
        try:
            before = kernel_roc(d, nd)
        except DegenerateSampleError:  # no spread for a bandwidth, at any scale
            with pytest.raises(DegenerateSampleError):
                kernel_roc(f * d, f * nd)
            return
        after = kernel_roc(f * d, f * nd)
        assert np.array_equal(before.roc, after.roc) and before.auc == after.auc

    @settings(max_examples=25, deadline=None)
    @scale_cases
    def test_lscv_grid_index(self, seed, k, kind):
        y = power_of_two_samples(seed, kind)[1]
        assume(y.size >= 3)

        def index(v):
            h0 = silverman_bandwidth(v)
            return np.flatnonzero(np.geomspace(h0 / 20.0, 5.0 * h0, 60) == lscv_bandwidth(v))

        try:
            before = index(y)
        except DegenerateSampleError:
            with pytest.raises(DegenerateSampleError):
                index(2.0 ** k * y)
            return
        assert before.size == 1 and np.array_equal(index(2.0 ** k * y), before)

    @pytest.mark.xfail(strict=True, reason="the golden section's stop width has an "
                                           "absolute term, so the kernel Youden search "
                                           "is not scale-free")
    @pytest.mark.parametrize("seed, k", [(2, -10), (3, 10), (4, -10)])
    def test_kernel_youden(self, seed, k):
        rng = np.random.default_rng(seed)
        d, nd = rng.normal(1.0, 1.0, 40), rng.normal(0.0, 1.0, 40)

        def search(f):
            h_d, h_nd = silverman_bandwidth(f * d), silverman_bandwidth(f * nd)
            reach = 4.0 * max(h_d, h_nd)
            return youden_from_cdfs(lambda c: kernel_cdf(f * d, h_d, c),
                                    lambda c: kernel_cdf(f * nd, h_nd, c),
                                    min(f * d.min(), f * nd.min()) - reach,
                                    max(f * d.max(), f * nd.max()) + reach)

        before, after = search(1.0), search(2.0 ** k)
        assert before.yi == after.yi and before.p_star == after.p_star
        assert after.c_star == 2.0 ** k * before.c_star
