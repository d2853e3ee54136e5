import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import rankdata

from roclab import (DegenerateSampleError, DpmConfig, InvalidInputError,
                    MixtureDraw, PosteriorEnsemble, SeedSpec, bb_roc, dpm_auc,
                    dpm_fit, dpm_roc, empirical_auc, empirical_roc, kernel_auc,
                    kernel_cdf, kernel_roc, lscv_bandwidth,
                    mixture_cdf_callable, silverman_bandwidth, std_normal_cdf)
from roclab.pooled_roc import _midranks


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
        # two full blocks of 512 rows and a short one
        y = np.random.default_rng(12).standard_t(5, size=1040)
        assert lscv_bandwidth(y) == self._lscv_unchunked(y)

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


class TestKernelRoc:
    @pytest.mark.parametrize("estimate", [kernel_roc, kernel_auc])
    @pytest.mark.parametrize("h", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_rejects_bandwidth_that_is_not_finite_and_positive(self, estimate, h):
        d, nd = [0.5, 1.0, 2.0], [0.0, 0.3, 1.1]
        for h_d, h_nd in ((h, 0.5), (0.5, h)):
            with pytest.raises(InvalidInputError, match="bandwidth"):
                estimate(d, nd, h_d, h_nd)

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

    def test_curve_monotone_and_pinned(self):
        rng = np.random.default_rng(14)
        d, nd = rng.normal(0.8, 1, 100), rng.normal(0, 1, 100)
        est = kernel_roc(d, nd)
        assert est.roc[0] >= 0.0 and est.roc[-1] == 1.0
        assert np.all(np.diff(est.roc) >= -1e-9)

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
