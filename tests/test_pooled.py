import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import rankdata

from roclab import (BinormalScenario, DdpDraw, DegenerateSampleError, DpmConfig,
                    InvalidInputError, MixtureDraw, MixtureEnsemble,
                    NegativeYoudenWarning, NumericError, PosteriorEnsemble, RegressionSample,
                    SeedSpec, bb_roc, ddp_conditional_cdf, ddp_fit, ddp_roc,
                    dpm_auc, dpm_fit, dpm_roc, empirical_auc, empirical_roc,
                    gen_binormal, kernel_auc, kernel_cdf, kernel_roc, lscv_bandwidth,
                    mixture_cdf_callable, silverman_bandwidth, std_normal_cdf,
                    youden_from_cdfs)
from roclab.core import default_prob_grid
from roclab.indices import _youden_search
from roclab.pooled_roc import (_ensemble_from_mixture_arrays,
                               _invert_mixture_cdf, _midranks, _mixture_cdf,
                               _roc_from_mixtures)


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


# ---------------------------------------------------------------------------
# batched posterior post-processing against per-draw references

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def scalar_youden(cdf_d, cdf_dbar, lo, hi, grid_size=1000):
    """The per-pair Youden search on Python floats: scan, then golden section."""
    pts = np.linspace(lo, hi, grid_size)
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
        vals = _mixture_cdf(w, mu, sg, np.atleast_1d(np.asarray(c, dtype=float)), ndtr)
        return float(vals[0]) if np.ndim(c) == 0 else vals

    return cdf


def per_draw_youden(w_d, mu_d, sg_d, w_nd, mu_nd, sg_nd, lo, hi):
    """One ``youden_from_cdfs`` call per draw, over ``cdf_from_arrays``."""
    out = np.empty((3, w_d.shape[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeYoudenWarning)
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


def batched_youden(w_d, mu_d, sg_d, w_nd, mu_nd, sg_nd, lo, hi, block=64):
    """The batched search over unblocked component sums, ``block`` draws per scan block."""
    def cdfs(x, rows):
        return (_mixture_cdf(w_nd[rows], mu_nd[rows], sg_nd[rows], x, ndtr),
                _mixture_cdf(w_d[rows], mu_d[rows], sg_d[rows], x, ndtr))

    return np.stack(_youden_search(cdfs, np.linspace(lo, hi, 1000), lo, hi, w_d.shape[0],
                                   block))


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
        assert np.array_equal(got, per_draw_youden(w_d, mu_d, sg_d, w_nd, mu_nd, sg_nd,
                                                   lo, hi))

    def test_reversed_groups_warn_once_per_call(self):
        # each diseased draw is its nondiseased draw shifted down by 2, so
        # every gap is negative
        rng = np.random.default_rng(60)
        w = rng.dirichlet(np.ones(3), 70)
        mu = rng.uniform(-0.5, 0.5, (70, 3))
        var = rng.uniform(0.7, 1.4, (70, 3))
        draws_nd = [MixtureDraw(*row) for row in zip(w, mu, var)]
        draws_d = [MixtureDraw(*row) for row in zip(w, mu - 2.0, var)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ens = dpm_roc(draws_d, draws_nd, youden=True)
        assert np.all(ens.yis < 0.0)
        assert [w.category for w in caught] == [NegativeYoudenWarning]
        arrays = (w, mu - 2.0, np.sqrt(var), w, mu, np.sqrt(var))
        lo, hi = search_range(arrays[1], arrays[2], arrays[4], arrays[5])
        assert np.array_equal(ensemble_youden(ens), per_draw_youden(*arrays, lo, hi))

    @pytest.mark.parametrize("n_draws", [1, 63, 64, 65, 129])
    def test_draw_counts_around_the_chunk(self, dpm_arrays, n_draws):
        draws_d, draws_nd = dpm_arrays
        arrays = (*stacked(draws_d[:n_draws]), *stacked(draws_nd[:n_draws]))
        lo, hi = search_range(arrays[1], arrays[2], arrays[4], arrays[5])
        got = ensemble_youden(dpm_roc(draws_d[:n_draws], draws_nd[:n_draws], youden=True))
        assert np.array_equal(got, per_draw_youden(*arrays, lo, hi))

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
        assert np.array_equal(got, batched_youden(*arrays, lo, hi, block=64))

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


def global_bracket_newton(w, mu, sigma, targets):
    """CDF inversion with every root started at the middle of one global bracket."""
    lo = float((mu - 10.0 * sigma).min())
    hi = float((mu + 10.0 * sigma).max())
    qmin, qmax = float(targets.min()), float(targets.max())
    for _ in range(60):
        if _mixture_cdf(w, mu, sigma, np.array([lo]), ndtr).min() <= qmin:
            break
        lo -= hi - lo
    for _ in range(60):
        if _mixture_cdf(w, mu, sigma, np.array([hi]), ndtr).max() >= qmax:
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
        f, dens = _mixture_cdf(w, mu, sigma, x, ndtr, density=True)
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
    roots = _invert_mixture_cdf(w, mu, sigma, targets, ndtr)
    oracle = global_bracket_newton(w, mu, sigma, targets)
    # a root is fixed only to within the CDF's rounding over its slope: on a
    # plateau between components far apart any point of the plateau solves
    _, dens = _mixture_cdf(w, mu, sigma, oracle, ndtr, density=True)
    with np.errstate(divide="ignore"):
        spread = 8.0 * np.finfo(float).eps / dens
    assert np.all(np.abs(roots - oracle) <= 1e-12 * (1.0 + np.abs(oracle)) + spread)
    assert np.abs(_mixture_cdf(w, mu, sigma, roots, ndtr) - targets).max() <= 1e-10


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
        roots = _invert_mixture_cdf(w, mu, sigma, q, ndtr)
        assert np.allclose(_mixture_cdf(w, mu, sigma, roots, ndtr), q, rtol=1e-9, atol=0.0)

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


class TestWorkerCount:
    """One pool thread or two: every output is the same, bit for bit."""

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_inversion_error_names_the_first_failing_draw(self, force_workers, workers):
        # draws 40 and 75 (blocks 1 and 2) are steps: two components of scale
        # 1e-150, so no root reaches the 1e-10 residual
        force_workers(workers)
        w = np.full((100, 2), 0.5)
        mu = np.tile([0.0, 1.0], (100, 1))
        sigma = np.ones((100, 2))
        sigma[[40, 75]] = 1e-150
        with pytest.raises(NumericError, match=r"\(draw 40\)"):
            _invert_mixture_cdf(w, mu, sigma, TARGETS, ndtr)


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
