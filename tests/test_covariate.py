import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from roclab import (BSplineSpec, ConvergenceError, DdpConfig, DegenerateSampleError,
                    ExtrapolationError, InvalidInputError, LocationScaleFit,
                    RegressionSample, SeedSpec, SeparationWarning,
                    SingularDesignError, aroc, bspline_design,
                    ddp_conditional_cdf, ddp_fit, ddp_roc, dpm_fit, dpm_roc,
                    DpmConfig, empirical_roc, faraggi_roc, gen_covariate_linear,
                    location_scale_cdf, location_scale_youden,
                    mixture_cdf_callable, ols_fit, pepe_semiparam_roc,
                    placement_values, rocglm_fit, std_normal_cdf,
                    youden_from_cdfs, youden_from_curve)
from roclab import covariate_roc
from roclab.covariate_roc import _bspline_basis, _ispline_basis, _nonneg_lstsq


def _ones_sample(y):
    y = np.asarray(y, dtype=float)
    return RegressionSample(y, np.ones((y.size, 1)))


def _linear_sample(y, x):
    y = np.asarray(y, dtype=float)
    return RegressionSample(y, np.column_stack([np.ones(y.size), x]))


class TestOlsFit:
    def test_intercept_only_hand_values(self):
        fit = ols_fit(_ones_sample([1.0, 2.0, 3.0]))
        assert fit.beta[0] == pytest.approx(2.0, abs=1e-12)
        assert fit.sigma == pytest.approx(1.0, abs=1e-12)  # RSS=2, n-1=2

    def test_exact_fit_rejected(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(DegenerateSampleError):
            ols_fit(_linear_sample(1.0 + 2.0 * x, x))

    def test_exact_fit_with_rounding_residue_rejected(self):
        # least squares leaves ~1e-17 residuals on these exact fits
        with pytest.raises(DegenerateSampleError):
            ols_fit(RegressionSample(np.full(50, 0.1), np.ones((50, 1))))
        x = SeedSpec(41, 0).rng().uniform(0, 1, 50)
        with pytest.raises(DegenerateSampleError):
            ols_fit(_linear_sample(1.0 + 2.0 * x, x))

    @pytest.mark.parametrize("scale, word", [(1e300, "overflow"), (1e-300, "underflow")])
    def test_extreme_magnitudes_name_the_overflow_or_underflow(self, scale, word):
        x = SeedSpec(41, 1).rng().uniform(0, 1, 50)
        y = (1.0 + x + SeedSpec(41, 2).rng().standard_normal(50)) * scale
        with pytest.raises(InvalidInputError, match=word):
            ols_fit(_linear_sample(y, x))

    def test_duplicate_column_rejected(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        x = np.array([0.0, 1.0, 2.0, 3.0])
        design = np.column_stack([np.ones(4), x, x])
        with pytest.raises(SingularDesignError):
            ols_fit(RegressionSample(y, design))

    def test_recovery(self):
        rng = SeedSpec(40, 0).rng()
        x = rng.uniform(0, 1, 10_000)
        y = 1.0 + 2.0 * x + rng.standard_normal(10_000)
        fit = ols_fit(_linear_sample(y, x))
        assert abs(fit.beta[0] - 1.0) < 0.05
        assert abs(fit.beta[1] - 2.0) < 0.05
        assert abs(fit.sigma - 1.0) < 0.05
        # residuals come back standardized
        assert np.std(fit.residuals, ddof=2) == pytest.approx(1.0, abs=1e-9)

    def test_needs_more_rows_than_columns(self):
        with pytest.raises(InvalidInputError):
            ols_fit(_ones_sample([1.0]))


class TestRegressionSample:
    def test_requires_intercept_column(self):
        with pytest.raises(InvalidInputError):
            RegressionSample(np.array([1.0, 2.0]), np.array([[0.5], [1.0]]))

    def test_row_count_mismatch(self):
        with pytest.raises(InvalidInputError):
            RegressionSample(np.array([1.0, 2.0, 3.0]), np.ones((2, 1)))


class TestFaraggiRoc:
    def test_equal_fits_give_diagonal(self):
        res = np.array([-1.0, 0.0, 1.0])
        fit = LocationScaleFit(beta=np.array([0.0, 1.0]), sigma=1.0, residuals=res)
        curve = faraggi_roc(fit, fit, [0.7])
        assert np.max(np.abs(curve.roc - curve.grid)) < 1e-12
        assert curve.auc == pytest.approx(0.5, abs=1e-12)

    def test_unit_shift_auc(self):
        res = np.zeros(3) + np.array([-1.0, 0.0, 1.0])
        fit_d = LocationScaleFit(beta=np.array([1.0]), sigma=1.0, residuals=res)
        fit_nd = LocationScaleFit(beta=np.array([0.0]), sigma=1.0, residuals=res)
        curve = faraggi_roc(fit_d, fit_nd, [])
        # a(x) = -1, b = 1
        assert curve.auc == pytest.approx(0.7602499389065233, abs=1e-12)

    def test_auc_matches_integration_random_params(self):
        rng = np.random.default_rng(41)
        grid = np.linspace(0, 1, 2001)
        res = rng.standard_normal(20)
        for _ in range(100):
            b = rng.uniform(0.3, 3.0)
            fit_d = LocationScaleFit(beta=np.array([rng.uniform(-2, 2)]),
                                     sigma=1.0 / b, residuals=res)
            fit_nd = LocationScaleFit(beta=np.array([rng.uniform(-2, 2)]),
                                      sigma=1.0, residuals=res)
            curve = faraggi_roc(fit_d, fit_nd, [], grid)
            assert abs(curve.auc - np.trapezoid(curve.roc, grid)) < 5e-4

    def test_dimension_mismatch(self):
        res = np.array([-1.0, 0.0, 1.0])
        fit = LocationScaleFit(beta=np.array([0.0, 1.0]), sigma=1.0, residuals=res)
        with pytest.raises(InvalidInputError):
            faraggi_roc(fit, fit, [0.5, 0.9])

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_covariate_rejected(self, value):
        # an infinite covariate once gave a constant curve with AUC 1.0
        res = np.array([-1.0, 0.0, 1.0])
        fit_d = LocationScaleFit(beta=np.array([1.0, 1.0]), sigma=1.0, residuals=res)
        fit_nd = LocationScaleFit(beta=np.array([0.0, 0.5]), sigma=1.0, residuals=res)
        for estimator in (faraggi_roc, pepe_semiparam_roc):
            with pytest.raises(InvalidInputError, match="covariate values must be finite"):
                estimator(fit_d, fit_nd, [value])
        with pytest.raises(InvalidInputError, match="covariate values must be finite"):
            fit_d.mean_at([value])


class TestPepeSemiparamRoc:
    def test_agrees_with_faraggi_for_normal_errors(self):
        s_d, s_nd = gen_covariate_linear([0.5, 1.0], [0.0, 1.0], 1.0, 1.0,
                                         5000, 5000, seed=SeedSpec(42, 0))
        fit_d, fit_nd = ols_fit(s_d), ols_fit(s_nd)
        for x in (0.2, 0.8):
            a = pepe_semiparam_roc(fit_d, fit_nd, [x])
            f = faraggi_roc(fit_d, fit_nd, [x])
            assert np.max(np.abs(a.roc - f.roc)) < 0.02

    def test_identical_fits_centre_auc(self):
        rng = np.random.default_rng(43)
        res = rng.standard_normal(101)
        fit = LocationScaleFit(beta=np.array([0.0]), sigma=1.0, residuals=res)
        curve = pepe_semiparam_roc(fit, fit, [])
        # every value ties with itself once: auc = (n(n-1)/2 + n) / n^2
        n = 101
        assert curve.auc == pytest.approx((n * (n - 1) / 2 + n) / n ** 2, abs=1e-12)

    def test_pair_count_is_exact(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            n1, n0 = rng.integers(5, 51), rng.integers(5, 51)
            fit_d = LocationScaleFit(beta=np.array([rng.uniform(0, 1)]),
                                     sigma=rng.uniform(0.5, 2),
                                     residuals=rng.standard_normal(n1))
            fit_nd = LocationScaleFit(beta=np.array([0.0]), sigma=1.0,
                                      residuals=rng.standard_normal(n0))
            curve = pepe_semiparam_roc(fit_d, fit_nd, [])
            v_d = fit_d.mean_at([]) + fit_d.sigma * fit_d.residuals
            v_nd = fit_nd.mean_at([]) + fit_nd.sigma * fit_nd.residuals
            brute = np.mean(v_nd[None, :] <= v_d[:, None])
            assert curve.auc == brute


    @pytest.mark.parametrize("n_nd", [10, 20, 40, 50, 100])
    def test_intercept_only_is_the_empirical_curve(self, n_nd):
        # grid points on ECDF jumps take the rank of the exact 1 - p, as in
        # empirical_roc, not of its rounded float
        rng = np.random.default_rng(45 + n_nd)
        for _ in range(20):
            y_d = rng.normal(1.0, rng.uniform(0.5, 2.0), int(rng.integers(5, 80)))
            y_nd = rng.normal(0.0, 1.0, n_nd)
            fit_d, fit_nd = ols_fit(_ones_sample(y_d)), ols_fit(_ones_sample(y_nd))
            for grid in (np.linspace(0.0, 1.0, 201), np.arange(n_nd + 1) / n_nd):
                assert np.array_equal(pepe_semiparam_roc(fit_d, fit_nd, [], grid).roc,
                                      empirical_roc(y_d, y_nd, grid).roc)


class TestBsplineDesign:
    def test_partition_of_unity(self):
        spec = BSplineSpec(interior_knots=(0.3, 0.5, 0.8), boundary=(0.0, 1.0))
        x = np.linspace(0, 1, 57)
        mat = bspline_design(x, spec)
        assert np.allclose(mat[:, 1:].sum(axis=1), 1.0, atol=1e-12)
        assert np.all(mat[:, 0] == 1.0)

    def test_cubic_reproduction_without_interior_knots(self):
        spec = BSplineSpec(interior_knots=(), boundary=(0.0, 1.0))
        x = np.linspace(0, 1, 40)
        mat = bspline_design(x, spec)
        coef, *_ = np.linalg.lstsq(mat, x ** 3, rcond=None)
        assert np.max(np.abs(mat @ coef - x ** 3)) < 1e-8

    def test_column_count_with_dummies(self):
        spec = BSplineSpec(interior_knots=(0.5,), boundary=(0.0, 1.0))
        x = np.linspace(0, 1, 12)
        labels = ["a", "b", "c"] * 4
        plain = bspline_design(x, spec, categorical=[labels])
        n_basis = 4 + 1  # interior knots + degree + 1
        assert plain.shape[1] == 1 + n_basis + 2
        crossed = bspline_design(x, spec, categorical=[labels], interactions=True)
        assert crossed.shape[1] == 1 + n_basis + 2 + n_basis * 2

    def test_extrapolation_error(self):
        spec = BSplineSpec(interior_knots=(0.5,), boundary=(0.0, 1.0))
        with pytest.raises(ExtrapolationError):
            bspline_design([0.2, 1.4], spec)

    def test_knot_layout_validation(self):
        with pytest.raises(InvalidInputError):
            BSplineSpec(interior_knots=(1.5,), boundary=(0.0, 1.0))


# knot layouts: the rocglm baseline's, none, one, a repeated knot, uneven ones
KNOT_LAYOUTS = [(0.25, 0.5, 0.75), (), (0.1,), (0.3, 0.3, 0.9),
                (0.02, 0.11, 0.4, 0.41, 0.97)]
# the numpy bases follow scipy's operation order; allow a few ulp of 1.0
BASIS_ATOL = 4 * np.finfo(float).eps


def _basis_points(knots, lo, hi, seed):
    inner = [lo + (hi - lo) * k for k in knots]
    rand = np.random.default_rng(seed).uniform(lo, hi, 500)
    return np.concatenate([[lo, hi], inner, rand])


class TestSplineBasesAgainstScipy:
    """The numpy Cox-de Boor bases against ``scipy.interpolate.BSpline``:
    on interior knots, at both boundary ends and at random interior points."""

    @pytest.mark.parametrize("knots", KNOT_LAYOUTS)
    @pytest.mark.parametrize("boundary", [(0.0, 1.0), (-3.2, 7.7)])
    def test_design_matrix(self, knots, boundary):
        from scipy.interpolate import BSpline

        lo, hi = boundary
        spec = BSplineSpec(tuple(lo + (hi - lo) * k for k in knots), boundary)
        x = _basis_points(knots, lo, hi, len(knots))
        want = BSpline.design_matrix(x, spec.knot_vector(), 3).toarray()
        got = _bspline_basis(x, spec.knot_vector(), 3)
        assert np.max(np.abs(got - want)) <= BASIS_ATOL
        assert np.array_equal(bspline_design(x, spec)[:, 1:], got)

    @pytest.mark.parametrize("knots", KNOT_LAYOUTS)
    def test_ispline_is_the_normalised_antiderivative(self, knots):
        from scipy.interpolate import BSpline

        t = np.array([0.0] * 4 + list(knots) + [1.0] * 4)
        p = _basis_points(knots, 0.0, 1.0, 10 + len(knots))
        got = _ispline_basis(p, knots)
        for i in range(got.shape[1]):
            anti = BSpline(t, np.eye(got.shape[1])[i], 3).antiderivative()
            want = anti(p) / anti(1.0)
            assert np.max(np.abs(got[:, i] - want)) <= BASIS_ATOL
        assert np.all(got[0] == 0.0) and np.all(got[1] == 1.0)  # p = 0 and p = 1


def _bounded_problem(seed, n, extra_rows, kind):
    """A design, a response and a bound mask for ``_nonneg_lstsq``."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n + extra_rows, n)) * rng.uniform(0.01, 100.0, n)
    bounded = rng.random(n) < 0.6
    b = rng.normal(size=n + extra_rows)
    if kind == "duplicate" and n > 1:  # rank deficient: a repeated bounded column
        bounded[0] = bounded[-1] = True
        a[:, -1] = a[:, 0]
    elif kind == "zero" and n > 1:  # rank deficient: an all-zero column
        a[:, 1] = 0.0
    elif kind == "all_bind":  # a >= 0 and b < 0: every bounded coefficient binds
        bounded[:] = True
        a = np.abs(a)
        b = -np.abs(b) - a @ rng.uniform(0.5, 2.0, n)
    return a, b, bounded


def _nonneg_on(a, b, bounded):
    """``_nonneg_lstsq`` of the tall problem ``a x ~ b``, through its QR."""
    q, r = np.linalg.qr(a)
    return _nonneg_lstsq(r, q.T @ b, bounded)


class TestNonnegLstsq:
    """The exact active-set solve behind the spline ROC-GLM baseline."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(3, 30),
           st.sampled_from(["plain", "duplicate", "zero", "all_bind"]))
    def test_feasible_kkt_and_no_worse_than_lsq_linear(self, seed, n, extra_rows, kind):
        from scipy.optimize import lsq_linear

        a, b, bounded = _bounded_problem(seed, n, extra_rows, kind)
        x = _nonneg_on(a, b, bounded)
        assert np.all(x[bounded] >= 0.0)
        grad = a.T @ (a @ x - b)
        tol = 1e-9 * np.linalg.norm(a) * (np.linalg.norm(a) * np.linalg.norm(x)
                                          + np.linalg.norm(b))
        at_bound = bounded & (x == 0.0)
        assert np.all(np.abs(grad[~at_bound]) <= tol)
        assert np.all(grad[at_bound] >= -tol)
        if kind == "all_bind":
            assert np.all(x == 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = lsq_linear(a, b, bounds=(np.where(bounded, 0.0, -np.inf), np.inf)).x
        assert np.sum((a @ x - b) ** 2) <= np.sum((a @ ref - b) ** 2) * (1.0 + 1e-12)

    def test_step_cap_raises_instead_of_a_partial_answer(self, monkeypatch):
        # three bounded coefficients that all end up positive: three entering steps
        a = np.vstack([np.eye(3), np.ones((2, 3))])
        b = np.array([1.0, 2.0, 3.0, 6.0, 6.0])
        bounded = np.ones(3, dtype=bool)
        monkeypatch.setattr(covariate_roc, "_LH_STEPS_PER_COLUMN", 1)  # cap of 4
        x = _nonneg_on(a, b, bounded)
        assert np.all(x > 0.0)
        monkeypatch.setattr(covariate_roc, "_LH_STEPS_PER_COLUMN", 0)  # cap of 0
        with pytest.raises(ConvergenceError):
            _nonneg_on(a, b, bounded)

    def test_binding_coefficients_are_exactly_zero(self):
        a = np.column_stack([np.ones(6), np.arange(6.0), -np.arange(6.0) ** 2])
        b = np.arange(6.0) ** 2
        x = _nonneg_on(a, b, np.array([False, True, True]))
        assert x[2] == 0.0 and x[1] > 0.0


class TestDdp:
    def _cfg(self, stream, **kw):
        kw.setdefault("burn_in", 60)
        kw.setdefault("n_save", 40)
        return DdpConfig(seed=SeedSpec(45, stream), **kw)

    def test_deterministic(self):
        rng = np.random.default_rng(46)
        x = rng.uniform(0, 1, 80)
        s = _linear_sample(0.5 + x + rng.standard_normal(80), x)
        a, b = ddp_fit(s, self._cfg(0)), ddp_fit(s, self._cfg(0))
        for da, db in zip(a, b):
            assert np.array_equal(da.weights, db.weights)
            assert np.array_equal(da.coef, db.coef)
            assert np.array_equal(da.variances, db.variances)

    def test_draws_valid(self):
        rng = np.random.default_rng(47)
        x = rng.uniform(0, 1, 60)
        s = _linear_sample(x + rng.standard_normal(60), x)
        for d in ddp_fit(s, self._cfg(1)):
            assert abs(d.weights.sum() - 1.0) < 1e-10
            assert np.all(d.variances > 0.0)
            assert d.coef.shape == (10, 2)

    def test_intercept_only_matches_pooled_mixture(self):
        rng = np.random.default_rng(48)
        y = rng.normal(1.0, 1.5, 250)
        ddp_draws = ddp_fit(_ones_sample(y), self._cfg(2, burn_in=150, n_save=120))
        dpm_draws = dpm_fit(y, DpmConfig(seed=SeedSpec(45, 9), burn_in=150,
                                         n_save=120))
        cdf_a = ddp_conditional_cdf(ddp_draws, lambda x: [1.0])
        ys = np.quantile(y, [0.1, 0.3, 0.5, 0.7, 0.9])
        f_b = np.mean([mixture_cdf_callable(d)(ys) for d in dpm_draws], axis=0)
        assert np.max(np.abs(cdf_a(ys, []) - f_b)) < 0.02


class TestSharedSampler:
    """``dpm_fit`` and ``ddp_fit`` run one sampler with one config class."""

    def test_one_config_class(self):
        assert DdpConfig is DpmConfig

    def test_intercept_only_chain_identical_to_pooled(self):
        y = np.random.default_rng(54).normal(0.5, 1.2, 120)
        cfg = DpmConfig(seed=SeedSpec(55, 0), burn_in=40, n_save=30)
        pooled = dpm_fit(y, cfg)
        dependent = ddp_fit(_ones_sample(y), cfg)
        assert len(pooled) == len(dependent) == 30
        for a, b in zip(pooled, dependent):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.means, b.coef[:, 0])
            assert np.array_equal(a.variances, b.variances)

    def test_constant_sample_is_degenerate(self):
        cfg = DpmConfig(seed=SeedSpec(56, 0), burn_in=5, n_save=5)
        for value in (0.1, 7.7, 1e10):
            y = np.full(50, value)
            with pytest.raises(DegenerateSampleError):
                dpm_fit(y, cfg)
            with pytest.raises(DegenerateSampleError):
                ddp_fit(_ones_sample(y), cfg)

    def test_bad_centring_rejected(self):
        rng = np.random.default_rng(57)
        x = rng.uniform(0, 1, 40)
        s = _linear_sample(x + rng.standard_normal(40), x)
        short = dict(seed=SeedSpec(58, 0), burn_in=5, n_save=5)
        with pytest.raises(InvalidInputError):
            ddp_fit(s, DpmConfig(centre_var=np.array([[1.0, 2.0], [2.0, 1.0]]), **short))
        with pytest.raises(InvalidInputError):
            ddp_fit(s, DpmConfig(centre_var=np.eye(3), **short))
        with pytest.raises(InvalidInputError):
            ddp_fit(s, DpmConfig(centre_mean=np.zeros(3), **short))
        with pytest.raises(InvalidInputError):
            dpm_fit(s.outcomes, DpmConfig(centre_mean=[0.0, 1.0], **short))
        with pytest.raises(InvalidInputError):
            DpmConfig(centre_var=-1.0, **short)


class TestDdpRoc:
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_design_row_rejected(self, value):
        # a NaN design row once raised NumericError after numpy warnings
        rng = np.random.default_rng(48)
        x = rng.uniform(0, 1, 60)
        draws = ddp_fit(_linear_sample(x + rng.standard_normal(60), x),
                        DdpConfig(seed=SeedSpec(48, 0), burn_in=20, n_save=10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="design row values must be finite"):
                ddp_roc(draws, draws, [1.0, value], youden=True)
            with pytest.raises(InvalidInputError, match="design row values must be finite"):
                ddp_roc(draws, draws, [1.0, 0.5], z_nd=[value, 0.5])
            cdf = ddp_conditional_cdf(draws, lambda v: [1.0, v])
            with pytest.raises(InvalidInputError, match="design row values must be finite"):
                cdf(0.0, value)

    def test_identical_draws_diagonal(self):
        rng = np.random.default_rng(49)
        x = rng.uniform(0, 1, 70)
        s = _linear_sample(x + rng.standard_normal(70), x)
        draws = ddp_fit(s, DdpConfig(seed=SeedSpec(50, 0), burn_in=40, n_save=20))
        for z in ([1.0, 0.1], [1.0, 0.9]):
            ens = ddp_roc(draws, draws, z)
            assert np.max(np.abs(ens.curves - ens.grid)) < 1e-9

    def test_closed_form_auc_vs_integration(self):
        rng = np.random.default_rng(51)
        x = rng.uniform(0, 1, 80)
        s_d = _linear_sample(0.8 + 1.2 * x + rng.standard_normal(80), x)
        s_nd = _linear_sample(0.2 * x + rng.standard_normal(80), x)
        d1 = ddp_fit(s_d, DdpConfig(seed=SeedSpec(52, 0), burn_in=50, n_save=10))
        d0 = ddp_fit(s_nd, DdpConfig(seed=SeedSpec(52, 1), burn_in=50, n_save=10))
        grid = np.linspace(0, 1, 2001)
        ens = ddp_roc(d1, d0, [1.0, 0.5], grid)
        for s in range(ens.n_draws):
            assert abs(ens.aucs[s] - np.trapezoid(ens.curves[s], grid)) < 1e-3

    def test_recovers_analytic_auc_on_linear_scenario(self):
        # n large enough that regression noise stays inside the band
        s_d, s_nd = gen_covariate_linear([0.5, 1.0], [0.0, 0.5], 1.0, 1.0,
                                         1500, 1500, seed=SeedSpec(53, 0))
        d1 = ddp_fit(s_d, DdpConfig(seed=SeedSpec(53, 1), burn_in=300, n_save=300))
        d0 = ddp_fit(s_nd, DdpConfig(seed=SeedSpec(53, 2), burn_in=300, n_save=300))
        for x in (0.1, 0.3, 0.5, 0.7, 0.9):
            a_x = -(0.5 + 0.5 * x)  # (mu_nd - mu_d) / sigma_d
            want = std_normal_cdf(-a_x / np.sqrt(2.0))
            got = ddp_roc(d1, d0, [1.0, x]).summarize().auc
            assert abs(got - want) < 0.04


def _stacked_rocglm(sample_d, cdf, baseline):
    """Reference: ``rocglm_fit`` as it was on the stacked design.

    One record per (subject, FPF point) in an (n_D * 50)-row matrix, a
    weighted copy of it per IRLS step, solved whole: ``lstsq`` for the
    parametric baseline, a QR of it then ``_nonneg_lstsq`` for the spline
    one.  Returns the coefficients, the iteration count and the warnings,
    as "all identical" or "clamped".
    """
    p_grid = np.arange(1, 51) / 51.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pv = placement_values(sample_d, cdf)
        n, n_p = pv.size, p_grid.size
        u = (pv[:, None] <= p_grid[None, :]).astype(float).ravel()
        if np.all(u == u[0]):
            warnings.warn("all identical", SeparationWarning)
        if baseline == "parametric":
            h = np.column_stack([np.ones(n_p), ndtri(p_grid)])
        else:
            h = np.column_stack([np.ones(n_p), _ispline_basis(p_grid, (0.25, 0.5, 0.75))])
        covs = sample_d.design[:, 1:]
        x_mat = np.hstack([np.tile(h, (n, 1)), np.repeat(covs, n_p, axis=0)])
        bounded = np.zeros(x_mat.shape[1], dtype=bool)
        if baseline == "spline":
            bounded[1:h.shape[1]] = True

        def deviance(b):
            mu = np.clip(ndtr(x_mat @ b), 1e-12, 1.0 - 1e-12)
            return -2.0 * float(u @ np.log(mu) + (1.0 - u) @ np.log1p(-mu))

        beta = np.zeros(x_mat.shape[1])
        dev = deviance(beta)
        for it in range(1, 101):
            eta = np.clip(x_mat @ beta, -8.0, 8.0)
            mu = np.clip(ndtr(eta), 1e-10, 1.0 - 1e-10)
            dens = np.maximum(np.exp(-0.5 * eta * eta) / np.sqrt(2.0 * np.pi), 1e-10)
            sw = np.sqrt(dens * dens / (mu * (1.0 - mu)))
            a_mat, rhs = x_mat * sw[:, None], (eta + (u - mu) / dens) * sw
            if baseline == "spline":
                proposal = _nonneg_on(a_mat, rhs, bounded)
            else:
                proposal = np.linalg.lstsq(a_mat, rhs, rcond=None)[0]
            new_dev = deviance(proposal)
            halvings = 0
            while new_dev > dev + 1e-10 and halvings < 30:
                proposal = 0.5 * (proposal + beta)
                new_dev = deviance(proposal)
                halvings += 1
            step = float(np.max(np.abs(proposal - beta)))
            beta = proposal
            done = abs(dev - new_dev) <= 1e-8 * (1.0 + abs(dev)) or step <= 1e-8
            dev = new_dev
            if done:
                break
        if float(np.max(np.abs(x_mat @ beta))) >= 8.0 - 1e-9:
            warnings.warn("clamped", SeparationWarning)
    return beta, it, [str(w.message) for w in caught]


def _separation_tags(caught):
    """The warnings of ``rocglm_fit`` in ``_stacked_rocglm``'s words."""
    assert all(w.category is SeparationWarning for w in caught)
    return ["all identical" if "all identical" in str(w.message) else "clamped"
            for w in caught]


def _rocglm_cohort(seed, n, covariate):
    """Diseased sample and nondiseased CDF of a covariate cohort: no
    covariate, a uniform one, or a constant one (a design of rank 1 less)."""
    rng = np.random.default_rng(seed)
    x_d, x_nd = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
    d = 1.0 + x_d + rng.standard_normal(n)
    nd = 0.5 + 1.2 * x_nd + rng.standard_normal(n)
    if covariate == "constant":
        x_d = np.full(n, 0.3)
    design_d = np.ones((n, 1)) if covariate == "none" else np.column_stack([np.ones(n), x_d])
    design_nd = np.ones((n, 1)) if covariate == "none" else np.column_stack([np.ones(n), x_nd])
    cdf = location_scale_cdf(ols_fit(RegressionSample(nd, design_nd)), "empirical")
    return RegressionSample(d, design_d), cdf


class TestRocGlmAgainstStackedDesign:
    """The blocked fit solves the stacked design's least squares, so it
    moves only by rounding: coefficients within 1e-6 (the constant
    covariate leaves an ill-conditioned direction), the same iteration
    count and the same warnings."""

    @pytest.mark.parametrize("baseline", ["parametric", "spline"])
    @pytest.mark.parametrize("covariate", ["none", "uniform", "constant"])
    @pytest.mark.parametrize("seed, n", [(1, 60), (2, 300), (3, 700)])
    def test_same_fit_as_the_stacked_design(self, baseline, covariate, seed, n):
        sample_d, cdf = _rocglm_cohort(seed, n, covariate)
        want, n_iter, warned = _stacked_rocglm(sample_d, cdf, baseline)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = rocglm_fit(sample_d, cdf, baseline=baseline)
        assert _separation_tags(caught) == warned
        assert fit.converged and fit.n_iter == n_iter
        got = np.concatenate([fit.alpha, fit.beta])
        assert np.max(np.abs(got - want)) <= 1e-6

    @pytest.mark.parametrize("baseline", ["parametric", "spline"])
    @pytest.mark.parametrize("shift, warned", [(50.0, ["all identical"]), (4.5, ["clamped"])])
    def test_same_separation_warnings(self, baseline, shift, warned):
        rng = np.random.default_rng(56)
        d = shift + rng.standard_normal(40)
        nd = rng.standard_normal(40)
        cdf = location_scale_cdf(ols_fit(_ones_sample(nd)), "empirical")
        want, n_iter, stacked_warned = _stacked_rocglm(_ones_sample(d), cdf, baseline)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = rocglm_fit(_ones_sample(d), cdf, baseline=baseline)
        assert _separation_tags(caught) == stacked_warned == warned
        assert fit.n_iter == n_iter
        assert np.max(np.abs(np.concatenate([fit.alpha, fit.beta]) - want)) <= 1e-6

    def test_memory_does_not_grow_with_the_stacked_design(self):
        # 20,000 subjects times 50 FPF points: the stacked design and its
        # weighted copy alone held 32 MB, and the fit peaked at 137 MB
        import tracemalloc

        sample_d, cdf = _rocglm_cohort(4, 20_000, "uniform")
        tracemalloc.start()
        try:
            fit = rocglm_fit(sample_d, cdf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.converged
        assert peak <= 8 * 2**20


class TestRocGlm:
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_covariate_rejected(self, value):
        # an infinite covariate once gave a constant curve with AUC 0.9975
        # (a NaN one: test_curve_at_a_nan_covariate_is_rejected)
        rng = np.random.default_rng(57)
        x_d, x_nd = rng.uniform(0, 1, 80), rng.uniform(0, 1, 80)
        s_d = _linear_sample(1.0 + x_d + rng.standard_normal(80), x_d)
        s_nd = _linear_sample(x_nd + rng.standard_normal(80), x_nd)
        cdf = location_scale_cdf(ols_fit(s_nd), "empirical")
        fit = rocglm_fit(s_d, cdf, p_grid=np.linspace(0.05, 0.95, 10))
        with pytest.raises(InvalidInputError, match="covariate values must be finite"):
            fit.curve([value])

    def test_indicator_example(self):
        # pv=0.3 against p_grid {0.1, 0.5}: I(pv <= p) = (0, 1)
        pv = 0.3
        assert tuple(int(pv <= p) for p in (0.1, 0.5)) == (0, 1)
        # and the fitted object exposes the same grid convention
        rng = np.random.default_rng(54)
        d = rng.normal(1, 1, 60)
        nd = rng.normal(0, 1, 60)
        cdf = location_scale_cdf(ols_fit(_ones_sample(nd)), "empirical")
        fit = rocglm_fit(_ones_sample(d), cdf, p_grid=np.array([0.1, 0.5]))
        assert np.array_equal(fit.p_grid, [0.1, 0.5])

    def test_binormal_recovery(self):
        rng = SeedSpec(55, 0).rng()
        d = 1.0 + rng.standard_normal(1000)
        nd = rng.standard_normal(1000)
        cdf = location_scale_cdf(ols_fit(_ones_sample(nd)), "empirical")
        fit = rocglm_fit(_ones_sample(d), cdf)
        assert fit.converged
        assert abs(fit.alpha[0] - 1.0) <= 0.15
        assert abs(fit.alpha[1] - 1.0) <= 0.15

    def test_null_curve_near_diagonal(self):
        rng = SeedSpec(55, 1).rng()
        d = rng.standard_normal(800)
        nd = rng.standard_normal(800)
        cdf = location_scale_cdf(ols_fit(_ones_sample(nd)), "empirical")
        curve = rocglm_fit(_ones_sample(d), cdf).curve([], np.linspace(0, 1, 101))
        assert abs(curve.auc - 0.5) <= 0.03

    def test_spline_baseline_monotone(self):
        rng = SeedSpec(55, 2).rng()
        d = 0.8 + rng.standard_normal(300)
        nd = rng.standard_normal(300)
        cdf = location_scale_cdf(ols_fit(_ones_sample(nd)), "empirical")
        fit = rocglm_fit(_ones_sample(d), cdf, baseline="spline")
        curve = fit.curve([], np.linspace(0, 1, 201))
        assert np.all(np.diff(curve.roc) >= -1e-9)
        assert curve.roc[0] == 0.0 and curve.roc[-1] == 1.0

    def test_separation_warns(self):
        # diseased placement values all hit 0: perfectly separated groups
        rng = np.random.default_rng(56)
        d = 50.0 + rng.standard_normal(40)
        nd = rng.standard_normal(40)
        cdf = location_scale_cdf(ols_fit(_ones_sample(nd)), "empirical")
        with pytest.warns(SeparationWarning):
            rocglm_fit(_ones_sample(d), cdf)

    def test_covariate_coefficient_sign(self):
        # stronger separation at larger x should give beta > 0
        s_d, s_nd = gen_covariate_linear([0.0, 2.0], [0.0, 0.0], 1.0, 1.0,
                                         800, 800, seed=SeedSpec(57, 0))
        cdf = location_scale_cdf(ols_fit(s_nd), "empirical")
        fit = rocglm_fit(s_d, cdf)
        assert fit.beta[0] > 0.5

    def test_curve_at_a_nan_covariate_is_rejected(self):
        s_d, s_nd = gen_covariate_linear([0.0, 2.0], [0.0, 0.0], 1.0, 1.0,
                                         100, 100, seed=SeedSpec(57, 1))
        fit = rocglm_fit(s_d, location_scale_cdf(ols_fit(s_nd), "empirical"))
        with pytest.raises(InvalidInputError, match="covariate values must be finite"):
            fit.curve([np.nan])


class TestAroc:
    def test_reduces_to_pooled_empirical(self):
        # sizes chosen so grid points never sit on placement-value jumps
        rng = SeedSpec(58, 0).rng()
        d, nd = rng.normal(1, 1, 150), rng.normal(0, 1, 157)
        cdf = location_scale_cdf(ols_fit(_ones_sample(nd)), "empirical")
        a = aroc(_ones_sample(d), cdf)
        e = empirical_roc(d, nd)
        assert np.max(np.abs(a.roc - e.roc)) <= 1.0 / 150

    def test_separated_groups(self):
        rng = np.random.default_rng(59)
        d = 100.0 + rng.standard_normal(30)
        nd = rng.standard_normal(30)
        cdf = location_scale_cdf(ols_fit(_ones_sample(nd)), "empirical")
        curve = aroc(_ones_sample(d), cdf)
        assert np.all(curve.roc[curve.grid > 0.0] == 1.0)

    def test_null_is_near_diagonal(self):
        rng = SeedSpec(58, 1).rng()
        x_d, x_nd = rng.uniform(0, 1, 400), rng.uniform(0, 1, 400)
        d = 1.0 * x_d + rng.standard_normal(400)
        nd = 1.0 * x_nd + rng.standard_normal(400)
        cdf = location_scale_cdf(ols_fit(_linear_sample(nd, x_nd)), "empirical")
        curve = aroc(_linear_sample(d, x_d), cdf)
        assert np.max(np.abs(curve.roc - curve.grid)) < 2.0 / np.sqrt(400)

    def test_placement_values_range_guard(self):
        d = np.array([0.5, 1.5])
        bad_cdf = lambda y, x: 1.5  # not a CDF
        with pytest.raises(Exception):
            placement_values(_ones_sample(d), bad_cdf)


class TestCovariateYouden:
    def test_identical_conditional_cdfs(self):
        cdf = lambda c: std_normal_cdf(np.asarray(c))
        res = youden_from_cdfs(cdf, cdf, -4, 4)
        assert res.yi == pytest.approx(0.0, abs=1e-12)

    def test_faraggi_unit_shift_closed_form(self):
        res = np.array([-1.0, 0.0, 1.0])
        fit_d = LocationScaleFit(beta=np.array([0.0, 2.0]), sigma=1.0, residuals=res)
        fit_nd = LocationScaleFit(beta=np.array([0.0, 1.0]), sigma=1.0, residuals=res)
        x = [1.0]  # mu_d - mu_nd = 1, equal unit scales
        y = location_scale_youden(fit_d, fit_nd, x, errors="normal")
        assert abs(y.yi - 0.3829) < 1e-4
        # c*(x) = mu_nd(x) + 0.5 sigma
        assert abs(y.c_star - (fit_nd.mean_at(x) + 0.5)) < 1e-6
        # p* = 1 - Phi((c* - mu_nd(x)) / sigma) = Phi(-0.5)
        assert abs(y.p_star - std_normal_cdf(-0.5)) < 1e-6

    def test_curve_and_cdf_forms_agree(self):
        rng = SeedSpec(60, 0).rng()
        x = rng.uniform(0, 1, 600)
        s_d = _linear_sample(0.7 + x + rng.standard_normal(600), x)
        x2 = rng.uniform(0, 1, 600)
        s_nd = _linear_sample(0.2 * x2 + rng.standard_normal(600), x2)
        fit_d, fit_nd = ols_fit(s_d), ols_fit(s_nd)
        at = [0.5]
        via_cdfs = location_scale_youden(fit_d, fit_nd, at, errors="normal")
        curve = faraggi_roc(fit_d, fit_nd, at, np.linspace(0, 1, 4001))
        from scipy.special import ndtri
        q_nd = lambda q: fit_nd.mean_at(at) + fit_nd.sigma * float(ndtri(q))
        via_curve = youden_from_curve(curve, q_nd)
        assert abs(via_cdfs.yi - via_curve.yi) < 1e-3
        assert abs(via_cdfs.c_star - via_curve.c_star) < 0.01


def _cohort(seed, n_d, n_nd, slope):
    # a linear-covariate cohort with a diseased shift and unequal scales
    rng = np.random.default_rng(seed)
    x_d, x_nd = rng.uniform(0, 1, n_d), rng.uniform(0, 1, n_nd)
    return (_linear_sample(1.0 + slope * x_d + rng.standard_normal(n_d), x_d),
            _linear_sample(slope * x_nd + 1.3 * rng.standard_normal(n_nd), x_nd))


def _covariate_curves(s_d, s_nd, at):
    fit_d, fit_nd = ols_fit(s_d), ols_fit(s_nd)
    cdf = location_scale_cdf(fit_nd, "empirical")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SeparationWarning)
        rocglm = rocglm_fit(s_d, cdf).curve([at])
    return {"faraggi": faraggi_roc(fit_d, fit_nd, [at]),
            "pepe": pepe_semiparam_roc(fit_d, fit_nd, [at]),
            "rocglm": rocglm, "aroc": aroc(s_d, cdf)}


def _permuted(sample, rng):
    order = rng.permutation(sample.n)
    return RegressionSample(sample.outcomes[order], sample.design[order])


def assert_nondecreasing_inside_bands(curve):
    assert np.all(np.diff(curve.roc) >= 0.0)
    assert np.all((curve.roc >= 0.0) & (curve.roc <= 1.0))
    if curve.band_lo is not None:
        assert np.all(curve.band_lo <= curve.roc) and np.all(curve.roc <= curve.band_hi)


cohorts = (st.integers(0, 2**32 - 1), st.integers(5, 80), st.integers(5, 80),
           st.floats(-2.0, 2.0), st.floats(0.0, 1.0))


class TestCovariateCurveProperties:
    @given(*cohorts)
    def test_curves_are_nondecreasing(self, seed, n_d, n_nd, slope, at):
        for curve in _covariate_curves(*_cohort(seed, n_d, n_nd, slope), at).values():
            assert_nondecreasing_inside_bands(curve)

    @settings(max_examples=40)
    @given(*cohorts)
    def test_short_ddp_chains_give_nondecreasing_curves_inside_their_bands(
            self, seed, n_d, n_nd, slope, at):
        s_d, s_nd = _cohort(seed, n_d, n_nd, slope)
        cfg = lambda stream: DdpConfig(seed=SeedSpec(seed, stream), burn_in=20, n_save=15)
        ens = ddp_roc(ddp_fit(s_d, cfg(0)), ddp_fit(s_nd, cfg(1)), np.array([1.0, at]))
        assert np.all(np.diff(ens.curves, axis=1) >= 0.0)
        summary = ens.summarize()
        assert summary.band_lo is not None
        assert_nondecreasing_inside_bands(summary)

    @given(*cohorts)
    def test_permuting_subjects_changes_nothing(self, seed, n_d, n_nd, slope, at):
        # the least-squares fits add in subject order, so the smooth
        # curves may move in the last bits, and no more
        s_d, s_nd = _cohort(seed, n_d, n_nd, slope)
        rng = np.random.default_rng(seed)
        before = _covariate_curves(s_d, s_nd, at)
        after = _covariate_curves(_permuted(s_d, rng), _permuted(s_nd, rng), at)
        for name, curve in before.items():
            assert np.allclose(curve.roc, after[name].roc, rtol=0.0, atol=1e-12), name
            assert curve.auc == pytest.approx(after[name].auc, rel=0.0, abs=1e-12), name
