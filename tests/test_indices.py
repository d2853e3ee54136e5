import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from roclab import (InvalidInputError, RocCurveEstimate, YoudenResult, auc_from_curve,
                    quantile, std_normal_cdf, youden_empirical, youden_from_cdfs,
                    youden_from_curve)
from roclab.indices import _step_candidates, _step_youden


def _binormal_cdfs(mu=1.0, sigma=1.0):
    cdf_d = lambda c: std_normal_cdf((np.asarray(c) - mu) / sigma)
    cdf_nd = lambda c: std_normal_cdf(np.asarray(c))
    return cdf_d, cdf_nd


class TestAucFromCurve:
    def test_diagonal(self):
        g = np.linspace(0, 1, 101)
        curve = RocCurveEstimate(grid=g, roc=g, auc=0.5)
        assert auc_from_curve(curve) == pytest.approx(0.5, abs=1e-15)

    def test_perfect(self):
        g = np.linspace(0, 1, 101)
        r = np.ones_like(g)
        r[0] = 0.0
        curve = RocCurveEstimate(grid=g, roc=r, auc=1.0)
        assert auc_from_curve(curve) == pytest.approx(0.995, abs=1e-12)

    def test_binormal_closed_form(self):
        # trapezoid of Phi(1 + Phi^{-1}(p)) on 2001 points vs Phi(1/sqrt 2)
        from roclab import true_binormal_roc
        g = np.linspace(0, 1, 2001)
        curve = RocCurveEstimate(grid=g, roc=true_binormal_roc(1, 1, g), auc=0.5)
        assert abs(auc_from_curve(curve) - 0.76025) < 5e-4


class TestYoudenFromCdfs:
    def test_identical_cdfs_gives_zero(self):
        cdf = lambda c: std_normal_cdf(np.asarray(c))
        res = youden_from_cdfs(cdf, cdf, -5, 5)
        assert res.yi == pytest.approx(0.0, abs=1e-12)

    def test_binormal_calculus_oracle(self):
        # equal variances: the gap Phi(c) - Phi(c-1) peaks at the midpoint
        cdf_d, cdf_nd = _binormal_cdfs()
        res = youden_from_cdfs(cdf_d, cdf_nd, -6, 6)
        assert abs(res.c_star - 0.5) < 1e-6
        assert abs(res.yi - (std_normal_cdf(0.5) - std_normal_cdf(-0.5))) < 1e-10
        assert abs(res.yi - 0.3829) < 1e-4
        assert abs(res.p_star - std_normal_cdf(-0.5)) < 1e-6

    def test_unequal_variance_against_grid_scan(self):
        mu, sigma = 1.3, 1.7
        cdf_d, cdf_nd = _binormal_cdfs(mu, sigma)
        res = youden_from_cdfs(cdf_d, cdf_nd, -8, 8)
        c = np.linspace(-8, 8, 2_000_001)
        gaps = cdf_nd(c) - cdf_d(c)
        k = np.argmax(gaps)
        assert abs(res.c_star - c[k]) < 1e-4
        assert res.yi >= gaps[k] - 1e-12

    def test_candidates_are_honored(self):
        d = np.array([1.0, 3.0])
        nd = np.array([0.0, 2.0])
        from roclab import ecdf
        res = youden_from_cdfs(lambda c: ecdf(d, c), lambda c: ecdf(nd, c),
                               -1, 4, candidates=np.concatenate([d, nd]))
        assert res.yi == 0.5
        assert res.c_star in (0.0, 1.0, 2.0, 3.0)

    def test_reversed_marker_gets_the_everyone_positive_rule_without_warning(self):
        # reversed marker and a search window inside the supports: every
        # gap is negative, so the rule that scores exactly 0 wins
        cdf_d, cdf_nd = _binormal_cdfs(mu=-1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = youden_from_cdfs(cdf_d, cdf_nd, -0.5, 0.5)
        assert (res.yi, res.c_star, res.p_star) == (0.0, -0.5, 1.0)

    def test_invalid_interval(self):
        cdf_d, cdf_nd = _binormal_cdfs()
        with pytest.raises(InvalidInputError):
            youden_from_cdfs(cdf_d, cdf_nd, 2.0, -2.0)


class TestYoudenFromCurve:
    def test_diagonal_zero(self):
        g = np.linspace(0, 1, 51)
        curve = RocCurveEstimate(grid=g, roc=g, auc=0.5)
        res = youden_from_curve(curve, lambda q: q)
        assert res.yi == 0.0

    def test_unique_max_gap(self):
        g = np.array([0.0, 0.2, 1.0])
        r = np.array([0.0, 0.8, 1.0])
        curve = RocCurveEstimate(grid=g, roc=r, auc=0.8)
        res = youden_from_curve(curve, lambda q: 1.0 - q)
        assert res.yi == pytest.approx(0.6)
        assert res.p_star == pytest.approx(0.2)
        assert res.c_star == pytest.approx(0.2)  # quantile callback at 1-p*

    def test_binormal_dense_grid(self):
        from roclab import true_binormal_roc
        g = np.linspace(0, 1, 4001)
        curve = RocCurveEstimate(grid=g, roc=true_binormal_roc(1, 1, g), auc=0.76)
        from scipy.special import ndtri
        res = youden_from_curve(curve, lambda q: float(ndtri(q)))
        assert abs(res.yi - 0.3829) < 1e-3
        assert abs(res.p_star - 0.3085) < 2e-3

    def test_zero_gap_ties_break_to_all_positive(self):
        # on a flat gap the largest p wins, which maps to threshold -inf
        g = np.array([0.0, 1.0])
        curve = RocCurveEstimate(grid=g, roc=g.copy(), auc=0.5)
        res = youden_from_curve(curve, lambda q: quantile([1.0, 2.0], q))
        assert res.yi == 0.0
        assert res.p_star == 1.0 and res.c_star == -np.inf


class TestYoudenEmpirical:
    def test_matches_one_sided_ks_exactly(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            n1, n0 = rng.integers(5, 101), rng.integers(5, 101)
            d = np.round(rng.normal(1, 1, n1), 1)
            nd = np.round(rng.normal(0, 1, n0), 1)
            res = youden_empirical(d, nd)
            ks = ks_2samp(nd, d, alternative="greater").statistic
            assert res.yi == float(ks)

    def test_complete_separation(self):
        res = youden_empirical([10.0, 11.0], [1.0, 2.0])
        assert res.yi == 1.0
        assert 2.0 <= res.c_star <= 10.0

    def test_identical_samples_zero(self):
        res = youden_empirical([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.yi == 0.0

    def test_p_star_is_fpf_at_threshold(self):
        rng = np.random.default_rng(16)
        d, nd = rng.normal(1, 1, 40), rng.normal(0, 1, 30)
        res = youden_empirical(d, nd)
        assert res.p_star == np.mean(nd > res.c_star)

    def test_single_division_rounding(self):
        # the gap is carried as integer counts; only one float division
        d = np.array([0.4, 0.9, 1.3] + [2.0] * 21)   # n=24
        nd = np.array([-1.0] * 33 + [5.0] * 22)      # n=55
        res = youden_empirical(d, nd)
        assert res.yi == 0.6          # 792/1320 correctly rounded
        assert res.c_star == -1.0     # first max = smallest threshold

    def test_reversed_marker_floors_at_zero(self):
        res = youden_empirical([0.0, 1.0], [10.0, 11.0])
        assert res.yi == 0.0
        assert res.p_star == 1.0


# a small weighted sample: values on a coarse lattice (so ties are common)
# with positive weights
weighted_sample = st.lists(st.tuples(st.integers(0, 6), st.floats(0.01, 1.0)),
                           min_size=1, max_size=12)


def step_inputs(sample_d, sample_nd):
    """Candidates and cumulative weights of the step rule, as ``bb_roc`` builds them."""
    sides = []
    for sample in (sample_d, sample_nd):
        values, weights = (np.array(v, dtype=float) for v in zip(*sample))
        order = np.argsort(values, kind="stable")
        sides.append((values[order], weights[order]))
    cand, pos_d, pos_nd = _step_candidates(sides[0][0], sides[1][0])
    cum = [np.concatenate([[0.0], np.cumsum(w)])[pos]
           for (_, w), pos in zip(sides, (pos_d, pos_nd))]
    return cand, cum[0], cum[1]


def exact_gaps(cand, sample_d, sample_nd):
    """``F_ND(c) - F_D(c)`` at every candidate, in exact rationals."""
    def ecdf(sample, c):
        total = sum(Fraction(w) for _, w in sample)
        return sum(Fraction(w) for v, w in sample if v <= c) / total
    return [ecdf(sample_nd, c) - ecdf(sample_d, c) for c in cand]


class TestStepRule:
    """The step rule shared by ``youden_empirical`` and ``bb_roc``'s draws."""

    @given(weighted_sample, weighted_sample)
    def test_argmax_matches_the_exact_rationals(self, sample_d, sample_nd):
        cand, cum_d, cum_nd = step_inputs(sample_d, sample_nd)
        yi, c_star, _ = _step_youden(cand, cum_d, cum_nd)
        gaps = exact_gaps(cand, sample_d, sample_nd)
        best = max(gaps)
        k = gaps.index(best)  # first max = smallest threshold
        runner_up = max(gaps[:k] + gaps[k + 1:], default=best - 1)
        assert abs(yi - best) <= 1e-12
        if best - runner_up > 1e-12:
            assert c_star == cand[k]

    @given(weighted_sample, weighted_sample)
    def test_trivial_rules_score_exactly_zero(self, sample_d, sample_nd):
        cand, cum_d, cum_nd = step_inputs(sample_d, sample_nd)
        # everyone positive (below the minimum) and everyone negative (at
        # the maximum) alone: a tie at exactly 0, which the first one wins
        ends = [0, -1]
        assert _step_youden(cand[ends], cum_d[ends], cum_nd[ends]) == (0.0, cand[0], 1.0)
        assert _step_youden(cand[-1:], cum_d[-1:], cum_nd[-1:]) == (0.0, cand[-1], 0.0)
        assert _step_youden(cand, cum_d, cum_nd)[0] >= 0.0

    @given(weighted_sample, weighted_sample)
    def test_p_star_is_a_probability_as_computed(self, sample_d, sample_nd):
        yi, _, p_star = _step_youden(*step_inputs(sample_d, sample_nd))
        assert 0.0 <= p_star <= 1.0
        assert 0.0 <= yi <= 1.0

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=25),
           st.lists(st.integers(-30, 30), min_size=1, max_size=25), st.randoms())
    def test_empirical_invariant_to_order_and_increasing_transforms(self, d, nd, random):
        d, nd = np.array(d) / 10.0, np.array(nd) / 10.0
        res = youden_empirical(d, nd)
        shuffled = youden_empirical(random.sample(list(d), d.size),
                                    random.sample(list(nd), nd.size))
        assert shuffled == res
        moved = youden_empirical(np.exp(d), np.exp(nd))
        assert (moved.yi, moved.p_star) == (res.yi, res.p_star)
        if res.c_star in np.concatenate([d, nd]):
            assert moved.c_star == np.exp(res.c_star)


class TestYoudenResultType:
    def test_rejects_nan_threshold(self):
        with pytest.raises(InvalidInputError):
            YoudenResult(yi=0.5, c_star=np.nan, p_star=0.3)

    def test_rejects_out_of_range_yi(self):
        with pytest.raises(InvalidInputError):
            YoudenResult(yi=1.5, c_star=0.0, p_star=0.3)
