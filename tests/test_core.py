import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import roclab
from roclab import (InvalidInputError, SeedSpec, as_prob_grid, default_prob_grid,
                    dirichlet_uniform, ecdf, kernel_cdf, quantile, std_normal_cdf,
                    std_normal_quantile, validate_sample)
from roclab.core import _worker_count, ordered_map


class TestSeedSpec:
    def test_same_spec_same_stream(self):
        a = SeedSpec(12345, 2).rng().standard_normal(8)
        b = SeedSpec(12345, 2).rng().standard_normal(8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = SeedSpec(12345, 0).rng().standard_normal(8)
        b = SeedSpec(12345, 1).rng().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_child_streams(self):
        a = SeedSpec(7, 0).rng(3).standard_normal(4)
        b = SeedSpec(7, 0).rng(3).standard_normal(4)
        c = SeedSpec(7, 0).rng(4).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (2**64, 0), (0, -1)])
    def test_rejects_out_of_range(self, seed, stream):
        with pytest.raises(InvalidInputError):
            SeedSpec(seed, stream)


class TestValidateSample:
    def test_passes_through(self):
        out = validate_sample([3, 1, 2], "x")
        assert out.dtype == float and out.shape == (3,)

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            validate_sample([], "x")

    def test_rejects_nan_and_inf(self):
        with pytest.raises(InvalidInputError):
            validate_sample([1.0, np.nan], "x")
        with pytest.raises(InvalidInputError):
            validate_sample([1.0, np.inf], "x")

    def test_rejects_matrix(self):
        with pytest.raises(InvalidInputError):
            validate_sample(np.ones((2, 2)), "x")

    def test_min_size(self):
        with pytest.raises(InvalidInputError):
            validate_sample([1.0], "x", min_size=2)


class TestEcdf:
    def test_direct_count(self):
        assert ecdf([1, 2, 3], 2.0) == 2 / 3

    def test_at_max_is_one(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=40)
        assert ecdf(y, float(y.max())) == 1.0

    def test_ties_at_threshold(self):
        assert ecdf([0, 0, 1], 0.0) == 2 / 3

    def test_vector_evaluation(self):
        vals = ecdf([1, 2, 3], np.array([0.5, 1.0, 3.5]))
        assert np.array_equal(vals, [0.0, 1 / 3, 1.0])

    def test_right_continuity(self):
        y = [1.0, 2.0]
        assert ecdf(y, 1.0) == 0.5
        assert ecdf(y, np.nextafter(1.0, 0.0)) == 0.0


class TestQuantile:
    def test_order_statistics(self):
        assert quantile([1, 2, 3], 1.0) == 3.0
        assert quantile([1, 2, 3], 0.5) == 2.0
        assert quantile([5], 0.01) == 5.0

    def test_left_continuous_inverse_on_dyadic_boundaries(self):
        # with n a power of two, every level k/n is float-exact and must
        # select exactly the k-th order statistic
        y = np.arange(1.0, 65.0)
        for k in range(1, 65):
            assert quantile(y, k / 64) == float(k)

    def test_non_dyadic_boundary_follows_float_value(self):
        # the generalized inverse respects the exact binary value of p, so
        # whether k/n selects order statistic k or k+1 depends on which way
        # the float rounded
        from fractions import Fraction
        y = np.arange(1.0, 501.0)
        p = 1 / 500
        expected = 2.0 if Fraction(p) > Fraction(1, 500) else 1.0
        assert quantile(y, p) == expected
        assert quantile(y, np.nextafter(p, 0.0)) == 1.0

    def test_matches_brute_force_rank(self):
        rng = np.random.default_rng(42)
        y = np.sort(rng.normal(size=37))
        levels = np.arange(1, 38) / 37
        for p in rng.uniform(0.001, 1.0, 200):
            idx = int(np.argmax(levels >= p))  # smallest index with ECDF >= p
            assert quantile(y, float(p)) == y[idx]

    def test_rejects_zero_and_out_of_range(self):
        with pytest.raises(InvalidInputError):
            quantile([1, 2], 0.0)
        with pytest.raises(InvalidInputError):
            quantile([1, 2], 1.5)


class TestNormalHelpers:
    def test_cdf_symmetry(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_cdf_value(self):
        # Phi(1/sqrt 2) = (1 + erf(1/2)) / 2 = 0.76024993890652...
        assert abs(std_normal_cdf(2.0 ** -0.5) - 0.7602499389065233) < 1e-12

    def test_quantile_round_trip(self):
        assert abs(std_normal_quantile(std_normal_cdf(1.3)) - 1.3) < 1e-10

    def test_quantile_domain(self):
        with pytest.raises(InvalidInputError):
            std_normal_quantile(0.0)
        with pytest.raises(InvalidInputError):
            std_normal_quantile(1.0)


class TestDirichletUniform:
    def test_singleton(self):
        w = dirichlet_uniform(1, SeedSpec(0, 0))
        assert np.array_equal(w, [1.0])

    def test_deterministic(self):
        a = dirichlet_uniform(4, SeedSpec(9, 1))
        b = dirichlet_uniform(4, SeedSpec(9, 1))
        assert np.array_equal(a, b)

    def test_simplex(self):
        w = dirichlet_uniform(6, SeedSpec(2, 0))
        assert np.all(w >= 0) and abs(w.sum() - 1.0) < 1e-12

    def test_mean_is_uniform(self):
        # flat Dirichlet has mean 1/n per coordinate
        rng = SeedSpec(5, 0).rng()
        draws = np.array([dirichlet_uniform(3, rng) for _ in range(100_000)])
        assert np.all(np.abs(draws.mean(axis=0) - 1 / 3) < 0.01)


class TestProbGrid:
    def test_default_grid(self):
        g = default_prob_grid()
        assert g[0] == 0.0 and g[-1] == 1.0 and g.size == 201

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidInputError):
            as_prob_grid([0.0, 0.5, 0.4, 1.0])

    def test_rejects_outside_unit(self):
        with pytest.raises(InvalidInputError):
            as_prob_grid([-0.1, 0.5])


def run_with_timeout(fn, seconds=60.0):
    """Run ``fn`` on a fresh thread; fail if it has not returned in ``seconds``."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except Exception as exc:  # re-raised on the test's thread
            box["error"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), "ordered_map did not return"
    if "error" in box:
        raise box["error"]
    return box["result"]


class TestOrderedMap:
    def test_worker_count_follows_the_cpu_affinity(self):
        if hasattr(os, "sched_getaffinity"):
            assert _worker_count() == len(os.sched_getaffinity(0))
        assert _worker_count() >= 1

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_results_in_item_order(self, force_workers, workers):
        force_workers(workers)

        def slow_square(x):
            time.sleep(0.002 * (x % 3))  # later items often finish first
            return x * x

        assert run_with_timeout(lambda: ordered_map(slow_square, range(20))) == [
            x * x for x in range(20)]
        assert ordered_map(slow_square, []) == []
        assert ordered_map(slow_square, iter([4])) == [16]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failing_item_in_order_is_raised(self, force_workers, workers):
        force_workers(workers)

        def fail_at_3_and_5(x):
            if x == 3:
                time.sleep(0.05)  # item 5 fails first in time
            if x in (3, 5):
                raise ValueError(x)
            return x

        with pytest.raises(ValueError) as err:
            run_with_timeout(lambda: ordered_map(fail_at_3_and_5, range(8)))
        assert err.value.args == (3,)

    def test_nested_call_in_a_worker_runs_serially(self, force_workers):
        force_workers(2)

        def outer(x):
            names = ordered_map(lambda y: threading.current_thread().name, range(3))
            return threading.current_thread().name, names

        results = run_with_timeout(lambda: ordered_map(outer, range(6)))
        for name, inner in results:
            assert name.startswith("roclab")
            assert inner == [name] * 3

    def test_more_workers_than_cpus_under_fast_switching(self, force_workers):
        # blocks write disjoint slices of one output array
        rng = np.random.default_rng(3)
        sample, points = rng.normal(size=3000), rng.normal(size=900)
        force_workers(1)
        serial = kernel_cdf(sample, 0.3, points)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            force_workers(8)
            for _ in range(5):
                got = run_with_timeout(lambda: kernel_cdf(sample, 0.3, points))
                assert np.array_equal(got, serial)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_a_fresh_pool(self):
        # the parent's pool threads do not exist in the child: a child that
        # reused the pool would wait on them forever
        code = """
import os, sys, time
import numpy as np
import roclab.core
from roclab import kernel_auc
roclab.core._worker_count = lambda: 2
rng = np.random.default_rng(4)
d, nd = rng.normal(1, 1, 2000), rng.normal(0, 1, 2000)
want = kernel_auc(d, nd, 0.2, 0.2)
assert roclab.core._pool is not None
pid = os.fork()
if pid == 0:
    os._exit(0 if kernel_auc(d, nd, 0.2, 0.2) == want else 1)
for _ in range(600):
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(os.waitstatus_to_exitcode(status))
    time.sleep(0.1)
os.kill(pid, 9)
sys.exit("child did not finish within 60 s")
"""
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(roclab.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
