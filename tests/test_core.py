import ast
import glob
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import roclab
from roclab import (DegenerateSampleError, InvalidInputError, NumericError, SeedSpec,
                    as_prob_grid, default_prob_grid,
                    dirichlet_uniform, ecdf, quantile, std_normal_cdf,
                    std_normal_quantile, validate_sample)
from roclab.core import _worker_count, forked_spans


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


class TestNormalUfuncSeam:
    """``core.ndtr`` and ``core.ndtri`` are scipy's own ufuncs, loaded
    without running ``scipy.special``'s package."""

    @pytest.mark.parametrize("first", ["roclab.core", "scipy.special"])
    def test_seam_gives_the_objects_scipy_special_exports(self, first):
        run_script(f"import sys\nimport {first}\nimport roclab.core as core\n"
                   "ndtr, ndtri = core.ndtr, core.ndtri\n"
                   f"assert ('scipy.special' in sys.modules) == {first == 'scipy.special'}\n"
                   "import scipy.special\n"
                   "assert ndtr is scipy.special.ndtr and ndtri is scipy.special.ndtri")

    def test_failed_load_leaves_sys_modules_unchanged(self):
        # the last module fails to load after the first five registered
        run_script("import sys\nfrom importlib.machinery import PathFinder\n"
                   "import scipy, roclab.core as core\n"
                   "find = PathFinder.find_spec\n"
                   "def fail(name, path=None, target=None):\n"
                   "    if name == 'scipy.special._ufuncs':\n"
                   "        raise ImportError('refused')\n"
                   "    return find(name, path, target)\n"
                   "PathFinder.find_spec = fail\n"
                   "before = dict(sys.modules)\n"
                   "try:\n    core.ndtr\nexcept ImportError as exc:\n"
                   "    assert str(exc) == 'refused'\n"
                   "else:\n    raise AssertionError('the load did not fail')\n"
                   "assert sys.modules == before\n"
                   "PathFinder.find_spec = find\n"
                   "import scipy.special\n"
                   "assert core.ndtr is scipy.special.ndtr")

    def test_only_the_seam_names_scipy_special_and_no_call_passes_where(self):
        # every module takes Phi from the seam (as core.ndtr, or a name
        # bound to it); where= writes wrong values on scipy 1.17.1
        src = os.path.dirname(roclab.__file__)
        imports, named, masked = [], set(), []
        for path in sorted(glob.glob(os.path.join(src, "*.py"))):
            module = os.path.basename(path)
            with open(path) as fh:
                tree = ast.parse(fh.read())
            ufuncs = {"ndtr", "ndtri"}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imports += [(module, a.name) for a in node.names
                                if a.name.startswith("scipy.special")]
                elif isinstance(node, ast.ImportFrom):
                    if (node.module or "").startswith("scipy.special"):
                        imports.append((module, node.module))
                    ufuncs |= {a.asname for a in node.names if a.name in ufuncs and a.asname}
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and node.value.startswith("scipy.special")):
                    named.add(module)
                elif isinstance(node, ast.Assign) and getattr(node.value, "attr", None) in ufuncs:
                    ufuncs |= {t.id for t in node.targets if isinstance(t, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if callee in ufuncs and any(k.arg in ("where", None) for k in node.keywords):
                        masked.append((module, node.lineno))
        assert imports == [] and named == {"core.py"} and masked == []

    def test_other_names_raise_attribute_error(self):
        import roclab.core

        with pytest.raises(AttributeError, match="no_such_name"):
            roclab.core.no_such_name  # noqa: B018


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
    assert not t.is_alive(), "the call did not return"
    if "error" in box:
        raise box["error"]
    return box["result"]


def run_script(code, seconds=60):
    """Run ``code`` in a fresh interpreter that imports this roclab; fail
    if it does not exit 0 within ``seconds``."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(roclab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=seconds)
    assert proc.returncode == 0, proc.stderr


def test_worker_count_follows_the_cpu_affinity():
    if hasattr(os, "sched_getaffinity"):
        assert _worker_count() == len(os.sched_getaffinity(0))
    assert _worker_count() >= 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedSpans:
    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_results_in_span_order(self, force_workers, workers):
        force_workers(workers)

        def squares(start, stop):
            time.sleep(0.002 * (3 - start % 3))  # later spans often finish first
            return [x * x for x in range(start, stop)], os.getpid()

        got = run_with_timeout(lambda: forked_spans(squares, 12, True))
        assert len(got) == workers
        assert [v for values, _ in got for v in values] == [x * x for x in range(12)]
        # the first span runs in the caller, each other one in a child of its own
        pids = [pid for _, pid in got]
        assert pids[0] == os.getpid() and len(set(pids)) == workers
        serial = ([x * x for x in range(12)], os.getpid())
        assert forked_spans(squares, 12, False) == [serial]
        assert forked_spans(squares, 1, True) == [([0], os.getpid())]
        assert forked_spans(squares, 0, True) == [([], os.getpid())]

    def test_result_larger_than_the_pipe_buffer(self, force_workers):
        force_workers(2)
        got = run_with_timeout(lambda: forked_spans(
            lambda start, stop: np.arange(start << 20, stop << 20, dtype=float), 2, True))
        assert np.array_equal(got[1], np.arange(1 << 20, 2 << 20, dtype=float))

    def test_child_exception_keeps_its_type_and_message(self, force_workers):
        force_workers(2)

        def fit(start, stop):
            if start == 1:
                raise DegenerateSampleError("zero residual variance: mixture fit undefined")
            return start

        with pytest.raises(DegenerateSampleError, match="^zero residual variance"):
            run_with_timeout(lambda: forked_spans(fit, 2, True))

    def test_first_exception_in_span_order_wins(self, force_workers):
        force_workers(3)

        def fail(start, stop):
            if start == 0:
                time.sleep(0.2)  # the children fail first in time
            raise ValueError(start)

        with pytest.raises(ValueError) as err:
            run_with_timeout(lambda: forked_spans(fail, 3, True))
        assert err.value.args == (0,)

        def fail_later(start, stop):
            if start == 2:
                raise ValueError(start)
            if start == 1:
                time.sleep(0.2)
                raise KeyError(start)
            return start

        with pytest.raises(KeyError):
            run_with_timeout(lambda: forked_spans(fail_later, 3, True))

    def test_killed_child_raises_instead_of_hanging(self, force_workers):
        force_workers(2)
        parent = os.getpid()

        def die(start, stop):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return start

        with pytest.raises(NumericError, match=r"exit status -9"):
            run_with_timeout(lambda: forked_spans(die, 2, True))

    def test_one_cpu_runs_one_span_here(self, force_workers):
        force_workers(1)
        assert forked_spans(lambda a, b: (a, b, os.getpid()), 3, True) == [(0, 3, os.getpid())]

    def test_inside_the_callers_part_runs_one_span_here(self, force_workers):
        force_workers(2)

        def outer(start, stop):
            return forked_spans(lambda a, b: [(os.getpid(), threading.get_ident())
                                              for _ in range(a, b)], 3, True)

        (inner,) = run_with_timeout(lambda: forked_spans(outer, 1, True))
        assert len(inner) == 1  # one span, in the caller's part
        assert [pid for pid, _ in inner[0]] == [os.getpid()] * 3
        assert len({tid for _, tid in inner[0]}) == 1

    def test_nested_spans_in_a_child_run_serially(self, force_workers):
        # in the child and in the caller's own part alike
        force_workers(2)
        got = run_with_timeout(lambda: forked_spans(
            lambda a, b: forked_spans(lambda c, d: [os.getpid()] * (d - c), 3, True), 2, True))
        assert got[0] == [[os.getpid()] * 3]
        assert got[1] == [[got[1][0][0]] * 3] and got[1][0][0] != os.getpid()

    def test_nested_spans_in_a_part_leave_no_mark(self, force_workers):
        force_workers(2)

        def part(start, stop):
            return forked_spans(lambda a, b: (a, b, os.getpid()), 4, True)

        def run():
            # the caller's own part leaves no mark on the caller
            return forked_spans(part, 2, True), roclab.core._in_part

        inner, in_part_after = run_with_timeout(run)
        assert inner[0] == [(0, 4, os.getpid())]
        assert len(inner[1]) == 1 and inner[1][0][:2] == (0, 4)
        assert inner[1][0][2] != os.getpid()
        assert not in_part_after

    @pytest.mark.parametrize("fork", ["raises", "missing"])
    def test_spans_left_in_the_caller_run_as_parts(self, force_workers, monkeypatch, fork):
        # when os.fork raises, the spans it could not start run here; where
        # it does not exist there is one span.  Either way each is a part,
        # so its nested spans run as one span here
        force_workers(3)
        if fork == "raises":
            def no_fork():
                raise OSError("no process to spare")

            monkeypatch.setattr(os, "fork", no_fork)
        else:
            monkeypatch.delattr(os, "fork")

        def part(start, stop):
            nested = forked_spans(lambda a, b: (a, b), 4, True)
            return [(x, roclab.core._in_part, nested) for x in range(start, stop)]

        spans = run_with_timeout(lambda: forked_spans(part, 3, True))
        assert len(spans) == (3 if fork == "raises" else 1)
        got = [item for span in spans for item in span]
        assert [x for x, _, _ in got] == [0, 1, 2]
        assert all(in_part and nested == [(0, 4)] for _, in_part, nested in got)
        assert not roclab.core._in_part

    def test_fork_after_blas_has_run(self):
        # the BLAS threads of the parent do not exist in the child; the
        # chains must still come back, equal to serial ones
        run_script("""
import numpy as np
import roclab.core
from roclab import DpmConfig, SeedSpec, dpm_fit
from roclab.core import forked_spans
roclab.core._worker_count = lambda: 2
rng = np.random.default_rng(4)
d, nd = rng.normal(1, 1, 2000), rng.normal(0, 1, 2000)
a = rng.normal(size=(400, 400))
np.linalg.inv(a @ a.T + 400 * np.eye(400))
jobs = [(d[:300], DpmConfig(seed=SeedSpec(5, 1), burn_in=20, n_save=20)),
        (nd[:300], DpmConfig(seed=SeedSpec(5, 2), burn_in=20, n_save=20))]
spans = forked_spans(lambda a, b: [dpm_fit(*job) for job in jobs[a:b]], 2, True)
assert [len(span) for span in spans] == [1, 1]
serial = [dpm_fit(*job) for job in jobs]
for (f,), s in zip(spans, serial):
    for name in ("weights", "locations", "variances"):
        assert np.array_equal(getattr(f, name), getattr(s, name))
""")
