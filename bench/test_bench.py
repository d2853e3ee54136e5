"""Tests of the benchmark itself, at the smoke size (tiny inputs).

    python -m pytest -q bench
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import numpy
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
SMOKE = workloads.SIZES["smoke"]


@pytest.fixture
def isolated(monkeypatch):
    """Run ``run.main`` from the repository root and undo what it sets."""
    monkeypatch.chdir(ROOT)
    for var in run.THREAD_VARS + ("PYTHONPATH",):
        monkeypatch.setenv(var, os.environ.get(var, ""))
    monkeypatch.setattr(sys, "path", list(sys.path))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_checks_outputs_and_reports_every_metric(workload, trace, tmp_path,
                                                           capsys, isolated):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "smoke", "--out", str(tmp_path)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: m["unit"] for k, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in expected})
    with open(tmp_path / f"{workload}-seed3-trace{trace}.json") as fh:
        report = json.load(fh)
    assert report["env"]["nproc"] >= 1 and report["seed"] == 3
    if trace:
        roots = [s for s in report["spans"] if s["run"] == "pass" and s["parent"] is None]
        assert roots and all(s["name"] == "cli.main" for s in roots)
        assert set(report["spans"][0]) == {"name", "start", "end", "parent", "run",
                                           "raised", "counts"}


def test_wrong_expected_value_is_a_failed_analysis_not_a_crash(tmp_path):
    analyses = workloads.bayes_mixture(SMOKE, 3, str(tmp_path))
    analyses[0].checks = [checks.auc_near(0.1, 0.01)]
    result = workloads.run_pass(analyses, workloads.run_in_process, str(tmp_path / "out"))
    assert (result.attempted, result.failed) == (2, 1)
    assert result.failures[0].startswith("pooled_dpm: auc")


def test_failed_exit_is_a_failed_analysis(tmp_path):
    bad = workloads.Analysis("missing", ["pooled", "--input", str(tmp_path / "none.csv")],
                             workloads.CURVE, [])
    result = workloads.run_pass([bad], workloads.run_in_process, str(tmp_path / "out"))
    assert (result.attempted, result.failed) == (1, 1)
    assert "exit code 2" in result.failures[0]


def test_tracer_nests_spans_and_restores_the_originals(tmp_path):
    # the package re-exports the function timedep_roc over its submodule
    cli, pooled, timedep = (importlib.import_module(f"roclab.{m}")
                            for m in ("cli", "pooled_roc", "timedep_roc"))
    targets = [(cli, "dpm_fit"), (pooled, "youden_from_cdfs"), (timedep, "timedep_auc"),
               (pooled.PosteriorEnsemble, "summarize")]
    before = [getattr(owner, attr) for owner, attr in targets]
    analyses = workloads.bayes_mixture(SMOKE, 3, str(tmp_path))[:1]
    tracer = spans.Tracer()
    with tracer.recording("pass"):
        assert all(getattr(o, a) is not f for (o, a), f in zip(targets, before))
        workloads.run_pass(analyses, workloads.run_in_process, str(tmp_path / "out"))
    assert [getattr(owner, attr) for owner, attr in targets] == before

    names = [s.name for s in tracer.spans]
    for name in ("cli.main", "cli.read_cohort", "pooled_roc.dpm_fit", "pooled_roc.dpm_roc",
                 "indices.youden_from_cdfs", "pooled_roc.summarize"):
        assert name in names
    for s in tracer.spans:
        if s.name == "indices.youden_from_cdfs":
            assert tracer.spans[s.parent].name == "pooled_roc.dpm_roc"
    metrics = tracer.layer_metrics(["pass"])
    burn_in, n_save = SMOKE["mix_mcmc"]
    assert metrics["pooled_roc.dpm_fit.sweeps"] == 2 * (burn_in + n_save)
    assert metrics["indices.youden_from_cdfs.calls"] == n_save
    assert sum(tracer.self_times("pass").values()) == pytest.approx(
        tracer.root_seconds("pass"), abs=1e-9)


def test_span_that_raises_counts_as_a_layer_failure(tmp_path):
    tracer = spans.Tracer()
    with tracer.recording("pass"):
        code, _ = workloads.run_in_process(
            ["pooled", "--input", str(tmp_path / "none.csv"), "--outdir", str(tmp_path)], "")
    assert code == 2
    metrics = tracer.layer_metrics(["pass"])
    assert metrics["cli.failed"] == 1 and metrics["pooled_roc.failed"] == 0


def test_covariate_checks_reject_the_wrong_x_and_the_unadjusted_auc(tmp_path):
    analyses = {a.name: a for a in workloads.cli_batch(workloads.SIZES["full"], 3,
                                                       str(tmp_path))}
    beta_d, beta_nd = workloads.BETA_D, workloads.BETA_ND
    # the AUC of a fit that drops the covariate, or of an AROC that skips
    # the adjustment
    mean_gap = beta_d[0] - beta_nd[0] + (beta_d[1] - beta_nd[1]) / 2.0
    spread = (2.0 + (beta_d[1] ** 2 + beta_nd[1] ** 2) / 12.0) ** 0.5
    marginal = checks.normal_cdf(mean_gap / spread)

    def passes(name, auc):
        try:
            analyses[name].checks[0]({"auc": repr(auc)}, str(tmp_path))
        except checks.CheckError:
            return False
        return True

    for name in ("covariate_faraggi", "covariate_rocglm"):
        assert passes(name, workloads.CONDITIONAL_AUC)
        for x in (0.0, 0.5):  # a fit read off away from --at
            assert not passes(name, checks.linear_conditional_auc(beta_d, beta_nd, x))
        assert not passes(name, marginal)
    assert passes("aroc", workloads.ADJUSTED_AUC)
    assert not passes("aroc", marginal)


def test_adjusted_auc_is_the_average_conditional_auc():
    xs = (numpy.arange(100_000) + 0.5) / 100_000
    average = numpy.mean([checks.linear_conditional_auc((-0.5, 15.0), (0.0, 12.0), x)
                          for x in xs])
    assert checks.linear_adjusted_auc((-0.5, 15.0), (0.0, 12.0)) == pytest.approx(average,
                                                                               abs=1e-9)


def test_mann_whitney_counts_ties_as_half():
    # pairs (1,1) tie, (1,0), (2,1) and (2,0) wins
    assert checks.mann_whitney_auc([1.0, 2.0], [1.0, 0.0]) == 3.5 / 4


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "cli_batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
