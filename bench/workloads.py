"""The benchmark's workloads: cohorts, CLI analyses, output checks and timing.

Every workload is a closed loop with one client: it runs one analysis,
waits for it to finish and checks its artifacts, then starts the next.
``cli_batch`` runs each analysis as a fresh ``python -m roclab.cli``
process; ``compute_mix`` calls ``roclab.cli.main`` in this process, so
its import cost is paid once, in set-up.  Cohorts are
drawn from the workload seed during set-up and written as CSV files; the
CLI receives only those files and flags.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from checks import (CheckError, auc_near, auc_tolerance, binormal_auc,
                    csv_rows, linear_adjusted_auc, linear_conditional_auc,
                    lines_equal, mann_whitney_auc, probabilities, read_summary)
from spans import Tracer

# Inputs per run.  "full" is what the benchmark measures; "smoke" runs every
# analysis and check in seconds, for the benchmark's own tests, and is also
# the warm-up for the in-process workloads.
SIZES = {
    "full": dict(batch_n=300, batch_surv_n=200, batch_bb_draws=500,
                 batch_mcmc=(100, 100), mix_pooled_n=1000, mix_cov_n=500,
                 mix_mcmc=None, big_n=10_000, big_bb_draws=200,
                 big_surv_n=1000, setup_reps=3),
    "smoke": dict(batch_n=40, batch_surv_n=60, batch_bb_draws=50,
                  batch_mcmc=(20, 20), mix_pooled_n=60, mix_cov_n=60,
                  mix_mcmc=(20, 20), big_n=300, big_bb_draws=20,
                  big_surv_n=80, setup_reps=1),
}

# cohort laws: binormal a = b = 1; covariate-linear y = b0 + b1 x + N(0, 1)
# in each group with x ~ U(0, 1); survival hazard exp(y), censoring rate 0.3
A, B = 1.0, 1.0
GAMMA, CENSOR_RATE = 1.0, 0.3
# The slopes differ, so the conditional AUC runs from 0.36 at x = 0 through
# 0.76 at x = 0.5 to 0.89 at AT, and a fit read off at the wrong x, or one
# that drops the covariate (marginal AUC 0.57), fails its check.  Both
# slopes are steep, so the covariate-adjusted AUC (0.72) is far from the
# marginal one too, and an AROC that skips the adjustment fails.
BETA_D, BETA_ND = (-0.5, 15.0), (0.0, 12.0)
AT = 0.75

BINORMAL_AUC = binormal_auc(A, B)
CONDITIONAL_AUC = linear_conditional_auc(BETA_D, BETA_ND, AT)
ADJUSTED_AUC = linear_adjusted_auc(BETA_D, BETA_ND)
# a line fitted to x ~ U(0, 1) varies this many times as much at AT as at
# the covariate mean, and so does the conditional AUC read off it
AT_LEVERAGE = float(np.sqrt(1.0 + 12.0 * (AT - 0.5) ** 2))


def conditional_near(n: int):
    """Check of a conditional AUC at ``AT`` with ``n`` subjects per group."""
    return auc_near(CONDITIONAL_AUC,
                    AT_LEVERAGE * auc_tolerance(CONDITIONAL_AUC, n, n))

BASE = ("summary.txt", "metadata.json")
CURVE = BASE + ("curve.csv",)


@dataclass
class Analysis:
    """One CLI call: its arguments, expected artifacts and output checks."""

    name: str
    argv: list[str]
    artifacts: tuple[str, ...]
    checks: list[Callable]


# ---------------------------------------------------------------------------
# cohorts


def _write_csv(path: str, header: list[str], columns) -> None:
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_binormal(path: str, n: int, seed: int):
    from roclab.core import SeedSpec
    from roclab.simulate import BinormalScenario, gen_binormal
    s = gen_binormal(BinormalScenario(a=A, b=B, n_diseased=n, n_nondiseased=n,
                                      seed=SeedSpec(seed, 1)))
    status = np.r_[np.ones(n), np.zeros(n)]
    _write_csv(path, ["marker", "status"], [np.r_[s.diseased, s.nondiseased], status])
    return s.diseased, s.nondiseased


def write_covariate(path: str, n: int, seed: int) -> None:
    from roclab.core import SeedSpec
    from roclab.simulate import gen_covariate_linear
    d, nd = gen_covariate_linear(BETA_D, BETA_ND, 1.0, 1.0, n, n, seed=SeedSpec(seed, 2))
    _write_csv(path, ["marker", "status", "x"],
               [np.r_[d.outcomes, nd.outcomes], np.r_[np.ones(n), np.zeros(n)],
                np.r_[d.design[:, 1], nd.design[:, 1]]])


def write_survival(path: str, n: int, seed: int) -> float:
    """Write a survival cohort; return its median follow-up time."""
    from roclab.core import SeedSpec
    from roclab.simulate import gen_survival
    s = gen_survival(n, GAMMA, CENSOR_RATE, seed=SeedSpec(seed, 3))
    _write_csv(path, ["marker", "time", "event"], [s.marker, s.time, s.event])
    return float(np.median(s.time))


# ---------------------------------------------------------------------------
# workloads


def cli_batch(size: dict, seed: int, inputs: str) -> list[Analysis]:
    """Ten small CLI calls, one per subcommand or estimator."""
    n = size["batch_n"]
    binormal = ["--input", os.path.join(inputs, "binormal.csv")]
    covariate = ["--input", os.path.join(inputs, "covariate.csv"), "--covariates", "x"]
    survival = ["--input", os.path.join(inputs, "survival.csv")]
    d, nd = write_binormal(binormal[1], n, seed)
    write_covariate(covariate[1], n, seed)
    horizon = write_survival(survival[1], size["batch_surv_n"], seed)
    near = auc_near(BINORMAL_AUC, auc_tolerance(BINORMAL_AUC, n, n))
    burn_in, n_save = size["batch_mcmc"]
    rng_seed = ["--seed", str(seed)]
    return [
        Analysis("simulate", ["simulate", "--scenario", "binormal", "--n-diseased", str(n),
                              "--n-nondiseased", str(n), *rng_seed],
                 BASE + ("cohort.csv",),
                 [lines_equal(true_auc=f"{BINORMAL_AUC:.6g}"), csv_rows("cohort.csv", 2 * n)]),
        Analysis("binary", ["binary", *binormal, "--threshold", "0.5"], BASE,
                 [lines_equal(tpf=f"{int(np.sum(d >= 0.5)) / d.size:.6g}",
                              fpf=f"{int(np.sum(nd >= 0.5)) / nd.size:.6g}")]),
        Analysis("pooled_empirical", ["pooled", *binormal], CURVE,
                 [lines_equal(auc=f"{mann_whitney_auc(d, nd):.6g}")]),
        Analysis("pooled_kernel_lscv", ["pooled", *binormal, "--estimator", "kernel",
                                        "--bandwidth-method", "lscv"], CURVE, [near]),
        Analysis("pooled_bb", ["pooled", *binormal, "--estimator", "bb", "--draws",
                               str(size["batch_bb_draws"]), "--svg", *rng_seed],
                 CURVE + ("curve.svg",), [near]),
        Analysis("pooled_dpm", ["pooled", *binormal, "--estimator", "dpm", "--burn-in",
                                str(burn_in), "--n-save", str(n_save), *rng_seed],
                 CURVE, [near]),
        Analysis("covariate_faraggi", ["covariate", *covariate, "--at", str(AT),
                                       "--estimator", "faraggi"], CURVE, [conditional_near(n)]),
        Analysis("covariate_rocglm", ["covariate", *covariate, "--at", str(AT),
                                      "--estimator", "rocglm", "--baseline", "spline"],
                 CURVE, [conditional_near(n)]),
        Analysis("aroc", ["aroc", *covariate], CURVE,
                 [auc_near(ADJUSTED_AUC, auc_tolerance(ADJUSTED_AUC, n, n))]),
        Analysis("timedep", ["timedep", *survival, "--time", repr(horizon)], CURVE,
                 [probabilities("auc", "yi")]),
    ]


def bayes_mixture(size: dict, seed: int, inputs: str) -> list[Analysis]:
    """The two Gibbs-sampled mixture estimators at CLI defaults."""
    n, m = size["mix_pooled_n"], size["mix_cov_n"]
    pooled = os.path.join(inputs, "mix_binormal.csv")
    covariate = os.path.join(inputs, "mix_covariate.csv")
    write_binormal(pooled, n, seed)
    write_covariate(covariate, m, seed)
    mcmc = []
    if size["mix_mcmc"] is not None:
        mcmc = ["--burn-in", str(size["mix_mcmc"][0]), "--n-save", str(size["mix_mcmc"][1])]
    return [
        Analysis("pooled_dpm", ["pooled", "--input", pooled, "--estimator", "dpm",
                                "--seed", str(seed), *mcmc], CURVE,
                 [auc_near(BINORMAL_AUC, auc_tolerance(BINORMAL_AUC, n, n))]),
        Analysis("covariate_ddp", ["covariate", "--input", covariate, "--covariates", "x",
                                   "--at", str(AT), "--estimator", "ddp",
                                   "--seed", str(seed), *mcmc], CURVE,
                 [conditional_near(m)]),
    ]


def big_cohort(size: dict, seed: int, inputs: str) -> list[Analysis]:
    """Pooled estimators on one large cohort, plus the time-dependent sweep."""
    n = size["big_n"]
    binormal = ["--input", os.path.join(inputs, "big_binormal.csv")]
    survival = os.path.join(inputs, "big_survival.csv")
    d, nd = write_binormal(binormal[1], n, seed)
    horizon = write_survival(survival, size["big_surv_n"], seed)
    near = auc_near(BINORMAL_AUC, auc_tolerance(BINORMAL_AUC, n, n))
    return [
        Analysis("pooled_empirical", ["pooled", *binormal], CURVE,
                 [lines_equal(auc=f"{mann_whitney_auc(d, nd):.6g}")]),
        Analysis("pooled_bb", ["pooled", *binormal, "--estimator", "bb", "--draws",
                               str(size["big_bb_draws"]), "--seed", str(seed)], CURVE, [near]),
        Analysis("pooled_kernel", ["pooled", *binormal, "--estimator", "kernel"], CURVE, [near]),
        Analysis("timedep", ["timedep", "--input", survival, "--time", repr(horizon)], CURVE,
                 [probabilities("auc", "yi")]),
    ]


def compute_mix(size: dict, seed: int, inputs: str) -> list[Analysis]:
    """``bayes_mixture`` then ``big_cohort``, as one pass.

    Each half alone is about 15 s of work, too little to read steadily on a
    machine whose speed drifts over tens of seconds.  The report's
    per-analysis seconds keep the halves apart.
    """
    return bayes_mixture(size, seed, inputs) + big_cohort(size, seed, inputs)


@dataclass(frozen=True)
class Workload:
    build: Callable[[dict, int, str], list[Analysis]]
    in_process: bool


WORKLOADS = {
    "cli_batch": Workload(cli_batch, in_process=False),
    "compute_mix": Workload(compute_mix, in_process=True),
}


# ---------------------------------------------------------------------------
# running analyses


def run_in_process(argv: list[str], log_path: str) -> tuple[int | None, float]:
    """``roclab.cli.main(argv)``, looked up at call time so tracing sees it."""
    import roclab.cli
    try:
        return roclab.cli.main(argv), 0.0
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code, 0.0


def run_subprocess(argv: list[str], log_path: str) -> tuple[int | None, float]:
    """Run the CLI in a fresh interpreter; return its exit code and peak RSS in MB."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen([sys.executable, "-m", "roclab.cli", *argv],
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


@dataclass
class PassResult:
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    rss_mb: float = 0.0
    artifact_bytes: int = 0
    seconds: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


def run_pass(analyses: list[Analysis], runner, out_dir: str) -> PassResult:
    """Run each analysis once, in order, and check its artifacts.

    ``wall`` covers the runner calls only; checks and clean-up are not timed.
    """
    result = PassResult()
    os.makedirs(out_dir, exist_ok=True)
    for i, analysis in enumerate(analyses):
        outdir = os.path.join(out_dir, f"{i:02d}-{analysis.name}")
        shutil.rmtree(outdir, ignore_errors=True)
        error = None
        t0 = time.perf_counter()
        try:
            code, rss = runner(analysis.argv + ["--outdir", outdir], outdir + ".log")
        except Exception:  # the loop keeps going; the analysis counts as failed
            code, rss, error = None, 0.0, traceback.format_exc()
        result.seconds[analysis.name] = time.perf_counter() - t0
        result.wall += result.seconds[analysis.name]
        result.attempted += 1
        result.rss_mb = max(result.rss_mb, rss)
        try:
            if code != 0:
                raise CheckError(error or f"exit code {code}")
            missing = [a for a in analysis.artifacts
                       if not os.path.isfile(os.path.join(outdir, a))]
            if missing:
                raise CheckError(f"missing artifacts {', '.join(missing)}")
            summary = read_summary(outdir)
            for check in analysis.checks:
                check(summary, outdir)
        except (CheckError, OSError) as exc:
            result.failed += 1
            result.failures.append(f"{analysis.name}: {exc}")
            print(f"FAILED {analysis.name}: {exc}", file=sys.stderr)
        if os.path.isdir(outdir):
            result.artifact_bytes += sum(e.stat().st_size for e in os.scandir(outdir))
    return result


def measure(run_one: Callable[[], PassResult], seconds: float) -> list[PassResult]:
    """Repeat whole passes until ``seconds`` have passed; at least one runs."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_one())
    return passes


def fresh_import_seconds() -> float:
    """Wall time of a fresh interpreter that imports ``roclab.cli`` and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import roclab.cli"], check=True)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# one benchmark run


def _git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment(root: str) -> dict:
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")
                    or k == "VECLIB_MAXIMUM_THREADS"},
    }


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return name.rsplit(".", 1)[1][: -len("_per_s")] + "/s"
    return "s" if name.endswith("_s") else "count"


def run(workload: str, seed: int, seconds: float, trace: bool, size_name: str,
        out_root: str) -> dict:
    """Set up, measure and check one workload; return the report.

    The report is also written under ``out_root``; its ``result`` is the
    object the benchmark prints last.

    With ``trace`` off the metrics are the end-to-end ones.  With it on, the
    untraced passes are followed by one traced pass (for ``cli_batch``, an
    in-process replay of the same calls) and the metrics are per layer.
    """
    wl = WORKLOADS[workload]
    size = SIZES[size_name]
    work = os.path.join(out_root, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "inputs"))
    os.makedirs(os.path.join(work, "warm"))
    tracer = Tracer() if trace else None

    # imported once, untimed, so that every set-up repetition does the same
    # work; each repetition times a fresh interpreter's import instead
    import roclab.cli  # noqa: F401
    setup_s, start_s = [], []
    for rep in range(size["setup_reps"]):
        t0 = time.perf_counter()
        start_s.append(fresh_import_seconds())
        traced = tracer is not None and rep == size["setup_reps"] - 1
        with tracer.recording("setup") if traced else contextlib.nullcontext():
            analyses = wl.build(size, seed, os.path.join(work, "inputs"))
        if wl.in_process:  # first calls pay lazy imports and caches here
            warm = wl.build(SIZES["smoke"], seed, os.path.join(work, "warm"))
            run_pass(warm, run_in_process, os.path.join(work, "warm"))
        setup_s.append(time.perf_counter() - t0)

    runner = run_in_process if wl.in_process else run_subprocess
    passes = measure(lambda: run_pass(analyses, runner, os.path.join(work, "out")), seconds)
    walls = [p.wall for p in passes]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [f for p in passes for f in p.failures]

    if tracer is None:
        peak_rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                    if wl.in_process else max(p.rss_mb for p in passes))
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "passed_frac": ((attempted - failed) / attempted, "frac"),
        }
    else:
        with tracer.recording("pass"):
            t0 = time.perf_counter()
            traced_pass = run_pass(analyses, run_in_process, os.path.join(work, "traced"))
            loop_s = time.perf_counter() - t0
        attempted += traced_pass.attempted
        failed += traced_pass.failed
        failures += traced_pass.failures
        start = statistics.median(start_s)
        # the replay skips interpreter start, so add it back once per call
        traced_wall = traced_pass.wall + (0.0 if wl.in_process else len(analyses) * start)
        layer = tracer.layer_metrics(["setup", "pass"])
        layer["cli.start_s"] = start
        layer["cli.artifact_bytes"] = traced_pass.artifact_bytes
        layer["trace.overhead_s"] = traced_wall - statistics.median(walls)
        layer["trace.unattributed_s"] = loop_s - tracer.root_seconds("pass")
        metrics = {name: (value, _unit(name)) for name, value in layer.items()}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    report = {"workload": workload, "seed": seed, "size": size_name, "seconds": seconds,
              "trace": bool(trace), "env": environment(os.getcwd()),
              "setup_s_reps": setup_s, "start_s_reps": start_s,
              "pass_seconds": [p.seconds for p in passes],
              "traced_pass_seconds": traced_pass.seconds if tracer else None,
              "failures": failures, "result": result,
              "spans": tracer.dump() if tracer else []}
    path = os.path.join(out_root, f"{workload}-seed{seed}-trace{int(bool(trace))}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    return report
