"""Run the benchmark on a parent commit and on a change, in alternating pairs.

Run from the repository root:

    python3 tools/bench_pairs.py --pairs 10 --seed 401 --out BENCH_10.json

The parent (``--parent``, default ``HEAD``) is exported with ``git
archive`` into ``--work`` (default: a new temporary directory); the change
is ``--change`` exported the same way, or, by default, a copy of the
working tree's tracked and untracked, not ignored, files.  Both copies sit
side by side on one filesystem, so neither pays for where it lives.  Pair
``i`` runs ``bench/run.py --seed <seed + i>`` for each workload on both
copies, the parent first when ``i`` is even and the change first when it
is odd.  The output file holds every run's end-to-end metrics, each
side's median and quartiles, the parent's quartile distance, how many
pairs each side won, the median seconds of each analysis per side and
the line count of ``src/roclab/*.py`` on both sides, split into code,
docstring, comment and blank lines, in all and per module.  ``--pairs
0`` writes only that line count (and the ``--tier1`` results), without
running the benchmark.

With ``--trace``, each pair also runs one traced pass per workload and
side (``bench/run.py --trace 1 --seconds 0``: one untraced pass, then
the traced one), in the same alternating order, and the output file gets
each side's median of every per-layer time (the metrics ending in
``_s``) under ``trace``.

With ``--artifacts``, every analysis of every workload (at full size)
runs once per seed of the pairs as a fresh ``python -m roclab.cli``
process on each copy, with its default flags and again with
``--full-precision``, on the same input files (written by the parent's
``bench/workloads.py``).  The output file gets, per artifact, "identical"
when the bytes match on every seed, else the largest |difference| of its
numeric cells and the seeds where it differs, under ``artifacts``.
Output directories in ``metadata.json`` are normalised first.  With
``--pairs 0`` the artifacts run on ``--seed`` alone.

With ``--layers``, each side times the smooth-CDF layer in its own
``python`` process, in ``--pairs`` rounds (one with ``--pairs 0``) that
alternate which side runs first: the median seconds of one
``dpm_roc(youden=True)`` on fits at CLI defaults (1,000 + 1,000 binormal
values from ``--seed``; burn-in 500, 1,000 draws, truncation 10), of
one ``kernel_roc`` on 10,000 + 10,000 values and of the CLI's kernel
analysis (``roclab.cli.main``, ``pooled --estimator kernel``) on a cohort
file of those values, which is the number the end-to-end metric sees,
over 5 calls per round after a warm call, plus the CDF evaluations per
root and the passes of the inversion in one such ``dpm_roc`` and one such
``kernel_roc``, counted through a wrapped ``_mixture_sums``.  The counting call runs with the
ensemble's fork floor (``_FORK_ENSEMBLE``, where the side has one) raised,
so its inversion runs in the counting process; the timed calls run as the
side's code runs them.  Each round also runs one ``dpm_roc(youden=True)``
at CLI defaults in another fresh process per side, which reports, in MB,
its peak RSS (``ru_maxrss``) before that call (with the normal CDF
loaded as the side's code loads it, through ``std_normal_cdf``) and
after it, the rise, and the peak of its largest forked part
(``RUSAGE_CHILDREN``).  Each round also runs, in fresh processes per
side, one ``pooled --estimator dpm`` CLI run (``roclab.cli.main``) per
phase and size of ``PHASE_RUNS`` (``phase_once``: cli_batch's child, 300
per group with burn-in 100 and 100 draws, and compute_mix's, 1,000 per
group at CLI defaults), which reports the peak RSS after the fits and
after the inversion, or after the Youden search with the inversion left
out, both in the calling process (its part of a forked ensemble), and the
inversion's passes and evaluations per root there; and every analysis of
``cli_batch`` as a fresh ``python -m roclab.cli`` process on the
benchmark's inputs (written by the parent), which reports each child's
peak RSS and CPU seconds, user plus system, and their sum over the
analyses (``child_peaks``: ``cli_batch.<name>.cpu_s`` and
``cli_batch.cpu_s_per_pass``).  The output file gets them under
``layers``, with the value of ``PYTHONDONTWRITEBYTECODE``: the times,
peaks and CPU seconds as quartiles over the rounds, the counts of the
first.

With ``--scale``, each side runs every CLI analysis of ``SCALE_LADDER`` as
a fresh ``python -m roclab.cli`` process on ``roclab simulate`` cohorts
(written once by the parent, seed ``--seed``) at 1k, 10k and 50k per group
(20k where a run would take minutes at 50k; subjects for ``timedep``, with
30% censoring and the horizon at the median time), in ``--pairs`` rounds
(one with ``--pairs 0``) that alternate which side runs first.  Each run
gives its wall seconds and its peak RSS in MB (the child's ``ru_maxrss``).
The output file gets, under ``scale``, per side and analysis, the median of
both at each size and the slope of each between consecutive sizes on
log-log axes (1 is linear growth, 0 flat).

With ``--tier1``, the tier-1 suite (``python -m pytest -q
--continue-on-collection-errors`` with ``src`` on ``PYTHONPATH``) runs
once on each copy after the pairs, the parent first, and the output file
gets each side's wall seconds, exit code, counts from pytest's summary
line and ``ACCEPTANCE n: ...`` verdict lines under ``tier1``.
"""

from __future__ import annotations

import argparse
import csv
import glob
import io
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev: str | None, dest: str) -> None:
    """Copy commit ``rev``, or the working tree when it is None, to ``dest``."""
    os.makedirs(dest)
    if rev is not None:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
        return
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, check=True,
                            capture_output=True).stdout.decode().split("\0")
    for name in filter(None, listed):
        src = os.path.join(ROOT, name)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its result metrics and each analysis's median seconds."""
    out = os.path.join(tree, ".bench_out")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--out", out],
                          cwd=tree, check=True, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(out, f"{workload}-seed{seed}-trace0.json")) as fh:
        passes = json.load(fh)["pass_seconds"]
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "analysis_s": {name: statistics.median(p[name] for p in passes)
                           for name in passes[0]}}


def trace_once(tree: str, workload: str, seed: int) -> dict:
    """One traced pass; its per-layer times in seconds."""
    out = os.path.join(tree, ".bench_out")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--trace", "1",
                           "--out", out], cwd=tree, check=True, capture_output=True, text=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if k.endswith("_s")}


def tier1_once(tree: str) -> dict:
    """One tier-1 run; its wall time, exit code, counts and acceptance verdicts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(tree, "src"),
                                                      env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "--continue-on-collection-errors"], cwd=tree, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = (proc.stdout.splitlines() or [""])[-1]
    return {"wall_s": round(wall, 1), "exit_code": proc.returncode,
            "counts": {word: int(n) for n, word in re.findall(r"(\d+) ([a-z]+)", summary)},
            "summary": summary.strip("= "),
            "acceptance": re.findall(r"ACCEPTANCE \d+: .*", proc.stdout)}


def cli_default_fits(seed: int):
    """The two ``dpm_fit`` ensembles at CLI defaults that ``--layers`` uses,
    and the generator that drew their data."""
    from roclab import DpmConfig, SeedSpec, dpm_fit

    rng = np.random.default_rng(seed)
    d, nd = rng.normal(1.0, 1.0, 1000), rng.normal(0.0, 1.0, 1000)
    return [dpm_fit(y, DpmConfig(seed=SeedSpec(seed, stream)))
            for y, stream in ((d, 1), (nd, 2))], rng


def layer_once(seed: int, calls: int) -> dict:
    """The smooth-CDF layer of the ``roclab`` on ``sys.path``, timed and
    counted in this process (see ``--layers``)."""
    import roclab.pooled_roc as pooled
    from roclab import dpm_roc, kernel_roc
    from roclab.cli import main

    fits, rng = cli_default_fits(seed)
    big_d, big_nd = rng.normal(1.0, 1.0, 10_000), rng.normal(0.0, 1.0, 10_000)
    work = tempfile.mkdtemp(prefix="bench-layers-")
    cohort = os.path.join(work, "cohort.csv")
    with open(cohort, "w") as fh:
        fh.write("marker,status\n")
        fh.writelines(f"{v!r},{s}\n" for y, s in ((big_d, 1), (big_nd, 0)) for v in y.tolist())
    cli_kernel = ["pooled", "--estimator", "kernel", "--input", cohort,
                  "--outdir", os.path.join(work, "out")]
    runs = {"dpm_roc": lambda: dpm_roc(*fits, youden=True),
            "kernel_roc": lambda: kernel_roc(big_d, big_nd),
            "cli_kernel": lambda: main(cli_kernel)}
    report = {}
    saved = {name: getattr(pooled, name) for name in ("_mixture_sums", "_FORK_ENSEMBLE")
             if hasattr(pooled, name)}
    real = saved["_mixture_sums"]
    for name, fn in runs.items():
        if name == "cli_kernel":  # timed alone: the analysis as the CLI runs it
            fn()
            seconds = []
            for _ in range(calls):
                start = time.perf_counter()
                fn()
                seconds.append(time.perf_counter() - start)
            report[name] = {"seconds": seconds}
            continue
        evaluated = []

        def counted(w, mu, sigma, x, *args, **kwargs):
            # the inversion passes density= and rows= by keyword; revisions
            # that took ndtr pass it after x, and *args carries it through
            if kwargs.get("density"):  # a pass of the inversion
                rows = kwargs.get("rows")
                evaluated.append((w.shape[0] if rows is None else rows.size) * x.shape[-1])
            return real(w, mu, sigma, x, *args, **kwargs)

        # a forked part's counts would stay in the child
        pooled._mixture_sums = counted
        if "_FORK_ENSEMBLE" in saved:
            pooled._FORK_ENSEMBLE = float("inf")
        try:
            out = fn()
        finally:
            for attr, value in saved.items():
                setattr(pooled, attr, value)
        curves = np.atleast_2d(out.curves if name == "dpm_roc" else out.roc)
        roots = curves.shape[0] * int(((out.grid > 0.0) & (out.grid < 1.0)).sum())
        fn()  # warms the caches as the timed calls run
        seconds = []
        for _ in range(calls):
            start = time.perf_counter()
            fn()
            seconds.append(time.perf_counter() - start)
        report[name] = {"seconds": seconds, "passes": len(evaluated),
                        "evaluations_per_root": round(sum(evaluated) / roots, 4)}
    shutil.rmtree(work)
    return report


def memory_once(seed: int) -> dict:
    """Peak RSS in MB of this process before and after one
    ``dpm_roc(youden=True)`` at CLI defaults, and of its largest forked part
    (see ``--layers``)."""
    import resource

    from roclab import dpm_roc, std_normal_cdf

    std_normal_cdf(0.0)  # Phi's first load, as the side's code loads it, is not the call's

    fits, _ = cli_default_fits(seed)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    dpm_roc(*fits, youden=True)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    parts = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {"peak_before_mb": before, "peak_after_mb": after, "rise_mb": after - before,
            "parts_peak_mb": parts}


# per-group size and flags of the two ``pooled --estimator dpm`` runs whose
# phases --layers measures: cli_batch's child and compute_mix's analysis
PHASE_RUNS = {"cli_batch": (300, ["--burn-in", "100", "--n-save", "100"]),
              "compute_mix": (1000, [])}


def phase_once(seed: int, run: str, phase: str) -> dict:
    """Peak RSS in MB of one ``pooled --estimator dpm`` run of the CLI
    (``roclab.cli.main`` in this process, on a binormal cohort from
    ``seed``) after its fits and after one ensemble phase of the calling
    process: the inversion, or the Youden search with the inversion left
    out (see ``--layers``).  With ``phase="inversion"`` it also gives the
    inversion's passes and CDF evaluations per root in this process."""
    import resource

    import roclab.pooled_roc as pooled
    from roclab import std_normal_cdf
    from roclab.cli import main

    std_normal_cdf(0.0)  # Phi, loaded as the side's CLI loads it at its first CDF; not a phase's

    n, flags = PHASE_RUNS[run]
    rng = np.random.default_rng(seed)
    work = tempfile.mkdtemp(prefix="bench-phases-")
    cohort = os.path.join(work, "cohort.csv")
    with open(cohort, "w") as fh:
        fh.write("marker,status\n")
        for y, s in ((rng.normal(1.0, 1.0, n), 1), (rng.normal(0.0, 1.0, n), 0)):
            fh.writelines(f"{v!r},{s}\n" for v in y.tolist())
    real_roc, real_sums, real_search = (pooled._roc_from_mixtures, pooled._mixture_sums,
                                        pooled._youden_search)
    found, evaluated = {}, []

    def peak():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def counted(w, mu, sigma, x, *args, **kwargs):
        if kwargs.get("density"):  # a pass of the inversion
            rows = kwargs.get("rows")
            evaluated.append((w.shape[0] if rows is None else rows.size) * x.shape[-1])
        return real_sums(w, mu, sigma, x, *args, **kwargs)

    def roc(*args):
        # the first call in this process is its part's: forked parts keep
        # their records in the child
        found.setdefault("fits_mb", peak())
        grid = args[-1]
        if phase != "inversion":  # the chance line stands in for the curves
            return np.tile(grid, (args[0].shape[0], 1))
        pooled._mixture_sums = counted
        try:
            curves = real_roc(*args)
        finally:
            pooled._mixture_sums = real_sums
        found.setdefault("phase_mb", peak())
        roots = curves.shape[0] * int(((grid > 0.0) & (grid < 1.0)).sum())
        found.setdefault("passes", len(evaluated))
        found.setdefault("evaluations_per_root", round(sum(evaluated) / roots, 4))
        return curves

    def search(*args):
        out = real_search(*args)
        found.setdefault("phase_mb", peak())
        return out

    pooled._roc_from_mixtures = roc
    if phase == "youden":
        pooled._youden_search = search
    try:
        code = main(["pooled", "--input", cohort, "--estimator", "dpm", "--seed", str(seed),
                     *flags, "--outdir", os.path.join(work, "out")])
    finally:
        pooled._roc_from_mixtures, pooled._youden_search = real_roc, real_search
        shutil.rmtree(work)
    if code != 0:
        raise RuntimeError(f"pooled dpm exited {code}")
    return found


def child_peaks(tree: str, analyses: list, out: str) -> dict:
    """Peak RSS in MB (``ru_maxrss``) and CPU seconds (``ru_utime +
    ru_stime``) of each ``(name, argv)`` analysis run as a fresh ``python
    -m roclab.cli`` process on ``tree``, and the CPU seconds of them all."""
    peaks = {"cli_batch.cpu_s_per_pass": 0.0}
    for name, argv in analyses:
        shutil.rmtree(out, ignore_errors=True)
        proc = subprocess.Popen([sys.executable, "-m", "roclab.cli", *argv, "--outdir", out],
                                cwd=tree, env=pinned_env(tree), stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError(f"{name} exited {os.waitstatus_to_exitcode(status)} on {tree}")
        peaks[f"cli_batch.{name}.peak_mb"] = usage.ru_maxrss / 1024
        peaks[f"cli_batch.{name}.cpu_s"] = usage.ru_utime + usage.ru_stime
        peaks["cli_batch.cpu_s_per_pass"] += usage.ru_utime + usage.ru_stime
    return peaks


def layers(trees: dict, seed: int, rounds: int, work: str) -> dict:
    """``layer_once``, ``memory_once`` and each ``phase_once`` on both trees
    in alternating rounds, each in a fresh process, and each of
    ``cli_batch``'s analyses as the benchmark runs it (``child_peaks``);
    quartiles per side."""
    code = (f"import json, sys; sys.path.insert(0, {os.path.join(ROOT, 'tools')!r}); "
            "import bench_pairs; print(json.dumps(bench_pairs.{}))")
    calls = {"": f"layer_once({seed}, 5)", "dpm_roc.": f"memory_once({seed})"}
    for run in PHASE_RUNS:
        for phase in ("inversion", "youden"):
            calls[f"phases.{run}.{phase}."] = f"phase_once({seed}, {run!r}, {phase!r})"
    inputs = os.path.join(work, "layers-inputs")
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    analyses = build_analyses(trees["parent"], "cli_batch", seed, inputs)
    got = {side: [] for side in trees}
    for i in range(max(1, rounds)):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            got[side].append(child_peaks(trees[side], analyses, os.path.join(work, "layers-out")))
            for prefix, call in calls.items():
                proc = subprocess.run([sys.executable, "-c", code.format(call)],
                                      cwd=trees[side], check=True, capture_output=True,
                                      text=True, env=pinned_env(trees[side]))
                got[side][-1].update(
                    (prefix + name if prefix else name, value)
                    for name, value in json.loads(proc.stdout.strip().splitlines()[-1]).items())
            print(f"layers round {i} {side}: done", file=sys.stderr)
    report = {}
    for side, runs in got.items():
        report[side] = {}
        for name in runs[0]:
            if name.endswith(("_mb", "cpu_s", "cpu_s_per_pass")):
                report[side][f"{name}_q25_median_q75"] = quartiles([r[name] for r in runs])
                continue
            if name.startswith("phases."):  # passes and evaluations per root
                report[side][name] = runs[0][name]
                continue
            seconds = [s for r in runs for s in r[name]["seconds"]]
            report[side][f"{name}_s_q25_median_q75"] = quartiles(seconds)
            for count in ("evaluations_per_root", "passes"):
                if count in runs[0][name]:
                    report[side][f"{name}.{count}"] = runs[0][name][count]
    return {"seed": seed, "rounds": max(1, rounds), "calls_per_round": 5,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "by_side": report}


# (name, subcommand and flags, cohort, sizes per group) of each analysis
# of --scale; the top size is 20k where a run takes minutes at 50k
_COVARIATE = ["covariate", "--covariates", "x", "--at", "0.5", "--estimator"]
SCALE_LADDER = [
    ("pooled_empirical", ["pooled"], "binormal", (1000, 10_000, 50_000)),
    ("pooled_kernel", ["pooled", "--estimator", "kernel"], "binormal", (1000, 10_000, 50_000)),
    ("pooled_kernel_lscv", ["pooled", "--estimator", "kernel", "--bandwidth-method", "lscv"],
     "binormal", (1000, 10_000, 20_000)),
    ("pooled_bb", ["pooled", "--estimator", "bb"], "binormal", (1000, 10_000, 50_000)),
    ("pooled_dpm", ["pooled", "--estimator", "dpm"], "binormal", (1000, 10_000, 20_000)),
    ("covariate_faraggi", [*_COVARIATE, "faraggi"], "covariate", (1000, 10_000, 50_000)),
    ("covariate_pepe", [*_COVARIATE, "pepe"], "covariate", (1000, 10_000, 50_000)),
    ("covariate_rocglm", [*_COVARIATE, "rocglm"], "covariate", (1000, 10_000, 50_000)),
    ("covariate_rocglm_spline", [*_COVARIATE, "rocglm", "--baseline", "spline"],
     "covariate", (1000, 10_000, 50_000)),
    ("covariate_ddp", [*_COVARIATE, "ddp"], "covariate", (1000, 10_000, 20_000)),
    ("aroc", ["aroc", "--covariates", "x"], "covariate", (1000, 10_000, 50_000)),
    ("timedep", ["timedep"], "survival", (1000, 10_000, 50_000)),
]


def scale_cohort(tree: str, kind: str, n: int, seed: int, root: str) -> list[str]:
    """Input flags of a ``roclab simulate`` cohort of ``kind`` at ``n`` per
    group (subjects for survival), written by ``tree`` once under ``root``."""
    out = os.path.join(root, f"{kind}-{n}")
    path = os.path.join(out, "cohort.csv")
    if not os.path.exists(path):
        size = (["--n", str(n), "--censor-rate", "0.3"] if kind == "survival"
                else ["--n-diseased", str(n), "--n-nondiseased", str(n)])
        subprocess.run([sys.executable, "-m", "roclab.cli", "simulate", "--scenario", kind,
                        *size, "--seed", str(seed), "--outdir", out], cwd=tree,
                       env=pinned_env(tree), check=True, capture_output=True)
    if kind != "survival":
        return ["--input", path]
    with open(path) as fh:
        times = [float(row["time"]) for row in csv.DictReader(fh)]
    return ["--input", path, "--time", repr(statistics.median(times))]


def scale_once(tree: str, argv: list[str], out: str) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one CLI process on ``tree``."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "roclab.cli", *argv, "--outdir", out],
                            cwd=tree, env=pinned_env(tree), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode} on {tree}")
    return wall, usage.ru_maxrss / 1024


def scale(trees: dict, seed: int, rounds: int, work: str) -> dict:
    """The ``--scale`` ladder on both trees in alternating rounds."""
    root = os.path.join(work, "scale")
    got = {side: {} for side in trees}  # side -> (name, n) -> [(wall, rss)]
    for i in range(max(1, rounds)):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            for name, argv, kind, sizes in SCALE_LADDER:
                for n in sizes:
                    flags = scale_cohort(trees["parent"], kind, n, seed, root)
                    out = os.path.join(root, "out", side, f"{name}-{n}")
                    got[side].setdefault((name, n), []).append(
                        scale_once(trees[side], [*argv, *flags], out))
                print(f"scale round {i} {side} {name}: done", file=sys.stderr)
    report = {}
    for side, runs in got.items():
        report[side] = {}
        for name, _, _, sizes in SCALE_LADDER:
            wall = [statistics.median(w for w, _ in runs[(name, n)]) for n in sizes]
            rss = [statistics.median(r for _, r in runs[(name, n)]) for n in sizes]
            report[side][name] = {
                "n_per_group": list(sizes),
                "wall_s": [round(v, 3) for v in wall],
                "peak_rss_mb": [round(v, 1) for v in rss],
                "wall_slope": [round(math.log(b / a) / math.log(m / n), 2) for a, b, n, m
                               in zip(wall, wall[1:], sizes, sizes[1:])],
                "rss_slope": [round(math.log(b / a) / math.log(m / n), 2) for a, b, n, m
                              in zip(rss, rss[1:], sizes, sizes[1:])],
            }
    return {"seed": seed, "rounds": max(1, rounds), "by_side": report}


# a number in an artifact: the cells of the CSV files, the values in
# summary.txt, metadata.json and the SVG
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def build_analyses(tree: str, workload: str, seed: int, inputs: str) -> list:
    """``(name, argv)`` of each full-size analysis of ``workload``, with its
    input files written under ``inputs`` by ``tree``'s benchmark code."""
    code = ("import json, sys; sys.path[:0] = ['bench', 'src']; import workloads; "
            f"a = workloads.WORKLOADS[{workload!r}].build(workloads.SIZES['full'], {seed}, "
            f"{inputs!r}); print(json.dumps([[x.name, x.argv] for x in a]))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tree, check=True,
                          capture_output=True, text=True, env=pinned_env(tree))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pinned_env(tree: str) -> dict:
    """The environment ``bench/run.py`` gives the CLI: ``tree``'s ``src`` and
    BLAS and OpenMP threads pinned to the usable CPUs."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = nproc
    return env


def artifact_delta(a: bytes, b: bytes) -> float | str:
    """0.0 for equal bytes, else the largest |difference| of the numeric
    cells, or "text differs" when the text between the numbers differs."""
    if a == b:
        return 0.0
    ta, tb = a.decode(), b.decode()
    if _NUMBER.split(ta) != _NUMBER.split(tb):
        return "text differs"
    na, nb = (np.array([float(v) for v in _NUMBER.findall(t)]) for t in (ta, tb))
    same = (na == nb) | (np.isnan(na) & np.isnan(nb))
    return float(np.abs(na - nb)[~same].max()) if (~same).any() else 0.0


def compare_artifacts(trees: dict, workloads: list[str], seeds: list[int], work: str) -> dict:
    """Run every analysis on both trees and compare the artifacts file by file."""
    root = os.path.join(work, "artifacts")
    shutil.rmtree(root, ignore_errors=True)
    found = {}  # file key -> {seed: delta}
    for seed in seeds:
        for workload in workloads:
            inputs = os.path.join(root, "inputs", f"{workload}-{seed}")
            os.makedirs(inputs)
            analyses = build_analyses(trees["parent"], workload, seed, inputs)
            for i, (name, argv) in enumerate(analyses):
                for mode, extra in (("default", []), ("full", ["--full-precision"])):
                    outs = {}
                    for side, tree in trees.items():
                        outs[side] = os.path.join(root, side, f"{workload}-{seed}",
                                                  f"{i:02d}-{name}-{mode}")
                        code = subprocess.run(
                            [sys.executable, "-m", "roclab.cli", *argv, *extra,
                             "--outdir", outs[side]], cwd=tree, env=pinned_env(tree),
                            capture_output=True).returncode
                        if code != 0:
                            found.setdefault(f"{workload}/{name}/{mode}/exit code", {})[
                                seed] = f"{side} exited {code}"
                    files = sorted(set(os.listdir(outs["parent"]))
                                   | set(os.listdir(outs["change"])))
                    for f in files:
                        blobs = {}
                        for side, out in outs.items():
                            path = os.path.join(out, f)
                            blob = open(path, "rb").read() if os.path.isfile(path) else None
                            if blob is not None and f == "metadata.json":
                                blob = blob.replace(out.encode(), b"<outdir>")
                            blobs[side] = blob
                        key = f"{workload}/{name}/{mode}/{f}"
                        if None in blobs.values():
                            delta = "missing on one side"
                        else:
                            delta = artifact_delta(blobs["parent"], blobs["change"])
                        found.setdefault(key, {})[seed] = delta
            print(f"artifacts seed {seed} {workload}: compared", file=sys.stderr)
    report = {}
    for key, by_seed in sorted(found.items()):
        differing = {s: d for s, d in by_seed.items() if d != 0.0}
        if not differing:
            report[key] = "identical"
            continue
        numeric = [d for d in differing.values() if isinstance(d, float)]
        report[key] = {"max_abs_diff": max(numeric) if numeric else None,
                       "seeds_differing": sorted(differing),
                       "other": sorted({d for d in differing.values() if isinstance(d, str)})}
    return {"seeds": seeds, "files": report}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [round(values[0], 4)] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q2, 4), round(q3, 4)]


def summarize(parent: list[dict], change: list[dict], better: dict) -> dict:
    summary = {}
    for name, direction in better.items():
        a = [r["metrics"][name] for r in parent]
        b = [r["metrics"][name] for r in change]
        sign = 1.0 if direction == "lower" else -1.0
        qa, qb = quartiles(a), quartiles(b)
        summary[name] = {
            "parent": [round(v, 4) for v in a], "change": [round(v, 4) for v in b],
            "parent_q25_median_q75": qa, "change_q25_median_q75": qb,
            "parent_iqr": round(qa[2] - qa[0], 4),
            "change_wins": sum(sign * (y - x) < 0 for x, y in zip(a, b)),
            "parent_wins": sum(sign * (y - x) > 0 for x, y in zip(a, b)),
            "median_change_pct": round(100.0 * (qb[1] - qa[1]) / qa[1], 1) if qa[1] else 0.0,
            "pairs": len(a),
        }
    names = parent[0]["analysis_s"]
    summary["analysis_median_s"] = {
        side: {n: round(statistics.median(r["analysis_s"][n] for r in runs), 4)
               for n in names}
        for side, runs in (("parent", parent), ("change", change))}
    return summary


# tokens that make no line a code line
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER, tokenize.COMMENT}


def line_kinds(path: str) -> dict:
    """Lines of one Python file by kind: a line with any code token is code;
    else docstring (a statement that is a string alone), comment or blank."""
    with open(path, "rb") as fh:
        source = fh.read()
    tokens = list(tokenize.tokenize(io.BytesIO(source).readline))
    kind = {}
    rank = {"comment": 1, "docstring": 2, "code": 3}
    significant = [t for t in tokens if t.type not in (tokenize.NL, tokenize.COMMENT)]
    docstrings = {id(t) for prev, t, nxt in zip(significant, significant[1:], significant[2:])
                  if t.type == tokenize.STRING and nxt.type == tokenize.NEWLINE
                  and prev.type in (tokenize.ENCODING, tokenize.NEWLINE,
                                    tokenize.INDENT, tokenize.DEDENT)}
    for t in tokens:
        if t.type == tokenize.COMMENT:
            name = "comment"
        elif id(t) in docstrings:
            name = "docstring"
        elif t.type in _LAYOUT:
            continue
        else:
            name = "code"
        for line in range(t.start[0], t.end[0] + 1):
            if rank[name] > rank.get(kind.get(line), 0):
                kind[line] = name
    counts = {name: sum(1 for k in kind.values() if k == name) for name in rank}
    counts["blank"] = len(source.splitlines()) - len(kind)
    return counts


def src_lines(tree: str) -> dict:
    """Lines of ``src/roclab/*.py``: the total and its split by ``line_kinds``,
    over all modules and, under ``modules``, per module."""
    totals = {"total": 0, "code": 0, "docstring": 0, "comment": 0, "blank": 0}
    modules = {}
    for path in sorted(glob.glob(os.path.join(tree, "src", "roclab", "*.py"))):
        counts = line_kinds(path)
        counts = {"total": sum(counts.values()), **counts}
        modules[os.path.basename(path)] = counts
        for name, value in counts.items():
            totals[name] += value
    return {**totals, "modules": modules}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", default="HEAD", help="parent commit (default HEAD)")
    p.add_argument("--change", default=None,
                   help="change commit (default: the working tree)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    p.add_argument("--workloads", default="cli_batch,compute_mix")
    p.add_argument("--work", default=None, help="directory for the two copies")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--trace", action="store_true",
                   help="also run one traced pass per workload, side and pair")
    p.add_argument("--tier1", action="store_true",
                   help="also run the tier-1 tests once per side, after the pairs")
    p.add_argument("--artifacts", action="store_true",
                   help="also compare every analysis's artifacts on both sides")
    p.add_argument("--layers", action="store_true",
                   help="also time the smooth-CDF layer on both sides")
    p.add_argument("--scale", action="store_true",
                   help="also run every CLI analysis at 1k-50k per group on both sides")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    work = args.work or tempfile.mkdtemp(prefix="bench-pairs-")
    trees = {"parent": os.path.join(work, "parent"), "change": os.path.join(work, "change")}
    for tree in trees.values():
        shutil.rmtree(tree, ignore_errors=True)
    export(args.parent, trees["parent"])
    export(args.change, trees["change"])

    workloads = args.workloads.split(",")
    if args.pairs == 0:  # the line split alone, without benchmark runs
        report = {"src_lines": {side: src_lines(tree) for side, tree in trees.items()}}
        if args.artifacts:
            report["artifacts"] = compare_artifacts(trees, workloads, [args.seed], work)
        if args.layers:
            report["layers"] = layers(trees, args.seed, 0, work)
        if args.scale:
            report["scale"] = scale(trees, args.seed, 0, work)
        if args.tier1:
            report["tier1"] = {side: tier1_once(tree) for side, tree in trees.items()}
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        return 0

    commits = {side: subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
               if rev else "working tree"
               for side, rev in (("parent", args.parent), ("change", args.change))}
    seeds = [args.seed + i for i in range(args.pairs)]
    runs = {w: {"parent": [], "change": []} for w in workloads}
    traces = {w: {"parent": [], "change": []} for w in runs}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload, sides in runs.items():
            for side in order:
                sides[side].append(run_once(trees[side], workload, seed,
                                            bench["run_seconds"]))
                wall = sides[side][-1]["metrics"]["wall_s"]
                print(f"pair {i} seed {seed} {workload} {side}: wall_s {wall:.3f}",
                      file=sys.stderr)
        for workload in traces if args.trace else ():
            for side in order:
                traces[workload][side].append(trace_once(trees[side], workload, seed))

    report = {
        "description": f"bench/run.py --seconds {bench['run_seconds']}, parent "
                       f"{commits['parent']} vs change {commits['change']}, "
                       "pairs alternating which side ran first",
        "seeds": seeds,
        "end_to_end": {w: summarize(s["parent"], s["change"], better)
                       for w, s in runs.items()},
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
    }
    if args.trace:
        report["trace"] = {
            w: {side: {name: round(statistics.median(t[name] for t in got), 4)
                       for name in sorted(set.intersection(*map(set, got)))}
                for side, got in sides.items()}
            for w, sides in traces.items()}
    if args.artifacts:
        report["artifacts"] = compare_artifacts(trees, workloads, seeds, work)
    if args.layers:
        report["layers"] = layers(trees, args.seed, args.pairs, work)
    if args.scale:
        report["scale"] = scale(trees, args.seed, args.pairs, work)
    if args.tier1:
        report["tier1"] = {side: tier1_once(tree) for side, tree in trees.items()}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
