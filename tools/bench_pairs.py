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
docstring, comment and blank lines.  ``--pairs 0`` writes only that line
count (and the ``--tier1`` results), without running the benchmark.

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
values from ``--seed``; burn-in 500, 1,000 draws, truncation 10) and of
one ``kernel_roc`` on 10,000 + 10,000 values, over 5 calls per round after
a warm call, plus the CDF evaluations per root and the passes of the
inversion in one such ``dpm_roc`` and one such ``kernel_roc``, counted
through a wrapped ``_mixture_sums``.  The output file gets them under
``layers``.

With ``--tier1``, the tier-1 suite (``python -m pytest -q
--continue-on-collection-errors`` with ``src`` on ``PYTHONPATH``) runs
once on each copy after the pairs, the parent first, and the output file
gets each side's wall seconds, exit code, counts from pytest's summary
line and ``ACCEPTANCE n: ...`` verdict lines under ``tier1``.
"""

from __future__ import annotations

import argparse
import glob
import io
import json
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


def layer_once(seed: int, calls: int) -> dict:
    """The smooth-CDF layer of the ``roclab`` on ``sys.path``, timed and
    counted in this process (see ``--layers``)."""
    import roclab.pooled_roc as pooled
    from roclab import DpmConfig, SeedSpec, dpm_fit, dpm_roc, kernel_roc

    rng = np.random.default_rng(seed)
    d, nd = rng.normal(1.0, 1.0, 1000), rng.normal(0.0, 1.0, 1000)
    fits = [dpm_fit(y, DpmConfig(seed=SeedSpec(seed, stream))) for y, stream in ((d, 1), (nd, 2))]
    big_d, big_nd = rng.normal(1.0, 1.0, 10_000), rng.normal(0.0, 1.0, 10_000)
    runs = {"dpm_roc": lambda: dpm_roc(*fits, youden=True),
            "kernel_roc": lambda: kernel_roc(big_d, big_nd)}
    report = {}
    real = pooled._mixture_sums
    for name, fn in runs.items():
        evaluated = []

        def counted(w, mu, sigma, x, ndtr, density=False, rows=None, work=None):
            if density:  # a pass of the inversion
                evaluated.append((w.shape[0] if rows is None else rows.size) * x.shape[-1])
            return real(w, mu, sigma, x, ndtr, density, rows, work)

        pooled._mixture_sums = counted
        try:  # this call also warms the caches
            out = fn()
        finally:
            pooled._mixture_sums = real
        curves = np.atleast_2d(out.curves if name == "dpm_roc" else out.roc)
        roots = curves.shape[0] * int(((out.grid > 0.0) & (out.grid < 1.0)).sum())
        seconds = []
        for _ in range(calls):
            start = time.perf_counter()
            fn()
            seconds.append(time.perf_counter() - start)
        report[name] = {"seconds": seconds, "passes": len(evaluated),
                        "evaluations_per_root": round(sum(evaluated) / roots, 4)}
    return report


def layers(trees: dict, seed: int, rounds: int) -> dict:
    """``layer_once`` on both trees in alternating rounds; medians per side."""
    code = (f"import json, sys; sys.path.insert(0, {os.path.join(ROOT, 'tools')!r}); "
            f"import bench_pairs; print(json.dumps(bench_pairs.layer_once({seed}, 5)))")
    got = {side: [] for side in trees}
    for i in range(max(1, rounds)):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            proc = subprocess.run([sys.executable, "-c", code], cwd=trees[side], check=True,
                                  capture_output=True, text=True, env=pinned_env(trees[side]))
            got[side].append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"layers round {i} {side}: done", file=sys.stderr)
    report = {}
    for side, runs in got.items():
        report[side] = {}
        for name, first in runs[0].items():
            seconds = [s for r in runs for s in r[name]["seconds"]]
            report[side][f"{name}_s_q25_median_q75"] = quartiles(seconds)
            report[side][f"{name}.evaluations_per_root"] = first["evaluations_per_root"]
            report[side][f"{name}.passes"] = first["passes"]
    return {"seed": seed, "rounds": max(1, rounds), "calls_per_round": 5, "by_side": report}


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
    """Lines of ``src/roclab/*.py``: the total and its split by ``line_kinds``."""
    totals = {"total": 0, "code": 0, "docstring": 0, "comment": 0, "blank": 0}
    for path in sorted(glob.glob(os.path.join(tree, "src", "roclab", "*.py"))):
        counts = line_kinds(path)
        totals["total"] += sum(counts.values())
        for name, value in counts.items():
            totals[name] += value
    return totals


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
            report["layers"] = layers(trees, args.seed, 0)
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
        report["layers"] = layers(trees, args.seed, args.pairs)
    if args.tier1:
        report["tier1"] = {side: tier1_once(tree) for side, tree in trees.items()}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
