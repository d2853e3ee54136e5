"""Run one roclab benchmark workload and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload cli_batch --seed 1 --seconds 20 --trace 0

It imports roclab from ``./src`` (no install step), pins BLAS and OpenMP
threads to the CPUs this process may use, sets up the workload, measures
whole passes until ``--seconds`` seconds have passed and checks
every analysis's artifacts.  Standard output ends with one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  A full
report, with the environment and any trace spans, is written under
``--out``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _nonnegative(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=_nonnegative, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: tiny inputs, for the benchmark's own tests")
    p.add_argument("--out", default=".bench_out", help="report directory")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "roclab", "cli.py")):
        print(f"error: no roclab package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    # before numpy is first imported here, and inherited by every child
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = nproc
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.size, args.out)
    result = report["result"]
    print(f"env: {json.dumps(report['env'], sort_keys=True)} seed={args.seed}")
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
