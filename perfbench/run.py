"""Benchmark of the evnormalflow pipeline: events -> flows -> motion.

    python3 perfbench/run.py --workload event-pipeline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; the package is imported from its src/.
Each workload runs in a fresh Python process (perfbench/bench.py) with the
BLAS/OpenMP thread counts pinned to THREADS, one after another.  The last
line of standard output is the JSON result of the (last) workload.  The
command fails, printing no result, when the checkout holds no package.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(HERE), "src", "evnormalflow", "__init__.py")
WORKLOADS = ("event-pipeline", "robust-solve", "spline-step")

# No larger than nproc on any machine; one thread also keeps the closed-loop
# timings free of BLAS thread scheduling on a shared host.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TIMEOUT_S = 170


def pinned_environment():
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: str(THREADS) for var in THREAD_VARS})
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(PACKAGE):
        print(f"error: no evnormalflow package at {PACKAGE}", file=sys.stderr)
        return 2
    env = pinned_environment()
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [sys.executable, os.path.join(HERE, "bench.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            code = subprocess.run(cmd, env=env, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"error: {workload} ran past {TIMEOUT_S} s", file=sys.stderr)
            return 3
        if code != 0:
            print(f"error: {workload} exited with {code}", file=sys.stderr)
            return code if code > 0 else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
