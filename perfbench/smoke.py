"""Smoke test of the benchmark itself, at a tiny size (about a minute).

    python3 perfbench/smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit by
every workload, traced and untraced; that the event-stream generator is
byte-identical under a seed; that corrupted outputs are counted as failed
passes; and that the command fails, printing no result, in a directory
holding only BENCHMARK.json and the benchmark.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run

os.environ.update(run.pinned_environment())

import bench  # noqa: E402  (after the thread pins, before numpy loads)

bench.import_package()

import numpy as np  # noqa: E402

from calls import Calls  # noqa: E402
from workloads import WORKLOADS, EventPipeline  # noqa: E402

FAILURES = []


def check(ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        FAILURES.append(message)


def declared_metrics():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def check_metrics():
    end_to_end, per_layer, workloads = declared_metrics()
    check(sorted(workloads) == sorted(WORKLOADS), "BENCHMARK.json lists every workload")
    check(end_to_end == bench.END_TO_END, "end-to-end metrics match BENCHMARK.json")
    check(per_layer == bench.PER_LAYER, "per-layer metrics match BENCHMARK.json")
    for name in WORKLOADS:
        for trace, declared in ((False, end_to_end), (True, per_layer)):
            result, lines, _ = bench.run_workload(name, 7, 0.0, trace, size="tiny")
            printed = result["metrics"]
            check(set(printed) == set(declared)
                  and all(printed[k]["unit"] == declared[k] for k in declared)
                  and all(np.isfinite(printed[k]["value"]) for k in declared),
                  f"{name} trace={int(trace)}: every metric printed with its unit")
            check(result["correct"] and result["failed"] == 0,
                  f"{name} trace={int(trace)}: fail_ratio 0")
            if not trace:
                check(all(printed[k]["value"] != 0 for k in declared),
                      f"{name}: no end-to-end metric reads 0")
            json.loads(json.dumps(result, allow_nan=False))


def check_stream():
    def stream(seed):
        return EventPipeline(seed, "tiny", bench.OUT).stream(Calls())[0]
    first, again, other = stream(3), stream(3), stream(4)
    check(first == again, "event stream byte-identical under one seed")
    check(first != other, "event stream differs under another seed")


class CorruptCalls(Calls):
    """ransac_estimate output corrupted: NaN always, or a last-bit change
    from the second call on."""

    def __init__(self, nan):
        super().__init__()
        self.count = 0
        clean = self.ransac_estimate

        def corrupt(*args, **kwargs):
            report = clean(*args, **kwargs)
            self.count += 1
            if nan:
                return dataclasses.replace(report, theta=report.theta * np.nan)
            if self.count > 1:
                return dataclasses.replace(report, theta=np.nextafter(
                    report.theta, np.inf))
            return report

        self.ransac_estimate = corrupt


def check_corruption():
    result, _, _ = bench.run_workload("robust-solve", 7, 0.0, False, size="tiny",
                                      calls=CorruptCalls(nan=True))
    check(not result["correct"] and result["failed"] == result["attempted"],
          "non-finite estimates count every pass as failed")
    result, _, _ = bench.run_workload("event-pipeline", 7, 0.0, False, size="tiny",
                                      calls=CorruptCalls(nan=False))
    check(not result["correct"] and result["failed"] == result["attempted"] - 1,
          "an output differing from the first pass counts as failed")


def check_bare_checkout():
    bare = os.path.join(bench.OUT, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "robust-solve",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "fails without a result where the checkout holds no package")


def main():
    os.makedirs(bench.OUT, exist_ok=True)
    check_stream()
    check_corruption()
    check_bare_checkout()
    check_metrics()
    print(f"smoke: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
