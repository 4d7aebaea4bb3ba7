"""One run of one workload in this process; run.py starts it in a fresh one.

    python3 perfbench/bench.py --workload robust-solve --seed 1 --seconds 20 --trace 0

Set-up runs SETUP_REPS times.  Passes then repeat, one at a time, while
another one fits in --seconds (at least MIN_PASSES untraced passes), each
followed by the fixed reference kernel.  Every pass is checked against
ground truth and its output digest compared with the first pass's; a pass
that raises, breaks a sanity bound or differs counts as failed.  With
--trace 1, traced and untraced passes alternate: the traced ones give the
per-layer metrics, both give the tracing overhead.

Human-readable lines go first; the last line of standard output is the
JSON result.  Spans and per-pass records go to perfbench/out/.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPS = 3
MIN_PASSES = 2

END_TO_END = {"setup_s": "s", "pass_ref": "ratio", "peak_rss_mb": "MB"}

MODELS = ("six_dof", "diff_homography")
PER_LAYER = {
    "events.read_s": "s", "events.read_rate": "events/s",
    "events.surface_s": "s", "events.count": "count",
    "events.fired_px": "count",
    "extraction.extract_s": "s", "extraction.us_per_candidate": "us",
    "extraction.candidates": "count", "extraction.emitted": "count",
    "extraction.yield": "ratio",
    "extraction.reject.insufficient_support": "count",
    "extraction.reject.degenerate_configuration": "count",
    "extraction.reject.below_min_gradient": "count",
    "extraction.csv_write_s": "s", "extraction.csv_read_s": "s",
    "extraction.to_obs_s": "s",
    **{f"solvers.{name}.{m}": unit for m in MODELS for name, unit in (
        ("ransac_s", "s"), ("iterations", "count"), ("hit_cap", "count"),
        ("inlier_ratio", "ratio"), ("inlier_recall", "ratio"),
        ("inlier_precision", "ratio"), ("err_vs_oracle", "ratio"),
        ("cond", "ratio"))},
    "solvers.ransac_s.angular_velocity": "s",
    "solvers.calls.angular_velocity": "count",
    "solvers.iterations.angular_velocity": "count",
    "solvers.hit_cap.angular_velocity": "count",
    "solvers.inlier_ratio.angular_velocity": "ratio",
    "homography.decompose_s": "s", "homography.candidate_err": "rel",
    "spline.init_s": "s", "spline.init.good_segments": "count",
    "spline.init.filled_segments": "count", "spline.fit_s": "s",
    "spline.irls_rounds": "count", "spline.s_per_round": "s",
    "spline.n_ctrl": "count", "spline.starved_segments": "count",
    "spline.design_bytes": "bytes", "spline.eval_s": "s",
    "synthesis.generate_s": "s", "synthesis.obs_per_s": "obs/s",
    "synthesis.resample_rounds": "count", "synthesis.surface_s": "s",
    "err.flow": "rel", "err.homography": "rel", "err.six_dof": "rel",
    "err.trajectory": "rel",
    **{f"self_s.{layer}": "s" for layer in (
        "events", "extraction", "solvers", "homography", "spline", "synthesis")},
    "pass_s": "s", "items_per_s": "1/s", "ref_s": "s",
    "trace.uncovered_s": "s", "trace.pass_s": "s",
    "trace.untraced_pass_s": "s", "trace.overhead_s": "s",
    "trace.spans_per_pass": "count",
}


def import_package():
    """Import evnormalflow from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import evnormalflow
    if not os.path.abspath(evnormalflow.__file__).startswith(SRC + os.sep):
        raise ImportError(f"evnormalflow imported from {evnormalflow.__file__}")


def environment():
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = {k: v for k, v in sorted(os.environ.items())
               if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"}
    return {"nproc": os.cpu_count(), "cpu": cpu, "numpy": np.__version__,
            "python": platform.python_version(), "threads": threads}


def reference_kernel():
    """Fixed interpreter, object, small-solve and BLAS work: about 0.18 s.

    The host's CPU speed drifts by tens of percent over minutes, so wall
    time per pass differs between runs more than any useful bound.  This
    kernel runs before the first pass and after every pass; pass_ref is the
    median over passes of the pass time over the mean of the two kernel
    times around it, which cancels the drift common to both.  It calls no
    evnormalflow code, so no change to the package moves it.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    acc = 0.0
    for i in range(300_000):
        acc += (i * 0.5) % 7.0
    objs = [(float(i), np.array([i, i + 1.0])) for i in range(40_000)]
    m = rng.standard_normal((2000, 150))
    for _ in range(6):
        np.linalg.lstsq(m, m[:, 0], rcond=None)
    a = rng.standard_normal((400, 6, 6))
    b = rng.standard_normal((400, 6))
    for k in range(400):
        np.linalg.solve(a[k], b[k])
    return acc + len(objs)


def _timed_reference():
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def _percentile_note(values):
    """The highest of p90/p99 with at least ten samples beyond it, if any."""
    for q, label in ((99, "p99"), (90, "p90")):
        if len(values) * (100 - q) / 100 >= 10:
            return f", {label} {statistics.quantiles(values, n=100)[q - 1]:.4f} s"
    return ", no percentile: fewer than 100 passes"


def run_workload(name, seed, seconds, trace, size="full", calls=None,
                 import_s=0.0):
    """Run one workload here; returns (result dict, human lines, record).

    `calls` replaces the untraced call table (the smoke test uses it to
    corrupt an output on purpose); import_s is added to setup_s.
    """
    from calls import Calls, Tracer
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    plain = calls or Calls()
    tracer = Tracer() if trace else None
    traced = Calls(tracer) if trace else None
    setup_calls = traced or plain
    workload = WORKLOADS[name](seed, size, OUT)
    try:
        setup_times, input_digests = [], []
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            with setup_calls.active(f"setup{rep}"):
                inputs = workload.setup(setup_calls)
            setup_times.append(time.perf_counter() - t0)
            input_digests.append(inputs["digest"])
        inputs_stable = len(set(input_digests)) == 1

        passes, first_digest, figures, errors = [], None, None, None
        t_begin = time.perf_counter()
        ref_s = [_timed_reference()]
        i = 0
        while True:
            is_traced = trace and i % 2 == 1
            use = traced if is_traced else plain
            record = {"pass": i, "traced": is_traced, "problem": None}
            t0 = time.perf_counter()
            try:
                with use.active(i):
                    out = workload.run_pass(use, inputs)
                record["seconds"] = time.perf_counter() - t0
                pass_errors = workload.check(inputs, out)
                out_digest = workload.digest(out)
                if first_digest is None:
                    first_digest, errors = out_digest, pass_errors
                elif out_digest != first_digest:
                    record["problem"] = "output digest differs from the first pass"
                if is_traced and figures is None and record["problem"] is None:
                    figures = workload.layer_figures(plain, inputs, out)
                del out
            except Exception as exc:            # a failed pass, counted below
                record.setdefault("seconds", time.perf_counter() - t0)
                record["problem"] = f"{type(exc).__name__}: {exc}"
            passes.append(record)
            ref_s.append(_timed_reference())
            i += 1
            # Stop before a pass that would run past --seconds.
            untraced_done = sum(not p["traced"] for p in passes)
            elapsed = time.perf_counter() - t_begin
            if (elapsed + record["seconds"] + ref_s[-1] > seconds
                    and untraced_done >= MIN_PASSES):
                break
    finally:
        workload.cleanup()

    failed = sum(p["problem"] is not None for p in passes)
    if not inputs_stable:
        failed = len(passes)
    errors = errors or {}
    untraced_s = [p["seconds"] for p in passes if not p["traced"]]
    traced_ids = [p["pass"] for p in passes if p["traced"]]
    pass_s = statistics.median(untraced_s)
    pass_ref = statistics.median(p["seconds"] / ((ref_s[i] + ref_s[i + 1]) / 2)
                                 for i, p in enumerate(passes) if not p["traced"])
    items = workload.items(inputs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    lines = [f"{name}: {len(passes)} passes over {seconds:g} s, seed {seed}, "
             f"trace {int(trace)}",
             f"  setup_s      {import_s + statistics.median(setup_times):.4f} s "
             f"(import {import_s:.4f} s + median of {SETUP_REPS} set-ups)",
             f"  pass_s       {pass_s:.4f} s (median of {len(untraced_s)} "
             f"untraced passes{_percentile_note(untraced_s)})",
             f"  pass_ref     {pass_ref:.4f} (median of passes over the reference "
             f"kernel around them; kernel median {statistics.median(ref_s):.4f} s)",
             f"  items_per_s  {items / pass_s:.1f} {workload.unit}/s "
             f"({items} {workload.unit} per pass)",
             f"  peak_rss_mb  {rss_mb:.1f} MB",
             f"  fail_ratio   {failed}/{len(passes)} = {failed / len(passes):.3f}"]
    lines += [f"  {k:<12} {v:.6g} rel" for k, v in errors.items()]
    lines += [f"  pass {p['pass']} failed: {p['problem']}" for p in passes
              if p["problem"]]
    if not inputs_stable:
        lines.append("  set-up inputs differ between repetitions")

    if not trace:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "pass_ref": pass_ref,
            "peak_rss_mb": rss_mb,
        }
        units = END_TO_END
    else:
        metrics = _layer_metrics(tracer, traced_ids, passes, figures or {},
                                 errors)
        metrics.update({"pass_s": pass_s, "items_per_s": items / pass_s,
                        "ref_s": statistics.median(ref_s)})
        units = PER_LAYER
        lines += [f"  {k:<44} {metrics[k]:.6g} {units[k]}" for k in units]
    result = {"correct": failed == 0, "attempted": len(passes), "failed": failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                          for k in units}}
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "size": size, "import_s": import_s,
              "setup_s": setup_times, "passes": passes, "ref_s": ref_s,
              "result": result,
              "spans": tracer.spans if tracer else []}
    return result, lines, record


def _layer_metrics(tracer, traced_ids, passes, figures, errors):
    """Per-layer metrics as means over the traced passes, so that the layer
    self times and the uncovered remainder add up to trace.pass_s."""
    from calls import self_times

    n = max(len(traced_ids), 1)
    ids = set(traced_ids)
    dur = defaultdict(float)
    count = defaultdict(float)
    calls_of = defaultdict(float)
    for name, start, end, parent, pass_id, counts in tracer.spans:
        if pass_id not in ids:
            continue
        dur[name] += end - start
        calls_of[name] += 1
        for key, value in (counts or {}).items():
            count[(name, key)] += value

    def mean_dur(*names):
        return sum(dur[s] for s in names) / n

    def ratio(a, b):
        return a / b if b else 0.0

    m = dict.fromkeys(PER_LAYER, 0.0)
    read = "events.read_events"
    m["events.read_s"] = mean_dur(read)
    m["events.read_rate"] = ratio(count[(read, "events")], dur[read])
    m["events.surface_s"] = mean_dur("events.build_time_surface")
    m["events.count"] = count[(read, "events")] / n
    m["events.fired_px"] = count[("events.build_time_surface", "fired_px")] / n

    ex = "extraction.extract_normal_flows"
    cand = count[(ex, "candidates")]
    m["extraction.extract_s"] = mean_dur(ex)
    m["extraction.us_per_candidate"] = 1e6 * ratio(dur[ex], cand)
    m["extraction.candidates"] = cand / n
    m["extraction.emitted"] = count[(ex, "emitted")] / n
    m["extraction.yield"] = ratio(count[(ex, "emitted")], cand)
    for reason in ("insufficient_support", "degenerate_configuration",
                   "below_min_gradient"):
        m[f"extraction.reject.{reason}"] = count[(ex, reason)] / n
    m["extraction.csv_write_s"] = mean_dur("extraction.write_flows_csv")
    m["extraction.csv_read_s"] = mean_dur("extraction.read_flows_csv")
    m["extraction.to_obs_s"] = mean_dur("extraction.records_to_obs")

    for model in MODELS + ("angular_velocity",):
        span = f"solvers.ransac_estimate.{model}"
        obs = count[(span, "observations")]
        m[f"solvers.ransac_s.{model}"] = mean_dur(span)
        m[f"solvers.iterations.{model}"] = count[(span, "iterations")] / n
        m[f"solvers.hit_cap.{model}"] = count[(span, "hit_cap")] / n
        m[f"solvers.inlier_ratio.{model}"] = ratio(count[(span, "inliers")], obs)
        if model in MODELS:
            m[f"solvers.cond.{model}"] = ratio(count[(span, "cond")], calls_of[span])
    m["solvers.calls.angular_velocity"] = (
        calls_of["solvers.ransac_estimate.angular_velocity"] / n)

    m["homography.decompose_s"] = mean_dur("homography.recover_true_hd",
                                           "homography.decompose_hd")

    init, fit = "spline.init_from_linear", "spline.fit"
    m["spline.init_s"] = mean_dur(init)
    m["spline.init.good_segments"] = count[(init, "good_segments")] / n
    m["spline.init.filled_segments"] = count[(init, "filled_segments")] / n
    m["spline.fit_s"] = mean_dur(fit)
    m["spline.irls_rounds"] = count[(fit, "irls_rounds")] / n
    m["spline.s_per_round"] = ratio(dur[fit], count[(fit, "irls_rounds")])
    m["spline.n_ctrl"] = count[(fit, "n_ctrl")] / n
    m["spline.starved_segments"] = count[(fit, "starved_segments")] / n
    m["spline.design_bytes"] = count[(fit, "design_bytes")] / n
    m["spline.eval_s"] = mean_dur("spline.evaluate")

    gen = "synthesis.generate_dataset"
    m["synthesis.generate_s"] = mean_dur(gen)
    m["synthesis.obs_per_s"] = ratio(count[(gen, "observations")], dur[gen])
    m["synthesis.resample_rounds"] = count[(gen, "resample_rounds")] / n
    surface = defaultdict(float)
    for name, start, end, parent, pass_id, _ in tracer.spans:
        if name == "synthesis.surface_from_edges":
            surface[pass_id] += end - start
    m["synthesis.surface_s"] = statistics.median(surface.values()) if surface else 0.0

    m.update(errors)
    m.update(figures)

    layers, covered = self_times(tracer.spans)
    traced_s = [p["seconds"] for p in passes if p["traced"]]
    untraced_s = [p["seconds"] for p in passes if not p["traced"]]
    for pass_id in traced_ids:
        for layer, seconds in layers.get(pass_id, {}).items():
            m[f"self_s.{layer}"] += seconds / n
    m["trace.uncovered_s"] = (sum(traced_s)
                              - sum(covered.get(p, 0.0) for p in traced_ids)) / n
    m["trace.pass_s"] = sum(traced_s) / n
    m["trace.untraced_pass_s"] = statistics.mean(untraced_s)
    m["trace.overhead_s"] = m["trace.pass_s"] - m["trace.untraced_pass_s"]
    m["trace.spans_per_pass"] = sum(calls_of.values()) / n
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    import_s = time.perf_counter() - T_START
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload}")
    env = environment()
    result, lines, record = run_workload(args.workload, args.seed, args.seconds,
                                         bool(args.trace), import_s=import_s)
    record["environment"] = env
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    print("\n".join(lines))
    print(f"# record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
