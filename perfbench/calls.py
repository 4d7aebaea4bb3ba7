"""The benchmark's one call table into evnormalflow, and its span recorder.

Every call the workloads make into the package goes through a `Calls`
object built from TABLE.  Untraced, an attribute is the library function
itself.  Traced, it is a wrapper that records a span (name, start, end,
parent span, pass id) plus the counts its result exposes, at the same
boundary.  Spans stay in memory until the run ends.

The layers are the package modules.  `geometry` is reached through
`records_to_obs` and the solvers; `cli` through the CSV round trip that
its extract -> solve path performs.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

import evnormalflow as ev
import evnormalflow.spline as ev_spline

DEFAULT_MAX_ITERATIONS = ev.RansacConfig().max_iterations


def _ransac_tag(args, kwargs):
    kind = args[1] if len(args) > 1 else kwargs["kind"]
    return kind.value


def _count_read(result, args, kwargs):
    return {"events": len(result)}


def _count_surface(result, args, kwargs):
    return {"fired_px": int(result.fired_mask().sum())}


def _count_extract(result, args, kwargs):
    return result[1].to_dict()


def _count_ransac(result, args, kwargs):
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    cap = cfg.max_iterations if cfg is not None else DEFAULT_MAX_ITERATIONS
    return {"observations": len(args[0]), "iterations": result.iterations,
            "hit_cap": int(result.iterations >= cap),
            "inliers": len(result.inliers), "cond": result.cond}


def _count_generate(result, args, kwargs):
    return {"observations": len(result[0]),
            "resample_rounds": result[1].resample_rounds}


def _count_init(result, args, kwargs):
    return {"good_segments": len(result[1].good_segments),
            "filled_segments": len(result[1].filled_segments)}


def _count_fit(result, args, kwargs):
    traj, report = result
    k = len(args[0].observations)
    # Computed, not measured: the dense K x (n_ctrl * dim) design fit() builds.
    return {"irls_rounds": report.irls_rounds, "n_ctrl": traj.n_ctrl,
            "starved_segments": len(report.starved_segments),
            "design_bytes": 8 * k * traj.n_ctrl * traj.dim}


# name -> (layer, function, span tag from the arguments, counts from the result)
TABLE = {
    "read_events": ("events", ev.read_events, None, _count_read),
    "build_time_surface": ("events", ev.build_time_surface, None, _count_surface),
    "extract_normal_flows": ("extraction", ev.extract_normal_flows, None,
                             _count_extract),
    "write_flows_csv": ("extraction", ev.write_flows_csv, None, None),
    "read_flows_csv": ("extraction", ev.read_flows_csv, None, None),
    "records_to_obs": ("extraction", ev.records_to_obs, None, None),
    "build_rows": ("solvers", ev.build_rows, None, None),
    "stack_and_solve": ("solvers", ev.stack_and_solve, None, None),
    "ransac_estimate": ("solvers", ev.ransac_estimate, _ransac_tag, _count_ransac),
    "recover_true_hd": ("homography", ev.recover_true_hd, None, None),
    "decompose_hd": ("homography", ev.decompose_hd, None, None),
    "init_from_linear": ("spline", ev.init_from_linear, None, _count_init),
    "fit": ("spline", ev.fit, None, _count_fit),
    "evaluate": ("spline", ev.evaluate, None, None),
    "generate_dataset": ("synthesis", ev.generate_dataset, None, _count_generate),
    "surface_from_edges": ("synthesis", ev.surface_from_edges, None, None),
}

LAYERS = ("events", "extraction", "solvers", "homography", "spline", "synthesis")

# Calls one package module makes into another, rebound during traced
# passes so that they nest under the caller's span.
INTERNAL = ((ev_spline, "ransac_estimate"),)


class Tracer:
    """Spans as [name, start, end, parent index, pass id, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.pass_id = None

    def wrap(self, layer, name, fn, tag, count):
        base = f"{layer}.{name}"

        def traced(*args, **kwargs):
            span_name = f"{base}.{tag(args, kwargs)}" if tag else base
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [span_name, 0.0, 0.0, parent, self.pass_id, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[5] = count(result, args, kwargs)
            return result

        return traced


class Calls:
    """Attribute access to every TABLE entry, traced when given a Tracer."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        for name, (layer, fn, tag, count) in TABLE.items():
            setattr(self, name,
                    fn if tracer is None else tracer.wrap(layer, name, fn, tag, count))

    @contextmanager
    def active(self, pass_id):
        """Label spans with pass_id and route INTERNAL calls through the table."""
        if self.tracer is None:
            yield
            return
        self.tracer.pass_id = pass_id
        saved = [(module, attr, getattr(module, attr)) for module, attr in INTERNAL]
        for module, attr, _ in saved:
            setattr(module, attr, getattr(self, attr))
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)
            self.tracer.pass_id = None


def self_times(spans):
    """Per pass id: each layer's self time, and the time top-level spans cover.

    A span's self time is its duration minus that of its direct children,
    so the layer self times of a pass sum to the covered time.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, pass_id, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    layers, covered = {}, {}
    for i, (name, start, end, parent, pass_id, _) in enumerate(spans):
        per_layer = layers.setdefault(pass_id, dict.fromkeys(LAYERS, 0.0))
        per_layer[name.split(".", 1)[0]] += end - start - child[i]
        if parent < 0:
            covered[pass_id] = covered.get(pass_id, 0.0) + end - start
    return layers, covered
