"""Every scalar that a public constructor or function takes, given NaN,
+-inf, 0, -1, True, 1.5 and an empty array: the call either refuses it
with a ValueError that names it in the words of its rule, or returns.

pytest turns warnings into errors here, so a RuntimeWarning on the way
fails the case.  The command-line flags have their own table in
tests/test_cli.py.
"""
import math
import re

import numpy as np
import pytest

from evnormalflow import (ConstantMotion, EventArray, ExtractionConfig,
                          Intrinsics, ModelKind, MovingEdge, NoiseSpec,
                          PlaneScene, RandomPointsScene, RansacConfig,
                          SplineFitProblem, SplineTrajectory, StepMotion,
                          TwoWallsScene, Velocity, build_time_surface,
                          evaluate, generate_dataset, hd_from_plane,
                          init_from_linear, read_events, run_noise_sweep,
                          surface_from_edges, trajectory_covering)
from evnormalflow.errors import BadNumber, OutOfDomain, UnderDetermined

PROBES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "0": 0,
          "-1": -1, "True": True, "1.5": 1.5, "empty": np.array([])}

# rule -> (its words, the probes it accepts)
RULES = {
    "positive": ("positive and finite", {"1.5"}),
    "positive_or_inf": ("positive", {"inf", "1.5"}),
    "non_negative": ("non-negative and finite", {"0", "1.5"}),
    "finite": ("finite", {"0", "-1", "1.5"}),
    "(0, 1)": ("in (0, 1)", set()),
    "[0, 1)": ("in [0, 1)", {"0"}),
    "(0, pi)": ("in (0, pi)", {"1.5"}),
    "[0, 240)": ("in [0, 240)", {"0", "1.5"}),
    "[0, 180)": ("in [0, 180)", {"0", "1.5"}),
    ">= 1": ("an integer >= 1", set()),
    ">= 3": ("an integer >= 3", set()),
    "odd >= 3": ("an odd integer >= 3", set()),
    "seed": ("an integer in [0, 2**64)", {"0"}),
    "sign": ("+1 or -1", {"-1"}),
}

MOTION = ConstantMotion(Velocity(nu=(0.2, -0.1, 0.3), omega=(0.1, -0.2, 0.15)))
OBS, _ = generate_dataset(RandomPointsScene(), MOTION, count=200, seed=5)
CAMERA = dict(fx=200.0, fy=200.0, cx=120.0, cy=90.0, width=240, height=180)
EDGES = [MovingEdge(point=(2.0, 0.0), direction=(0.0, 1.0),
                    velocity=(20.0, 0.0))]

# (what, name, rule, call(value))
CASES = [
    ("RansacConfig", "threshold", "positive",
     lambda v: RansacConfig(threshold=v)),
    ("RansacConfig", "confidence", "(0, 1)",
     lambda v: RansacConfig(confidence=v)),
    ("RansacConfig", "max_iterations", ">= 1",
     lambda v: RansacConfig(max_iterations=v)),
    ("RansacConfig", "seed", "seed", lambda v: RansacConfig(seed=v)),
    ("ExtractionConfig", "spatial_window", "odd >= 3",
     lambda v: ExtractionConfig(spatial_window=v)),
    ("ExtractionConfig", "temporal_window", "positive_or_inf",
     lambda v: ExtractionConfig(temporal_window=v)),
    ("ExtractionConfig", "plane_thresh", "positive",
     lambda v: ExtractionConfig(plane_thresh=v)),
    ("ExtractionConfig", "plane_iters", ">= 1",
     lambda v: ExtractionConfig(plane_iters=v)),
    ("ExtractionConfig", "min_support", ">= 3",
     lambda v: ExtractionConfig(min_support=v)),
    ("ExtractionConfig", "min_gradient", "positive",
     lambda v: ExtractionConfig(min_gradient=v)),
    ("ExtractionConfig", "seed", "seed", lambda v: ExtractionConfig(seed=v)),
    ("SplineFitProblem", "max_rounds", ">= 1",
     lambda v: SplineFitProblem(OBS, ModelKind.ANGULAR_VELOCITY,
                                max_rounds=v)),
    ("SplineTrajectory", "t0", "finite",
     lambda v: SplineTrajectory(np.zeros((4, 3)), t0=v, dt=0.1)),
    ("SplineTrajectory", "dt", "positive",
     lambda v: SplineTrajectory(np.zeros((4, 3)), t0=0.0, dt=v)),
    ("trajectory_covering", "t_min", "finite",
     lambda v: trajectory_covering(v, 2.0, 0.1)),
    ("trajectory_covering", "t_max", "finite",
     lambda v: trajectory_covering(-2.0, v, 0.1)),
    ("trajectory_covering", "dt", "positive",
     lambda v: trajectory_covering(0.0, 1.0, v)),
    ("init_from_linear", "dt", "positive",
     lambda v: init_from_linear(OBS, ModelKind.ANGULAR_VELOCITY, dt=v)),
    ("Intrinsics", "fx", "positive", lambda v: Intrinsics(**{**CAMERA, "fx": v})),
    ("Intrinsics", "fy", "positive", lambda v: Intrinsics(**{**CAMERA, "fy": v})),
    ("Intrinsics", "cx", "[0, 240)", lambda v: Intrinsics(**{**CAMERA, "cx": v})),
    ("Intrinsics", "cy", "[0, 180)", lambda v: Intrinsics(**{**CAMERA, "cy": v})),
    ("Intrinsics", "width", ">= 1",
     lambda v: Intrinsics(**{**CAMERA, "width": v})),
    ("Intrinsics", "height", ">= 1",
     lambda v: Intrinsics(**{**CAMERA, "height": v})),
    ("NoiseSpec", "sigma_px", "non_negative", lambda v: NoiseSpec(sigma_px=v)),
    ("NoiseSpec", "outlier_fraction", "[0, 1)",
     lambda v: NoiseSpec(outlier_fraction=v)),
    ("RandomPointsScene", "count", ">= 1",
     lambda v: RandomPointsScene(count=v)),
    ("RandomPointsScene", "extent", "positive",
     lambda v: RandomPointsScene(extent=v)),
    ("PlaneScene", "d", "positive", lambda v: PlaneScene(d=v)),
    ("PlaneScene", "extent", "positive", lambda v: PlaneScene(extent=v)),
    ("TwoWallsScene", "angle", "(0, pi)", lambda v: TwoWallsScene(angle=v)),
    ("TwoWallsScene", "d", "positive", lambda v: TwoWallsScene(d=v)),
    ("TwoWallsScene", "extent", "positive",
     lambda v: TwoWallsScene(extent=v)),
    ("StepMotion", "t_switch", "finite",
     lambda v: StepMotion(MOTION.velocity, MOTION.velocity, t_switch=v)),
    ("generate_dataset", "count", ">= 1",
     lambda v: generate_dataset(RandomPointsScene(), MOTION, count=v)),
    ("generate_dataset", "window", "positive",
     lambda v: generate_dataset(RandomPointsScene(), MOTION, count=20,
                                window=v)),
    ("generate_dataset", "seed", "seed",
     lambda v: generate_dataset(RandomPointsScene(), MOTION, count=20,
                                seed=v)),
    ("run_noise_sweep", "trials", ">= 1",
     lambda v: run_noise_sweep(ModelKind.DEPTH, (0.1,), trials=v,
                               samples=20)),
    ("run_noise_sweep", "samples", ">= 1",
     lambda v: run_noise_sweep(ModelKind.DEPTH, (0.1,), trials=1,
                               samples=v)),
    ("run_noise_sweep", "seed", "seed",
     lambda v: run_noise_sweep(ModelKind.DEPTH, (0.1,), trials=1,
                               samples=20, seed=v)),
    # the bounds are checked before the file is opened, so it need not exist
    ("read_events", "width", ">= 1",
     lambda v: read_events("absent.txt", width=v, height=180)),
    ("read_events", "height", ">= 1",
     lambda v: read_events("absent.txt", width=240, height=v)),
    ("build_time_surface", "t_ref", "finite",
     lambda v: build_time_surface(EventArray([], [], [], []), v, 0.04,
                                  (5, 5))),
    ("build_time_surface", "temporal_window", "positive_or_inf",
     lambda v: build_time_surface(EventArray([], [], [], []), 1.0, v,
                                  (5, 5))),
    ("build_time_surface", "polarity", "sign",
     lambda v: build_time_surface(EventArray([], [], [], []), 1.0, 0.04,
                                  (5, 5), polarity=v)),
    ("surface_from_edges", "window", "positive",
     lambda v: surface_from_edges(EDGES, (5, 5), v)),
    ("surface_from_edges", "t_ref", "finite",
     lambda v: surface_from_edges(EDGES, (5, 5), 0.5, t_ref=v)),
    ("hd_from_plane", "d", "positive",
     lambda v: hd_from_plane(MOTION.velocity, (0.0, 0.0, 1.0), v)),
]


@pytest.mark.parametrize("probe", list(PROBES))
@pytest.mark.parametrize("what, name, rule, call", CASES,
                         ids=[f"{c[0]}.{c[1]}" for c in CASES])
def test_bad_number_named_in_its_rule_words(what, name, rule, call, probe):
    value = PROBES[probe]
    words, accepted = RULES[rule]
    if probe in accepted:
        call(value)
        return
    with pytest.raises(BadNumber) as info:
        call(value)
    assert str(info.value) == f"{name} must be {words}, got {value!r}"
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("t_min, t_max, dt, name", [
    (-1e308, 1e308, 0.1, "t_max - t_min"),
    (0.0, 1e300, 1e-300, "(t_max - t_min) / dt"),
    (1.0, 0.5, 0.1, "t_max - t_min")])
def test_trajectory_covering_refuses_an_inverted_or_unbounded_grid(
        t_min, t_max, dt, name):
    with pytest.raises(BadNumber, match=f"^{re.escape(name)} must be "):
        trajectory_covering(t_min, t_max, dt)


def test_knot_grid_larger_than_its_data_refused_before_it_is_made():
    # 1e300 control points: fit would refuse them as under-determined, so
    # the init does before it allocates anything of that size
    with pytest.raises(UnderDetermined, match="200 observations < "):
        init_from_linear(OBS, ModelKind.ANGULAR_VELOCITY, dt=1e-300)
    t0, n_ctrl = trajectory_covering(0.0, 1.0, 1e-300)
    assert n_ctrl > 1e299 and t0 == -1e-300


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_spline_evaluate_refuses_a_non_finite_time(t):
    traj = SplineTrajectory(np.zeros((6, 3)), t0=0.0, dt=0.1)
    with pytest.raises(OutOfDomain):
        evaluate(traj, t)
    with pytest.raises(OutOfDomain):
        evaluate(traj, [0.2, t])
