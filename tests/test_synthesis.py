"""Simulator and oracle tests: exact motion fields, sampled normal flows,
dataset determinism, analytic time surfaces, the toy registration, and the
noise sweep."""
import math
import warnings

import numpy as np
import pytest

from evnormalflow import (
    ConstantMotion, DegenerateDepth, MovingEdge, NoiseSpec, PlaneScene,
    RandomPointsScene, RankDeficient, SplineMotion, SplineTrajectory,
    StepMotion, TwoWallsScene, UnderDetermined, Velocity, generate_dataset,
    matrix_c, matrix_d, run_noise_sweep,
    surface_from_edges, toy_registration, ModelKind,
)
from evnormalflow.events import UNFIRED
from evnormalflow.solvers import _flow_model
from evnormalflow.synthesis import UNOBSERVABLE_TOL

EPS = np.finfo(float).eps


# --------------------------------------------------------------------------
# the motion field / sampled normal flow

def six_dof_flow(x, y, z, v):
    """The six-dof flow (2,) of velocity v at (x, y) and depth z, from the
    model in solvers._flow_model that generate_dataset evaluates."""
    ux, uy = _flow_model(np.array([[x, y]]), ModelKind.SIX_DOF, [z])(
        np.r_[v.nu, v.omega])
    return np.array([ux[0], uy[0]])


def project(u, ghat):
    """The normal flow an edge of unit gradient direction ghat sees of the
    full flow u, n = (u . ghat) ghat, as generate_dataset samples it; and
    whether it is observable, |u . ghat| >= UNOBSERVABLE_TOL."""
    dot = float(np.asarray(u, dtype=float) @ np.asarray(ghat, dtype=float))
    return dot * np.asarray(ghat, dtype=float), abs(dot) >= UNOBSERVABLE_TOL


def test_flow_pure_translation_at_origin():
    u = six_dof_flow(0.0, 0.0, 1.0, Velocity(nu=(1, 0, 0), omega=(0, 0, 0)))
    assert np.allclose(u, (-1.0, 0.0), atol=1e-15)


def test_flow_pure_rotation_hand_value():
    u = six_dof_flow(1.0, 0.0, 1.0, Velocity(nu=(0, 0, 0), omega=(0, 0, 1)))
    assert np.allclose(u, (0.0, -1.0), atol=1e-15)


def test_flow_zero_motion():
    u = six_dof_flow(0.3, -0.2, 2.0, Velocity(nu=(0, 0, 0), omega=(0, 0, 0)))
    assert np.allclose(u, (0.0, 0.0))


def test_flow_rejects_nonpositive_depth():
    with pytest.raises(DegenerateDepth):
        six_dof_flow(0.0, 0.0, 0.0, Velocity(nu=(1, 0, 0), omega=(0, 0, 0)))
    with pytest.raises(DegenerateDepth):
        six_dof_flow(0.0, 0.0, -1.0, Velocity(nu=(1, 0, 0), omega=(0, 0, 0)))


def test_sample_normal_flow_parallel_and_perpendicular():
    u = (0.4, 0.3)
    n, observable = project(u, (0.8, 0.6))
    assert observable and np.allclose(n, u, atol=1e-15)
    n, observable = project(u, (-0.6, 0.8))
    assert not observable
    assert np.allclose(n, (0.0, 0.0), atol=1e-15)


def test_sample_normal_flow_projection_value():
    n, observable = project((1.732, -1.0), (1.0, 0.0))
    assert observable
    assert np.allclose(n, (1.732, 0.0), atol=1e-15)


# --------------------------------------------------------------------------
# scenes and motion profiles

def test_plane_scene_normalizes_normal_and_checks_frustum():
    scene = PlaneScene(normal=(0.0, 0.0, 2.0), d=1.0)
    assert np.allclose(scene.normal, (0, 0, 1))
    with pytest.raises(ValueError):
        PlaneScene(normal=(1.0, 0.0, 0.0), d=1.0)  # crosses the frustum
    with pytest.raises(ValueError):
        PlaneScene(d=-1.0)
    # in front of the camera over x in [-0.45, 0.45], not over [-0.6, 0.6]
    PlaneScene(normal=(1.0, 0.0, 0.5), d=1.0, extent=0.45)
    with pytest.raises(ValueError, match="frustum"):
        PlaneScene(normal=(1.0, 0.0, 0.5), d=1.0, extent=0.6)


def test_plane_scene_depths_match_plane_equation():
    scene = PlaneScene(normal=(0.2, -0.1, 1.0), d=2.0)
    xy, z = scene.sample(np.random.default_rng(0), 500)
    xhat = np.concatenate([xy, np.ones((500, 1))], axis=1)
    n = np.asarray(scene.normal)
    assert np.allclose((xhat * z[:, None]) @ n, 2.0, atol=1e-12)
    assert np.all(z > 0)


def test_random_points_scene_depth_range_and_cloud():
    scene = RandomPointsScene(depth_range=(1.0, 5.0))
    _, z = scene.sample(np.random.default_rng(1), 1000)
    assert np.all((z >= 1.0) & (z <= 5.0))
    cloud = RandomPointsScene(count=10, depth_range=(1.0, 5.0))
    xy, z = cloud.sample(np.random.default_rng(2), 400)
    assert len(np.unique(z.round(12))) <= 10
    with pytest.raises(ValueError):
        RandomPointsScene(depth_range=(0.0, 5.0))


def test_two_walls_scene_has_two_depth_populations():
    scene = TwoWallsScene(angle=0.5, d=2.0)
    xy, z = scene.sample(np.random.default_rng(3), 2000)
    left, right = xy[:, 0] < 0, xy[:, 0] >= 0
    # same |x| on opposite walls gives the same depth; depth varies with x
    assert np.all(z > 0)
    assert z[left].std() > 1e-3 and z[right].std() > 1e-3
    with pytest.raises(ValueError):
        TwoWallsScene(angle=0.0)
    with pytest.raises(ValueError, match="frustum"):
        TwoWallsScene(angle=3.0)     # near edge-on walls cross the frustum


def test_step_motion_switches_at_t_switch():
    motion = StepMotion(before=Velocity(nu=(0, 0, 0), omega=(0, 0, 0.5)),
                        after=Velocity(nu=(0, 0, 0), omega=(0, 0, 2.0)),
                        t_switch=0.25)
    nu, omega = motion.at(np.array([0.1, 0.25, 0.4]))
    assert np.allclose(omega[:, 2], (0.5, 2.0, 2.0))
    nu, omega = motion.at(0.1)
    assert nu.shape == omega.shape == (1, 3)
    assert np.allclose(omega, [(0, 0, 0.5)])
    assert np.allclose(motion.at(0.3)[1], [(0, 0, 2.0)])


@pytest.mark.parametrize("t_switch", [math.nan, math.inf, -math.inf])
def test_step_motion_rejects_non_finite_switch_time(t_switch):
    with pytest.raises(ValueError, match="t_switch"):
        StepMotion(before=Velocity(nu=(0, 0, 0), omega=(0, 0, 0.5)),
                   after=Velocity(nu=(0, 0, 0), omega=(0, 0, 2.0)),
                   t_switch=t_switch)


def test_spline_motion_dims():
    traj3 = SplineTrajectory(np.tile([0.1, 0.2, 0.3], (5, 1)), t0=-0.05, dt=0.2)
    nu, omega = SplineMotion(traj3).at(0.3)
    assert np.allclose(nu, 0.0)
    assert np.allclose(omega, [0.1, 0.2, 0.3])
    traj6 = SplineTrajectory(np.tile(np.arange(6.0), (5, 1)), t0=-0.05, dt=0.2)
    nu, omega = SplineMotion(traj6).at(0.3)
    assert np.allclose(nu, [0, 1, 2]) and np.allclose(omega, [3, 4, 5])
    with pytest.raises(ValueError):
        SplineMotion(SplineTrajectory(np.zeros((4, 2)), t0=0.0, dt=0.1))


# --------------------------------------------------------------------------
# generate_dataset

def test_dataset_deterministic_under_seed():
    scene = RandomPointsScene()
    motion = ConstantMotion(Velocity(nu=(0.2, -0.1, 0.3), omega=(0.1, 0.0, -0.2)))
    noise = NoiseSpec(sigma_px=0.5, outlier_fraction=0.2)
    obs1, t1 = generate_dataset(scene, motion, count=300, noise=noise, seed=9)
    obs2, t2 = generate_dataset(scene, motion, count=300, noise=noise, seed=9)
    for name in ("xy", "n", "t", "mag2"):
        assert np.array_equal(getattr(obs1, name), getattr(obs2, name))
    assert np.array_equal(t1.outlier_idx, t2.outlier_idx)
    assert np.array_equal(t1.z, t2.z)


def test_dataset_noise_free_satisfies_flow_identity():
    scene = RandomPointsScene()
    motion = ConstantMotion(Velocity(nu=(0.2, -0.1, 0.3), omega=(0.1, 0.0, -0.2)))
    obs, truth = generate_dataset(scene, motion, count=500, seed=10)
    n, mag2 = obs.n, obs.mag2
    assert np.allclose(np.sum(n * truth.u, axis=1), mag2, atol=1e-12)
    # the sampled component is never unobservably small
    assert np.all(np.sqrt(mag2) >= 1e-6)


def test_dataset_plane_satisfies_homography_constraint():
    scene = PlaneScene(normal=(0.2, -0.1, 1.0), d=2.0)
    motion = ConstantMotion(Velocity(nu=(0.2, -0.1, 0.3), omega=(0.1, -0.2, 0.15)))
    obs, truth = generate_dataset(scene, motion, count=400, seed=11)
    xy, n, mag2 = obs.xy, obs.n, obs.mag2
    h_vec = truth.hd.h.reshape(9)
    c = matrix_c(xy[:, 0], xy[:, 1])
    pred = np.einsum("ki,kij,j->k", n, c, h_vec)
    assert np.allclose(pred, mag2, atol=1e-12)


MOTIONS = {
    "constant": ConstantMotion(Velocity(nu=(0.2, -0.1, 0.3),
                                        omega=(0.1, -0.2, 0.15))),
    "step": StepMotion(before=Velocity(nu=(0.2, -0.1, 0.3),
                                       omega=(0.1, -0.2, 0.15)),
                       after=Velocity(nu=(-0.1, 0.3, 0.2),
                                      omega=(0.3, 0.1, -0.4)),
                       t_switch=0.25),
    "spline": SplineMotion(SplineTrajectory(
        np.random.default_rng(0).normal(size=(12, 6)), t0=-0.1, dt=0.06)),
}
SCENES = {"points": RandomPointsScene(),
          "plane": PlaneScene(normal=(0.2, -0.1, 1.0), d=2.0),
          "walls": TwoWallsScene()}


@pytest.mark.parametrize("motion", sorted(MOTIONS))
@pytest.mark.parametrize("scene", sorted(SCENES))
def test_dataset_flow_equals_interaction_matrix_flow(motion, scene):
    # each row's u is D(x) [nu, omega] of its own sample's velocity, to
    # within 4 eps of the summed magnitudes |D(x)| |[nu, omega]|: where the
    # translational and rotational flows cancel, rounding is relative to
    # them, not to the small |u| they leave
    motion = MOTIONS[motion]
    obs, truth = generate_dataset(SCENES[scene], motion, count=2000, seed=4,
                                  noise=NoiseSpec(sigma_px=0.5))
    theta = np.concatenate(motion.at(obs.t), axis=1)[:, :, None]
    d = matrix_d(obs.xy[:, 0], obs.xy[:, 1], truth.z)
    u = (d @ theta)[:, :, 0]
    bound = 4 * EPS * (np.abs(d) @ np.abs(theta))[:, :, 0]
    assert np.all(np.abs(truth.u - u) <= bound)


def test_dataset_outlier_bookkeeping():
    scene = RandomPointsScene()
    motion = ConstantMotion(Velocity(nu=(0.2, -0.1, 0.3), omega=(0.1, 0.0, -0.2)))
    obs, truth = generate_dataset(scene, motion, count=500, seed=12,
                                  noise=NoiseSpec(outlier_fraction=0.3))
    assert len(truth.outlier_idx) == 150
    assert truth.inlier_mask.sum() == 350
    n = obs.n
    # inliers untouched (sigma 0), outliers resampled
    assert np.allclose(n[truth.inlier_mask], truth.n_clean[truth.inlier_mask])
    changed = np.linalg.norm(n[truth.outlier_idx] - truth.n_clean[truth.outlier_idx],
                             axis=1)
    assert np.median(changed) > 1e-3


def test_dataset_noise_levels_share_randomness():
    scene = RandomPointsScene()
    motion = ConstantMotion(Velocity(nu=(0.2, -0.1, 0.3), omega=(0.1, 0.0, -0.2)))
    _, t1 = generate_dataset(scene, motion, count=300, seed=13,
                             noise=NoiseSpec(sigma_px=0.1))
    obs1, _ = generate_dataset(scene, motion, count=300, seed=13,
                               noise=NoiseSpec(sigma_px=0.1))
    obs2, t2 = generate_dataset(scene, motion, count=300, seed=13,
                                noise=NoiseSpec(sigma_px=1.0))
    n1, n2 = obs1.n, obs2.n
    dev1 = n1 - t1.n_clean
    dev2 = n2 - t2.n_clean
    assert np.allclose(dev2, 10.0 * dev1, rtol=1e-9, atol=1e-18)


def test_dataset_rejects_unobservable_motion():
    scene = RandomPointsScene()
    with pytest.raises(ValueError):
        generate_dataset(scene,
                         ConstantMotion(Velocity(nu=(0, 0, 0), omega=(0, 0, 0))),
                         count=50, seed=14)


def test_dataset_validation():
    scene = RandomPointsScene()
    motion = ConstantMotion(Velocity(nu=(0.1, 0, 0), omega=(0, 0, 0)))
    with pytest.raises(ValueError):
        generate_dataset(scene, motion, count=0)
    with pytest.raises(ValueError):
        generate_dataset(scene, motion, window=0.0)
    for window in (math.nan, math.inf):
        with pytest.raises(ValueError, match="window"):
            generate_dataset(scene, motion, window=window)
    with pytest.raises(ValueError):
        NoiseSpec(sigma_px=-1.0)
    with pytest.raises(ValueError):
        NoiseSpec(outlier_fraction=1.0)


@pytest.mark.parametrize("build, match", [
    (lambda: NoiseSpec(sigma_px=math.nan), "sigma_px"),
    (lambda: NoiseSpec(sigma_px=math.inf), "sigma_px"),
    (lambda: PlaneScene(d=math.nan), "d must be positive"),
    (lambda: PlaneScene(d=math.inf), "d must be positive"),
    (lambda: PlaneScene(extent=math.nan), "extent"),
    (lambda: PlaneScene(normal=(0.0, 0.0, 0.0)), "normal"),
    (lambda: PlaneScene(normal=(math.nan, 0.0, 1.0)), "normal"),
    (lambda: TwoWallsScene(d=math.nan), "d must be positive"),
    (lambda: RandomPointsScene(depth_range=(1.0, math.inf)), "depth_range"),
    (lambda: RandomPointsScene(depth_range=(math.nan, 2.0)), "depth_range"),
    (lambda: RandomPointsScene(extent=math.nan), "extent"),
    (lambda: RandomPointsScene(extent=0.0), "extent"),
    (lambda: RandomPointsScene(count=0), "count"),
    (lambda: run_noise_sweep(ModelKind.ANGULAR_VELOCITY,
                             noise_grid_px=[math.nan], trials=1, samples=10),
     "noise grid"),
    (lambda: run_noise_sweep(ModelKind.ANGULAR_VELOCITY,
                             noise_grid_px=[0.1, math.inf], trials=1,
                             samples=10), "noise grid")])
def test_bad_scene_and_noise_values_refused(build, match):
    # A NaN passes any "<= 0" check; these reach rng.uniform otherwise.
    with pytest.raises(ValueError, match=match):
        build()


def test_ground_truth_bundle_properties():
    plane = PlaneScene(normal=(0.0, 0.0, 1.0), d=2.0)
    motion = ConstantMotion(Velocity(nu=(0.2, 0, 0), omega=(0, 0, 0)))
    _, truth = generate_dataset(plane, motion, count=50, seed=15)
    assert truth.velocity is motion.velocity
    assert truth.hd is not None
    step = StepMotion(before=Velocity(nu=(0, 0, 0), omega=(0, 0, 0.5)),
                      after=Velocity(nu=(0, 0, 0), omega=(0, 0, 2.0)),
                      t_switch=0.25)
    _, truth = generate_dataset(RandomPointsScene(), step, count=50, seed=16)
    assert truth.velocity is None
    assert truth.hd is None


# --------------------------------------------------------------------------
# analytic time surfaces

def test_single_edge_surface_is_exact_ramp():
    edge = MovingEdge(point=(10.0, 0.0), direction=(0.0, 1.0), velocity=(100.0, 0.0))
    surface = surface_from_edges([edge], shape=(40, 200), window=0.5)
    # edge starts at x=10 at t=0 and reaches x=60 at t_ref=0.5
    row = surface.timestamps[20]
    fired = np.isfinite(row)
    assert np.array_equal(np.nonzero(fired)[0], np.arange(10, 61))
    assert np.allclose(np.diff(row[10:61]), 0.01, atol=1e-12)  # 1/(100 px/s)
    assert row[10] == 0.0 and abs(row[60] - 0.5) < 1e-12


def test_stationary_edge_marks_flat_patch():
    edge = MovingEdge(point=(25.0, 0.0), direction=(0.0, 1.0), velocity=(0.0, 0.0))
    surface = surface_from_edges([edge], shape=(30, 50), window=0.5)
    col = surface.timestamps[:, 25]
    assert np.all(col == surface.t_ref)
    assert not np.isfinite(surface.timestamps[:, 30]).any()


def test_perpendicular_edges_give_two_ramps():
    edges = [MovingEdge(point=(5.0, 0.0), direction=(0.0, 1.0), velocity=(100.0, 0.0)),
             MovingEdge(point=(0.0, 5.0), direction=(1.0, 0.0), velocity=(0.0, 50.0))]
    surface = surface_from_edges(edges, shape=(60, 120), window=0.5)
    # far from the horizontal edge's sweep: pure vertical ramp, slope 1/100
    assert np.allclose(np.diff(surface.timestamps[55, 10:50]), 0.01, atol=1e-12)
    # far from the vertical edge's sweep: horizontal ramp, slope 1/50
    assert np.allclose(np.diff(surface.timestamps[10:30, 110]), 0.02, atol=1e-12)


def test_edge_outside_window_leaves_surface_empty():
    edge = MovingEdge(point=(-500.0, 0.0), direction=(0.0, 1.0), velocity=(10.0, 0.0))
    surface = surface_from_edges([edge], shape=(20, 40), window=0.5)
    assert not np.isfinite(surface.timestamps).any()
    assert np.all(surface.timestamps == UNFIRED)


def test_edge_direction_must_be_nonzero():
    with pytest.raises(ValueError):
        surface_from_edges([MovingEdge(point=(0, 0), direction=(0, 0),
                                       velocity=(1, 0))], shape=(10, 10), window=0.1)


# --------------------------------------------------------------------------
# toy registration

def _toy_flows(u, angles_deg):
    flows = []
    for a in angles_deg:
        ghat = (math.cos(math.radians(a)), math.sin(math.radians(a)))
        flows.append(project(u, ghat)[0])
    return np.array(flows)


def test_toy_registration_recovers_global_flow():
    u = np.array([1.732, -1.0])
    flows = _toy_flows(u, [0, 45, 90, 135])
    result = toy_registration(flows)
    assert np.allclose(result.constraint, u, atol=1e-9)
    # the naive average systematically under-shoots
    assert np.linalg.norm(result.naive - u) > 0.1
    assert (np.linalg.norm(result.naive - u)
            > 10 * np.linalg.norm(result.constraint - u))


def test_toy_registration_naive_value():
    flows = _toy_flows(np.array([1.732, -1.0]), [0, 45, 90, 135])
    naive = toy_registration(flows).naive
    assert np.allclose(naive, flows.mean(axis=0), atol=1e-15)
    assert np.allclose(naive, (0.866, -0.5), atol=5e-4)


def test_toy_registration_single_direction_rank_deficient():
    flows = np.array([[1.0, 0.0], [0.5, 0.0], [2.0, 0.0]])
    with pytest.raises(RankDeficient):
        toy_registration(flows)


def test_toy_registration_zero_flow():
    result = toy_registration(np.zeros((5, 2)))
    assert np.allclose(result.constraint, 0.0)
    assert np.allclose(result.naive, 0.0)


@pytest.mark.parametrize("count", [0, 1])
def test_toy_registration_needs_two_flows(count):
    # no mean of an empty set, no rank from one row: the minimal-sample
    # error, and no warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnderDetermined, match=f"need >= 2 flows, got {count}$"):
            toy_registration(np.full((count, 2), 0.5))


def test_toy_registration_accepts_observations():
    motion = ConstantMotion(Velocity(nu=(0, 0, 0), omega=(0, 0, 0.4)))
    obs, _ = generate_dataset(PlaneScene(d=2.0), motion, count=100, seed=17)
    result = toy_registration(obs)
    assert result.constraint.shape == (2,)


# --------------------------------------------------------------------------
# noise sweep

def test_noise_sweep_monotone_and_deterministic():
    r1 = run_noise_sweep(ModelKind.ANGULAR_VELOCITY, noise_grid_px=(0.1, 10.0),
                         trials=4, samples=200, seed=5)
    r2 = run_noise_sweep(ModelKind.ANGULAR_VELOCITY, noise_grid_px=(0.1, 10.0),
                         trials=4, samples=200, seed=5)
    assert np.array_equal(r1.median, r2.median)
    assert r1.median[1] > r1.median[0]
    assert np.all(r1.q25 <= r1.median) and np.all(r1.median <= r1.q75)


def test_noise_sweep_rejects_bad_grid():
    for grid in ((), (1.0, 0.1), (-1.0, 1.0), (1.0, 1.0)):
        with pytest.raises(ValueError):
            run_noise_sweep(ModelKind.ANGULAR_VELOCITY, noise_grid_px=grid,
                            trials=2, samples=50)


@pytest.mark.parametrize("trials", [0, -2])
def test_noise_sweep_rejects_no_trials(trials, monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("a dataset was drawn")
    monkeypatch.setattr("evnormalflow.synthesis.generate_dataset", draw)
    with pytest.raises(ValueError, match="trials must be an integer >= 1"):
        run_noise_sweep(ModelKind.ANGULAR_VELOCITY, noise_grid_px=(0.1,),
                        trials=trials, samples=100)
