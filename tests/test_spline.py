"""Uniform cubic B-spline trajectories and the continuous-time fit."""
import numpy as np
import pytest
from scipy.interpolate import BSpline

from evnormalflow.spline import _sorted_problem

from evnormalflow import (ConstantMotion, ModelKind, Observations,
                          OutOfDomain, RandomPointsScene, RansacConfig, SplineFitProblem,
                          SplineTrajectory, StepMotion, UnderDetermined,
                          Velocity, basis_weights, evaluate, fit,
                          generate_dataset, init_from_linear,
                          solve_angular_velocity, trajectory_covering)


def scipy_oracle(traj):
    """Equivalent scipy BSpline: integer knots, x = (t - t0)/dt + 2."""
    n = traj.n_ctrl
    return BSpline(np.arange(n + 4, dtype=float), traj.control_points, 3)


def rotation_dataset(motion, count=2000, seed=0, noise=None):
    kwargs = {} if noise is None else {"noise": noise}
    return generate_dataset(RandomPointsScene(), motion, count=count,
                            seed=seed, **kwargs)


# --------------------------------------------------------------------------
# basis and evaluation

def test_basis_weights_endpoints():
    assert np.allclose(basis_weights(0.0), [1 / 6, 4 / 6, 1 / 6, 0.0],
                       atol=1e-15)
    assert np.allclose(basis_weights(1.0 - 1e-12), [0.0, 1 / 6, 4 / 6, 1 / 6],
                       atol=1e-9)


def test_basis_partition_of_unity():
    rng = np.random.default_rng(60)
    u = rng.uniform(0.0, 1.0, 10000)
    w = basis_weights(u)
    assert w.shape == (10000, 4)
    assert np.all(w >= 0)
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-14


def test_evaluate_matches_scipy():
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        traj = SplineTrajectory(rng.standard_normal((n, 3)), t0=-0.05, dt=0.05)
        oracle = scipy_oracle(traj)
        lo, hi = traj.domain
        ts = rng.uniform(lo, hi - 1e-9, 50)
        ours = evaluate(traj, ts)
        theirs = oracle((ts - traj.t0) / traj.dt + 2.0)
        assert np.allclose(ours, theirs, atol=1e-12)


def test_evaluate_constant_control_points():
    v = np.array([0.3, -0.2, 0.7])
    traj = SplineTrajectory(np.tile(v, (6, 1)), t0=0.0, dt=0.1)
    lo, hi = traj.domain
    for t in np.linspace(lo, hi - 1e-9, 13):
        assert np.allclose(evaluate(traj, t), v, atol=1e-14)


def test_evaluate_reproduces_linear_functions():
    # control point c_i sampled from a line at t0 + i dt reproduces the line
    t0, dt, n = 0.2, 0.05, 9
    slope, intercept = np.array([2.0, -1.0, 0.5]), np.array([0.1, 0.0, -0.3])
    knots_t = t0 + np.arange(n) * dt
    cp = knots_t[:, None] * slope + intercept
    traj = SplineTrajectory(cp, t0=t0, dt=dt)
    lo, hi = traj.domain
    ts = np.linspace(lo, hi - 1e-9, 40)
    expected = ts[:, None] * slope + intercept
    assert np.allclose(evaluate(traj, ts), expected, atol=1e-12)


def test_evaluate_domain_boundaries():
    traj = SplineTrajectory(np.zeros((5, 3)), t0=0.0, dt=0.1)
    lo, hi = traj.domain
    assert lo == pytest.approx(0.1) and hi == pytest.approx(0.3)
    evaluate(traj, lo)                 # inclusive lower bound
    with pytest.raises(OutOfDomain):
        evaluate(traj, hi)             # exclusive upper bound
    with pytest.raises(OutOfDomain):
        evaluate(traj, lo - 1e-9)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        SplineTrajectory(np.zeros((3, 3)), t0=0.0, dt=0.1)
    with pytest.raises(ValueError):
        SplineTrajectory(np.zeros((4, 3)), t0=0.0, dt=0.0)


def test_trajectory_covering_contains_range():
    rng = np.random.default_rng(62)
    for _ in range(50):
        t_min = rng.uniform(-5, 5)
        span = rng.uniform(0.01, 3.0)
        dt = rng.uniform(0.01, 0.5)
        t0, n = trajectory_covering(t_min, t_min + span, dt)
        traj = SplineTrajectory(np.zeros((n, 1)), t0=t0, dt=dt)
        lo, hi = traj.domain
        assert lo <= t_min and t_min + span < hi
        # minimality: one fewer control point would not cover
        if n > 4:
            smaller = SplineTrajectory(np.zeros((n - 1, 1)), t0=t0, dt=dt)
            assert t_min + span >= smaller.domain[1]


# --------------------------------------------------------------------------
# fitting

def test_fit_constant_motion_exact():
    omega = np.array([0.2, -0.1, 0.5])
    motion = ConstantMotion(Velocity(nu=(0, 0, 0), omega=omega))
    obs, _ = rotation_dataset(motion, count=400, seed=63)
    init, _ = init_from_linear(obs, ModelKind.ANGULAR_VELOCITY, dt=0.2)
    traj, report = fit(SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY), init)
    assert np.allclose(traj.control_points, omega, atol=1e-9)
    assert report.rms < 1e-9


def test_fit_matches_batch_solver_for_constant_truth():
    omega = np.array([0.2, -0.1, 0.5])
    motion = ConstantMotion(Velocity(nu=(0, 0, 0), omega=omega))
    obs, _ = rotation_dataset(motion, count=300, seed=64)
    batch = solve_angular_velocity(obs)
    init, _ = init_from_linear(obs, ModelKind.ANGULAR_VELOCITY, dt=0.2)
    traj, _ = fit(SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY,
                                   robust=False), init)
    assert np.allclose(traj.control_points, batch, atol=1e-9)


def test_fit_under_determined():
    obs, _ = rotation_dataset(
        ConstantMotion(Velocity(nu=(0, 0, 0), omega=(0.1, 0, 0.3))),
        count=10, seed=65)
    init = SplineTrajectory(np.zeros((6, 3)), t0=-0.1, dt=0.2)
    with pytest.raises(UnderDetermined):
        fit(SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY), init)


def test_fit_rejects_out_of_domain_observations():
    obs, _ = rotation_dataset(
        ConstantMotion(Velocity(nu=(0, 0, 0), omega=(0.1, 0, 0.3))),
        count=100, seed=66)
    init = SplineTrajectory(np.zeros((4, 3)), t0=0.0, dt=0.05)  # domain [.05, .1)
    with pytest.raises(OutOfDomain):
        fit(SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY), init)


def test_fit_dim_mismatch():
    obs, _ = rotation_dataset(
        ConstantMotion(Velocity(nu=(0, 0, 0), omega=(0.1, 0, 0.3))),
        count=100, seed=67)
    init = SplineTrajectory(np.zeros((4, 6)), t0=-0.2, dt=0.4)
    with pytest.raises(ValueError):
        fit(SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY), init)


def test_fit_step_tracks_both_levels():
    motion = StepMotion(before=Velocity(nu=(0, 0, 0), omega=(0, 0, 0.5)),
                        after=Velocity(nu=(0, 0, 0), omega=(0, 0, 2.0)),
                        t_switch=0.25)
    obs, _ = rotation_dataset(motion, count=4000, seed=68)
    init, _ = init_from_linear(obs, ModelKind.ANGULAR_VELOCITY, dt=0.05)
    traj, report = fit(SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY), init)
    lo, hi = traj.domain
    early = evaluate(traj, np.linspace(max(lo, 0.02), 0.15, 20))
    late = evaluate(traj, np.linspace(0.35, min(hi - 1e-9, 0.48), 20))
    # 5% relative on each level, i.e. both regimes tracked, not just the
    # faster one that dominates an unweighted fit
    assert np.allclose(early[:, 2], 0.5, atol=0.025)
    assert np.allclose(late[:, 2], 2.0, atol=0.1)


def test_fit_irls_objective_monotone():
    from evnormalflow import NoiseSpec
    motion = StepMotion(before=Velocity(nu=(0, 0, 0), omega=(0, 0, 0.5)),
                        after=Velocity(nu=(0, 0, 0), omega=(0, 0, 2.0)),
                        t_switch=0.25)
    obs, _ = rotation_dataset(motion, count=2000, seed=69,
                              noise=NoiseSpec(sigma_px=1.0,
                                              outlier_fraction=0.1))
    init, _ = init_from_linear(obs, ModelKind.ANGULAR_VELOCITY, dt=0.05)
    _, report = fit(SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY), init)
    hist = report.objective_history
    assert len(hist) >= 2
    drops = np.diff(hist)
    assert np.all(drops <= 1e-9 * np.maximum(1.0, np.abs(hist[:-1])))


def test_fit_bit_stable_under_permutation():
    from evnormalflow import NoiseSpec
    motion = ConstantMotion(Velocity(nu=(0, 0, 0), omega=(0.4, -0.2, 0.1)))
    obs, _ = rotation_dataset(motion, count=500, seed=70,
                              noise=NoiseSpec(sigma_px=0.5))
    init, _ = init_from_linear(obs, ModelKind.ANGULAR_VELOCITY, dt=0.1)
    rng = np.random.default_rng(71)
    shuffled = [obs[i] for i in rng.permutation(len(obs))]
    t1, _ = fit(SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY), init)
    t2, _ = fit(SplineFitProblem(shuffled, ModelKind.ANGULAR_VELOCITY), init)
    assert np.array_equal(t1.control_points, t2.control_points)


def test_sorted_problem_matches_python_sort_with_ties():
    # few distinct times and locations, so (t, x) and (t, x, y) ties abound,
    # including rows that tie on every key
    rng = np.random.default_rng(76)
    k = 20_000
    obs = Observations(xy=rng.integers(-3, 4, (k, 2)) / 10.0,
                       n=rng.standard_normal((k, 2)),
                       t=rng.integers(0, 50, k) / 100.0)
    depths = rng.uniform(1.0, 5.0, k)
    problem = SplineFitProblem(obs, ModelKind.SIX_DOF, depths=depths)
    key = sorted(range(k), key=lambda i: (obs.t[i], obs.xy[i, 0], obs.xy[i, 1]))
    got, got_depths = _sorted_problem(problem)
    assert np.array_equal(got.n, obs.n[key])
    assert np.array_equal(got_depths, depths[key])


def test_fit_starved_segment_flagged_and_bounded():
    # observations only in the first and last thirds of the window leave the
    # middle segments empty; regularization keeps them between the regimes
    motion = ConstantMotion(Velocity(nu=(0, 0, 0), omega=(0, 0, 1.0)))
    obs, _ = rotation_dataset(motion, count=3000, seed=72)
    kept = [o for o in obs if o.t < 0.15 or o.t > 0.35]
    init, init_report = init_from_linear(kept, ModelKind.ANGULAR_VELOCITY,
                                         dt=0.05)
    assert init_report.filled_segments  # some segments had no usable fit
    traj, report = fit(SplineFitProblem(kept, ModelKind.ANGULAR_VELOCITY), init)
    assert report.starved_segments
    lo, hi = traj.domain
    vals = evaluate(traj, np.linspace(lo, hi - 1e-9, 50))
    assert np.allclose(vals[:, 2], 1.0, atol=1e-6)  # constant bridges the gap


def test_fit_six_dof_kind():
    v = Velocity(nu=(0.3, -0.2, 0.5), omega=(0.1, 0.2, -0.3))
    obs, truth = generate_dataset(RandomPointsScene(), ConstantMotion(v),
                                  count=600, seed=73)
    init, _ = init_from_linear(obs, ModelKind.SIX_DOF, dt=0.2, depths=truth.z)
    traj, report = fit(SplineFitProblem(obs, ModelKind.SIX_DOF,
                                        depths=truth.z), init)
    assert np.allclose(traj.control_points, np.r_[v.nu, v.omega], atol=1e-8)


def test_init_constant_motion_all_points_equal():
    omega = np.array([0.2, -0.1, 0.5])
    motion = ConstantMotion(Velocity(nu=(0, 0, 0), omega=omega))
    obs, _ = rotation_dataset(motion, count=1000, seed=74)
    init, report = init_from_linear(obs, ModelKind.ANGULAR_VELOCITY, dt=0.05)
    assert not report.filled_segments
    assert np.allclose(init.control_points, omega, atol=1e-6)


def test_init_requires_observations():
    with pytest.raises(UnderDetermined):
        init_from_linear([], ModelKind.ANGULAR_VELOCITY)


def test_problem_validation():
    obs, truth = generate_dataset(
        RandomPointsScene(),
        ConstantMotion(Velocity(nu=(0, 0, 0), omega=(0.1, 0, 0.3))),
        count=10, seed=75)
    with pytest.raises(ValueError):
        SplineFitProblem(obs, ModelKind.DEPTH)
    with pytest.raises(ValueError):
        SplineFitProblem(obs, ModelKind.SIX_DOF, depths=truth.z[:5])
