"""Uniform cubic B-spline trajectories and the continuous-time fit."""
import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import BSpline

from evnormalflow.spline import (IRLS_TOL, _huber_objective, _locate,
                                 _regularization_rows, _sorted_problem,
                                 _starved)

from evnormalflow import (ConstantMotion, DegenerateDepth, ModelKind,
                          NoiseSpec, Observations, OutOfDomain,
                          RandomPointsScene, RankDeficient, RansacConfig,
                          SolverDegeneracy, SplineFitProblem, SplineTrajectory,
                          StepMotion, UnderDetermined, Velocity, basis_weights,
                          build_rows, evaluate, fit, generate_dataset,
                          init_from_linear, ransac_estimate,
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
    for dt in (0.0, -0.05, np.nan, np.inf):
        with pytest.raises(ValueError, match="knot spacing"):
            SplineTrajectory(np.zeros((4, 3)), t0=0.0, dt=dt)
        with pytest.raises(ValueError, match="knot spacing"):
            trajectory_covering(0.0, 1.0, dt)


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


def test_init_counts_ransac_work_and_caps_no_segment():
    # spline-step-like data: a 0.5 -> 2 rad/s step over 1 s, K = 10 k,
    # 0.5 px noise and 10% outliers, 50 knot intervals of 0.02 s
    motion = StepMotion(before=Velocity(nu=(0, 0, 0), omega=(0, 0, 0.5)),
                        after=Velocity(nu=(0, 0, 0), omega=(0, 0, 2.0)),
                        t_switch=0.5)
    obs, _ = generate_dataset(RandomPointsScene(), motion, count=10000,
                              window=1.0, seed=86,
                              noise=NoiseSpec(sigma_px=0.5, outlier_fraction=0.1))
    _, report = init_from_linear(obs, ModelKind.ANGULAR_VELOCITY, dt=0.02)
    n_good = len(report.good_segments)
    assert n_good == 50 and not report.filled_segments
    assert report.capped_segments == []
    assert n_good <= report.ransac_iterations < 20 * n_good
    _, capped = init_from_linear(obs, ModelKind.ANGULAR_VELOCITY, dt=0.02,
                                 cfg=RansacConfig(max_iterations=2))
    assert capped.capped_segments == capped.good_segments
    assert all(type(j) is int for j in capped.capped_segments)
    assert capped.ransac_iterations == 2 * len(capped.good_segments)


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


def test_problem_validates_fit_parameters():
    obs, _ = rotation_dataset(
        ConstantMotion(Velocity(nu=(0, 0, 0), omega=(0.1, 0, 0.3))),
        count=10, seed=75)
    for bad in ({"max_rounds": 0}, {"max_rounds": -3},
                {"huber_scale": 0.0}, {"huber_scale": -1.0},
                {"huber_scale": float("nan")}, {"huber_scale": float("inf")},
                {"reg_weight": -1e-6}, {"reg_weight": float("nan")},
                {"reg_weight": float("inf")}):
        with pytest.raises(ValueError):
            SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY, **bad)
    # the boundaries that stay valid
    SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY, max_rounds=1,
                     huber_scale=1e-9, reg_weight=0.0)


@pytest.mark.parametrize("value", [2.5, True, "3", None, np.float64(2.0)])
def test_problem_rejects_non_integer_max_rounds(value):
    obs, _ = rotation_dataset(
        ConstantMotion(Velocity(nu=(0, 0, 0), omega=(0.1, 0, 0.3))),
        count=10, seed=75)
    with pytest.raises(ValueError, match="max_rounds"):
        SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY, max_rounds=value)
    # NumPy integers count as integers
    SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY, max_rounds=np.int64(2))


@pytest.mark.parametrize("field, value", [
    ("huber_scale", True), ("huber_scale", "x"), ("reg_weight", True),
    ("reg_weight", False), ("reg_weight", "x"), ("reg_weight", None)])
def test_problem_rejects_non_real_scale_and_weight(field, value):
    obs, _ = rotation_dataset(
        ConstantMotion(Velocity(nu=(0, 0, 0), omega=(0.1, 0, 0.3))),
        count=10, seed=75)
    with pytest.raises(ValueError, match=field):
        SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY, **{field: value})
    # NumPy reals count as reals
    SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY, **{field: np.float64(0.5)})


# --------------------------------------------------------------------------
# the block normal equations against the dense lstsq IRLS they replaced

def dense_design(obs, depths, kind, traj):
    """The dense K x (n_ctrl * dim) design, rows scaled by 1/|n|."""
    rows, rhs = build_rows(obs, kind, depths=depths)
    inv = 1.0 / np.maximum(np.linalg.norm(obs.n, axis=1), 1e-12)
    rows = rows * inv[:, None]
    rhs = rhs * inv
    seg, u = _locate(traj, obs.t)
    w = basis_weights(u)
    k = len(obs)
    n_ctrl, dim = traj.n_ctrl, traj.dim
    a = np.zeros((k, n_ctrl * dim))
    cols = (np.arange(dim)[None, None, :]
            + (seg[:, None, None] + np.arange(4)[None, :, None]) * dim)
    np.put_along_axis(a, cols.reshape(k, -1),
                      (w[:, :, None] * rows[:, None, :]).reshape(k, -1), axis=1)
    return a, rhs, seg


def dense_fit(problem, init):
    """The fit as one np.linalg.lstsq per IRLS round on the dense design,
    each sweep stopped once a round lowers the objective by at most
    IRLS_TOL * max(1, objective).  Returns (control points, IRLS rounds)."""
    obs, depths = _sorted_problem(problem)
    n_ctrl, dim = init.n_ctrl, init.dim
    a, rhs, seg = dense_design(obs, depths, problem.kind, init)
    seg_counts = np.bincount(seg, minlength=n_ctrl - 3)
    starved_cp = _starved(seg_counts, n_ctrl)
    row_scale = float(np.median(np.linalg.norm(a, axis=1))) or 1.0
    reg = _regularization_rows(starved_cp, n_ctrl, dim,
                               problem.reg_weight * row_scale)
    reg_rhs = np.zeros(len(reg))
    theta = init.control_points.reshape(-1).copy()
    r = a @ theta - rhs
    history = []
    if not problem.robust:
        theta, *_ = np.linalg.lstsq(np.concatenate([a, reg]),
                                    np.concatenate([rhs, reg_rhs]), rcond=None)
        return theta.reshape(n_ctrl, dim), 1
    auto_scale = problem.huber_scale is None
    delta = (3.0 * float(np.median(np.abs(r))) if auto_scale
             else problem.huber_scale)
    if delta <= 0:
        delta = np.inf
    history.append(_huber_objective(r, delta)
                   + 0.5 * float(np.sum((reg @ theta) ** 2)))
    rounds = 0
    for _sweep in range(6 if auto_scale else 1):
        for _ in range(problem.max_rounds):
            wts = np.minimum(1.0, delta / np.maximum(np.abs(r), 1e-300))
            sw = np.sqrt(wts)
            theta, *_ = np.linalg.lstsq(np.concatenate([a * sw[:, None], reg]),
                                        np.concatenate([rhs * sw, reg_rhs]),
                                        rcond=None)
            rounds += 1
            r = a @ theta - rhs
            obj = _huber_objective(r, delta) + 0.5 * float(np.sum((reg @ theta) ** 2))
            history.append(obj)
            if history[-2] - obj <= IRLS_TOL * max(1.0, obj):
                break
        if not auto_scale:
            break
        new_delta = 3.0 * float(np.median(np.abs(r)))
        if not 0.0 < new_delta < 0.9 * delta:
            break
        delta = new_delta
        history.append(_huber_objective(r, delta)
                       + 0.5 * float(np.sum((reg @ theta) ** 2)))
    return theta.reshape(n_ctrl, dim), rounds


STEP = StepMotion(before=Velocity(nu=(0, 0, 0), omega=(0, 0, 0.5)),
                  after=Velocity(nu=(0, 0, 0), omega=(0, 0, 2.0)),
                  t_switch=0.25)


def rel_diff(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def test_fit_matches_dense_oracle_robust_step():
    obs, _ = rotation_dataset(STEP, count=3000, seed=80,
                              noise=NoiseSpec(sigma_px=0.5,
                                              outlier_fraction=0.1))
    init, _ = init_from_linear(obs, ModelKind.ANGULAR_VELOCITY, dt=0.02)
    problem = SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY)
    traj, report = fit(problem, init)
    cp, rounds = dense_fit(problem, init)
    assert report.irls_rounds == rounds > 1
    assert rel_diff(traj.control_points, cp) < 1e-9
    assert 1.0 <= report.cond < 1e6


def test_fit_matches_dense_oracle_not_robust():
    obs, _ = rotation_dataset(STEP, count=2000, seed=81,
                              noise=NoiseSpec(sigma_px=0.5,
                                              outlier_fraction=0.1))
    init, _ = init_from_linear(obs, ModelKind.ANGULAR_VELOCITY, dt=0.05)
    problem = SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY, robust=False)
    traj, report = fit(problem, init)
    cp, rounds = dense_fit(problem, init)
    assert report.irls_rounds == rounds == 1
    assert rel_diff(traj.control_points, cp) < 1e-9


def test_fit_matches_dense_oracle_six_dof_with_depths():
    before = Velocity(nu=(0.3, -0.2, 0.5), omega=(0.1, 0.2, -0.3))
    after = Velocity(nu=(-0.1, 0.2, 0.4), omega=(0.3, -0.1, 0.2))
    obs, truth = generate_dataset(
        RandomPointsScene(), StepMotion(before=before, after=after,
                                        t_switch=0.25),
        count=3000, seed=82, noise=NoiseSpec(sigma_px=0.5,
                                             outlier_fraction=0.1))
    init, _ = init_from_linear(obs, ModelKind.SIX_DOF, dt=0.1, depths=truth.z)
    problem = SplineFitProblem(obs, ModelKind.SIX_DOF, depths=truth.z)
    traj, report = fit(problem, init)
    cp, rounds = dense_fit(problem, init)
    assert report.irls_rounds == rounds
    assert rel_diff(traj.control_points, cp) < 1e-9


def test_fit_matches_dense_oracle_with_starved_control_points():
    obs, _ = rotation_dataset(STEP, count=3000, seed=83,
                              noise=NoiseSpec(sigma_px=0.5))
    kept = obs[(obs.t < 0.1) | (obs.t > 0.4)]
    init, _ = init_from_linear(kept, ModelKind.ANGULAR_VELOCITY, dt=0.02)
    problem = SplineFitProblem(kept, ModelKind.ANGULAR_VELOCITY)
    traj, report = fit(problem, init)
    assert len(report.starved_control_points) >= 10
    cp, rounds = dense_fit(problem, init)
    assert report.irls_rounds == rounds
    assert np.max(np.abs(traj.control_points - cp)) < 1e-7


@pytest.mark.parametrize("sigma_px", [0.5, 2.0])
def test_fit_stops_on_convergence(sigma_px, monkeypatch):
    # spline-step-like data: K = 10 k over 1 s, 50 knot intervals of 0.02 s
    motion = StepMotion(before=STEP.before, after=STEP.after, t_switch=0.5)
    obs, _ = generate_dataset(RandomPointsScene(), motion, count=10_000,
                              window=1.0, seed=87,
                              noise=NoiseSpec(sigma_px=sigma_px,
                                              outlier_fraction=0.1))
    init, _ = init_from_linear(obs, ModelKind.ANGULAR_VELOCITY, dt=0.02)
    traj, report = fit(SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY), init)
    assert not report.hit_cap
    assert report.irls_rounds < 30
    # the same fit run to a 1e-12 relative decrease; the dense oracle would
    # take 60-150 lstsq rounds of the 10 k x 159 design to get there
    monkeypatch.setattr("evnormalflow.spline.IRLS_TOL", 1e-12)
    ref, ref_report = fit(SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY,
                                           max_rounds=100), init)
    assert not ref_report.hit_cap
    assert ref_report.irls_rounds > 2 * report.irls_rounds
    grid = np.linspace(*traj.domain, 500, endpoint=False)
    want = evaluate(ref, grid)
    err = np.linalg.norm(evaluate(traj, grid) - want, axis=1)
    assert np.median(err / np.linalg.norm(want, axis=1)) < 1e-4


def test_fit_reports_capped_sweep():
    obs, _ = rotation_dataset(STEP, count=2000, seed=88,
                              noise=NoiseSpec(sigma_px=0.5,
                                              outlier_fraction=0.1))
    init, _ = init_from_linear(obs, ModelKind.ANGULAR_VELOCITY, dt=0.05)
    _, report = fit(SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY,
                                     max_rounds=1), init)
    assert report.hit_cap is True


def test_fit_memory_independent_of_design_size():
    # K = 20 k, n_ctrl = 203: a dense design would take 97 MB on its own
    obs, _ = generate_dataset(RandomPointsScene(), STEP, count=20_000,
                              window=2.0, seed=84)
    t0, n_ctrl = trajectory_covering(float(obs.t.min()), float(obs.t.max()),
                                     0.01)
    assert n_ctrl == 203
    init = SplineTrajectory(np.zeros((n_ctrl, 3)), t0=t0, dt=0.01)
    problem = SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY)
    tracemalloc.start()
    try:
        traj, _ = fit(problem, init)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    lo, hi = traj.domain
    late = evaluate(traj, np.linspace(0.5, min(hi - 1e-9, 1.9), 20))
    assert np.allclose(late[:, 2], 2.0, atol=0.1)


def test_fit_rank_deficient_raises():
    # every observation at one pixel with one normal: each row is the same
    # 3-vector, so only one direction of each control point is constrained.
    # Ending on a knot also leaves the last control point with zero weight.
    k = 400
    for t_max in (0.5, 0.47):
        obs = Observations(xy=np.tile([0.1, -0.05], (k, 1)),
                           n=np.tile([0.3, 0.4], (k, 1)),
                           t=np.linspace(0.0, t_max, k))
        t0, n_ctrl = trajectory_covering(0.0, t_max, 0.1)
        init = SplineTrajectory(np.zeros((n_ctrl, 3)), t0=t0, dt=0.1)
        for robust in (True, False):
            with pytest.raises(RankDeficient):
                fit(SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY,
                                     robust=robust), init)


def test_fit_two_observations_in_last_interval_raises():
    # the last control point is weighed only by the last knot interval, and
    # two rows cannot fix its three components; rounding decides whether
    # the Cholesky factorisation fails or only the final eigenvalue check
    # sees the singularity, and either must raise
    omega = np.array([0.1, -0.2, 0.5])
    for seed in range(12):
        obs, _ = rotation_dataset(
            ConstantMotion(Velocity(nu=(0, 0, 0), omega=omega)),
            count=1000, seed=seed, noise=NoiseSpec(sigma_px=0.5))
        keep = obs.t < 0.42
        keep[np.flatnonzero(obs.t >= 0.45)[:2]] = True
        obs = obs[keep]
        t0, n_ctrl = trajectory_covering(float(obs.t.min()),
                                         float(obs.t.max()), 0.05)
        init = SplineTrajectory(np.tile(omega, (n_ctrl, 1)), t0=t0, dt=0.05)
        with pytest.raises(RankDeficient):
            fit(SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY,
                                 robust=False), init)


def test_fit_zero_regularisation_leaves_starved_points_free():
    obs, _ = rotation_dataset(STEP, count=3000, seed=83)
    kept = obs[(obs.t < 0.1) | (obs.t > 0.4)]
    init, _ = init_from_linear(kept, ModelKind.ANGULAR_VELOCITY, dt=0.02)
    with pytest.raises(RankDeficient):
        fit(SplineFitProblem(kept, ModelKind.ANGULAR_VELOCITY,
                             reg_weight=0.0), init)


# --------------------------------------------------------------------------
# init_from_linear against its per-segment scan

def init_reference(obs, kind, dt, cfg=RansacConfig(), depths=None):
    """Control points, segment estimates, good and filled segments from one
    np.nonzero scan and one ransac_estimate call per segment."""
    t0, n_ctrl = trajectory_covering(float(obs.t.min()), float(obs.t.max()), dt)
    n_seg = n_ctrl - 3
    seg = np.clip(np.floor((obs.t - t0) / dt).astype(int) - 1, 0, n_seg - 1)
    estimates = np.full((n_seg, kind.param_dim), np.nan)
    good = []
    for j in range(n_seg):
        idx = np.nonzero(seg == j)[0]
        if idx.size >= 2 * kind.minimal_samples:
            try:
                estimates[j] = ransac_estimate(
                    obs[idx], kind, cfg,
                    depths=None if depths is None else depths[idx]).theta
                good.append(j)
            except SolverDegeneracy:
                pass
    filled = [j for j in range(n_seg) if j not in good]
    good_arr = np.array(good)
    for j in filled:
        below = good_arr[good_arr < j]
        above = good_arr[good_arr > j]
        neighbours = [estimates[below[-1]]] if below.size else []
        neighbours += [estimates[above[0]]] if above.size else []
        estimates[j] = np.mean(neighbours, axis=0)
    a = np.zeros((n_seg, n_ctrl))
    for j in range(n_seg):
        a[j, j:j + 4] = basis_weights(0.5)
    d1 = np.diff(np.eye(n_ctrl), axis=0)
    d2 = np.diff(np.eye(n_ctrl), n=2, axis=0)
    cp, *_ = np.linalg.lstsq(
        np.concatenate([a, 1e-6 * d1, 1e-6 * d2]),
        np.concatenate([estimates, np.zeros((len(d1) + len(d2), kind.param_dim))]),
        rcond=None)
    return cp, estimates, good, filled


SIX_DOF_STEP = StepMotion(before=Velocity(nu=(0.2, 0, 0), omega=(0, 0, 0.5)),
                          after=Velocity(nu=(0.2, 0, 0), omega=(0, 0, 2.0)),
                          t_switch=0.25)


@pytest.mark.parametrize("kind", [ModelKind.ANGULAR_VELOCITY, ModelKind.SIX_DOF],
                         ids=lambda kind: kind.value)
def test_init_bit_identical_to_per_segment_scan(kind):
    six_dof = kind is ModelKind.SIX_DOF
    obs, truth = rotation_dataset(SIX_DOF_STEP if six_dof else STEP, count=3000,
                                  seed=85, noise=NoiseSpec(sigma_px=0.5,
                                                           outlier_fraction=0.1))
    # a gap at least 5 segments wide and a sparse stretch leave filled
    # segments between good ones
    keep = (obs.t < 0.12) | (obs.t > 0.24) & ((obs.t > 0.3) | (obs.xy[:, 0] > 0.3))
    obs = obs[keep]
    depths = truth.z[keep] if six_dof else None
    init, report = init_from_linear(obs, kind, dt=0.02, depths=depths)
    cp, estimates, good, filled = init_reference(obs, kind, 0.02, depths=depths)
    assert len(filled) >= 5 and good
    assert report.good_segments == good
    assert report.filled_segments == filled
    assert all(type(j) is int for j in report.good_segments + report.filled_segments)
    assert np.array_equal(report.segment_estimates, estimates)
    assert np.array_equal(init.control_points, cp)


@pytest.mark.parametrize("edit, error", [
    ("longer", ValueError), ("shorter", ValueError), ("nan", DegenerateDepth),
    ("zero", DegenerateDepth), ("negative", DegenerateDepth)])
def test_init_checks_depths_up_front(edit, error):
    # ransac_estimate and fit raise the same errors on the same depths
    v = Velocity(nu=(0.3, -0.2, 0.5), omega=(0.1, 0.2, -0.3))
    obs, truth = generate_dataset(RandomPointsScene(), ConstantMotion(v),
                                  count=600, seed=73)
    depths = {"longer": np.r_[truth.z, 1.0], "shorter": truth.z[:-1],
              "nan": np.where(np.arange(600) == 250, np.nan, truth.z),
              "zero": np.where(np.arange(600) == 250, 0.0, truth.z),
              "negative": np.where(np.arange(600) == 250, -1.0, truth.z)}[edit]
    with pytest.raises(error):
        init_from_linear(obs, ModelKind.SIX_DOF, dt=0.2, depths=depths)
    with pytest.raises(error):
        ransac_estimate(obs, ModelKind.SIX_DOF, depths=depths)
    init, _ = init_from_linear(obs, ModelKind.SIX_DOF, dt=0.2, depths=truth.z)
    with pytest.raises(error):
        fit(SplineFitProblem(obs, ModelKind.SIX_DOF, depths=depths), init)
