"""Uniform cubic B-spline trajectories and the continuous-time fit."""
import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import BSpline

from evnormalflow.spline import (IRLS_TOL, REG_WEIGHT, _huber_objective,
                                 _locate, _regularization_rows, _starved)

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
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            SplineTrajectory(np.zeros((4, 3)), t0=0.0, dt=dt)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            trajectory_covering(0.0, 1.0, dt)


def test_trajectory_covering_contains_range():
    # far from zero too, as event timestamps in seconds since the epoch are:
    # the spline evaluates at both ends of the range it was made to cover
    rng = np.random.default_rng(62)
    for offset in (0.0, 1e3, 1.7e9):
        for _ in range(50):
            t_min = offset + rng.uniform(-5, 5)
            span = rng.uniform(0.01, 3.0)
            dt = rng.uniform(0.01, 0.5)
            t0, n = trajectory_covering(t_min, t_min + span, dt)
            traj = SplineTrajectory(np.zeros((n, 1)), t0=t0, dt=dt)
            lo, hi = traj.domain
            assert lo <= t_min and t_min + span < hi
            evaluate(traj, [t_min, t_min + span])
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
    # the init is drawn from each order's own rows, so the whole pipeline,
    # RANSAC's draws included, must not see the order; six-dof's depths
    # travel with their observations; repeated_rows measures every (t, x, y)
    # twice, as overlapping flow windows do, so n decides between them
    for case in ("angular_velocity", "six_dof", "repeated_rows"):
        kind = (ModelKind.SIX_DOF if case == "six_dof"
                else ModelKind.ANGULAR_VELOCITY)
        obs, truth = rotation_dataset(
            SIX_DOF_STEP if case == "six_dof" else STEP, count=3000, seed=70,
            noise=NoiseSpec(sigma_px=0.5, outlier_fraction=0.1))
        depths = truth.z if case == "six_dof" else None
        if case == "repeated_rows":
            obs = Observations(xy=np.r_[obs.xy, obs.xy], t=np.r_[obs.t, obs.t],
                               n=np.r_[obs.n, obs.n * 1.01])
        perm = np.random.default_rng(71).permutation(len(obs))
        runs = []
        for o, d in ((obs, depths),
                     (obs[perm], None if depths is None else depths[perm])):
            init, report = init_from_linear(o, kind, dt=0.05, depths=d)
            traj, fit_report = fit(SplineFitProblem(o, kind, depths=d), init)
            runs.append((init.control_points, report.segment_iterations,
                         traj.control_points, fit_report.objective_history))
        (init1, its1, cp1, hist1), (init2, its2, cp2, hist2) = runs
        assert np.array_equal(init1, init2) and its1 == its2, case
        assert np.array_equal(cp1, cp2) and hist1 == hist2, case


def row_key(obs, depths=None):
    """Row i's sort key in the spline's one order: t, x, y, n, depth."""
    return lambda i: (obs.t[i], *obs.xy[i], *obs.n[i],
                      *(() if depths is None else (depths[i],)))


def test_problem_sorted_like_python_sort():
    # each case needs one more key of the order than the one before: the
    # time sort alone, (t, x, y) for equal times, n for equal (t, x, y), the
    # depth for equal (t, x, y, n)
    for times, places, normals in (("distinct", "few", "random"),
                                   ("few", "distinct", "random"),
                                   ("few", "few", "random"),
                                   ("few", "few", "few")):
        check_sorted_like_python_sort(times, places, normals)


def check_sorted_like_python_sort(times, places, normals):
    rng = np.random.default_rng(76)
    k = 20_000
    t = rng.permutation(k) / k if times == "distinct" else rng.integers(0, 50, k) / 100
    xy = (rng.uniform(-0.3, 0.3, (k, 2)) if places == "distinct"
          else rng.integers(-3, 4, (k, 2)) / 10)
    n = (rng.standard_normal((k, 2)) if normals == "random"
         else rng.integers(1, 3, (k, 2)) / 2)
    obs = Observations(xy=xy, n=n, t=t)
    depths = rng.uniform(1.0, 5.0, k)
    problem = SplineFitProblem(obs, ModelKind.SIX_DOF, depths=depths)
    key = sorted(range(k), key=row_key(obs, depths))
    assert np.array_equal(problem.observations.xy, obs.xy[key])
    assert np.array_equal(problem.observations.n, obs.n[key])
    assert np.array_equal(problem.observations.t, obs.t[key])
    assert np.array_equal(problem.depths, depths[key])
    # rows already in that order stay as they are
    again = SplineFitProblem(problem.observations, ModelKind.SIX_DOF,
                             depths=problem.depths)
    assert np.array_equal(again.observations.n, problem.observations.n)
    assert np.array_equal(again.depths, problem.depths)


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


def test_starved_points_and_their_smoothness_rows():
    # an observation in segment j reaches points j .. j + 3, the last only
    # off a knot (its weight u^3 / 6 is 0 at u = 0); an end point is tied
    # to its one neighbour, an inner one to the mean of both
    seg = np.array([2, 2, 2, 2, 2, 7, 7])
    u = np.array([0.0, 0.1, 0.5, 0.7, 0.99, 0.3, 0.6])
    assert _starved(seg, basis_weights(u), 12) == [0, 1, 6, 11]
    # segment 7's rows on its first knot leave point 10 unreached
    u[5:] = 0.0
    assert _starved(seg, basis_weights(u), 12) == [0, 1, 6, 10, 11]
    assert _starved(seg[:0], basis_weights(u[:0]), 4) == [0, 1, 2, 3]
    reg = _regularization_rows([0, 1, 6, 11], 12, 1, 2.0)
    want = np.zeros((4, 12))
    want[0, :2] = 2.0, -2.0
    want[1, :3] = -1.0, 2.0, -1.0
    want[2, 5:8] = -1.0, 2.0, -1.0
    want[3, 10:] = -2.0, 2.0
    assert np.array_equal(reg, want)
    assert np.array_equal(_regularization_rows([6], 12, 3, 1.0),
                          np.kron(want[2:3] / 2, np.eye(3)))
    assert _regularization_rows([], 12, 3, 1.0).shape == (0, 36)


def test_fit_holds_empty_end_segments_at_their_neighbours():
    # a user init one segment wider than the data on each side: the end
    # control points rest on empty segments alone, so only their smoothness
    # rows hold them, each equal to its neighbour
    motion = ConstantMotion(Velocity(nu=(0, 0, 0), omega=(0, 0, 1.0)))
    obs, _ = rotation_dataset(motion, count=2000, seed=73)
    obs = obs[(obs.t >= 0.05) & (obs.t < 0.35)]
    init = SplineTrajectory(np.tile((0.1, -0.1, 0.8), (11, 1)), t0=-0.05,
                            dt=0.05)
    problem = SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY)
    traj, report = fit(problem, init)
    assert report.starved_segments == [0, 7]
    assert report.starved_control_points == [0, 10]
    cp = traj.control_points
    assert np.allclose(cp, (0.0, 0.0, 1.0), atol=1e-9)
    assert np.allclose(cp[0], cp[1], atol=1e-12)
    assert np.allclose(cp[-1], cp[-2], atol=1e-12)
    # lstsq on the dense design holds the weakly tied end points less
    # tightly than the Jacobi-scaled normal equations
    want, rounds = dense_fit(problem, init)
    assert report.irls_rounds == rounds
    assert np.max(np.abs(cp - want)) < 1e-7


def test_fit_from_an_exact_init_has_no_huber_scale():
    # every residual of an exact init is zero to rounding, so the Huber
    # scale is infinite and the objective is the plain sum of squares,
    # computed without an inf * 0; no reweighting can move the first
    # round's solution, so the loop ends there
    rng = np.random.default_rng(74)
    xy = rng.uniform(-0.5, 0.5, (400, 2))
    t = rng.uniform(0.0, 0.3, 400)
    # a rotation about z has flow (y, -x); (y, 0) is its normal component
    obs = Observations(xy=xy, n=np.c_[xy[:, 1], np.zeros(400)], t=t)
    t0, n_ctrl = trajectory_covering(t.min(), t.max(), 0.05)
    init = SplineTrajectory(np.tile((0.0, 0.0, 1.0), (n_ctrl, 1)), t0=t0,
                            dt=0.05)
    with np.errstate(all="raise"):
        traj, report = fit(SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY),
                           init)
    assert all(np.isfinite(report.objective_history))
    assert report.irls_rounds == 1 and report.hit_cap is False
    assert np.allclose(traj.control_points, (0.0, 0.0, 1.0), atol=1e-9)
    assert _huber_objective(np.array([0.0, -3.0, 4.0]), np.inf) == 12.5
    assert _huber_objective(np.array([0.0, -3.0, 4.0]), 2.0) == 10.0


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


def test_init_does_not_ring_after_a_step():
    # midpoint collocation left the alternating mode (+1, -1, ...) free, so
    # a step in the segment estimates made the control points swing about
    # +-0.9 around omega_z = 0.5 all the way to the ends of the window
    dt = 0.02
    obs, _ = rotation_dataset(STEP, count=4000, seed=89,
                              noise=NoiseSpec(sigma_px=0.5, outlier_fraction=0.1))
    init, report = init_from_linear(obs, ModelKind.ANGULAR_VELOCITY, dt=dt)
    assert not report.filled_segments
    # control point i weighs the spline on [t0 + (i-2) dt, t0 + (i+2) dt)
    i = np.arange(init.n_ctrl)
    first, last = init.t0 + (i - 2) * dt, init.t0 + (i + 2) * dt
    before = last <= STEP.t_switch - 2 * dt
    after = first >= STEP.t_switch + 2 * dt
    assert before.sum() >= 4 and after.sum() >= 4
    for mask, velocity in ((before, STEP.before), (after, STEP.after)):
        err = np.linalg.norm(init.control_points[mask] - velocity.omega, axis=1)
        assert np.all(err <= 0.01 * np.linalg.norm(velocity.omega))


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
    # one count per segment, each at least the one hypothesis every fit draws
    assert len(report.segment_iterations) == 50
    assert min(report.segment_iterations) >= 1
    assert sum(report.segment_iterations) == report.ransac_iterations
    _, capped = init_from_linear(obs, ModelKind.ANGULAR_VELOCITY, dt=0.02,
                                 cfg=RansacConfig(max_iterations=2))
    assert capped.capped_segments == capped.good_segments
    assert all(type(j) is int for j in capped.capped_segments)
    assert capped.ransac_iterations == 2 * len(capped.good_segments)
    assert capped.segment_iterations == [2] * 50


def test_init_requires_observations():
    with pytest.raises(UnderDetermined):
        init_from_linear([], ModelKind.ANGULAR_VELOCITY)


def flows_at_the_centre(k=400, t_max=1.0, seed=0):
    """Flows at xy = (0, 0) only, where the rotational flow does not
    depend on omega_z: no fit can constrain it."""
    rng = np.random.default_rng(seed)
    return Observations(xy=np.zeros((k, 2)), n=rng.normal(size=(k, 2)),
                        t=np.linspace(0.0, t_max, k))


def test_init_without_a_good_segment_raises():
    with pytest.raises(UnderDetermined,
                       match="no segment supported a linear fit"):
        init_from_linear(flows_at_the_centre(), ModelKind.ANGULAR_VELOCITY,
                         dt=0.1)


@pytest.mark.parametrize("robust", [True, False])
def test_fit_with_an_unconstrained_unknown_raises(robust):
    # omega_z has no row at any observed control point: a zero diagonal
    t0, n_ctrl = trajectory_covering(0.0, 1.0, 0.1)
    init = SplineTrajectory(np.zeros((n_ctrl, 3)), t0=t0, dt=0.1)
    with pytest.raises(RankDeficient, match="spline unknowns unconstrained"):
        fit(SplineFitProblem(flows_at_the_centre(), ModelKind.ANGULAR_VELOCITY,
                             robust=robust), init)


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
    for bad in (0, -3):
        with pytest.raises(ValueError):
            SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY, max_rounds=bad)
    # the boundary that stays valid
    SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY, max_rounds=1)


@pytest.mark.parametrize("value", [2.5, True, "3", None, np.float64(2.0)])
def test_problem_rejects_non_integer_max_rounds(value):
    obs, _ = rotation_dataset(
        ConstantMotion(Velocity(nu=(0, 0, 0), omega=(0.1, 0, 0.3))),
        count=10, seed=75)
    with pytest.raises(ValueError, match="max_rounds"):
        SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY, max_rounds=value)
    # NumPy integers count as integers
    SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY, max_rounds=np.int64(2))


# --------------------------------------------------------------------------
# the block normal equations against the dense lstsq IRLS they replaced

def dense_design(obs, depths, kind, traj):
    """The dense K x (n_ctrl * dim) design, rows scaled by 1/|n|, and each
    row's segment and basis weights."""
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
    return a, rhs, seg, w


def dense_fit(problem, init):
    """The fit as one np.linalg.lstsq per IRLS round on the dense design,
    with one Huber scale from the init, stopped once a round lowers the
    objective by at most IRLS_TOL * max(1, objective), or after the first
    round at an infinite scale.  Returns (control points, IRLS rounds)."""
    n_ctrl, dim = init.n_ctrl, init.dim
    a, rhs, seg, w = dense_design(problem.observations, problem.depths,
                                  problem.kind, init)
    starved_cp = _starved(seg, w, n_ctrl)
    row_scale = float(np.median(np.linalg.norm(a, axis=1))) or 1.0
    reg = _regularization_rows(starved_cp, n_ctrl, dim, REG_WEIGHT * row_scale)
    reg_rhs = np.zeros(len(reg))
    theta = init.control_points.reshape(-1).copy()
    r = a @ theta - rhs
    delta = 3.0 * float(np.median(np.abs(r))) if problem.robust else np.inf
    if delta <= 0:
        delta = np.inf
    history = [_huber_objective(r, delta) + 0.5 * float(np.sum((reg @ theta) ** 2))]
    for rounds in range(1, problem.max_rounds + 1):
        wts = np.minimum(1.0, delta / np.maximum(np.abs(r), 1e-300))
        sw = np.sqrt(wts)
        theta, *_ = np.linalg.lstsq(np.concatenate([a * sw[:, None], reg]),
                                    np.concatenate([rhs * sw, reg_rhs]),
                                    rcond=None)
        r = a @ theta - rhs
        obj = _huber_objective(r, delta) + 0.5 * float(np.sum((reg @ theta) ** 2))
        history.append(obj)
        if delta == np.inf or history[-2] - obj <= IRLS_TOL * max(1.0, obj):
            break
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
    assert report.hit_cap is False
    assert rel_diff(traj.control_points, cp) < 1e-9
    # the init's objective and the one round's: the plain sum of squares
    # plus the regularisation term at the returned control points
    a, rhs, *_ = dense_design(problem.observations, problem.depths,
                              problem.kind, init)
    theta = traj.control_points.reshape(-1)
    reg = _regularization_rows(
        report.starved_control_points, init.n_ctrl, init.dim,
        REG_WEIGHT * float(np.median(np.linalg.norm(a, axis=1))))
    assert len(report.objective_history) == 2
    assert report.objective_history[-1] == pytest.approx(
        0.5 * np.sum((a @ theta - rhs) ** 2)
        + 0.5 * np.sum((reg @ theta) ** 2), rel=1e-12)


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


def test_fit_noise_free_step_converges_exactly():
    # the README's noise-free step at the default knot spacing: the init is
    # exact away from the step, and the fit must keep it so, not creep for
    # its whole cap of rounds towards a step the spline cannot model
    obs, _ = rotation_dataset(STEP, count=4000, seed=0)
    init, _ = init_from_linear(obs, ModelKind.ANGULAR_VELOCITY)
    traj, report = fit(SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY), init)
    assert not report.hit_cap
    grid = np.linspace(*traj.domain, 500, endpoint=False)
    grid = grid[np.abs(grid - STEP.t_switch) > 2 * traj.dt]
    _, omega = STEP.at(grid)
    err = np.linalg.norm(evaluate(traj, grid) - omega, axis=1)
    assert np.all(err <= 1e-9 * np.linalg.norm(omega, axis=1))


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
    # Ending on a knot (t_max = 0.5) leaves the last control point to its
    # smoothness row alone, which holds it but frees no other point.
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
    # the solve finds the matrix singular or only the final eigenvalue
    # check sees the singularity, and each must raise
    omega = np.array([0.1, -0.2, 0.5])
    for seed in range(300):
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


@pytest.mark.parametrize("robust", [True, False])
@pytest.mark.parametrize("dt", [0.1, 0.05, 0.02])
def test_fit_ending_on_a_knot(dt, robust):
    # the last time on a knot gives the last control point the weight
    # u^3 / 6 = 0: no observation reaches it, so its smoothness row holds it
    omega = np.array([0.1, -0.2, 0.5])
    obs, _ = rotation_dataset(
        ConstantMotion(Velocity(nu=(0, 0, 0), omega=omega)), count=2000,
        seed=88, noise=NoiseSpec(sigma_px=0.5, outlier_fraction=0.1))
    t = obs.t / obs.t.max()
    t[np.argmin(t)] = 0.0
    obs = Observations(xy=obs.xy, n=obs.n, t=t)
    init, _ = init_from_linear(obs, ModelKind.ANGULAR_VELOCITY, dt=dt)
    traj, report = fit(SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY,
                                        robust=robust), init)
    assert report.starved_control_points == [traj.n_ctrl - 1]
    err = np.linalg.norm(evaluate(traj, np.linspace(0.0, 1.0, 101)) - omega,
                         axis=1) / np.linalg.norm(omega)
    assert np.median(err) < (0.02 if robust else 0.5)


def test_fit_with_every_time_on_a_knot_raises():
    # samples at knots alone fix only the spline's knot values, which leave
    # its two end conditions free, as for an interpolating cubic spline
    obs, _ = rotation_dataset(
        ConstantMotion(Velocity(nu=(0, 0, 0), omega=(0.1, -0.2, 0.5))),
        count=2000, seed=89)
    obs = Observations(xy=obs.xy, n=obs.n, t=np.round(obs.t * 10) / 10)
    init, _ = init_from_linear(obs, ModelKind.ANGULAR_VELOCITY, dt=0.1)
    for robust in (True, False):
        with pytest.raises(RankDeficient):
            fit(SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY,
                                 robust=robust), init)


# --------------------------------------------------------------------------
# init_from_linear against its per-segment scan

def init_reference(obs, kind, dt, cfg=RansacConfig(), depths=None):
    """Control points, segment estimates, good and filled segments from one
    np.nonzero scan and one ransac_estimate call per segment, on that
    segment's observations in the spline's row order; each control point
    is the mean of the estimates of the segments meeting at its knot."""
    t0, n_ctrl = trajectory_covering(float(obs.t.min()), float(obs.t.max()), dt)
    n_seg = n_ctrl - 3
    # the interval fit and evaluate place each time in
    seg, _ = _locate(SplineTrajectory(np.zeros((n_ctrl, 1)), t0=t0, dt=dt),
                     obs.t)
    estimates = np.full((n_seg, kind.param_dim), np.nan)
    good = []
    for j in range(n_seg):
        idx = np.array(sorted(np.nonzero(seg == j)[0],
                              key=row_key(obs, depths)), dtype=int)
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
    # control point i at knot t0 + i dt: the segments that end and begin there
    cp = np.array([np.mean(estimates[[min(max(i - 2, 0), n_seg - 1),
                                      min(max(i - 1, 0), n_seg - 1)]], axis=0)
                   for i in range(n_ctrl)])
    return cp, estimates, good, filled


SIX_DOF_STEP = StepMotion(before=Velocity(nu=(0.2, 0, 0), omega=(0, 0, 0.5)),
                          after=Velocity(nu=(0.2, 0, 0), omega=(0, 0, 2.0)),
                          t_switch=0.25)


@pytest.mark.parametrize("case", ["angular_velocity", "six_dof", "on_knots"])
def test_init_bit_identical_to_per_segment_scan(case):
    noise = NoiseSpec(sigma_px=0.5, outlier_fraction=0.1)
    if case == "on_knots":
        # every time rounded onto the 0.1 s knot grid: each observation lies
        # in the interval that starts at its knot, as in the fit
        kind, dt, depths = ModelKind.ANGULAR_VELOCITY, 0.1, None
        obs, _ = generate_dataset(
            RandomPointsScene(),
            ConstantMotion(Velocity(nu=(0, 0, 0), omega=(0.1, -0.2, 0.5))),
            count=3000, window=2.0, seed=86, noise=noise)
        obs = Observations(xy=obs.xy, n=obs.n, t=np.round(obs.t * 10) / 10)
    else:
        kind, dt = ModelKind(case), 0.02
        six_dof = kind is ModelKind.SIX_DOF
        obs, truth = rotation_dataset(SIX_DOF_STEP if six_dof else STEP,
                                      count=3000, seed=85, noise=noise)
        # a gap at least 5 segments wide and a sparse stretch leave filled
        # segments between good ones
        keep = (obs.t < 0.12) | (obs.t > 0.24) & ((obs.t > 0.3) | (obs.xy[:, 0] > 0.3))
        obs = obs[keep]
        depths = truth.z[keep] if six_dof else None
    init, report = init_from_linear(obs, kind, dt=dt, depths=depths)
    cp, estimates, good, filled = init_reference(obs, kind, dt, depths=depths)
    if case == "on_knots":
        # the last knot, t = 2.0, starts the last segment
        assert good == list(range(21)) and not filled
    else:
        assert len(filled) >= 5 and good
    assert report.good_segments == good
    assert report.filled_segments == filled
    assert all(type(j) is int for j in report.good_segments + report.filled_segments)
    # a failed segment drew no hypothesis that counts
    iterations = np.array(report.segment_iterations)
    assert np.all(iterations[filled] == 0) and np.all(iterations[good] >= 1)
    assert all(type(n) is int for n in report.segment_iterations)
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
