"""Acceptance checks: one test per end-to-end requirement, each printing a
single summary line with the measured numbers next to its threshold.

Run with -s (or read the captured output) to see the summary lines."""
import time

import numpy as np

from evnormalflow import (
    ConstantMotion, Intrinsics, ModelKind, NoiseSpec, PlaneScene,
    RandomPointsScene, RansacConfig, SplineFitProblem, StepMotion, Velocity,
    build_rows, decompose_hd, evaluate, extract_normal_flows, fit,
    generate_dataset, hd_from_plane, init_from_linear, pixel_to_calibrated,
    ransac_estimate, recover_true_hd, run_noise_sweep,
    solve_6dof, solve_angular_velocity, solve_depth,
    solve_diff_homography, solve_optical_flow, stack_and_solve,
    surface_from_edges, toy_registration, MovingEdge,
)
from evnormalflow.extraction import ExtractionConfig


def report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _random_velocity(rng, pure_rotation=False):
    omega = rng.uniform(-0.5, 0.5, 3)
    omega += 0.05 * np.sign(omega)
    if pure_rotation:
        return Velocity(nu=(0, 0, 0), omega=omega)
    nu = rng.uniform(-0.5, 0.5, 3)
    nu += 0.05 * np.sign(nu)
    return Velocity(nu=nu, omega=omega)


def test_exact_inversion_noise_free_all_models():
    """100 seeded noise-free instances per model invert to <= 1e-8 relative
    error; all five models in under 10 s."""
    t_start = time.perf_counter()
    worst = {kind: 0.0 for kind in ModelKind}
    for seed in range(100):
        rng = np.random.default_rng(seed)
        v = _random_velocity(rng)
        points = RandomPointsScene()
        obs, truth = generate_dataset(points, ConstantMotion(v), count=250,
                                      seed=seed)

        u, valid = solve_optical_flow(obs, v)
        rel = (np.linalg.norm(u[valid] - truth.u[valid], axis=1)
               / np.linalg.norm(truth.u[valid], axis=1))
        worst[ModelKind.OPTICAL_FLOW] = max(worst[ModelKind.OPTICAL_FLOW],
                                            float(rel.max()))

        z, valid = solve_depth(obs, v)
        rel = np.abs(z[valid] - truth.z[valid]) / truth.z[valid]
        worst[ModelKind.DEPTH] = max(worst[ModelKind.DEPTH], float(rel.max()))

        out = solve_6dof(obs, truth.z)
        gt = np.concatenate([v.nu, v.omega])
        est = np.concatenate([out.nu, out.omega])
        worst[ModelKind.SIX_DOF] = max(
            worst[ModelKind.SIX_DOF],
            float(np.linalg.norm(est - gt) / np.linalg.norm(gt)))

        v_rot = _random_velocity(rng, pure_rotation=True)
        obs_rot, _ = generate_dataset(points, ConstantMotion(v_rot), count=250,
                                      seed=seed + 1000)
        est = solve_angular_velocity(obs_rot)
        worst[ModelKind.ANGULAR_VELOCITY] = max(
            worst[ModelKind.ANGULAR_VELOCITY],
            float(np.linalg.norm(est - v_rot.omega) / np.linalg.norm(v_rot.omega)))

        plane = PlaneScene(normal=(0.2, -0.1, 1.0), d=2.0)
        obs_pl, truth_pl = generate_dataset(plane, ConstantMotion(v), count=250,
                                            seed=seed + 2000)
        h_d, _ = recover_true_hd(solve_diff_homography(obs_pl))
        gt_h = truth_pl.hd.h
        worst[ModelKind.DIFF_HOMOGRAPHY] = max(
            worst[ModelKind.DIFF_HOMOGRAPHY],
            float(np.linalg.norm(h_d.h - gt_h) / np.linalg.norm(gt_h)))
    elapsed = time.perf_counter() - t_start
    worst_all = max(worst.values())
    detail = ("worst rel err " + ", ".join(
        f"{k.value}={v:.2e}" for k, v in worst.items())
        + f"; {elapsed:.1f}s")
    report("exact-inversion", worst_all <= 1e-8 and elapsed < 10.0, detail)


def test_noise_sweep_monotone_with_frozen_threshold():
    """Median error curves monotone non-decreasing over
    {0.01, 0.1, 1, 10, 100} px for all five models; angular velocity at
    1 px under a frozen threshold; full sweep in under 60 s."""
    t_start = time.perf_counter()
    # calibration record: seed 0, 20 trials x 1000 samples measured an
    # angular-velocity median of 3.541e-3 at 1 px when this suite was
    # frozen; the bound below is that value with ~1.5x margin
    frozen_omega_at_1px = 5.5e-3
    grid = (0.01, 0.1, 1.0, 10.0, 100.0)
    monotone = {}
    omega_at_1px = None
    for kind in ModelKind:
        res = run_noise_sweep(kind, noise_grid_px=grid, trials=20,
                              samples=1000, seed=0)
        monotone[kind] = bool(np.all(np.diff(res.median) >= 0))
        if kind is ModelKind.ANGULAR_VELOCITY:
            omega_at_1px = float(res.median[grid.index(1.0)])
    elapsed = time.perf_counter() - t_start
    ok = (all(monotone.values()) and omega_at_1px <= frozen_omega_at_1px
          and elapsed < 60.0)
    detail = (f"monotone={all(monotone.values())}, "
              f"omega@1px={omega_at_1px:.3e} <= {frozen_omega_at_1px:.1e}, "
              f"{elapsed:.1f}s")
    report("noise-sweep", ok, detail)


def test_toy_registration_constraint_vs_naive():
    """The constraint-based toy registration recovers (1.732, -1) to 1e-6
    while naively averaging normal flows is at least 10x worse; < 1 s."""
    t_start = time.perf_counter()
    u_true = np.array([1.732, -1.0])
    flows = []
    for deg in (0.0, 45.0, 90.0, 135.0):
        ghat = np.array([np.cos(np.deg2rad(deg)), np.sin(np.deg2rad(deg))])
        flows.append((u_true @ ghat) * ghat)  # each edge sees u along ghat
    result = toy_registration(np.array(flows))
    err_constraint = float(np.linalg.norm(result.constraint - u_true))
    err_naive = float(np.linalg.norm(result.naive - u_true))
    elapsed = time.perf_counter() - t_start
    ok = (err_constraint <= 1e-6 and err_naive >= 10 * err_constraint
          and elapsed < 1.0)
    report("toy-registration", ok,
           f"constraint err {err_constraint:.2e}, naive err {err_naive:.2e}, "
           f"{elapsed:.2f}s")


def _random_hd(rng):
    nu = rng.uniform(-1.0, 1.0, 3)
    nu /= np.linalg.norm(nu)
    while True:
        normal = rng.uniform(-1.0, 1.0, 3)
        normal[2] = abs(normal[2]) + 0.2
        normal /= np.linalg.norm(normal)
        cosang = abs(float(nu @ normal))
        if 0.05 < cosang < 0.95:
            break
    omega = rng.uniform(-1.0, 1.0, 3)
    d = rng.uniform(0.5, 4.0)
    return Velocity(nu=nu, omega=omega), normal, d


def test_homography_shift_recovery_and_decomposition_bulk():
    """1000 random planar structures: the additive-shift recovery lands
    within 1e-9 and one decomposition candidate matches the true
    (nu/d, N) pair within 1e-8 after sign normalization; < 5 s."""
    t_start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_recover = 0.0
    worst_candidate = 0.0
    for _ in range(1000):
        v, normal, d = _random_hd(rng)
        hd = hd_from_plane(v, normal, d)
        eps = rng.uniform(-10.0, 10.0)
        h_l = hd.h + eps * np.eye(3)
        recovered, eps_hat = recover_true_hd(h_l)
        scale = max(1.0, float(np.linalg.norm(hd.h)))
        worst_recover = max(worst_recover,
                            float(np.linalg.norm(recovered.h - hd.h)) / scale)
        decomp = decompose_hd(recovered)
        nu_over_d = np.asarray(v.nu) / d
        best = np.inf
        for cand in decomp.candidates:
            n_c, t_c = cand.normal, cand.nu_over_d
            if n_c[2] < 0:
                n_c, t_c = -n_c, -t_c
            best = min(best, max(float(np.linalg.norm(t_c - nu_over_d)),
                                 float(np.linalg.norm(n_c - normal))))
        worst_candidate = max(worst_candidate, best)
    elapsed = time.perf_counter() - t_start
    ok = worst_recover <= 1e-9 and worst_candidate <= 1e-8 and elapsed < 5.0
    report("homography-roundtrip", ok,
           f"worst shift err {worst_recover:.2e}, worst candidate err "
           f"{worst_candidate:.2e}, {elapsed:.1f}s")


def test_ransac_outlier_robustness_and_determinism():
    """Angular-velocity RANSAC on 500 observations with 30% outliers lands
    within 2x of the inlier-only fit, and repeated runs are bit-identical
    (per-iteration seed substreams make the result independent of
    scheduling); < 5 s."""
    t_start = time.perf_counter()
    omega = np.array([0.1, -0.2, 0.15])
    obs, truth = generate_dataset(
        RandomPointsScene(),
        ConstantMotion(Velocity(nu=(0, 0, 0), omega=omega)),
        count=500, seed=7,
        noise=NoiseSpec(sigma_px=0.1, outlier_fraction=0.3))
    cfg = RansacConfig(seed=11)
    fit1 = ransac_estimate(obs, ModelKind.ANGULAR_VELOCITY, cfg)
    fit2 = ransac_estimate(obs, ModelKind.ANGULAR_VELOCITY, cfg)
    deterministic = (np.array_equal(fit1.theta, fit2.theta)
                     and np.array_equal(fit1.inliers, fit2.inliers))
    inlier_obs = [o for o, keep in zip(obs, truth.inlier_mask) if keep]
    rows, rhs = build_rows(inlier_obs, ModelKind.ANGULAR_VELOCITY)
    theta_inlier, _ = stack_and_solve(rows, rhs)
    err_ransac = float(np.linalg.norm(fit1.theta - omega))
    err_inlier = float(np.linalg.norm(theta_inlier - omega))
    elapsed = time.perf_counter() - t_start
    ok = (err_ransac <= 2.0 * err_inlier and deterministic and elapsed < 5.0)
    report("ransac-robustness", ok,
           f"ransac err {err_ransac:.2e} vs inlier-only {err_inlier:.2e}, "
           f"deterministic={deterministic}, {elapsed:.1f}s")


def _robust_solve_seed(seed, k):
    """Dataset seed k of the robust-solve benchmark workload at `seed`."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def test_ransac_six_dof_and_homography_within_2x_of_inlier_fit():
    """Six-dof (random depths) and homography (plane) RANSAC on the
    robust-solve benchmark data at seeds 1-3, K = 20 k with 30% outliers,
    land within 2x of the least-squares fit on the true inliers at 0.1,
    0.5, 1, 2 and 3 px, below the iteration cap; < 30 s."""
    t_start = time.perf_counter()
    motion = ConstantMotion(Velocity(nu=(0.2, -0.1, 0.3),
                                     omega=(0.1, -0.2, 0.15)))
    truth_six = np.r_[motion.velocity.nu, motion.velocity.omega]
    plane = PlaneScene(normal=(0.2, -0.1, 1.0), d=2.0)
    truth_h = hd_from_plane(motion.velocity, np.asarray(plane.normal), plane.d).h

    def six_err(theta):
        return np.linalg.norm(theta - truth_six) / np.linalg.norm(truth_six)

    def h_err(theta):
        h_d, _ = recover_true_hd(theta.reshape(3, 3))
        return np.linalg.norm(h_d.h - truth_h) / np.linalg.norm(truth_h)

    cases = [(ModelKind.SIX_DOF, RandomPointsScene(depth_range=(1.0, 5.0)),
              1, six_err), (ModelKind.DIFF_HOMOGRAPHY, plane, 2, h_err)]
    worst, capped = 0.0, 0
    for seed in (1, 2, 3):
        for sigma in (0.1, 0.5, 1.0, 2.0, 3.0):
            for kind, scene, k, err_of in cases:
                obs, truth = generate_dataset(
                    scene, motion, count=20000, seed=_robust_solve_seed(seed, k),
                    noise=NoiseSpec(sigma_px=sigma, outlier_fraction=0.3))
                keep = truth.inlier_mask
                if kind is ModelKind.SIX_DOF:
                    result = ransac_estimate(obs, kind, depths=truth.z)
                    rows, rhs = build_rows(obs[keep], kind, depths=truth.z[keep])
                else:
                    result = ransac_estimate(obs, kind)
                    rows, rhs = build_rows(obs[keep], kind)
                theta_inlier, _ = stack_and_solve(rows, rhs)
                worst = max(worst, err_of(result.theta) / err_of(theta_inlier))
                capped += result.hit_cap
    elapsed = time.perf_counter() - t_start
    ok = worst <= 2.0 and capped == 0 and elapsed < 30.0
    report("ransac-six-dof-homography", ok,
           f"worst ransac/inlier-only error {worst:.2f} <= 2 over 30 fits, "
           f"{capped} at the iteration cap, {elapsed:.1f}s")


def test_spline_step_response():
    """A 0.5 -> 2.0 rad/s step at t=0.25 s fitted with 0.05 s knots: the
    spline beats the best constant model in RMSE and stays within 5%
    pointwise outside a +-2 knot-interval band around the step; < 10 s."""
    t_start = time.perf_counter()
    dt = 0.05
    motion = StepMotion(before=Velocity(nu=(0, 0, 0), omega=(0, 0, 0.5)),
                        after=Velocity(nu=(0, 0, 0), omega=(0, 0, 2.0)),
                        t_switch=0.25)
    obs, _ = generate_dataset(RandomPointsScene(), motion, count=4000,
                              window=0.5, seed=68)
    init, _ = init_from_linear(obs, ModelKind.ANGULAR_VELOCITY, dt=dt)
    traj, _ = fit(SplineFitProblem(obs, ModelKind.ANGULAR_VELOCITY), init)
    lo, hi = traj.domain
    ts = np.linspace(lo, hi - 1e-9, 400)
    wz = evaluate(traj, ts)[:, 2]
    gt = np.where(ts < 0.25, 0.5, 2.0)
    rmse_spline = float(np.sqrt(np.mean((wz - gt) ** 2)))
    rmse_const = float(np.sqrt(np.mean((gt.mean() - gt) ** 2)))
    outside = np.abs(ts - 0.25) > 2 * dt
    max_rel = float(np.max(np.abs(wz - gt)[outside] / gt[outside]))
    elapsed = time.perf_counter() - t_start
    ok = (rmse_spline < rmse_const and max_rel <= 0.05 and elapsed < 10.0)
    report("spline-step", ok,
           f"rmse {rmse_spline:.3f} < const {rmse_const:.3f}, max rel err "
           f"outside band {max_rel:.3f} <= 0.05, {elapsed:.1f}s")


def test_extraction_end_to_end_laws():
    """Flows extracted from an analytic moving-edge surface: magnitudes
    within 2% of the 100 px/s ground truth, and every flow parallel to the
    ramp's analytic gradient with |n| * |grad| = 1, both to 1e-9; < 5 s."""
    t_start = time.perf_counter()
    intr = Intrinsics(fx=200.0, fy=200.0, cx=60.0, cy=30.0,
                      width=120, height=60)
    edge = MovingEdge(point=(20.0, 0.0), direction=(0.0, 1.0),
                      velocity=(100.0, 0.0))
    surface = surface_from_edges([edge], shape=(60, 120), window=0.5)
    cfg = ExtractionConfig()
    obs, stats = extract_normal_flows(surface, intr, cfg)
    assert obs, "no flows extracted"
    speeds = np.hypot(obs.n[:, 0] * intr.fx, obs.n[:, 1] * intr.fy)
    mag_err = float(np.max(np.abs(speeds - 100.0) / 100.0))
    # surface_from_edges' ramp t = ((x, y) - point) x direction / den + t0,
    # den = velocity x direction, with a unit direction: its gradient is
    # (dy, -dx) / den s/px.
    (dx, dy), (vx, vy) = edge.direction, edge.velocity
    den = vx * dy - vy * dx
    g_px = np.broadcast_to(np.array([dy, -dx]) / den, obs.px.shape)
    _, g_cal = pixel_to_calibrated(obs.px, intr, gradient_px=g_px)
    cross = np.abs(obs.n[:, 0] * g_cal[:, 1] - obs.n[:, 1] * g_cal[:, 0])
    scale = np.linalg.norm(obs.n, axis=1) * np.linalg.norm(g_cal, axis=1)
    worst_parallel = float(np.max(cross / scale))
    worst_unit = float(np.max(np.abs(scale - 1.0)))
    elapsed = time.perf_counter() - t_start
    ok = (mag_err <= 0.02 and worst_parallel <= 1e-9 and worst_unit <= 1e-9
          and elapsed < 5.0)
    report("extraction-e2e", ok,
           f"magnitude err {mag_err:.2e} <= 2%, parallel {worst_parallel:.1e},"
           f" unit law {worst_unit:.1e} over {len(obs)} flows, {elapsed:.1f}s")


def test_six_dof_ransac_runtime_logged():
    """Soft target: one six-dof RANSAC solve over 2000 observations should
    take about 100 ms on a desktop core.  Logged, never failing."""
    v = Velocity(nu=(0.2, -0.1, 0.3), omega=(0.1, -0.2, 0.15))
    obs, truth = generate_dataset(RandomPointsScene(), ConstantMotion(v),
                                  count=2000, seed=20)
    cfg = RansacConfig(seed=3)
    ransac_estimate(obs, ModelKind.SIX_DOF, cfg, depths=truth.z)  # warm-up
    t_start = time.perf_counter()
    ransac_estimate(obs, ModelKind.SIX_DOF, cfg, depths=truth.z)
    elapsed_ms = 1000.0 * (time.perf_counter() - t_start)
    status = "within" if elapsed_ms < 100.0 else "over"
    print(f"ACCEPTANCE runtime-soft: PASS ({elapsed_ms:.1f} ms, {status} the "
          f"100 ms soft target; logged, not gating)")
