"""Five linear solvers on the normal-flow constraint, the stacked
least-squares backend, and the RANSAC wrapper."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from evnormalflow import (ConstantMotion, DegenerateDepth, DiffHomography,
                          ModelKind, NoConsensus, NoiseSpec,
                          Observations, PlaneScene, PureRotation,
                          RandomPointsScene, RankDeficient, RansacConfig,
                          StepMotion, TwoWallsScene, UnderDetermined,
                          Velocity, build_rows,
                          epipolar_terms, generate_dataset,
                          init_from_linear, matrix_a, matrix_b, matrix_c,
                          matrix_d, ransac_estimate, solve_6dof,
                          solve_angular_velocity, solve_depth,
                          solve_diff_homography, solve_optical_flow,
                          stack_and_solve)
from evnormalflow import solvers
from evnormalflow.geometry import FOV_LIMIT, as_observations
from evnormalflow.solvers import (FitReport, _draws, _flow_model, _GroupRows,
                                  _ransac_groups)


def one_obs(x, y, nx, ny, t=0.0):
    """A one-row Observations: flow (nx, ny) at calibrated (x, y)."""
    return Observations(xy=[(x, y)], n=[(nx, ny)], t=[t])


def make_obs(x, y, u, angle_deg):
    """Observation at (x, y) whose gradient sits angle_deg from the flow u."""
    base = np.arctan2(u[1], u[0])
    phi = base + np.deg2rad(angle_deg)
    g = np.array([np.cos(phi), np.sin(phi)])
    n = (u @ g) * g
    return one_obs(x, y, n[0], n[1])


def scalar_flow(obs, v):
    """Reference flow at a one-row Observations: its 2x2 system solved on
    its own, None when the normal flow is parallel to the epipolar
    direction."""
    (x, y), n, mag2 = obs.xy[0], obs.n[0], obs.mag2[0]
    xhat = np.array([x, y, 1.0])
    nu_cross, s_mat = epipolar_terms(v)
    ell, rhs2 = (nu_cross @ xhat)[:2], float(xhat @ s_mat @ xhat)
    det = n[0] * ell[1] - n[1] * ell[0]
    scale = np.linalg.norm(n) * np.linalg.norm(ell)
    if abs(det) <= 1e-12 * scale or scale == 0:
        return None
    return np.array([(ell[1] * mag2 - n[1] * rhs2) / det,
                     (n[0] * rhs2 - ell[0] * mag2) / det])


def scalar_depth(obs, v):
    """Reference closed-form depth at a one-row Observations, None when
    degenerate."""
    (x, y), n, mag2 = obs.xy[0], obs.n[0], obs.mag2[0]
    a_nu = matrix_a(x, y) @ v.nu
    num = float(n @ a_nu)
    den = mag2 - float(n @ (matrix_b(x, y) @ v.omega))
    num_scale = np.linalg.norm(n) * np.linalg.norm(a_nu)
    if (abs(num) <= 1e-12 * num_scale or num_scale == 0
            or abs(den) <= 1e-12 * mag2):
        return None
    return num / den


def depth_oracle(obs, v, z):
    """The residual z (|n|^2 - n^T B(x) omega) - n^T A(x) nu of depths z
    under geometry's interaction matrices, and 4 eps times the magnitudes
    it sums, row by row: rounding keeps a depth that solves the equation
    within that bound, however much |n|^2 and n^T B(x) omega cancel."""
    x, y, n = obs.xy[:, 0], obs.xy[:, 1], obs.n
    a, b = matrix_a(x, y), matrix_b(x, y)
    num = np.einsum("ki,kij,j->k", n, a, v.nu)
    den = obs.mag2 - np.einsum("ki,kij,j->k", n, b, v.omega)
    terms = (np.einsum("ki,kij,j->k", np.abs(n), np.abs(a), np.abs(v.nu))
             + np.abs(z) * (obs.mag2 + np.einsum(
                 "ki,kij,j->k", np.abs(n), np.abs(b), np.abs(v.omega))))
    return z * den - num, 4 * np.finfo(float).eps * terms


# --------------------------------------------------------------------------
# stack_and_solve

def test_stack_identity_system():
    theta, info = stack_and_solve(np.eye(3), [1.0, 2.0, 3.0])
    assert np.allclose(theta, [1, 2, 3], atol=1e-14)
    assert info.rank == 3 and info.cond == pytest.approx(1.0)


def test_stack_duplicated_rows_same_solution():
    rng = np.random.default_rng(20)
    a = rng.standard_normal((6, 3))
    x = rng.standard_normal(3)
    b = a @ x
    theta1, _ = stack_and_solve(a, b)
    theta2, _ = stack_and_solve(np.vstack([a, a]), np.concatenate([b, b]))
    assert np.allclose(theta1, theta2, atol=1e-12)
    assert np.allclose(theta1, x, atol=1e-10)


def test_stack_random_consistent_system():
    rng = np.random.default_rng(21)
    for _ in range(20):
        a = rng.standard_normal((15, 4))
        x = rng.standard_normal(4)
        theta, info = stack_and_solve(a, a @ x)
        assert np.linalg.norm(a @ theta - a @ x) < 1e-12
        assert info.rank == 4


def test_stack_rank_deficient_raises():
    a = np.zeros((5, 3))
    a[:, 0] = 1.0
    with pytest.raises(RankDeficient):
        stack_and_solve(a, np.ones(5), min_rank=3)


def test_stack_minimum_norm_when_deficient():
    # one-dimensional row space: solution must lie along the row direction
    a = np.tile([1.0, 1.0], (4, 1))
    theta, info = stack_and_solve(a, np.full(4, 2.0), min_rank=1)
    assert np.allclose(theta, [1.0, 1.0], atol=1e-12)
    assert info.rank == 1


# Row counts on and across the 64-row leaves and the 2 048-row chunks of a
# nine-parameter system, and a robust-solve refit's size.
EDGE_ROWS = [63, 64, 65, 2047, 2048, 2049, 14080]


def homography_rows(count, seed=5):
    """Weighted homography rows of a noisy plane, rank 8 of 9."""
    v = Velocity(nu=(0.2, -0.1, 0.3), omega=(0.1, -0.2, 0.15))
    obs, _ = generate_dataset(PlaneScene(normal=(0.2, -0.1, 1.0), d=2.0),
                              ConstantMotion(v), count=count, seed=seed,
                              noise=NoiseSpec(sigma_px=0.5))
    a, b = build_rows(obs, ModelKind.DIFF_HOMOGRAPHY)
    w = np.random.default_rng(seed).uniform(0.5, 2.0, count)
    return a * w[:, None], b * w


@pytest.mark.parametrize("shape", [(30, 100), (300, 70), (2, 9)]
                         + [(k, 9) for k in EDGE_ROWS])
def test_stack_matches_lstsq_for_any_shape(shape):
    # more unknowns than a leaf holds rows, or than there are rows; rows
    # that fill leaves and chunks exactly, or spill one row into the next
    rng = np.random.default_rng(23)
    a, b = rng.standard_normal(shape), rng.standard_normal(shape[0])
    theta, info = stack_and_solve(a, b)
    ref, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    assert info.rank == rank
    assert np.allclose(theta, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("count", [65, 2049, 14080])
def test_stack_minimum_norm_of_homography_rows(count):
    a, b = homography_rows(count)
    theta, info = stack_and_solve(a, b)
    ref, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    assert info.rank == rank == 8
    assert np.allclose(theta, ref, rtol=0, atol=1e-12)


def test_group_solves_equal_lone_solves():
    # each group's solve, weighted, bit for bit that of a lone call on it,
    # whatever leaves and chunks the groups beside it take; an empty group
    # fails on its own
    rng = np.random.default_rng(24)
    sizes = EDGE_ROWS + [0, 2048, 64]
    k = sum(sizes)
    a_h, b_h = homography_rows(1000)
    a = np.concatenate([rng.standard_normal((k, 9)), a_h])
    b = np.concatenate([rng.standard_normal(k), b_h])
    sizes.append(len(b_h))
    bounds = np.cumsum([0] + sizes)
    sel = np.arange(bounds[-1])
    gid = np.repeat(np.arange(len(sizes)), sizes)
    weight = rng.uniform(0.5, 2.0, len(sel))
    theta, rank, cond, errors = solvers._solve_groups(
        a, b, sel, gid, len(sizes), min_rank=8, weight=weight)
    assert [g for g, e in enumerate(errors) if e is not None] == [7]
    assert rank.tolist() == [9] * 7 + [0, 9, 9, 8]
    for g in range(len(sizes)):
        rows = slice(bounds[g], bounds[g + 1])
        lone = solvers._solve_groups(
            a, b, sel[rows], np.zeros(sizes[g], dtype=np.intp), 1,
            min_rank=8, weight=weight[rows])
        assert np.array_equal(theta[g], lone[0][0])
        assert rank[g] == lone[1][0]
        assert np.array_equal(cond[g], lone[2][0], equal_nan=True)
        assert type(errors[g]) is type(lone[3][0])


def test_group_solve_copies_no_whole_system():
    # a weighted refit of 140 000 of 200 000 rows stays under a third of the
    # 25.8 MB that one padded copy of them and a QR's copy of that trace
    rng = np.random.default_rng(25)
    a, b = rng.standard_normal((200_000, 9)), rng.standard_normal(200_000)
    sel = np.sort(rng.choice(200_000, 140_000, replace=False))
    gid = np.zeros(len(sel), dtype=np.intp)
    weight = rng.uniform(0.5, 2.0, len(sel))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        theta, rank, _, _ = solvers._solve_groups(a, b, sel, gid, 1,
                                                  weight=weight)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rank[0] == 9
    assert peak < 8e6
    ref = np.linalg.lstsq(a[sel] * weight[:, None], b[sel] * weight,
                          rcond=None)[0]
    assert np.allclose(theta[0], ref, rtol=0, atol=1e-12)


# --------------------------------------------------------------------------
# per-pixel solvers

def test_optical_flow_exact_inversion():
    v = Velocity(nu=(0.3, -0.2, 0.5), omega=(0.1, 0.2, -0.3))
    rng = np.random.default_rng(22)
    obs, flows = [], []
    for _ in range(50):
        x, y = rng.uniform(-0.5, 0.5, 2)
        z = rng.uniform(1.0, 5.0)
        flows.append(matrix_d(x, y, z) @ np.r_[v.nu, v.omega])
        obs.append(make_obs(x, y, flows[-1], 30.0))
    u, valid = solve_optical_flow(obs, v)
    assert valid.all()
    assert np.allclose(u, flows, atol=1e-9)


def test_optical_flow_pure_rotation():
    obs = one_obs(0.1, 0.2, 1.0, 0.0)
    with pytest.raises(PureRotation):
        solve_optical_flow(obs, Velocity(nu=(0, 0, 0), omega=(0.1, 0, 0)))


def test_optical_flow_singular_when_parallel_to_epipolar():
    # at the origin with nu = e1 the epipolar direction is (0, -1); a normal
    # flow along it makes the 2x2 system singular
    v = Velocity(nu=(1.0, 0, 0), omega=(0, 0, 0))
    obs = one_obs(0.0, 0.0, 0.0, 1.0)
    u, valid = solve_optical_flow(obs, v)
    assert valid.tolist() == [False] and np.isnan(u).all()
    assert scalar_flow(obs, v) is None


def test_depth_hand_example():
    # x=(0.1, 0), nu = e3, omega = 0, Z = 2  =>  u = (0.05, 0)
    v = Velocity(nu=(0, 0, 1), omega=(0, 0, 0))
    u = matrix_d(0.1, 0.0, 2.0) @ np.r_[v.nu, v.omega]
    assert np.allclose(u, [0.05, 0.0])
    obs = one_obs(0.1, 0.0, u[0], u[1])
    z, valid = solve_depth(obs, v)
    assert valid.tolist() == [True]
    assert z[0] == pytest.approx(2.0, abs=1e-12)


def test_depth_rotation_explains_flow():
    # at the origin with omega = (0, -1, 0), B omega = (1, 0); n = (1, 0)
    # makes the denominator |n|^2 - n^T B omega vanish exactly
    v = Velocity(nu=(-1.0, 0, 0), omega=(0, -1.0, 0))
    obs = one_obs(0.0, 0.0, 1.0, 0.0)
    z, valid = solve_depth(obs, v)
    assert valid.tolist() == [False] and np.isnan(z[0])
    assert scalar_depth(obs, v) is None


def test_depth_zero_numerator_at_foe():
    # nu = e3 puts the focus of expansion at the origin: A(0,0) nu = 0
    v = Velocity(nu=(0, 0, 1.0), omega=(0, 0, 0))
    obs = one_obs(0.0, 0.0, 0.5, 0.0)
    z, valid = solve_depth(obs, v)
    assert valid.tolist() == [False] and np.isnan(z[0])
    assert scalar_depth(obs, v) is None


def test_depth_negative_reported_not_clamped():
    v = Velocity(nu=(0.4, -0.1, 0.2), omega=(0.05, 0.1, -0.02))
    x, y, z = 0.2, -0.1, -2.0  # behind the camera
    u = matrix_a(x, y) @ v.nu / z + matrix_b(x, y) @ v.omega
    obs = one_obs(x, y, u[0], u[1])
    depth, valid = solve_depth(obs, v)
    assert valid.tolist() == [True]
    assert depth[0] == pytest.approx(z, rel=1e-10)


def test_depth_noise_free_median_error():
    v = Velocity(nu=(0.3, -0.2, 0.5), omega=(0.1, 0.2, -0.3))
    obs, truth = generate_dataset(RandomPointsScene(), ConstantMotion(v),
                                  count=1000, seed=30)
    z, valid = solve_depth(obs, v)
    rel = np.abs(z[valid] - truth.z[valid]) / truth.z[valid]
    assert np.median(rel) < 1e-9


def test_batch_solvers_match_scalar():
    v = Velocity(nu=(0.3, -0.2, 0.5), omega=(0.1, 0.2, -0.3))
    obs, truth = generate_dataset(RandomPointsScene(), ConstantMotion(v),
                                  count=200, seed=31)
    u_batch, valid_u = solve_optical_flow(obs, v)
    z_batch, valid_z = solve_depth(obs, v)
    for i, row in enumerate(obs):
        u, z = scalar_flow(row, v), scalar_depth(row, v)
        assert (u is not None, z is not None) == (valid_u[i], valid_z[i])
        if valid_u[i]:
            assert np.allclose(u, u_batch[i], atol=1e-12)
    # the batch depths solve the interaction-matrix equation that
    # scalar_depth divides out, to within rounding
    r, bound = depth_oracle(obs[valid_z], v, z_batch[valid_z])
    assert np.all(np.abs(r) <= bound)


@pytest.mark.parametrize("scene", [RandomPointsScene(),
                                   PlaneScene(normal=(0.2, -0.1, 1.0), d=2.0),
                                   TwoWallsScene()],
                         ids=["points", "plane", "walls"])
def test_depth_equals_interaction_matrix_formula(scene):
    v = Velocity(nu=(0.3, -0.2, 0.5), omega=(0.1, 0.2, -0.3))
    obs, _ = generate_dataset(scene, ConstantMotion(v), count=2000, seed=32,
                              noise=NoiseSpec(sigma_px=0.5))
    z, valid = solve_depth(obs, v)
    assert valid.all()
    r, bound = depth_oracle(obs, v, z)
    assert np.all(np.abs(r) <= bound)


def test_batch_flow_pure_rotation_raises():
    with pytest.raises(PureRotation):
        solve_optical_flow(Observations(xy=np.zeros((3, 2)), n=np.ones((3, 2)),
                                        t=np.zeros(3)),
                           Velocity(nu=(0, 0, 0), omega=(1, 0, 0)))


def test_batch_depth_pure_rotation_raises():
    # no translation: no pixel's depth is observable, as no full flow is
    with pytest.raises(PureRotation, match="translational velocity is zero"):
        solve_depth(Observations(xy=np.zeros((3, 2)), n=np.ones((3, 2)),
                                 t=np.zeros(3)),
                    Velocity(nu=(0, 0, 0), omega=(1, 0, 0)))


# --------------------------------------------------------------------------
# stacked solvers

def test_angular_velocity_three_observations():
    omega = np.array([0.2, -0.1, 0.5])
    v = Velocity(nu=(0, 0, 0), omega=omega)
    rng = np.random.default_rng(23)
    obs = []
    for _ in range(3):
        x, y = rng.uniform(-0.5, 0.5, 2)
        u = matrix_b(x, y) @ omega
        obs.append(make_obs(x, y, u, rng.uniform(-60, 60)))
    assert np.allclose(solve_angular_velocity(obs), omega, atol=1e-9)
    with pytest.raises(UnderDetermined):
        solve_angular_velocity(obs[:2])


def test_angular_velocity_rank_deficient_geometry():
    # identical constraint rows: rank 1 < 3
    obs = [one_obs(0.0, 0.0, 1.0, 0.0)] * 3
    with pytest.raises(RankDeficient):
        solve_angular_velocity(obs)


def test_angular_velocity_noise_floor_frozen():
    # 500 observations at 0.1 px noise, seed 42, gave relative error
    # 2.113e-4 when this test was written; frozen with ~1.4x margin
    omega = np.array([0.2, -0.1, 0.5])
    obs, _ = generate_dataset(
        RandomPointsScene(),
        ConstantMotion(Velocity(nu=(0, 0, 0), omega=omega)),
        count=500, noise=NoiseSpec(sigma_px=0.1), seed=42)
    est = solve_angular_velocity(obs)
    assert np.linalg.norm(est - omega) / np.linalg.norm(omega) <= 3e-4


def test_six_dof_exact_recovery():
    v = Velocity(nu=(0.3, -0.2, 0.5), omega=(0.1, 0.2, -0.3))
    obs, truth = generate_dataset(RandomPointsScene(), ConstantMotion(v),
                                  count=6, seed=32)
    out = solve_6dof(obs, truth.z)
    assert np.allclose(out.nu, v.nu, atol=1e-9)
    assert np.allclose(out.omega, v.omega, atol=1e-9)
    with pytest.raises(UnderDetermined):
        solve_6dof(obs[:5], truth.z[:5])
    with pytest.raises(DegenerateDepth):
        solve_6dof(obs, np.concatenate([[-1.0], truth.z[1:]]))


def test_nan_depth_raises_degenerate_depth():
    # a NaN depth is as unusable as a negative one; it must not reach RANSAC
    v = Velocity(nu=(0.3, -0.2, 0.5), omega=(0.1, 0.2, -0.3))
    obs, truth = generate_dataset(RandomPointsScene(), ConstantMotion(v),
                                  count=300, seed=37)
    depths = truth.z.copy()
    depths[10] = np.nan
    with pytest.raises(DegenerateDepth):
        solve_6dof(obs, depths)
    with pytest.raises(DegenerateDepth):
        build_rows(obs, ModelKind.SIX_DOF, depths=depths)
    with pytest.raises(DegenerateDepth):
        ransac_estimate(obs, ModelKind.SIX_DOF, depths=depths)


def test_six_dof_fronto_parallel_plane_with_axial_translation():
    # the rank condition still holds on a single fronto-parallel plane
    v = Velocity(nu=(0, 0, 0.4), omega=(0.1, -0.05, 0.2))
    scene = PlaneScene(normal=(0, 0, 1.0), d=2.0)
    obs, truth = generate_dataset(scene, ConstantMotion(v), count=50, seed=33)
    a, _ = build_rows(obs, ModelKind.SIX_DOF, depths=truth.z)
    assert np.linalg.matrix_rank(a) == 6
    out = solve_6dof(obs, truth.z)
    assert np.allclose(np.r_[out.nu, out.omega], np.r_[v.nu, v.omega],
                       atol=1e-9)


def test_diff_homography_recovers_up_to_identity():
    v = Velocity(nu=(0.2, -0.1, 0.3), omega=(0.1, -0.2, 0.15))
    scene = PlaneScene(normal=(0.2, -0.1, 1.0), d=2.0)
    obs, truth = generate_dataset(scene, ConstantMotion(v), count=100, seed=34)
    h_l = solve_diff_homography(obs).h
    a, b = build_rows(obs, ModelKind.DIFF_HOMOGRAPHY)
    assert np.max(np.abs(a @ h_l.reshape(9) - b)) < 1e-10
    diff = h_l - truth.hd.h
    off_diag = diff - np.eye(3) * diff[0, 0]
    assert np.linalg.norm(off_diag) < 1e-8  # differs only by a multiple of I
    with pytest.raises(UnderDetermined):
        solve_diff_homography(obs[:7])


def test_diff_homography_eps_shift_invisible():
    # observations generated from H_d + 5 I predict identical flow, so the
    # recovered minimum-norm H_L is identical too
    v = Velocity(nu=(0.2, -0.1, 0.3), omega=(0.1, -0.2, 0.15))
    scene = PlaneScene(normal=(0.1, 0.2, 1.0), d=1.5)
    obs, truth = generate_dataset(scene, ConstantMotion(v), count=60, seed=35)
    h_shift = DiffHomography(truth.hd.h + 5.0 * np.eye(3))
    rng = np.random.default_rng(36)
    obs_shift = []
    for (x, y), t in zip(obs.xy, obs.t):
        u = matrix_c(x, y) @ h_shift.h.ravel()
        phi = rng.uniform(0, 2 * np.pi)
        g = np.array([np.cos(phi), np.sin(phi)])
        n = (u @ g) * g
        obs_shift.append(one_obs(x, y, n[0], n[1], t))
    h1 = solve_diff_homography(obs_shift).h
    # flows from the shifted matrix equal flows from the original
    for x, y in obs.xy[:10]:
        assert np.allclose(matrix_c(x, y) @ h_shift.h.ravel(),
                           matrix_c(x, y) @ truth.hd.h.ravel(), atol=1e-12)
    diff = h1 - truth.hd.h
    assert np.linalg.norm(diff - np.eye(3) * diff[0, 0]) < 1e-7


# --------------------------------------------------------------------------
# one flow model per kind

GLOBAL_KINDS = [ModelKind.ANGULAR_VELOCITY, ModelKind.SIX_DOF,
                ModelKind.DIFF_HOMOGRAPHY]


def field_observations(seed, k=500):
    """Random normal flows at points spanning |x|, |y| <= FOV_LIMIT, and a
    positive depth for each."""
    rng = np.random.default_rng(seed)
    obs = Observations(xy=rng.uniform(-FOV_LIMIT, FOV_LIMIT, (k, 2)),
                       n=rng.normal(size=(k, 2)), t=np.zeros(k))
    return obs, rng.uniform(0.5, 10.0, k)


def matrix_rows(obs, kind, depths):
    """Constraint rows from geometry's interaction matrices."""
    x, y = obs.xy[:, 0], obs.xy[:, 1]
    matrix = {ModelKind.ANGULAR_VELOCITY: lambda: matrix_b(x, y),
              ModelKind.SIX_DOF: lambda: matrix_d(x, y, depths),
              ModelKind.DIFF_HOMOGRAPHY: lambda: matrix_c(x, y)}[kind]()
    return np.einsum("ki,kij->kj", obs.n, matrix), obs.mag2


@pytest.mark.parametrize("kind", GLOBAL_KINDS)
def test_build_rows_equal_interaction_matrix_rows(kind):
    obs, depths = field_observations(50)
    a, b = build_rows(obs, kind, depths=depths)
    a_ref, b_ref = matrix_rows(obs, kind, depths)
    assert a.shape == (len(obs), kind.param_dim)
    assert np.array_equal(a, a_ref)
    assert np.array_equal(b, b_ref)


@pytest.mark.parametrize("kind", GLOBAL_KINDS)
def test_rows_give_the_flow_model_residual(kind):
    # a @ theta - b is the n . u - |n|^2 that RANSAC scores, so solving and
    # scoring use one model
    obs, depths = field_observations(51)
    a, b = build_rows(obs, kind, depths=depths)
    flow = _flow_model(obs.xy, kind, depths)
    for theta in np.random.default_rng(52).normal(size=(5, kind.param_dim)):
        ux, uy = flow(theta)
        r = obs.n[:, 0] * ux + obs.n[:, 1] * uy - obs.mag2
        scale = np.abs(a) @ np.abs(theta) + np.abs(b)
        assert np.all(np.abs(a @ theta - b - r) <= 1e-12 * scale)


@pytest.mark.parametrize("kind, solver", [
    (ModelKind.OPTICAL_FLOW, "solve_optical_flow"),
    (ModelKind.DEPTH, "solve_depth")])
def test_per_pixel_kinds_have_no_global_model(kind, solver):
    # flow and depth under a known motion share no parameters across
    # pixels: the global-model path refuses them and names their closed form
    obs, _ = field_observations(53, k=20)
    for call in (lambda: _flow_model(obs.xy, kind),
                 lambda: build_rows(obs, kind),
                 lambda: ransac_estimate(obs, kind)):
        with pytest.raises(ValueError, match=solver):
            call()


# --------------------------------------------------------------------------
# RANSAC

def test_ransac_planted_outliers():
    v = Velocity(nu=(0, 0, 0), omega=(0.2, -0.1, 0.5))
    noise = NoiseSpec(sigma_px=0.0, outlier_fraction=0.3)
    obs, truth = generate_dataset(RandomPointsScene(), ConstantMotion(v),
                                  count=500, noise=noise, seed=7)
    report = ransac_estimate(obs, ModelKind.ANGULAR_VELOCITY,
                             RansacConfig(seed=7))
    assert np.linalg.norm(report.theta - v.omega) / np.linalg.norm(v.omega) < 1e-8
    true_inliers = set(np.nonzero(truth.inlier_mask)[0])
    recovered = set(report.inliers.tolist())
    assert len(recovered & true_inliers) >= 0.95 * len(true_inliers)


def line_distance(obs, u):
    """|n . u - |n|^2| / |u|: distance from each normal flow to the
    constraint line of the predicted flow u, computed from the geometry
    module rather than the solver's closed forms."""
    return (np.abs(np.sum(obs.n * u, axis=1) - obs.mag2)
            / np.linalg.norm(u, axis=1))


def test_ransac_residual_law():
    v = Velocity(nu=(0, 0, 0), omega=(0.2, -0.1, 0.5))
    noise = NoiseSpec(sigma_px=0.5, outlier_fraction=0.2)
    obs, truth = generate_dataset(RandomPointsScene(), ConstantMotion(v),
                                  count=400, noise=noise, seed=8)
    cfg = RansacConfig(seed=8)
    report = ransac_estimate(obs, ModelKind.ANGULAR_VELOCITY, cfg)
    u = matrix_b(obs.xy[:, 0], obs.xy[:, 1]) @ report.theta
    e = line_distance(obs, u)
    # the scale from the data, between its floor and the bound
    floor = 3e-4 * np.sqrt(np.mean(obs.mag2))
    assert floor <= report.threshold <= cfg.threshold
    # every reported inlier, and only those, lies within the effective cap
    inside = np.zeros(len(obs), dtype=bool)
    inside[report.inliers] = True
    assert np.all(e[inside] <= report.threshold)
    assert np.all(e[~inside] > report.threshold)
    assert report.rms == pytest.approx(np.sqrt(np.mean(e[inside] ** 2)),
                                       rel=1e-9)
    assert report.inlier_ratio == len(report.inliers) / len(obs)
    assert not report.hit_cap
    # the scale step sets the cap near 3 sigma of the 0.5 px noise
    sigma = 0.5 / truth.intrinsics.fx
    assert 2 * sigma < report.threshold < 4 * sigma
    assert np.sum(inside & truth.inlier_mask) >= 0.99 * truth.inlier_mask.sum()


@pytest.mark.parametrize("sigma_px", [0.0, 0.5, 1.0, 2.0, 3.0])
def test_ransac_threshold_follows_the_noise(sigma_px):
    # the default bound is a loose cap: the threshold is about 3 sigma of
    # the noise at sensor-level noise, and noise-free data keep every
    # observation as an inlier
    v = Velocity(nu=(0, 0, 0), omega=(0.2, -0.1, 0.5))
    noise = NoiseSpec(sigma_px=sigma_px,
                      outlier_fraction=0.3 if sigma_px else 0.0)
    obs, truth = generate_dataset(RandomPointsScene(), ConstantMotion(v),
                                  count=2000, noise=noise, seed=44)
    cfg = RansacConfig(seed=44)
    report = ransac_estimate(obs, ModelKind.ANGULAR_VELOCITY, cfg)
    assert not report.hit_cap and report.threshold < cfg.threshold
    if sigma_px:
        sigma = sigma_px / truth.intrinsics.fx
        assert 2 * sigma < report.threshold < 4 * sigma
    else:
        assert len(report.inliers) == len(obs)
        floor = 3e-4 * np.sqrt(np.mean(obs.mag2))
        assert report.threshold == pytest.approx(floor, rel=1e-12)


@pytest.mark.parametrize("kind", [ModelKind.SIX_DOF,
                                  ModelKind.DIFF_HOMOGRAPHY,
                                  ModelKind.ANGULAR_VELOCITY])
def test_ransac_inliers_within_threshold_of_predicted_flow(kind):
    # the solver's closed-form flows agree with geometry's interaction
    # matrices: its inliers lie within report.threshold of the lines there
    v = Velocity(nu=(0.2, -0.1, 0.3), omega=(0.1, -0.2, 0.15))
    if kind is ModelKind.ANGULAR_VELOCITY:
        v = Velocity(nu=(0, 0, 0), omega=v.omega)
    scene = (PlaneScene(normal=(0, 0, 1.0), d=2.0)
             if kind is ModelKind.DIFF_HOMOGRAPHY else RandomPointsScene())
    noise = NoiseSpec(sigma_px=0.5, outlier_fraction=0.3)
    obs, truth = generate_dataset(scene, ConstantMotion(v), count=600,
                                  noise=noise, seed=41)
    x, y = obs.xy[:, 0], obs.xy[:, 1]
    if kind is ModelKind.SIX_DOF:
        report = ransac_estimate(obs, kind, RansacConfig(seed=2),
                                 depths=truth.z)
        u = matrix_d(x, y, truth.z) @ report.theta
    elif kind is ModelKind.DIFF_HOMOGRAPHY:
        report = ransac_estimate(obs, kind, RansacConfig(seed=2))
        u = matrix_c(x, y) @ report.theta
    else:
        report = ransac_estimate(obs, kind, RansacConfig(seed=2))
        u = matrix_b(x, y) @ report.theta
    e = line_distance(obs, u)
    assert np.all(e[report.inliers] <= report.threshold)
    recall = np.isin(np.flatnonzero(truth.inlier_mask), report.inliers).mean()
    assert recall >= 0.98


def test_ransac_zero_predicted_flow_is_an_outlier():
    # a rotation about the optical axis predicts exactly zero flow at the
    # image centre, which scores as e = inf, an outlier, and raises no
    # division warning; the fit's hypotheses, near that rotation, predict
    # almost no flow there and leave the centre out too
    kind = ModelKind.ANGULAR_VELOCITY
    v = Velocity(nu=(0, 0, 0), omega=(0, 0, 1.0))
    obs, _ = generate_dataset(RandomPointsScene(), ConstantMotion(v),
                              count=200, seed=42)
    centre = Observations(xy=[(0.0, 0.0)], n=[(0.01, 0.0)], t=[0.0])
    obs = as_observations([centre, obs])
    a, _ = build_rows(obs, kind)
    rows = _GroupRows(obs, kind, None, a, np.array([0, 201]), np.array([0]))
    with np.errstate(all="raise"):
        r, s2 = rows.residual(v.omega[None, :])
        e2 = solvers._squared_distance(r, s2)
        report = ransac_estimate(obs, kind, RansacConfig(seed=1))
    assert s2[0] == 0 and e2[0] == np.inf
    assert np.all(e2[1:] < 1e-20)
    assert 0 not in report.inliers
    assert len(report.inliers) == 200
    assert np.isfinite(report.rms)
    assert np.allclose(report.theta, v.omega, atol=1e-12)


def test_ransac_reports_hitting_the_cap():
    v = Velocity(nu=(0, 0, 0), omega=(0.2, -0.1, 0.5))
    noise = NoiseSpec(sigma_px=0.5, outlier_fraction=0.6)
    obs, _ = generate_dataset(RandomPointsScene(), ConstantMotion(v),
                              count=300, noise=noise, seed=43)
    capped = ransac_estimate(obs, ModelKind.ANGULAR_VELOCITY,
                             RansacConfig(seed=4, max_iterations=3))
    assert capped.hit_cap and capped.iterations == 3
    free = ransac_estimate(obs, ModelKind.ANGULAR_VELOCITY, RansacConfig(seed=4))
    assert not free.hit_cap and 3 < free.iterations < 1000


def test_ransac_all_inliers_equals_full_solve():
    v = Velocity(nu=(0, 0, 0), omega=(0.2, -0.1, 0.5))
    obs, _ = generate_dataset(RandomPointsScene(), ConstantMotion(v),
                              count=100, seed=9)
    report = ransac_estimate(obs, ModelKind.ANGULAR_VELOCITY)
    full = solve_angular_velocity(obs)
    assert len(report.inliers) == 100
    assert np.allclose(report.theta, full, atol=1e-12)


def test_ransac_too_few_observations():
    obs = [one_obs(0.1, 0.1, 0.5, 0.2)] * 2
    with pytest.raises(UnderDetermined):
        ransac_estimate(obs, ModelKind.ANGULAR_VELOCITY)


def test_ransac_no_consensus_on_scattered_data():
    rng = np.random.default_rng(40)
    obs = [one_obs(x, y, nx, ny)
           for x, y, nx, ny in rng.uniform(-0.5, 0.5, (30, 4))]
    with pytest.raises(NoConsensus):
        ransac_estimate(obs, ModelKind.ANGULAR_VELOCITY,
                        RansacConfig(threshold=1e-12, max_iterations=50))


def nine_noisy_rotation_flows(seed):
    """Nine flows of a pure rotation, at 2 px noise and half outliers."""
    v = Velocity(nu=(0, 0, 0), omega=(0.1, -0.2, 0.15))
    obs, _ = generate_dataset(RandomPointsScene(), ConstantMotion(v), count=9,
                              noise=NoiseSpec(2.0, 0.5), seed=seed)
    return obs


def test_ransac_consensus_lost_in_refitting():
    # the refit's threshold, taken from the noise of the consensus, keeps
    # fewer inliers than two minimal samples
    with pytest.raises(NoConsensus, match="4 inliers < 6 after refitting"):
        ransac_estimate(nine_noisy_rotation_flows(1),
                        ModelKind.ANGULAR_VELOCITY, RansacConfig(seed=1))


def test_ransac_refit_on_a_rank_deficient_consensus():
    # the refit's inliers span only two directions of omega
    with pytest.raises(RankDeficient, match="numerical rank 2 < required 3"):
        ransac_estimate(nine_noisy_rotation_flows(837),
                        ModelKind.ANGULAR_VELOCITY, RansacConfig(seed=837))


def test_ransac_deterministic_repeat():
    v = Velocity(nu=(0, 0, 0), omega=(0.2, -0.1, 0.5))
    noise = NoiseSpec(sigma_px=0.3, outlier_fraction=0.25)
    obs, _ = generate_dataset(RandomPointsScene(), ConstantMotion(v),
                              count=300, noise=noise, seed=10)
    r1 = ransac_estimate(obs, ModelKind.ANGULAR_VELOCITY, RansacConfig(seed=3))
    r2 = ransac_estimate(obs, ModelKind.ANGULAR_VELOCITY, RansacConfig(seed=3))
    assert np.array_equal(r1.theta, r2.theta)
    assert np.array_equal(r1.inliers, r2.inliers)
    assert r1.iterations == r2.iterations


def test_ransac_adaptive_early_stop():
    v = Velocity(nu=(0, 0, 0), omega=(0.2, -0.1, 0.5))
    obs, _ = generate_dataset(RandomPointsScene(), ConstantMotion(v),
                              count=200, seed=12)
    report = ransac_estimate(obs, ModelKind.ANGULAR_VELOCITY,
                             RansacConfig(max_iterations=1000))
    assert report.iterations <= 5  # clean data saturates consensus immediately


def test_ransac_six_dof_with_outliers():
    v = Velocity(nu=(0.3, -0.2, 0.5), omega=(0.1, 0.2, -0.3))
    noise = NoiseSpec(sigma_px=0.0, outlier_fraction=0.3)
    obs, truth = generate_dataset(RandomPointsScene(), ConstantMotion(v),
                                  count=500, noise=noise, seed=13)
    report = ransac_estimate(obs, ModelKind.SIX_DOF, RansacConfig(seed=13),
                             depths=truth.z)
    gt = np.r_[v.nu, v.omega]
    assert np.linalg.norm(report.theta - gt) / np.linalg.norm(gt) < 1e-8


def test_minimal_sample_sizes():
    assert ModelKind.OPTICAL_FLOW.minimal_samples == 1
    assert ModelKind.DEPTH.minimal_samples == 1
    assert ModelKind.ANGULAR_VELOCITY.minimal_samples == 3
    assert ModelKind.SIX_DOF.minimal_samples == 6
    assert ModelKind.DIFF_HOMOGRAPHY.minimal_samples == 8


@pytest.mark.parametrize("field, value", [
    ("threshold", True), ("threshold", "0.01"), ("threshold", None),
    ("confidence", "0.9"), ("confidence", None)])
def test_ransac_config_rejects_non_real(field, value):
    with pytest.raises(ValueError, match=field):
        RansacConfig(**{field: value})


def test_ransac_config_validation():
    with pytest.raises(ValueError):
        RansacConfig(threshold=0.0)
    with pytest.raises(ValueError):
        RansacConfig(threshold=float("nan"))
    with pytest.raises(ValueError):
        RansacConfig(threshold=float("inf"))
    with pytest.raises(ValueError):
        RansacConfig(confidence=1.0)
    with pytest.raises(ValueError):
        RansacConfig(max_iterations=0)
    # the counts are non-bool integers, Python or NumPy
    for field, value in [("seed", 1.5), ("seed", True), ("seed", -1),
                         ("seed", "3"), ("seed", np.float64(2.0)),
                         ("seed", np.bool_(True)), ("max_iterations", 2.5),
                         ("max_iterations", True), ("max_iterations", None),
                         ("max_iterations", np.int64(0))]:
        with pytest.raises(ValueError, match=field):
            RansacConfig(**{field: value})
    v = Velocity(nu=(0, 0, 0), omega=(0.2, -0.1, 0.5))
    obs, _ = generate_dataset(RandomPointsScene(), ConstantMotion(v),
                              count=100, seed=9)
    numpy_ints = RansacConfig(seed=np.uint64(5), max_iterations=np.int32(7))
    python_ints = RansacConfig(seed=5, max_iterations=7)
    assert np.array_equal(
        ransac_estimate(obs, ModelKind.ANGULAR_VELOCITY, numpy_ints).theta,
        ransac_estimate(obs, ModelKind.ANGULAR_VELOCITY, python_ints).theta)


# --------------------------------------------------------------------------
# RANSAC over groups of observations

def ransac_loop(obs, kind, cfg, depths=None):
    """The MSAC loop one hypothesis at a time, with its refits by lstsq
    until at most one observation, or 1 in 1000, changes side (at most 10
    refits):
    the reference for the lockstep rounds of ransac_estimate.  Returns
    (theta, inliers, iterations, hit_cap, threshold, rms)."""
    k, c = len(obs), kind.minimal_samples
    a, b = build_rows(obs, kind, depths=depths)
    flow = _flow_model(obs.xy, kind, depths)

    def residual(theta):
        ux, uy = flow(theta)
        r = obs.n[:, 0] * ux + obs.n[:, 1] * uy - obs.mag2
        s2 = ux * ux + uy * uy
        e2 = np.full(k, np.inf)
        np.divide(r * r, s2, out=e2, where=s2 > 0)
        return e2, s2

    t2 = cfg.threshold ** 2
    best_cost, best_theta, needed, i = np.inf, None, np.inf, 0
    while i < min(cfg.max_iterations, needed):
        sample = np.random.default_rng([cfg.seed, i]).choice(k, c, replace=False)
        i += 1
        theta, _, rank, _ = np.linalg.lstsq(a[sample], b[sample], rcond=None)
        if rank < c:
            continue
        e2, _ = residual(theta)
        cost = np.minimum(e2, t2).sum()
        if cost < best_cost:
            best_cost, best_theta = cost, theta
            w = (np.count_nonzero(e2 <= t2) / k) ** c
            needed = 1 if w >= 1 else math.ceil(
                math.log(1 - cfg.confidence) / math.log1p(-w))
    e2, s2 = residual(best_theta)
    e = np.sqrt(e2)
    # the scale from the data, bounded above by cfg.threshold and below by
    # 3e-4 times the RMS normal flow
    floor = 3e-4 * np.sqrt(np.mean(obs.mag2))
    inliers = np.flatnonzero(e <= cfg.threshold)
    for refit in range(11):
        threshold = min(cfg.threshold, max(3 * 1.4826 * np.median(e[inliers]),
                                           floor))
        last, inliers = inliers, np.flatnonzero(e <= threshold)
        changed = len(np.setxor1d(inliers, last))
        if refit == 10 or refit and changed <= max(k / 1000, 1):
            break
        w = 1 / np.sqrt(s2[inliers])
        theta, *_ = np.linalg.lstsq(a[inliers] * w[:, None], b[inliers] * w,
                                    rcond=None)
        e2, s2 = residual(theta)
        e = np.sqrt(e2)
    return (theta, inliers, i, needed > cfg.max_iterations, threshold,
            np.sqrt(np.mean(e[inliers] ** 2)))


def ransac_case(kind):
    v = Velocity(nu=(0.3, -0.2, 0.5), omega=(0.1, 0.2, -0.3))
    scene = (PlaneScene(normal=(0.2, -0.1, 1.0), d=2.0)
             if kind is ModelKind.DIFF_HOMOGRAPHY else RandomPointsScene())
    if kind is ModelKind.ANGULAR_VELOCITY:
        v = Velocity(nu=(0, 0, 0), omega=v.omega)
    obs, truth = generate_dataset(scene, ConstantMotion(v), count=600, seed=17,
                                  noise=NoiseSpec(sigma_px=0.5,
                                                  outlier_fraction=0.3))
    return obs, (truth.z if kind is ModelKind.SIX_DOF else None)


@pytest.mark.parametrize("kind", [ModelKind.ANGULAR_VELOCITY, ModelKind.SIX_DOF,
                                  ModelKind.DIFF_HOMOGRAPHY])
def test_ransac_matches_one_hypothesis_loop(kind):
    # same draws, so the same hypothesis count, cap and inliers; the sums
    # and solves differ from the loop's only in the order of their terms
    obs, depths = ransac_case(kind)
    cfg = RansacConfig(seed=6)
    report = ransac_estimate(obs, kind, cfg, depths=depths)
    theta, inliers, iterations, hit_cap, threshold, rms = ransac_loop(
        obs, kind, cfg, depths)
    assert (report.iterations, report.hit_cap) == (iterations, hit_cap)
    # too few observations for the probe: every hypothesis scores every row
    assert len(obs) < solvers._PROBE_MIN
    assert report.rows_scored == iterations * len(obs)
    assert np.array_equal(report.inliers, inliers)
    assert np.linalg.norm(report.theta - theta) <= 1e-10 * np.linalg.norm(theta)
    assert report.threshold == pytest.approx(threshold, rel=1e-10)
    assert report.rms == pytest.approx(rms, rel=1e-10)


def test_group_draws_are_those_of_lone_calls():
    sizes = np.array([7, 300, 7, 12])
    draws = _draws([11, 4], sizes, 3)
    for k, row in zip(sizes.tolist(), draws):
        lone = np.random.default_rng([11, 4]).choice(k, 3, replace=False)
        assert np.array_equal(row, lone)


def test_group_medians_equal_np_median():
    rng = np.random.default_rng(18)
    obs = Observations(xy=rng.uniform(-0.5, 0.5, (40, 2)),
                       n=rng.uniform(-1, 1, (40, 2)), t=np.zeros(40))
    kind = ModelKind.ANGULAR_VELOCITY
    a, _ = build_rows(obs, kind)
    bounds = np.array([0, 9, 10, 24, 40])
    rows = _GroupRows(obs, kind, None, a, bounds, np.array([0, 2, 3]))
    values = rng.exponential(size=len(rows.gid))
    mask = rng.random(len(rows.gid)) < 0.6
    mask[rows.starts] = True
    medians = rows.medians(values, mask)
    for j in range(3):
        part = slice(rows.starts[j], rows.starts[j] + rows.sizes[j])
        assert medians[j] == np.median(values[part][mask[part]])


def assert_same_report(ours, theirs, skip=()):
    for field in dataclasses.fields(theirs):
        if field.name in skip:
            continue
        mine, lone = getattr(ours, field.name), getattr(theirs, field.name)
        assert type(mine) is type(lone)
        assert np.array_equal(mine, lone), field.name


def failing_groups():
    """Groups that fail between good ones, with their kind and config."""
    kind = ModelKind.ANGULAR_VELOCITY
    v = Velocity(nu=(0, 0, 0), omega=(0.2, -0.1, 0.5))
    noise = NoiseSpec(sigma_px=0.5, outlier_fraction=0.2)
    good = [generate_dataset(RandomPointsScene(), ConstantMotion(v), count=count,
                             noise=noise, seed=seed)[0]
            for count, seed in ((150, 19), (90, 20))]
    rng = np.random.default_rng(21)
    # normal flows far larger than any flow the others predict
    outliers = Observations(xy=rng.uniform(-0.5, 0.5, (60, 2)),
                            n=rng.uniform(-50, 50, (60, 2)), t=np.zeros(60))
    one_pixel = Observations(xy=np.tile((0.1, -0.2), (40, 1)),
                             n=rng.uniform(-0.5, 0.5, (40, 2)), t=np.zeros(40))
    groups = [good[0], outliers, one_pixel, good[0][:2], good[1], good[0][:5]]
    return groups, kind, RansacConfig(seed=5, max_iterations=300)


def grouped(groups, kind, cfg):
    """_ransac_groups on the groups, concatenated."""
    bounds = np.cumsum([0] + [len(g) for g in groups])
    return _ransac_groups(as_observations(groups), kind, bounds, cfg)


def test_ransac_groups_isolate_failing_groups():
    # each group yields what a lone ransac_estimate call gives on it, bit
    # for bit
    groups, kind, cfg = failing_groups()
    results = grouped(groups, kind, cfg)
    assert [type(r) for r in results] == [
        FitReport, NoConsensus, NoConsensus, UnderDetermined, FitReport,
        NoConsensus]
    for group, result in zip(groups, results):
        if not isinstance(result, FitReport):
            with pytest.raises(type(result)) as lone:
                ransac_estimate(group, kind, cfg)
            assert str(lone.value) == str(result)
            continue
        assert_same_report(result, ransac_estimate(group, kind, cfg))


# --------------------------------------------------------------------------
# the probe: a bail-out test before a hypothesis is scored on all rows

def robust_case(kind, sigma_px, count=20000, seed=1):
    """The robust-solve benchmark's data: K observations, 30% outliers."""
    v = Velocity(nu=(0.2, -0.1, 0.3), omega=(0.1, -0.2, 0.15))
    scene = (PlaneScene(normal=(0.2, -0.1, 1.0), d=2.0)
             if kind is ModelKind.DIFF_HOMOGRAPHY
             else RandomPointsScene(depth_range=(1.0, 5.0)))
    obs, truth = generate_dataset(
        scene, ConstantMotion(v), count=count, seed=seed,
        noise=NoiseSpec(sigma_px=sigma_px, outlier_fraction=0.3))
    return obs, (truth.z if kind is ModelKind.SIX_DOF else None)


@pytest.mark.parametrize("sigma_px", [0.5, 3.0])
@pytest.mark.parametrize("kind", [ModelKind.SIX_DOF, ModelKind.DIFF_HOMOGRAPHY])
def test_probe_changes_no_result(monkeypatch, kind, sigma_px):
    # a hypothesis the probe lets through is scored on all rows, so probe
    # on and probe off give the same fit bit for bit, on far fewer rows
    obs, depths = robust_case(kind, sigma_px)
    probed = ransac_estimate(obs, kind, depths=depths)
    monkeypatch.setattr(solvers, "_PROBE_MIN", len(obs) + 1)
    full = ransac_estimate(obs, kind, depths=depths)
    assert_same_report(probed, full, skip={"rows_scored"})
    assert full.rows_scored == full.iterations * len(obs)
    # every hypothesis after the first is probed, and some of them are
    # scored on all rows
    scores, rest = divmod(probed.rows_scored - (probed.iterations - 1)
                          * solvers._PROBE_ROWS, len(obs))
    assert rest == 0 and 1 <= scores < probed.iterations


def test_probed_fit_takes_depths_as_a_sequence():
    kind = ModelKind.SIX_DOF
    obs, depths = robust_case(kind, 0.5, count=solvers._PROBE_MIN)
    assert_same_report(ransac_estimate(obs, kind, depths=depths.tolist()),
                       ransac_estimate(obs, kind, depths=depths))


def probed_beside_small():
    """A probed group between two small ones, with their kind and config."""
    kind = ModelKind.DIFF_HOMOGRAPHY
    big, _ = robust_case(kind, 0.5, count=solvers._PROBE_MIN + 1000, seed=2)
    small = [robust_case(kind, 0.5, count=count, seed=seed)[0]
             for count, seed in ((300, 3), (500, 4))]
    return [small[0], big, small[1]], kind, RansacConfig(seed=8)


def test_probed_group_beside_small_ones_equals_lone_calls():
    groups, kind, cfg = probed_beside_small()
    results = grouped(groups, kind, cfg)
    for group, result in zip(groups, results):
        assert_same_report(result, ransac_estimate(group, kind, cfg))
    # the probe rejected hypotheses in the big group alone
    big = groups[1]
    assert results[1].rows_scored < results[1].iterations * len(big)
    for group, result in zip(groups[::2], results[::2]):
        assert result.rows_scored == result.iterations * len(group)


# --------------------------------------------------------------------------
# MSAC rounds in batches: drawn, solved and probed together, then replayed
# in order

def lone_call(kind, count):
    """ransac_estimate on ransac_case's data (count 600, never probed) or
    on robust_case's (probed)."""
    def run():
        obs, depths = (ransac_case(kind) if count == 600
                       else robust_case(kind, 0.5, count=count))
        cfg = RansacConfig(seed=6)
        return [ransac_estimate(obs, kind, cfg, depths=depths)]
    return run


def spline_init():
    """init_from_linear on spline-step-like data: omega steps from 0.5 to 2
    rad/s about z, K = 10 000, 10% outliers, one knot per 0.02 s."""
    motion = StepMotion(before=Velocity(nu=(0, 0, 0), omega=(0, 0, 0.5)),
                        after=Velocity(nu=(0, 0, 0), omega=(0, 0, 2.0)),
                        t_switch=0.5)
    noise = NoiseSpec(sigma_px=0.5, outlier_fraction=0.1)
    obs, _ = generate_dataset(RandomPointsScene(), motion, count=10000,
                              window=1.0, noise=noise, seed=1)
    init, report = init_from_linear(obs, ModelKind.ANGULAR_VELOCITY, dt=0.02)
    return [init.control_points, report]


BATCH_CASES = {
    **{f"{kind.value}-{count}": lone_call(kind, count)
       for kind in (ModelKind.ANGULAR_VELOCITY, ModelKind.SIX_DOF,
                    ModelKind.DIFF_HOMOGRAPHY) for count in (600, 20000)},
    "failing-groups": lambda: grouped(*failing_groups()),
    "probed-beside-small": lambda: grouped(*probed_beside_small()),
    "spline-init": spline_init,
}


@pytest.mark.parametrize("batch", [1, 3, 8])
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_rounds_change_no_result(monkeypatch, case, batch):
    # _BATCH = 1 draws, solves and probes one round at a time
    monkeypatch.setattr(solvers, "_BATCH", 1)
    rounds = BATCH_CASES[case]()
    monkeypatch.setattr(solvers, "_BATCH", batch)
    batched = BATCH_CASES[case]()
    assert len(batched) == len(rounds)
    for ours, theirs in zip(batched, rounds):
        if isinstance(theirs, Exception):
            assert (type(ours), str(ours)) == (type(theirs), str(theirs))
        elif isinstance(theirs, np.ndarray):
            assert np.array_equal(ours, theirs)
        else:
            assert_same_report(ours, theirs)


def test_stop_inside_a_batch_counts_no_discarded_hypothesis(monkeypatch):
    # at seed 6 a new best lowers the adaptive count inside a batch of 8:
    # the hypotheses drawn past the stop count neither as iterations nor as
    # scored rows
    kind = ModelKind.ANGULAR_VELOCITY
    obs, _ = ransac_case(kind)
    cfg = RansacConfig(seed=6)
    monkeypatch.setattr(solvers, "_BATCH", 1)
    rounds = ransac_estimate(obs, kind, cfg)
    solved = []
    solve = solvers._solve_minimal
    monkeypatch.setattr(solvers, "_solve_minimal",
                        lambda a, b: solved.append(len(a)) or solve(a, b))
    monkeypatch.setattr(solvers, "_BATCH", 8)
    batched = ransac_estimate(obs, kind, cfg)
    assert_same_report(batched, rounds)
    assert sum(solved) > batched.iterations
    assert batched.rows_scored == batched.iterations * len(obs)
