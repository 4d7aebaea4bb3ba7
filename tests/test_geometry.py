"""Motion-field building blocks: the A/B/C/D matrices, residuals, and the
pixel <-> calibrated conversions."""
import numpy as np
import pytest

from evnormalflow import (CalibratedPoint, DegenerateDepth, DiffHomography,
                          Intrinsics, NormalFlowObs, Observations, OutOfBounds,
                          Velocity, as_observations, calibrated_to_pixel,
                          epipolar_terms, homography_flow, matrix_a, matrix_b,
                          matrix_c, matrix_d, motion_field, nf_residual,
                          pixel_to_calibrated, skew, vee)

INTR = Intrinsics(fx=200.0, fy=200.0, cx=120.0, cy=90.0, width=240, height=180)


def test_matrix_a_values():
    assert np.array_equal(matrix_a(0.0, 0.0), [[-1, 0, 0], [0, -1, 0]])
    assert np.array_equal(matrix_a(1.0, 2.0), [[-1, 0, 1], [0, -1, 2]])


def test_matrix_a_zero_velocity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.uniform(-1, 1, 2)
        assert np.array_equal(matrix_a(x, y) @ np.zeros(3), np.zeros(2))


def test_matrix_b_values():
    assert np.array_equal(matrix_b(0.0, 0.0), [[0, -1, 0], [1, 0, 0]])
    assert np.array_equal(matrix_b(1.0, 0.0), [[0, -2, 0], [1, 0, -1]])
    # z-rotation produces no flow at the principal point
    assert np.array_equal(matrix_b(0.0, 0.0) @ [0, 0, 1], [0, 0])


def test_matrix_ab_broadcast():
    xs = np.linspace(-0.5, 0.5, 7)
    ys = np.linspace(-0.3, 0.3, 7)
    a = matrix_a(xs, ys)
    b = matrix_b(xs, ys)
    assert a.shape == (7, 2, 3) and b.shape == (7, 2, 3)
    for i in range(7):
        assert np.array_equal(a[i], matrix_a(xs[i], ys[i]))
        assert np.array_equal(b[i], matrix_b(xs[i], ys[i]))


def test_matrix_c_picks_last_column_at_origin():
    h = np.arange(1.0, 10.0).reshape(3, 3)
    u = matrix_c(0.0, 0.0) @ h.reshape(9)
    assert np.allclose(u, [h[0, 2], h[1, 2]])


def test_matrix_c_matches_direct_flow():
    # C(x) vec(H) must equal the first two components of (I - xhat e3^T) H xhat
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, y = rng.uniform(-1, 1, 2)
        h = rng.standard_normal((3, 3))
        xhat = np.array([x, y, 1.0])
        w = h @ xhat
        direct = w[:2] - xhat[:2] * w[2]
        assert np.allclose(matrix_c(x, y) @ h.reshape(9), direct, atol=1e-12)
        assert np.allclose(homography_flow(DiffHomography(h), x, y), direct,
                           atol=1e-12)


def test_matrix_c_identity_null_space():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x, y = rng.uniform(-2, 2, 2)
        eps = rng.uniform(-10, 10)
        assert np.allclose(matrix_c(x, y) @ (eps * np.eye(3)).reshape(9),
                           np.zeros(2), atol=1e-12)


def test_matrix_d_values():
    d = matrix_d(0.0, 0.0, 1.0)
    assert np.array_equal(d, [[-1, 0, 0, 0, -1, 0], [0, -1, 0, 1, 0, 0]])
    d2 = matrix_d(0.0, 0.0, 2.0)
    assert np.array_equal(d2[:, :3], d[:, :3] / 2)
    assert np.array_equal(d2[:, 3:], d[:, 3:])


def test_matrix_d_nonpositive_depth():
    with pytest.raises(DegenerateDepth):
        matrix_d(0.0, 0.0, 0.0)
    with pytest.raises(DegenerateDepth):
        matrix_d(0.1, 0.2, -1.0)


def test_nan_depth_is_degenerate():
    v = Velocity(nu=(1, 0, 0), omega=(0, 0, 0))
    with pytest.raises(DegenerateDepth):
        matrix_d([0.0, 0.1], [0.0, 0.2], [2.0, np.nan])
    with pytest.raises(DegenerateDepth):
        motion_field([0.0, 0.1], [0.0, 0.2], [np.nan, 2.0], v)


def test_epipolar_terms_hand_case():
    v = Velocity(nu=(0, 0, 1), omega=(0, 0, 1))
    nu_cross, s = epipolar_terms(v)
    assert np.array_equal(nu_cross, skew([0, 0, 1]))
    assert np.allclose(s, np.diag([-1.0, -1.0, 0.0]))


def test_epipolar_terms_zero_translation():
    nu_cross, s = epipolar_terms(Velocity(nu=(0, 0, 0), omega=(0.3, -0.2, 0.1)))
    assert np.array_equal(nu_cross, np.zeros((3, 3)))
    assert np.array_equal(s, np.zeros((3, 3)))


def test_epipolar_terms_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = Velocity(nu=rng.standard_normal(3), omega=rng.standard_normal(3))
        _, s = epipolar_terms(v)
        assert np.array_equal(s, s.T)


def test_nf_residual():
    obs = NormalFlowObs.make(0.0, 0.0, 1.732, 0.0, 0.0)
    assert abs(nf_residual(obs, np.array([1.732, -1.0]))) < 1e-12
    obs2 = NormalFlowObs.make(0.0, 0.0, 0.4, -0.3, 0.0)
    assert abs(nf_residual(obs2, obs2.n)) < 1e-15
    obs3 = NormalFlowObs.make(0.0, 0.0, 1.0, 0.0, 0.0)
    assert nf_residual(obs3, np.array([0.0, 1.0])) == -1.0


def test_skew_vee_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(10):
        w = rng.standard_normal(3)
        m = skew(w)
        assert np.array_equal(m, -m.T)
        assert np.array_equal(vee(m), w)
        # cross-product identity
        u = rng.standard_normal(3)
        assert np.allclose(m @ u, np.cross(w, u))


def test_motion_field_satisfies_epipolar_constraint():
    rng = np.random.default_rng(5)
    for _ in range(100):
        x, y = rng.uniform(-1, 1, 2)
        z = rng.uniform(0.5, 5.0)
        v = Velocity(nu=rng.standard_normal(3), omega=rng.standard_normal(3))
        u = motion_field(x, y, z, v)
        nu_cross, s = epipolar_terms(v)
        xhat = np.array([x, y, 1.0])
        uhat = np.array([u[0], u[1], 0.0])
        assert abs(uhat @ nu_cross @ xhat - xhat @ s @ xhat) < 1e-10


def test_planar_flow_matches_homography():
    rng = np.random.default_rng(6)
    for _ in range(100):
        v = Velocity(nu=rng.standard_normal(3), omega=rng.standard_normal(3))
        normal = rng.standard_normal(3)
        normal[2] = abs(normal[2]) + 1.0
        normal /= np.linalg.norm(normal)
        d = rng.uniform(0.5, 3.0)
        hd = DiffHomography(-(skew(v.omega) + np.outer(v.nu / d, normal)))
        x, y = rng.uniform(-0.5, 0.5, 2)
        z = d / (normal @ [x, y, 1.0])
        assert z > 0
        assert np.allclose(motion_field(x, y, z, v), homography_flow(hd, x, y),
                           atol=1e-10)


def test_homography_flow_eps_invariance():
    rng = np.random.default_rng(7)
    h = rng.standard_normal((3, 3))
    for eps in (-10.0, -0.3, 0.0, 2.5, 10.0):
        shifted = DiffHomography(h + eps * np.eye(3))
        for _ in range(10):
            x, y = rng.uniform(-1, 1, 2)
            assert np.allclose(homography_flow(DiffHomography(h), x, y),
                               homography_flow(shifted, x, y), atol=1e-12)


def test_pixel_to_calibrated_principal_point():
    point = pixel_to_calibrated((INTR.cx, INTR.cy), INTR)
    assert point.x == 0.0 and point.y == 0.0


def test_gradient_maps_covariantly():
    _, g_cal = pixel_to_calibrated((10, 10), INTR, gradient_px=(0.5, 0.0))
    assert np.allclose(g_cal, [100.0, 0.0])


def test_pixel_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(50):
        px = rng.uniform([0, 0], [INTR.width - 1e-9, INTR.height - 1e-9])
        point = pixel_to_calibrated(px, INTR)
        back = calibrated_to_pixel(point, INTR)
        assert np.allclose(back, px, atol=1e-12)


def test_pixel_out_of_bounds():
    with pytest.raises(OutOfBounds):
        pixel_to_calibrated((-1, 10), INTR)
    with pytest.raises(OutOfBounds):
        pixel_to_calibrated((10, INTR.height), INTR)


def test_calibrated_point_fov_limit():
    with pytest.raises(ValueError):
        CalibratedPoint(3.5, 0.0)
    CalibratedPoint(2.9, -2.9)  # inside the limit


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        Intrinsics(fx=-1, fy=1, cx=0, cy=0, width=10, height=10)
    with pytest.raises(ValueError):
        Intrinsics(fx=1, fy=1, cx=20, cy=0, width=10, height=10)


def test_sample_identity_from_projected_flow():
    # n = (u . g) g satisfies the constraint identity exactly
    rng = np.random.default_rng(9)
    for _ in range(100):
        u = rng.standard_normal(2)
        phi = rng.uniform(0, 2 * np.pi)
        g = np.array([np.cos(phi), np.sin(phi)])
        n = (u @ g) * g
        assert abs(n @ u - n @ n) < 1e-12


# --------------------------------------------------------------------------
# Observations

def random_observations(k, seed):
    rng = np.random.default_rng(seed)
    return Observations(xy=rng.uniform(-1, 1, (k, 2)),
                        n=rng.standard_normal((k, 2)) * rng.uniform(1e-3, 1e3, (k, 1)),
                        t=rng.uniform(0, 1, k))


@pytest.mark.parametrize("column, row", [("xy", 0), ("xy", 3), ("n", 1),
                                         ("n", 3), ("t", 2)])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_observations_reject_non_finite(column, row, value):
    cols = {"xy": np.zeros((4, 2)), "n": np.ones((4, 2)), "t": np.zeros(4)}
    cols[column][row, ...] = value
    with pytest.raises(ValueError):
        Observations(**cols)


def test_observations_fov_limit():
    with pytest.raises(ValueError):
        Observations(xy=[(0.0, 0.0), (0.1, -3.5)], n=np.ones((2, 2)), t=[0, 0])
    Observations(xy=[(2.9, -2.9)], n=[(1.0, 0.0)], t=[0.0])  # inside the limit


def test_observations_column_lengths_must_agree():
    with pytest.raises(ValueError):
        Observations(xy=np.zeros((3, 2)), n=np.ones((2, 2)), t=np.zeros(3))
    with pytest.raises(ValueError):
        Observations(xy=np.zeros((2, 2)), n=np.ones((2, 2)), t=np.zeros(2),
                     px=np.zeros((3, 2)))


def test_observations_indexing_and_iteration():
    obs = random_observations(10, seed=1)
    assert len(obs) == 10 and obs and not obs[:0]
    mask = obs.t > 0.5
    for subset, rows in ((obs[mask], np.flatnonzero(mask)),
                         (obs[np.array([7, 2, 2])], [7, 2, 2]),
                         (obs[2:8:3], [2, 5])):
        assert isinstance(subset, Observations) and len(subset) == len(rows)
        for name in ("xy", "n", "t", "mag2"):
            assert np.array_equal(getattr(subset, name), getattr(obs, name)[rows])
        assert subset.px is None
    row = obs[np.int64(3)]
    assert isinstance(row, NormalFlowObs)
    assert (row.x.x, row.x.y) == tuple(obs.xy[3]) and row.t == obs.t[3]
    assert np.array_equal(row.n, obs.n[3]) and row.mag2 == obs.mag2[3]
    assert obs[-1].t == obs.t[9]
    rows = list(obs)
    assert len(rows) == 10 and all(isinstance(r, NormalFlowObs) for r in rows)
    assert [r.t for r in rows] == obs.t.tolist()


def test_observations_optional_columns_follow_indexing():
    obs = Observations(xy=np.zeros((3, 2)), n=np.ones((3, 2)), t=[0, 1, 2],
                       px=[(1, 2), (3, 4), (5, 6)], inliers=[7, 8, 9],
                       rms=[0.1, 0.2, 0.3])
    subset = obs[np.array([False, True, True])]
    assert subset.px.tolist() == [[3, 4], [5, 6]]
    assert subset.inliers.tolist() == [8, 9] and subset.rms.tolist() == [0.2, 0.3]


def test_as_observations_round_trip():
    obs = random_observations(50, seed=2)
    assert as_observations(obs) is obs
    again = as_observations(list(obs))
    for name in ("xy", "n", "t", "mag2"):
        assert np.array_equal(getattr(again, name), getattr(obs, name))
    empty = as_observations([])
    assert len(empty) == 0 and empty.xy.shape == (0, 2)
    hand = as_observations([NormalFlowObs.make(0.1, 0.2, 3.0, 4.0, 0.5)])
    assert hand.xy.tolist() == [[0.1, 0.2]] and hand.mag2.tolist() == [25.0]


def test_observations_mag2_matches_per_row_dot_bitwise():
    obs = random_observations(10_000, seed=3)
    per_row = np.array([float(n @ n) for n in obs.n])
    assert np.array_equal(obs.mag2, per_row)
