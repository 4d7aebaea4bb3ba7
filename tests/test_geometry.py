"""Motion-field building blocks: the A/B/C/D matrices, the runtime flow
model against them, and the pixel <-> calibrated conversions."""
import numpy as np
import pytest

from evnormalflow import (BoundsError, DegenerateDepth, Intrinsics,
                          ModelKind, Observations, Velocity,
                          as_observations, calibrated_to_pixel,
                          epipolar_terms, matrix_a, matrix_b, matrix_c,
                          matrix_d, pixel_to_calibrated, skew, vee)
from evnormalflow.solvers import _flow_model

INTR = Intrinsics(fx=200.0, fy=200.0, cx=120.0, cy=90.0, width=240, height=180)


def flow_at(x, y, kind, theta, z=None):
    """The flow (2,) that theta predicts at (x, y) under kind's model in
    solvers._flow_model, at depth z for SIX_DOF."""
    depths = None if z is None else [z]
    ux, uy = _flow_model(np.array([[x, y]]), kind, depths)(np.asarray(theta))
    return np.array([ux[0], uy[0]])


def six_dof_flow(x, y, z, v):
    return flow_at(x, y, ModelKind.SIX_DOF, np.r_[v.nu, v.omega], z)


def planar_flow(h, x, y):
    return flow_at(x, y, ModelKind.DIFF_HOMOGRAPHY, np.ravel(h))


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
        assert np.allclose(planar_flow(h, x, y), direct, atol=1e-12)


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
        _flow_model(np.array([[0.0, 0.0], [0.1, 0.2]]), ModelKind.SIX_DOF,
                    [np.nan, 2.0])(np.r_[v.nu, v.omega])


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
        u = six_dof_flow(x, y, z, v)
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
        hd = -(skew(v.omega) + np.outer(v.nu / d, normal))
        x, y = rng.uniform(-0.5, 0.5, 2)
        z = d / (normal @ [x, y, 1.0])
        assert z > 0
        assert np.allclose(six_dof_flow(x, y, z, v), planar_flow(hd, x, y),
                           atol=1e-10)


def test_homography_flow_eps_invariance():
    rng = np.random.default_rng(7)
    h = rng.standard_normal((3, 3))
    for eps in (-10.0, -0.3, 0.0, 2.5, 10.0):
        shifted = h + eps * np.eye(3)
        for _ in range(10):
            x, y = rng.uniform(-1, 1, 2)
            assert np.allclose(planar_flow(h, x, y),
                               planar_flow(shifted, x, y), atol=1e-12)


def test_pixel_to_calibrated_principal_point():
    xy = pixel_to_calibrated([(INTR.cx, INTR.cy), (INTR.cx + 20, INTR.cy)], INTR)
    assert xy.tolist() == [[0.0, 0.0], [0.1, 0.0]]


def test_gradient_maps_covariantly():
    xy, g_cal = pixel_to_calibrated([(10, 10), (20, 30)], INTR,
                                    gradient_px=[(0.5, 0.0), (0.0, -0.25)])
    assert xy.shape == g_cal.shape == (2, 2)
    assert np.allclose(g_cal, [[100.0, 0.0], [0.0, -50.0]])


def test_pixel_round_trip():
    rng = np.random.default_rng(8)
    px = rng.uniform([0, 0], [INTR.width - 1e-9, INTR.height - 1e-9], (50, 2))
    xy = pixel_to_calibrated(px, INTR)
    assert xy.shape == (50, 2)
    assert np.allclose(calibrated_to_pixel(xy, INTR), px, atol=1e-12)
    # a single (2,) location maps the same as its row
    assert np.array_equal(pixel_to_calibrated(px[7], INTR), xy[7])
    assert np.array_equal(calibrated_to_pixel(xy[7], INTR),
                          calibrated_to_pixel(xy, INTR)[7])


def test_pixel_out_of_bounds():
    with pytest.raises(BoundsError):
        pixel_to_calibrated((-1, 10), INTR)
    with pytest.raises(BoundsError):
        pixel_to_calibrated((10, INTR.height), INTR)
    # the error names the first pixel off the sensor
    with pytest.raises(BoundsError, match=r"\(5\.0, 180\.0\)"):
        pixel_to_calibrated([(1, 1), (5, INTR.height), (-1, 0)], INTR)


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
    with pytest.raises(ValueError):
        Observations(xy=[(3.5, 0.0)], n=[(1.0, 0.0)], t=[0.0])
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
    for index, i in ((3, 3), (np.int64(3), 3), (-1, 9), (-10, 0)):
        row = obs[index]
        assert isinstance(row, Observations) and len(row) == 1
        for name in ("xy", "n", "t", "mag2"):
            assert np.array_equal(getattr(row, name), getattr(obs, name)[i:i + 1])
    for index in (10, -11):
        with pytest.raises(IndexError):
            obs[index]
    rows = list(obs)
    assert len(rows) == 10
    assert all(isinstance(r, Observations) and len(r) == 1 for r in rows)
    assert [r.t[0] for r in rows] == obs.t.tolist()
    assert np.array_equal(np.concatenate([r.xy for r in rows]), obs.xy)


def test_observations_optional_columns_follow_indexing():
    obs = Observations(xy=np.zeros((3, 2)), n=np.ones((3, 2)), t=[0, 1, 2],
                       px=[(1, 2), (3, 4), (5, 6)], inliers=[7, 8, 9],
                       rms=[0.1, 0.2, 0.3])
    subset = obs[np.array([False, True, True])]
    assert subset.px.tolist() == [[3, 4], [5, 6]]
    assert subset.inliers.tolist() == [8, 9] and subset.rms.tolist() == [0.2, 0.3]
    row = obs[-1]
    assert row.px.tolist() == [[5, 6]] and row.inliers.tolist() == [9]


def test_as_observations_round_trip():
    obs = random_observations(50, seed=2)
    assert as_observations(obs) is obs
    for parts in (list(obs), [obs[:20], obs[20:21], obs[21:]]):
        again = as_observations(parts)
        assert isinstance(again, Observations)
        for name in ("xy", "n", "t", "mag2"):
            assert np.array_equal(getattr(again, name), getattr(obs, name))
        assert again.px is None
    empty = as_observations([])
    assert len(empty) == 0 and empty.xy.shape == empty.n.shape == (0, 2)
    hand = as_observations([Observations(xy=[(0.1, 0.2)], n=[(3.0, 4.0)],
                                         t=[0.5])])
    assert hand.xy.tolist() == [[0.1, 0.2]] and hand.mag2.tolist() == [25.0]
    # optional columns survive when every part has them
    with_px = Observations(xy=np.zeros((2, 2)), n=np.ones((2, 2)), t=[0, 1],
                           px=[(1, 2), (3, 4)], inliers=[5, 6], rms=[0.1, 0.2])
    again = as_observations(list(with_px))
    assert again.px.tolist() == [[1, 2], [3, 4]]
    assert again.inliers.tolist() == [5, 6] and again.rms.tolist() == [0.1, 0.2]
    with pytest.raises(TypeError):
        as_observations([(0.1, 0.2, 3.0, 4.0, 0.5)])


def test_observations_mag2_matches_per_row_dot_bitwise():
    obs = random_observations(10_000, seed=3)
    per_row = np.array([float(n @ n) for n in obs.n])
    assert np.array_equal(obs.mag2, per_row)
