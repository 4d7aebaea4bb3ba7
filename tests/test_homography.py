"""Differential-homography ambiguity recovery and two-fold decomposition."""
import numpy as np
import pytest

from evnormalflow import (DiffHomography, PureRotationDegenerate,
                          RankOneDegenerate, Velocity, compose_hd,
                          decompose_hd, hd_from_plane, recover_true_hd, skew)


def random_structure(rng):
    """(omega, nu_over_d, N) with N unit, N_z > 0, nu not parallel to N."""
    while True:
        omega = rng.standard_normal(3)
        v = rng.standard_normal(3)
        n = rng.standard_normal(3)
        n[2] = abs(n[2]) + 0.2
        n /= np.linalg.norm(n)
        cos = abs(v @ n) / np.linalg.norm(v)
        if 0.05 < cos < 0.95 and np.linalg.norm(v) > 0.1:
            return omega, v, n


def test_compose_hd():
    h = compose_hd([0, 0, 0], [1, 0, 0], [0, 0, 1])
    assert np.array_equal(h.h, [[0, 0, -1], [0, 0, 0], [0, 0, 0]])


def test_hd_from_plane_requires_positive_distance():
    v = Velocity(nu=(1, 0, 0), omega=(0, 0, 0))
    with pytest.raises(ValueError):
        hd_from_plane(v, (0, 0, 1), 0.0)


def test_recover_eps_from_shifted_hd():
    rng = np.random.default_rng(50)
    for _ in range(100):
        omega, v, n = random_structure(rng)
        hd = compose_hd(omega, v, n).h
        h_l = hd + 0.3 * np.eye(3)
        rec, eps = recover_true_hd(h_l)
        assert eps == pytest.approx(0.3, abs=1e-10)
        assert np.linalg.norm(rec.h - hd) < 1e-9


def test_recover_eps_pure_rotation():
    # H_d skew-symmetric, shifted by 1: M_L = 2 I, middle eigenvalue 2
    hd = -skew([0.4, -0.2, 0.7])
    rec, eps = recover_true_hd(hd + np.eye(3))
    assert eps == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rec.h, hd, atol=1e-12)


def test_recover_eps_zero_for_true_hd():
    rng = np.random.default_rng(51)
    for _ in range(50):
        omega, v, n = random_structure(rng)
        hd = compose_hd(omega, v, n).h
        _, eps = recover_true_hd(hd)
        assert abs(eps) < 1e-10 * max(1.0, np.linalg.norm(hd))


def test_decompose_hand_case():
    # omega = 0, nu/d = e1, N = e3: M = e1 e3^T + e3 e1^T, eigenvalues
    # {1, 0, -1}; candidate 1 = (e1, e3, 0), candidate 2 = (e3, e1, [0,1,0]).
    # Reconstruction fixes candidate 2's omega: -(H + e3 e1^T) is the skew
    # matrix of (0, 1, 0), not zero.
    hd = compose_hd([0, 0, 0], [1, 0, 0], [0, 0, 1])
    result = decompose_hd(hd)
    assert np.allclose(result.eigenvalues, [1.0, 0.0, -1.0], atol=1e-12)
    c1, c2 = result.candidates
    assert np.allclose(c1.nu_over_d, [1, 0, 0], atol=1e-12)
    assert np.allclose(c1.normal, [0, 0, 1], atol=1e-12)
    assert np.allclose(c1.omega, [0, 0, 0], atol=1e-12)
    assert np.allclose(c2.nu_over_d, [0, 0, 1], atol=1e-12)
    assert np.allclose(c2.normal, [1, 0, 0], atol=1e-12)
    assert np.allclose(c2.omega, [0, 1, 0], atol=1e-12)
    # both candidates reconstruct the source matrix
    for c in result.candidates:
        rec = compose_hd(c.omega, c.nu_over_d, c.normal)
        assert np.allclose(rec.h, hd.h, atol=1e-12)


def test_decompose_construct_invert():
    rng = np.random.default_rng(52)
    for _ in range(200):
        omega, v, n = random_structure(rng)
        hd = compose_hd(omega, v, n)
        result = decompose_hd(hd)
        # eigenvalue sandwich with zero middle eigenvalue
        l1, l2, l3 = result.eigenvalues
        assert l1 >= l2 >= l3
        assert abs(l2) <= 1e-8 * max(abs(l1), abs(l3))
        # both candidates reconstruct H_d and have unit normals facing the camera
        matched = 0
        for c in result.candidates:
            assert np.linalg.norm(c.normal) == pytest.approx(1.0, abs=1e-12)
            assert c.normal[2] >= 0
            rec = compose_hd(c.omega, c.nu_over_d, c.normal)
            assert np.linalg.norm(rec.h - hd.h) < 1e-8
            if (np.linalg.norm(c.nu_over_d - v) < 1e-8
                    and np.linalg.norm(c.normal - n) < 1e-8
                    and np.linalg.norm(c.omega - omega) < 1e-8):
                matched += 1
        assert matched >= 1  # ground truth is one of the two interpretations


def test_decompose_pure_rotation_degenerate():
    omega = np.array([0.3, -0.1, 0.2])
    hd = DiffHomography(-skew(omega))
    with pytest.raises(PureRotationDegenerate) as err:
        decompose_hd(hd)
    assert np.allclose(err.value.omega, omega, atol=1e-12)


def test_decompose_rank_one_degenerate():
    # translation along the plane normal: M = -2 v N^T with v || N has a
    # repeated zero eigenvalue among the extremes
    n = np.array([0.0, 0.0, 1.0])
    hd = compose_hd([0.1, -0.2, 0.05], 0.7 * n, n)
    with pytest.raises(RankOneDegenerate):
        decompose_hd(hd)


def test_decompose_linear_solver_h_without_recovery_raises():
    # H_L = H_d + eps I shifts every eigenvalue of -(H + H^T) by -2 eps, so
    # the middle one is no longer 0 and no factorisation exists.
    with pytest.raises(ValueError, match="recover_true_hd"):
        decompose_hd(-np.eye(3) + 0.01 * np.arange(9).reshape(3, 3))
    rng = np.random.default_rng(54)
    omega, v, n = random_structure(rng)
    h_l = compose_hd(omega, v, n).h + 0.3 * np.eye(3)
    with pytest.raises(ValueError, match="recover_true_hd"):
        decompose_hd(h_l)
    rec, _ = recover_true_hd(h_l)
    assert len(decompose_hd(rec).candidates) == 2


@pytest.mark.parametrize("function", [recover_true_hd, decompose_hd])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_homography_entries_refused(function, value):
    # the check of DiffHomography itself, not a LinAlgError from the
    # eigensolver
    h = compose_hd((0.1, -0.2, 0.3), (0.2, 0.0, 0.1), (0.0, 0.0, 1.0)).h.copy()
    h[1, 2] = value
    with pytest.raises(ValueError, match="homography entries must be finite"):
        function(h)


def test_end_to_end_eps_range():
    rng = np.random.default_rng(53)
    for _ in range(100):
        omega, v, n = random_structure(rng)
        hd = compose_hd(omega, v, n).h
        eps = rng.uniform(-10, 10)
        rec, eps_rec = recover_true_hd(hd + eps * np.eye(3))
        assert abs(eps_rec - eps) <= 1e-9 * max(1.0, abs(eps))
        assert np.linalg.norm(rec.h - hd) <= 1e-9 * max(1.0, np.linalg.norm(hd))
