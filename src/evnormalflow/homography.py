"""Differential homography recovery and decomposition.

A camera with velocity (nu, omega) viewing the plane N^T P = d induces
the differential homography H_d = -([omega]_x + nu N^T / d).  The linear
solver can only estimate H_L = H_d + eps I (any eps produces identical
flow).  Two symmetric-part facts resolve the ambiguity:

  * M_L = H_L + H_L^T has 2 eps as its middle eigenvalue, because
    H_d + H_d^T = -(v N^T + N v^T) has one positive, one zero and one
    negative eigenvalue (v = nu / d).
  * M = -(H_d + H_d^T) factors as j k^T + k j^T with j, k built from the
    extreme eigenpairs, giving two candidate (nu/d, N, omega) solutions;
    the true plane is one of them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PureRotationDegenerate, RankOneDegenerate, positive
from .geometry import DiffHomography, skew, vee

_DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class PlanarStructure:
    """One candidate interpretation: scaled translation nu/d, unit plane
    normal with non-negative z, and angular velocity."""

    nu_over_d: np.ndarray
    normal: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        for name in ("nu_over_d", "normal", "omega"):
            val = np.asarray(getattr(self, name), dtype=float).reshape(3)
            object.__setattr__(self, name, val)


@dataclass(frozen=True)
class DecompositionResult:
    """Exactly two candidates; eigenvalues of M = -(H_d + H_d^T) descending."""

    candidates: tuple
    eigenvalues: np.ndarray


def compose_hd(omega, nu_over_d, normal):
    """H_d = -([omega]_x + (nu/d) N^T)."""
    omega = np.asarray(omega, dtype=float).reshape(3)
    v = np.asarray(nu_over_d, dtype=float).reshape(3)
    n = np.asarray(normal, dtype=float).reshape(3)
    return DiffHomography(-(skew(omega) + np.outer(v, n)))


def hd_from_plane(v, normal, d):
    """Differential homography of the plane N^T P = d under velocity v."""
    positive("d", d)
    return compose_hd(v.omega, v.nu / d, normal)


def recover_true_hd(h_l):
    """Strip the eps I ambiguity from a linear-solver homography.

    Returns (H_d, eps) with eps equal to half the middle eigenvalue of
    H_L + H_L^T and H_d = H_L - eps I.  An array is taken as
    DiffHomography takes it: a non-finite entry raises ValueError.
    """
    h = DiffHomography(getattr(h_l, "h", h_l)).h
    m_l = h + h.T
    eigvals = np.linalg.eigvalsh(m_l)          # ascending
    eps = float(eigvals[1]) / 2.0
    return DiffHomography(h - eps * np.eye(3)), eps


def _canonical(q):
    return -q if q[np.argmax(np.abs(q))] < 0 else q


def _candidate(h, first, second):
    # Joint sign flip keeps first @ second^T (hence omega) unchanged while
    # enforcing a non-negative z component on the normal.
    if second[2] < 0:
        first, second = -first, -second
    norm = np.linalg.norm(second)
    omega = -vee(h + np.outer(first, second))
    return PlanarStructure(nu_over_d=first * norm, normal=second / norm,
                           omega=omega)


def decompose_hd(h_d):
    """Factor H_d into its two (nu/d, N, omega) interpretations.

    M = -(H_d + H_d^T) = j k^T + k j^T with

        j = sqrt(l_max / 2) q_max + sqrt(-l_min / 2) q_min
        k = sqrt(l_max / 2) q_max - sqrt(-l_min / 2) q_min

    and the candidates are (j |k|, k/|k|, .) and (k |j|, j/|j|, .), each
    omega read off the remaining skew part.  Raises PureRotationDegenerate
    (carrying omega) when M vanishes and RankOneDegenerate when nu is
    parallel to N, which collapses both candidates.  Raises ValueError when
    M's middle eigenvalue exceeds _DEGENERACY_TOL of its largest magnitude,
    as for a linear-solver H_L not yet passed through `recover_true_hd`.
    An array is taken as DiffHomography takes it: a non-finite entry raises
    ValueError.
    """
    h = DiffHomography(getattr(h_d, "h", h_d)).h
    m = -(h + h.T)
    scale = max(np.linalg.norm(h), np.finfo(float).tiny)
    if np.linalg.norm(m) <= _DEGENERACY_TOL * scale:
        raise PureRotationDegenerate(
            "no visible plane: H_d is purely rotational", omega=-vee(h))
    eigvals, eigvecs = np.linalg.eigh(m)       # ascending
    l_min, l_mid, l_max = (float(v) for v in eigvals)
    big = max(abs(l_min), abs(l_max))
    if abs(l_mid) > _DEGENERACY_TOL * big:
        raise ValueError(
            f"-(H + H^T) has middle eigenvalue {l_mid:.6g}, not 0, so H is no "
            "differential homography; a linear-solver H_L needs "
            "recover_true_hd first")
    if min(abs(l_min), abs(l_max)) <= _DEGENERACY_TOL * big:
        raise RankOneDegenerate(
            "translation parallel to the plane normal: candidates coincide")
    q_max = _canonical(eigvecs[:, 2])
    q_min = _canonical(eigvecs[:, 0])
    p = np.sqrt(l_max / 2.0) * q_max
    q = np.sqrt(-l_min / 2.0) * q_min
    j, k = p + q, p - q
    return DecompositionResult(
        candidates=(_candidate(h, j, k), _candidate(h, k, j)),
        eigenvalues=eigvals[::-1].copy())
