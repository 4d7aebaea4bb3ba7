"""Linear least-squares solvers on the normal-flow constraint.

Every model is a set of linear equations  n^T O(x) theta = |n|^2  built
per observation:

  optical flow      per-pixel 2x2: the constraint row plus the
                    differential epipolar row (known velocity)
  depth             per-pixel closed form (known velocity)
  angular velocity  theta = omega,       rows n^T B(x)
  six dof           theta = (nu, omega), rows n^T [A(x)/Z | B(x)]
  homography        theta = vec(H),      rows n^T C(x); the stacked system
                    is rank-deficient by one (H and H + eps I produce the
                    same flow), resolved by the minimum-norm solution

Every solver takes an Observations; a sequence of Observations (such as
one-row sets) is concatenated once on entry.  The per-pixel solvers work
on all pixels at once and return (values, valid), with NaN where a
pixel's system is singular.  stack_and_solve handles the stacked
systems, ransac_estimate wraps them for outlier-contaminated data.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (NoConsensus, PureRotation, RankDeficient,
                     TooFewObservations)
from .geometry import (DiffHomography, Velocity, as_observations,
                       epipolar_terms, matrix_a, matrix_b, matrix_c, matrix_d)

_REL_TOL = 1e-12


class ModelKind(enum.Enum):
    OPTICAL_FLOW = "optical_flow"
    DEPTH = "depth"
    ANGULAR_VELOCITY = "angular_velocity"
    SIX_DOF = "six_dof"
    DIFF_HOMOGRAPHY = "diff_homography"

    @property
    def minimal_samples(self):
        return _MINIMAL[self]

    @property
    def param_dim(self):
        return _PARAM_DIM[self]

    @property
    def required_rank(self):
        return _RANK[self]


_MINIMAL = {ModelKind.OPTICAL_FLOW: 1, ModelKind.DEPTH: 1,
            ModelKind.ANGULAR_VELOCITY: 3, ModelKind.SIX_DOF: 6,
            ModelKind.DIFF_HOMOGRAPHY: 8}
_PARAM_DIM = {ModelKind.OPTICAL_FLOW: 2, ModelKind.DEPTH: 1,
              ModelKind.ANGULAR_VELOCITY: 3, ModelKind.SIX_DOF: 6,
              ModelKind.DIFF_HOMOGRAPHY: 9}
# vec(I) spans the homography null space, so full rank there is 8, not 9.
_RANK = {ModelKind.OPTICAL_FLOW: 2, ModelKind.DEPTH: 1,
         ModelKind.ANGULAR_VELOCITY: 3, ModelKind.SIX_DOF: 6,
         ModelKind.DIFF_HOMOGRAPHY: 8}


@dataclass(frozen=True)
class RansacConfig:
    """threshold is on |n^T O(x) theta - |n|^2| in calibrated units^2/s.

    The pixel-domain default of 1e-4 px^2/s^2 divided by fx*fy gives the
    calibrated equivalent; at the ~200 px focal lengths this package
    targets, 1e-4 in calibrated units separates sub-pixel measurement
    noise from gross outliers, so it is kept as the default here too.
    """

    threshold: float = 1e-4
    max_iterations: int = 1000
    confidence: float = 0.99
    seed: int = 0

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if not 0 < self.confidence < 1:
            raise ValueError("confidence must be in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class SolveInfo:
    rank: int
    cond: float
    rms: float


@dataclass(frozen=True)
class FitReport:
    kind: ModelKind
    theta: np.ndarray
    inliers: np.ndarray
    rms: float
    cond: float
    iterations: int


def stack_and_solve(a, b, min_rank=None, rcond=None):
    """Least-squares solve of a theta = b via SVD.

    Full-rank systems get the unique LS solution; rank-deficient ones the
    minimum-norm solution.  Raises RankDeficient when the numerical rank
    falls below min_rank.  Returns (theta, SolveInfo) where cond is the
    ratio of the largest to the smallest retained singular value.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.ndim != 2 or a.shape[0] != b.size:
        raise ValueError("a must be (K, p) with matching rhs")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0:
        raise RankDeficient("all-zero system")
    tol = s[0] * (max(a.shape) * np.finfo(float).eps if rcond is None else rcond)
    rank = int(np.sum(s > tol))
    if min_rank is not None and rank < min_rank:
        raise RankDeficient(f"numerical rank {rank} < required {min_rank}")
    theta = vt[:rank].T @ ((u[:, :rank].T @ b) / s[:rank])
    rms = float(np.sqrt(np.mean((a @ theta - b) ** 2)))
    return theta, SolveInfo(rank=rank, cond=float(s[0] / s[rank - 1]), rms=rms)


def solve_optical_flow(observations, v):
    """Full flow at every pixel from its normal flow and a known velocity.

    Solves each pixel's 2x2 system
    [n^T; (nu x xhat)^T_{1:2}] u = [|n|^2; xhat^T s xhat].  Returns
    (u, valid) with u (K, 2); where the normal flow is parallel to the
    epipolar direction the system is singular, valid is False and u NaN.
    """
    if not np.any(v.nu):
        raise PureRotation("translational velocity is zero")
    obs = as_observations(observations)
    n, mag2 = obs.n, obs.mag2
    xhat = np.concatenate([obs.xy, np.ones((len(obs), 1))], axis=1)
    _, s_mat = epipolar_terms(v)
    ell = np.cross(np.broadcast_to(v.nu, xhat.shape), xhat)[:, :2]
    rhs2 = np.einsum("ki,ij,kj->k", xhat, s_mat, xhat)
    det = n[:, 0] * ell[:, 1] - n[:, 1] * ell[:, 0]
    scale = np.linalg.norm(n, axis=1) * np.linalg.norm(ell, axis=1)
    valid = np.abs(det) > _REL_TOL * scale
    valid &= scale > 0
    u = np.full_like(n, np.nan)
    d = det[valid]
    u[valid, 0] = (ell[valid, 1] * mag2[valid] - n[valid, 1] * rhs2[valid]) / d
    u[valid, 1] = (n[valid, 0] * rhs2[valid] - ell[valid, 0] * mag2[valid]) / d
    return u, valid


def solve_depth(observations, v):
    """Depth at every pixel, Z = n^T A(x) nu / (|n|^2 - n^T B(x) omega).

    Returns (z, valid).  valid is False, and z NaN, where the translational
    flow along the gradient vanishes or the rotational field alone
    accounts for the normal flow.  A negative depth means the observation
    violates cheirality; it is reported, not clamped.
    """
    obs = as_observations(observations)
    n, mag2 = obs.n, obs.mag2
    x, y = obs.xy[:, 0], obs.xy[:, 1]
    a_nu = matrix_a(x, y) @ v.nu
    b_om = matrix_b(x, y) @ v.omega
    num = np.sum(n * a_nu, axis=1)
    den = mag2 - np.sum(n * b_om, axis=1)
    num_scale = np.linalg.norm(n, axis=1) * np.linalg.norm(a_nu, axis=1)
    valid = (np.abs(num) > _REL_TOL * num_scale) & (num_scale > 0)
    valid &= np.abs(den) > _REL_TOL * mag2
    z = np.full(len(obs), np.nan)
    z[valid] = num[valid] / den[valid]
    return z, valid


def build_rows(observations, kind, velocity=None, depths=None):
    """Stack per-observation constraint rows (a, b) with a theta = b."""
    obs = as_observations(observations)
    n, mag2 = obs.n, obs.mag2
    x, y = obs.xy[:, 0], obs.xy[:, 1]
    if kind is ModelKind.OPTICAL_FLOW:
        return n.copy(), mag2
    if kind is ModelKind.DEPTH:
        if velocity is None:
            raise ValueError("depth rows need a known velocity")
        a_nu = matrix_a(x, y) @ velocity.nu
        b_om = matrix_b(x, y) @ velocity.omega
        rows = np.sum(n * a_nu, axis=1)[:, None]
        return rows, mag2 - np.sum(n * b_om, axis=1)
    if kind is ModelKind.ANGULAR_VELOCITY:
        return np.einsum("ki,kij->kj", n, matrix_b(x, y)), mag2
    if kind is ModelKind.SIX_DOF:
        if depths is None:
            raise ValueError("six-dof rows need per-observation depths")
        depths = np.asarray(depths, dtype=float).reshape(-1)
        if depths.size != len(obs):
            raise ValueError("depths length must match observations")
        return np.einsum("ki,kij->kj", n, matrix_d(x, y, depths)), mag2
    if kind is ModelKind.DIFF_HOMOGRAPHY:
        return np.einsum("ki,kij->kj", n, matrix_c(x, y)), mag2
    raise ValueError(f"unknown kind {kind}")


def solve_angular_velocity(observations):
    """omega from >= 3 observations via  n^T B(x) omega = |n|^2."""
    obs = as_observations(observations)
    if len(obs) < 3:
        raise TooFewObservations(f"need >= 3 observations, got {len(obs)}")
    a, b = build_rows(obs, ModelKind.ANGULAR_VELOCITY)
    omega, _ = stack_and_solve(a, b, min_rank=3)
    return omega


def solve_6dof(observations, depths):
    """(nu, omega) from >= 6 observations with known per-observation depth."""
    obs = as_observations(observations)
    if len(obs) < 6:
        raise TooFewObservations(f"need >= 6 observations, got {len(obs)}")
    a, b = build_rows(obs, ModelKind.SIX_DOF, depths=depths)
    theta, _ = stack_and_solve(a, b, min_rank=6)
    return Velocity(nu=theta[:3], omega=theta[3:])


def solve_diff_homography(observations):
    """Minimum-norm H_L from >= 8 observations via  n^T C(x) vec(H) = |n|^2.

    H_L equals the true differential homography up to an eps I term; see
    homography.recover_true_hd for resolving it.
    """
    obs = as_observations(observations)
    if len(obs) < 8:
        raise TooFewObservations(f"need >= 8 observations, got {len(obs)}")
    a, b = build_rows(obs, ModelKind.DIFF_HOMOGRAPHY)
    theta, _ = stack_and_solve(a, b, min_rank=8)
    return DiffHomography(theta.reshape(3, 3))


def _adaptive_iterations(inlier_ratio, c, confidence):
    w_c = inlier_ratio ** c
    if w_c >= 1.0:
        return 1
    if w_c <= 0.0:
        return np.inf
    denom = math.log1p(-w_c)
    return math.ceil(math.log(1.0 - confidence) / denom)


def ransac_estimate(observations, kind, cfg=None, velocity=None, depths=None):
    """RANSAC over normal-flow observations for any ModelKind.

    Minimal samples are drawn from per-iteration substreams derived from
    (seed, iteration), so the selected model is reproducible and does not
    depend on evaluation order.  Ties in inlier count keep the earliest
    iteration.  The model is refit on the best inlier set and the inlier
    set recomputed at the refit parameters, so every reported inlier
    satisfies |n^T O(x) theta - |n|^2| <= threshold.
    """
    cfg = cfg or RansacConfig()
    obs = as_observations(observations)
    k = len(obs)
    c = kind.minimal_samples
    if k < c:
        raise TooFewObservations(f"need >= {c} observations, got {k}")
    a, b = build_rows(obs, kind, velocity=velocity, depths=depths)

    best_count = 0
    best_mask = None
    needed = cfg.max_iterations
    i = 0
    while i < min(cfg.max_iterations, needed):
        rng = np.random.default_rng([cfg.seed, i])
        sample = rng.permutation(k)[:c]
        theta, _, rank, _ = np.linalg.lstsq(a[sample], b[sample], rcond=None)
        if rank < c:
            i += 1
            continue
        mask = np.abs(a @ theta - b) <= cfg.threshold
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            needed = _adaptive_iterations(count / k, c, cfg.confidence)
        i += 1

    if best_count < 2 * c:
        raise NoConsensus(
            f"best consensus {best_count} < {2 * c} after {i} iterations")
    theta, info = stack_and_solve(a[best_mask], b[best_mask],
                                  min_rank=kind.required_rank)
    final_mask = np.abs(a @ theta - b) <= cfg.threshold
    resid = a[final_mask] @ theta - b[final_mask]
    rms = float(np.sqrt(np.mean(resid ** 2))) if final_mask.any() else float("nan")
    return FitReport(kind=kind, theta=theta, inliers=np.nonzero(final_mask)[0],
                     rms=rms, cond=info.cond, iterations=i)
