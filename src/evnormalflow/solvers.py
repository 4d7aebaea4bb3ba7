"""Linear least-squares solvers on the normal-flow constraint.

Every model is a flow u = O(x) theta (+ a known flow) and a set of linear
equations  n^T O(x) theta = |n|^2  built per observation:

  optical flow      per-pixel 2x2: the constraint row plus the
                    differential epipolar row (known velocity)
  depth             per-pixel closed form (known velocity)
  angular velocity  theta = omega,       rows n^T B(x)
  six dof           theta = (nu, omega), rows n^T [A(x)/Z | B(x)]
  homography        theta = vec(H),      rows n^T C(x); the stacked system
                    is rank-deficient by one (H and H + eps I produce the
                    same flow), resolved by the minimum-norm solution

Each model's flow is written once, in _flow_model, as K-length columns;
geometry's interaction matrices A, B, C and D are the paper's notation
for the same flows.  build_rows derives the constraint rows from
_flow_model: row j is the normal component of the flow that unit
parameter j predicts.

Every solver takes an Observations; a sequence of Observations (such as
one-row sets) is concatenated once on entry.  The per-pixel solvers work
on all pixels at once and return (values, valid), with NaN where a
pixel's system is singular.  stack_and_solve handles the stacked
systems.  ransac_estimate wraps them for outlier-contaminated data: it
builds the rows once, solves minimal samples from them, scores MSAC on
the distance from each normal flow to the constraint line of the flow a
hypothesis predicts, then runs a weighted local-optimisation refit that
tightens the threshold to the noise.
"""
from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDepth, NoConsensus, PureRotation,
                     RankDeficient, TooFewObservations)
from .geometry import (DiffHomography, Velocity, as_observations,
                       epipolar_terms, matrix_a, matrix_b)

_REL_TOL = 1e-12


class ModelKind(enum.Enum):
    OPTICAL_FLOW = "optical_flow"
    DEPTH = "depth"
    ANGULAR_VELOCITY = "angular_velocity"
    SIX_DOF = "six_dof"
    DIFF_HOMOGRAPHY = "diff_homography"

    @property
    def minimal_samples(self):
        return _SIZES[self][0]

    @property
    def param_dim(self):
        return _SIZES[self][1]

    @property
    def required_rank(self):
        return _SIZES[self][2]


# (minimal sample, parameter dimension, rank).  vec(I) spans the homography
# null space, so full rank there is 8, not 9.
_SIZES = {ModelKind.OPTICAL_FLOW: (1, 2, 2), ModelKind.DEPTH: (1, 1, 1),
          ModelKind.ANGULAR_VELOCITY: (3, 3, 3), ModelKind.SIX_DOF: (6, 6, 6),
          ModelKind.DIFF_HOMOGRAPHY: (8, 9, 8)}


@dataclass(frozen=True)
class RansacConfig:
    """threshold caps e = |n^T O(x) theta - |n|^2| / |O(x) theta|, the
    distance from a measured normal flow to the constraint line of the flow
    a hypothesis predicts, in calibrated units (1/s).  A pixel-domain value
    in px/s divided by sqrt(fx * fy) gives it; the default 0.015 is 3 px/s
    at the 200 px focal length this package targets.  ransac_estimate
    tightens it to the inliers' noise scale, so it needs only to sit above
    the measurement noise and below the outliers.
    """

    threshold: float = 0.015
    max_iterations: int = 1000
    confidence: float = 0.99
    seed: int = 0

    def __post_init__(self):
        for name in ("threshold", "confidence"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number")
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise ValueError("threshold must be positive and finite")
        if not 0 < self.confidence < 1:
            raise ValueError("confidence must be in (0, 1)")
        for name, low in (("max_iterations", 1), ("seed", 0)):
            value = getattr(self, name)
            # bool is an int subclass, but True is no iteration count or seed
            if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                    or value < low):
                raise ValueError(f"{name} must be an integer >= {low}")


@dataclass(frozen=True)
class SolveInfo:
    rank: int
    cond: float
    rms: float


@dataclass(frozen=True)
class FitReport:
    """One RANSAC run: rms is the RMS of e over the inliers, threshold the
    effective cap on e after the scale step, and hit_cap says that sampling
    stopped at max_iterations before the adaptive count."""

    kind: ModelKind
    theta: np.ndarray
    inliers: np.ndarray
    rms: float
    cond: float
    iterations: int
    hit_cap: bool
    inlier_ratio: float
    threshold: float


def stack_and_solve(a, b, min_rank=None):
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
    tol = s[0] * (max(a.shape) * np.finfo(float).eps)
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
    flow, offset = _flow_model(obs, ModelKind.DEPTH, velocity=v)
    a, den = _rows(obs, ModelKind.DEPTH, flow, offset)
    num = a[:, 0]
    a_nu = np.stack(flow([1.0]), axis=1)
    num_scale = np.linalg.norm(obs.n, axis=1) * np.linalg.norm(a_nu, axis=1)
    valid = (np.abs(num) > _REL_TOL * num_scale) & (num_scale > 0)
    valid &= np.abs(den) > _REL_TOL * obs.mag2
    z = np.full(len(obs), np.nan)
    z[valid] = num[valid] / den[valid]
    return z, valid


def _flow_model(obs, kind, velocity=None, depths=None):
    """(flow, offset): the one place where each model's flow is written.

    flow maps theta to (ux, uy), the flow O(x) theta that the parameters
    predict at every observation, written out over K-length columns so
    that no (K, 2, p) operator is built.  offset is the flow that does not
    depend on theta: the known rotation B(x) omega for DEPTH, None for
    every other kind.  The full predicted flow is flow(theta) + offset.
    build_rows derives the constraint rows from both; ransac_estimate
    builds those rows once per call to solve its hypotheses, and scores
    them on the same flow.  geometry's interaction matrices are the same
    models in the paper's notation.
    """
    x, y = obs.xy[:, 0], obs.xy[:, 1]
    if kind is ModelKind.OPTICAL_FLOW:
        return (lambda u: (np.full(len(x), u[0]), np.full(len(x), u[1]))), None
    if kind is ModelKind.DEPTH:
        if velocity is None:
            raise ValueError("depth rows need a known velocity")
        a_nu = matrix_a(x, y) @ velocity.nu
        b_om = matrix_b(x, y) @ velocity.omega
        return ((lambda inv_z: (inv_z[0] * a_nu[:, 0], inv_z[0] * a_nu[:, 1])),
                (b_om[:, 0], b_om[:, 1]))
    if kind is ModelKind.DIFF_HOMOGRAPHY:
        def homography(h):
            w = h[6] * x + h[7] * y + h[8]
            return (h[0] * x + h[1] * y + h[2] - x * w,
                    h[3] * x + h[4] * y + h[5] - y * w)
        return homography, None

    def rotational(w):
        xy = x * y
        return (xy * w[0] - (1.0 + x * x) * w[1] + y * w[2],
                (1.0 + y * y) * w[0] - xy * w[1] - x * w[2])
    if kind is ModelKind.ANGULAR_VELOCITY:
        return rotational, None
    if kind is not ModelKind.SIX_DOF:
        raise ValueError(f"unknown kind {kind}")
    if depths is None:
        raise ValueError("six-dof rows need per-observation depths")
    z = np.asarray(depths, dtype=float).reshape(-1)
    if z.size != len(obs):
        raise ValueError("depths length must match observations")
    if np.any(~(z > 0)):
        raise DegenerateDepth("depth must be positive to form D(x)")

    def six_dof(theta):
        # A(x) nu / Z divided, not multiplied by 1/Z, as geometry.matrix_d
        # does, so that build_rows matches n^T D(x) bit for bit
        ux, uy = rotational(theta[3:])
        ux += (x * theta[2] - theta[0]) / z
        uy += (y * theta[2] - theta[1]) / z
        return ux, uy
    return six_dof, None


def _rows(obs, kind, flow, offset):
    """(a, b) with a theta = b: row j of a is n . flow(e_j), the normal
    component of the flow that unit parameter j predicts, and b is |n|^2
    less the normal component of offset."""
    n0, n1 = obs.n[:, 0], obs.n[:, 1]

    def normal(u):
        return n0 * u[0] + n1 * u[1]
    a = np.stack([normal(flow(e)) for e in np.eye(kind.param_dim)], axis=1)
    return a, obs.mag2 if offset is None else obs.mag2 - normal(offset)


def build_rows(observations, kind, velocity=None, depths=None):
    """Stack per-observation constraint rows (a, b) with a theta = b,
    derived from the kind's flow model in _flow_model, the one place it is
    written; ransac_estimate builds them once per call.  DEPTH needs
    velocity and SIX_DOF positive per-observation depths."""
    obs = as_observations(observations)
    return _rows(obs, kind, *_flow_model(obs, kind, velocity, depths))


def _observations(observations, kind):
    """observations as an Observations; TooFewObservations when it holds
    fewer than kind's minimal sample."""
    obs = as_observations(observations)
    c = kind.minimal_samples
    if len(obs) < c:
        raise TooFewObservations(f"need >= {c} observations, got {len(obs)}")
    return obs


def _solve_stacked(observations, kind, depths=None):
    """Least-squares theta of kind's stacked rows at its required rank."""
    a, b = build_rows(_observations(observations, kind), kind, depths=depths)
    theta, _ = stack_and_solve(a, b, min_rank=kind.required_rank)
    return theta


def solve_angular_velocity(observations):
    """omega from >= 3 observations via  n^T B(x) omega = |n|^2."""
    return _solve_stacked(observations, ModelKind.ANGULAR_VELOCITY)


def solve_6dof(observations, depths):
    """(nu, omega) from >= 6 observations with known per-observation depth."""
    theta = _solve_stacked(observations, ModelKind.SIX_DOF, depths=depths)
    return Velocity(nu=theta[:3], omega=theta[3:])


def solve_diff_homography(observations):
    """Minimum-norm H_L from >= 8 observations via  n^T C(x) vec(H) = |n|^2.

    H_L equals the true differential homography up to an eps I term; see
    homography.recover_true_hd for resolving it.
    """
    theta = _solve_stacked(observations, ModelKind.DIFF_HOMOGRAPHY)
    return DiffHomography(theta.reshape(3, 3))


def _adaptive_iterations(inlier_ratio, c, confidence):
    w_c = inlier_ratio ** c
    if w_c >= 1.0:
        return 1
    if w_c <= 0.0:
        return np.inf
    denom = math.log1p(-w_c)
    return math.ceil(math.log(1.0 - confidence) / denom)


def _squared_distance(r, s2):
    """e^2 = r^2 / s2: the squared distance from each measured normal flow to
    the constraint line of its predicted flow u, given r = n . u - |n|^2 and
    s2 = |u|^2; inf where u is zero or not finite."""
    e2 = np.full(len(r), np.inf)
    np.divide(r * r, s2, out=e2, where=(s2 > 0) & (s2 < np.inf))
    return e2


_LO_REFITS = 3
# 3 sigma of a Gaussian, estimated as 1.4826 times the median absolute value.
_SCALE = 3.0 * 1.4826


def ransac_estimate(observations, kind, cfg=None, velocity=None, depths=None):
    """MSAC with a local-optimisation refit over normal-flow observations,
    for any ModelKind.

    A hypothesis theta predicts a flow u at every observation; it is scored
    on e = |n . u - |n|^2| / |u|, the distance from the measured normal flow
    to the constraint line of u, by the MSAC cost sum(min(e^2, t^2)) with
    t = cfg.threshold (Torr & Zisserman 2000).  Minimal samples come from
    per-iteration substreams derived from (seed, iteration), so the result
    is reproducible and does not depend on evaluation order; ties in cost
    keep the earliest iteration.  Sampling stops at the adaptive count for
    the best hypothesis's inlier ratio, or at max_iterations (hit_cap).

    The best hypothesis is then refit 3 times on its inliers, rows weighted
    by 1/|u| so that the refit minimises sum(e^2) (LO-RANSAC, Chum et al.
    2003).  After each refit the threshold tightens to the inliers' noise
    scale, min(threshold, max(3 * 1.4826 * median(e), threshold / 100)),
    and the inliers are recomputed at the refit parameters.  Every reported
    inlier satisfies e <= report.threshold.
    """
    cfg = cfg or RansacConfig()
    obs = _observations(observations, kind)
    k, c = len(obs), kind.minimal_samples
    flow, offset = _flow_model(obs, kind, velocity, depths)
    a, b = _rows(obs, kind, flow, offset)
    n0, n1 = obs.n[:, 0], obs.n[:, 1]

    def residual(theta):
        """(r, s2) = (n . u - |n|^2, |u|^2) for the flow u theta predicts."""
        ux, uy = flow(theta)
        if offset is not None:
            ux, uy = ux + offset[0], uy + offset[1]
        return n0 * ux + n1 * uy - obs.mag2, ux * ux + uy * uy

    t2 = cfg.threshold ** 2
    best_cost, best_theta, best_count = np.inf, None, 0
    needed = cfg.max_iterations
    i = 0
    while i < min(cfg.max_iterations, needed):
        rng = np.random.default_rng([cfg.seed, i])
        i += 1
        sample = rng.choice(k, c, replace=False)
        theta, _, rank, _ = np.linalg.lstsq(a[sample], b[sample], rcond=None)
        if rank < c or not np.all(np.isfinite(theta)):
            continue
        e2 = _squared_distance(*residual(theta))
        cost = float(np.minimum(e2, t2).sum())
        if cost < best_cost:
            best_cost, best_theta = cost, theta
            best_count = int(np.count_nonzero(e2 <= t2))
            needed = _adaptive_iterations(best_count / k, c, cfg.confidence)

    if best_count < 2 * c:
        raise NoConsensus(
            f"best consensus {best_count} < {2 * c} after {i} iterations")
    threshold = cfg.threshold
    r, s2 = residual(best_theta)
    e = np.sqrt(_squared_distance(r, s2))
    inliers = np.flatnonzero(e <= threshold)
    for _ in range(_LO_REFITS):
        weight = 1.0 / np.sqrt(s2[inliers])
        theta, info = stack_and_solve(a[inliers] * weight[:, None],
                                      b[inliers] * weight, kind.required_rank)
        r, s2 = residual(theta)
        e = np.sqrt(_squared_distance(r, s2))
        threshold = min(cfg.threshold, max(_SCALE * float(np.median(e[inliers])),
                                           cfg.threshold / 100))
        inliers = np.flatnonzero(e <= threshold)
    if len(inliers) < 2 * c:
        raise NoConsensus(f"{len(inliers)} inliers < {2 * c} after refitting")
    return FitReport(kind=kind, theta=theta, inliers=inliers,
                     rms=float(np.sqrt(np.mean(e[inliers] ** 2))),
                     cond=info.cond, iterations=i,
                     hit_cap=needed > cfg.max_iterations,
                     inlier_ratio=len(inliers) / k, threshold=threshold)
