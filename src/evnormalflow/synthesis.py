"""Synthetic scenes with exact ground truth.

Provides sampled normal-flow datasets for every solver (with optional
noise and gross outliers), analytic moving-edge time surfaces for
end-to-end extraction tests, the classic global-flow toy registration,
and the Monte-Carlo noise sweep used to characterize solver stability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (finite, integer, interval, non_negative, positive,
                     uint64)
from .events import TimeSurface, UNFIRED
from .geometry import Intrinsics, Observations, Velocity, squared_norms
from .homography import hd_from_plane, recover_true_hd
from .solvers import (ModelKind, _flow_model, solve_6dof,
                      solve_angular_velocity, solve_depth,
                      solve_diff_homography, solve_optical_flow,
                      stack_and_solve)
from .spline import evaluate as spline_evaluate

UNOBSERVABLE_TOL = 1e-6

DEFAULT_INTRINSICS = Intrinsics(fx=200.0, fy=200.0, cx=120.0, cy=90.0,
                                width=240, height=180)


# --------------------------------------------------------------------------
# scenes

@dataclass(frozen=True)
class RandomPointsScene:
    """Independent depths in depth_range; a finite `count` freezes a point
    cloud that samples are drawn from (with replacement)."""

    count: int | None = None
    depth_range: tuple = (1.0, 5.0)
    extent: float = 0.45

    def __post_init__(self):
        lo, hi = self.depth_range
        if not 0 < lo <= hi < math.inf:
            raise ValueError("depth_range must be positive, finite and ordered")
        if self.count is not None:
            integer("count", self.count, 1)
        positive("extent", self.extent)

    def sample(self, rng, k):
        lo, hi = self.depth_range
        if self.count is None:
            xy = rng.uniform(-self.extent, self.extent, (k, 2))
            return xy, rng.uniform(lo, hi, k)
        cloud_xy = rng.uniform(-self.extent, self.extent, (self.count, 2))
        cloud_z = rng.uniform(lo, hi, self.count)
        idx = rng.integers(0, self.count, k)
        return cloud_xy[idx], cloud_z[idx]


def _plane_depths(normal, d, xy):
    xhat = np.concatenate([xy, np.ones((len(xy), 1))], axis=1)
    denom = xhat @ normal
    if np.any(denom <= 0):
        raise ValueError("plane crosses the sampled frustum")
    return d / denom


def _check_frustum(normal, d, extent):
    """Raise unless the plane N^T P = d lies in front of the camera over the
    whole square of half-side `extent`; depth is linear in x and y, so its
    four corners decide."""
    positive("d", d)
    positive("extent", extent)
    _plane_depths(normal, d, extent * np.array([[-1.0, -1.0], [-1.0, 1.0],
                                                [1.0, -1.0], [1.0, 1.0]]))


@dataclass(frozen=True)
class PlaneScene:
    """Single plane N^T P = d (unit N, positive depth over the extent)."""

    normal: tuple = (0.0, 0.0, 1.0)
    d: float = 2.0
    extent: float = 0.45

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float).reshape(3)
        norm = np.linalg.norm(n)
        if not 0 < norm < math.inf:
            raise ValueError("plane normal must be nonzero and finite")
        n = n / norm
        object.__setattr__(self, "normal", tuple(n))
        _check_frustum(n, self.d, self.extent)

    def sample(self, rng, k):
        xy = rng.uniform(-self.extent, self.extent, (k, 2))
        return xy, _plane_depths(np.asarray(self.normal), self.d, xy)


@dataclass(frozen=True)
class TwoWallsScene:
    """Two planes meeting at x = 0, their normals splayed by `angle`."""

    angle: float = 0.5
    d: float = 2.0
    extent: float = 0.45

    def __post_init__(self):
        interval("angle", self.angle, 0, math.pi)
        for n in self._normals():
            _check_frustum(n, self.d, self.extent)

    def _normals(self):
        half = self.angle / 2.0
        return (np.array([math.sin(half), 0.0, math.cos(half)]),
                np.array([-math.sin(half), 0.0, math.cos(half)]))

    def sample(self, rng, k):
        xy = rng.uniform(-self.extent, self.extent, (k, 2))
        n_left, n_right = self._normals()
        z = np.where(xy[:, 0] < 0,
                     _plane_depths(n_left, self.d, xy),
                     _plane_depths(n_right, self.d, xy))
        return xy, z


# --------------------------------------------------------------------------
# motion profiles

@dataclass(frozen=True)
class ConstantMotion:
    velocity: Velocity

    def at(self, t):
        t = np.asarray(t, dtype=float)
        k = t.size
        return (np.broadcast_to(self.velocity.nu, (k, 3)),
                np.broadcast_to(self.velocity.omega, (k, 3)))


@dataclass(frozen=True)
class StepMotion:
    before: Velocity
    after: Velocity
    t_switch: float

    def __post_init__(self):
        # a NaN switch time would compare false everywhere: no switch at all
        finite("t_switch", self.t_switch)

    def at(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        late = (t >= self.t_switch)[:, None]
        nu = np.where(late, self.after.nu, self.before.nu)
        omega = np.where(late, self.after.omega, self.before.omega)
        return nu, omega


@dataclass(frozen=True)
class SplineMotion:
    """Trajectory dim 3 drives omega (nu = 0); dim 6 drives (nu, omega)."""

    trajectory: SplineTrajectory

    def __post_init__(self):
        if self.trajectory.dim not in (3, 6):
            raise ValueError("trajectory dim must be 3 or 6")

    def at(self, t):
        vals = np.atleast_2d(spline_evaluate(self.trajectory, np.atleast_1d(t)))
        if self.trajectory.dim == 3:
            return np.zeros_like(vals), vals
        return vals[:, :3], vals[:, 3:]


# --------------------------------------------------------------------------
# dataset generation

@dataclass(frozen=True)
class NoiseSpec:
    """sigma_px is pixel-equivalent isotropic noise on the normal flow,
    converted per axis by the focal lengths; outlier_fraction of the
    measurements are replaced by uniformly random flows."""

    sigma_px: float = 0.0
    outlier_fraction: float = 0.0

    def __post_init__(self):
        non_negative("sigma_px", self.sigma_px)
        interval("outlier_fraction", self.outlier_fraction, 0, 1, closed=True)


@dataclass
class GroundTruth:
    """Everything needed to score estimates on a generated dataset; the
    sample points and times are the Observations' `xy` and `t`."""

    scene: object
    motion: object
    intrinsics: Intrinsics
    z: np.ndarray
    u: np.ndarray
    n_clean: np.ndarray
    outlier_idx: np.ndarray
    resample_rounds: int

    @property
    def inlier_mask(self):
        mask = np.ones(len(self.z), dtype=bool)
        mask[self.outlier_idx] = False
        return mask

    @property
    def velocity(self):
        return self.motion.velocity if isinstance(self.motion, ConstantMotion) else None

    @property
    def hd(self):
        if isinstance(self.scene, PlaneScene) and isinstance(self.motion, ConstantMotion):
            return hd_from_plane(self.motion.velocity,
                                 np.asarray(self.scene.normal), self.scene.d)
        return None


def generate_dataset(scene, motion, intr=DEFAULT_INTRINSICS, count=1000,
                     window=0.5, noise=NoiseSpec(), seed=0):
    """Sample a normal-flow dataset with exact ground truth.

    Returns (Observations, GroundTruth).

    All randomness comes from one seeded stream drawn in a fixed order, so
    a seed reproduces the dataset bit for bit; the measurement noise is
    drawn as unit deviates and scaled, so datasets at different noise
    levels share their underlying randomness.
    """
    integer("count", count, 1)
    positive("window", window)
    rng = np.random.default_rng(uint64("seed", seed))
    xy, z = scene.sample(rng, count)
    t = rng.uniform(0.0, window, count)
    nu, omega = motion.at(t)
    # each sample's own (nu, omega): a (6, K) parameter of the six-dof flow
    theta = np.concatenate([nu.T, omega.T])
    u = np.stack(_flow_model(xy, ModelKind.SIX_DOF, z)(theta), axis=1)

    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    ghat = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    dots = np.sum(u * ghat, axis=1)
    rounds = 0
    bad = np.abs(dots) < UNOBSERVABLE_TOL
    while np.any(bad):
        rounds += 1
        if rounds > 100:
            raise ValueError(
                "flow unobservable at some samples after 100 redraws "
                "(is the motion zero?)")
        phi_new = rng.uniform(0.0, 2.0 * math.pi, int(bad.sum()))
        ghat[bad] = np.stack([np.cos(phi_new), np.sin(phi_new)], axis=1)
        dots = np.sum(u * ghat, axis=1)
        bad = np.abs(dots) < UNOBSERVABLE_TOL
    n_clean = dots[:, None] * ghat

    unit_noise = rng.standard_normal((count, 2))
    n_out = int(round(noise.outlier_fraction * count))
    outlier_idx = (rng.choice(count, n_out, replace=False) if n_out
                   else np.empty(0, dtype=int))
    out_phi = rng.uniform(0.0, 2.0 * math.pi, n_out)
    mag_scale = float(np.max(np.linalg.norm(n_clean, axis=1))) or 1.0
    out_mag = rng.uniform(0.0, 2.0 * mag_scale, n_out)

    sigma = np.array([noise.sigma_px / intr.fx, noise.sigma_px / intr.fy])
    n = n_clean + unit_noise * sigma
    n[outlier_idx] = out_mag[:, None] * np.stack(
        [np.cos(out_phi), np.sin(out_phi)], axis=1)

    observations = Observations(xy=xy, n=n, t=t)
    truth = GroundTruth(scene=scene, motion=motion, intrinsics=intr, z=z,
                        u=u, n_clean=n_clean, outlier_idx=outlier_idx,
                        resample_rounds=rounds)
    return observations, truth


# --------------------------------------------------------------------------
# analytic time surfaces

@dataclass(frozen=True)
class MovingEdge:
    """Straight line through `point` (px) along unit `direction`, rigidly
    translating at `velocity` px/s."""

    point: tuple
    direction: tuple
    velocity: tuple


def surface_from_edges(edges, shape, window, t_ref=None):
    """Time surface of translating line edges over t in [t_ref - window, t_ref].

    Each pixel holds its latest crossing time, an exact linear ramp per
    edge, so local plane fits recover gradients to machine precision.  A
    stationary edge marks its own pixels at t_ref (a flat patch that
    extraction has to reject).
    """
    h, w = shape
    window = positive("window", window)
    t_ref = window if t_ref is None else finite("t_ref", t_ref)
    qx, qy = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    ts = np.full((h, w), UNFIRED)
    for edge in edges:
        px, py = (float(v) for v in edge.point)
        dx, dy = (float(v) for v in edge.direction)
        norm = math.hypot(dx, dy)
        if norm == 0:
            raise ValueError("edge direction must be nonzero")
        dx, dy = dx / norm, dy / norm
        vx, vy = (float(v) for v in edge.velocity)
        den = vx * dy - vy * dx
        if abs(den) < 1e-15:
            dist = np.abs((qx - px) * dy - (qy - py) * dx)
            ts = np.where(dist <= 0.5, np.maximum(ts, t_ref), ts)
            continue
        t_cross = ((qx - px) * dy - (qy - py) * dx) / den + (t_ref - window)
        valid = (t_cross >= t_ref - window) & (t_cross <= t_ref)
        ts = np.where(valid, np.maximum(ts, t_cross), ts)
    return TimeSurface(timestamps=ts, t_ref=t_ref)


# --------------------------------------------------------------------------
# toy registration

@dataclass(frozen=True)
class ToyRegistrationResult:
    constraint: np.ndarray
    naive: np.ndarray


def toy_registration(flows):
    """Estimate one global flow from normal flows, given as an Observations
    or a (K, 2) array, two ways.

    The constraint-based estimate solves n_i . u = |n_i|^2 in least
    squares; the naive estimate averages the normal flow vectors (which
    systematically under-shoots because each n_i only carries the
    component of u along its own direction).
    """
    n = np.asarray(getattr(flows, "n", flows), dtype=float).reshape(-1, 2)
    mag2 = squared_norms(n)
    naive = n.mean(axis=0)
    if np.all(mag2 == 0):
        return ToyRegistrationResult(constraint=np.zeros(2), naive=naive)
    theta, _ = stack_and_solve(n, mag2, min_rank=2)
    return ToyRegistrationResult(constraint=theta, naive=naive)


# --------------------------------------------------------------------------
# noise sweep

@dataclass(frozen=True)
class SweepResult:
    kind: ModelKind
    noise_px: np.ndarray
    median: np.ndarray
    q25: np.ndarray
    q75: np.ndarray
    trials: int
    samples: int


_SWEEP_MOTION = Velocity(nu=(0.2, -0.1, 0.3), omega=(0.1, -0.2, 0.15))
_SWEEP_KIND_INDEX = {kind: i for i, kind in enumerate(ModelKind)}


def _sweep_setup(kind):
    if kind is ModelKind.DIFF_HOMOGRAPHY:
        scene = PlaneScene(normal=(0.2, -0.1, 1.0), d=2.0)
        return scene, ConstantMotion(_SWEEP_MOTION)
    scene = RandomPointsScene(depth_range=(1.0, 5.0))
    if kind is ModelKind.ANGULAR_VELOCITY:
        return scene, ConstantMotion(Velocity(nu=(0, 0, 0), omega=_SWEEP_MOTION.omega))
    return scene, ConstantMotion(_SWEEP_MOTION)


def _sweep_error(kind, observations, truth):
    v = truth.velocity
    if kind is ModelKind.OPTICAL_FLOW:
        u, valid = solve_optical_flow(observations, v)
        if not valid.any():
            return float("nan")
        rel = (np.linalg.norm(u[valid] - truth.u[valid], axis=1)
               / np.linalg.norm(truth.u[valid], axis=1))
        return float(np.median(rel))
    if kind is ModelKind.DEPTH:
        z, valid = solve_depth(observations, v)
        if not valid.any():
            return float("nan")
        return float(np.median(np.abs(z[valid] - truth.z[valid]) / truth.z[valid]))
    if kind is ModelKind.ANGULAR_VELOCITY:
        est, gt = solve_angular_velocity(observations), v.omega
    elif kind is ModelKind.SIX_DOF:
        fit = solve_6dof(observations, truth.z)
        est, gt = np.r_[fit.nu, fit.omega], np.r_[v.nu, v.omega]
    else:
        h_d, _ = recover_true_hd(solve_diff_homography(observations))
        est, gt = h_d.h, truth.hd.h
    return float(np.linalg.norm(est - gt) / np.linalg.norm(gt))


def run_noise_sweep(kind, noise_grid_px=(0.01, 0.1, 1.0, 10.0, 100.0),
                    trials=20, samples=1000, seed=0):
    """Median relative estimation error per noise level, at DEFAULT_INTRINSICS.

    Trial datasets reuse the same seeds across levels (only the noise
    scale changes), making the degradation curve a deterministic, almost
    surely monotone function of the noise level.
    """
    grid = np.asarray(noise_grid_px, dtype=float)
    if (grid.size == 0 or not np.all(np.isfinite(grid)) or np.any(grid < 0)
            or np.any(np.diff(grid) <= 0)):
        raise ValueError("noise grid must be finite, non-negative and "
                         "strictly increasing")
    integer("trials", trials, 1)
    integer("samples", samples, 1)
    uint64("seed", seed)
    scene, motion = _sweep_setup(kind)
    kind_idx = _SWEEP_KIND_INDEX[kind]
    trial_seeds = [
        int(np.random.SeedSequence(entropy=seed, spawn_key=(kind_idx, j))
            .generate_state(1)[0]) for j in range(trials)]
    errs = np.zeros((grid.size, trials))
    for li, sigma in enumerate(grid):
        for j in range(trials):
            observations, truth = generate_dataset(
                scene, motion, count=samples, window=0.5,
                noise=NoiseSpec(sigma_px=float(sigma)), seed=trial_seeds[j])
            errs[li, j] = _sweep_error(kind, observations, truth)
    return SweepResult(kind=kind, noise_px=grid,
                       median=np.median(errs, axis=1),
                       q25=np.percentile(errs, 25, axis=1),
                       q75=np.percentile(errs, 75, axis=1),
                       trials=trials, samples=samples)
