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

Both run on groups of rows.  _ransac_groups fits every contiguous group
of observations in lockstep: each round draws one minimal sample per
running group, exactly as a lone call would, solves the samples as one
stack, and scores them in one pass over the rows of the groups still
running; the refits then solve all groups together.  _solve_groups is
the least-squares solve behind stack_and_solve and the refits: groups of
similar size share one stacked SVD.  Every sum, median and solve takes
one group's rows alone, so a group's result does not depend on the
groups beside it; ransac_estimate and stack_and_solve are the one-group
calls, and the spline init is the many-group one.
"""
from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDepth, NoConsensus, PureRotation,
                     RankDeficient, SolverDegeneracy, TooFewObservations)
from .geometry import (DiffHomography, Velocity, as_observations,
                       epipolar_terms, matrix_a, matrix_b)

_REL_TOL = 1e-12
_EPS = np.finfo(float).eps


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
    ratio of the largest to the smallest retained singular value.  This is
    the one-group case of _solve_groups.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.ndim != 2 or a.shape[0] != b.size:
        raise ValueError("a must be (K, p) with matching rhs")
    theta, rank, cond, errors = _solve_groups(
        a, b, np.arange(len(b)), np.zeros(len(b), dtype=np.intp), 1, min_rank)
    if errors[0] is not None:
        raise errors[0]
    rms = float(np.sqrt(np.mean((a @ theta[0] - b) ** 2)))
    return theta[0], SolveInfo(rank=int(rank[0]), cond=float(cond[0]), rms=rms)


# A group's rows are padded with zero rows to a multiple of _PAD_ROWS rows:
# groups of similar size then share one stacked SVD, while the matrix each
# group is solved in depends on its own rows alone.
_PAD_ROWS = 64


def _solve_groups(a, b, sel, gid, n_groups, min_rank=None, weight=None):
    """stack_and_solve for each group of rows: (theta, rank, cond, errors),
    one row or entry per group.  Row i of group gid[i], gid non-decreasing,
    is a[sel[i]] theta = b[sel[i]], scaled by weight[i] when given.

    errors[g] is None, or the RankDeficient that stack_and_solve raises on
    group g alone; theta[g] is zero there.  Each group's rows, padded with
    zero rows to a multiple of _PAD_ROWS, are one matrix of a stacked SVD;
    in exact arithmetic the zero rows change neither the singular values
    nor the solution.
    """
    p = a.shape[1]
    first = np.searchsorted(gid, np.arange(n_groups + 1))
    m = np.diff(first)
    padded = -(-m // _PAD_ROWS) * _PAD_ROWS
    # the padded matrices one after another, grouped by size: group g's
    # starts at row base[g] of the stack
    by_size = np.argsort(padded, kind="stable")
    base = np.empty(n_groups, dtype=np.intp)
    base[by_size] = np.cumsum(padded[by_size]) - padded[by_size]
    # a padding row is its group's first row times a zero weight
    filled = by_size[m[by_size] > 0]
    src = np.repeat(sel[first[filled]], padded[filled])
    scale = np.zeros(len(src))
    at = np.arange(len(sel)) + (base - first[:-1])[gid]
    src[at] = sel
    scale[at] = 1.0 if weight is None else weight
    flat_a = a[src]
    flat_a *= scale[:, None]
    flat_b = b[src] * scale
    theta, rank = np.zeros((n_groups, p)), np.zeros(n_groups, dtype=np.intp)
    cond = np.full(n_groups, np.nan)
    errors = [None if k else RankDeficient("all-zero system")
              for k in m.tolist()]
    for size in np.unique(padded[m > 0]).tolist():
        groups = np.flatnonzero(padded == size)
        rows = slice(base[groups[0]], base[groups[0]] + len(groups) * size)
        stack_a = flat_a[rows].reshape(len(groups), size, p)
        stack_b = flat_b[rows].reshape(len(groups), size)
        u, s, vt = np.linalg.svd(stack_a, full_matrices=False)
        kept = s > s[:, :1] * (np.maximum(m[groups], p) * _EPS)[:, None]
        r = kept.sum(axis=1)
        coef = np.divide((stack_b[:, None, :] @ u)[:, 0], s,
                         out=np.zeros_like(s), where=kept)
        theta[groups] = (coef[:, None, :] @ vt)[:, 0]
        rank[groups] = r
        cond[groups] = np.divide(
            s[:, 0], s[np.arange(len(groups)), np.maximum(r - 1, 0)],
            out=np.full(len(groups), np.nan), where=r > 0)
        failed = (s[:, 0] == 0) | (r < (min_rank or 0))
        for j in np.flatnonzero(failed).tolist():
            errors[groups[j]] = RankDeficient(
                "all-zero system" if s[j, 0] == 0 else
                f"numerical rank {r[j]} < required {min_rank}")
        theta[groups[failed]] = 0.0
    return theta, rank, cond, errors


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
    inlier satisfies e <= report.threshold.  This is the one-group case of
    _ransac_groups.
    """
    obs = _observations(observations, kind)
    result, = _ransac_groups(obs, kind, [0, len(obs)], cfg or RansacConfig(),
                             velocity, depths)
    if isinstance(result, SolverDegeneracy):
        raise result
    return result


def _draws(seed, i, sizes, c):
    """Round i's minimal sample for groups of the given sizes: for size k,
    default_rng([seed, i]).choice(k, c, replace=False), drawn once per
    distinct size from one generator reset to its fresh state."""
    rng = np.random.default_rng([seed, i])
    fresh = rng.bit_generator.state if len(sizes) > 1 else None
    drawn = {}
    sizes = sizes.tolist()
    for k in sizes:
        if k not in drawn:
            if drawn:
                rng.bit_generator.state = fresh
            drawn[k] = rng.choice(k, c, replace=False)
    return np.array([drawn[k] for k in sizes])


def _solve_minimal(a, b):
    """(theta, ok) for the stacked minimal systems a[j] theta = b[j], each
    (c, p) with c <= p: the minimum-norm solution by SVD, as lstsq gives it.
    ok is False, and theta zero, where a[j] has rank below c at lstsq's
    default tolerance or theta is not finite."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    ok = s[:, -1] > _EPS * max(a.shape[1:]) * s[:, 0]
    # dividing by inf zeroes the rank-deficient systems without a warning
    s[~ok] = np.inf
    theta = (((b[:, None, :] @ u) / s[:, None, :]) @ vt)[:, 0]
    # one sum screens the whole stack; rows are checked only if it fails
    if not math.isfinite(theta.sum()):
        ok &= np.isfinite(theta).all(axis=1)
        theta[~ok] = 0.0
    return theta, ok


class _GroupRows:
    """The rows of some groups (ascending group indices), in group order,
    with their constraint rows a, b and the flow model written over them.

    A single contiguous range of rows is a view, not a copy.  gid gives each
    row its group's position among groups, starts each group's first row
    here and first its first row in obs.
    """

    def __init__(self, obs, kind, velocity, depths, a, b, bounds, groups):
        lo, hi = bounds[groups], bounds[groups + 1]
        sizes = hi - lo
        self.groups, self.sizes, self.first = groups, sizes, lo[:, None]
        self.starts = np.cumsum(sizes) - sizes
        self.gid = np.repeat(np.arange(len(groups)), sizes)
        if np.array_equal(lo[1:], hi[:-1]):
            index = slice(lo[0], hi[-1])
        else:
            index = np.repeat(lo - self.starts, sizes) + np.arange(len(self.gid))
        rows = obs[index]
        self.n0, self.n1, self.mag2 = rows.n[:, 0], rows.n[:, 1], rows.mag2
        self.a, self.b = a[index], b[index]
        self.flow, self.offset = _flow_model(
            rows, kind, velocity, None if depths is None else depths[index])

    def residual(self, theta):
        """(r, s2) = (n . u - |n|^2, |u|^2) at every row, for the flow u that
        row g of theta predicts over group g's rows."""
        ux, uy = self.flow(self.per_row(theta.T))
        if self.offset is not None:
            ux, uy = ux + self.offset[0], uy + self.offset[1]
        return self.n0 * ux + self.n1 * uy - self.mag2, ux * ux + uy * uy

    def per_row(self, values):
        """values[..., g] for each row's group g; one group's values
        broadcast instead."""
        return values[..., 0] if len(self.groups) == 1 else values[..., self.gid]

    def sums(self, values):
        """Per-group sums of a row column, each added over its group's rows
        in order."""
        return np.add.reduceat(values, self.starts)

    def medians(self, values, mask):
        """Per-group median of values over the rows where mask holds, equal
        to np.median of that group's values; each group needs such a row."""
        sel = np.flatnonzero(mask)
        gid = self.gid[sel]
        m = np.bincount(gid, minlength=len(self.groups))
        # each group's values in a row of its own, padded, sorted in place
        width = m.max()
        offset = np.arange(len(m)) * width - (np.cumsum(m) - m)
        at = np.arange(len(sel)) + offset[gid]
        table = np.full(len(m) * width, np.inf)
        table[at] = values[sel]
        table = table.reshape(len(m), width)
        table.sort(axis=1)
        g = np.arange(len(m))
        return (table[g, (m - 1) // 2] + table[g, m // 2]) / 2


def _ransac_groups(obs, kind, bounds, cfg, velocity=None, depths=None):
    """ransac_estimate on every contiguous group obs[bounds[g]:bounds[g+1]]
    at once: a list holding, per group, its FitReport or the
    SolverDegeneracy that ransac_estimate raises on that group alone.

    Rows and the flow model are built once.  The groups run MSAC in
    lockstep: round i draws each running group's sample as a lone call
    would, solves the minimal systems as one stack and scores them in one
    pass over the rows of the groups still running, with costs, counts and
    adaptive stops kept per group.  The three refits then run for all
    groups together.  Each sum, median and solve takes one group's rows
    alone, so a group's result does not depend on the groups beside it.
    A group smaller than twice the minimal sample can hold no consensus,
    and draws no sample.
    """
    bounds = np.asarray(bounds, dtype=np.intp)
    sizes = np.diff(bounds)
    c = kind.minimal_samples
    a, b = _rows(obs, kind, *_flow_model(obs, kind, velocity, depths))
    results = [None] * len(sizes)
    drawn = sizes >= 2 * c
    for g in np.flatnonzero(~drawn):
        results[g] = (
            TooFewObservations(f"need >= {c} observations, got {sizes[g]}")
            if sizes[g] < c else
            NoConsensus(f"{sizes[g]} observations < {2 * c}: no consensus"))

    def rows_of(groups):
        return _GroupRows(obs, kind, velocity, depths, a, b, bounds, groups)

    t2 = cfg.threshold ** 2
    best_cost = np.full(len(sizes), np.inf)
    best_theta = np.zeros((len(sizes), kind.param_dim))
    best_count = np.zeros(len(sizes), dtype=np.intp)
    needed = np.full(len(sizes), float(cfg.max_iterations))
    iterations = np.zeros(len(sizes), dtype=np.intp)
    running = np.flatnonzero(drawn)
    rows = None
    i = 0
    while running.size:
        if rows is None or len(rows.groups) != len(running):
            rows = rows_of(running)
        samples = rows.first + _draws(cfg.seed, i, rows.sizes, c)
        i += 1
        theta, ok = _solve_minimal(a[samples], b[samples])
        e2 = _squared_distance(*rows.residual(theta))
        cost = rows.sums(np.minimum(e2, t2))
        better = ok & (cost < best_cost[running])
        if better.any():
            count = rows.sums(e2 <= t2)
            for j in np.flatnonzero(better):
                g = running[j]
                best_cost[g], best_theta[g] = cost[j], theta[j]
                best_count[g] = count[j]
                needed[g] = _adaptive_iterations(
                    int(count[j]) / int(sizes[g]), c, cfg.confidence)
        iterations[running] = i
        running = running[i < np.minimum(needed[running], cfg.max_iterations)]

    for g in np.flatnonzero(drawn & (best_count < 2 * c)):
        results[g] = NoConsensus(f"best consensus {best_count[g]} < {2 * c} "
                                 f"after {iterations[g]} iterations")
    live = np.flatnonzero(drawn & (best_count >= 2 * c))
    if not live.size:
        return results
    rows = rows_of(live)
    r, s2 = rows.residual(best_theta[live])
    e = np.sqrt(_squared_distance(r, s2))
    inliers = e <= cfg.threshold
    for _ in range(_LO_REFITS):
        sel = np.flatnonzero(inliers)
        theta, _, cond, errors = _solve_groups(
            rows.a, rows.b, sel, rows.gid[sel], len(live), kind.required_rank,
            weight=1.0 / np.sqrt(s2[sel]))
        solved = np.array([err is None for err in errors])
        if not solved.all():
            for g, err in zip(live, errors):
                if err is not None:
                    results[g] = err
            inliers = inliers[solved[rows.gid]]
            live, theta, cond = live[solved], theta[solved], cond[solved]
            if not live.size:
                return results
            rows = rows_of(live)
        r, s2 = rows.residual(theta)
        e = np.sqrt(_squared_distance(r, s2))
        threshold = np.minimum(cfg.threshold, np.maximum(
            _SCALE * rows.medians(e, inliers), cfg.threshold / 100))
        inliers = e <= rows.per_row(threshold)

    counts = rows.sums(inliers)
    sq_sums = rows.sums(np.where(inliers, e * e, 0.0))
    for j, g in enumerate(live):
        m, k = int(counts[j]), int(sizes[g])
        if m < 2 * c:
            results[g] = NoConsensus(f"{m} inliers < {2 * c} after refitting")
            continue
        start = rows.starts[j]
        results[g] = FitReport(
            kind=kind, theta=theta[j].copy(),
            inliers=np.flatnonzero(inliers[start:start + k]),
            rms=float(np.sqrt(sq_sums[j] / m)), cond=float(cond[j]),
            iterations=int(iterations[g]),
            hit_cap=bool(needed[g] > cfg.max_iterations),
            inlier_ratio=m / k, threshold=float(threshold[j]))
    return results
