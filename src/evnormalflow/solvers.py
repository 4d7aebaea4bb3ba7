"""Linear least-squares solvers on the normal-flow constraint.

A global model is a flow u = O(x) theta that one parameter vector predicts
at every observation, and a set of linear equations  n^T O(x) theta =
|n|^2  built per observation:

  angular velocity  theta = omega,       rows n^T B(x)
  six dof           theta = (nu, omega), rows n^T [A(x)/Z | B(x)]
  homography        theta = vec(H),      rows n^T C(x); the stacked system
                    is rank-deficient by one (H and H + eps I produce the
                    same flow), resolved by the minimum-norm solution

Given the camera's motion, flow and depth are closed forms per pixel:
solve_optical_flow solves each pixel's 2x2 system, the constraint row plus
the differential epipolar row, and solve_depth gives
Z = n^T A(x) nu / (|n|^2 - n^T B(x) omega).

Each global model's flow is written once, in _flow_model, as K-length
columns over positions; geometry's interaction matrices A, B, C and D are
the paper's notation for the same flows, and no runtime code calls them.
build_rows derives the constraint rows from _flow_model: row j is the
normal component of the flow that unit parameter j predicts.  solve_depth
takes A(x) nu and B(x) omega from the six-dof flow at unit depth, and
synthesis.generate_dataset its samples' flows from the same model.

Every solver takes an Observations; a sequence of Observations (such as
one-row sets) is concatenated once on entry.  The per-pixel solvers work
on all pixels at once and return (values, valid), with NaN where a
pixel's system is singular.  stack_and_solve handles the stacked
systems.  ransac_estimate wraps them for outlier-contaminated data: it
builds the rows once, solves minimal samples from them, scores MSAC on
the distance from each normal flow to the constraint line of the flow a
hypothesis predicts, then refits the consensus, weighted, at a threshold
it takes from the noise of the data.

Both run on groups of rows.  _ransac_groups fits every contiguous group
of observations in lockstep: each round draws one minimal sample per
running group, exactly as a lone call would, and scores the hypotheses in
one pass over the rows of the groups still running; the refits then solve
all groups together.  A group of _PROBE_MIN rows or more first scores each
hypothesis on a fixed probe of _PROBE_ROWS of its rows, once it has a
best: a hypothesis whose probe cost cannot beat the best's, at confidence
1 - _DELTA, is not scored on the rest (a bail-out test, Capel 2005), and
when every group's hypothesis is rejected the pass over all rows is
skipped.  The rounds run in batches of up to _BATCH (after Nister's
preemptive RANSAC, 2003): a batch's samples are drawn, solved as one stack
and probed in one pass, then the rounds are replayed in order against the
best so far, so the draws and every result are those of one round at a
time.  _solve_groups is the least-squares solve behind stack_and_solve and
the refits, a two-level TSQR in bounded memory: each group's weighted rows
fill 64-row leaves, a chunk of leaves at a time is factored in one stacked
QR, and each group's leaf factors once more, so no solve copies all its
rows.  Every sum, median and solve takes one group's rows alone, so a
group's result does not depend on the groups beside it; ransac_estimate
and stack_and_solve are the one-group calls, and the spline init is the
many-group one.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDepth, NoConsensus, PureRotation,
                     RankDeficient, SolverDegeneracy, UnderDetermined,
                     integer, interval, positive, uint64)
from .geometry import (DiffHomography, Velocity, as_observations,
                       epipolar_terms)

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
    """threshold is a loose upper bound on e = |n^T O(x) theta - |n|^2| /
    |O(x) theta|, the distance from a measured normal flow to the
    constraint line of the flow a hypothesis predicts, in calibrated units
    (1/s).  A pixel-domain value in px/s divided by sqrt(fx * fy) gives it;
    the default 0.06 is 12 px/s at the 200 px focal length this package
    targets.  It caps the MSAC score; ransac_estimate takes the inlier
    threshold itself from the data, about 3 sigma of the inliers' e, and
    never lets it exceed this bound.  So the bound needs only to sit well
    above the measurement noise and below most outliers.
    """

    threshold: float = 0.06
    max_iterations: int = 1000
    confidence: float = 0.99
    seed: int = 0

    def __post_init__(self):
        positive("threshold", self.threshold)
        interval("confidence", self.confidence, 0, 1)
        integer("max_iterations", self.max_iterations, 1)
        uint64("seed", self.seed)


@dataclass(frozen=True)
class SolveInfo:
    rank: int
    cond: float


@dataclass(frozen=True)
class FitReport:
    """One RANSAC run: rms is the RMS of e over the inliers, threshold the
    inlier threshold on e that the scale step took from the data, and
    hit_cap says that sampling stopped at max_iterations before the
    adaptive count.  rows_scored counts the rows on which the MSAC loop
    scored the hypotheses: the probe's rows included, none for a
    rank-deficient sample.  It is iterations times the number of
    observations when no hypothesis is probed and none is rank-deficient.
    refits counts the weighted refits of the consensus, 1 to 10."""

    kind: ModelKind
    theta: np.ndarray
    inliers: np.ndarray
    rms: float
    cond: float
    iterations: int
    rows_scored: int
    hit_cap: bool
    inlier_ratio: float
    threshold: float
    refits: int


def stack_and_solve(a, b, min_rank=None):
    """Least-squares solve of a theta = b via QR, then SVD of the factor R.

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
    return theta[0], SolveInfo(rank=int(rank[0]), cond=float(cond[0]))


# A group's weighted rows, zero-padded at its end, fill leaves of _PAD_ROWS
# rows each, or of the least multiple of it that holds p + 1 rows, so that
# R of a leaf's [a | b] is square.  Each leaf holds the rows of one group, at
# the same places whatever groups lie beside it.
_PAD_ROWS = 64
# The leaves are copied and factored a chunk of about this many bytes at a
# time: 2 048 rows of a homography's [a | b].
_CHUNK_BYTES = 160 * 1024


def _solve_groups(a, b, sel, gid, n_groups, min_rank=None, weight=None):
    """stack_and_solve for each group of rows: (theta, rank, cond, errors),
    one row or entry per group.  Row i of group gid[i], gid non-decreasing,
    is a[sel[i]] theta = b[sel[i]], scaled by weight[i] when given.

    errors[g] is None, or the RankDeficient that stack_and_solve raises on
    group g alone; theta[g] is zero there.  A two-level TSQR (Demmel,
    Grigori, Hoemmen and Langou 2012) that never copies all the rows: the
    leaves, a chunk at a time, are factored in one stacked QR, and each
    group's leaf factors, stacked, once more; groups with as many leaves
    share that QR, and a one-leaf group keeps its leaf's factor.  In exact
    arithmetic neither the zero rows nor the two levels change the singular
    values or the solution.
    """
    p = a.shape[1]
    first = np.searchsorted(gid, np.arange(n_groups + 1))
    m = np.diff(first)
    leaf = -(-(p + 1) // _PAD_ROWS) * _PAD_ROWS
    leaves = -(-m // leaf)
    start = np.cumsum(leaves) - leaves
    # the leaves laid end to end, group by group: row i goes to row slot[i]
    slot = np.arange(len(sel)) + (start * leaf - first[:-1])[gid]
    n_leaves = int(leaves.sum())
    per_chunk = max(1, _CHUNK_BYTES // (8 * leaf * (p + 1)))
    cuts = np.searchsorted(slot, np.arange(0, n_leaves + per_chunk, per_chunk)
                           * leaf).tolist()
    factors = np.empty((n_leaves, p + 1, p + 1))
    buf = np.empty((min(per_chunk, n_leaves) * leaf, p + 1))
    for c, lo in enumerate(range(0, n_leaves, per_chunk)):
        hi = min(lo + per_chunk, n_leaves)
        rows = slice(cuts[c], cuts[c + 1])
        at = slot[rows] - lo * leaf
        chunk = buf[:(hi - lo) * leaf]
        # written in place when no padding lies between the chunk's rows
        dense = at[-1] == len(at) - 1
        ab = chunk[:len(at)] if dense else np.empty((len(at), p + 1))
        ab[:, :p] = np.take(a, sel[rows], axis=0)
        ab[:, p] = np.take(b, sel[rows])
        if weight is not None:
            ab *= weight[rows, None]
        if dense:
            chunk[len(at):] = 0.0
        else:
            chunk.fill(0.0)
            chunk[at] = ab
        factors[lo:hi] = np.linalg.qr(chunk.reshape(hi - lo, leaf, p + 1),
                                      mode="r")
    theta, rank = np.zeros((n_groups, p)), np.zeros(n_groups, dtype=np.intp)
    cond = np.full(n_groups, np.nan)
    errors = [None if k else RankDeficient("all-zero system")
              for k in m.tolist()]
    for count in np.unique(leaves[m > 0]).tolist():
        groups = np.flatnonzero(leaves == count)
        # [a | b] = Q R: the top p rows of R hold R_a, with a's singular
        # values, and Q^T b, so a theta = b and R_a theta = Q^T b share their
        # least-squares solutions
        group_leaves = start[groups, None] + np.arange(count)
        r_ab = factors[group_leaves].reshape(len(groups), -1, p + 1)
        if count > 1:
            r_ab = np.linalg.qr(r_ab, mode="r")
        u, s, vt = np.linalg.svd(r_ab[:, :p, :p])
        kept = s > s[:, :1] * (np.maximum(m[groups], p) * _EPS)[:, None]
        r = kept.sum(axis=1)
        coef = np.divide((r_ab[:, None, :p, p] @ u)[:, 0], s,
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
    violates cheirality; it is reported, not clamped.  A zero translation
    leaves every depth unobservable: PureRotation, as in solve_optical_flow.
    """
    if not np.any(v.nu):
        raise PureRotation("translational velocity is zero")
    obs = as_observations(observations)
    n0, n1 = obs.n[:, 0], obs.n[:, 1]
    # the six-dof flow at unit depth: A(x) nu is that of (nu, 0), and
    # B(x) omega that of (0, omega)
    flow = _flow_model(obs.xy, ModelKind.SIX_DOF, np.ones(len(obs)))
    ax, ay = flow(np.r_[v.nu, 0.0, 0.0, 0.0])
    bx, by = flow(np.r_[0.0, 0.0, 0.0, v.omega])
    num = n0 * ax + n1 * ay
    den = obs.mag2 - (n0 * bx + n1 * by)
    num_scale = np.linalg.norm(obs.n, axis=1) * np.hypot(ax, ay)
    valid = (np.abs(num) > _REL_TOL * num_scale) & (num_scale > 0)
    valid &= np.abs(den) > _REL_TOL * obs.mag2
    z = np.full(len(obs), np.nan)
    z[valid] = num[valid] / den[valid]
    return z, valid


def _flow_model(xy, kind, depths=None):
    """The one place where each global model's flow is written: a function
    that maps theta to (ux, uy), the flow O(x) theta that the parameters
    predict at every position of xy (K, 2), written out over K-length
    columns so that no (K, 2, p) operator is built.  build_rows derives the
    constraint rows from it; ransac_estimate builds those rows once per
    call to solve its hypotheses, and scores them on the same flow.
    geometry's interaction matrices are the same models in the paper's
    notation.  The per-pixel kinds share no parameters across pixels:
    ValueError, naming the closed form that solves them.
    """
    if kind is ModelKind.OPTICAL_FLOW:
        raise ValueError("optical flow is per pixel: solve_optical_flow")
    if kind is ModelKind.DEPTH:
        raise ValueError("depth is per pixel: solve_depth")
    x, y = xy[:, 0], xy[:, 1]
    if kind is ModelKind.DIFF_HOMOGRAPHY:
        def homography(h):
            w = h[6] * x + h[7] * y + h[8]
            return (h[0] * x + h[1] * y + h[2] - x * w,
                    h[3] * x + h[4] * y + h[5] - y * w)
        return homography

    def rotational(w):
        xy = x * y
        return (xy * w[0] - (1.0 + x * x) * w[1] + y * w[2],
                (1.0 + y * y) * w[0] - xy * w[1] - x * w[2])
    if kind is ModelKind.ANGULAR_VELOCITY:
        return rotational
    if kind is not ModelKind.SIX_DOF:
        raise ValueError(f"unknown kind {kind}")
    if depths is None:
        raise ValueError("six-dof rows need per-observation depths")
    z = np.asarray(depths, dtype=float).reshape(-1)
    if z.size != len(x):
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
    return six_dof


def build_rows(observations, kind, depths=None):
    """Stack per-observation constraint rows (a, b) with a theta = b: row j
    of a is n . flow(e_j), the normal component of the flow that unit
    parameter j predicts under the kind's model in _flow_model, the one
    place it is written, and b is |n|^2.  ransac_estimate builds them once
    per call.  SIX_DOF needs positive per-observation depths; the per-pixel
    kinds have no such rows (ValueError)."""
    obs = as_observations(observations)
    flow = _flow_model(obs.xy, kind, depths)
    n0, n1 = obs.n[:, 0], obs.n[:, 1]
    a = np.empty((len(obs), kind.param_dim))
    for j, (ux, uy) in enumerate(map(flow, np.eye(kind.param_dim))):
        np.add(n0 * ux, n1 * uy, out=a[:, j])
    return a, obs.mag2


def _solve_stacked(observations, kind, depths=None):
    """Least-squares theta of kind's stacked rows at its required rank;
    UnderDetermined below kind's minimal sample."""
    obs = as_observations(observations)
    c = kind.minimal_samples
    if len(obs) < c:
        raise UnderDetermined(f"need >= {c} observations, got {len(obs)}")
    a, b = build_rows(obs, kind, depths=depths)
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
    s2 = |u|^2, arrays of any one shape; inf where u is zero or not
    finite."""
    e2 = np.full(r.shape, np.inf)
    np.divide(r * r, s2, out=e2, where=(s2 > 0) & (s2 < np.inf))
    return e2


# Refits stop once at most _SETTLED of a group's observations change side
# in a round, at the latest after _MAX_REFITS: a loose bound lets outliers
# into the first consensus, and the scale takes a few rounds to settle on
# the inliers' noise.  The last few observations to change move the fit
# far less than its noise does.
_SETTLED = 1e-3
_MAX_REFITS = 10
# 3 sigma of a Gaussian, estimated as 1.4826 times the median absolute value.
_SCALE = 3.0 * 1.4826
# The threshold's floor, relative to the RMS |n| of a group.  Extracted
# normal flows have tails heavier than a Gaussian's, and at their few parts
# in 10^5 of noise 3 sigma alone cuts the tail: on a clean moving-edge
# stream it dropped 1% of the edge flows and raised the homography error
# by a fifth.  3e-4 |n| keeps that tail, lies far below sensor noise (3
# sigma of 0.1 px is 1.5e-3 at a 200 px focal length, against an RMS |n|
# near 0.25) and far above rounding error, so noise-free data keep every
# inlier.
_FLOOR = 3e-4
# The probe's rows.  On robust-solve data at the 0.06 bound the median
# hypothesis holds about 0.40 of the rows as inliers and the best 0.71; the
# Hoeffding margin at 500 rows is 0.096 t^2.  After the first best the
# probe rejected 13/24, 21/23 and 27/39 six-dof hypotheses and 56/65,
# 35/40 and 39/42 homography ones at the benchmark's seeds 1-3, and 500
# rows are 2.5% of its K = 20 000.
_PROBE_ROWS = 500
# On robust-solve data at 0.5 px, seeds 1-10, the probe made a call 5-23%
# slower at 1 000 and 2 000 observations and 8-35% faster at 4 000 and
# 8 000.  The spline init's intervals, about 200 observations each, are
# never probed.
_PROBE_MIN = 4000
# The chance that the probe rejects a hypothesis whose full cost would beat
# the best: a call meets a handful of such hypotheses, one per new best.
_DELTA = 1e-4
# The most rounds drawn, solved and probed together.  16 read the same
# robust-solve pass_ref as 8 (seed 2, three pairs of 35 s runs): past 8 a
# call's time is its draws, full scorings and refits, which no batch shares.
_BATCH = 8


def ransac_estimate(observations, kind, cfg=None, depths=None):
    """MSAC with a local-optimisation refit over normal-flow observations,
    for a global model: ANGULAR_VELOCITY, SIX_DOF (with positive
    per-observation depths) or DIFF_HOMOGRAPHY; the per-pixel kinds raise
    ValueError.

    A hypothesis theta predicts a flow u at every observation; it is scored
    on e = |n . u - |n|^2| / |u|, the distance from the measured normal flow
    to the constraint line of u, by the MSAC cost sum(min(e^2, t^2)) with
    t = cfg.threshold (Torr & Zisserman 2000).  Minimal samples come from
    per-iteration substreams derived from (seed, iteration), so the result
    is reproducible and does not depend on evaluation order; ties in cost
    keep the earliest iteration.  Sampling stops at the adaptive count for
    the best hypothesis's inlier ratio, or at max_iterations (hit_cap).

    With at least 4000 observations, each hypothesis drawn after the first
    best is scored on a probe of 500 of them first, drawn once per call
    from a substream of the seed that no minimal sample uses.  It is
    rejected, and not scored on the rest, when its mean MSAC term there
    exceeds best_cost / K + t^2 sqrt(ln(1 / delta) / 1000), delta = 1e-4:
    Hoeffding's bound for sampling without replacement, so a hypothesis
    that would beat the best is rejected with probability at most delta.
    A hypothesis the probe passes is scored on all rows, so the probe
    changes report.rows_scored, and the fit only with that probability.
    Up to 8 rounds are drawn, solved and probed at once, then accepted or
    rejected one by one in order; the draws and the report, iterations and
    rows_scored included, are those of one round at a time.

    The inlier threshold comes from the data; cfg.threshold is only its
    upper bound.  The noise scale sigma = 1.4826 * median(e) is first
    estimated over the best hypothesis's consensus {e <= cfg.threshold},
    and the threshold is t = min(cfg.threshold, max(3 sigma, floor)), where
    floor = 3e-4 times the RMS |n| keeps the heavy tail of nearly noise-free
    extracted flows and every inlier of noise-free data.  The inliers
    {e <= t} are refit, rows weighted by 1/|u| so that the refit minimises
    sum(e^2) (LO-RANSAC, Chum et al. 2003); after each refit sigma and t
    are estimated again at the refit parameters over the previous inliers,
    and the inliers recomputed.  Refits stop once at most one observation,
    or one in 1000, changes side, and after 10 at the latest.  Every
    reported inlier, and no other observation, satisfies
    e <= report.threshold.  This is the one-group case of _ransac_groups.
    """
    obs = as_observations(observations)
    result, = _ransac_groups(obs, kind, [0, len(obs)], cfg or RansacConfig(),
                             depths)
    if isinstance(result, SolverDegeneracy):
        raise result
    return result


def _draws(seed, sizes, c):
    """default_rng(seed).choice(k, c, replace=False) for each size k, drawn
    once per distinct size from one generator reset to its fresh state, so
    that a group's rows do not depend on the groups beside it: round i's
    minimal samples at seed [cfg.seed, i], the probes at a seed of their
    own."""
    rng = np.random.default_rng(seed)
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
    ok &= np.isfinite(theta).all(axis=1)
    theta[~ok] = 0.0
    return theta, ok


class _GroupRows:
    """The rows of some groups (ascending group indices), in group order,
    with their constraint rows a, their |n|^2 (the right-hand side of a)
    and the flow model written over them; with picks, only the rows
    picks[j] of the j-th group, offsets within it.

    A single contiguous range of rows is a view, not a copy.  gid gives each
    row its group's position among groups, starts each group's first row
    here and first its first row in obs.
    """

    def __init__(self, obs, kind, depths, a, bounds, groups, picks=None):
        lo, hi = bounds[groups], bounds[groups + 1]
        sizes = hi - lo if picks is None else np.full(len(groups), picks.shape[1])
        self.groups, self.sizes, self.first = groups, sizes, lo[:, None]
        self.starts = np.cumsum(sizes) - sizes
        self.gid = np.repeat(np.arange(len(groups)), sizes)
        if picks is not None:
            index = (self.first + picks).ravel()
        elif np.array_equal(lo[1:], hi[:-1]):
            index = slice(lo[0], hi[-1])
        else:
            index = np.repeat(lo - self.starts, sizes) + np.arange(len(self.gid))
        n = obs.n[index]
        self.n0, self.n1, self.mag2 = n[:, 0], n[:, 1], obs.mag2[index]
        self.a = a[index]
        self.flow = _flow_model(obs.xy[index], kind,
                                None if depths is None else depths[index])

    def residual(self, theta):
        """(r, s2) = (n . u - |n|^2, |u|^2) at every row, for the flow u that
        theta[g] predicts over group g's rows; theta (G, B, p), B hypotheses
        per group, gives r and s2 (B, rows), one row per hypothesis."""
        ux, uy = self.flow(self.per_row(theta.T))
        return self.n0 * ux + self.n1 * uy - self.mag2, ux * ux + uy * uy

    def per_row(self, values):
        """values[..., g] for each row's group g; one group's values, kept
        as a last axis of length 1, broadcast instead."""
        return values[..., :1] if len(self.groups) == 1 else values[..., self.gid]

    def sums(self, values):
        """Per-group sums along the last axis of values, each added over its
        group's rows in order."""
        return np.add.reduceat(values, self.starts, axis=-1)

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


def _ransac_groups(obs, kind, bounds, cfg, depths=None):
    """ransac_estimate on every contiguous group obs[bounds[g]:bounds[g+1]]
    at once: a list holding, per group, its FitReport or the
    SolverDegeneracy that ransac_estimate raises on that group alone.

    Rows and the flow model are built once.  The groups run MSAC in
    lockstep: round i draws each running group's sample as a lone call
    would and scores the hypotheses in one pass over the rows of the groups
    still running, with costs, counts and adaptive stops kept per group.
    Rounds run in batches of B = min(_BATCH, rounds left), the rounds left
    being the fewest that a running group has before its adaptive count or
    the cap, and one while a group has no best: the batch's minimal
    systems, B per group, are solved as one stack and its hypotheses probed
    in one pass.  The rounds are then replayed in order, each against the
    best so far; a new best that lowers a group's count stops it within the
    batch, and its hypotheses left there are neither counted nor scored.
    The refits then run for all groups together, and a group stops
    refitting once its inliers settle.  Each sum, median and solve takes
    one group's rows alone, so a group's result does not depend on the
    groups beside it.
    A group smaller than twice the minimal sample can hold no consensus,
    and draws no sample.
    """
    bounds = np.asarray(bounds, dtype=np.intp)
    sizes = np.diff(bounds)
    c = kind.minimal_samples
    a, b = build_rows(obs, kind, depths)
    # an array, so that the probe's index arrays can index it
    depths = None if depths is None else np.asarray(depths).reshape(-1)
    results = [None] * len(sizes)
    drawn = sizes >= 2 * c
    for g in np.flatnonzero(~drawn):
        results[g] = (
            UnderDetermined(f"need >= {c} observations, got {sizes[g]}")
            if sizes[g] < c else
            NoConsensus(f"{sizes[g]} observations < {2 * c}: no consensus"))

    def rows_of(groups, picks=None):
        return _GroupRows(obs, kind, depths, a, bounds, groups, picks)

    t2 = cfg.threshold ** 2
    best_cost = np.full(len(sizes), np.inf)
    best_theta = np.zeros((len(sizes), kind.param_dim))
    best_count = np.zeros(len(sizes), dtype=np.intp)
    needed = np.full(len(sizes), float(cfg.max_iterations))
    iterations = np.zeros(len(sizes), dtype=np.intp)
    scored = np.zeros(len(sizes), dtype=np.int64)
    # each probed group's probe rows, drawn once from a stream of the seed
    # that no minimal sample uses
    probed = drawn & (sizes >= _PROBE_MIN)
    picks = None
    if probed.any():
        picks = np.zeros((len(sizes), _PROBE_ROWS), dtype=np.intp)
        picks[probed] = np.sort(_draws(
            np.random.SeedSequence(cfg.seed, spawn_key=(1,)), sizes[probed],
            _PROBE_ROWS), axis=1)
    # Hoeffding: the mean of _PROBE_ROWS terms in [0, t^2], drawn without
    # replacement, exceeds the mean over all rows by more than this with
    # probability at most _DELTA
    margin = t2 * math.sqrt(math.log(1 / _DELTA) / (2 * _PROBE_ROWS))

    def runs(groups):
        """The rows of the running groups, the positions of the probed ones
        among them, and those groups' probe rows."""
        at = np.flatnonzero(probed[groups])
        return rows_of(groups), at, (
            rows_of(groups[at], picks[groups[at]]) if at.size else None)

    p = kind.param_dim
    running = np.flatnonzero(drawn)
    if running.size:
        rows, at, probe = runs(running)
    i = 0
    while running.size:
        # a batch of the rounds that every running group runs unless a new
        # best lowers its count; one round while a group has no best
        n_batch = 1 if np.isinf(best_cost[running]).any() else int(min(
            _BATCH, min(needed[running].min(), cfg.max_iterations) - i))
        samples = np.stack(
            [rows.first + _draws([cfg.seed, i + j], rows.sizes, c)
             for j in range(n_batch)], axis=1)
        thetas, oks = _solve_minimal(a[samples].reshape(-1, c, p),
                                     b[samples].reshape(-1, c))
        thetas = thetas.reshape(len(running), n_batch, p)
        oks = oks.reshape(len(running), n_batch)
        # the probe's mean MSAC term of every hypothesis it may test; read
        # below only where a test falls
        if probe is not None and (
                oks[at] & (best_cost[probe.groups] < np.inf)[:, None]).any():
            e2 = _squared_distance(*probe.residual(thetas[at]))
            means = np.zeros((n_batch, len(running)))
            means[:, at] = probe.sums(np.minimum(e2, t2)) / _PROBE_ROWS
        # the rounds replayed in order; col gives the running groups'
        # columns in the batch
        batch, col, probe_col = running, slice(None), at
        for j in range(n_batch):
            theta, full = thetas[col, j], oks[col, j].copy()
            # a hypothesis is scored on all rows unless its group's probe
            # rejects it: its mean MSAC term there is too high to beat the best
            if probe is not None:
                best = best_cost[probe.groups]
                tested = full[at] & (best < np.inf)
                if tested.any():
                    full[at] &= ~tested | (means[j, probe_col] <= best / sizes[
                        probe.groups] + margin)
                    scored[probe.groups[tested]] += _PROBE_ROWS
            if full.any():
                scored[running[full]] += rows.sizes[full]
                e2 = _squared_distance(*rows.residual(theta))
                cost = rows.sums(np.minimum(e2, t2))
                better = full & (cost < best_cost[running])
                if better.any():
                    count = rows.sums(e2 <= t2)
                    for k in np.flatnonzero(better):
                        g = running[k]
                        best_cost[g], best_theta[g] = cost[k], theta[k]
                        best_count[g] = count[k]
                        needed[g] = _adaptive_iterations(
                            int(count[k]) / int(sizes[g]), c, cfg.confidence)
            i += 1
            iterations[running] = i
            stay = i < np.minimum(needed[running], cfg.max_iterations)
            if not stay.all():
                # a stopped group's hypotheses left in the batch are dropped
                running = running[stay]
                if not running.size:
                    break
                rows, at, probe = runs(running)
                col = np.searchsorted(batch, running)
                probe_col = col[at]

    for g in np.flatnonzero(drawn & (best_count < 2 * c)):
        results[g] = NoConsensus(f"best consensus {best_count[g]} < {2 * c} "
                                 f"after {iterations[g]} iterations")
    live = np.flatnonzero(drawn & (best_count >= 2 * c))
    if not live.size:
        return results
    rows = rows_of(live)
    floor = _FLOOR * np.sqrt(rows.sums(rows.mag2) / rows.sizes)
    theta = best_theta[live]
    r, s2 = rows.residual(theta)
    e = np.sqrt(_squared_distance(r, s2))
    inliers = e <= cfg.threshold

    def drop(gone):
        """Take the groups where gone holds out of the refits."""
        nonlocal rows, live, theta, cond, floor, inliers, s2
        kept = ~gone
        inliers, s2 = inliers[kept[rows.gid]], s2[kept[rows.gid]]
        live, theta, cond = live[kept], theta[kept], cond[kept]
        floor = floor[kept]
        if live.size:
            rows = rows_of(live)

    for refit in range(_MAX_REFITS + 1):
        # the scale over the last inliers at the current parameters
        threshold = np.minimum(cfg.threshold, np.maximum(
            _SCALE * rows.medians(e, inliers), floor))
        last, inliers = inliers, e <= rows.per_row(threshold)
        # a group ends once its inliers settle, each on its own, so that it
        # ends where a lone call on it would
        done = np.full(len(live), refit == _MAX_REFITS)
        if refit:
            done |= rows.sums(inliers != last) <= np.maximum(
                _SETTLED * rows.sizes, 1)
        if done.any():
            counts = rows.sums(inliers)
            sq_sums = rows.sums(np.where(inliers, e * e, 0.0))
            for j in np.flatnonzero(done):
                g, m, k = live[j], int(counts[j]), int(rows.sizes[j])
                if m < 2 * c:
                    results[g] = NoConsensus(
                        f"{m} inliers < {2 * c} after refitting")
                    continue
                start = rows.starts[j]
                results[g] = FitReport(
                    kind=kind, theta=theta[j].copy(),
                    inliers=np.flatnonzero(inliers[start:start + k]),
                    rms=float(np.sqrt(sq_sums[j] / m)), cond=float(cond[j]),
                    iterations=int(iterations[g]),
                    rows_scored=int(scored[g]),
                    hit_cap=bool(needed[g] > cfg.max_iterations),
                    inlier_ratio=m / k, threshold=float(threshold[j]),
                    refits=refit)
            drop(done)
            if not live.size:
                return results
        sel = np.flatnonzero(inliers)
        theta, _, cond, errors = _solve_groups(
            rows.a, rows.mag2, sel, rows.gid[sel], len(live),
            kind.required_rank, weight=1.0 / np.sqrt(s2[sel]))
        failed = np.array([err is not None for err in errors])
        if failed.any():
            for j in np.flatnonzero(failed):
                results[live[j]] = errors[j]
            drop(failed)
            if not live.size:
                return results
        r, s2 = rows.residual(theta)
        e = np.sqrt(_squared_distance(r, s2))
