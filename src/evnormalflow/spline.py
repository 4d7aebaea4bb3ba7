"""Continuous-time motion trajectories as uniform cubic B-splines.

A trajectory with control points c_0..c_{n-1}, knot origin t0 and spacing
dt evaluates at s = (t - t0) / dt inside segment j = floor(s) - 1 as

    theta(t) = sum_m B_m(u) c_{j+m},   u = s - floor(s),

with the uniform cubic basis

    B(u) = 1/6 [(1-u)^3, 3u^3 - 6u^2 + 4, -3u^3 + 3u^2 + 3u + 1, u^3].

Full cubic support exists on [t0 + dt, t0 + (n-2) dt).  The normal-flow
constraint is linear in the control points, so trajectory fitting is one
linear least-squares problem, optionally robustified by Huber
iteratively-reweighted least squares.  An observation in segment j touches
only the 4 * dim unknowns of c_j..c_{j+3}, so the fit keeps just those row
values, sums their weighted outer products segment by segment into the
block-banded normal matrix (size (n_ctrl * dim)^2, independent of the
number of observations), and solves it after symmetric Jacobi scaling,
with a Cholesky factorisation as the rank check.  Each Huber sweep stops
once a round lowers the objective by at most IRLS_TOL * max(1, objective),
or after max_rounds rounds; the report's hit_cap says whether any sweep
used all its rounds without meeting that rule.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (OutOfDomain, RankDeficient, SolverDegeneracy,
                     UnderDetermined)
from .geometry import Observations, as_observations
from .solvers import ModelKind, RansacConfig, _ransac_groups, build_rows
# Not called here: init_from_linear runs _ransac_groups.  perfbench/calls.py
# rebinds spline.ransac_estimate during traced runs (its INTERNAL table), so
# the name stays bound to solvers.ransac_estimate.
from .solvers import ransac_estimate  # noqa: F401

DEFAULT_KNOT_SPACING = 0.05

# A Huber sweep has converged once one IRLS round lowers the objective by
# at most this fraction of max(1, objective).
IRLS_TOL = 1e-5

_SPLINE_KINDS = (ModelKind.ANGULAR_VELOCITY, ModelKind.SIX_DOF)


def basis_weights(u):
    """Uniform cubic B-spline weights for local coordinate(s) u in [0, 1)."""
    u = np.asarray(u, dtype=float)
    u2 = u * u
    u3 = u2 * u
    return np.stack([
        (1.0 - u) ** 3 / 6.0,
        (3.0 * u3 - 6.0 * u2 + 4.0) / 6.0,
        (-3.0 * u3 + 3.0 * u2 + 3.0 * u + 1.0) / 6.0,
        u3 / 6.0,
    ], axis=-1)


@dataclass(frozen=True)
class SplineTrajectory:
    """control_points has shape (n_ctrl, dim), n_ctrl >= 4."""

    control_points: np.ndarray
    t0: float
    dt: float

    def __post_init__(self):
        cp = np.atleast_2d(np.asarray(self.control_points, dtype=float))
        if cp.shape[0] < 4:
            raise ValueError("need at least 4 control points")
        _check_knot_spacing(self.dt)
        object.__setattr__(self, "control_points", cp)

    @property
    def n_ctrl(self):
        return self.control_points.shape[0]

    @property
    def dim(self):
        return self.control_points.shape[1]

    @property
    def n_segments(self):
        return self.n_ctrl - 3

    @property
    def domain(self):
        return (self.t0 + self.dt, self.t0 + (self.n_ctrl - 2) * self.dt)


def _locate(traj, t):
    """Map times to (segment index, local u); raises OutOfDomain."""
    t = np.asarray(t, dtype=float)
    s = (t - traj.t0) / traj.dt
    # Snap away float rounding so the advertised domain bounds behave as
    # written (inclusive below, exclusive above).
    snap = np.rint(s)
    tol = 32.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(snap))
    s = np.where(np.abs(s - snap) <= tol, snap, s)
    lo, hi = 1.0, traj.n_ctrl - 2.0
    if np.any(s < lo) or np.any(s >= hi):
        bad = t[(s < lo) | (s >= hi)]
        raise OutOfDomain(
            f"t={np.atleast_1d(bad)[0]} outside [{traj.domain[0]}, {traj.domain[1]})")
    base = np.floor(s)
    return base.astype(int) - 1, s - base


def evaluate(traj, t):
    """Evaluate the trajectory; returns (dim,) for scalar t, else (T, dim)."""
    scalar = np.ndim(t) == 0
    seg, u = _locate(traj, np.atleast_1d(t))
    w = basis_weights(u)                                   # (T, 4)
    idx = seg[:, None] + np.arange(4)                      # (T, 4)
    vals = np.einsum("tm,tmd->td", w, traj.control_points[idx])
    return vals[0] if scalar else vals


def _check_knot_spacing(dt):
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"knot spacing must be positive and finite, got {dt}")


def trajectory_covering(t_min, t_max, dt):
    """(t0, n_ctrl) of the smallest uniform spline whose evaluable domain
    contains [t_min, t_max]."""
    _check_knot_spacing(dt)
    if t_max < t_min:
        raise ValueError("t_max < t_min")
    span = t_max - t_min
    # Domain is [t_min, t_min + (n-3) dt); floor + 4 is the smallest n with
    # (n-3) dt strictly above the span.
    n_ctrl = int(math.floor(span / dt + 1e-12)) + 4
    return t_min - dt, n_ctrl


@dataclass(frozen=True)
class SplineFitProblem:
    """Observations plus the model kind evaluated along the trajectory.

    Only ANGULAR_VELOCITY (dim 3) and SIX_DOF (dim 6, needs per-observation
    depths) vary meaningfully within an event window.
    """

    observations: Observations
    kind: ModelKind
    depths: np.ndarray | None = None
    robust: bool = True
    huber_scale: float | None = None
    max_rounds: int = 10
    reg_weight: float = 1e-6

    def __post_init__(self):
        if self.kind not in _SPLINE_KINDS:
            raise ValueError(f"spline fitting supports {_SPLINE_KINDS}, got {self.kind}")
        if (isinstance(self.max_rounds, bool)
                or not isinstance(self.max_rounds, numbers.Integral)
                or self.max_rounds < 1):
            raise ValueError(
                f"max_rounds must be an integer >= 1, got {self.max_rounds!r}")
        for name in ("huber_scale", "reg_weight"):
            value = getattr(self, name)
            if value is None and name == "huber_scale":
                continue        # the scale is estimated from the residuals
            # bool is a number too, but True is no scale or weight
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if self.huber_scale is not None and not 0.0 < self.huber_scale < math.inf:
            raise ValueError(
                f"huber_scale must be positive and finite, got {self.huber_scale}")
        if not 0.0 <= self.reg_weight < math.inf:
            raise ValueError(
                f"reg_weight must be non-negative and finite, got {self.reg_weight}")
        object.__setattr__(self, "observations",
                           as_observations(self.observations))
        if self.depths is not None:
            d = np.asarray(self.depths, dtype=float).reshape(-1)
            if d.size != len(self.observations):
                raise ValueError("depths length must match observations")
            object.__setattr__(self, "depths", d)


@dataclass
class SplineFitReport:
    rms: float
    segment_counts: np.ndarray
    starved_segments: list
    starved_control_points: list
    irls_rounds: int
    objective_history: list
    cond: float     # of the Jacobi-scaled normal matrix at the final solve
    hit_cap: bool   # some sweep ran max_rounds rounds without converging


def _sorted_problem(problem):
    """Fixed accumulation order: sort by (t, x, y) so results do not depend
    on how the caller ordered the observations."""
    obs = problem.observations
    key = np.lexsort((obs.xy[:, 1], obs.xy[:, 0], obs.t))
    depths = problem.depths[key] if problem.depths is not None else None
    return obs[key], depths


class _BlockRows:
    """The design rows of a spline fit, kept as their nonzero blocks.

    Observation k in segment j = seg[k] constrains only c_j..c_{j+3}, the
    4 * dim columns from j * dim of the flattened control points; vals[k]
    holds its row there and rhs[k] its right-hand side.  The normal
    equations are summed over runs of rows with one segment; fit passes
    observations sorted by time, so seg is non-decreasing and each segment
    is one run.

    Rows are scaled by 1/|n|: noise on the flow components produces
    constraint noise proportional to the flow magnitude, so this is the
    inverse-variance weighting.  It also keeps slow- and fast-motion spans
    of a trajectory equally constrained per observation.
    """

    def __init__(self, obs, depths, kind, traj):
        rows, rhs = build_rows(obs, kind, depths=depths)
        inv = 1.0 / np.maximum(np.linalg.norm(obs.n, axis=1), 1e-12)
        rows = rows * inv[:, None]
        seg, u = _locate(traj, obs.t)
        w = basis_weights(u)                               # (K, 4)
        self.vals = (w[:, :, None] * rows[:, None, :]).reshape(len(obs), -1)
        self.rhs = rhs * inv
        self.seg = seg
        self.n_cols = traj.n_ctrl * traj.dim
        self.cols = seg[:, None] * traj.dim + np.arange(self.vals.shape[1])
        starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
        # (first row, end row, first column) of each segment's run
        self.runs = list(zip(starts.tolist(), np.r_[starts[1:], len(obs)].tolist(),
                             self.cols[starts, 0].tolist()))

    def residuals(self, theta):
        """a @ theta - rhs."""
        return np.einsum("kj,kj->k", self.vals, theta[self.cols]) - self.rhs

    def normal_equations(self, wts):
        """(a^T W a, a^T W rhs) for row weights wts, one run at a time."""
        gram = np.zeros((self.n_cols, self.n_cols))
        g = np.zeros(self.n_cols)
        wv = self.vals * wts[:, None]
        width = self.vals.shape[1]
        for lo, hi, c in self.runs:
            gram[c:c + width, c:c + width] += wv[lo:hi].T @ self.vals[lo:hi]
            g[c:c + width] += wv[lo:hi].T @ self.rhs[lo:hi]
        return gram, g


def _scaled_solve(gram, rhs):
    """Solve gram @ x = rhs for symmetric positive definite gram.

    The matrix is scaled to unit diagonal first (symmetric Jacobi), which
    removes the spread between control points with many observations and
    starved ones held only by the regularisation.  The scaled system is
    solved by one LAPACK call; its Cholesky factorisation serves only as
    the definiteness check.  Returns x and the scaled matrix.  A zero
    diagonal or a failed factorisation means the fit has no unique
    solution: RankDeficient.
    """
    diag = np.diag(gram)
    if not np.all(diag > 0.0):
        raise RankDeficient(
            f"{int(np.sum(~(diag > 0.0)))} spline unknowns unconstrained")
    d = 1.0 / np.sqrt(diag)
    scaled = gram * d[:, None] * d[None, :]
    try:
        np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(f"spline normal equations singular: {exc}") from exc
    return np.linalg.solve(scaled, rhs * d) * d, scaled


def _starved(seg_counts, n_ctrl):
    """Control points all of whose supporting segments are empty."""
    n_seg = seg_counts.size
    starved = []
    for i in range(n_ctrl):
        segs = range(max(0, i - 3), min(n_seg, i + 1))
        if all(seg_counts[j] == 0 for j in segs):
            starved.append(i)
    return starved


def _regularization_rows(starved, n_ctrl, dim, weight):
    rows = []
    for i in starved:
        row = np.zeros(n_ctrl)
        if 0 < i < n_ctrl - 1:
            row[i - 1], row[i], row[i + 1] = -0.5, 1.0, -0.5
        elif i == 0:
            row[0], row[1] = 1.0, -1.0
        else:
            row[i], row[i - 1] = 1.0, -1.0
        rows.append(row * weight)
    if not rows:
        return np.zeros((0, n_ctrl * dim))
    base = np.array(rows)
    return np.kron(base, np.eye(dim))


def _huber_objective(r, delta):
    a = np.abs(r)
    quad = a <= delta
    return float(np.sum(np.where(quad, 0.5 * r * r, delta * a - 0.5 * delta * delta)))


def fit(problem, init):
    """Refine an initial trajectory against the normal-flow constraint.

    Plain linear least squares over control points, or Huber IRLS when
    problem.robust: weights w_i = min(1, delta/|r_i|) with delta frozen
    during each sweep of reweighted solves, so every solve can only
    decrease the Huber objective.  With the automatic scale (3x the median
    absolute residual, in the 1/|n|-scaled units of _BlockRows), the
    scale is re-frozen from the converged residuals and the sweep repeated
    while that keeps shrinking; lowering delta at fixed parameters also
    lowers the objective, so the recorded history stays monotone across
    sweeps.  An explicit problem.huber_scale is honoured as-is (single
    sweep).  A sweep ends once a round lowers the objective by at most
    IRLS_TOL * max(1, objective), or after problem.max_rounds rounds;
    report.hit_cap is True when any sweep ended on that cap instead.

    Every solve, robust or not, forms the weighted normal equations
    a^T W a + reg^T reg from each observation's 4*dim nonzero row values,
    summed segment by segment, and solves them after Jacobi scaling; no
    K x (n_ctrl*dim) design is built.  Raises RankDeficient when that
    matrix is not positive definite (its Cholesky factorisation fails), or
    is numerically singular at the last solve (smallest eigenvalue of the
    scaled matrix at most n * eps times the largest); report.cond is that
    matrix's condition number.
    """
    obs, depths = _sorted_problem(problem)
    n_ctrl, dim = init.n_ctrl, init.dim
    if dim != problem.kind.param_dim:
        raise ValueError(f"init dim {dim} != model dim {problem.kind.param_dim}")
    if len(obs) < n_ctrl * dim:
        raise UnderDetermined(
            f"{len(obs)} observations < {n_ctrl * dim} unknowns")

    rows = _BlockRows(obs, depths, problem.kind, init)
    seg_counts = np.bincount(rows.seg, minlength=n_ctrl - 3)
    starved_cp = _starved(seg_counts, n_ctrl)
    row_scale = float(np.median(np.linalg.norm(rows.vals, axis=1))) or 1.0
    reg = _regularization_rows(starved_cp, n_ctrl, dim,
                               problem.reg_weight * row_scale)
    reg_gram = reg.T @ reg

    def solve(wts):
        gram, g = rows.normal_equations(wts)
        return _scaled_solve(gram + reg_gram, g)

    theta = init.control_points.reshape(-1).copy()
    r = rows.residuals(theta)
    history = []
    hit_cap = False
    if not problem.robust:
        theta, scaled = solve(np.ones(len(obs)))
        rounds = 1
    else:
        auto_scale = problem.huber_scale is None
        delta = (3.0 * float(np.median(np.abs(r))) if auto_scale
                 else problem.huber_scale)
        if delta <= 0:
            delta = np.inf
        history.append(_huber_objective(r, delta)
                       + 0.5 * float(np.sum((reg @ theta) ** 2)))
        rounds = 0
        for _sweep in range(6 if auto_scale else 1):
            for _ in range(problem.max_rounds):
                wts = np.minimum(1.0, delta / np.maximum(np.abs(r), 1e-300))
                theta, scaled = solve(wts)
                rounds += 1
                r = rows.residuals(theta)
                obj = _huber_objective(r, delta) + 0.5 * float(np.sum((reg @ theta) ** 2))
                history.append(obj)
                if history[-2] - obj <= IRLS_TOL * max(1.0, obj):
                    break
            else:
                hit_cap = True
            if not auto_scale:
                break
            new_delta = 3.0 * float(np.median(np.abs(r)))
            if not 0.0 < new_delta < 0.9 * delta:
                break
            delta = new_delta
            history.append(_huber_objective(r, delta)
                           + 0.5 * float(np.sum((reg @ theta) ** 2)))
    # Rank is set by which rows exist, not by their positive weights, so
    # the last solve tells whether any of them had a unique solution.
    eig = np.linalg.eigvalsh(scaled)
    if not eig[0] > len(eig) * np.finfo(float).eps * eig[-1]:
        raise RankDeficient(
            "spline normal equations numerically singular "
            f"(eigenvalues {eig[0]:.3g} to {eig[-1]:.3g})")
    r = rows.residuals(theta)
    traj = SplineTrajectory(theta.reshape(n_ctrl, dim), t0=init.t0, dt=init.dt)
    report = SplineFitReport(
        rms=float(np.sqrt(np.mean(r ** 2))), segment_counts=seg_counts,
        starved_segments=[int(j) for j in np.nonzero(seg_counts == 0)[0]],
        starved_control_points=starved_cp, irls_rounds=rounds,
        objective_history=history, cond=float(eig[-1] / eig[0]),
        hit_cap=hit_cap)
    return traj, report


@dataclass
class SplineInitReport:
    """ransac_iterations sums the hypotheses drawn by the per-segment fits
    that returned; capped_segments lists those that stopped at
    max_iterations.  Segments whose fit failed are in filled_segments."""

    segment_estimates: np.ndarray
    good_segments: list
    filled_segments: list
    ransac_iterations: int
    capped_segments: list


def init_from_linear(observations, kind, dt=DEFAULT_KNOT_SPACING, cfg=None,
                     depths=None):
    """Initial trajectory from independent per-knot-interval RANSAC fits.

    Each segment's observations get a linear RANSAC fit; one lockstep call
    fits every segment, with the draws and results of one ransac_estimate
    call per segment.  Degenerate or empty segments are filled by
    averaging the nearest good neighbours and flagged.  Control points then
    come from a small regularized system asking the spline to pass through
    the segment estimates at segment midpoints (for constant motion this
    reproduces the single linear estimate at every control point).
    depths, when given, must hold one positive depth per observation:
    ValueError on a length mismatch, DegenerateDepth on a depth that is
    not positive.
    """
    if kind not in _SPLINE_KINDS:
        raise ValueError(f"spline fitting supports {_SPLINE_KINDS}, got {kind}")
    obs = as_observations(observations)
    if not obs:
        raise UnderDetermined("no observations")
    if depths is not None:
        # a bad depth raises DegenerateDepth when the rows are built, before
        # any segment is fitted
        depths = np.asarray(depths, dtype=float).reshape(-1)
        if depths.size != len(obs):
            raise ValueError("depths length must match observations")
    cfg = cfg or RansacConfig()
    t = obs.t
    t0, n_ctrl = trajectory_covering(float(t.min()), float(t.max()), dt)
    dim = kind.param_dim
    n_seg = n_ctrl - 3

    s = (t - t0) / dt
    seg = np.clip(np.floor(s).astype(int) - 1, 0, n_seg - 1)
    # Observation indices of segment j, in increasing order, are
    # order[bounds[j]:bounds[j + 1]].
    order = np.argsort(seg, kind="stable")
    bounds = np.searchsorted(seg[order], np.arange(n_seg + 1))
    results = _ransac_groups(obs[order], kind, bounds, cfg,
                             depths=None if depths is None else depths[order])
    estimates = np.full((n_seg, dim), np.nan)
    is_good = np.zeros(n_seg, dtype=bool)
    iterations, capped = 0, []
    for j, report in enumerate(results):
        if isinstance(report, SolverDegeneracy):
            continue
        estimates[j] = report.theta
        is_good[j] = True
        iterations += report.iterations
        if report.hit_cap:
            capped.append(j)
    if not is_good.any():
        raise UnderDetermined("no segment supported a linear fit")
    good_arr = np.flatnonzero(is_good)
    filled = np.flatnonzero(~is_good)
    for j in filled:
        # the nearest good segment on each side that has one
        pos = np.searchsorted(good_arr, j)
        estimates[j] = np.mean(estimates[good_arr[max(pos - 1, 0):pos + 1]],
                               axis=0)

    # Interpolation rows: spline(segment midpoint) = estimate.
    w_mid = basis_weights(0.5)
    a = np.zeros((n_seg, n_ctrl))
    for j in range(n_seg):
        a[j, j:j + 4] = w_mid
    lam = 1e-6
    d1 = np.diff(np.eye(n_ctrl), axis=0)
    d2 = np.diff(np.eye(n_ctrl), n=2, axis=0)
    full = np.concatenate([a, lam * d1, lam * d2])
    rhs = np.concatenate([estimates,
                          np.zeros((len(d1) + len(d2), dim))])
    cp, *_ = np.linalg.lstsq(full, rhs, rcond=None)
    traj = SplineTrajectory(cp, t0=t0, dt=dt)
    return traj, SplineInitReport(segment_estimates=estimates,
                                  good_segments=good_arr.tolist(),
                                  filled_segments=filled.tolist(),
                                  ransac_iterations=iterations,
                                  capped_segments=capped)
