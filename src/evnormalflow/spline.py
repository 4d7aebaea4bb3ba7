"""Continuous-time motion trajectories as uniform cubic B-splines.

A trajectory with control points c_0..c_{n-1}, knot origin t0 and spacing
dt evaluates at s = (t - t0) / dt inside segment j = floor(s) - 1 as

    theta(t) = sum_m B_m(u) c_{j+m},   u = s - floor(s),

with the uniform cubic basis

    B(u) = 1/6 [(1-u)^3, 3u^3 - 6u^2 + 4, -3u^3 + 3u^2 + 3u + 1, u^3].

Full cubic support exists on [t0 + dt, t0 + (n-2) dt).  The normal-flow
constraint is linear in the control points, so trajectory fitting is one
Huber iteratively-reweighted least-squares (IRLS) loop; plain least squares
is its first round at an infinite Huber scale, where every weight is 1.
An observation in segment j touches only the 4 * dim unknowns of
c_j..c_{j+3}, so the fit keeps just those row values, sums their weighted
outer products segment by segment into the block-banded normal matrix
(size (n_ctrl * dim)^2, independent of the number of observations), and
solves it after symmetric Jacobi scaling, one factorisation per round.
The eigenvalues of the last round's matrix are the rank check.  The IRLS
loop stops once a round lowers the objective by at most
IRLS_TOL * max(1, objective), or after max_rounds rounds; the report's
hit_cap says whether it used all its rounds without meeting that rule.
Every time maps to its knot interval by one rule, _locate, in the init,
the fit and evaluation alike: a time on a knot belongs to the interval
that starts there.  The observations have one order too, by t, x, y,
then n and depth, set where they enter (SplineFitProblem and
init_from_linear), so the init's draws and the fit's sums, and with them
the trajectory, do not depend on how the caller ordered the rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (OutOfDomain, RankDeficient, SolverDegeneracy,
                     UnderDetermined, finite, integer, non_negative,
                     positive)
from .geometry import Observations, as_observations
from .solvers import ModelKind, RansacConfig, _ransac_groups, build_rows
# Not called here: init_from_linear runs _ransac_groups.  perfbench/calls.py
# rebinds spline.ransac_estimate during traced runs (its INTERNAL table), so
# the name stays bound to solvers.ransac_estimate.
from .solvers import ransac_estimate  # noqa: F401

DEFAULT_KNOT_SPACING = 0.05

# The IRLS loop has converged once one round lowers the objective by at
# most this fraction of max(1, objective).
IRLS_TOL = 1e-5

# Weight of the smoothness rows that hold starved control points, relative
# to the median norm of a design row.
REG_WEIGHT = 1e-6

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
        finite("t0", self.t0)
        positive("dt", self.dt)
        object.__setattr__(self, "control_points", cp)

    @property
    def n_ctrl(self):
        return self.control_points.shape[0]

    @property
    def dim(self):
        return self.control_points.shape[1]

    @property
    def domain(self):
        return (self.t0 + self.dt, self.t0 + (self.n_ctrl - 2) * self.dt)


def _locate(traj, t):
    """Map times to (segment index, local u); raises OutOfDomain, for NaN too."""
    t = np.asarray(t, dtype=float)
    s = (t - traj.t0) / traj.dt
    # Snap away float rounding so the advertised domain bounds behave as
    # written (inclusive below, exclusive above).  The rounding of t - t0
    # grows with the size of t and t0, not of s, so the tolerance does too.
    snap = np.rint(s)
    with np.errstate(invalid="ignore"):          # inf - inf at an infinite t
        size = np.abs(snap) + np.maximum(np.abs(t), abs(traj.t0)) / traj.dt
        tol = 32.0 * np.finfo(float).eps * np.maximum(1.0, size)
        s = np.where(np.abs(s - snap) <= tol, snap, s)
    lo, hi = 1.0, traj.n_ctrl - 2.0
    outside = ~((s >= lo) & (s < hi))            # NaN is outside too
    if np.any(outside):
        raise OutOfDomain(
            f"t={t[outside][0]} outside [{traj.domain[0]}, {traj.domain[1]})")
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


def trajectory_covering(t_min, t_max, dt):
    """(t0, n_ctrl) of the smallest uniform spline whose evaluable domain
    contains [t_min, t_max]."""
    dt = positive("dt", dt)
    t_min = finite("t_min", t_min)
    span = non_negative("t_max - t_min", finite("t_max", t_max) - t_min)
    # Domain is [t_min, t_min + (n-3) dt); floor + 4 is the smallest n with
    # (n-3) dt strictly above the span.
    n_ctrl = int(math.floor(finite("(t_max - t_min) / dt", span / dt) + 1e-12)) + 4
    return t_min - dt, n_ctrl


@dataclass(frozen=True)
class SplineFitProblem:
    """Observations plus the model kind evaluated along the trajectory.

    Only ANGULAR_VELOCITY (dim 3) and SIX_DOF (dim 6, needs per-observation
    depths) vary meaningfully within an event window.  observations and
    depths are stored sorted by t, x, y, then n and depth, whatever order
    they came in.
    """

    observations: Observations
    kind: ModelKind
    depths: np.ndarray | None = None
    robust: bool = True
    max_rounds: int = 20

    def __post_init__(self):
        obs, depths = _spline_inputs(self.observations, self.kind, self.depths)
        integer("max_rounds", self.max_rounds, 1)
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "depths", depths)


def _spline_inputs(observations, kind, depths):
    """(Observations, float depths or None) for a spline of kind, both
    sorted by t, x, y, then n and depth: the one order of the spline's
    observations, so nothing downstream depends on how the caller ordered
    them.  ValueError on a kind without a spline or on depths whose length
    does not match.  A depth that is not positive raises DegenerateDepth
    when the rows are built, before any segment is fitted."""
    if kind not in _SPLINE_KINDS:
        raise ValueError(f"spline fitting supports {_SPLINE_KINDS}, got {kind}")
    obs = as_observations(observations)
    if depths is not None:
        depths = np.asarray(depths, dtype=float).reshape(-1)
        if depths.size != len(obs):
            raise ValueError("depths length must match observations")
    # The first of these that puts every row in order: the rows as given
    # (a SplineFitProblem's are); a quicksort by time, several times
    # cheaper than a lexsort, which only tied times can leave out of order;
    # the lexsort by (t, x, y); the lexsort by every key.
    keys = [obs.t, *obs.xy.T, *obs.n.T] + ([] if depths is None else [depths])
    for m in (0, 1, 3, len(keys)):
        order = (np.lexsort(keys[m - 1::-1]) if m > 1
                 else np.argsort(obs.t) if m else slice(None))
        if _in_order(keys, order):
            break
    return obs[order], None if depths is None else depths[order]


def _in_order(keys, order):
    """Whether the rows taken in order are sorted by keys, first key first."""
    tied = True                             # adjacent rows equal so far
    for k in keys:
        d = np.diff(k[order])
        if np.any(tied & (d < 0)):
            return False
        tied = tied & (d == 0)
        if not tied.any():
            return True
    return True


@dataclass
class SplineFitReport:
    rms: float
    segment_counts: np.ndarray
    starved_segments: list
    starved_control_points: list
    irls_rounds: int
    objective_history: list
    cond: float     # of the Jacobi-scaled normal matrix at the final solve
    hit_cap: bool   # IRLS ran max_rounds rounds without converging


class _BlockRows:
    """The design rows of a spline fit, kept as their nonzero blocks.

    Observation k in segment j = seg[k] constrains only c_j..c_{j+3}, the
    4 * dim columns from j * dim of the flattened control points; vals[k]
    holds its row there and rhs[k] its right-hand side; starved lists the
    control points that no row reaches (_starved).  The normal
    equations are summed over runs of rows with one segment; a
    SplineFitProblem holds its observations sorted by time, so seg is
    non-decreasing and each segment is one run.

    Rows are scaled by 1/|n|, which turns n . u = |n|^2 into
    (n / |n|) . u = |n|: each residual is the predicted flow's component
    along the gradient less the measured normal flow's length, in flow
    units, so slow- and fast-motion spans of a trajectory are equally
    constrained per observation.  It is not an inverse-variance weight:
    under isotropic noise of deviation sigma on n the residual deviates by
    about sigma |u| / |n|, which grows as the flow turns from the gradient.
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
        self.starved = _starved(seg, w, traj.n_ctrl)
        self.dim = traj.dim
        self.n_cols = traj.n_ctrl * traj.dim
        starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
        # (first row, end row, first column) of each segment's run
        self.runs = list(zip(starts.tolist(), np.r_[starts[1:], len(obs)].tolist(),
                             (seg[starts] * traj.dim).tolist()))

    def residuals(self, theta):
        """a @ theta - rhs."""
        width = self.vals.shape[1]
        # row j of windows is theta[j * dim:j * dim + width]: segment j's columns
        windows = np.lib.stride_tricks.sliding_window_view(theta, width)[::self.dim]
        return np.einsum("kj,kj->k", self.vals, windows[self.seg]) - self.rhs

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
    solved by one LAPACK call, one LU factorisation.  Returns x and the
    scaled matrix.  A zero diagonal, or a solve that finds the matrix
    exactly singular, means the fit has no unique solution: RankDeficient.
    Near-singular matrices pass here; fit's final eigenvalue check is the
    one that decides.
    """
    diag = np.diag(gram)
    if not np.all(diag > 0.0):
        raise RankDeficient(
            f"{int(np.sum(~(diag > 0.0)))} spline unknowns unconstrained")
    d = 1.0 / np.sqrt(diag)
    scaled = gram * d[:, None] * d[None, :]
    try:
        x = np.linalg.solve(scaled, rhs * d) * d
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(f"spline normal equations singular: {exc}") from exc
    return x, scaled


def _starved(seg, w, n_ctrl):
    """Control points that no observation's basis weight reaches: an
    observation in segment seg[k] weighs c_{seg[k] + m} by w[k, m], and
    its last weight, u^3 / 6, is 0 on a knot, so a last time on a knot
    leaves the last control point unreached."""
    reached = (seg[:, None] + np.arange(4))[w > 0]
    return np.flatnonzero(np.bincount(reached, minlength=n_ctrl) == 0).tolist()


def _regularization_rows(starved, n_ctrl, dim, weight):
    """One smoothness row per starved control point i, times weight: c_i
    less the mean of its two neighbours, or at an end c_i less its one
    neighbour."""
    i = np.asarray(starved, dtype=np.intp)[:, None]
    j = np.arange(n_ctrl)
    end = (i == 0) | (i == n_ctrl - 1)
    base = np.where(j == i, 1.0, np.where(np.abs(j - i) == 1,
                                          np.where(end, -1.0, -0.5), 0.0))
    return np.kron(base * weight, np.eye(dim))


def _huber_objective(r, delta):
    """sum of r^2 / 2 where |r| <= delta, delta (|r| - delta / 2) beyond;
    the linear branch is evaluated only where it applies, so delta = inf
    gives the plain sum of squares."""
    a = np.abs(r)
    out = 0.5 * r * r
    lin = a > delta
    out[lin] = delta * a[lin] - 0.5 * delta * delta
    return float(np.sum(out))


def _check_determined(n_obs, n_ctrl, dim):
    if n_obs < n_ctrl * dim:
        raise UnderDetermined(f"{n_obs} observations < {n_ctrl * dim:.6g} unknowns")


def fit(problem, init):
    """Refine an initial trajectory against the normal-flow constraint.

    Huber IRLS over the control points: weights w_i = min(1, delta/|r_i|),
    with delta set once to 3x the median absolute residual of the init (in
    the 1/|n|-scaled units of _BlockRows) and held for the whole loop, so
    every solve can only decrease the Huber objective.  The loop ends once
    a round lowers the objective by at most IRLS_TOL * max(1, objective),
    or after problem.max_rounds rounds; report.hit_cap is True when it
    ended on that cap instead.  Without problem.robust, or when the init's
    median residual is 0, delta is infinite: every weight is 1, the first
    round is the plain least-squares solution and no reweighting can move
    it, so the loop ends there.  report.objective_history holds the init's
    objective and each round's.

    Every round forms the weighted normal equations a^T W a + reg^T reg
    from each observation's 4*dim nonzero row values, summed segment by
    segment, and solves them after Jacobi scaling; no K x (n_ctrl*dim)
    design is built.  Raises RankDeficient when that matrix has a zero
    diagonal or an exactly singular solve, or is numerically singular at
    the last round (smallest eigenvalue of the scaled matrix at most
    n * eps times the largest); report.cond is that matrix's condition
    number.  The rows are summed in the problem's order (by t, x, y, n and
    depth), so the result does not depend on the order the caller gave
    them in.
    """
    obs, depths = problem.observations, problem.depths
    n_ctrl, dim = init.n_ctrl, init.dim
    if dim != problem.kind.param_dim:
        raise ValueError(f"init dim {dim} != model dim {problem.kind.param_dim}")
    _check_determined(len(obs), n_ctrl, dim)

    rows = _BlockRows(obs, depths, problem.kind, init)
    seg_counts = np.bincount(rows.seg, minlength=n_ctrl - 3)
    row_scale = float(np.median(np.linalg.norm(rows.vals, axis=1))) or 1.0
    reg = _regularization_rows(rows.starved, n_ctrl, dim,
                               REG_WEIGHT * row_scale)
    reg_gram = reg.T @ reg

    def solve(wts):
        gram, g = rows.normal_equations(wts)
        return _scaled_solve(gram + reg_gram, g)

    theta = init.control_points.reshape(-1).copy()
    r = rows.residuals(theta)
    delta = 3.0 * float(np.median(np.abs(r))) if problem.robust else np.inf
    if delta <= 0:
        delta = np.inf
    history = [_huber_objective(r, delta)
               + 0.5 * float(np.sum((reg @ theta) ** 2))]
    hit_cap = False
    for rounds in range(1, problem.max_rounds + 1):
        wts = np.minimum(1.0, delta / np.maximum(np.abs(r), 1e-300))
        theta, scaled = solve(wts)
        r = rows.residuals(theta)
        obj = _huber_objective(r, delta) + 0.5 * float(np.sum((reg @ theta) ** 2))
        history.append(obj)
        if delta == np.inf or history[-2] - obj <= IRLS_TOL * max(1.0, obj):
            break
    else:
        hit_cap = True
    # Rank is set by which rows exist, not by their positive weights, so
    # the last solve tells whether any of them had a unique solution.
    eig = np.linalg.eigvalsh(scaled)
    if not eig[0] > len(eig) * np.finfo(float).eps * eig[-1]:
        raise RankDeficient(
            "spline normal equations numerically singular "
            f"(eigenvalues {eig[0]:.3g} to {eig[-1]:.3g})")
    traj = SplineTrajectory(theta.reshape(n_ctrl, dim), t0=init.t0, dt=init.dt)
    report = SplineFitReport(
        rms=float(np.sqrt(np.mean(r ** 2))), segment_counts=seg_counts,
        starved_segments=[int(j) for j in np.nonzero(seg_counts == 0)[0]],
        starved_control_points=rows.starved, irls_rounds=rounds,
        objective_history=history, cond=float(eig[-1] / eig[0]),
        hit_cap=hit_cap)
    return traj, report


@dataclass
class SplineInitReport:
    """segment_iterations counts the hypotheses each segment's fit drew, 0
    where it failed, and ransac_iterations sums them; capped_segments lists
    the fits that stopped at max_iterations.  Segments whose fit failed are
    in filled_segments."""

    segment_estimates: np.ndarray
    good_segments: list
    filled_segments: list
    ransac_iterations: int
    segment_iterations: list
    capped_segments: list


def init_from_linear(observations, kind, dt=DEFAULT_KNOT_SPACING, cfg=None,
                     depths=None):
    """Initial trajectory from independent per-knot-interval RANSAC fits.

    Each segment's observations get a linear RANSAC fit; one lockstep call
    fits every segment, with the draws and results of one ransac_estimate
    call per segment.  Degenerate or empty segments are filled by
    averaging the nearest good neighbours and flagged.  Each control point
    is then set directly to the mean of the estimates of the two segments
    that meet at its knot (variation-diminishing quasi-interpolation, de
    Boor, A Practical Guide to Splines), so a step in the estimates does
    not make the control points ring.  Collocation at segment midpoints
    would: its weights [1, 23, 23, 1]/48 sum to zero on the alternating
    mode (+1, -1, +1, ...), which it leaves free.  For constant motion
    every control point is the single linear estimate.
    Each observation falls in the segment that fit and evaluate place it
    in: one on a knot belongs to the segment that starts there.  The
    observations are sorted first, as in SplineFitProblem, so each
    segment's rows, and the draws RANSAC makes among them, do not depend
    on how the caller ordered them.
    depths, when given, must hold one positive depth per observation:
    ValueError on a length mismatch, DegenerateDepth on a depth that is
    not positive.  Fewer observations than the trajectory's n_ctrl * dim
    unknowns raise UnderDetermined, as in fit, before any segment is made.
    """
    obs, depths = _spline_inputs(observations, kind, depths)
    if not obs:
        raise UnderDetermined("no observations")
    cfg = cfg or RansacConfig()
    t0, n_ctrl = trajectory_covering(float(obs.t[0]), float(obs.t[-1]), dt)
    dim = kind.param_dim
    _check_determined(len(obs), n_ctrl, dim)
    n_seg = n_ctrl - 3

    seg, _ = _locate(SplineTrajectory(np.zeros((n_ctrl, 1)), t0=t0, dt=dt), obs.t)
    # The rows are in time order, so segment j's are obs[bounds[j]:bounds[j + 1]].
    bounds = np.searchsorted(seg, np.arange(n_seg + 1))
    results = _ransac_groups(obs, kind, bounds, cfg, depths=depths)
    estimates = np.full((n_seg, dim), np.nan)
    is_good = np.zeros(n_seg, dtype=bool)
    iterations, capped = [0] * n_seg, []
    for j, report in enumerate(results):
        if isinstance(report, SolverDegeneracy):
            continue
        estimates[j] = report.theta
        is_good[j] = True
        iterations[j] = report.iterations
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

    # Control point i sits at knot t0 + i dt, where segment i - 2 ends and
    # segment i - 1 begins: the mean of their estimates, clipped at the ends.
    i = np.arange(n_ctrl)
    cp = 0.5 * (estimates[np.clip(i - 2, 0, n_seg - 1)]
                + estimates[np.clip(i - 1, 0, n_seg - 1)])
    traj = SplineTrajectory(cp, t0=t0, dt=dt)
    return traj, SplineInitReport(segment_estimates=estimates,
                                  good_segments=good_arr.tolist(),
                                  filled_segments=filled.tolist(),
                                  ransac_iterations=sum(iterations),
                                  segment_iterations=iterations,
                                  capped_segments=capped)
