"""The three seeded benchmark workloads.

Each workload has a set-up that makes its inputs from the seed, a pass
that runs the pipeline on them through a `Calls` table, a check of the
pass's outputs against ground truth, a digest of those outputs, and (for
traced runs) the layer figures that need ground truth or an oracle.  All
library calls use the package defaults: no n_jobs, default
ExtractionConfig and RansacConfig.

event-pipeline  mirrors `extract` then `solve --kind diff-homography`
robust-solve    mirrors `simulate` then `solve` for six-dof and homography
spline-step     mirrors `fit-spline` on an angular-velocity step
"""
from __future__ import annotations

import hashlib
import os

import numpy as np

import evnormalflow as ev

K = ev.ModelKind
INTR = ev.synthesis.DEFAULT_INTRINSICS


def subseed(seed, k):
    """Independent integer seed number k derived from the workload seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def digest_arrays(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def rel_err(est, truth):
    return float(np.linalg.norm(np.asarray(est) - truth) / np.linalg.norm(truth))


def _obs_subset(observations, mask):
    return [o for o, keep in zip(observations, mask) if keep]


def _oracle_figures(calls, observations, truth_mask, report, err_of, **rows_kw):
    """Inlier recall and precision of a RANSAC fit, and its error over that
    of the least-squares fit on the true inliers."""
    est = np.zeros(len(observations), dtype=bool)
    est[report.inliers] = True
    both = int(np.sum(est & truth_mask))
    if "depths" in rows_kw:
        rows_kw = {"depths": rows_kw["depths"][truth_mask]}
    a, b = calls.build_rows(_obs_subset(observations, truth_mask),
                            report.kind, **rows_kw)
    oracle, _ = calls.stack_and_solve(a, b, min_rank=report.kind.required_rank)
    return {"inlier_recall": both / max(int(truth_mask.sum()), 1),
            "inlier_precision": both / max(int(est.sum()), 1),
            "err_vs_oracle": err_of(report.theta) / err_of(oracle)}


def _homography_err(theta, truth_h):
    h_d, _ = ev.recover_true_hd(np.asarray(theta).reshape(3, 3))
    return rel_err(h_d.h, truth_h)


def _candidate_err(decomposition, nu_over_d, normal, omega):
    truth = np.concatenate([nu_over_d, normal, omega])
    return min(rel_err(np.concatenate([c.nu_over_d, c.normal, c.omega]), truth)
               for c in decomposition.candidates)


class Workload:
    """Defaults for workloads that write no files and need no oracle."""

    def cleanup(self):
        pass

    def layer_figures(self, calls, inputs, out):
        return {}


class Problem(Exception):
    """A pass output broke a sanity bound taken from ground truth."""


def _require(ok, message):
    if not ok:
        raise Problem(message)


def _finite(*arrays):
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


# --------------------------------------------------------------------------
# event-pipeline

class EventPipeline(Workload):
    """Text event stream of moving edges on a fronto-parallel plane at d = 1
    under in-plane translation nu, with uniform background activity and
    Gaussian timestamp jitter; one pass runs extract then solve."""

    name = "event-pipeline"
    unit = "events"
    NU = np.array([0.4, -0.3, 0.0])
    DEPTH = 1.0
    EDGE_SPACING_PX = 40.0
    BACKGROUND = 0.05
    JITTER_S = 2e-6
    WINDOW_S = ev.ExtractionConfig().temporal_window
    SIZES = {"full": {"duration": 2.0}, "tiny": {"duration": 0.15}}
    # Sanity bounds: a pass whose outputs break one has failed.  The flow
    # bound is the extraction acceptance gate (2% magnitude error); near-clean
    # flows put the homography error near 5e-5.
    MAX_FLOW_ERR = 0.02
    MAX_HOMOGRAPHY_ERR = 0.01
    MIN_YIELD = 0.5

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.duration = self.SIZES[size]["duration"]
        tag = f"{self.name}-{seed}-{os.getpid()}"
        self.events_path = os.path.join(workdir, f"{tag}.events.txt")
        self.flows_path = os.path.join(workdir, f"{tag}.flows.csv")
        self.truth_h = ev.hd_from_plane(
            ev.Velocity(nu=self.NU, omega=np.zeros(3)),
            np.array([0.0, 0.0, 1.0]), self.DEPTH).h
        # Pixel speed of the vertical (label 0) and horizontal (label 1) edges.
        self.edge_velocity = (-INTR.fx * self.NU[0] / self.DEPTH,
                              -INTR.fy * self.NU[1] / self.DEPTH)
        self.speeds = np.abs(np.array(self.edge_velocity))

    def cleanup(self):
        for path in (self.events_path, self.flows_path):
            if os.path.exists(path):
                os.unlink(path)

    def _edges(self):
        wx, wy = self.edge_velocity
        span_x, span_y = abs(wx) * self.duration, abs(wy) * self.duration
        edges = [(ev.MovingEdge(point=(float(x0), 0.0), direction=(0.0, 1.0),
                                velocity=(wx, wy)), 0)
                 for x0 in np.arange(-span_x, INTR.width + span_x,
                                     self.EDGE_SPACING_PX)]
        edges += [(ev.MovingEdge(point=(0.0, float(y0)), direction=(1.0, 0.0),
                                 velocity=(wx, wy)), 1)
                  for y0 in np.arange(-span_y, INTR.height + span_y,
                                      self.EDGE_SPACING_PX)]
        return edges

    def stream(self, calls):
        """(text, t, x, y, label) of the seeded stream, time-ordered.

        Each edge fires once per pixel it crosses; labels are 0/1 for the
        vertical/horizontal edges and 2 for background activity.
        """
        rng = np.random.default_rng(self.seed)
        shape = (INTR.height, INTR.width)
        parts = []
        for edge, label in self._edges():
            ts = calls.surface_from_edges([edge], shape, self.duration,
                                          t_ref=self.duration).timestamps
            y, x = np.nonzero(np.isfinite(ts))
            parts.append((ts[y, x], x, y, np.full(x.size, label)))
        t, x, y, label = (np.concatenate(p) for p in zip(*parts))
        n_bg = int(round(self.BACKGROUND * t.size))
        t = np.concatenate([t, rng.uniform(0.0, self.duration, n_bg)])
        x = np.concatenate([x, rng.integers(0, INTR.width, n_bg)])
        y = np.concatenate([y, rng.integers(0, INTR.height, n_bg)])
        label = np.concatenate([label, np.full(n_bg, 2)])
        t = t + rng.normal(0.0, self.JITTER_S, t.size)
        polarity = np.where(label == 2, rng.integers(0, 2, t.size), label)
        stamps = [f"{v:.9f}" for v in t.tolist()]
        t = np.array(stamps, dtype=float)           # the values a parser reads
        order = np.lexsort((x, y, t))
        t, x, y, label = t[order], x[order], y[order], label[order]
        lines = [f"{stamps[i]} {xi} {yi} {p}\n" for i, xi, yi, p in zip(
            order.tolist(), x.tolist(), y.tolist(), polarity[order].tolist())]
        return "".join(lines), t, x, y, label

    def setup(self, calls):
        text, t, x, y, label = self.stream(calls)
        with open(self.events_path, "w") as fh:
            fh.write(text)
        # The edge that set each pixel of the time surface the pass builds:
        # the latest event inside the window ending at the last event.
        t_ref = t[-1]
        recent = np.nonzero(t > t_ref - self.WINDOW_S)[0]
        pixel = y[recent] * INTR.width + x[recent]
        latest = np.full(INTR.height * INTR.width, -1)
        for i in recent[np.lexsort((t[recent], pixel))]:   # later wins
            latest[y[i] * INTR.width + x[i]] = label[i]
        return {"events": int(t.size), "surface_label": latest,
                "digest": hashlib.sha256(text.encode()).hexdigest()}

    def items(self, inputs):
        return inputs["events"]

    def run_pass(self, calls, inputs):
        events = calls.read_events(self.events_path, width=INTR.width,
                                   height=INTR.height)
        surface = calls.build_time_surface(events, events[-1].t, self.WINDOW_S,
                                           (INTR.height, INTR.width))
        del events
        records, stats = calls.extract_normal_flows(surface, INTR)
        calls.write_flows_csv(self.flows_path, records)
        records, _ = calls.read_flows_csv(self.flows_path)
        obs = calls.records_to_obs(records, INTR)
        report = calls.ransac_estimate(obs, K.DIFF_HOMOGRAPHY)
        h_d, _ = calls.recover_true_hd(report.theta.reshape(3, 3))
        decomposition = calls.decompose_hd(h_d)
        return {"records": records, "stats": stats, "obs": obs,
                "report": report, "h_d": h_d.h, "decomposition": decomposition}

    def _flow_errors(self, inputs, records):
        px = np.array([[r.x_px, r.y_px] for r in records]).reshape(-1, 2)
        n_cal = np.array([[r.nx_cal, r.ny_cal] for r in records]).reshape(-1, 2)
        labels = inputs["surface_label"][px[:, 1].astype(int) * INTR.width
                                         + px[:, 0].astype(int)]
        # n_cal = g_cal / |g_cal|^2 with g_cal = (fx gx, fy gy); the pixel
        # normal speed is 1 / |g|.
        g_cal = n_cal / np.sum(n_cal ** 2, axis=1, keepdims=True)
        g_px = g_cal / np.array([INTR.fx, INTR.fy])
        speed = 1.0 / np.linalg.norm(g_px, axis=1)
        edge = labels <= 1
        truth = self.speeds[labels[edge]]
        return np.abs(speed[edge] - truth) / truth, labels

    def check(self, inputs, out):
        """End-to-end errors of a pass; raises Problem past a sanity bound."""
        stats, report = out["stats"], out["report"]
        _require(_finite(report.theta, out["h_d"]), "non-finite homography")
        _require(stats.emitted >= self.MIN_YIELD * stats.candidates,
                 f"{stats.emitted} flows from {stats.candidates} candidates")
        flow_err, _ = self._flow_errors(inputs, out["records"])
        errors = {"err.flow": float(np.median(flow_err)),
                  "err.homography": rel_err(out["h_d"], self.truth_h)}
        _require(errors["err.flow"] <= self.MAX_FLOW_ERR,
                 f"flow error {errors['err.flow']:.3g}")
        _require(errors["err.homography"] <= self.MAX_HOMOGRAPHY_ERR,
                 f"homography error {errors['err.homography']:.3g}")
        return errors

    def digest(self, out):
        flows = np.array([[r.t, r.x_px, r.y_px, r.nx_cal, r.ny_cal, r.inliers,
                           r.rms] for r in out["records"]])
        cands = [np.concatenate([c.nu_over_d, c.normal, c.omega])
                 for c in out["decomposition"].candidates]
        return digest_arrays(flows, out["report"].theta, out["report"].inliers,
                             out["h_d"], *cands)

    def layer_figures(self, calls, inputs, out):
        """Ground-truth figures for the traced run.  True inliers are the
        flows at pixels whose latest event came from an edge."""
        _, labels = self._flow_errors(inputs, out["records"])
        truth_mask = labels <= 1
        err_of = lambda theta: _homography_err(theta, self.truth_h)
        figures = {f"solvers.{k}.diff_homography": v for k, v in _oracle_figures(
            calls, out["obs"], truth_mask, out["report"], err_of).items()}
        figures["homography.candidate_err"] = _candidate_err(
            out["decomposition"], self.NU / self.DEPTH, [0.0, 0.0, 1.0],
            np.zeros(3))
        return figures


# --------------------------------------------------------------------------
# robust-solve

class RobustSolve(Workload):
    """Two outlier-contaminated datasets per pass, each solved by one large
    RANSAC call: six-dof with known depths, and the differential homography
    followed by its decomposition."""

    name = "robust-solve"
    unit = "observations"
    MOTION = ev.Velocity(nu=(0.2, -0.1, 0.3), omega=(0.1, -0.2, 0.15))
    PLANE = ev.PlaneScene(normal=(0.2, -0.1, 1.0), d=2.0)
    POINTS = ev.RandomPointsScene(depth_range=(1.0, 5.0))
    NOISE = ev.NoiseSpec(sigma_px=0.5, outlier_fraction=0.3)
    SIZES = {"full": {"count": 20000}, "tiny": {"count": 1500}}
    # Sanity bound: an estimate must be closer to the truth than zero is.
    # It is loose on purpose: the fixed RANSAC threshold leaves errors tens
    # of times those of the inlier-only fit here, reported through err.* and
    # solvers.err_vs_oracle rather than as failed passes.
    MAX_ERR = 1.0

    def __init__(self, seed, size, workdir):
        self.count = self.SIZES[size]["count"]
        self.seeds = (subseed(seed, 1), subseed(seed, 2))
        self.truth_six = np.concatenate([self.MOTION.nu, self.MOTION.omega])
        self.truth_h = ev.hd_from_plane(self.MOTION, np.asarray(self.PLANE.normal),
                                        self.PLANE.d).h

    def setup(self, calls):
        return {"digest": digest_arrays(np.array(self.seeds), self.truth_six,
                                        self.truth_h)}

    def items(self, inputs):
        return 2 * self.count

    def run_pass(self, calls, inputs):
        motion = ev.ConstantMotion(self.MOTION)
        obs6, truth6 = calls.generate_dataset(
            self.POINTS, motion, count=self.count, noise=self.NOISE,
            seed=self.seeds[0])
        six = calls.ransac_estimate(obs6, K.SIX_DOF, depths=truth6.z)
        obs_h, truth_h = calls.generate_dataset(
            self.PLANE, motion, count=self.count, noise=self.NOISE,
            seed=self.seeds[1])
        hom = calls.ransac_estimate(obs_h, K.DIFF_HOMOGRAPHY)
        h_d, _ = calls.recover_true_hd(hom.theta.reshape(3, 3))
        decomposition = calls.decompose_hd(h_d)
        return {"obs6": obs6, "truth6": truth6, "six": six, "obs_h": obs_h,
                "truth_h": truth_h, "hom": hom, "h_d": h_d.h,
                "decomposition": decomposition}

    def check(self, inputs, out):
        _require(_finite(out["six"].theta, out["h_d"]), "non-finite estimate")
        for key in ("six", "hom"):
            _require(len(out[key].inliers) >= 2 * out[key].kind.minimal_samples,
                     f"{key}: too few inliers")
        errors = {"err.six_dof": rel_err(out["six"].theta, self.truth_six),
                  "err.homography": rel_err(out["h_d"], self.truth_h)}
        for name, value in errors.items():
            _require(value < self.MAX_ERR, f"{name} {value:.3g}")
        return errors

    def digest(self, out):
        cands = [np.concatenate([c.nu_over_d, c.normal, c.omega])
                 for c in out["decomposition"].candidates]
        return digest_arrays(out["six"].theta, out["six"].inliers,
                             out["hom"].theta, out["hom"].inliers, out["h_d"],
                             *cands)

    def layer_figures(self, calls, inputs, out):
        figures = {}
        six_err = lambda theta: rel_err(theta, self.truth_six)
        for k, v in _oracle_figures(calls, out["obs6"], out["truth6"].inlier_mask,
                                    out["six"], six_err,
                                    depths=out["truth6"].z).items():
            figures[f"solvers.{k}.six_dof"] = v
        h_err = lambda theta: _homography_err(theta, self.truth_h)
        for k, v in _oracle_figures(calls, out["obs_h"], out["truth_h"].inlier_mask,
                                    out["hom"], h_err).items():
            figures[f"solvers.{k}.diff_homography"] = v
        figures["homography.candidate_err"] = _candidate_err(
            out["decomposition"], self.MOTION.nu / self.PLANE.d,
            self.PLANE.normal, self.MOTION.omega)
        return figures


# --------------------------------------------------------------------------
# spline-step

class SplineStep(Workload):
    """Angular velocity about z stepping from 0.5 to 2 rad/s at mid-window,
    fitted as a continuous-time spline: per-segment RANSAC initialisation,
    Huber IRLS refinement, evaluation on a grid."""

    name = "spline-step"
    unit = "observations"
    BEFORE = ev.Velocity(nu=(0.0, 0.0, 0.0), omega=(0.0, 0.0, 0.5))
    AFTER = ev.Velocity(nu=(0.0, 0.0, 0.0), omega=(0.0, 0.0, 2.0))
    NOISE = ev.NoiseSpec(sigma_px=0.5, outlier_fraction=0.1)
    KNOT_DT = 0.02
    GRID = 1000
    STEP_GUARD_KNOTS = 2
    SIZES = {"full": {"count": 10000, "window": 1.0},
             "tiny": {"count": 1500, "window": 0.3}}
    # The spline step-response gate's 5%, applied to the median.
    MAX_TRAJECTORY_ERR = 0.05

    def __init__(self, seed, size, workdir):
        self.count = self.SIZES[size]["count"]
        self.window = self.SIZES[size]["window"]
        self.seed = subseed(seed, 3)
        self.motion = ev.StepMotion(before=self.BEFORE, after=self.AFTER,
                                    t_switch=self.window / 2)

    def setup(self, calls):
        return {"digest": digest_arrays(np.array([self.seed, self.count]))}

    def items(self, inputs):
        return self.count

    def run_pass(self, calls, inputs):
        obs, truth = calls.generate_dataset(
            ev.RandomPointsScene(), self.motion, count=self.count,
            window=self.window, noise=self.NOISE, seed=self.seed)
        init, init_report = calls.init_from_linear(obs, K.ANGULAR_VELOCITY,
                                                   dt=self.KNOT_DT)
        problem = ev.SplineFitProblem(observations=obs, kind=K.ANGULAR_VELOCITY)
        traj, fit_report = calls.fit(problem, init)
        lo, hi = traj.domain
        grid = np.linspace(lo, hi, self.GRID, endpoint=False)
        values = calls.evaluate(traj, grid)
        return {"traj": traj, "fit_report": fit_report,
                "init_report": init_report, "grid": grid, "values": values}

    def check(self, inputs, out):
        _require(_finite(out["values"], out["traj"].control_points),
                 "non-finite trajectory")
        grid = out["grid"]
        _, omega = self.motion.at(grid)
        away = np.abs(grid - self.motion.t_switch) > self.STEP_GUARD_KNOTS * self.KNOT_DT
        err = (np.linalg.norm(out["values"][away] - omega[away], axis=1)
               / np.linalg.norm(omega[away], axis=1))
        errors = {"err.trajectory": float(np.median(err))}
        _require(errors["err.trajectory"] <= self.MAX_TRAJECTORY_ERR,
                 f"trajectory error {errors['err.trajectory']:.3g}")
        return errors

    def digest(self, out):
        return digest_arrays(out["traj"].control_points, out["values"],
                             np.array(out["fit_report"].objective_history))


WORKLOADS = {w.name: w for w in (EventPipeline, RobustSolve, SplineStep)}
