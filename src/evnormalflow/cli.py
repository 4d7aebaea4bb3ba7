"""Command-line pipeline around the library.

Subcommands:
  extract      event file -> normal-flow CSV (+ stats JSON)
  solve        normal-flow CSV -> model fit JSON
  fit-spline   normal-flow CSV -> continuous-time trajectory JSON
  simulate     synthetic dataset directory with exact ground truth
  bench-noise  solver noise-robustness sweep CSV

Exit codes: 0 success, 2 bad input or configuration, 3 solver degeneracy,
4 numerical failure.  All outputs are written atomically (temp file +
rename).  A --config file holds "key = value" lines using the long option
names; command-line flags win over the file.  The EVNF_SEED environment
variable supplies the seed when neither flag nor config file does.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from .errors import EvnfError, InputError, SolverDegeneracy, UnderDetermined
from .events import build_time_surface, read_events
from .extraction import (ExtractionConfig, FlowRecord, extract_normal_flows,
                         read_flows_csv, records_to_obs, write_flows_csv)
from .geometry import Intrinsics, Velocity, calibrated_to_pixel, obs_arrays
from .homography import decompose_hd, recover_true_hd
from .errors import PureRotationDegenerate, RankOneDegenerate
from .solvers import (ModelKind, RansacConfig, ransac_estimate,
                      solve_depth_batch, solve_optical_flow_batch)
from .spline import (DEFAULT_KNOT_SPACING, SplineFitProblem, evaluate, fit,
                     init_from_linear)
from .synthesis import (DEFAULT_INTRINSICS, ConstantMotion, NoiseSpec,
                        PlaneScene, RandomPointsScene, StepMotion,
                        TwoWallsScene, generate_dataset, run_noise_sweep)

KINDS = {
    "optical-flow": ModelKind.OPTICAL_FLOW,
    "depth": ModelKind.DEPTH,
    "angular-velocity": ModelKind.ANGULAR_VELOCITY,
    "six-dof": ModelKind.SIX_DOF,
    "diff-homography": ModelKind.DIFF_HOMOGRAPHY,
}

_PER_PIXEL = (ModelKind.OPTICAL_FLOW, ModelKind.DEPTH)


def _package_version():
    try:
        from importlib.metadata import version
        return version("evnormalflow")
    except Exception:
        return "unknown"


def _atomic_write_text(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_json(path, payload):
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _atomic_write_via(path, writer):
    """Run writer(tmp_path) then rename tmp over path."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _manifest(config):
    blob = json.dumps(config, sort_keys=True, default=str)
    return {
        "seed": config.get("seed"),
        "config": config,
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "versions": {
            "evnormalflow": _package_version(),
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }


def _load_intrinsics(path):
    if path is None:
        return DEFAULT_INTRINSICS
    with open(path) as fh:
        data = json.load(fh)
    try:
        return Intrinsics(fx=float(data["fx"]), fy=float(data["fy"]),
                          cx=float(data["cx"]), cy=float(data["cy"]),
                          width=int(data["width"]), height=int(data["height"]))
    except (KeyError, ValueError) as exc:
        raise InputError(f"bad intrinsics file {path}: {exc}") from exc


def _load_velocity(path):
    with open(path) as fh:
        data = json.load(fh)
    try:
        return Velocity(nu=np.asarray(data["nu"], dtype=float),
                        omega=np.asarray(data["omega"], dtype=float))
    except (KeyError, ValueError) as exc:
        raise InputError(f"bad velocity file {path}: {exc}") from exc


def _vec3(text):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers")
    return parts


def _pair(text):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated numbers")
    return parts


def _float_list(text):
    try:
        return [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _bool(text):
    if str(text).lower() in ("1", "true", "yes", "on"):
        return True
    if str(text).lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text}")


def _read_config(path):
    config = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise InputError(f"{path} line {line_no}: expected key = value")
            key, _, value = stripped.partition("=")
            config[key.strip()] = value.strip()
    return config


def _merge_config(args, parser):
    """Fill unset options from the config file, then built-in defaults."""
    config = _read_config(args.config) if args.config else {}
    resolved = {}
    for action in parser._actions:
        dest = action.dest
        if dest in ("help", "config") or not hasattr(args, dest):
            continue
        value = getattr(args, dest)
        if value is None:
            key = dest.replace("_", "-")
            if key in config:
                fn = _bool if isinstance(action.const, bool) else (action.type or str)
                value = fn(config[key])
            else:
                value = parser.get_default(f"_default_{dest}")
            setattr(args, dest, value)
        resolved[dest] = value
    if getattr(args, "seed", None) is None:
        env = os.environ.get("EVNF_SEED")
        args.seed = int(env) if env else 0
        resolved["seed"] = args.seed
    return resolved


class _Sub:
    """Wrapper that records real defaults while argparse keeps None, so the
    config file can fill anything the command line left unset."""

    def __init__(self, parser):
        self.parser = parser
        parser.add_argument("--config", help="key = value config file")

    def add(self, flag, default=None, required=False, **kwargs):
        dest = flag.lstrip("-").replace("-", "_")
        if kwargs.get("action") == "store_true":
            self.parser.add_argument(flag, dest=dest, action="store_const",
                                     const=True, default=None,
                                     help=kwargs.get("help", ""))
            self.parser.set_defaults(**{f"_default_{dest}": default or False})
            return
        kwargs.setdefault("type", str)
        self.parser.add_argument(flag, dest=dest, default=None, **kwargs)
        self.parser.set_defaults(**{f"_default_{dest}": default})
        if required:
            required_opts = getattr(self.parser, "_required_opts", [])
            required_opts.append(dest)
            self.parser._required_opts = required_opts


def _check_required(args, parser):
    for dest in getattr(parser, "_required_opts", []):
        if getattr(args, dest) is None:
            raise InputError(f"missing required option --{dest.replace('_', '-')}")


def _ransac_config(args):
    return RansacConfig(threshold=args.threshold,
                        max_iterations=args.max_iterations,
                        confidence=args.confidence, seed=args.seed)


# --------------------------------------------------------------------------
# subcommands

def cmd_extract(args, resolved):
    intr = _load_intrinsics(args.intrinsics)
    events = read_events(args.events, width=intr.width, height=intr.height)
    t_ref = args.t_ref if args.t_ref is not None else (events[-1].t if events else 0.0)
    cfg = ExtractionConfig(
        spatial_window=args.spatial_window, temporal_window=args.temporal_window,
        plane_thresh=args.plane_thresh, plane_iters=args.plane_iters,
        min_support=args.min_support, max_flow=args.max_flow,
        min_gradient=args.min_gradient, seed=args.seed)
    polarity = {"joint": None, "pos": 1, "neg": -1}[args.polarity]
    surface = build_time_surface(events, t_ref, cfg.temporal_window,
                                 (intr.height, intr.width), polarity=polarity)
    records, stats = extract_normal_flows(surface, intr, cfg)
    _atomic_write_via(args.output, lambda tmp: write_flows_csv(tmp, records))
    stats_path = args.stats or f"{args.output}.stats.json"
    _atomic_write_json(stats_path, {
        "n_events": len(events), "t_ref": t_ref, "stats": stats.to_dict(),
        "manifest": _manifest(resolved)})
    return 0


def _solve_per_pixel(kind, records, obs, velocity):
    xy, n, _, mag2 = obs_arrays(obs)
    if kind is ModelKind.OPTICAL_FLOW:
        values, valid = solve_optical_flow_batch(xy, n, mag2, velocity)
        key = "u"
    else:
        values, valid = solve_depth_batch(xy, n, mag2, velocity)
        key = "z"
    per_obs = []
    for i, r in enumerate(records):
        entry = {"t": r.t, "x_px": r.x_px, "y_px": r.y_px}
        if valid[i]:
            val = values[i]
            entry[key] = val.tolist() if np.ndim(val) else float(val)
        else:
            entry[key] = None
        per_obs.append(entry)
    return {"per_obs": per_obs,
            "stats": {"solved": int(valid.sum()), "failed": int((~valid).sum())}}


def _homography_extras(theta):
    h_l = theta.reshape(3, 3)
    h_d, eps = recover_true_hd(h_l)
    extras = {"h_l": h_l.tolist(), "eps": eps, "h_d": h_d.h.tolist(),
              "candidates": None, "degenerate": None}
    try:
        decomp = decompose_hd(h_d)
        extras["candidates"] = [
            {"nu_over_d": c.nu_over_d.tolist(), "normal": c.normal.tolist(),
             "omega": c.omega.tolist()} for c in decomp.candidates]
    except PureRotationDegenerate as exc:
        extras["degenerate"] = "pure-rotation"
        extras["omega"] = exc.omega.tolist()
    except RankOneDegenerate:
        extras["degenerate"] = "rank-one"
    return extras


def cmd_solve(args, resolved):
    kind = KINDS[args.kind]
    records, depths = read_flows_csv(args.flows)
    intr = _load_intrinsics(args.intrinsics)
    obs = records_to_obs(records, intr)
    velocity = _load_velocity(args.velocity) if args.velocity else None
    report = {"model": kind.value, "n_obs": len(obs)}
    if kind in _PER_PIXEL:
        if velocity is None:
            raise InputError(f"kind {args.kind} requires --velocity")
        report.update(_solve_per_pixel(kind, records, obs, velocity))
    else:
        if kind is ModelKind.SIX_DOF and depths is None:
            raise InputError(
                "six-dof solve requires a Z column in the flows CSV (missing depth)")
        fit_report = ransac_estimate(obs, kind, _ransac_config(args),
                                     depths=depths)
        report.update({
            "theta": fit_report.theta.tolist(),
            "inliers": fit_report.inliers.tolist(),
            "n_inliers": int(len(fit_report.inliers)),
            "rms": fit_report.rms, "cond": fit_report.cond,
            "iterations": fit_report.iterations})
        if kind is ModelKind.DIFF_HOMOGRAPHY:
            report.update(_homography_extras(fit_report.theta))
    report["manifest"] = _manifest(resolved)
    _atomic_write_json(args.output, report)
    return 0


_TRACE_NAMES = {ModelKind.ANGULAR_VELOCITY: ["wx", "wy", "wz"],
                ModelKind.SIX_DOF: ["nux", "nuy", "nuz", "wx", "wy", "wz"]}


def cmd_fit_spline(args, resolved):
    kind = KINDS[args.kind]
    if kind not in _TRACE_NAMES:
        raise InputError("fit-spline supports angular-velocity and six-dof")
    records, depths = read_flows_csv(args.flows)
    intr = _load_intrinsics(args.intrinsics)
    obs = records_to_obs(records, intr)
    if not obs:
        raise UnderDetermined("no observations in flows CSV")
    if kind is ModelKind.SIX_DOF and depths is None:
        raise InputError(
            "six-dof fit requires a Z column in the flows CSV (missing depth)")
    times = np.array([o.t for o in obs])
    span = float(times.max() - times.min())
    if span < 4 * args.knot_spacing:
        raise UnderDetermined(
            f"timestamps span {span:.4g}s < 4 knot intervals "
            f"({4 * args.knot_spacing:.4g}s)")
    init, init_report = init_from_linear(obs, kind, dt=args.knot_spacing,
                                         cfg=_ransac_config(args), depths=depths)
    problem = SplineFitProblem(observations=obs, kind=kind, depths=depths,
                               robust=not args.no_robust,
                               max_rounds=args.max_rounds)
    traj, fit_report = fit(problem, init)
    lo, hi = traj.domain
    _atomic_write_json(args.output, {
        "model": kind.value, "t0": traj.t0, "dt": traj.dt,
        "control_points": traj.control_points.tolist(), "domain": [lo, hi],
        "rms": fit_report.rms,
        "segment_counts": fit_report.segment_counts.tolist(),
        "starved_segments": fit_report.starved_segments,
        "filled_segments": init_report.filled_segments,
        "irls_rounds": fit_report.irls_rounds,
        "manifest": _manifest(resolved)})
    if args.trace:
        ts = np.linspace(lo, hi, args.trace_points, endpoint=False)
        vals = evaluate(traj, ts)
        names = _TRACE_NAMES[kind]
        lines = ["t," + ",".join(names)]
        for tt, row in zip(ts, vals):
            lines.append(",".join(f"{v:.9g}" for v in [tt, *row]))
        _atomic_write_text(args.trace, "\n".join(lines) + "\n")
    return 0


def _build_scene(args):
    if args.scene == "plane":
        return PlaneScene(normal=tuple(args.plane_normal), d=args.plane_d,
                          extent=args.extent)
    if args.scene == "random-points":
        return RandomPointsScene(count=args.points_count,
                                 depth_range=tuple(args.depth_range),
                                 extent=args.extent)
    if args.scene == "two-walls":
        return TwoWallsScene(angle=args.walls_angle, d=args.plane_d,
                             extent=args.extent)
    raise InputError(f"unknown scene {args.scene}")


def _build_motion(args):
    first = Velocity(nu=args.nu, omega=args.omega)
    if args.motion == "constant":
        return ConstantMotion(first)
    if args.motion == "step":
        if args.nu_after is None or args.omega_after is None:
            raise InputError("step motion requires --nu-after and --omega-after")
        return StepMotion(before=first,
                          after=Velocity(nu=args.nu_after, omega=args.omega_after),
                          t_switch=args.t_switch)
    raise InputError(f"unknown motion {args.motion}")


def _motion_json(motion):
    if isinstance(motion, ConstantMotion):
        return {"type": "constant", "nu": motion.velocity.nu.tolist(),
                "omega": motion.velocity.omega.tolist()}
    return {"type": "step", "nu": motion.before.nu.tolist(),
            "omega": motion.before.omega.tolist(),
            "nu_after": motion.after.nu.tolist(),
            "omega_after": motion.after.omega.tolist(),
            "t_switch": motion.t_switch}


def cmd_simulate(args, resolved):
    scene = _build_scene(args)
    motion = _build_motion(args)
    intr = _load_intrinsics(args.intrinsics)
    noise = NoiseSpec(sigma_px=args.noise_px, outlier_fraction=args.outlier_fraction)
    observations, truth = generate_dataset(scene, motion, intr=intr,
                                           count=args.count, window=args.window,
                                           noise=noise, seed=args.seed)
    os.makedirs(args.output_dir, exist_ok=True)
    records = []
    for o in observations:
        px = calibrated_to_pixel(o.x, intr)
        records.append(FlowRecord(t=o.t, x_px=float(px[0]), y_px=float(px[1]),
                                  nx_cal=float(o.n[0]), ny_cal=float(o.n[1]),
                                  inliers=0, rms=0.0))
    obs_path = os.path.join(args.output_dir, "observations.csv")
    _atomic_write_via(obs_path,
                      lambda tmp: write_flows_csv(tmp, records, depths=truth.z))
    hd = truth.hd
    velocity = truth.velocity
    _atomic_write_json(os.path.join(args.output_dir, "ground_truth.json"), {
        "motion": _motion_json(motion),
        "nu": velocity.nu.tolist() if velocity else None,
        "omega": velocity.omega.tolist() if velocity else None,
        "hd": hd.h.tolist() if hd else None,
        "z": truth.z.tolist(),
        "u": truth.u.tolist(),
        "outlier_idx": truth.outlier_idx.tolist(),
        "resample_rounds": truth.resample_rounds,
        "seed": args.seed,
        "noise": {"sigma_px": noise.sigma_px,
                  "outlier_fraction": noise.outlier_fraction}})
    _atomic_write_json(os.path.join(args.output_dir, "intrinsics.json"), {
        "fx": intr.fx, "fy": intr.fy, "cx": intr.cx, "cy": intr.cy,
        "width": intr.width, "height": intr.height})
    _atomic_write_json(os.path.join(args.output_dir, "manifest.json"),
                       _manifest(resolved))
    return 0


def cmd_bench_noise(args, resolved):
    kind = KINDS[args.kind]
    result = run_noise_sweep(kind, noise_grid_px=args.grid, trials=args.trials,
                             samples=args.samples, seed=args.seed)
    lines = ["kind,noise_px,median_err,q25,q75,trials,samples"]
    for i, sigma in enumerate(result.noise_px):
        lines.append(",".join([
            kind.value, f"{sigma:.9g}", f"{result.median[i]:.9g}",
            f"{result.q25[i]:.9g}", f"{result.q75[i]:.9g}",
            str(result.trials), str(result.samples)]))
    _atomic_write_text(args.output, "\n".join(lines) + "\n")
    _atomic_write_json(f"{args.output}.manifest.json", _manifest(resolved))
    return 0


# --------------------------------------------------------------------------
# parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="evnormalflow",
        description="Camera motion and structure from event normal flow")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _Sub(sub.add_parser("extract", help="events -> normal-flow CSV"))
    p.add("--events", required=True, help="event file: lines 't x y p' (.gz ok)")
    p.add("--intrinsics", help="intrinsics JSON (fx fy cx cy width height)")
    p.add("--output", required=True, help="flows CSV path")
    p.add("--stats", help="stats JSON path (default <output>.stats.json)")
    p.add("--t-ref", type=float, help="reference time (default: last event)")
    p.add("--temporal-window", type=float, default=0.04)
    p.add("--spatial-window", type=int, default=7)
    p.add("--plane-thresh", type=float, default=1e-5)
    p.add("--plane-iters", type=int, default=50)
    p.add("--min-support", type=int, default=10)
    p.add("--max-flow", type=float, default=1e4)
    p.add("--min-gradient", type=float, default=1e-4)
    p.add("--polarity", choices=["joint", "pos", "neg"], default="joint")
    p.add("--seed", type=int)

    p = _Sub(sub.add_parser("solve", help="flows CSV -> model fit JSON"))
    p.add("--flows", required=True)
    p.add("--intrinsics")
    p.add("--kind", choices=sorted(KINDS), required=True)
    p.add("--output", required=True)
    p.add("--velocity", help="velocity JSON {nu, omega} for flow/depth kinds")
    p.add("--threshold", type=float, default=1e-4)
    p.add("--max-iterations", type=int, default=1000)
    p.add("--confidence", type=float, default=0.99)
    p.add("--seed", type=int)

    p = _Sub(sub.add_parser("fit-spline", help="flows CSV -> trajectory JSON"))
    p.add("--flows", required=True)
    p.add("--intrinsics")
    p.add("--kind", choices=["angular-velocity", "six-dof"], required=True)
    p.add("--output", required=True)
    p.add("--trace", help="optional trajectory trace CSV")
    p.add("--trace-points", type=int, default=100)
    p.add("--knot-spacing", type=float, default=DEFAULT_KNOT_SPACING)
    p.add("--no-robust", action="store_true", help="disable Huber reweighting")
    p.add("--max-rounds", type=int, default=10)
    p.add("--threshold", type=float, default=1e-4)
    p.add("--max-iterations", type=int, default=1000)
    p.add("--confidence", type=float, default=0.99)
    p.add("--seed", type=int)

    p = _Sub(sub.add_parser("simulate", help="write a synthetic dataset"))
    p.add("--output-dir", required=True)
    p.add("--scene", choices=["plane", "random-points", "two-walls"],
          default="random-points")
    p.add("--motion", choices=["constant", "step"], default="constant")
    p.add("--count", type=int, default=1000)
    p.add("--window", type=float, default=0.5)
    p.add("--noise-px", type=float, default=0.0)
    p.add("--outlier-fraction", type=float, default=0.0)
    p.add("--nu", type=_vec3, default=[0.2, -0.1, 0.3])
    p.add("--omega", type=_vec3, default=[0.1, -0.2, 0.15])
    p.add("--nu-after", type=_vec3)
    p.add("--omega-after", type=_vec3)
    p.add("--t-switch", type=float, default=0.25)
    p.add("--plane-normal", type=_vec3, default=[0.0, 0.0, 1.0])
    p.add("--plane-d", type=float, default=2.0)
    p.add("--depth-range", type=_pair, default=[1.0, 5.0])
    p.add("--points-count", type=int)
    p.add("--walls-angle", type=float, default=0.5)
    p.add("--extent", type=float, default=0.45)
    p.add("--intrinsics")
    p.add("--seed", type=int)

    p = _Sub(sub.add_parser("bench-noise", help="noise robustness sweep"))
    p.add("--kind", choices=sorted(KINDS), required=True)
    p.add("--output", required=True)
    p.add("--grid", type=_float_list, default=[0.01, 0.1, 1.0, 10.0, 100.0])
    p.add("--trials", type=int, default=20)
    p.add("--samples", type=int, default=1000)
    p.add("--seed", type=int)

    return parser, sub


_COMMANDS = {"extract": cmd_extract, "solve": cmd_solve,
             "fit-spline": cmd_fit_spline, "simulate": cmd_simulate,
             "bench-noise": cmd_bench_noise}


def main(argv=None):
    parser, sub = build_parser()
    args = parser.parse_args(argv)
    chosen = sub.choices[args.command]
    try:
        resolved = _merge_config(args, chosen)
        _check_required(args, chosen)
        return _COMMANDS[args.command](args, resolved)
    except (InputError, FileNotFoundError, IsADirectoryError, PermissionError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverDegeneracy as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return 3
    except (EvnfError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
