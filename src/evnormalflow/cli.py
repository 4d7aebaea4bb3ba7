"""Command-line pipeline around the library.

Subcommands:
  extract      event file -> normal-flow CSV (+ stats JSON)
  solve        normal-flow CSV -> model fit JSON
  fit-spline   normal-flow CSV -> continuous-time trajectory JSON
  simulate     synthetic dataset directory with exact ground truth
  bench-noise  solver noise-robustness sweep CSV

Exit codes: 0 success, 2 bad input or configuration, 3 solver degeneracy,
4 numerical failure.  A usage error prints one "error:" line and exits 2.
All outputs are written atomically (temp file + rename).  A --config file
holds "key = value" lines whose keys are the long option names; each line
is read as the flag --key=value (a true store_true key as --key), so it is
checked exactly as that flag is, and flags on the command line win over the
file.  Other keys are ignored.  The EVNF_SEED environment variable supplies
the seed when neither flag nor config file does.
"""
from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import re
import resource
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (BadNumber, EvnfError, InputError, PureRotationDegenerate,
                     RankOneDegenerate, SolverDegeneracy, UnderDetermined,
                     finite, integer, interval, non_negative, positive,
                     positive_or_inf, uint64)
from .events import build_time_surface, read_events
from .extraction import (ExtractionConfig, extract_normal_flows,
                         read_flows_csv, records_to_obs, write_flows_csv)
from .geometry import Intrinsics, Velocity, calibrated_to_pixel
from .homography import decompose_hd, recover_true_hd
from .solvers import (ModelKind, RansacConfig, ransac_estimate, solve_depth,
                      solve_optical_flow)
from .spline import (_SPLINE_KINDS, DEFAULT_KNOT_SPACING, SplineFitProblem,
                     evaluate, fit, init_from_linear)
from .synthesis import (DEFAULT_INTRINSICS, ConstantMotion, NoiseSpec,
                        PlaneScene, RandomPointsScene, StepMotion,
                        TwoWallsScene, generate_dataset, run_noise_sweep)

KINDS = {kind.value.replace("_", "-"): kind for kind in ModelKind}

_PER_PIXEL = (ModelKind.OPTICAL_FLOW, ModelKind.DEPTH)


def _atomic_write(path, writer):
    """Run writer(tmp_path) on a temp file beside path, then rename it over
    path; the temp file is removed on any exception."""
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


def _atomic_write_text(path, text):
    _atomic_write(path, lambda tmp: Path(tmp).write_text(text))


def _json_default(value):
    """json.dumps hook: a NumPy array or scalar as its Python value."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _atomic_write_json(path, payload):
    _atomic_write_text(path, json.dumps(payload, sort_keys=True,
                                        separators=(",", ":"),
                                        default=_json_default) + "\n")


@contextmanager
def _stage(timings, name):
    """Record the wall time of the with-block, by time.perf_counter, as
    timings[name] in seconds."""
    start = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - start


def _manifest(args):
    """The run's seed, config and its hash, versions, and the process's
    peak resident memory so far in MB (ru_maxrss, which Linux gives in KiB)."""
    # JSON has no infinity; "inf" reads back from a --config file
    config = {key: "inf" if value == math.inf else value
              for key, value in vars(args).items()
              if key not in ("command", "config")}
    blob = json.dumps(config, sort_keys=True, default=_json_default)
    return {
        "seed": config.get("seed"),
        "config": config,
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "versions": {
            "evnormalflow": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _load_json(path, cls, default=None):
    """The cls, a dataclass, whose fields are the keys of the JSON object in
    the file at path, or default when path is None.  A file that is not
    JSON, lacks a key or holds a value of the wrong type or size is an
    InputError naming the file by the class: "bad velocity file ..."."""
    if path is None:
        return default
    with open(path) as fh:
        try:
            data = json.load(fh)
            return cls(**{field.name: data[field.name] for field in fields(cls)})
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"bad {cls.__name__.lower()} file {path}: "
                             f"{type(exc).__name__}: {exc}") from exc


def _checked(check, *args, **kwargs):
    """argparse type: a number (an int for integer and uint64, else a float)
    passed by check(name, number, *args), a rule of errors.py; other text
    is refused in the rule's words: "must be <rule>, got '<text>'"."""
    convert = int if check in (integer, uint64) else float

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = text                 # no number: the rule refuses it
        try:
            return check("", value, *args, **kwargs)
        except BadNumber as exc:
            raise argparse.ArgumentTypeError(
                f"must be {exc.rule}, got {text!r}") from None
    return parse


def _floats(count=None, check=finite):
    """argparse type: comma-separated numbers, each a _checked float,
    exactly `count` of them when given, else any number, skipping empties."""
    number = _checked(check)

    def parse(text):
        parts = [p for p in text.split(",") if count or p.strip()]
        if count and len(parts) != count:
            raise argparse.ArgumentTypeError(
                f"expected {count} comma-separated numbers, got {text!r}")
        try:
            return [number(p) for p in parts]
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentTypeError(f"{exc} in {text!r}") from None
    return parse


def _defaults(owner):
    """The parameter defaults of owner, a library function or dataclass, as
    attributes: a flag that sets a parameter takes its default from here."""
    return argparse.Namespace(**{
        name: param.default
        for name, param in inspect.signature(owner).parameters.items()})


_seed = _checked(uint64)
_count = _checked(integer, 1)
_positive = _checked(positive)


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


def _config_flags(argv, parser):
    """The lines of the --config file named in argv as flags of parser:
    "--key=value", or "--key" for a store_true option whose value is true.
    Keys that are not long option names of parser are ignored."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    config = _read_config(path) if path else {}
    flags = []
    for action in parser._actions:
        key = action.dest.replace("_", "-")
        if action.dest in ("help", "config") or key not in config:
            continue
        value = config[key]
        if action.nargs != 0:
            flags.append(f"--{key}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):
            flags.append(f"--{key}")
        elif value.lower() not in ("0", "false", "no", "off"):
            raise InputError(f"{path}: {key}: not a boolean: {value}")
    return flags


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors raise InputError (exit code 2)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse took only -1 and -1.5 as values, not -1e-5, -inf or -1,2,3
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.I)

    def error(self, message):
        raise InputError(message)


def _load_flows(args):
    """(observations, depths, intrinsics) from --flows and --intrinsics."""
    records, depths = read_flows_csv(args.flows)
    intr = _load_json(args.intrinsics, Intrinsics, DEFAULT_INTRINSICS)
    return records_to_obs(records, intr), depths, intr


def _ransac_config(args, intr):
    """RansacConfig from the flags; --threshold is in px/s and becomes
    calibrated units (1/s) through the geometric-mean focal length."""
    return RansacConfig(threshold=args.threshold / math.sqrt(intr.fx * intr.fy),
                        max_iterations=args.max_iterations,
                        confidence=args.confidence, seed=args.seed)


# --------------------------------------------------------------------------
# subcommands

def cmd_extract(args):
    # each field of the config is a flag of extract
    cfg = ExtractionConfig(**{field.name: getattr(args, field.name)
                              for field in fields(ExtractionConfig)})
    intr = _load_json(args.intrinsics, Intrinsics, DEFAULT_INTRINSICS)
    timings = {}
    with _stage(timings, "read_s"):
        events = read_events(args.events, width=intr.width, height=intr.height)
    t_ref = args.t_ref
    if t_ref is None:
        t_ref = float(events.t[-1]) if len(events) else 0.0
    polarity = {"joint": None, "pos": 1, "neg": -1}[args.polarity]
    with _stage(timings, "surface_s"):
        surface = build_time_surface(events, t_ref, cfg.temporal_window,
                                     (intr.height, intr.width),
                                     polarity=polarity)
    with _stage(timings, "extract_s"):
        obs, stats = extract_normal_flows(surface, intr, cfg)
    with _stage(timings, "write_s"):
        _atomic_write(args.output, lambda tmp: write_flows_csv(tmp, obs))
    stats_path = args.stats or f"{args.output}.stats.json"
    _atomic_write_json(stats_path, {
        "n_events": len(events), "fired_px": surface.fired_mask().sum(),
        "t_ref": t_ref, "stats": stats.to_dict(), "timings": timings,
        "manifest": _manifest(args)})
    return 0


def _solve_per_pixel(kind, obs, velocity):
    if kind is ModelKind.OPTICAL_FLOW:
        values, valid = solve_optical_flow(obs, velocity)
        key = "u"
    else:
        values, valid = solve_depth(obs, velocity)
        key = "z"
    per_obs = [{"t": t, "x_px": x, "y_px": y, key: value if ok else None}
               for t, (x, y), value, ok in zip(obs.t.tolist(), obs.px.tolist(),
                                               values.tolist(), valid.tolist())]
    return {"per_obs": per_obs,
            "stats": {"solved": valid.sum(), "failed": (~valid).sum()}}


def _homography_extras(theta):
    h_l = theta.reshape(3, 3)
    h_d, eps = recover_true_hd(h_l)
    extras = {"h_l": h_l, "eps": eps, "h_d": h_d.h,
              "candidates": None, "degenerate": None}
    try:
        extras["candidates"] = [asdict(c)
                                for c in decompose_hd(h_d).candidates]
    except PureRotationDegenerate as exc:
        extras["degenerate"] = "pure-rotation"
        extras["omega"] = exc.omega
    except RankOneDegenerate:
        extras["degenerate"] = "rank-one"
    return extras


def cmd_solve(args):
    kind = KINDS[args.kind]
    timings = {}
    with _stage(timings, "read_s"):
        obs, depths, intr = _load_flows(args)
        velocity = _load_json(args.velocity, Velocity)
    report = {"model": kind.value, "n_obs": len(obs)}
    if kind in _PER_PIXEL:
        if velocity is None:
            raise InputError(f"kind {args.kind} requires --velocity")
        with _stage(timings, "solve_s"):
            report.update(_solve_per_pixel(kind, obs, velocity))
    else:
        with _stage(timings, "solve_s"):
            fit_report = ransac_estimate(obs, kind, _ransac_config(args, intr),
                                         depths=depths)
        # every field of the report but its kind, which "model" names
        report.update({field.name: getattr(fit_report, field.name)
                       for field in fields(fit_report) if field.name != "kind"},
                      n_inliers=len(fit_report.inliers))
        if kind is ModelKind.DIFF_HOMOGRAPHY:
            report.update(_homography_extras(fit_report.theta))
    report["timings"] = timings
    report["manifest"] = _manifest(args)
    _atomic_write_json(args.output, report)
    return 0


_TRACE_NAMES = {ModelKind.ANGULAR_VELOCITY: ["wx", "wy", "wz"],
                ModelKind.SIX_DOF: ["nux", "nuy", "nuz", "wx", "wy", "wz"]}


def cmd_fit_spline(args):
    kind = KINDS[args.kind]
    timings = {}
    with _stage(timings, "read_s"):
        obs, depths, intr = _load_flows(args)
    span = float(np.ptp(obs.t)) if obs else 0.0
    if span < 4 * args.knot_spacing:
        raise UnderDetermined(
            f"timestamps span {span:.4g}s < 4 knot intervals "
            f"({4 * args.knot_spacing:.4g}s)")
    problem = SplineFitProblem(observations=obs, kind=kind, depths=depths,
                               robust=not args.no_robust,
                               max_rounds=args.max_rounds)
    with _stage(timings, "init_s"):
        init, init_report = init_from_linear(
            problem.observations, kind, dt=args.knot_spacing,
            cfg=_ransac_config(args, intr), depths=problem.depths)
    with _stage(timings, "fit_s"):
        traj, fit_report = fit(problem, init)
    # every field of the trajectory and of both reports, the fit's hit_cap
    # as irls_hit_cap
    report = {"model": kind.value, "domain": traj.domain, **asdict(traj),
              **asdict(init_report), **asdict(fit_report),
              "timings": timings, "manifest": _manifest(args)}
    report["irls_hit_cap"] = report.pop("hit_cap")
    _atomic_write_json(args.output, report)
    if args.trace:
        ts = np.linspace(*traj.domain, args.trace_points, endpoint=False)
        names = _TRACE_NAMES[kind]
        # t to the nanosecond, at any offset
        _atomic_write(args.trace, lambda tmp: np.savetxt(
            tmp, np.column_stack([ts, evaluate(traj, ts)]), delimiter=",",
            fmt=["%.9f"] + ["%.9g"] * len(names),
            header=",".join(["t", *names]), comments=""))
    return 0


def _build_scene(args):
    if args.scene == "plane":
        return PlaneScene(normal=tuple(args.plane_normal), d=args.plane_d,
                          extent=args.extent)
    if args.scene == "random-points":
        return RandomPointsScene(count=args.points_count,
                                 depth_range=tuple(args.depth_range),
                                 extent=args.extent)
    return TwoWallsScene(angle=args.walls_angle, d=args.plane_d,
                         extent=args.extent)


def _build_motion(args):
    first = Velocity(nu=args.nu, omega=args.omega)
    if args.motion == "constant":
        return ConstantMotion(first)
    if args.nu_after is None or args.omega_after is None:
        raise InputError("step motion requires --nu-after and --omega-after")
    return StepMotion(before=first,
                      after=Velocity(nu=args.nu_after, omega=args.omega_after),
                      t_switch=args.t_switch)


def _motion_json(motion):
    if isinstance(motion, ConstantMotion):
        return {"type": "constant", "nu": motion.velocity.nu,
                "omega": motion.velocity.omega}
    return {"type": "step", "nu": motion.before.nu,
            "omega": motion.before.omega, "nu_after": motion.after.nu,
            "omega_after": motion.after.omega, "t_switch": motion.t_switch}


def cmd_simulate(args):
    scene = _build_scene(args)
    motion = _build_motion(args)
    intr = _load_json(args.intrinsics, Intrinsics, DEFAULT_INTRINSICS)
    noise = NoiseSpec(sigma_px=args.noise_px, outlier_fraction=args.outlier_fraction)
    observations, truth = generate_dataset(scene, motion, intr=intr,
                                           count=args.count, window=args.window,
                                           noise=noise, seed=args.seed)
    os.makedirs(args.output_dir, exist_ok=True)
    k = len(observations)
    flows = replace(observations, px=calibrated_to_pixel(observations.xy, intr),
                    inliers=np.zeros(k, dtype=np.int64), rms=np.zeros(k))
    obs_path = os.path.join(args.output_dir, "observations.csv")
    _atomic_write(obs_path,
                  lambda tmp: write_flows_csv(tmp, flows, depths=truth.z))
    hd = truth.hd
    velocity = truth.velocity
    _atomic_write_json(os.path.join(args.output_dir, "ground_truth.json"), {
        "motion": _motion_json(motion),
        "nu": velocity.nu if velocity else None,
        "omega": velocity.omega if velocity else None,
        "hd": hd.h if hd else None,
        "z": truth.z, "u": truth.u, "outlier_idx": truth.outlier_idx,
        "resample_rounds": truth.resample_rounds,
        "seed": args.seed,
        "noise": asdict(noise)})
    _atomic_write_json(os.path.join(args.output_dir, "intrinsics.json"),
                       asdict(intr))
    _atomic_write_json(os.path.join(args.output_dir, "manifest.json"),
                       _manifest(args))
    return 0


def cmd_bench_noise(args):
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
    _atomic_write_json(f"{args.output}.manifest.json", _manifest(args))
    return 0


# --------------------------------------------------------------------------
# parser

_THRESHOLD_HELP = ("RANSAC upper bound, in px/s, on the distance from a normal "
                   "flow to the constraint line of the flow a hypothesis "
                   "predicts; divided by sqrt(fx*fy).  The inlier threshold "
                   "itself is about 3 sigma of the data's noise, at most this")


def build_parser():
    parser = _Parser(
        prog="evnormalflow",
        description="Camera motion and structure from event normal flow")
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--seed", type=_seed,
                        help="base seed (default: $EVNF_SEED, else 0)")
    fitting = _Parser(add_help=False)
    fitting.add_argument("--flows", required=True)
    fitting.add_argument("--intrinsics")
    fitting.add_argument("--output", required=True)
    ransac = _defaults(RansacConfig)
    fitting.add_argument("--threshold", type=_positive, help=_THRESHOLD_HELP,
                         default=ransac.threshold * math.sqrt(
                             DEFAULT_INTRINSICS.fx * DEFAULT_INTRINSICS.fy))
    fitting.add_argument("--max-iterations", type=_count,
                         default=ransac.max_iterations)
    fitting.add_argument("--confidence", type=_checked(interval, 0, 1),
                         default=ransac.confidence)

    p = sub.add_parser("extract", parents=[common],
                       help="events -> normal-flow CSV")
    p.add_argument("--events", required=True,
                   help="event file: lines 't x y p' (.gz ok)")
    p.add_argument("--intrinsics",
                   help="intrinsics JSON (fx fy cx cy width height)")
    p.add_argument("--output", required=True, help="flows CSV path")
    p.add_argument("--stats",
                   help="stats JSON path (default <output>.stats.json)")
    p.add_argument("--t-ref", type=_checked(finite),
                   help="reference time (default: last event)")
    cfg = _defaults(ExtractionConfig)
    p.add_argument("--temporal-window", type=_checked(positive_or_inf),
                   default=cfg.temporal_window, help="seconds; inf means no limit")
    p.add_argument("--spatial-window", type=_checked(integer, 3, odd=True),
                   default=cfg.spatial_window)
    p.add_argument("--plane-thresh", type=_positive, default=cfg.plane_thresh)
    p.add_argument("--plane-iters", type=_count, default=cfg.plane_iters)
    p.add_argument("--min-support", type=_checked(integer, 3),
                   default=cfg.min_support)
    p.add_argument("--min-gradient", type=_positive, default=cfg.min_gradient)
    p.add_argument("--polarity", choices=["joint", "pos", "neg"],
                   default="joint")

    p = sub.add_parser("solve", parents=[common, fitting],
                       help="flows CSV -> model fit JSON")
    p.add_argument("--kind", choices=sorted(KINDS), required=True)
    p.add_argument("--velocity",
                   help="velocity JSON {nu, omega} for flow/depth kinds")

    p = sub.add_parser("fit-spline", parents=[common, fitting],
                       help="flows CSV -> trajectory JSON")
    p.add_argument("--kind", required=True, choices=sorted(
        name for name, kind in KINDS.items() if kind in _SPLINE_KINDS))
    p.add_argument("--trace", help="optional trajectory trace CSV")
    p.add_argument("--trace-points", type=_count, default=100)
    p.add_argument("--knot-spacing", type=_positive, default=DEFAULT_KNOT_SPACING)
    p.add_argument("--no-robust", action="store_true",
                   help="disable Huber reweighting")
    p.add_argument("--max-rounds", type=_count,
                   default=_defaults(SplineFitProblem).max_rounds,
                   help="cap on the IRLS rounds of the Huber fit")

    p = sub.add_parser("simulate", parents=[common],
                       help="write a synthetic dataset")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--scene", choices=["plane", "random-points", "two-walls"],
                   default="random-points")
    p.add_argument("--motion", choices=["constant", "step"], default="constant")
    data, noise = _defaults(generate_dataset), _defaults(NoiseSpec)
    p.add_argument("--count", type=_count, default=data.count)
    p.add_argument("--window", type=_positive, default=data.window)
    p.add_argument("--noise-px", type=_checked(non_negative), default=noise.sigma_px)
    p.add_argument("--outlier-fraction", default=noise.outlier_fraction,
                   type=_checked(interval, 0, 1, closed=True))
    p.add_argument("--nu", type=_floats(3), default=[0.2, -0.1, 0.3])
    p.add_argument("--omega", type=_floats(3), default=[0.1, -0.2, 0.15])
    p.add_argument("--nu-after", type=_floats(3))
    p.add_argument("--omega-after", type=_floats(3))
    p.add_argument("--t-switch", default=0.25, type=_checked(finite))
    plane, points = _defaults(PlaneScene), _defaults(RandomPointsScene)
    p.add_argument("--plane-normal", type=_floats(3), default=plane.normal)
    p.add_argument("--plane-d", type=_positive, default=plane.d)
    p.add_argument("--depth-range", type=_floats(2, positive),
                   default=points.depth_range)
    p.add_argument("--points-count", type=_count)
    p.add_argument("--walls-angle", type=_checked(interval, 0, math.pi),
                   default=_defaults(TwoWallsScene).angle)
    p.add_argument("--extent", type=_positive, default=points.extent)
    p.add_argument("--intrinsics")

    p = sub.add_parser("bench-noise", parents=[common],
                       help="noise robustness sweep")
    p.add_argument("--kind", choices=sorted(KINDS), required=True)
    p.add_argument("--output", required=True)
    sweep = _defaults(run_noise_sweep)
    p.add_argument("--grid", type=_floats(check=non_negative),
                   default=sweep.noise_grid_px)
    p.add_argument("--trials", type=_count, default=sweep.trials)
    p.add_argument("--samples", type=_count, default=sweep.samples)

    return parser, sub


_COMMANDS = {"extract": cmd_extract, "solve": cmd_solve,
             "fit-spline": cmd_fit_spline, "simulate": cmd_simulate,
             "bench-noise": cmd_bench_noise}


def _env_seed():
    """The seed from $EVNF_SEED: an integer in [0, 2**64), 0 when unset."""
    try:
        return _seed(os.environ.get("EVNF_SEED") or "0")
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"EVNF_SEED {exc}") from exc


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, sub = build_parser()
    try:
        if argv and argv[0] in sub.choices:
            # after the subcommand, before the user's flags: the last wins
            argv[1:1] = _config_flags(argv[1:], sub.choices[argv[0]])
        args = parser.parse_args(argv)
        if args.seed is None:
            args.seed = _env_seed()
        return _COMMANDS[args.command](args)
    except np.linalg.LinAlgError as exc:
        # a ValueError, but a failure of the numerics, not of the input
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (InputError, ValueError, FileNotFoundError, IsADirectoryError,
            PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverDegeneracy as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return 3
    except (EvnfError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
