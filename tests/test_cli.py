"""End-to-end command-line tests: every subcommand through main(argv),
exit codes, manifest plumbing, and config/environment precedence."""
import csv
import dataclasses
import inspect
import json
import math
import os
import resource
import time

import numpy as np
import pytest

import evnormalflow
from evnormalflow import (ExtractionConfig, NoiseSpec, PlaneScene,
                          RandomPointsScene, RansacConfig, SplineFitProblem,
                          SplineFitReport, SplineInitReport, SplineTrajectory,
                          TwoWallsScene, generate_dataset, run_noise_sweep)
from evnormalflow.cli import (_TRACE_NAMES, _atomic_write, _atomic_write_json,
                              _json_default, build_parser, main)
from evnormalflow.spline import _SPLINE_KINDS
from evnormalflow.synthesis import DEFAULT_INTRINSICS


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def no_tmp_left(directory):
    return not [f for f in os.listdir(directory) if f.endswith(".tmp")]


def simulate(tmp_path, *extra, name="data"):
    out = tmp_path / name
    code = run("simulate", "--output-dir", out, "--count", 400,
               "--seed", 3, *extra)
    assert code == 0
    return out


def edit_cell(csv_path, row, column, value):
    """Replace one field of a data row (0-based, after the header)."""
    lines = csv_path.read_text().splitlines()
    fields = lines[row + 1].split(",")
    fields[lines[0].split(",").index(column)] = value
    lines[row + 1] = ",".join(fields)
    csv_path.write_text("\n".join(lines) + "\n")


def cut_row(csv_path, row, keep):
    """Keep only the first `keep` fields of a data row."""
    lines = csv_path.read_text().splitlines()
    lines[row + 1] = ",".join(lines[row + 1].split(",")[:keep])
    csv_path.write_text("\n".join(lines) + "\n")


def strip_z_column(csv_path):
    with open(csv_path, newline="") as fh:
        rows = [row[:7] for row in csv.reader(fh)]
    with open(csv_path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


# --------------------------------------------------------------------------
# simulate

def test_simulate_writes_dataset(tmp_path, monkeypatch):
    monkeypatch.delenv("EVNF_SEED", raising=False)
    out = simulate(tmp_path, "--scene", "plane", "--plane-normal", "0.2,-0.1,1")
    for name in ("observations.csv", "ground_truth.json", "intrinsics.json",
                 "manifest.json"):
        assert (out / name).exists()
    rows = read_csv_rows(out / "observations.csv")
    assert len(rows) == 400 and "Z" in rows[0]
    truth = read_json(out / "ground_truth.json")
    assert truth["hd"] is not None and len(truth["z"]) == 400
    manifest = read_json(out / "manifest.json")
    assert manifest["seed"] == 3
    assert len(manifest["config_sha256"]) == 64
    assert manifest["versions"]["numpy"] == np.__version__
    assert manifest["versions"]["evnormalflow"] == evnormalflow.__version__
    assert no_tmp_left(out)


def test_simulate_deterministic(tmp_path):
    a = simulate(tmp_path, name="a")
    b = simulate(tmp_path, name="b")
    assert (a / "observations.csv").read_bytes() == (b / "observations.csv").read_bytes()
    c = tmp_path / "c"
    assert run("simulate", "--output-dir", c, "--count", 400, "--seed", 4) == 0
    assert (a / "observations.csv").read_bytes() != (c / "observations.csv").read_bytes()


def test_simulate_step_motion_requires_after(tmp_path):
    code = run("simulate", "--output-dir", tmp_path / "x", "--motion", "step")
    assert code == 2
    out = simulate(tmp_path, "--motion", "step", "--nu", "0,0,0",
                   "--omega", "0,0,0.5", "--nu-after", "0,0,0",
                   "--omega-after", "0,0,2", name="step")
    truth = read_json(out / "ground_truth.json")
    assert truth["motion"]["type"] == "step"
    assert truth["motion"]["t_switch"] == 0.25


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--scene", "plane", "--plane-d", "nan"], "--plane-d"),
    (["simulate", "--scene", "two-walls", "--plane-d", "inf"], "--plane-d"),
    (["simulate", "--extent", "nan"], "--extent"),
    (["simulate", "--extent", "0"], "--extent"),
    (["simulate", "--depth-range", "1,inf"], "--depth-range"),
    (["simulate", "--depth-range", "nan,2"], "--depth-range"),
    (["simulate", "--noise-px", "nan"], "--noise-px"),
    (["simulate", "--noise-px", "inf"], "--noise-px"),
    (["simulate", "--nu", "nan,0,0"], "--nu"),
    (["simulate", "--points-count", "0"], "--points-count"),
    (["bench-noise", "--kind", "depth", "--grid", "nan"], "--grid"),
    (["bench-noise", "--kind", "depth", "--grid", "0.1,inf"], "--grid"),
    (["simulate", "--window", "nan"], "--window"),
    (["simulate", "--window", "inf"], "--window"),
    (["simulate", "--motion", "step", "--nu-after", "0,0,0", "--omega-after",
      "0,0,2", "--t-switch", "nan"], "--t-switch"),
    (["extract", "--plane-thresh", "nan"], "--plane-thresh"),
    (["extract", "--temporal-window", "nan"], "--temporal-window"),
    (["extract", "--min-gradient", "nan"], "--min-gradient"),
    (["extract", "--plane-thresh", "inf"], "--plane-thresh"),
    (["extract", "--min-gradient", "inf"], "--min-gradient"),
    (["extract", "--seed", "18446744073709551616"], "--seed"),
    (["extract", "--seed", "-1"], "--seed"),
    (["extract", "--temporal-window", "0"], "--temporal-window"),
    (["extract", "--plane-thresh", "-0.5"], "--plane-thresh"),
    (["extract", "--min-gradient", "0"], "--min-gradient"),
    (["extract", "--spatial-window", "4"], "--spatial-window"),
    (["extract", "--spatial-window", "1"], "--spatial-window"),
    (["extract", "--spatial-window", "7.0"], "--spatial-window"),
    (["extract", "--plane-iters", "0"], "--plane-iters"),
    (["extract", "--min-support", "2"], "--min-support"),
    (["simulate", "--window", "0"], "--window"),
    (["simulate", "--t-switch", "inf"], "--t-switch"),
    (["simulate", "--outlier-fraction", "nan"], "--outlier-fraction"),
    (["simulate", "--outlier-fraction", "1"], "--outlier-fraction"),
    (["simulate", "--scene", "two-walls", "--walls-angle", "nan"],
     "--walls-angle"),
    (["simulate", "--scene", "two-walls", "--walls-angle", "3.1416"],
     "--walls-angle"),
    # negative numbers in exponent form, given as the next word
    (["extract", "--plane-thresh", "-1e-5"], "--plane-thresh"),
    (["solve", "--threshold", "-1e3"], "--threshold")])
def test_bad_number_flag_is_one_error_line_naming_it(tmp_path, monkeypatch,
                                                    capsys, argv, flag):
    events = tmp_path / "events.txt"
    write_edge_events(events)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    rest = {"simulate": ["--output-dir", "out", "--count", 10],
            "bench-noise": ["--output", "out", "--trials", 1],
            "extract": ["--events", events, "--output", "flows.csv"],
            "solve": ["--flows", events, "--kind", "six-dof",
                      "--output", "fit.json"]}[argv[0]]
    assert run(*argv, *rest) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: argument {flag}: ") and err.count("\n") == 1
    assert argv[-1] in err
    assert os.listdir(work) == []


POSITIVE = "positive and finite"
COUNT = "an integer >= 1"
SEED = "an integer in [0, 2**64)"
FINITE = "finite"
# (subcommand, flag, the words of its rule, the probe texts it accepts)
NUMBER_FLAGS = [
    *[(command, flag, words, accepted)
      for command in ("solve", "fit-spline")
      for flag, words, accepted in [
          ("--threshold", POSITIVE, {"1.5"}), ("--max-iterations", COUNT, ()),
          ("--confidence", "in (0, 1)", ()), ("--seed", SEED, {"0"})]],
    ("fit-spline", "--trace-points", COUNT, ()),
    ("fit-spline", "--knot-spacing", POSITIVE, {"1.5"}),
    ("fit-spline", "--max-rounds", COUNT, ()),
    ("bench-noise", "--grid", "non-negative and finite", {"0", "1.5"}),
    ("bench-noise", "--trials", COUNT, ()),
    ("bench-noise", "--samples", COUNT, ()),
    ("bench-noise", "--seed", SEED, {"0"}),
    ("extract", "--seed", SEED, {"0"}),
    ("extract", "--t-ref", FINITE, {"0", "-1", "1.5", "-1e-5"}),
    ("extract", "--temporal-window", "positive", {"inf", "1.5"}),
    ("extract", "--spatial-window", "an odd integer >= 3", ()),
    ("extract", "--plane-thresh", POSITIVE, {"1.5"}),
    ("extract", "--plane-iters", COUNT, ()),
    ("extract", "--min-support", "an integer >= 3", ()),
    ("extract", "--min-gradient", POSITIVE, {"1.5"}),
    ("simulate", "--seed", SEED, {"0"}),
    ("simulate", "--count", COUNT, ()),
    ("simulate", "--window", POSITIVE, {"1.5"}),
    ("simulate", "--noise-px", "non-negative and finite", {"0", "1.5"}),
    ("simulate", "--outlier-fraction", "in [0, 1)", {"0"}),
    ("simulate", "--t-switch", FINITE, {"0", "-1", "1.5", "-1e-5"}),
    ("simulate", "--plane-d", POSITIVE, {"1.5"}),
    ("simulate", "--points-count", COUNT, ()),
    ("simulate", "--walls-angle", "in (0, pi)", {"1.5"}),
    ("simulate", "--extent", POSITIVE, {"1.5"}),
]
NUMBER_PROBES = ["nan", "inf", "-inf", "0", "-1", "1.5", "true", "", "-1e-5"]


def strict_json(path):
    """The JSON in path, refusing the NaN and Infinity that json writes."""
    def refuse(token):
        raise AssertionError(f"{token} in {path}")
    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


@pytest.fixture(scope="module")
def number_inputs(tmp_path_factory):
    """A simulated flows CSV with depths, and an event file."""
    root = tmp_path_factory.mktemp("inputs")
    assert run("simulate", "--output-dir", root / "data", "--count", 300,
               "--seed", 3) == 0
    write_edge_events(root / "events.txt")
    return {"solve": ["--flows", root / "data" / "observations.csv",
                      "--kind", "six-dof", "--output", "fit.json"],
            "fit-spline": ["--flows", root / "data" / "observations.csv",
                           "--kind", "six-dof", "--output", "spline.json",
                           "--trace", "trace.csv"],
            "bench-noise": ["--kind", "depth", "--output", "noise.csv",
                            "--trials", 1, "--samples", 30],
            "extract": ["--events", root / "events.txt",
                        "--output", "flows.csv"],
            "simulate": ["--output-dir", "out", "--count", 20]}


@pytest.mark.parametrize("probe", NUMBER_PROBES)
@pytest.mark.parametrize("command, flag, words, accepted", NUMBER_FLAGS,
                         ids=[f"{c[0]}{c[1]}" for c in NUMBER_FLAGS])
def test_every_number_flag_refused_in_its_rule_words_or_run(
        tmp_path, monkeypatch, capsys, number_inputs, command, flag, words,
        accepted, probe):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    code = run(command, *number_inputs[command], flag, probe)
    err = capsys.readouterr().err
    if probe in accepted:
        # finite output, or a degeneracy (a knot spacing beyond the data)
        assert code in (0, 3), err
        assert code == 0 or err.startswith("degenerate:")
        for path in work.rglob("*.json"):
            strict_json(path)
        return
    expected = f"must be {words}, got {probe!r}"
    if flag == "--grid":
        expected += f" in {probe!r}"
    expected = f"error: argument {flag}: {expected}"
    if flag == "--grid" and probe == "":
        # an empty list is a list of numbers; the sweep refuses it
        expected = ("error: noise grid must be finite, non-negative and "
                    "strictly increasing")
    assert code == 2 and err == expected + "\n"
    assert os.listdir(work) == []


@pytest.mark.parametrize("field, value, rule", [
    ("fx", "Infinity", "fx must be positive and finite, got inf"),
    ("fy", "NaN", "fy must be positive and finite, got nan"),
    ("cx", "-1", "cx must be in [0, 240), got -1"),
    ("width", "2.5", "width must be an integer >= 1, got 2.5"),
    ("height", "true", "height must be an integer >= 1, got True")])
@pytest.mark.parametrize("command", ["simulate", "solve", "extract"])
def test_bad_intrinsics_file_is_one_error_line_naming_it(
        tmp_path, monkeypatch, capsys, number_inputs, command, field, value,
        rule):
    camera = {"fx": 200, "fy": 200, "cx": 120, "cy": 90, "width": 240,
              "height": 180}
    intrinsics = tmp_path / "intrinsics.json"
    intrinsics.write_text(json.dumps(camera)[:-1] + f', "{field}": {value}}}')
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert run(command, *number_inputs[command],
               "--intrinsics", intrinsics) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: bad intrinsics file {intrinsics}: ")
    assert err.endswith(rule + "\n")
    assert os.listdir(work) == []


def test_knot_grid_beyond_the_data_is_a_degeneracy(tmp_path, capsys):
    # 1e-300 s knots over 0.5 s are about 1e300 control points: refused
    # before the spline init allocates them, and without a RuntimeWarning
    data = simulate(tmp_path)
    out = tmp_path / "spline.json"
    assert run("fit-spline", "--flows", data / "observations.csv",
               "--kind", "angular-velocity", "--knot-spacing", "1e-300",
               "--output", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("degenerate: 400 observations < ")
    assert err.count("\n") == 1 and not out.exists()


def test_simulate_two_walls(tmp_path):
    out = simulate(tmp_path, "--scene", "two-walls")
    truth = read_json(out / "ground_truth.json")
    # two planes: no one homography, and a six-dof fit on the depths
    # recovers the default motion
    assert truth["hd"] is None and len(truth["z"]) == 400
    assert min(truth["z"]) > 0
    report_path = tmp_path / "fit.json"
    assert run("solve", "--flows", out / "observations.csv",
               "--kind", "six-dof", "--output", report_path) == 0
    assert np.allclose(read_json(report_path)["theta"],
                       [0.2, -0.1, 0.3, 0.1, -0.2, 0.15], atol=1e-5)


def test_atomic_write_leaves_nothing_when_the_writer_raises(tmp_path):
    def writer(tmp):
        with open(tmp, "w") as fh:
            fh.write("partial")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _atomic_write(tmp_path / "out.json", writer)
    assert os.listdir(tmp_path) == []


def test_simulate_bad_scene_parameter(tmp_path):
    code = run("simulate", "--output-dir", tmp_path / "x",
               "--scene", "plane", "--plane-d", -1)
    assert code == 2


# --------------------------------------------------------------------------
# solve

def test_solve_angular_velocity_roundtrip(tmp_path):
    out = simulate(tmp_path, "--nu", "0,0,0", "--omega", "0.1,-0.2,0.15")
    report_path = tmp_path / "fit.json"
    code = run("solve", "--flows", out / "observations.csv",
               "--kind", "angular-velocity", "--output", report_path)
    assert code == 0
    report = read_json(report_path)
    assert report["model"] == "angular_velocity"
    assert np.allclose(report["theta"], [0.1, -0.2, 0.15], atol=1e-6)
    assert report["n_inliers"] == 400
    assert report["rms"] < 1e-6
    assert report["manifest"]["config"]["kind"] == "angular-velocity"


def test_solve_reports_ransac_run(tmp_path):
    out = simulate(tmp_path, "--nu", "0,0,0", "--noise-px", 0.5,
                   "--outlier-fraction", 0.2)
    report_path = tmp_path / "fit.json"
    assert run("solve", "--flows", out / "observations.csv",
               "--kind", "angular-velocity", "--output", report_path) == 0
    report = read_json(report_path)
    assert report["hit_cap"] is False
    assert report["inlier_ratio"] == report["n_inliers"] / report["n_obs"]
    # too few flows for the probe: every hypothesis is scored on every row
    assert report["rows_scored"] == report["iterations"] * report["n_obs"]
    # the threshold comes from the data: about 3 sigma of the 0.5 px noise
    # over a 200 px focal length, well below the 12 px/s default bound
    assert 1.0 / 200 < report["threshold"] < 3.0 / 200
    assert report["rms"] < report["threshold"]


def test_solve_threshold_flag_is_in_pixels_per_second(tmp_path):
    intrinsics = tmp_path / "intrinsics.json"
    intrinsics.write_text(json.dumps({"fx": 100.0, "fy": 400.0, "cx": 120.0,
                                      "cy": 200.0, "width": 240,
                                      "height": 400}))
    out = simulate(tmp_path, "--nu", "0,0,0", "--intrinsics", intrinsics,
                   "--noise-px", 2)
    report_path = tmp_path / "fit.json"
    assert run("solve", "--flows", out / "observations.csv", "--intrinsics",
               intrinsics, "--kind", "angular-velocity", "--threshold", 1,
               "--output", report_path) == 0
    report = read_json(report_path)
    # 3 sigma of 2 px noise lies above the 1 px/s bound, so the threshold is
    # the bound itself: 1 px/s over sqrt(fx * fy) = 200 px, not over fx or fy
    assert report["threshold"] == pytest.approx(1.0 / 200, rel=1e-12)


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["solve", "fit-spline"])
def test_non_finite_or_negative_threshold_exits_2(tmp_path, capsys, value,
                                                  command):
    out = simulate(tmp_path, "--nu", "0,0,0")
    report_path = tmp_path / "fit.json"
    assert run(command, "--flows", out / "observations.csv",
               "--kind", "angular-velocity", "--threshold", value,
               "--output", report_path) == 2
    assert "threshold" in capsys.readouterr().err
    assert not report_path.exists()


@pytest.mark.parametrize("flag, value, rule", [
    ("--threshold", "-1", "positive and finite"),
    ("--threshold", "inf", "positive and finite"),
    ("--max-iterations", "0", "an integer >= 1"),
    ("--max-iterations", "2.5", "an integer >= 1"),
    ("--confidence", "1.5", "in (0, 1)"),
    ("--confidence", "high", "in (0, 1)")])
def test_bad_ransac_flag_error_names_flag_and_value(tmp_path, capsys, flag,
                                                    value, rule):
    out = simulate(tmp_path, "--nu", "0,0,0")
    capsys.readouterr()
    assert run("solve", "--flows", out / "observations.csv",
               "--kind", "angular-velocity", flag, value,
               "--output", tmp_path / "fit.json") == 2
    assert capsys.readouterr().err == (
        f"error: argument {flag}: must be {rule}, got '{value}'\n")


def test_solve_six_dof_roundtrip_and_missing_depth(tmp_path, capsys):
    out = simulate(tmp_path)
    report_path = tmp_path / "fit.json"
    code = run("solve", "--flows", out / "observations.csv",
               "--kind", "six-dof", "--output", report_path)
    assert code == 0
    theta = read_json(report_path)["theta"]
    assert np.allclose(theta, [0.2, -0.1, 0.3, 0.1, -0.2, 0.15], atol=1e-5)
    strip_z_column(out / "observations.csv")
    capsys.readouterr()
    missing = tmp_path / "missing.json"
    assert run("solve", "--flows", out / "observations.csv",
               "--kind", "six-dof", "--output", missing) == 2
    assert (capsys.readouterr().err
            == "error: six-dof rows need per-observation depths\n")
    assert not missing.exists() and no_tmp_left(tmp_path)


def test_solve_homography_reports_decomposition(tmp_path):
    out = simulate(tmp_path, "--scene", "plane", "--plane-normal", "0.2,-0.1,1")
    report_path = tmp_path / "fit.json"
    code = run("solve", "--flows", out / "observations.csv",
               "--kind", "diff-homography", "--output", report_path)
    assert code == 0
    report = read_json(report_path)
    truth = read_json(out / "ground_truth.json")
    hd_est = np.array(report["h_d"])
    hd_true = np.array(truth["hd"])
    assert np.linalg.norm(hd_est - hd_true) < 1e-5 * np.linalg.norm(hd_true)
    assert report["degenerate"] is None
    assert len(report["candidates"]) == 2
    for cand in report["candidates"]:
        assert np.isclose(np.linalg.norm(cand["normal"]), 1.0, atol=1e-9)


def velocity_file(tmp_path):
    """The simulated default motion as a --velocity file."""
    path = tmp_path / "velocity.json"
    path.write_text(json.dumps({"nu": [0.2, -0.1, 0.3],
                                "omega": [0.1, -0.2, 0.15]}))
    return path


def test_solve_depth_per_pixel(tmp_path):
    out = simulate(tmp_path)
    velocity_path = velocity_file(tmp_path)
    report_path = tmp_path / "depth.json"
    code = run("solve", "--flows", out / "observations.csv", "--kind", "depth",
               "--velocity", velocity_path, "--output", report_path)
    assert code == 0
    report = read_json(report_path)
    truth = read_json(out / "ground_truth.json")
    solved = [(entry["z"], z_true) for entry, z_true
              in zip(report["per_obs"], truth["z"]) if entry["z"] is not None]
    assert len(solved) == report["stats"]["solved"] > 350
    est, true = np.array(solved).T
    assert np.median(np.abs(est - true) / true) < 1e-6


def test_solve_optical_flow_per_pixel(tmp_path):
    out = simulate(tmp_path)
    report_path = tmp_path / "flow.json"
    assert run("solve", "--flows", out / "observations.csv",
               "--kind", "optical-flow", "--velocity", velocity_file(tmp_path),
               "--output", report_path) == 0
    report = read_json(report_path)
    assert report["model"] == "optical_flow" and report["n_obs"] == 400
    truth = read_json(out / "ground_truth.json")
    solved = [(entry["u"], u_true) for entry, u_true
              in zip(report["per_obs"], truth["u"]) if entry["u"] is not None]
    assert len(solved) == report["stats"]["solved"] > 350
    assert report["stats"]["solved"] + report["stats"]["failed"] == 400
    est, true = (np.array(part) for part in zip(*solved))
    rel = np.linalg.norm(est - true, axis=1) / np.linalg.norm(true, axis=1)
    assert np.median(rel) < 1e-6


@pytest.mark.parametrize("kind", ["depth", "optical-flow"])
def test_solve_per_pixel_pure_rotation_is_degenerate(tmp_path, capsys, kind):
    # no translation: no pixel's depth or full flow is observable
    out = simulate(tmp_path)
    velocity_path = tmp_path / "velocity.json"
    velocity_path.write_text(json.dumps({"nu": [0, 0, 0],
                                         "omega": [0.1, -0.2, 0.15]}))
    report_path = tmp_path / "fit.json"
    assert run("solve", "--flows", out / "observations.csv", "--kind", kind,
               "--velocity", velocity_path, "--output", report_path) == 3
    assert (capsys.readouterr().err
            == "degenerate: translational velocity is zero\n")
    assert not report_path.exists()


def test_solve_homography_pure_rotation(tmp_path):
    # no translation: H_d = -[omega]_x has no plane to decompose, and the
    # report carries omega instead of candidates
    out = simulate(tmp_path, "--scene", "plane", "--nu", "0,0,0")
    report_path = tmp_path / "fit.json"
    assert run("solve", "--flows", out / "observations.csv",
               "--kind", "diff-homography", "--output", report_path) == 0
    report = read_json(report_path)
    assert report["degenerate"] == "pure-rotation"
    assert report["candidates"] is None
    assert np.allclose(report["omega"], [0.1, -0.2, 0.15], atol=1e-6)


def test_solve_homography_rank_one(tmp_path):
    # translation along the normal of the fronto-parallel plane, no
    # rotation: H_d is rank one and has no unique decomposition
    out = simulate(tmp_path, "--scene", "plane", "--nu", "0,0,0.3",
                   "--omega", "0,0,0")
    report_path = tmp_path / "fit.json"
    assert run("solve", "--flows", out / "observations.csv",
               "--kind", "diff-homography", "--output", report_path) == 0
    report = read_json(report_path)
    assert report["degenerate"] == "rank-one"
    assert report["candidates"] is None and "omega" not in report
    assert np.linalg.matrix_rank(np.array(report["h_d"]), tol=1e-6) == 1


def test_solve_per_pixel_requires_velocity(tmp_path):
    out = simulate(tmp_path)
    assert run("solve", "--flows", out / "observations.csv",
               "--kind", "optical-flow", "--output", tmp_path / "x.json") == 2


def test_solve_missing_flows_file(tmp_path):
    assert run("solve", "--flows", tmp_path / "nope.csv",
               "--kind", "angular-velocity", "--output", tmp_path / "x.json") == 2


@pytest.mark.parametrize("kind", ["angular-velocity", "six-dof"])
def test_solve_ragged_flows_csv_exits_2(tmp_path, capsys, kind):
    out = simulate(tmp_path)
    cut_row(out / "observations.csv", 4, keep=4)
    report_path = tmp_path / "fit.json"
    assert run("solve", "--flows", out / "observations.csv", "--kind", kind,
               "--output", report_path) == 2
    assert "error:" in capsys.readouterr().err
    assert not report_path.exists()


def test_solve_six_dof_nan_depth_exits_2(tmp_path, capsys):
    out = simulate(tmp_path, "--count", 300)
    edit_cell(out / "observations.csv", 10, "Z", "nan")
    report_path = tmp_path / "fit.json"
    assert run("solve", "--flows", out / "observations.csv", "--kind", "six-dof",
               "--output", report_path) == 2
    assert "column Z" in capsys.readouterr().err
    assert not report_path.exists()


@pytest.mark.parametrize("column", ["t", "x_px", "nx_cal"])
def test_solve_non_finite_value_exits_2(tmp_path, capsys, column):
    out = simulate(tmp_path, "--count", 300)
    edit_cell(out / "observations.csv", 3, column, "inf")
    assert run("solve", "--flows", out / "observations.csv",
               "--kind", "angular-velocity", "--output", tmp_path / "x.json") == 2
    assert f"column {column}" in capsys.readouterr().err


def test_solve_unknown_kind_exits_via_argparse(tmp_path, capsys):
    assert run("solve", "--flows", "x.csv", "--kind", "warp",
               "--output", "y.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--kind" in err


# --------------------------------------------------------------------------
# fit-spline

def test_fit_spline_tracks_step(tmp_path):
    out = simulate(tmp_path, "--motion", "step", "--nu", "0,0,0",
                   "--omega", "0,0,0.5", "--nu-after", "0,0,0",
                   "--omega-after", "0,0,2", "--count", 3000)
    spline_path = tmp_path / "spline.json"
    trace_path = tmp_path / "trace.csv"
    code = run("fit-spline", "--flows", out / "observations.csv",
               "--kind", "angular-velocity", "--output", spline_path,
               "--trace", trace_path, "--trace-points", 50)
    assert code == 0
    spline = read_json(spline_path)
    assert spline["model"] == "angular_velocity"
    assert len(spline["control_points"][0]) == 3
    assert spline["domain"][0] < 0.25 < spline["domain"][1]
    assert spline["starved_control_points"] == []
    assert spline["capped_segments"] == []
    assert spline["ransac_iterations"] >= 1
    assert sum(spline["segment_iterations"]) == spline["ransac_iterations"]
    assert spline["irls_rounds"] >= 1
    # noise-free, so IRLS creeps towards a step the spline cannot model
    assert isinstance(spline["irls_hit_cap"], bool)
    assert 1.0 <= spline["cond"] < 1e6
    rows = read_csv_rows(trace_path)
    assert len(rows) == 50 and set(rows[0]) == {"t", "wx", "wy", "wz"}
    early = [float(r["wz"]) for r in rows if float(r["t"]) < 0.12]
    late = [float(r["wz"]) for r in rows if float(r["t"]) > 0.38]
    assert early and np.allclose(early, 0.5, atol=0.1)
    assert late and np.allclose(late, 2.0, atol=0.12)


def test_fit_spline_json_holds_every_report_field(tmp_path):
    out = step_dataset(tmp_path)
    spline_path = tmp_path / "spline.json"
    assert run("fit-spline", "--flows", out / "observations.csv",
               "--kind", "angular-velocity", "--output", spline_path) == 0
    spline = read_json(spline_path)
    names = {field.name for cls in (SplineTrajectory, SplineInitReport,
                                    SplineFitReport)
             for field in dataclasses.fields(cls)}
    assert set(spline) == (names - {"hit_cap"}) | {
        "irls_hit_cap", "model", "domain", "timings", "manifest"}
    n_seg = len(spline["control_points"]) - 3
    assert np.shape(spline["segment_estimates"]) == (n_seg, 3)
    assert sorted(spline["good_segments"]
                  + spline["filled_segments"]) == list(range(n_seg))
    assert len(spline["objective_history"]) == spline["irls_rounds"] + 1


def test_fit_spline_header_only_csv_is_degenerate(tmp_path, capsys):
    # no observations span no time, below the 4 knot intervals a fit needs
    out = simulate(tmp_path)
    flows = out / "observations.csv"
    flows.write_text(flows.read_text().splitlines()[0] + "\n")
    spline_path = tmp_path / "spline.json"
    assert run("fit-spline", "--flows", flows, "--kind", "angular-velocity",
               "--output", spline_path) == 3
    err = capsys.readouterr().err
    assert err.startswith("degenerate: timestamps span 0s < 4 knot intervals")
    assert len(err.splitlines()) == 1 and not spline_path.exists()


def test_trace_names_cover_the_spline_kinds():
    assert set(_TRACE_NAMES) == set(_SPLINE_KINDS)
    for kind, names in _TRACE_NAMES.items():
        assert len(names) == kind.param_dim


def test_fit_spline_short_span_degenerate(tmp_path):
    out = simulate(tmp_path, "--nu", "0,0,0", "--omega", "0,0,0.5",
                   "--window", "0.1")
    assert run("fit-spline", "--flows", out / "observations.csv",
               "--kind", "angular-velocity",
               "--output", tmp_path / "spline.json") == 3


def step_dataset(tmp_path):
    return simulate(tmp_path, "--motion", "step", "--nu", "0,0,0",
                    "--omega", "0,0,0.5", "--nu-after", "0,0,0",
                    "--omega-after", "0,0,2", "--count", 1000)


def test_fit_spline_from_a_thousand_seconds(tmp_path):
    # the same step 1 000 s later: the init, the fit and the trace place
    # every time in the same knot interval however far from zero it lies
    flows = step_dataset(tmp_path) / "observations.csv"
    with open(flows, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[0] = f"{float(row[0]) + 1000:.9f}"
    with open(flows, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    spline_path, trace_path = tmp_path / "spline.json", tmp_path / "trace.csv"
    assert run("fit-spline", "--flows", flows, "--kind", "angular-velocity",
               "--output", spline_path, "--trace", trace_path) == 0
    lo, hi = read_json(spline_path)["domain"]
    assert 1000 <= lo < 1000.25 < hi
    times = [float(r["t"]) for r in read_csv_rows(trace_path)]
    assert times[0] == lo and np.all(np.diff(times) > 0)


def test_fit_spline_independent_of_row_order(tmp_path):
    # the init's draws and the fit see the rows in one order, whatever the
    # order of the flows CSV
    out = simulate(tmp_path, "--motion", "step", "--nu", "0,0,0",
                   "--omega", "0,0,0.5", "--nu-after", "0,0,0",
                   "--omega-after", "0,0,2", "--count", 2000,
                   "--noise-px", 0.5, "--outlier-fraction", 0.1)
    flows, shuffled = out / "observations.csv", tmp_path / "shuffled.csv"
    with open(flows, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    np.random.default_rng(3).shuffle(rows)
    with open(shuffled, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    fits = []
    for path in (flows, shuffled):
        spline_path = tmp_path / f"{path.stem}.json"
        assert run("fit-spline", "--flows", path, "--kind", "angular-velocity",
                   "--output", spline_path) == 0
        fit = read_json(spline_path)
        del fit["timings"], fit["manifest"]
        fits.append(fit)
    assert fits[0] == fits[1]


def test_fit_spline_ragged_flows_csv_exits_2(tmp_path, capsys):
    out = step_dataset(tmp_path)
    cut_row(out / "observations.csv", 4, keep=4)
    spline_path = tmp_path / "spline.json"
    assert run("fit-spline", "--flows", out / "observations.csv",
               "--kind", "angular-velocity", "--output", spline_path) == 2
    assert "error:" in capsys.readouterr().err
    assert not spline_path.exists()


def test_fit_spline_nan_time_exits_2(tmp_path, capsys):
    out = step_dataset(tmp_path)
    edit_cell(out / "observations.csv", 7, "t", "nan")
    spline_path = tmp_path / "spline.json"
    assert run("fit-spline", "--flows", out / "observations.csv",
               "--kind", "angular-velocity", "--output", spline_path) == 2
    assert "column t" in capsys.readouterr().err
    assert not spline_path.exists()


def test_fit_spline_zero_max_rounds_exits_2(tmp_path, capsys):
    out = step_dataset(tmp_path)
    spline_path = tmp_path / "spline.json"
    assert run("fit-spline", "--flows", out / "observations.csv",
               "--kind", "angular-velocity", "--output", spline_path,
               "--max-rounds", 0) == 2
    assert "--max-rounds" in capsys.readouterr().err
    assert not spline_path.exists()


@pytest.mark.parametrize("flag, value", [
    ("--knot-spacing", 0), ("--knot-spacing", -0.05),
    ("--knot-spacing", "nan"), ("--knot-spacing", "inf"),
    ("--trace-points", -3), ("--trace-points", 0)])
def test_fit_spline_bad_option_exits_2_and_writes_nothing(tmp_path, capsys,
                                                          flag, value):
    out = step_dataset(tmp_path)
    spline_path, trace_path = tmp_path / "spline.json", tmp_path / "trace.csv"
    assert run("fit-spline", "--flows", out / "observations.csv",
               "--kind", "angular-velocity", "--output", spline_path,
               "--trace", trace_path, flag, value) == 2
    assert flag in capsys.readouterr().err
    assert not spline_path.exists() and not trace_path.exists()
    assert no_tmp_left(tmp_path)


def test_fit_spline_six_dof_needs_depth(tmp_path, capsys):
    out = simulate(tmp_path)
    strip_z_column(out / "observations.csv")
    capsys.readouterr()
    assert run("fit-spline", "--flows", out / "observations.csv",
               "--kind", "six-dof", "--output", tmp_path / "spline.json") == 2
    assert (capsys.readouterr().err
            == "error: six-dof rows need per-observation depths\n")
    assert not (tmp_path / "spline.json").exists() and no_tmp_left(tmp_path)


@pytest.mark.parametrize("depth", ["0", "-2.5"])
def test_fit_spline_bad_depth_exits_3(tmp_path, depth):
    out = simulate(tmp_path)
    edit_cell(out / "observations.csv", 5, "Z", depth)
    assert run("fit-spline", "--flows", out / "observations.csv",
               "--kind", "six-dof", "--output", tmp_path / "spline.json") == 3
    assert not (tmp_path / "spline.json").exists()


# --------------------------------------------------------------------------
# stage timings

def timed_extract(tmp_path):
    events = tmp_path / "events.txt"
    write_edge_events(events)
    flows = tmp_path / "flows.csv"
    return (["extract", "--events", events, "--output", flows],
            tmp_path / "flows.csv.stats.json",
            {"read_s", "surface_s", "extract_s", "write_s"})


def timed_solve(tmp_path, *argv):
    flows = simulate(tmp_path, "--outlier-fraction", 0.2) / "observations.csv"
    return (["solve", "--flows", flows, "--output", tmp_path / "fit.json",
             *argv], tmp_path / "fit.json", {"read_s", "solve_s"})


def timed_fit_spline(tmp_path):
    flows = step_dataset(tmp_path) / "observations.csv"
    return (["fit-spline", "--flows", flows, "--kind", "angular-velocity",
             "--output", tmp_path / "spline.json"], tmp_path / "spline.json",
            {"read_s", "init_s", "fit_s"})


TIMED = {
    "extract": timed_extract,
    "solve-six-dof": lambda tmp_path: timed_solve(tmp_path, "--kind",
                                                  "six-dof"),
    "solve-depth": lambda tmp_path: timed_solve(
        tmp_path, "--kind", "depth", "--velocity", velocity_file(tmp_path)),
    "fit-spline": timed_fit_spline,
}


@pytest.mark.parametrize("command", sorted(TIMED))
def test_stage_timings_lie_within_the_command(tmp_path, command):
    argv, output, keys = TIMED[command](tmp_path)
    start = time.perf_counter()
    assert run(*argv) == 0
    wall = time.perf_counter() - start
    timings = read_json(output)["timings"]
    assert set(timings) == keys
    # written compactly: one line, however long its lists
    assert output.read_text().count("\n") == 1
    assert all(isinstance(v, float) and v >= 0 for v in timings.values())
    assert sum(timings.values()) <= wall


# The least share of main()'s wall time that the stage timings of a 20 000
# flow homography solve cover.  In 20 runs of this test on a 2-core host
# the share was 0.86 to 0.92 (lowest 0.860), and 0.81 to 0.86 in 20 solves
# back to back in one process; the rest is argument parsing, the
# decomposition, the manifest and the JSON write, which no stage times.
STAGE_SHARE = 0.6


def test_solve_times_most_of_its_run_and_counts_refits(tmp_path):
    flows = simulate(tmp_path, "--scene", "plane", "--count", 20000,
                     "--noise-px", 0.5, "--outlier-fraction", 0.3,
                     "--seed", 7) / "observations.csv"
    output = tmp_path / "fit.json"
    start = time.perf_counter()
    assert run("solve", "--flows", flows, "--kind", "diff-homography",
               "--output", output) == 0
    wall = time.perf_counter() - start
    report = read_json(output)
    assert sum(report["timings"].values()) >= STAGE_SHARE * wall
    assert isinstance(report["refits"], int) and 1 <= report["refits"] <= 10


def edge_stream(tmp_path):
    """extract on vertical edges at 80 px/s and horizontal ones at 60 px/s,
    40 px apart on the 240 x 180 sensor, each pixel firing once: 86 400
    events."""
    y, x = np.mgrid[:180, :240]
    t = np.concatenate([(x % 40) / 80, (y % 40) / 60]).ravel()
    order = np.argsort(t, kind="stable")
    events = tmp_path / "edges.txt"
    np.savetxt(events, np.c_[t, np.tile(x.ravel(), 2), np.tile(y.ravel(), 2),
                             np.ones(t.size)][order], fmt="%.9f %d %d %d")
    return (["extract", "--events", events, "--t-ref", 0.45, "--output",
             tmp_path / "edges.csv"], tmp_path / "edges.csv.stats.json")


def noisy_step(tmp_path):
    """fit-spline on 10 000 flows of a 0.5 to 2 rad/s step, 0.5 px noise and
    10% outliers."""
    flows = simulate(tmp_path, "--motion", "step", "--nu", "0,0,0",
                     "--omega", "0,0,0.5", "--nu-after", "0,0,0",
                     "--omega-after", "0,0,2", "--count", 10000,
                     "--noise-px", 0.5, "--outlier-fraction", 0.1,
                     "--seed", 7) / "observations.csv"
    return (["fit-spline", "--flows", flows, "--kind", "angular-velocity",
             "--output", tmp_path / "spline.json"], tmp_path / "spline.json")


# The same for the other commands with stages.  In 20 runs on a 2-core host,
# each in a fresh process, the lowest share was 0.943 for extract and 0.944
# for fit-spline (0.911 and 0.938 while the manifest still looked its
# version up in importlib.metadata); 20 runs back to back in one process
# read 0.93 to 0.96 and 0.91 to 0.94.
@pytest.mark.parametrize("command", [edge_stream, noisy_step],
                         ids=["extract", "fit-spline"])
def test_stages_time_most_of_the_run(tmp_path, command):
    argv, output = command(tmp_path)
    start = time.perf_counter()
    assert run(*argv) == 0
    wall = time.perf_counter() - start
    assert sum(read_json(output)["timings"].values()) >= STAGE_SHARE * wall


def manifest_of(command, tmp_path):
    """argv of one run of command, and a function reading its manifest."""
    if command == "simulate":
        out = tmp_path / "sim"
        return (["simulate", "--output-dir", out, "--count", 100],
                lambda: read_json(out / "manifest.json"))
    if command == "bench-noise":
        out = tmp_path / "noise.csv"
        return (["bench-noise", "--kind", "angular-velocity", "--output", out,
                 "--grid", 0.1, "--trials", 2, "--samples", 50],
                lambda: read_json(f"{out}.manifest.json"))
    key = {"extract": "extract", "solve": "solve-six-dof",
           "fit-spline": "fit-spline"}[command]
    argv, output, _ = TIMED[key](tmp_path)
    return argv, lambda: read_json(output)["manifest"]


@pytest.mark.parametrize("command", ["bench-noise", "extract", "fit-spline",
                                     "simulate", "solve"])
def test_manifest_reports_peak_memory(tmp_path, command):
    # the process's peak resident memory, which can only grow
    argv, manifest = manifest_of(command, tmp_path)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert run(*argv) == 0
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert 0 < before <= manifest()["peak_rss_mb"] <= after


# --------------------------------------------------------------------------
# extract

def write_edge_events(path, speed_px=200.0, height=24, t_step=0.005, steps=60):
    """Vertical edge sweeping right at speed_px; one column per step."""
    lines = []
    for k in range(steps):
        t = k * t_step
        x = 10 + int(round(speed_px * t))
        for y in range(height):
            lines.append(f"{t:.6f} {x} {y} 1")
    path.write_text("\n".join(lines) + "\n")


def test_extract_pipeline(tmp_path):
    events = tmp_path / "events.txt"
    write_edge_events(events)
    flows_path = tmp_path / "flows.csv"
    code = run("extract", "--events", events, "--output", flows_path)
    assert code == 0
    rows = read_csv_rows(flows_path)
    assert rows
    fx = fy = 200.0  # default intrinsics
    speeds = [math.hypot(float(r["nx_cal"]) * fx, float(r["ny_cal"]) * fy)
              for r in rows]
    assert np.allclose(speeds, 200.0, rtol=0.02)
    stats = read_json(tmp_path / "flows.csv.stats.json")
    assert stats["n_events"] == 60 * 24
    assert stats["t_ref"] == 0.295          # the last event's time
    assert stats["stats"]["emitted"] == len(rows)
    # the 0.04 s window ending at 0.295 s holds the last 8 steps' columns
    assert stats["fired_px"] == 8 * 24
    assert set(stats["timings"]) == {"read_s", "surface_s", "extract_s",
                                     "write_s"}
    assert all(isinstance(v, float) and v >= 0
               for v in stats["timings"].values())
    assert no_tmp_left(tmp_path)


def test_extract_polarity_filter(tmp_path):
    events = tmp_path / "events.txt"
    write_edge_events(events)                  # every event is positive
    out = {name: tmp_path / f"{name}.csv" for name in ("default", "pos", "neg")}
    assert run("extract", "--events", events, "--output", out["default"]) == 0
    for polarity in ("pos", "neg"):
        assert run("extract", "--events", events, "--output", out[polarity],
                   "--polarity", polarity) == 0
    assert read_csv_rows(out["neg"]) == []
    assert read_json(f"{out['neg']}.stats.json")["stats"]["emitted"] == 0
    assert read_csv_rows(out["default"])
    assert out["pos"].read_bytes() == out["default"].read_bytes()


def test_extract_infinite_window_means_no_limit(tmp_path):
    events = tmp_path / "events.txt"
    write_edge_events(events)
    flows_path = tmp_path / "flows.csv"
    assert run("extract", "--events", events, "--output", flows_path,
               "--temporal-window", "inf") == 0
    assert read_csv_rows(flows_path)


@pytest.mark.parametrize("t_ref", ["nan", "inf", "-inf"])
def test_extract_non_finite_t_ref_exits_2(tmp_path, capsys, t_ref):
    events = tmp_path / "events.txt"
    write_edge_events(events)
    flows_path = tmp_path / "flows.csv"
    assert run("extract", "--events", events, "--output", flows_path,
               f"--t-ref={t_ref}") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert err.startswith("error: argument --t-ref: must be finite, got ")
    assert not flows_path.exists()
    assert not os.path.exists(f"{flows_path}.stats.json")


def test_extract_empty_events(tmp_path):
    events = tmp_path / "events.txt"
    events.write_text("")
    flows_path = tmp_path / "flows.csv"
    assert run("extract", "--events", events, "--output", flows_path) == 0
    assert read_csv_rows(flows_path) == []
    stats = read_json(tmp_path / "flows.csv.stats.json")
    assert stats["n_events"] == 0 and stats["t_ref"] == 0.0
    assert stats["fired_px"] == 0 and len(stats["timings"]) == 4


def test_extract_missing_events_file(tmp_path):
    assert run("extract", "--events", tmp_path / "nope.txt",
               "--output", tmp_path / "flows.csv") == 2


def test_extract_bad_event_line(tmp_path):
    events = tmp_path / "events.txt"
    events.write_text("0.0 5 5 1\n0.001 banana 5 1\n")
    assert run("extract", "--events", events,
               "--output", tmp_path / "flows.csv") == 2


GOOD_INTRINSICS = {"fx": 200.0, "fy": 200.0, "cx": 120.0, "cy": 90.0,
                   "width": 240, "height": 180}


@pytest.mark.parametrize("flag, name, text", [
    pytest.param("--intrinsics", "intrinsics.json",
                 json.dumps({**GOOD_INTRINSICS, "fx": None}), id="fx-null"),
    pytest.param("--intrinsics", "intrinsics.json",
                 json.dumps(list(GOOD_INTRINSICS.values())), id="intr-list"),
    pytest.param("--intrinsics", "intrinsics.json",
                 json.dumps({**GOOD_INTRINSICS, "width": math.inf}),
                 id="width-inf"),
    pytest.param("--intrinsics", "intrinsics.json", "{", id="intr-not-json"),
    pytest.param("--velocity", "velocity.json", "[0.1, 0.2, 0.3]",
                 id="velocity-list"),
    pytest.param("--events", "events.txt.gz", "0.1 1 1 1\n", id="not-gzip"),
])
def test_malformed_input_file_is_one_error_line(tmp_path, capsys, flag, name,
                                                text):
    path = tmp_path / name
    path.write_text(text)
    if flag == "--events":
        argv = ["extract", "--events", path]
    else:
        data = simulate(tmp_path)
        argv = ["solve", "--flows", data / "observations.csv", "--kind", "depth",
                flag, path]
    capsys.readouterr()
    assert run(*argv, "--output", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(path) in err
    assert not (tmp_path / "out").exists()


# --------------------------------------------------------------------------
# bench-noise

def test_bench_noise_monotone_and_deterministic(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run("bench-noise", "--kind", "angular-velocity", "--grid", "0.1,10",
               "--trials", 3, "--samples", 150, "--output", out, "--seed", 1)
    assert code == 0
    rows = read_csv_rows(out)
    assert [r["noise_px"] for r in rows] == ["0.1", "10"]
    assert float(rows[1]["median_err"]) > float(rows[0]["median_err"])
    assert (tmp_path / "sweep.csv.manifest.json").exists()
    again = tmp_path / "sweep2.csv"
    run("bench-noise", "--kind", "angular-velocity", "--grid", "0.1,10",
        "--trials", 3, "--samples", 150, "--output", again, "--seed", 1)
    assert out.read_bytes() == again.read_bytes()


def test_bench_noise_bad_grid(tmp_path):
    assert run("bench-noise", "--kind", "angular-velocity", "--grid", "1,0.5",
               "--trials", 2, "--samples", 50,
               "--output", tmp_path / "sweep.csv") == 2


@pytest.mark.parametrize("argv", [
    ["bench-noise", "--kind", "angular-velocity", "--output", "out", "--trials", "0"],
    ["bench-noise", "--kind", "angular-velocity", "--output", "out", "--samples", "0"],
    ["bench-noise", "--kind", "angular-velocity", "--output", "out", "--trials", "-2"],
    ["simulate", "--output-dir", "out", "--count", "0"],
    ["simulate", "--output-dir", "out", "--count", "2.5"]])
def test_bad_count_flag_is_one_error_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    flag, value = argv[-2:]
    assert run(*argv) == 2
    assert capsys.readouterr().err == (
        f"error: argument {flag}: must be an integer >= 1, got '{value}'\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, samples", [("angular-velocity", 2),
                                           ("six-dof", 5),
                                           ("diff-homography", 7)])
def test_bench_noise_too_few_samples_is_degenerate(tmp_path, capsys, kind,
                                                   samples):
    assert run("bench-noise", "--kind", kind, "--trials", 2, "--samples",
               samples, "--output", tmp_path / "sweep.csv") == 3
    assert "need >=" in capsys.readouterr().err


# --------------------------------------------------------------------------
# config file / environment / flag precedence

def test_config_file_supplies_options(tmp_path, monkeypatch):
    monkeypatch.delenv("EVNF_SEED", raising=False)
    config = tmp_path / "run.cfg"
    config.write_text("seed = 77\ncount = 120\nomega = -0.5,0,0\n# comment\n")
    out = tmp_path / "data"
    assert run("simulate", "--output-dir", out, "--config", config) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["seed"] == 77
    assert manifest["config"]["count"] == 120
    assert manifest["config"]["omega"] == [-0.5, 0.0, 0.0]
    assert read_json(out / "ground_truth.json")["omega"] == [-0.5, 0.0, 0.0]
    assert len(read_csv_rows(out / "observations.csv")) == 120


@pytest.mark.parametrize("argv, lines, expected", [
    (["--kind", "angular-velocity"], "no-robust = true", {"no_robust": True}),
    (["--kind", "angular-velocity"], "no-robust = false", {"no_robust": False}),
    (["--kind", "angular-velocity"], "max_iterations = 5\njobs = 4\nhelp = 1",
     {"max_iterations": 1000}),
    ([], "kind = angular-velocity", {"kind": "angular-velocity"}),
], ids=["store-true-on", "store-true-off", "ignored-keys", "required-from-file"])
def test_config_file_sets_fit_spline_option(tmp_path, argv, lines, expected):
    out = step_dataset(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text(lines + "\n")
    spline_path = tmp_path / "spline.json"
    assert run("fit-spline", "--flows", out / "observations.csv", *argv,
               "--output", spline_path, "--max-rounds", 2,
               f"--config={config}") == 0
    resolved = read_json(spline_path)["manifest"]["config"]
    assert {key: resolved[key] for key in expected} == expected


def test_flag_overrides_config_overrides_env(tmp_path, monkeypatch):
    config = tmp_path / "run.cfg"
    config.write_text("seed = 77\n")
    monkeypatch.setenv("EVNF_SEED", "123")
    out1 = tmp_path / "flag"
    run("simulate", "--output-dir", out1, "--count", 50, "--config", config,
        "--seed", 5)
    assert read_json(out1 / "manifest.json")["seed"] == 5
    out2 = tmp_path / "cfg"
    run("simulate", "--output-dir", out2, "--count", 50, "--config", config)
    assert read_json(out2 / "manifest.json")["seed"] == 77
    out3 = tmp_path / "env"
    run("simulate", "--output-dir", out3, "--count", 50)
    assert read_json(out3 / "manifest.json")["seed"] == 123
    monkeypatch.delenv("EVNF_SEED")
    out4 = tmp_path / "default"
    run("simulate", "--output-dir", out4, "--count", 50)
    assert read_json(out4 / "manifest.json")["seed"] == 0


@pytest.mark.parametrize("value", ["abc", "-3", "1.5", "0x10"])
def test_bad_env_seed_exits_2_naming_it(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("EVNF_SEED", value)
    assert run("simulate", "--output-dir", tmp_path / "d", "--count", 10) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "EVNF_SEED" in err[0] and repr(value) in err[0]
    assert not (tmp_path / "d").exists()
    # a seed flag leaves the variable unread
    assert run("simulate", "--output-dir", tmp_path / "d", "--count", 10,
               "--seed", 4) == 0


@pytest.mark.parametrize("argv", [
    ["extract", "--events", "events.txt", "--output", "flows.csv"],
    ["solve", "--flows", "flows.csv", "--kind", "six-dof", "--output", "fit.json"],
    ["fit-spline", "--flows", "flows.csv", "--kind", "six-dof",
     "--output", "fit.json"],
    ["simulate", "--output-dir", "data", "--count", "10"],
    ["bench-noise", "--kind", "depth", "--output", "noise.csv"],
], ids=lambda argv: argv[0])
def test_negative_seed_flag_exits_2_naming_it(tmp_path, capsys, argv):
    argv = [tmp_path / a if a.endswith((".txt", ".csv", ".json", "data")) else a
            for a in argv]
    assert run(*argv, "--seed", "-3") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "--seed" in err[0] and "-3" in err[0]
    assert os.listdir(tmp_path) == []


def test_config_store_true_key_not_a_boolean_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("no-robust = maybe\n")
    assert run("fit-spline", "--flows", tmp_path / "flows.csv",
               "--kind", "angular-velocity", "--output", tmp_path / "x.json",
               "--config", config) == 2
    assert (capsys.readouterr().err
            == f"error: {config}: no-robust: not a boolean: maybe\n")
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_numerical_failure_exits_4(tmp_path, capsys, monkeypatch):
    out = simulate(tmp_path)
    capsys.readouterr()

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr("evnormalflow.cli.ransac_estimate", fail)
    report_path = tmp_path / "fit.json"
    assert run("solve", "--flows", out / "observations.csv",
               "--kind", "angular-velocity", "--output", report_path) == 4
    assert (capsys.readouterr().err
            == "numerical failure: SVD did not converge\n")
    assert not report_path.exists()


@pytest.mark.parametrize("error", [OverflowError("overflow in exp"),
                                   evnormalflow.EvnfError("overflow in exp")])
def test_arithmetic_or_library_failure_exits_4(tmp_path, capsys, monkeypatch,
                                               error):
    # neither an input error nor a degeneracy: a numerical failure
    out = simulate(tmp_path)
    capsys.readouterr()

    def fail(*args, **kwargs):
        raise error
    monkeypatch.setattr("evnormalflow.cli.ransac_estimate", fail)
    report_path = tmp_path / "fit.json"
    assert run("solve", "--flows", out / "observations.csv",
               "--kind", "angular-velocity", "--output", report_path) == 4
    assert capsys.readouterr().err == "numerical failure: overflow in exp\n"
    assert not report_path.exists()


def test_json_default_converts_numpy_and_refuses_the_rest(tmp_path):
    assert _json_default(np.array([[1.5, 2.0]])) == [[1.5, 2.0]]
    value = _json_default(np.int64(7))
    assert value == 7 and type(value) is int
    assert _json_default(np.bool_(True)) is True
    with pytest.raises(TypeError, match="set"):
        _json_default({1, 2})
    with pytest.raises(TypeError):
        _atomic_write_json(tmp_path / "x.json", {"a": {1, 2}})
    assert os.listdir(tmp_path) == []


def test_config_bad_line(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("this is not a key value pair\n")
    assert run("simulate", "--output-dir", tmp_path / "x",
               "--config", config) == 2


@pytest.mark.parametrize("argv, line", [
    (["simulate", "--output-dir", "data"], "nu = 1,2"),
    (["bench-noise", "--kind", "depth", "--output", "noise.csv"], "grid = 1,x"),
    (["extract", "--events", "events.txt", "--output", "flows.csv"],
     "polarity = bogus"),
    (["solve", "--flows", "flows.csv", "--output", "fit.json"], "kind = bogus"),
], ids=["simulate-nu", "bench-noise-grid", "extract-polarity", "solve-kind"])
def test_config_value_checked_like_a_flag(tmp_path, capsys, argv, line):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    argv = [tmp_path / a if a.endswith((".txt", ".csv", ".json", "data")) else a
            for a in argv]
    assert run(*argv, "--config", config) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and line.split()[0] in err
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_missing_required_option(tmp_path):
    assert run("solve", "--kind", "angular-velocity",
               "--output", tmp_path / "x.json") == 2


# --------------------------------------------------------------------------
# defaults

def signature_default(function, name):
    return inspect.signature(function).parameters[name].default


# --threshold is in px/s: the library's bound in 1/s at the default focal
# lengths, which the flag's own conversion takes back to that bound
PX_PER_CALIBRATED = math.sqrt(DEFAULT_INTRINSICS.fx * DEFAULT_INTRINSICS.fy)


@pytest.mark.parametrize("command, dest, want", [
    *[("extract", name, getattr(ExtractionConfig(), name))
      for name in ("temporal_window", "spatial_window", "plane_thresh",
                   "plane_iters", "min_support", "min_gradient")],
    ("solve", "threshold", RansacConfig().threshold * PX_PER_CALIBRATED),
    ("solve", "max_iterations", RansacConfig().max_iterations),
    ("solve", "confidence", RansacConfig().confidence),
    ("fit-spline", "max_rounds",
     signature_default(SplineFitProblem, "max_rounds")),
    ("simulate", "count", signature_default(generate_dataset, "count")),
    ("simulate", "window", signature_default(generate_dataset, "window")),
    ("simulate", "noise_px", NoiseSpec().sigma_px),
    ("simulate", "outlier_fraction", NoiseSpec().outlier_fraction),
    ("simulate", "plane_normal", PlaneScene().normal),
    ("simulate", "plane_d", PlaneScene().d),
    ("simulate", "plane_d", TwoWallsScene().d),
    ("simulate", "depth_range", RandomPointsScene().depth_range),
    ("simulate", "walls_angle", TwoWallsScene().angle),
    *[("simulate", "extent", scene().extent)
      for scene in (RandomPointsScene, PlaneScene, TwoWallsScene)],
    ("bench-noise", "grid",
     signature_default(run_noise_sweep, "noise_grid_px")),
    ("bench-noise", "trials", signature_default(run_noise_sweep, "trials")),
    ("bench-noise", "samples", signature_default(run_noise_sweep, "samples")),
])
def test_flag_default_is_the_library_default(command, dest, want):
    got = build_parser()[1].choices[command].get_default(dest)
    if isinstance(want, tuple):          # a flag's list, a library tuple
        got, want = list(got), list(want)
    assert got == want and type(got) is type(want)
    if dest == "threshold":              # 12 px/s, as the README says
        assert got == 12.0 and got / PX_PER_CALIBRATED == RansacConfig().threshold
