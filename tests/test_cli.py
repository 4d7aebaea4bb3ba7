"""End-to-end command-line tests: every subcommand through main(argv),
exit codes, manifest plumbing, and config/environment precedence."""
import csv
import json
import math
import os

import numpy as np
import pytest

from evnormalflow.cli import main


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
    # the 3 px/s default over a 200 px focal length caps the threshold,
    # which the fit then tightens to about 3 sigma of the 0.5 px noise
    assert 1.0 / 200 < report["threshold"] < 3.0 / 200
    assert report["rms"] < report["threshold"]


def test_solve_threshold_flag_is_in_pixels_per_second(tmp_path):
    intrinsics = tmp_path / "intrinsics.json"
    intrinsics.write_text(json.dumps({"fx": 100.0, "fy": 400.0, "cx": 120.0,
                                      "cy": 200.0, "width": 240,
                                      "height": 400}))
    out = simulate(tmp_path, "--nu", "0,0,0", "--intrinsics", intrinsics)
    report_path = tmp_path / "fit.json"
    assert run("solve", "--flows", out / "observations.csv", "--intrinsics",
               intrinsics, "--kind", "angular-velocity", "--threshold", 4,
               "--output", report_path) == 0
    report = read_json(report_path)
    assert report["n_inliers"] == 400
    # noise-free data tighten the cap to its floor, one hundredth of
    # 4 px/s over sqrt(fx * fy) = 200 px
    assert report["threshold"] == pytest.approx(4.0 / 200 / 100, rel=1e-12)


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


def test_solve_six_dof_roundtrip_and_missing_depth(tmp_path):
    out = simulate(tmp_path)
    report_path = tmp_path / "fit.json"
    code = run("solve", "--flows", out / "observations.csv",
               "--kind", "six-dof", "--output", report_path)
    assert code == 0
    theta = read_json(report_path)["theta"]
    assert np.allclose(theta, [0.2, -0.1, 0.3, 0.1, -0.2, 0.15], atol=1e-5)
    strip_z_column(out / "observations.csv")
    missing = tmp_path / "missing.json"
    assert run("solve", "--flows", out / "observations.csv",
               "--kind", "six-dof", "--output", missing) == 2
    assert not missing.exists()


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


def test_solve_depth_per_pixel(tmp_path):
    out = simulate(tmp_path)
    velocity_path = tmp_path / "velocity.json"
    velocity_path.write_text(json.dumps(
        {"nu": [0.2, -0.1, 0.3], "omega": [0.1, -0.2, 0.15]}))
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
    assert "max_rounds" in capsys.readouterr().err
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


def test_fit_spline_six_dof_needs_depth(tmp_path):
    out = simulate(tmp_path)
    strip_z_column(out / "observations.csv")
    assert run("fit-spline", "--flows", out / "observations.csv",
               "--kind", "six-dof", "--output", tmp_path / "spline.json") == 2


@pytest.mark.parametrize("depth", ["0", "-2.5"])
def test_fit_spline_bad_depth_exits_3(tmp_path, depth):
    out = simulate(tmp_path)
    edit_cell(out / "observations.csv", 5, "Z", depth)
    assert run("fit-spline", "--flows", out / "observations.csv",
               "--kind", "six-dof", "--output", tmp_path / "spline.json") == 3
    assert not (tmp_path / "spline.json").exists()


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
    assert stats["stats"]["emitted"] == len(rows)
    assert no_tmp_left(tmp_path)


@pytest.mark.parametrize("flag, value", [
    ("--plane-thresh", "nan"), ("--temporal-window", "nan"),
    ("--max-flow", "nan"), ("--min-gradient", "nan"),
    ("--plane-thresh", "inf"), ("--min-gradient", "inf"),
    ("--seed", "18446744073709551616"), ("--seed", "-1")])
def test_extract_bad_config_value_exits_2(tmp_path, capsys, flag, value):
    events = tmp_path / "events.txt"
    write_edge_events(events)
    flows_path = tmp_path / "flows.csv"
    assert run("extract", "--events", events, "--output", flows_path,
               flag, value) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag[2:].replace("-", "_") in err
    assert not flows_path.exists()


def test_extract_infinite_window_and_flow_cap_mean_no_limit(tmp_path):
    events = tmp_path / "events.txt"
    write_edge_events(events)
    flows_path = tmp_path / "flows.csv"
    assert run("extract", "--events", events, "--output", flows_path,
               "--temporal-window", "inf", "--max-flow", "inf") == 0
    assert read_csv_rows(flows_path)


def test_extract_empty_events(tmp_path):
    events = tmp_path / "events.txt"
    events.write_text("")
    flows_path = tmp_path / "flows.csv"
    assert run("extract", "--events", events, "--output", flows_path) == 0
    assert read_csv_rows(flows_path) == []
    assert read_json(tmp_path / "flows.csv.stats.json")["n_events"] == 0


def test_extract_missing_events_file(tmp_path):
    assert run("extract", "--events", tmp_path / "nope.txt",
               "--output", tmp_path / "flows.csv") == 2


def test_extract_bad_event_line(tmp_path):
    events = tmp_path / "events.txt"
    events.write_text("0.0 5 5 1\n0.001 banana 5 1\n")
    assert run("extract", "--events", events,
               "--output", tmp_path / "flows.csv") == 2


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
