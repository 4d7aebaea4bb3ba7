"""Local plane fitting and normal-flow extraction from time surfaces."""
import numpy as np
import pytest

from evnormalflow import (BelowMinGradient, DegenerateConfiguration, Event,
                          ExtractionConfig, InsufficientSupport, Intrinsics,
                          MovingEdge, Observations, OutOfBounds,
                          build_time_surface, extract_normal_flows,
                          fit_local_plane, normal_flow_from_gradient,
                          read_flows_csv, records_to_obs, surface_from_edges,
                          write_flows_csv)
from evnormalflow.events import TimeSurface, UNFIRED
from evnormalflow.extraction import FLOWS_DTYPE

INTR = Intrinsics(fx=100.0, fy=100.0, cx=40.0, cy=30.0, width=80, height=60)


def ramp_surface(gx, gy, shape=(60, 80), t_ref=0.0, window=1.0):
    """Surface whose timestamps follow t = gx*x + gy*y + c exactly, shifted
    so every pixel lies inside (t_ref - window, t_ref]."""
    h, w = shape
    qx, qy = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    ts = gx * qx + gy * qy
    ts += (t_ref - window / 2) - ts.mean()
    lo, hi = ts.min(), ts.max()
    assert lo > t_ref - window and hi <= t_ref
    return TimeSurface(timestamps=ts, polarity=np.ones(shape, np.int8),
                       t_ref=t_ref, temporal_window=window)


def test_plane_fit_exact_ramp():
    surface = ramp_surface(0.01, 0.0, window=2.0)
    cfg = ExtractionConfig(temporal_window=2.0)
    fit = fit_local_plane(surface, (40, 30), cfg)
    assert np.allclose(fit.gradient, [0.01, 0.0], atol=1e-12)
    assert fit.rms < 1e-12
    assert fit.inlier_count == 49


def test_plane_fit_general_gradient():
    surface = ramp_surface(0.004, -0.003, window=1.0)
    cfg = ExtractionConfig(temporal_window=1.0)
    for px, py in [(10, 10), (40, 30), (70, 50)]:
        fit = fit_local_plane(surface, (px, py), cfg)
        assert np.allclose(fit.gradient, [0.004, -0.003], atol=1e-12)


def test_plane_fit_flat_patch_gives_zero_gradient():
    ts = np.full((20, 20), 0.5)
    surface = TimeSurface(ts, np.ones((20, 20), np.int8), t_ref=0.5,
                          temporal_window=1.0)
    fit = fit_local_plane(surface, (10, 10), ExtractionConfig(temporal_window=1.0))
    assert np.allclose(fit.gradient, [0.0, 0.0], atol=1e-12)
    with pytest.raises(BelowMinGradient):
        normal_flow_from_gradient(fit.gradient, 1e-4)


def test_plane_fit_insufficient_support():
    ts = np.full((20, 20), UNFIRED)
    ts[10, 10] = 0.5
    ts[10, 11] = 0.5
    ts[11, 10] = 0.5
    surface = TimeSurface(ts, np.zeros((20, 20), np.int8), 0.5, 1.0)
    with pytest.raises(InsufficientSupport):
        fit_local_plane(surface, (10, 10), ExtractionConfig(temporal_window=1.0))


def test_plane_fit_collinear_pixels_degenerate():
    ts = np.full((20, 20), UNFIRED)
    ts[10, 7:14] = 0.5  # a horizontal line of fired pixels
    ts[10, 7:14] += np.linspace(0, 1e-4, 7)
    surface = TimeSurface(ts, np.zeros((20, 20), np.int8), 0.5, 1.0)
    cfg = ExtractionConfig(temporal_window=1.0, min_support=5)
    with pytest.raises(DegenerateConfiguration):
        fit_local_plane(surface, (10, 10), cfg)


def test_plane_fit_rejects_second_structure():
    # a clean ramp with an interfering much-older cluster: RANSAC keeps the ramp
    surface = ramp_surface(0.01, 0.0, window=2.0)
    ts = surface.timestamps.copy()
    ts[28:31, 38:40] = ts[28:31, 38:40] - 0.4  # stale structure
    noisy = TimeSurface(ts, surface.polarity, surface.t_ref, 2.0)
    fit = fit_local_plane(noisy, (40, 30), ExtractionConfig(temporal_window=2.0))
    assert np.allclose(fit.gradient, [0.01, 0.0], atol=1e-12)
    assert fit.inlier_count == 49 - 6


def test_normal_flow_from_gradient_values():
    assert np.allclose(normal_flow_from_gradient([0.5, 0.0], 1e-4), [2.0, 0.0])
    assert np.allclose(normal_flow_from_gradient([0.1, 0.1], 1e-4), [5.0, 5.0])


def test_normal_flow_magnitude_is_reciprocal_gradient():
    rng = np.random.default_rng(13)
    for _ in range(50):
        g = rng.uniform(-0.1, 0.1, 2)
        if np.linalg.norm(g) < 1e-3:
            continue
        n = normal_flow_from_gradient(g, 1e-4)
        # direction parallel, magnitude law |n| |g| = 1
        cross = n[0] * g[1] - n[1] * g[0]
        assert abs(cross) < 1e-9 * np.linalg.norm(n) * np.linalg.norm(g)
        assert abs(np.linalg.norm(n) * np.linalg.norm(g) - 1.0) < 1e-9


def test_extract_vertical_edge_100px_s():
    edges = [MovingEdge(point=(5.0, 0.0), direction=(0.0, 1.0),
                        velocity=(100.0, 0.0))]
    surface = surface_from_edges(edges, (INTR.height, INTR.width), window=0.5)
    cfg = ExtractionConfig(temporal_window=0.5)
    obs, stats = extract_normal_flows(surface, INTR, cfg)
    assert stats.emitted == len(obs) > 500
    flows = obs.n
    target = np.array([100.0 / INTR.fx, 0.0])
    err = np.linalg.norm(flows - target, axis=1) / np.linalg.norm(target)
    assert err.max() <= 0.02


def test_extract_empty_surface():
    ts = np.full((INTR.height, INTR.width), UNFIRED)
    surface = TimeSurface(ts, np.zeros(ts.shape, np.int8), 1.0, 0.04)
    obs, stats = extract_normal_flows(surface, INTR)
    assert len(obs) == 0 and stats.candidates == 0


def test_extract_repetitive_texture_rejected():
    # stripes with period 2 px: timestamps alternate, nothing is planar
    h, w = INTR.height, INTR.width
    qx = np.meshgrid(np.arange(w), np.arange(h))[0]
    ts = np.where(qx % 2 == 0, 0.99, 0.995)
    surface = TimeSurface(ts.astype(float), np.ones((h, w), np.int8), 1.0, 0.04)
    records, stats = extract_normal_flows(surface, INTR)
    # high rejection rate; no guarantee on survivors
    assert stats.emitted <= 0.2 * stats.candidates


def test_extract_deterministic_and_bitwise_equal_to_single_pixel_fits():
    edges = [MovingEdge(point=(5.0, 0.0), direction=(0.0, 1.0),
                        velocity=(80.0, 0.0)),
             MovingEdge(point=(0.0, 3.0), direction=(1.0, 0.0),
                        velocity=(0.0, 60.0))]
    surface = surface_from_edges(edges, (INTR.height, INTR.width), window=0.5)
    cfg = ExtractionConfig(temporal_window=0.5, seed=5)
    first, s1 = extract_normal_flows(surface, INTR, cfg)
    second, s2 = extract_normal_flows(surface, INTR, cfg)
    for name in ("xy", "n", "t", "mag2", "px", "inliers", "rms"):
        assert np.array_equal(getattr(first, name), getattr(second, name))
    assert s1.to_dict() == s2.to_dict()
    assert s1.emitted == len(first) > 100
    # Every flow is the single-pixel fit of its pixel, bit for bit.
    for (x, y), n, inliers, rms in zip(first.px.tolist(), first.n.tolist(),
                                       first.inliers.tolist(),
                                       first.rms.tolist()):
        fit = fit_local_plane(surface, (int(x), int(y)), cfg)
        gcx, gcy = INTR.fx * fit.gradient[0], INTR.fy * fit.gradient[1]
        mag2 = gcx * gcx + gcy * gcy
        assert tuple(n) == (gcx / mag2, gcy / mag2)
        assert (inliers, rms) == (fit.inlier_count, fit.rms)


def test_extract_counts_collinear_support_as_degenerate():
    # a one-pixel-wide horizontal line of fired pixels, x = 10 .. 69
    ts = np.full((INTR.height, INTR.width), UNFIRED)
    ts[30, 10:70] = 0.99 + 1e-5 * np.arange(60)
    surface = TimeSurface(ts, np.ones(ts.shape, np.int8), 1.0, 0.04)
    cfg = ExtractionConfig(min_support=5)
    obs, stats = extract_normal_flows(surface, INTR, cfg)
    # the two end pixels see only 4 line pixels in their 7x7 window
    assert len(obs) == 0
    assert stats.to_dict() == {"candidates": 60, "emitted": 0,
                               "insufficient_support": 2,
                               "degenerate_configuration": 58,
                               "below_min_gradient": 0}


def test_extract_shape_mismatch():
    ts = np.full((10, 10), UNFIRED)
    surface = TimeSurface(ts, np.zeros((10, 10), np.int8), 1.0, 0.04)
    with pytest.raises(ValueError):
        extract_normal_flows(surface, INTR)


def test_extract_from_event_stream_end_to_end():
    # events generated from an analytic edge sweep, folded into a surface,
    # must reproduce the edge speed; the fractional start keeps crossings off
    # the left window boundary (closed for the oracle, open for ingestion)
    edges = [MovingEdge(point=(5.3, 0.0), direction=(0.0, 1.0),
                        velocity=(50.0, 0.0))]
    oracle = surface_from_edges(edges, (INTR.height, INTR.width), window=0.5)
    ys, xs = np.nonzero(oracle.fired_mask())
    ts = oracle.timestamps[ys, xs]
    order = np.argsort(ts, kind="stable")
    events = [Event(t=float(ts[i]), x=int(xs[i]), y=int(ys[i]), p=1)
              for i in order]
    surface = build_time_surface(events, t_ref=0.5, temporal_window=0.5,
                                 shape=(INTR.height, INTR.width))
    assert np.array_equal(surface.timestamps, oracle.timestamps)
    obs, _ = extract_normal_flows(surface, INTR,
                                  ExtractionConfig(temporal_window=0.5))
    assert np.allclose(obs.n, [50.0 / INTR.fx, 0.0], rtol=1e-6, atol=1e-9)


def two_flows():
    return Observations(xy=np.zeros((2, 2)), n=[(0.25, -0.125), (-0.5, 0.0)],
                        t=[0.123456789, 0.2], px=[(10, 20), (11, 21)],
                        inliers=[12, 20], rms=[1e-6, 2e-6])


def test_flows_csv_round_trip(tmp_path):
    records = two_flows()
    path = tmp_path / "flows.csv"
    write_flows_csv(path, records)
    back, depths = read_flows_csv(path)
    assert depths is None
    assert len(back) == 2
    assert back[0].t == pytest.approx(0.123456789, abs=1e-9)
    assert back[1].nx_cal == -0.5 and back[1].inliers == 20

    write_flows_csv(path, records, depths=np.array([1.5, 2.5]))
    back, depths = read_flows_csv(path)
    assert np.allclose(depths, [1.5, 2.5])


def test_flows_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_flows_csv(path)


def test_records_to_obs():
    records = np.array([(0.1, INTR.cx, INTR.cy, 0.3, 0.4, 10, 0.0)],
                       dtype=FLOWS_DTYPE).view(np.recarray)
    obs = records_to_obs(records, INTR)
    assert obs.xy.tolist() == [[0.0, 0.0]]
    assert obs.mag2[0] == pytest.approx(0.25)


def test_records_to_obs_matches_per_row_calibration():
    rng = np.random.default_rng(14)
    k = 500
    records = np.empty(k, dtype=FLOWS_DTYPE).view(np.recarray)
    records.t = rng.uniform(0, 1, k)
    records.x_px = rng.integers(0, INTR.width, k)
    records.y_px = rng.integers(0, INTR.height, k)
    records.nx_cal, records.ny_cal = rng.standard_normal((2, k))
    records.inliers, records.rms = 10, 0.0
    obs = records_to_obs(records, INTR)
    for i, r in enumerate(records):
        assert tuple(obs.xy[i]) == ((float(r.x_px) - INTR.cx) / INTR.fx,
                                    (float(r.y_px) - INTR.cy) / INTR.fy)
        n = np.array([r.nx_cal, r.ny_cal])
        assert obs.t[i] == r.t and obs.mag2[i] == float(n @ n)
    assert np.array_equal(obs.px, np.stack([records.x_px, records.y_px], 1))


def test_records_to_obs_checks_every_row():
    records = np.array([(0.1, 1.0, 1.0, 0.3, 0.4, 10, 0.0),
                        (0.2, 2.0, INTR.height, 0.3, 0.4, 10, 0.0)],
                       dtype=FLOWS_DTYPE).view(np.recarray)
    with pytest.raises(OutOfBounds):
        records_to_obs(records, INTR)


def test_flows_csv_bytes_match_csv_module_format(tmp_path):
    # the format the file has always had: csv.writer rows of "%.9g" floats
    # and an integer inlier count, CRLF line ends
    import csv
    import io
    obs = two_flows()
    depths = np.array([1.5, 2.0 / 3.0])
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["t", "x_px", "y_px", "nx_cal", "ny_cal", "inliers", "rms", "Z"])
    for i in range(2):
        writer.writerow([f"{obs.t[i]:.9g}", f"{obs.px[i, 0]:.9g}",
                         f"{obs.px[i, 1]:.9g}", f"{obs.n[i, 0]:.9g}",
                         f"{obs.n[i, 1]:.9g}", str(obs.inliers[i]),
                         f"{obs.rms[i]:.9g}", f"{depths[i]:.9g}"])
    path = tmp_path / "flows.csv"
    write_flows_csv(path, obs, depths=depths)
    assert path.read_bytes() == expected.getvalue().encode()


def test_flows_csv_header_only_reads_empty(tmp_path):
    path = tmp_path / "flows.csv"
    write_flows_csv(path, two_flows()[:0])
    records, depths = read_flows_csv(path)   # no "input contained no data"
    assert len(records) == 0 and depths is None
    path.write_text("t,x_px,y_px,nx_cal,ny_cal,inliers,rms,Z\n")
    records, depths = read_flows_csv(path)
    assert len(records) == 0 and len(depths) == 0


def test_flows_csv_rejects_ragged_row(tmp_path):
    path = tmp_path / "flows.csv"
    write_flows_csv(path, two_flows())
    lines = path.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:4])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_flows_csv(path)


@pytest.mark.parametrize("column", ["t", "x_px", "nx_cal", "rms", "Z"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_flows_csv_rejects_non_finite_values(tmp_path, column, value):
    path = tmp_path / "flows.csv"
    write_flows_csv(path, two_flows(), depths=np.array([1.5, 2.5]))
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[2].split(",")
    row[header.index(column)] = value
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"column {column} "):
        read_flows_csv(path)


def test_config_validation():
    with pytest.raises(ValueError):
        ExtractionConfig(spatial_window=4)
    with pytest.raises(ValueError):
        ExtractionConfig(temporal_window=-1.0)
    with pytest.raises(ValueError):
        ExtractionConfig(min_support=2)
    assert ExtractionConfig(max_flow=100.0).gradient_floor == pytest.approx(0.01)
