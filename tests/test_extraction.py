"""Local plane fitting and normal-flow extraction from time surfaces."""
import numpy as np
import pytest

from evnormalflow import (BelowMinGradient, DegenerateConfiguration, Event,
                          ExtractionConfig, FlowRecord, InsufficientSupport,
                          Intrinsics, MovingEdge, build_time_surface,
                          extract_normal_flows, fit_local_plane,
                          normal_flow_from_gradient, read_flows_csv,
                          records_to_obs, surface_from_edges, write_flows_csv)
from evnormalflow.events import TimeSurface, UNFIRED

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
    records, stats = extract_normal_flows(surface, INTR, cfg)
    assert stats.emitted == len(records) > 500
    flows = np.array([[r.nx_cal, r.ny_cal] for r in records])
    target = np.array([100.0 / INTR.fx, 0.0])
    err = np.linalg.norm(flows - target, axis=1) / np.linalg.norm(target)
    assert err.max() <= 0.02


def test_extract_empty_surface():
    ts = np.full((INTR.height, INTR.width), UNFIRED)
    surface = TimeSurface(ts, np.zeros(ts.shape, np.int8), 1.0, 0.04)
    records, stats = extract_normal_flows(surface, INTR)
    assert records == [] and stats.candidates == 0


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
    assert first == second and s1.to_dict() == s2.to_dict()
    assert s1.emitted == len(first) > 100
    # Every record is the single-pixel fit of its pixel, bit for bit.
    for r in first:
        fit = fit_local_plane(surface, (int(r.x_px), int(r.y_px)), cfg)
        gcx, gcy = INTR.fx * fit.gradient[0], INTR.fy * fit.gradient[1]
        mag2 = gcx * gcx + gcy * gcy
        assert (r.nx_cal, r.ny_cal) == (gcx / mag2, gcy / mag2)
        assert (r.inliers, r.rms) == (fit.inlier_count, fit.rms)


def test_extract_counts_collinear_support_as_degenerate():
    # a one-pixel-wide horizontal line of fired pixels, x = 10 .. 69
    ts = np.full((INTR.height, INTR.width), UNFIRED)
    ts[30, 10:70] = 0.99 + 1e-5 * np.arange(60)
    surface = TimeSurface(ts, np.ones(ts.shape, np.int8), 1.0, 0.04)
    cfg = ExtractionConfig(min_support=5)
    records, stats = extract_normal_flows(surface, INTR, cfg)
    # the two end pixels see only 4 line pixels in their 7x7 window
    assert records == []
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
    records, _ = extract_normal_flows(surface, INTR,
                                      ExtractionConfig(temporal_window=0.5))
    flows = np.array([[r.nx_cal, r.ny_cal] for r in records])
    assert np.allclose(flows, [50.0 / INTR.fx, 0.0], rtol=1e-6, atol=1e-9)


def test_flows_csv_round_trip(tmp_path):
    records = [FlowRecord(t=0.123456789, x_px=10, y_px=20, nx_cal=0.25,
                          ny_cal=-0.125, inliers=12, rms=1e-6),
               FlowRecord(t=0.2, x_px=11, y_px=21, nx_cal=-0.5, ny_cal=0.0,
                          inliers=20, rms=2e-6)]
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
    records = [FlowRecord(t=0.1, x_px=INTR.cx, y_px=INTR.cy, nx_cal=0.3,
                          ny_cal=0.4, inliers=10, rms=0.0)]
    obs = records_to_obs(records, INTR)
    assert obs[0].x.x == 0.0 and obs[0].x.y == 0.0
    assert obs[0].mag2 == pytest.approx(0.25)


def test_config_validation():
    with pytest.raises(ValueError):
        ExtractionConfig(spatial_window=4)
    with pytest.raises(ValueError):
        ExtractionConfig(temporal_window=-1.0)
    with pytest.raises(ValueError):
        ExtractionConfig(min_support=2)
    assert ExtractionConfig(max_flow=100.0).gradient_floor == pytest.approx(0.01)
