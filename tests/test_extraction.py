"""Local plane fitting and normal-flow extraction from time surfaces."""
import math
import warnings
from typing import NamedTuple

import numpy as np
import pytest

from evnormalflow import (BoundsError, EventArray, ExtractionConfig,
                          Intrinsics, MovingEdge, Observations,
                          build_time_surface, extract_normal_flows,
                          read_flows_csv, records_to_obs, surface_from_edges,
                          write_flows_csv)
from evnormalflow import extraction
from evnormalflow.events import TimeSurface, UNFIRED
from evnormalflow.extraction import (FLOWS_DTYPE, _minimal_planes,
                                     _pixel_keys, _sample_triples)

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
    return TimeSurface(timestamps=ts, t_ref=t_ref)


class PixelFit(NamedTuple):
    status: int           # extraction._FITTED, _INSUFFICIENT or _DEGENERATE
    k: int                # support: recently fired pixels in the window
    inliers: int          # best consensus
    gradient: tuple       # (a, b) of the plane, s/px
    rms: float


def fit_pixel(surface, cfg, x, y):
    """Extraction's batched plane fit run on the one sensor pixel (x, y)."""
    padded = extraction._pad_surface(surface, cfg)
    px, py = np.array([x]), np.array([y])
    fits = extraction._fit_planes(padded, cfg, px, py)
    k = extraction._support_counts(padded, cfg, px, py)
    return PixelFit(int(fits.status[0]), int(k[0]), int(fits.inliers[0]),
                    tuple(fits.coef[0, :2].tolist()), float(fits.rms[0]))


def test_plane_fit_exact_ramp():
    surface = ramp_surface(0.01, 0.0, window=2.0)
    cfg = ExtractionConfig(temporal_window=2.0)
    fit = fit_pixel(surface, cfg, 40, 30)
    assert fit.status == extraction._FITTED
    assert np.allclose(fit.gradient, [0.01, 0.0], atol=1e-12)
    assert fit.rms < 1e-12
    assert fit.inliers == fit.k == 49


def test_plane_fit_general_gradient():
    surface = ramp_surface(0.004, -0.003, window=1.0)
    cfg = ExtractionConfig(temporal_window=1.0)
    for px, py in [(10, 10), (40, 30), (70, 50)]:
        fit = fit_pixel(surface, cfg, px, py)
        assert fit.status == extraction._FITTED
        assert np.allclose(fit.gradient, [0.004, -0.003], atol=1e-12)


def test_plane_fit_flat_patch_gives_zero_gradient():
    ts = np.full((20, 20), 0.5)
    surface = TimeSurface(ts, t_ref=0.5)
    fit = fit_pixel(surface, ExtractionConfig(temporal_window=1.0), 10, 10)
    assert fit.status == extraction._FITTED
    assert np.allclose(fit.gradient, [0.0, 0.0], atol=1e-12)


# a small sensor, so that every pixel of a ramp surface is a candidate
SMALL = Intrinsics(fx=100.0, fy=100.0, cx=10.0, cy=8.0, width=20, height=16)


def extract_ramp(gx, gy):
    surface = ramp_surface(gx, gy, shape=(SMALL.height, SMALL.width))
    cfg = ExtractionConfig(temporal_window=1.0)
    return extract_normal_flows(surface, SMALL, cfg)


def test_extract_counts_flat_patch_below_min_gradient():
    cfg = ExtractionConfig(temporal_window=1.0)
    surface = TimeSurface(np.full((SMALL.height, SMALL.width), 0.5), 0.5)
    obs, stats = extract_normal_flows(surface, SMALL, cfg)
    assert len(obs) == 0
    assert stats.candidates == SMALL.width * SMALL.height
    assert stats.below_min_gradient == stats.candidates
    # the floor is min_gradient = 1e-4 s/px, a speed cap of 1e4 px/s
    for g, flat in ((0.9e-4, True), (1.1e-4, False)):
        obs, stats = extract_ramp(g, 0.0)
        assert stats.candidates == SMALL.width * SMALL.height
        assert stats.below_min_gradient == (stats.candidates if flat else 0)
        assert len(obs) == (0 if flat else stats.candidates)


def test_plane_fit_insufficient_support():
    ts = np.full((20, 20), UNFIRED)
    ts[10, 10] = 0.5
    ts[10, 11] = 0.5
    ts[11, 10] = 0.5
    surface = TimeSurface(ts, 0.5)
    fit = fit_pixel(surface, ExtractionConfig(temporal_window=1.0), 10, 10)
    assert (fit.status, fit.k, fit.inliers) == (
        extraction._INSUFFICIENT, 3, 0)


def test_plane_fit_collinear_pixels_degenerate():
    ts = np.full((20, 20), UNFIRED)
    ts[10, 7:14] = 0.5  # a horizontal line of fired pixels
    ts[10, 7:14] += np.linspace(0, 1e-4, 7)
    surface = TimeSurface(ts, 0.5)
    cfg = ExtractionConfig(temporal_window=1.0, min_support=5)
    fit = fit_pixel(surface, cfg, 10, 10)
    assert (fit.status, fit.k) == (extraction._DEGENERATE, 7)


def test_plane_fit_rejects_second_structure():
    # a clean ramp with an interfering much-older cluster: RANSAC keeps the ramp
    surface = ramp_surface(0.01, 0.0, window=2.0)
    ts = surface.timestamps.copy()
    ts[28:31, 38:40] = ts[28:31, 38:40] - 0.4  # stale structure
    noisy = TimeSurface(ts, surface.t_ref)
    fit = fit_pixel(noisy, ExtractionConfig(temporal_window=2.0), 40, 30)
    assert fit.status == extraction._FITTED
    assert np.allclose(fit.gradient, [0.01, 0.0], atol=1e-12)
    assert fit.inliers == fit.k - 6 == 49 - 6


def test_extract_ramp_normal_flow_values():
    # calibrated gradients fx * g of (0.5, 0) and (0.1, 0.1) s
    for g_px, n in (((0.005, 0.0), [2.0, 0.0]), ((0.001, 0.001), [5.0, 5.0])):
        obs, stats = extract_ramp(*g_px)
        assert len(obs) == stats.candidates == SMALL.width * SMALL.height
        assert np.allclose(obs.n, n, rtol=1e-9, atol=1e-9)


def test_normal_flow_magnitude_is_reciprocal_gradient():
    rng = np.random.default_rng(13)
    for _ in range(10):
        angle, size = rng.uniform(0, 2 * np.pi), rng.uniform(2e-4, 5e-3)
        g_px = size * np.array([np.cos(angle), np.sin(angle)])
        obs, stats = extract_ramp(*g_px)
        assert len(obs) == stats.candidates
        # direction parallel, magnitude law |n| |g| = 1, g calibrated
        g = SMALL.fx * g_px
        cross = obs.n[:, 0] * g[1] - obs.n[:, 1] * g[0]
        norm_n = np.linalg.norm(obs.n, axis=1)
        assert np.all(np.abs(cross) < 1e-9 * norm_n * np.linalg.norm(g))
        assert np.all(np.abs(norm_n * np.linalg.norm(g) - 1.0) < 1e-9)


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
    surface = TimeSurface(ts, 1.0)
    obs, stats = extract_normal_flows(surface, INTR)
    assert len(obs) == 0 and stats.candidates == 0


def test_extract_repetitive_texture_rejected():
    # stripes with period 2 px: timestamps alternate, nothing is planar
    h, w = INTR.height, INTR.width
    qx = np.meshgrid(np.arange(w), np.arange(h))[0]
    ts = np.where(qx % 2 == 0, 0.99, 0.995)
    surface = TimeSurface(ts.astype(float), 1.0)
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
        fit = fit_pixel(surface, cfg, int(x), int(y))
        gcx, gcy = INTR.fx * fit.gradient[0], INTR.fy * fit.gradient[1]
        mag2 = gcx * gcx + gcy * gcy
        assert tuple(n) == (gcx / mag2, gcy / mag2)
        assert (inliers, rms) == (fit.inliers, fit.rms)


def test_extract_counts_collinear_support_as_degenerate():
    # a one-pixel-wide horizontal line of fired pixels, x = 10 .. 69
    ts = np.full((INTR.height, INTR.width), UNFIRED)
    ts[30, 10:70] = 0.99 + 1e-5 * np.arange(60)
    surface = TimeSurface(ts, 1.0)
    cfg = ExtractionConfig(min_support=5)
    obs, stats = extract_normal_flows(surface, INTR, cfg)
    # the two end pixels see only 4 line pixels in their 7x7 window
    assert len(obs) == 0
    assert stats.to_dict() == {"candidates": 60, "emitted": 0,
                               "insufficient_support": 2,
                               "degenerate_configuration": 58,
                               "below_min_gradient": 0,
                               "whole_consensus": 0}


def test_extract_shape_mismatch():
    ts = np.full((10, 10), UNFIRED)
    surface = TimeSurface(ts, 1.0)
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
    events = EventArray(ts[order], xs[order], ys[order], np.ones(ts.size))
    surface = build_time_surface(events, t_ref=0.5, temporal_window=0.5,
                                 shape=(INTR.height, INTR.width))
    assert np.array_equal(surface.timestamps, oracle.timestamps)
    obs, _ = extract_normal_flows(surface, INTR,
                                  ExtractionConfig(temporal_window=0.5))
    assert np.allclose(obs.n, [50.0 / INTR.fx, 0.0], rtol=1e-6, atol=1e-9)


def jittered_edge_surface(seed, velocity=(-80.0, 60.0), duration=0.15,
                          window=0.04, background=0.05, jitter_s=2e-6):
    """Time surface of an event stream built the way the event-pipeline
    benchmark builds its own: a vertical and a horizontal edge translating
    at `velocity` px/s fire once per pixel they cross over [0, duration],
    `background` times as many uniform background events are added, every
    timestamp gets Gaussian jitter and is rounded to the 1 ns of a text
    stream.  Returns the surface (t_ref at the last event), the label of
    the event each pixel holds (0 vertical edge, 1 horizontal edge, 2
    background, -1 none) and the normal speed of each edge, px/s."""
    rng = np.random.default_rng(seed)
    wx, wy = velocity
    shape = (INTR.height, INTR.width)
    # Both edges pass the middle of the sensor at the end of the stream.
    edges = [MovingEdge(point=(INTR.width / 2 - wx * duration, 0.0),
                        direction=(0.0, 1.0), velocity=velocity),
             MovingEdge(point=(0.0, INTR.height / 2 - wy * duration),
                        direction=(1.0, 0.0), velocity=velocity)]
    parts = []
    for label, edge in enumerate(edges):
        ts = surface_from_edges([edge], shape, duration).timestamps
        y, x = np.nonzero(np.isfinite(ts))
        parts.append((ts[y, x], x, y, np.full(x.size, label)))
    t, x, y, label = (np.concatenate(p) for p in zip(*parts))
    n_bg = int(round(background * t.size))
    t = np.concatenate([t, rng.uniform(0.0, duration, n_bg)])
    x = np.concatenate([x, rng.integers(0, INTR.width, n_bg)])
    y = np.concatenate([y, rng.integers(0, INTR.height, n_bg)])
    label = np.concatenate([label, np.full(n_bg, 2)])
    t = np.round(t + rng.normal(0.0, jitter_s, t.size), 9)
    order = np.lexsort((x, y, t))
    t, x, y, label = t[order], x[order], y[order], label[order]
    surface = build_time_surface(EventArray(t, x, y, np.ones(t.size)),
                                 t[-1], window, shape)
    held = np.full(shape, -1)
    hit = surface.timestamps[y, x] == t
    held[y[hit], x[hit]] = label[hit]
    return surface, held, np.abs(np.array(velocity))


def median_speed_error(obs, held, speeds):
    """Median relative error of the normal speed 1/|g| at the emitted
    pixels that hold an edge event."""
    g = obs.n / obs.mag2[:, None] / np.array([INTR.fx, INTR.fy])
    x, y = obs.px.astype(int).T
    edge = held[y, x] <= 1
    truth = speeds[held[y, x][edge]]
    return float(np.median(np.abs(1.0 / np.hypot(*g[edge].T) - truth) / truth))


def test_extract_jittered_edges_magnitude_error():
    # Bounds frozen from this 20-seed sweep: the median error per seed
    # spans 1.70e-5 .. 2.74e-5, with median 2.08e-5 over the seeds.
    errors, yields = [], []
    for seed in range(20):
        surface, held, speeds = jittered_edge_surface(seed)
        obs, stats = extract_normal_flows(surface, INTR,
                                          ExtractionConfig(seed=seed))
        errors.append(median_speed_error(obs, held, speeds))
        yields.append(stats.emitted / stats.candidates)
    assert max(errors) <= 3e-5
    assert np.median(errors) <= 2.2e-5
    assert min(yields) >= 0.9


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


def test_flows_csv_round_trip_keeps_microseconds_since_the_epoch(tmp_path):
    # nine decimals are finer than half a float's spacing at 1.7e9 s, so
    # every time reads back as the same float
    t = 1.7e9 + 1e-6 * np.arange(5)
    obs = Observations(xy=np.zeros((5, 2)), n=np.tile((0.25, -0.125), (5, 1)),
                       t=t, px=np.tile((10, 20), (5, 1)), inliers=[12] * 5,
                       rms=[1e-6] * 5)
    path = tmp_path / "flows.csv"
    write_flows_csv(path, obs)
    back, _ = read_flows_csv(path)
    assert np.array_equal(back.t, t)
    assert np.all(np.diff(back.t) > 0)


def test_flows_csv_names_the_columns_it_lacks(tmp_path):
    # an Observations without plane fits, as generate_dataset returns
    path = tmp_path / "flows.csv"
    bare = Observations(xy=np.zeros((2, 2)), n=np.ones((2, 2)), t=[0.0, 1.0])
    with pytest.raises(ValueError, match="needs columns px, inliers, rms$"):
        write_flows_csv(path, bare)
    no_fit = Observations(xy=np.zeros((2, 2)), n=np.ones((2, 2)), t=[0.0, 1.0],
                          px=[(10, 20), (11, 21)])
    with pytest.raises(ValueError, match="needs columns inliers, rms$"):
        write_flows_csv(path, no_fit)
    assert not path.exists()


def test_flows_csv_depths_must_match_the_flows(tmp_path):
    path = tmp_path / "flows.csv"
    with pytest.raises(ValueError, match="depths length"):
        write_flows_csv(path, two_flows(), depths=np.array([1.5]))
    assert not path.exists()


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
    with pytest.raises(BoundsError):
        records_to_obs(records, INTR)


def test_flows_csv_bytes_match_csv_module_format(tmp_path):
    # csv.writer rows of "%.9g" floats, t as "%.9f" (nanoseconds at any
    # offset), an integer inlier count, and CRLF line ends
    import csv
    import io
    obs = two_flows()
    depths = np.array([1.5, 2.0 / 3.0])
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["t", "x_px", "y_px", "nx_cal", "ny_cal", "inliers", "rms", "Z"])
    for i in range(2):
        writer.writerow([f"{obs.t[i]:.9f}", f"{obs.px[i, 0]:.9g}",
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


@pytest.mark.parametrize("field", ["temporal_window", "plane_thresh",
                                   "min_gradient"])
def test_config_rejects_nan(field):
    with pytest.raises(ValueError, match=field):
        ExtractionConfig(**{field: float("nan")})


def test_config_infinite_values():
    for field in ("plane_thresh", "min_gradient"):
        with pytest.raises(ValueError, match=field):
            ExtractionConfig(**{field: float("inf")})
    # An infinite temporal window means no limit.
    cfg = ExtractionConfig(temporal_window=float("inf"))
    surface = ramp_surface(0.01, 0.0, window=2.0)
    obs, stats = extract_normal_flows(surface, INTR, cfg)
    assert stats.candidates == INTR.width * INTR.height and len(obs) > 0


@pytest.mark.parametrize("field, value", [
    ("plane_iters", 2.5), ("spatial_window", 7.0), ("min_support", 10.5),
    ("plane_iters", True), ("temporal_window", True), ("min_gradient", "1e-4"),
    ("plane_thresh", None)])
def test_config_rejects_wrong_type(field, value):
    with pytest.raises(ValueError, match=field):
        ExtractionConfig(**{field: value})


@pytest.mark.parametrize("seed", [1.5, True, -1, 2 ** 64, 2 ** 70, "3",
                                  np.int64(-1)])
def test_config_rejects_seed_outside_uint64(seed):
    with pytest.raises(ValueError, match="seed"):
        ExtractionConfig(seed=seed)


@pytest.mark.parametrize("seed", [np.uint64(5), np.int64(5), np.int8(5),
                                  np.uint64(2 ** 64 - 1)])
def test_config_accepts_numpy_integer_seed(seed):
    # Stored as a Python int, so the key hash never multiplies NumPy scalars.
    cfg = ExtractionConfig(seed=seed, temporal_window=0.5)
    assert type(cfg.seed) is int and cfg.seed == int(seed)
    want_cfg = ExtractionConfig(seed=int(seed), temporal_window=0.5)
    assert cfg == want_cfg
    edges = [MovingEdge(point=(5.0, 0.0), direction=(0.0, 1.0),
                        velocity=(80.0, 0.0))]
    surface = surface_from_edges(edges, (INTR.height, INTR.width), window=0.5)
    want, want_stats = extraction_outputs(surface, want_cfg)
    got, stats = extraction_outputs(surface, cfg)
    assert stats == want_stats
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


# --------------------------------------------------------------------------
# the counter-hashed sampler and the closed-form minimal planes

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_triples(seed, x, y, k, iters):
    """The draw definition in Python integers: the pixel key
    mix(mix(mix(seed*gamma + y) + x)), hashes h = mix(key + (3i + j)*gamma)
    >> 32, slots (h*m) >> 32 below m, and Floyd's three distinct slots."""
    key = splitmix64(splitmix64(
        (splitmix64((seed * GAMMA + y) & MASK64) + x) & MASK64))
    triples = []
    for i in range(iters):
        h0, h1, h2 = (splitmix64((key + (3 * i + j) * GAMMA) & MASK64) >> 32
                      for j in range(3))
        r0 = (h0 * (k - 2)) >> 32
        r1 = (h1 * (k - 1)) >> 32
        r1 = k - 2 if r1 == r0 else r1
        r2 = (h2 * k) >> 32
        r2 = k - 1 if r2 in (r0, r1) else r2
        triples.append((r0, r1, r2))
    return triples


@pytest.mark.parametrize("seed", [0, 7, 2 ** 63 + 5, 2 ** 64 - 1])
def test_sampler_matches_python_integer_reference(seed):
    # Any float64 step in the uint64 arithmetic would lose low bits here.
    cfg = ExtractionConfig(seed=seed, plane_iters=20)
    px = np.array([0, 1, 239, 5000, 123456])
    py = np.array([0, 0, 179, 3, 654321])
    k = np.array([3, 10, 49, 17, 4])
    keys = _pixel_keys(seed, px, py)
    picks = np.stack(_sample_triples(keys, k, 0, cfg.plane_iters), axis=2)
    for row, (x, y, m) in enumerate(zip(px.tolist(), py.tolist(), k.tolist())):
        assert picks[row].tolist() == [list(t) for t in reference_triples(
            seed, x, y, m, cfg.plane_iters)]
    # A range of iterations draws what those iterations draw in the whole.
    later = np.stack(_sample_triples(keys, k, 5, cfg.plane_iters), axis=2)
    assert np.array_equal(later, picks[:, 5:])


def test_sampler_three_distinct_slots_below_k():
    cfg = ExtractionConfig(seed=11)
    ks = np.arange(3, 50)
    px, py = np.arange(ks.size) * 7, np.arange(ks.size) * 3
    r0, r1, r2 = _sample_triples(_pixel_keys(cfg.seed, px, py), ks, 0,
                                 cfg.plane_iters)
    assert r0.shape == (ks.size, cfg.plane_iters)
    for r in (r0, r1, r2):
        assert np.all((r >= 0) & (r < ks[:, None]))
    assert np.all((r0 != r1) & (r0 != r2) & (r1 != r2))


def test_sampler_slot_frequencies_uniform():
    # 10^5 triples per k.  Over seeds 0..39 and k = 4..49 the statistic
    # chi2 / (k - 1) peaked at 2.54 (median 0.88), so the bound is 3; a
    # Floyd step that swapped in the wrong slot puts it in the thousands.
    cfg = ExtractionConfig(seed=0, plane_iters=50)
    n = 2000
    keys = _pixel_keys(cfg.seed, np.arange(n) % 80, np.arange(n) // 80)
    for k in range(3, 50):
        picks = _sample_triples(keys, np.full(n, k), 0, cfg.plane_iters)
        counts = np.bincount(np.concatenate([p.ravel() for p in picks]),
                             minlength=k)
        expected = 3 * n * cfg.plane_iters / k
        chi2 = np.sum((counts - expected) ** 2) / expected
        assert chi2 <= 3.0 * (k - 1), k


def lapack_planes(dx, dy, t, picks):
    """Oracle: every minimal sample's plane by a batched LAPACK solve of
    its 3x3 system [x y 1] (a, b, c) = t, and the mask of samples whose
    exact integer determinant is nonzero."""
    rows = np.arange(dx.shape[0])[:, None]
    a3 = np.stack([np.stack([dx[rows, r], dy[rows, r], np.ones(r.shape)],
                            axis=-1) for r in picks], axis=2)
    b3 = np.stack([t[rows, r] for r in picks], axis=2)
    ok = np.abs(np.linalg.det(a3)) > 0.5
    coef = np.zeros(b3.shape)
    coef[ok] = np.linalg.solve(a3[ok], b3[ok][..., None])[..., 0]
    return coef, ok


def random_minimal_samples(rng, n=400, slots=49, iters=50):
    dx = rng.integers(-3, 4, (n, slots))
    dy = rng.integers(-3, 4, (n, slots))
    t = rng.uniform(-0.04, 0.0, (n, slots))
    order = np.argsort(rng.random((n, iters, slots)), axis=2)
    return dx, dy, t, np.moveaxis(order[..., :3], 2, 0)


def design_rows(dx, dy):
    """The (P, k, 3) float rows [dx dy 1] that extraction fits on."""
    return np.stack([dx, dy, np.ones_like(dx)], axis=2).astype(float)


def test_minimal_planes_match_lapack_oracle():
    dx, dy, t, picks = random_minimal_samples(np.random.default_rng(21))
    with np.errstate(all="raise"):
        coef, ok = _minimal_planes(design_rows(dx, dy), t, picks)
    want, want_ok = lapack_planes(dx, dy, t, picks)
    assert np.array_equal(ok, want_ok) and 0 < (~ok).sum() < ok.size // 4
    got = coef.transpose(0, 2, 1)[ok]
    scale = np.abs(want[ok]).max(axis=1, keepdims=True)
    assert np.all(np.abs(got - want[ok]) <= 1e-12 * scale)


def test_minimal_planes_flag_collinear_samples_without_warnings():
    dx, _, t, picks = random_minimal_samples(np.random.default_rng(22), n=50)
    dy = 2 * dx - 1            # every support pixel on one line, many repeated
    with np.errstate(all="raise"):
        coef, ok = _minimal_planes(design_rows(dx, dy), t, picks)
    assert not ok.any() and np.all(np.isfinite(coef))


def extraction_outputs(surface, cfg):
    obs, stats = extract_normal_flows(surface, INTR, cfg)
    return [getattr(obs, name) for name in
            ("xy", "n", "t", "mag2", "px", "inliers", "rms")], stats.to_dict()


@pytest.mark.parametrize("chunk_bytes", [1, 1 << 30])
def test_extract_bitwise_independent_of_chunk_size(monkeypatch, chunk_bytes):
    # Each chunk size is scored one pixel per block and in one block.
    surface, _, _ = jittered_edge_surface(3)
    cfg = ExtractionConfig(seed=3)
    want, want_stats = extraction_outputs(surface, cfg)
    monkeypatch.setattr(extraction, "CHUNK_BYTES", chunk_bytes)
    for score_bytes in (1, 1 << 30):
        monkeypatch.setattr(extraction, "SCORE_BYTES", score_bytes)
        got, stats = extraction_outputs(surface, cfg)
        assert stats == want_stats and want_stats["insufficient_support"] > 0
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_extract_leaves_surface_unchanged():
    # A read-only surface makes any in-place step on it raise.
    surface, _, _ = jittered_edge_surface(5)
    before = surface.timestamps.copy()
    surface.timestamps.flags.writeable = False
    for cfg in (ExtractionConfig(seed=5),
                ExtractionConfig(seed=5, temporal_window=math.inf)):
        obs, stats = extract_normal_flows(surface, INTR, cfg)
        assert stats.emitted == len(obs) > 0
    assert np.array_equal(surface.timestamps, before)


@pytest.mark.parametrize("side", [3, 5, 7, 9, 11])
def test_support_box_sum_equals_gathered_support(side):
    # Every pixel of a sparse surface, its four borders and corners too: the
    # box sum over the padded mask counts the recent pixels of the window
    # clipped to the sensor, and the gather finds exactly that many, all of
    # them recent.
    rng = np.random.default_rng(side)
    h, w = 17, 23
    ts = np.where(rng.random((h, w)) < 0.4, rng.uniform(0.0, 1.0, (h, w)),
                  UNFIRED)
    # The surface was built with a wider window than the extraction's.
    surface = TimeSurface(ts, 1.0)
    cfg = ExtractionConfig(spatial_window=side, temporal_window=0.5)
    recent = ts > surface.t_ref - cfg.temporal_window
    padded = extraction._pad_surface(surface, cfg)
    py, px = np.mgrid[:h, :w].reshape(2, -1)
    k = extraction._support_counts(padded, cfg, px, py)
    half = side // 2
    for x, y, count in zip(px.tolist(), py.tolist(), k.tolist()):
        window = recent[max(y - half, 0):y + half + 1,
                        max(x - half, 0):x + half + 1]
        assert count == window.sum(), (x, y)
        design, t = extraction._gather_support(
            padded, np.array([x]), np.array([y]), np.array([count]), count)
        assert t.shape == (1, count) and np.all(t > -cfg.temporal_window)
        assert design.shape == (1, count, 3) and np.all(design[..., 2] == 1)
        dx, dy = design[0, :, 0].astype(int), design[0, :, 1].astype(int)
        assert np.all((x + dx >= 0) & (x + dx < w) & (y + dy >= 0)
                      & (y + dy < h))
        assert np.all(recent[y + dy, x + dx])
        assert np.array_equal(t[0], ts[y + dy, x + dx] - surface.t_ref)
    # The candidates are the recent pixels of the extraction's window, not
    # every pixel the surface holds.
    intr = Intrinsics(fx=100.0, fy=100.0, cx=w / 2, cy=h / 2, width=w,
                      height=h)
    _, stats = extract_normal_flows(surface, intr, cfg)
    assert stats.candidates == recent.sum() < surface.fired_mask().sum()


def test_extract_many_support_sizes_chunk_free_and_equal_to_single_fits(
        monkeypatch):
    # Edges plus dense background put the candidates in many support
    # groups; one pixel per chunk, chunks of 64 KiB (three groups then span
    # three first-stage chunks each, and more second-stage ones), and one
    # chunk for everything scored one pixel per block or in one block, give
    # the default's output, and each flow is its pixel's single fit.
    surface, _, _ = jittered_edge_surface(6, background=0.4)
    cfg = ExtractionConfig(seed=6)
    ys, xs = np.nonzero(surface.timestamps > surface.t_ref - cfg.temporal_window)
    padded = extraction._pad_surface(surface, cfg)
    sizes = np.unique(extraction._support_counts(padded, cfg, xs, ys))
    assert np.sum(sizes >= cfg.min_support) >= 25
    want, want_stats = extraction_outputs(surface, cfg)
    assert want_stats["insufficient_support"] > 0
    for chunk_bytes, score_bytes in ((1, 1), (1 << 16, 1 << 20),
                                     (1 << 30, 1), (1 << 30, 1 << 30)):
        monkeypatch.setattr(extraction, "CHUNK_BYTES", chunk_bytes)
        monkeypatch.setattr(extraction, "SCORE_BYTES", score_bytes)
        got, stats = extraction_outputs(surface, cfg)
        assert stats == want_stats
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    _, flows, _, _, pixels, consensus, residuals = want
    assert len(pixels) > 0.5 * stats["candidates"]
    for (x, y), n, inliers, rms in zip(pixels.tolist(), flows.tolist(),
                                       consensus.tolist(), residuals.tolist()):
        fit = fit_pixel(surface, cfg, int(x), int(y))
        gcx, gcy = INTR.fx * fit.gradient[0], INTR.fy * fit.gradient[1]
        mag2 = gcx * gcx + gcy * gcy
        assert tuple(n) == (gcx / mag2, gcy / mag2)
        assert (inliers, rms) == (fit.inliers, fit.rms)


def test_extract_constructs_no_generator(monkeypatch):
    surface, _, _ = jittered_edge_surface(4)
    cfg = ExtractionConfig(seed=2 ** 64 - 1)

    def no_generator(*args, **kwargs):
        raise AssertionError("extraction must not build a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        obs, stats = extract_normal_flows(surface, INTR, cfg)
    assert stats.emitted == len(obs) > 0.9 * stats.candidates


# --------------------------------------------------------------------------
# the two RANSAC stages and the merged sparse support sizes

def planar_patch_surface(seed):
    """A surface of a few planar patches with random gradients, part of
    their pixels fired, plus scattered pixels at random times."""
    rng = np.random.default_rng(seed)
    h, w = INTR.height, INTR.width
    ts = np.full((h, w), UNFIRED)
    for _ in range(4):
        y0, x0 = rng.integers(0, h - 8), rng.integers(0, w - 8)
        y1, x1 = y0 + rng.integers(8, 30), x0 + rng.integers(8, 40)
        qy, qx = np.mgrid[y0:min(y1, h), x0:min(x1, w)]
        a, b = rng.uniform(-2e-3, 2e-3, 2)
        plane = np.round(0.97 + a * (qx - x0) + b * (qy - y0)
                         + rng.normal(0.0, 2e-6, qx.shape), 9)
        keep = rng.random(qx.shape) < rng.uniform(0.6, 1.0)
        ts[qy[keep], qx[keep]] = np.minimum(plane[keep], 1.0)
    scattered = rng.random((h, w)) < 0.1
    ts[scattered] = rng.uniform(0.9, 1.0, scattered.sum())
    return TimeSurface(ts, 1.0)


def plane_fits(surface, cfg):
    """Extraction's plane fits of every candidate pixel, and their support
    counts."""
    ys, xs = np.nonzero(surface.timestamps > surface.t_ref
                        - cfg.temporal_window)
    padded = extraction._pad_surface(surface, cfg)
    return (extraction._fit_planes(padded, cfg, xs, ys),
            extraction._support_counts(padded, cfg, xs, ys))


STAGED = extraction.STAGE_ITERS


@pytest.mark.parametrize("iters", sorted({1, 2, 3, STAGED, STAGED + 1,
                                          STAGED + 2, 50}))
def test_staged_ransac_equals_single_stage(monkeypatch, iters):
    # The oracle runs every iteration for every pixel in one stage.
    surfaces = [(jittered_edge_surface(3)[0], 0.04),
                (jittered_edge_surface(8, background=0.4)[0], 0.04),
                (planar_patch_surface(1), 0.1), (planar_patch_surface(2), 0.1)]
    for surface, window in surfaces:
        cfg = ExtractionConfig(plane_iters=iters, temporal_window=window,
                               seed=iters)
        fits, k = plane_fits(surface, cfg)
        got, stats = extraction_outputs(surface, cfg)
        monkeypatch.setattr(extraction, "STAGE_ITERS", iters)
        want_fits, _ = plane_fits(surface, cfg)
        want, want_stats = extraction_outputs(surface, cfg)
        monkeypatch.undo()
        for name in ("status", "inliers", "coef", "rms"):
            assert np.array_equal(getattr(fits, name),
                                  getattr(want_fits, name)), name
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert want_stats.pop("whole_consensus") == 0
        assert stats.pop("whole_consensus") == fits.stopped.sum()
        assert stats == want_stats
        if iters - STAGED >= 2:
            # Some pixels stop after the first stage, all with consensus k.
            assert 0 < fits.stopped.sum() < fits.stopped.size
            assert np.all(fits.inliers[fits.stopped] == k[fits.stopped])
        else:
            assert not fits.stopped.any()


def test_all_degenerate_first_stage_runs_the_second():
    # A fired line with one fired pixel below it on the same time plane:
    # in each line pixel's window only triples holding that pixel span a
    # plane, so the first stage of some pixels draws none that does.
    ts = np.full((INTR.height, INTR.width), UNFIRED)
    x = np.arange(10, 70)
    ts[30, 10:70] = 0.99 + 1e-4 * x
    ts[31, 12:70:6] = 0.99 + 1e-4 * np.arange(12, 70, 6) + 5e-5
    surface = TimeSurface(ts, 1.0)
    cfg = ExtractionConfig(min_support=5, seed=4)
    fits, support = plane_fits(surface, cfg)
    ys, xs = np.nonzero(ts > 0.0)
    padded = extraction._pad_surface(surface, cfg)
    first_ok = np.zeros(xs.size, dtype=bool)
    for i, k in enumerate(support.tolist()):
        if k >= cfg.min_support:
            px, py, k = xs[i:i + 1], ys[i:i + 1], support[i:i + 1]
            design, t = extraction._gather_support(padded, px, py, k, k[0])
            picks = _sample_triples(_pixel_keys(cfg.seed, px, py), k, 0,
                                    STAGED)
            first_ok[i] = _minimal_planes(design, t, picks)[1].any()
    late = (fits.status == extraction._FITTED) & ~first_ok
    assert late.sum() >= 3
    # Their whole support was found in the second stage.
    assert np.all(fits.inliers[late] == support[late])
    assert not fits.stopped[late].any()
    for px, py in zip(xs[late].tolist(), ys[late].tolist()):
        fit = fit_pixel(surface, cfg, px, py)
        i = np.flatnonzero((xs == px) & (ys == py))[0]
        assert fit.inliers == fits.inliers[i]
        assert fit.gradient == tuple(fits.coef[i, :2])


def test_sparse_support_sizes_share_their_fits(monkeypatch):
    # Sizes with few pixels are scored together with the next larger
    # sizes on padded slots, and every pixel keeps its single fit.
    surface, _, _ = jittered_edge_surface(6, background=0.4)
    cfg = ExtractionConfig(seed=6)
    ys, xs = np.nonzero(surface.timestamps > surface.t_ref
                        - cfg.temporal_window)
    padded = extraction._pad_surface(surface, cfg)
    k = extraction._support_counts(padded, cfg, xs, ys)
    sizes, counts = np.unique(k[k >= cfg.min_support], return_counts=True)
    sparse = sizes[counts < extraction.GROUP_PIXELS]
    assert sparse.size >= 10
    first_stage = []
    best_consensus = extraction._best_consensus

    def counted(cfg, design, t, planes, ok):
        if planes.shape[2] == STAGED:
            # The real supports are the slots that are not NaN padding.
            first_stage.append(set(np.sum(~np.isnan(t), axis=1).tolist()))
        return best_consensus(cfg, design, t, planes, ok)

    monkeypatch.setattr(extraction, "_best_consensus", counted)
    fits = extraction._fit_planes(padded, cfg, xs, ys)
    monkeypatch.undo()
    # Far fewer first-stage runs than support sizes; of the sparse sizes
    # only the largest may be left with no larger one to join.
    assert len(first_stage) <= sizes.size // 2
    alone = [s for s in sparse.tolist() if {s} in first_stage]
    assert alone in ([], [sizes[-1]])
    # Every pixel of a sparse size is fit as it is alone.
    for i in np.flatnonzero(np.isin(k, sparse)).tolist():
        one = extraction._fit_planes(padded, cfg, xs[i:i + 1], ys[i:i + 1])
        for name in ("status", "inliers", "coef", "rms", "stopped"):
            assert np.array_equal(getattr(one, name)[0],
                                  getattr(fits, name)[i]), name


def test_chunk_gather_kept_within_chunk_bytes(monkeypatch):
    # A dense random surface has small supports, so few residuals per
    # first-stage pixel; its chunks are then sized by the window gather, a
    # float64 time and an int64 index per window pixel.
    rng = np.random.default_rng(9)
    fired = rng.random((INTR.height, INTR.width)) < 0.3
    ts = np.where(fired, rng.uniform(0.97, 1.0, fired.shape), UNFIRED)
    surface = TimeSurface(ts, 1.0)
    cfg = ExtractionConfig(seed=9)
    gathered = []
    gather = extraction._gather_support

    def counted(padded, px, py, k, width):
        gathered.append(px.size)
        return gather(padded, px, py, k, width)

    monkeypatch.setattr(extraction, "CHUNK_BYTES", 1 << 16)
    monkeypatch.setattr(extraction, "_gather_support", counted)
    _, support = plane_fits(surface, cfg)
    assert np.median(support) < 20
    side = cfg.spatial_window
    assert 1 < max(gathered) <= extraction.CHUNK_BYTES // (16 * side * side)
