"""Normal flow extraction from time surfaces.

The time surface stores when each pixel last fired; where the surface is
locally planar, its spatial gradient g (s/px) is the reciprocal of the
image speed along the gradient direction, so the normal flow in pixel
units is n = g / |g|^2.  Local planes are fit with a small RANSAC to
reject neighbouring pixels belonging to other structures.

All candidate pixels are fit together, a chunk of CHUNK_BYTES at a time:
padded (P, spatial_window^2) support patches, minimal samples drawn from
each pixel's own (seed, y, x) substream, the 3x3 minimal systems solved
in one batch and scored with one batched product, and one batched 3x3
normal-equation refit.  `fit_local_plane` runs the same code on one
pixel, so results do not depend on batching.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (BelowMinGradient, DegenerateConfiguration,
                     InsufficientSupport)
from .geometry import NormalFlowObs, pixel_to_calibrated

FLOWS_HEADER = ["t", "x_px", "y_px", "nx_cal", "ny_cal", "inliers", "rms"]


@dataclass(frozen=True)
class ExtractionConfig:
    """Tuning for plane fitting and gradient-to-flow conversion.

    spatial_window   side of the square fit neighbourhood, pixels (odd)
    temporal_window  events older than this are ignored, seconds
    plane_thresh     RANSAC inlier threshold on |t - plane(x, y)|, seconds
    plane_iters      RANSAC iterations per pixel
    min_support      minimum fired pixels and minimum consensus size
    max_flow         flows faster than this are rejected, px/s
    min_gradient     gradients flatter than this are rejected, s/px
    seed             base seed; each pixel derives its own substream
    """

    spatial_window: int = 7
    temporal_window: float = 0.04
    plane_thresh: float = 1e-5
    plane_iters: int = 50
    min_support: int = 10
    max_flow: float = 1e4
    min_gradient: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.spatial_window < 3 or self.spatial_window % 2 == 0:
            raise ValueError("spatial_window must be odd and >= 3")
        for name in ("temporal_window", "plane_thresh", "max_flow", "min_gradient"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.plane_iters < 1 or self.min_support < 3:
            raise ValueError("plane_iters >= 1 and min_support >= 3 required")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def gradient_floor(self):
        return max(self.min_gradient, 1.0 / self.max_flow)


@dataclass(frozen=True)
class PlaneFit:
    """Local plane t(q) ~ gradient . (q - center) + offset, gradient in s/px."""

    gradient: np.ndarray
    offset: float
    inlier_count: int
    rms: float


@dataclass(frozen=True)
class FlowRecord:
    """One emitted flow: pixel location, calibrated flow, fit diagnostics."""

    t: float
    x_px: float
    y_px: float
    nx_cal: float
    ny_cal: float
    inliers: int
    rms: float


@dataclass
class ExtractionStats:
    candidates: int = 0
    emitted: int = 0
    insufficient_support: int = 0
    degenerate_configuration: int = 0
    below_min_gradient: int = 0

    def to_dict(self):
        return dict(self.__dict__)


# Outcome of one pixel's plane fit.
_FITTED, _INSUFFICIENT, _DEGENERATE = 0, 1, 2

# Pixels fit together hold (plane_iters, spatial_window^2) float64 arrays of
# hypothesis-by-support values; a chunk of pixels keeps each near this size.
CHUNK_BYTES = 1 << 22


class _PlaneFits(NamedTuple):
    status: np.ndarray    # (P,) _FITTED, _INSUFFICIENT or _DEGENERATE
    support: np.ndarray   # (P,) recently fired pixels in the window
    inliers: np.ndarray   # (P,) best consensus size, 0 where RANSAC did not run
    coef: np.ndarray      # (P, 3) plane (a, b, c), c relative to t_ref
    rms: np.ndarray       # (P,) residual rms of the final fit


def _gather_support(ts, cfg, px, py):
    """Window of each pixel as a padded row of spatial_window^2 slots with
    its k recently fired pixels first, in row-major order.

    Returns integer offsets (dx, dy) to the centre, times t relative to
    t_ref (0 in the padding), the (P, slots) mask of support slots, and k.
    """
    side = cfg.spatial_window
    h, w = ts.shape
    off_y, off_x = np.divmod(np.arange(side * side), side)
    off_x, off_y = off_x - side // 2, off_y - side // 2
    qx, qy = px[:, None] + off_x, py[:, None] + off_y
    inside = (qx >= 0) & (qx < w) & (qy >= 0) & (qy < h)
    t = ts.timestamps[np.clip(qy, 0, h - 1), np.clip(qx, 0, w - 1)]
    recent = inside & (t > ts.t_ref - cfg.temporal_window)
    k = recent.sum(axis=1)
    order = np.argsort(~recent, axis=1, kind="stable")
    valid = np.arange(side * side) < k[:, None]
    t = np.where(valid, np.take_along_axis(t, order, axis=1) - ts.t_ref, 0.0)
    return off_x[order], off_y[order], t, valid, k


def _collinear(dx, dy, valid):
    """Rank of the [dx dy 1] design below 3, in exact integer arithmetic:
    every support pixel lies on the line through the first two."""
    ex, ey = dx[:, 1:2] - dx[:, :1], dy[:, 1:2] - dy[:, :1]
    cross = (dx - dx[:, :1]) * ey - (dy - dy[:, :1]) * ex
    return ~np.any((cross != 0) & valid, axis=1)


def _sample_triples(cfg, px, py, k):
    """Per pixel and iteration, the support slots of the three smallest of
    k random keys: the first three of argsort(rng.random((iters, k))) with
    rng = default_rng([seed, y, x]), the pixel's own substream."""
    iters, slots = cfg.plane_iters, cfg.spatial_window ** 2
    keys = np.full((px.size, iters, slots), np.inf)
    draw = np.empty(iters * slots)
    for i, (x, y, m) in enumerate(zip(px.tolist(), py.tolist(), k.tolist())):
        np.random.default_rng([cfg.seed, y, x]).random(out=draw[:iters * m])
        keys[i, :, :m] = draw[:iters * m].reshape(iters, m)
    rows, its = np.arange(px.size)[:, None], np.arange(iters)
    picks = []
    for _ in range(3):
        pick = keys.argmin(axis=2)
        keys[rows, its, pick] = np.inf
        picks.append(pick)
    return picks


def _best_consensus(cfg, design, t, valid, picks):
    """Solve every minimal sample's plane and count its inliers.

    `design` holds the (P, slots, 3) rows [dx dy 1].  Returns each pixel's
    best consensus size (-1 when every sample was degenerate) and its
    inlier mask over the slots; ties go to the lowest iteration.
    """
    rows = np.arange(design.shape[0])
    sample = np.stack(picks, axis=2)                        # (P, iters, 3)
    a3 = design[rows[:, None, None], sample]                # (P, iters, 3, 3)
    b3 = t[rows[:, None, None], sample]
    # Integer offsets make the sample determinant exact.
    (x0, x1, x2), (y0, y1, y2) = np.moveaxis(a3[..., :2], (3, 2), (0, 1))
    ok = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0) != 0
    coef = np.zeros(b3.shape)
    coef[ok] = np.linalg.solve(a3[ok], b3[ok][..., None])[..., 0]
    resid = design @ coef.transpose(0, 2, 1)                # (P, slots, iters)
    resid -= t[:, :, None]
    inlier = np.abs(resid, out=resid) <= cfg.plane_thresh
    inlier &= valid[:, :, None]
    counts = inlier.sum(axis=1)
    counts[~ok] = -1
    best = counts.argmax(axis=1)
    return counts[rows, best], inlier[rows, :, best]


def _refit(design, t, weight):
    """Least-squares planes on the weighted slots: one batched 3x3
    normal-equation solve.  Returns (P, 3) coefficients and residual rms."""
    weighted = (design * weight[:, :, None]).transpose(0, 2, 1)
    coef = np.linalg.solve(weighted @ design, weighted @ t[:, :, None])[..., 0]
    res = np.sum(design * coef[:, None, :], axis=2) - t
    rms = np.sqrt(np.sum(res * res * weight, axis=1) / weight.sum(axis=1))
    return coef, rms


def _fit_planes(ts, cfg, px, py):
    """Plane RANSAC at the pixels (px, py), a chunk of pixels at a time.

    Nothing a pixel gets depends on which pixels share its chunk.
    """
    slots = cfg.spatial_window ** 2
    n = px.size
    fits = _PlaneFits(status=np.zeros(n, dtype=np.int8),
                      support=np.zeros(n, dtype=np.int64),
                      inliers=np.zeros(n, dtype=np.int64),
                      coef=np.zeros((n, 3)), rms=np.zeros(n))
    chunk = max(1, CHUNK_BYTES // (8 * cfg.plane_iters * slots))
    for lo in range(0, n, chunk):
        out = slice(lo, lo + chunk)
        cx, cy = px[out], py[out]
        dx, dy, t, valid, k = _gather_support(ts, cfg, cx, cy)
        status = np.where(k < cfg.min_support, _INSUFFICIENT,
                          np.where(_collinear(dx, dy, valid), _DEGENERATE,
                                   _FITTED))
        run = np.flatnonzero(status == _FITTED)
        design = np.stack([dx[run], dy[run], np.ones_like(dx[run])],
                          axis=2).astype(float)
        t, valid = t[run], valid[run]
        picks = _sample_triples(cfg, cx[run], cy[run], k[run])
        count, weight = _best_consensus(cfg, design, t, valid, picks)
        good = count >= cfg.min_support
        status[run[~good]] = _INSUFFICIENT
        coef, rms = _refit(design[good], t[good], weight[good])
        fits.status[out], fits.support[out] = status, k
        fits.inliers[out][run] = np.maximum(count, 0)
        fits.coef[out][run[good]] = coef
        fits.rms[out][run[good]] = rms
    return fits


def fit_local_plane(ts, center_px, cfg):
    """RANSAC-fit t = a x + b y + c over fired pixels near center_px.

    Returns a PlaneFit whose gradient is (a, b) in s/px.  Raises
    InsufficientSupport when too few pixels fired recently (or consensus is
    below min_support) and DegenerateConfiguration when the support pixels
    are collinear.  This is the batched fit of `extract_normal_flows` run
    on one pixel, so both give bit-identical results.
    """
    fits = _fit_planes(ts, cfg, np.array([int(center_px[0])]),
                       np.array([int(center_px[1])]))
    status, support, consensus = fits.status[0], fits.support[0], fits.inliers[0]
    if support < cfg.min_support:
        raise InsufficientSupport(f"{support} recent pixels < {cfg.min_support}")
    if status == _DEGENERATE:
        raise DegenerateConfiguration("support pixels are collinear")
    if status == _INSUFFICIENT:
        raise InsufficientSupport(
            f"best consensus {consensus} < {cfg.min_support}")
    return PlaneFit(gradient=fits.coef[0, :2].copy(),
                    offset=float(fits.coef[0, 2] + ts.t_ref),
                    inlier_count=int(consensus), rms=float(fits.rms[0]))


def normal_flow_from_gradient(gradient, gradient_floor):
    """n = g / |g|^2; rejects gradients below the resolvable floor."""
    g = np.asarray(gradient, dtype=float).reshape(2)
    norm2 = float(g @ g)
    if np.sqrt(norm2) < gradient_floor:
        raise BelowMinGradient(
            f"|gradient| {np.sqrt(norm2):.3g} below floor {gradient_floor:.3g}")
    return g / norm2


def extract_normal_flows(ts, intr, cfg=None):
    """Extract calibrated normal flows from every recently fired pixel.

    Per-pixel failures are skipped and counted, never raised.  Output is
    ordered by pixel index (row-major); each pixel's RANSAC uses a
    substream derived from (seed, pixel), so it does not depend on how the
    pixels are batched.
    """
    cfg = cfg or ExtractionConfig()
    if (intr.height, intr.width) != ts.shape:
        raise ValueError("intrinsics sensor size does not match surface shape")
    recent = ts.timestamps > ts.t_ref - cfg.temporal_window
    ys, xs = np.nonzero(recent)
    fits = _fit_planes(ts, cfg, xs, ys)
    gx, gy = fits.coef[:, 0], fits.coef[:, 1]
    fitted = fits.status == _FITTED
    flat = fitted & (np.sqrt(gx * gx + gy * gy) < cfg.gradient_floor)
    emit = np.flatnonzero(fitted & ~flat)
    # Gradients map covariantly to calibrated coordinates, n = g / |g|^2.
    gcx, gcy = intr.fx * gx[emit], intr.fy * gy[emit]
    mag2 = gcx * gcx + gcy * gcy
    records = [FlowRecord(t=t, x_px=float(x), y_px=float(y), nx_cal=nx,
                          ny_cal=ny, inliers=inl, rms=rms)
               for t, x, y, nx, ny, inl, rms in zip(
                   ts.timestamps[ys[emit], xs[emit]].tolist(), xs[emit].tolist(),
                   ys[emit].tolist(), (gcx / mag2).tolist(),
                   (gcy / mag2).tolist(), fits.inliers[emit].tolist(),
                   fits.rms[emit].tolist())]
    stats = ExtractionStats(
        candidates=int(xs.size), emitted=int(emit.size),
        insufficient_support=int(np.sum(fits.status == _INSUFFICIENT)),
        degenerate_configuration=int(np.sum(fits.status == _DEGENERATE)),
        below_min_gradient=int(flat.sum()))
    return records, stats


def records_to_obs(records, intr):
    """Rebuild NormalFlowObs (calibrated location + flow) from FlowRecords."""
    obs = []
    for r in records:
        point = pixel_to_calibrated((r.x_px, r.y_px), intr)
        n = np.array([r.nx_cal, r.ny_cal])
        obs.append(NormalFlowObs(x=point, n=n, t=r.t, mag2=float(n @ n)))
    return obs


def _fmt(v):
    return f"{v:.9g}"


def write_flows_csv(path, records, depths=None):
    """Write flows as CSV with 9 significant digits; optional depth column."""
    header = list(FLOWS_HEADER)
    if depths is not None:
        if len(depths) != len(records):
            raise ValueError("depths length must match records")
        header.append("Z")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, r in enumerate(records):
            row = [_fmt(r.t), _fmt(r.x_px), _fmt(r.y_px), _fmt(r.nx_cal),
                   _fmt(r.ny_cal), str(int(r.inliers)), _fmt(r.rms)]
            if depths is not None:
                row.append(_fmt(depths[i]))
            writer.writerow(row)


def read_flows_csv(path):
    """Read a flows CSV; returns (records, depths) with depths None when
    the file has no Z column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:7]] != FLOWS_HEADER:
            raise ValueError(f"unrecognized flows CSV header in {path}")
        has_z = len(header) > 7 and header[7].strip() in ("Z", "depth")
        records, depths = [], []
        for row in reader:
            if not row:
                continue
            records.append(FlowRecord(
                t=float(row[0]), x_px=float(row[1]), y_px=float(row[2]),
                nx_cal=float(row[3]), ny_cal=float(row[4]),
                inliers=int(row[5]), rms=float(row[6])))
            if has_z:
                depths.append(float(row[7]))
    return records, (np.array(depths) if has_z else None)
