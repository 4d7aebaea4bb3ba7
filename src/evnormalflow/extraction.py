"""Normal flow extraction from time surfaces.

The time surface stores when each pixel last fired; where the surface is
locally planar, its spatial gradient g (s/px) is the reciprocal of the
image speed along the gradient direction, so the normal flow in pixel
units is n = g / |g|^2.  Local planes are fit with a small RANSAC to
reject neighbouring pixels belonging to other structures.

All candidate pixels are fit together.  The surface is compared with the
temporal window once, into a recent mask and times padded with a margin
of half a window of unfired pixels, inside which every sensor pixel's
window lies whole: one box sum over the mask gives each pixel's support
k, the recently fired pixels in its window, and a chunk's windows are
one flat gather.  Pixels of equal k are fit as one group, a chunk of
CHUNK_BYTES at a time, on (P, k) support arrays.  A support size with
fewer than GROUP_PIXELS pixels joins the next larger size present, so
that every group pays its fixed cost in NumPy calls for enough pixels;
its pixels' extra slots are padding that never counts as an inlier and
never enters the refit.  Minimal samples are drawn by hashing a counter
with each pixel's own uint64 key (a counter-based stream: Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011), in place; the
minimal planes are solved in closed form by Cramer's rule, scored a
block of SCORE_BYTES of residuals at a time so that the passes over them
stay in cache, and refit by one batched 3x3 normal-equation solve on
each pixel's own k slots.

RANSAC runs in two stages: the first STAGE_ITERS iterations for every
pixel of a chunk, then the rest only for its pixels whose best consensus
is below their support k, in chunks of those pixels alone.  A consensus
of k cannot be beaten and ties go to the earliest iteration, so the rest
could not change the other pixels' fits.  A pixel's draws depend only on
its key, hashed from the seed and its coordinates, and its sums only on
its own k slots, so results do not depend on batching or on the stages;
the tests check this bit for bit against pixels fit one at a time.

The flows come out as one Observations with the pixel locations and fit
diagnostics filled in.  The flows CSV holds one FLOWS_DTYPE row per flow;
it is written in one call, one row format over each column's Python
scalars, and read with one np.loadtxt.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import integer, positive, positive_or_inf, uint64
from .events import UNFIRED
from .geometry import Observations, pixel_to_calibrated

# One row of a flows CSV; simulated data add a depth column Z.
FLOWS_DTYPE = np.dtype([("t", float), ("x_px", float), ("y_px", float),
                        ("nx_cal", float), ("ny_cal", float),
                        ("inliers", np.int64), ("rms", float)])
FLOWS_HEADER = list(FLOWS_DTYPE.names)
_FLOWS_Z_DTYPE = np.dtype(FLOWS_DTYPE.descr + [("Z", float)])


@dataclass(frozen=True)
class ExtractionConfig:
    """Tuning for plane fitting and gradient-to-flow conversion.

    spatial_window   side of the square fit neighbourhood, pixels (odd)
    temporal_window  events older than this are ignored, seconds (inf: none)
    plane_thresh     RANSAC inlier threshold on |t - plane(x, y)|, seconds
    plane_iters      RANSAC iterations per pixel; a pixel whose first few
                     hypotheses hold its whole support skips the rest,
                     which could not change its fit
    min_support      minimum fired pixels and minimum consensus size
    min_gradient     gradients flatter than this are rejected, s/px; the
                     normal flow's speed is 1/|g|, so this caps it at
                     1/min_gradient px/s
    seed             base seed in [0, 2**64), hashed with each pixel's (x, y)
    """

    spatial_window: int = 7
    temporal_window: float = 0.04
    plane_thresh: float = 1e-5
    plane_iters: int = 50
    min_support: int = 10
    min_gradient: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        integer("spatial_window", self.spatial_window, 3, odd=True)
        positive_or_inf("temporal_window", self.temporal_window)
        positive("plane_thresh", self.plane_thresh)
        integer("plane_iters", self.plane_iters, 1)
        integer("min_support", self.min_support, 3)
        positive("min_gradient", self.min_gradient)
        # a Python int, so that no NumPy scalar arithmetic on it can overflow
        object.__setattr__(self, "seed", uint64("seed", self.seed))


@dataclass
class ExtractionStats:
    """Candidate pixels, emitted flows and rejections by reason.
    whole_consensus counts the pixels whose first STAGE_ITERS hypotheses
    held their whole support, so that RANSAC skipped the rest (none when
    plane_iters leaves no second stage)."""

    candidates: int = 0
    emitted: int = 0
    insufficient_support: int = 0
    degenerate_configuration: int = 0
    below_min_gradient: int = 0
    whole_consensus: int = 0

    def to_dict(self):
        return dict(self.__dict__)


# Outcome of one pixel's plane fit.
_FITTED, _INSUFFICIENT, _DEGENERATE = 0, 1, 2

# A chunk of pixels fit together has (iters, k) hypothesis-by-support
# residuals per pixel, and its gather a float64 time and an int64 index per
# window pixel; a chunk keeps the larger of the two near this size.
CHUNK_BYTES = 1 << 22
# They are formed and scored a block of pixels at a time, in buffers of
# about this size: half of a 2 MiB per-core L2 cache, so that the passes
# over them stay in it.
SCORE_BYTES = 1 << 20
# RANSAC's first stage: these iterations run for every pixel, the rest only
# for the pixels they leave short of their whole support.  With fewer than
# two iterations left there is one stage: NumPy forms a one-hypothesis
# product as a matrix-vector product, which adds in another order.
STAGE_ITERS = 4
# A support size with fewer pixels joins the next larger size present.
GROUP_PIXELS = 128


class _PlaneFits(NamedTuple):
    status: np.ndarray    # (P,) _FITTED, _INSUFFICIENT or _DEGENERATE
    inliers: np.ndarray   # (P,) best consensus size, 0 where RANSAC did not run
    coef: np.ndarray      # (P, 3) plane (a, b, c), c relative to t_ref
    rms: np.ndarray       # (P,) residual rms of the final fit
    stopped: np.ndarray   # (P,) whole support held after the first stage


class _PaddedSurface(NamedTuple):
    """A surface laid out so that a window is one flat gather."""
    recent: np.ndarray    # (H + s - 1, W + s - 1) pixels fired within the
                          # temporal window, on a margin of s // 2, s = side
    times: np.ndarray     # times relative to t_ref where recent, UNFIRED
                          # elsewhere, same shape
    offsets: np.ndarray   # (s*s,) flat offsets of a window's pixels from its
                          # top-left corner, row-major
    rows: np.ndarray      # (s*s, 3) float rows [dx dy 1] of those pixels


def _pad_surface(ts, cfg):
    """The surface's recently fired pixels and their times on a margin of
    half a window of unfired pixels, inside which the window of every pixel
    on the sensor lies whole.  The one place the surface is compared with
    the temporal window."""
    side, half = cfg.spatial_window, cfg.spatial_window // 2
    h, w = ts.shape
    recent = np.zeros((h + side - 1, w + side - 1), dtype=bool)
    inside = recent[half:half + h, half:half + w]
    np.greater(ts.timestamps, ts.t_ref - cfg.temporal_window, out=inside)
    times = np.full(recent.shape, UNFIRED)
    times[recent] = ts.timestamps[inside] - ts.t_ref
    off_y, off_x = np.divmod(np.arange(side * side), side)
    rows = np.stack([off_x - half, off_y - half, np.ones_like(off_x)], axis=1)
    return _PaddedSurface(recent, times, off_y * times.shape[1] + off_x,
                          rows.astype(float))


def _support_counts(padded, cfg, px, py):
    """Recently fired pixels in the window of each sensor pixel (px, py):
    one box sum over the cumulative sums of the padded recent mask, in
    which pixel (px, py)'s window has its top-left corner at (px, py)."""
    h, w = padded.recent.shape
    total = np.zeros((h + 1, w + 1), dtype=np.int64)
    total[1:, 1:] = padded.recent
    # In place on int64, twice as fast as a cumsum of the bool mask.
    np.cumsum(total, axis=1, out=total)
    np.cumsum(total, axis=0, out=total)
    x1, y1 = px + cfg.spatial_window, py + cfg.spatial_window
    return total[y1, x1] - total[py, x1] - total[y1, px] + total[py, px]


def _gather_support(padded, px, py, k, width):
    """The recently fired pixels in the window of each sensor pixel, in
    row-major order, on K = width slots; pixel (px, py) has k <= K of
    them, the (P,) support counts.

    `padded` is the `_pad_surface` of the surface.  Returns the (P, K, 3)
    float rows [dx dy 1], (dx, dy) the integer offset to the centre, and
    the (P, K) times t relative to t_ref.  A pixel's slots past its k are
    padding: the row of its first slot, which leaves its support exactly
    as collinear as it was, and time NaN, which is never within a
    threshold of a plane.
    """
    corner = py * padded.times.shape[1] + px
    t = padded.times.ravel().take(corner[:, None] + padded.offsets)
    recent = t != UNFIRED
    # nonzero walks the mask in row-major order: each row's k slots in turn.
    pixel, slot = np.nonzero(recent)
    first = np.cumsum(k) - k
    dest = pixel * width + np.arange(slot.size) - first.repeat(k)
    # argmax finds each row's first recent slot, or slot 0 if it has none.
    slots = np.repeat(recent.argmax(axis=1), width)
    slots[dest] = slot
    times = np.full(px.size * width, np.nan)
    times[dest] = t[recent]
    return (padded.rows.take(slots.reshape(px.size, width), axis=0),
            times.reshape(px.size, width))


def _collinear(design):
    """Rank of the [dx dy 1] design below 3, exact on integer offsets:
    every support pixel lies on the line through the first two."""
    dx, dy = design[:, :, 0], design[:, :, 1]
    ex, ey = dx[:, 1:2] - dx[:, :1], dy[:, 1:2] - dy[:, :1]
    cross = (dx - dx[:, :1]) * ey - (dy - dy[:, :1]) * ex
    return ~np.any(cross, axis=1)


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the golden-ratio Weyl
# increment and the finaliser that turns any counter into 64 mixed bits.
# Every operand is np.uint64: mixed with int64, NumPy 1.x promotes to float64.
_GAMMA = 0x9E3779B97F4A7C15
_GAMMA_U64 = np.uint64(_GAMMA)
_MUL1, _MUL2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31, _S32 = (np.uint64(s) for s in (27, 30, 31, 32))


def _mix(z):
    """SplitMix64 finaliser of a uint64 array, in place (wrapping), with
    one scratch array for the shifts."""
    tmp = np.empty_like(z)
    z ^= np.right_shift(z, _S30, out=tmp)
    z *= _MUL1
    z ^= np.right_shift(z, _S27, out=tmp)
    z *= _MUL2
    z ^= np.right_shift(z, _S31, out=tmp)
    return z


def _pixel_keys(seed, px, py):
    """One uint64 key per pixel: mix(mix(mix(seed*gamma + y) + x))."""
    z = _mix(np.uint64(seed * _GAMMA % (1 << 64)) + py.astype(np.uint64))
    z += px.astype(np.uint64)
    return _mix(_mix(z))


def _sample_triples(keys, k, start, stop):
    """Per pixel and iteration start <= i < stop, three distinct support
    slots below k.

    Draw j of iteration i hashes the pixel's key with the counter 3i + j,
    h = mix(key + (3i + j)*gamma) >> 32, and maps it below m as
    (h*m) >> 32.  The slots come from Floyd's sampling without replacement
    (Bentley & Floyd, CACM 1987): r0 below k-2; r1 below k-1, or k-2 if it
    repeats r0; r2 below k, or k-1 if it repeats r0 or r1.  So a pixel's
    draws depend only on the seed and its own coordinates, through its
    `_pixel_keys` key, and on the iteration, not on the range drawn.
    Returns the (3, P, stop - start) int64 slots r0, r1 and r2.
    """
    iters = stop - start
    # counter[j, i - start] = (3i + j) * gamma
    counter = np.arange(3 * start, 3 * stop,
                        dtype=np.uint64).reshape(iters, 3).T.copy()
    counter *= _GAMMA_U64
    h = _mix(keys[:, None] + counter[:, None, :])
    h >>= _S32
    # (3, P) bounds k-2, k-1 and k of the three draws.
    bound = k.astype(np.uint64) - np.arange(3, dtype=np.uint64)[::-1, None]
    h *= bound[:, :, None]
    h >>= _S32
    # Every slot is below 2**32, so its bits read the same as int64.
    slots = h.view(np.int64)
    r0, r1, r2 = slots
    np.copyto(r1, (k - 2)[:, None], where=r1 == r0)
    np.copyto(r2, (k - 1)[:, None], where=(r2 == r0) | (r2 == r1))
    return slots


def _minimal_planes(design, t, picks):
    """Plane (a, b, c) through each minimal sample, by Cramer's rule.

    `design` holds the (P, k, 3) rows [dx dy 1], `t` the (P, k) times and
    `picks` the (3, P, iters) slots of each sample.  Returns (P, 3, iters)
    coefficients and the (P, iters) mask of samples that span a plane.
    Integer offsets make the determinant exact, so a sample is degenerate
    exactly when it is 0; its coefficients are finite and meaningless.
    """
    n, slots = t.shape
    flat = picks + np.arange(0, n * slots, slots)[:, None]
    t0, t1, t2 = t.ravel().take(flat)
    rows = design.ravel()
    flat *= 3
    x0, x1, x2 = rows.take(flat)
    flat += 1
    y0, y1, y2 = rows.take(flat)
    for v, v0 in ((x1, x0), (x2, x0), (y1, y0), (y2, y0), (t1, t0), (t2, t0)):
        v -= v0
    det = x1 * y2 - x2 * y1
    ok = det != 0
    det[~ok] = 1.0
    a = (t1 * y2 - t2 * y1) / det
    b = (x1 * t2 - x2 * t1) / det
    return np.stack([a, b, t0 - a * x0 - b * y0], axis=1), ok


def _best_consensus(cfg, design, t, planes, ok):
    """Count the inliers of every minimal sample's plane.

    `design` holds the (P, k, 3) rows [dx dy 1] and `planes` the
    (P, 3, iters) minimal planes, `ok` marking the non-degenerate ones.
    Returns each pixel's best consensus size (-1 when every sample was
    degenerate) and its inlier mask over the k slots; ties go to the
    lowest iteration.

    The pixels are scored a block at a time, the block's residuals held
    slot-major, (k, block, iters), in buffers of about SCORE_BYTES reused
    from block to block, so that every pass over them stays in cache and
    the count over the slots adds whole rows.  Each pixel's product is
    the one an unblocked product gives, bit for bit.
    """
    n, k, iters = t.shape[0], t.shape[1], planes.shape[2]
    block = max(1, min(n, SCORE_BYTES // (8 * k * iters)))
    resid = np.empty(k * block * iters)
    inlier = np.empty(k * block * iters, dtype=bool)
    # The narrowest signed type that holds -k sums bools fastest.
    counts = np.empty(block * iters, dtype=np.min_scalar_type(-k))
    best_count = np.empty(n, dtype=counts.dtype)
    weight = np.empty((n, k), dtype=bool)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        size = k * (hi - lo) * iters
        r = resid[:size].reshape(k, hi - lo, iters)
        mask = inlier[:size].reshape(k, hi - lo, iters)
        count = counts[:size // k].reshape(hi - lo, iters)
        np.matmul(design[lo:hi], planes[lo:hi], out=r.transpose(1, 0, 2))
        r -= t[lo:hi].T[:, :, None]
        np.less_equal(np.abs(r, out=r), cfg.plane_thresh, out=mask)
        mask.sum(axis=0, dtype=count.dtype, out=count)
        count[~ok[lo:hi]] = -1
        best = count.argmax(axis=1)
        rows = np.arange(hi - lo)
        best_count[lo:hi] = count[rows, best]
        weight[lo:hi] = mask[:, rows, best].T
    return best_count, weight


def _runs(k):
    """(value, slice) of each run of equal values in the ascending k."""
    values, starts = np.unique(k, return_index=True)
    stops = starts[1:].tolist() + [k.size]
    return [(value, slice(lo, hi)) for value, lo, hi in
            zip(values.tolist(), starts.tolist(), stops)]


def _refit(design, t, weight, k):
    """Least-squares planes on the weighted slots: one batched 3x3
    normal-equation solve.  The pixels come in ascending support k, and
    each sum over slots runs over a pixel's own k slots, the pixels of one
    k at a time: padding would change how BLAS and np.sum block the sums.
    Returns (P, 3) coefficients and residual rms."""
    runs = _runs(k)
    weighted = (design * weight[:, :, None]).transpose(0, 2, 1)
    normal, moment = np.empty((k.size, 3, 3)), np.empty((k.size, 3, 1))
    for size, rows in runs:
        np.matmul(weighted[rows, :, :size], design[rows, :size],
                  out=normal[rows])
        np.matmul(weighted[rows, :, :size], t[rows, :size, None],
                  out=moment[rows])
    coef = np.linalg.solve(normal, moment)[..., 0]
    # dx a + dy b + c - t, summed left to right as np.sum sums three terms
    res = design[:, :, 0] * coef[:, None, 0]
    res += design[:, :, 1] * coef[:, None, 1]
    res += coef[:, None, 2]
    res -= t
    res *= res
    res *= weight
    total = np.empty(k.size)
    for size, rows in runs:
        np.sum(res[rows, :size], axis=1, out=total[rows])
    return coef, np.sqrt(total / weight.sum(axis=1))


def _support_groups(k, min_support):
    """Index arrays of the pixels fit together, in ascending support k:
    pixels of equal k, a size with fewer than GROUP_PIXELS pixels joined
    by the next larger sizes present until the group has that many.
    Sizes below min_support are not fit."""
    order = np.argsort(k, kind="stable")
    groups, lo = [], None
    for size, run in _runs(k[order]):
        if size < min_support:
            continue
        lo = run.start if lo is None else lo
        if run.stop - lo >= GROUP_PIXELS:
            groups.append(order[lo:run.stop])
            lo = None
    if lo is not None:
        groups.append(order[lo:])
    return groups


def _chunks(idx, cfg, iters, width):
    """`idx` in chunks of about CHUNK_BYTES of (iters, width) residuals or
    of window gather per pixel, whichever is larger."""
    side = cfg.spatial_window
    chunk = max(1, CHUNK_BYTES // max(8 * iters * width, 16 * side * side))
    return [idx[lo:lo + chunk] for lo in range(0, idx.size, chunk)]


def _consensus(cfg, keys, k, design, t, start, stop):
    """The best consensus size and inlier mask of iterations start..stop-1
    (see `_best_consensus`)."""
    picks = _sample_triples(keys, k, start, stop)
    planes, ok = _minimal_planes(design, t, picks)
    return _best_consensus(cfg, design, t, planes, ok)


def _fit_planes(padded, cfg, px, py):
    """Plane RANSAC at the sensor pixels (px, py) of the `_pad_surface`
    `padded`.

    The pixels are fit in `_support_groups`, a chunk at a time, on as many
    slots as the group's largest support.  The first STAGE_ITERS iterations
    run for every pixel of a chunk sized for them.  The rest run, in
    full-size chunks of their own, for its pixels whose best consensus is
    still below their k, and replace that best only with a larger one; then
    the chunk is refit in one batch.  A pixel fit alone has the same draws,
    consensus and refit, so nothing a pixel gets depends on which pixels
    share its group or chunk.
    """
    n = px.size
    k = _support_counts(padded, cfg, px, py)
    fits = _PlaneFits(status=np.full(n, _INSUFFICIENT, dtype=np.int8),
                      inliers=np.zeros(n, dtype=np.int64),
                      coef=np.zeros((n, 3)), rms=np.zeros(n),
                      stopped=np.zeros(n, dtype=bool))
    keys = _pixel_keys(cfg.seed, px, py)
    iters = cfg.plane_iters
    split = STAGE_ITERS if iters - STAGE_ITERS >= 2 else iters
    for group in _support_groups(k, cfg.min_support):
        width = int(k[group[-1]])
        for idx in _chunks(group, cfg, split, width):
            design, t = _gather_support(padded, px[idx], py[idx], k[idx],
                                        width)
            degenerate = _collinear(design)
            if degenerate.any():
                fits.status[idx[degenerate]] = _DEGENERATE
                run = ~degenerate
                idx, design, t = idx[run], design[run], t[run]
            count, weight = _consensus(cfg, keys[idx], k[idx], design, t,
                                       0, split)
            if split < iters:
                whole = count == k[idx]
                fits.stopped[idx] = whole
                # The second stage, in chunks of the pixels short of their k.
                short = np.flatnonzero(~whole)
                for rows in _chunks(short, cfg, iters - split, width):
                    more, more_weight = _consensus(
                        cfg, keys[idx[rows]], k[idx[rows]], design[rows],
                        t[rows], split, iters)
                    better = more > count[rows]
                    count[rows[better]] = more[better]
                    weight[rows[better]] = more_weight[better]
            fits.inliers[idx] = np.maximum(count, 0)
            good = count >= cfg.min_support
            fitted = idx[good]
            fits.status[fitted] = _FITTED
            fits.coef[fitted], fits.rms[fitted] = _refit(
                design[good], t[good], weight[good], k[fitted])
    return fits


def extract_normal_flows(ts, intr, cfg=None):
    """Extract calibrated normal flows from every recently fired pixel.

    Returns (Observations with px, inliers and rms, ExtractionStats).
    Per-pixel failures are skipped and counted, never raised.  Output is
    ordered by pixel index (row-major); each pixel's RANSAC draws from a
    key hashed from (seed, pixel), so it does not depend on how the pixels
    are batched.
    """
    cfg = cfg or ExtractionConfig()
    if (intr.height, intr.width) != ts.shape:
        raise ValueError("intrinsics sensor size does not match surface shape")
    padded = _pad_surface(ts, cfg)
    half = cfg.spatial_window // 2
    ys, xs = np.nonzero(padded.recent[half:-half, half:-half])
    fits = _fit_planes(padded, cfg, xs, ys)
    gx, gy = fits.coef[:, 0], fits.coef[:, 1]
    fitted = fits.status == _FITTED
    flat = fitted & (np.sqrt(gx * gx + gy * gy) < cfg.min_gradient)
    emit = np.flatnonzero(fitted & ~flat)
    px = np.stack([xs[emit], ys[emit]], axis=1).astype(float)
    xy, g = pixel_to_calibrated(px, intr, gradient_px=fits.coef[emit, :2])
    # n = g / |g|^2 with the gradient g in calibrated coordinates.
    mag2 = g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1]
    obs = Observations(xy=xy, n=g / mag2[:, None],
                       t=ts.timestamps[ys[emit], xs[emit]], px=px,
                       inliers=fits.inliers[emit], rms=fits.rms[emit])
    stats = ExtractionStats(
        candidates=int(xs.size), emitted=int(emit.size),
        insufficient_support=int(np.sum(fits.status == _INSUFFICIENT)),
        degenerate_configuration=int(np.sum(fits.status == _DEGENERATE)),
        below_min_gradient=int(flat.sum()),
        whole_consensus=int(fits.stopped.sum()))
    return obs, stats


def records_to_obs(records, intr):
    """Observations (calibrated location and flow, plus the pixel location
    and fit diagnostics) from the records read_flows_csv returns."""
    px = np.stack([records["x_px"], records["y_px"]], axis=1)
    return Observations(xy=pixel_to_calibrated(px, intr),
                        n=np.stack([records["nx_cal"], records["ny_cal"]], axis=1),
                        t=records["t"], px=px, inliers=records["inliers"],
                        rms=records["rms"])


def write_flows_csv(path, obs, depths=None):
    """Write flows as CSV: t with 9 decimals (1 ns at any offset, so times
    in seconds since the epoch survive), the other floats with 9
    significant digits; optional depth column.

    `obs` is an Observations with px, inliers and rms filled in; without
    them, ValueError naming the missing ones.
    """
    missing = [name for name in ("px", "inliers", "rms")
               if getattr(obs, name) is None]
    if missing:
        raise ValueError(f"flows CSV needs columns {', '.join(missing)}")
    columns = [obs.t, obs.px[:, 0], obs.px[:, 1], obs.n[:, 0], obs.n[:, 1],
               obs.inliers, obs.rms]
    if depths is not None:
        if len(depths) != len(obs):
            raise ValueError("depths length must match observations")
        columns.append(depths)
    names = FLOWS_HEADER + ["Z"] * (depths is not None)
    # tolist() hands the row format Python scalars, which format several
    # times faster than NumPy scalars.
    formats = {"t": "%.9f", "inliers": "%d"}
    row = ",".join(formats.get(name, "%.9g") for name in names) + "\r\n"
    rows = zip(*(np.asarray(column).tolist() for column in columns))
    text = ",".join(names) + "\r\n" + "".join([row % values for values in rows])
    with open(path, "w", newline="") as fh:
        fh.write(text)


def read_flows_csv(path):
    """Read a flows CSV; returns (records, depths): an np.recarray of the
    file's rows (FLOWS_DTYPE, then Z if present) and its Z column or None.
    A row with too few fields or a non-finite value raises ValueError."""
    with open(path, newline="") as fh:
        header = [h.strip() for h in fh.readline().rstrip("\r\n").split(",")]
    if header[:7] != FLOWS_HEADER:
        raise ValueError(f"unrecognized flows CSV header in {path}")
    has_z = len(header) > 7 and header[7] == "Z"
    dtype = _FLOWS_Z_DTYPE if has_z else FLOWS_DTYPE
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        rows = np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1,
                          usecols=range(len(dtype)), ndmin=1)
    for name in dtype.names:
        if not np.all(np.isfinite(rows[name])):
            raise ValueError(f"non-finite value in column {name} of {path}")
    records = rows.view(np.recarray)
    return records, (records.Z.copy() if has_z else None)
