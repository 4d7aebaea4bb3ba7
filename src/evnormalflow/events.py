"""Event-stream parsing and time-surface construction.

Events arrive as text lines "t x y p" with timestamps in seconds and
polarity tokens 0 (off, mapped to -1) and 1 (on, mapped to +1); -1 is
accepted as off too.  Blank lines are skipped and '#' starts a comment,
on its own line or after the four fields.  `read_events`, the one
parser, reads a file in one `np.loadtxt` call into a columnar
`EventArray`, the only event type, and checks it column by column.

A time surface holds, per pixel, the timestamp of the latest event
inside a temporal window ending at the reference time, and nothing else.
"""
from __future__ import annotations

import gzip
import os
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (BoundsError, EventOrderError, ParseError, finite,
                     integer, positive_or_inf, sign)

# Timestamps may regress by at most this much (sensor arbitration jitter)
# before the stream is considered corrupt.
JITTER_BUDGET = 1e-6

UNFIRED = -np.inf

_LINE_DTYPE = np.dtype([("t", np.float64), ("x", np.int64), ("y", np.int64),
                        ("p", np.int8)])


class EventArray:
    """Events as columns: t (float64, s), x and y (int64, px), p (int8, +-1).

    len() counts events.  Indexing indexes every column: an integer gives
    the columns' NumPy scalars (`events[-1].t`), a slice or mask an
    EventArray of those rows.  There is no row iteration; use the columns.
    """

    __slots__ = ("t", "x", "y", "p")

    def __init__(self, t, x, y, p):
        self.t = np.ascontiguousarray(t, dtype=np.float64)
        self.x = np.ascontiguousarray(x, dtype=np.int64)
        self.y = np.ascontiguousarray(y, dtype=np.int64)
        self.p = np.ascontiguousarray(p, dtype=np.int8)

    def __len__(self):
        return self.t.size

    def __getitem__(self, index):
        # Not via __init__, which would make scalars one-element arrays.
        item = object.__new__(EventArray)
        for name in self.__slots__:
            setattr(item, name, getattr(self, name)[index])
        return item

    # With __getitem__ defined, Python would otherwise iterate by index.
    __iter__ = None


def _raise_first_bad_line(lines, width, height):
    """Re-check lines one by one and raise for the first bad one.

    Runs only after the columnar parse or its checks have failed, to name
    the line.
    """
    for line_no, line in enumerate(lines, start=1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 4:
            raise ParseError(f"expected 4 fields, got {len(parts)}", line_no)
        try:
            t = float(parts[0])
            x = int(parts[1])
            y = int(parts[2])
            p_tok = int(parts[3])
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
        if not np.isfinite(t):
            raise ParseError(f"non-finite timestamp {parts[0]}", line_no)
        if p_tok not in (-1, 0, 1):
            raise ParseError(f"polarity token must be 0 or 1, got {p_tok}", line_no)
        if width is not None and not (0 <= x < width):
            raise BoundsError(f"line {line_no}: x={x} outside [0, {width})")
        if height is not None and not (0 <= y < height):
            raise BoundsError(f"line {line_no}: y={y} outside [0, {height})")


def read_events(path, width=None, height=None):
    """Read an event file (plain text, or gzip when named *.gz) into an
    EventArray.

    Malformed lines raise ParseError with the 1-based line number of the
    first one; with sensor bounds given (None: no bound), an out-of-range
    pixel raises BoundsError naming its line.  A *.gz file that is not a
    whole gzip stream raises ParseError.
    """
    if width is not None:
        width = integer("width", width, 1)
    if height is not None:
        height = integer("height", height, 1)
    name = os.fsdecode(path)
    opener = gzip.open if name.endswith(".gz") else open
    error = None
    try:
        with opener(name, "rt") as fh:
            # np.loadtxt reads a file it opens by name in large blocks, but
            # an open file only line by line; it opens *.gz and plain text
            # files just as `opener` does.
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings(
                        "ignore", "loadtxt: input contained no data")
                    rows = np.loadtxt(name, dtype=_LINE_DTYPE, comments="#",
                                      ndmin=1)
            except ValueError as exc:
                error = exc
            else:
                t, x, y, p = rows["t"], rows["x"], rows["y"], rows["p"]
                if not rows.size or (
                        np.isfinite(t).all() and -1 <= p.min() <= p.max() <= 1
                        and (width is None or 0 <= x.min() <= x.max() < width)
                        and (height is None
                             or 0 <= y.min() <= y.max() < height)):
                    p[p == 0] = -1
                    return EventArray(t, x, y, p)
            # The parse or a check failed: re-read the lines one by one to
            # name the first bad one.
            _raise_first_bad_line(fh, width, height)
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise ParseError(f"unreadable gzip stream {name}: {exc}") from None
    # np.loadtxt rejected a number that Python's own parsing accepts (such
    # as "1_000"); there is no line number to report.
    raise ParseError(f"unparseable event stream: {error}")


@dataclass
class TimeSurface:
    """Per-pixel latest timestamp of the events folded at reference time
    t_ref.

    timestamps: (H, W) float64, -inf where no event fired; no polarity.
    The window that chose the events is not kept: extraction has its own,
    ExtractionConfig.temporal_window.
    """

    timestamps: np.ndarray
    t_ref: float

    @property
    def shape(self):
        return self.timestamps.shape

    def fired_mask(self):
        return np.isfinite(self.timestamps)


def build_time_surface(events, t_ref, temporal_window, shape,
                       polarity=None):
    """Fold an EventArray into a TimeSurface of the given (H, W) shape.

    Events outside (t_ref - temporal_window, t_ref] are skipped.  Streams
    must be time-ordered up to JITTER_BUDGET; within the budget, out-of-order
    events are applied max-wise so the result is order-independent.
    `polarity` of +1/-1 folds only the events of that polarity; the default
    folds both.  Any other polarity, a bool included, is a ValueError.  Of
    an order violation and an in-window out-of-sensor event, the one
    earlier in the stream is raised.  t_ref must be finite and
    temporal_window > 0; an infinite window means no limit.
    """
    finite("t_ref", t_ref)
    positive_or_inf("temporal_window", temporal_window)
    if polarity is not None:
        polarity = sign("polarity", polarity)
    h, w = shape
    t, x, y = events.t, events.x, events.y
    n = t.size
    # Latest timestamp before each event; fmax skips NaN like max() does.
    t_prev = np.empty(n)
    t_prev[:1] = -np.inf
    np.fmax.accumulate(t[:-1], out=t_prev[1:])
    t_lo = t_ref - temporal_window
    keep = (t_lo < t) & (t <= t_ref)
    if polarity is not None:
        keep &= events.p == polarity
    outside = keep & ((x < 0) | (x >= w) | (y < 0) | (y >= h))
    regress = np.flatnonzero(t < t_prev - JITTER_BUDGET)
    stray = np.flatnonzero(outside)
    i_order = regress[0] if regress.size else n
    i_bounds = stray[0] if stray.size else n
    if i_order < n and i_order <= i_bounds:
        raise EventOrderError(
            f"timestamp {float(t[i_order])} regresses more than "
            f"{JITTER_BUDGET}s past {float(t_prev[i_order])}")
    if i_bounds < n:
        raise BoundsError(
            f"event pixel ({int(x[i_bounds])}, {int(y[i_bounds])}) outside {w}x{h}")

    idx = np.flatnonzero(keep)
    ts = np.full(h * w, UNFIRED)
    np.maximum.at(ts, y[idx] * w + x[idx], t[idx])
    return TimeSurface(timestamps=ts.reshape(h, w), t_ref=float(t_ref))
