"""Event-stream parsing and time-surface construction.

Events arrive as text lines "t x y p" with timestamps in seconds and
polarity tokens 0 (off, mapped to -1) and 1 (on, mapped to +1); -1 is
accepted as off too.  Blank lines are skipped and '#' starts a comment,
on its own line or after the four fields.  A stream is parsed in one
`np.loadtxt` call into a columnar `EventArray`.

A time surface holds, per pixel, the timestamp of the latest event
inside a temporal window ending at the reference time.
"""
from __future__ import annotations

import gzip
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, EventOrderError, ParseError

# Timestamps may regress by at most this much (sensor arbitration jitter)
# before the stream is considered corrupt.
JITTER_BUDGET = 1e-6

UNFIRED = -np.inf

_LINE_DTYPE = np.dtype([("t", np.float64), ("x", np.int64), ("y", np.int64),
                        ("p", np.int8)])


@dataclass(frozen=True)
class Event:
    t: float
    x: int
    y: int
    p: int


class EventArray:
    """Events as columns: t (float64, s), x and y (int64, px), p (int8, +-1).

    len() counts events, an integer index returns one `Event`, and
    iteration yields Events in stream order.
    """

    __slots__ = ("t", "x", "y", "p")

    def __init__(self, t, x, y, p):
        self.t = np.ascontiguousarray(t, dtype=np.float64)
        self.x = np.ascontiguousarray(x, dtype=np.int64)
        self.y = np.ascontiguousarray(y, dtype=np.int64)
        self.p = np.ascontiguousarray(p, dtype=np.int8)

    @classmethod
    def from_events(cls, events):
        """Columns of a sequence of Events."""
        events = list(events)
        return cls([e.t for e in events], [e.x for e in events],
                   [e.y for e in events], [e.p for e in events])

    def __len__(self):
        return self.t.size

    def __getitem__(self, index):
        return Event(t=float(self.t[index]), x=int(self.x[index]),
                     y=int(self.y[index]), p=int(self.p[index]))

    def __iter__(self):
        for t, x, y, p in zip(self.t.tolist(), self.x.tolist(),
                              self.y.tolist(), self.p.tolist()):
            yield Event(t=t, x=x, y=y, p=p)


def _raise_first_bad_line(lines, width, height):
    """Re-check lines one by one and raise for the first bad one.

    Runs only after the columnar parse has failed, to name the line.
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


def _parse(source, lines, width, height):
    """Parse `source` with np.loadtxt; if that fails or a value is out of
    range, check `lines`, the same text, line by line to name the culprit."""
    error = None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(source, dtype=_LINE_DTYPE, comments="#", ndmin=1)
    except ValueError as exc:
        error = exc
    else:
        t, x, y, p = rows["t"], rows["x"], rows["y"], rows["p"]
        valid = np.isfinite(t) & ((p == 0) | (p == 1) | (p == -1))
        if width is not None:
            valid &= (x >= 0) & (x < width)
        if height is not None:
            valid &= (y >= 0) & (y < height)
        if valid.all():
            return EventArray(t, x, y, np.where(p == 1, 1, -1))
    _raise_first_bad_line(lines, width, height)
    # np.loadtxt rejected a number that Python's own parsing accepts (such
    # as "1_000"); there is no line number to report.
    raise ParseError(f"unparseable event stream: {error}")


def parse_event_stream(lines, width=None, height=None):
    """Parse an iterable of "t x y p" lines into an EventArray.

    Malformed lines raise ParseError with the 1-based line number;
    out-of-range pixels raise BoundsError when sensor bounds are given.
    """
    if not isinstance(lines, (list, tuple)):
        lines = list(lines)
    return _parse(lines, lines, width, height)


def read_events(path, width=None, height=None):
    """Read an event file (plain text, or gzip when named *.gz) into an
    EventArray."""
    name = os.fsdecode(path)
    opener = gzip.open if name.endswith(".gz") else open
    with opener(name, "rt") as fh:
        # np.loadtxt reads a file it opens by name in large blocks, but an
        # open file only line by line; it opens *.gz and plain text files
        # just as `opener` does.
        return _parse(name, fh, width, height)


@dataclass
class TimeSurface:
    """Per-pixel latest event timestamp within (t_ref - window, t_ref].

    timestamps: (H, W) float64, -inf where no event fired.
    polarity:   (H, W) int8, sign of the latest event, 0 where unfired.
    """

    timestamps: np.ndarray
    polarity: np.ndarray
    t_ref: float
    temporal_window: float

    @property
    def shape(self):
        return self.timestamps.shape

    def fired_mask(self):
        return np.isfinite(self.timestamps)


def build_time_surface(events, t_ref, temporal_window, shape,
                       polarity=None, jitter=JITTER_BUDGET):
    """Fold events (an EventArray or a sequence of Events) into a
    TimeSurface of the given (H, W) shape.

    Events outside (t_ref - temporal_window, t_ref] are skipped.  Streams
    must be time-ordered up to `jitter`; within the budget, out-of-order
    events are applied max-wise so the result is order-independent, and
    of equal timestamps at one pixel the later event wins.  `polarity` of
    +1/-1 restricts the surface to one polarity; the default folds both.
    Of an order violation and an in-window out-of-sensor event, the one
    earlier in the stream is raised.
    """
    if temporal_window <= 0:
        raise ValueError("temporal window must be positive")
    if not isinstance(events, EventArray):
        events = EventArray.from_events(events)
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
    regress = np.flatnonzero(t < t_prev - jitter)
    stray = np.flatnonzero(outside)
    i_order = regress[0] if regress.size else n
    i_bounds = stray[0] if stray.size else n
    if i_order < n and i_order <= i_bounds:
        raise EventOrderError(
            f"timestamp {float(t[i_order])} regresses more than {jitter}s past "
            f"{float(t_prev[i_order])}")
    if i_bounds < n:
        raise BoundsError(
            f"event pixel ({int(x[i_bounds])}, {int(y[i_bounds])}) outside {w}x{h}")

    idx = np.flatnonzero(keep)
    pixel = y[idx] * w + x[idx]
    # Stable sort by pixel, then time: each pixel's last entry is its latest
    # event, the later one in the stream on equal timestamps.
    order = np.lexsort((t[idx], pixel))
    idx, pixel = idx[order], pixel[order]
    last = np.ones(idx.size, dtype=bool)
    last[:-1] = pixel[1:] != pixel[:-1]
    win, pixel = idx[last], pixel[last]
    ts = np.full(h * w, UNFIRED)
    pol = np.zeros(h * w, dtype=np.int8)
    ts[pixel] = t[win]
    pol[pixel] = events.p[win]
    return TimeSurface(timestamps=ts.reshape(h, w), polarity=pol.reshape(h, w),
                       t_ref=float(t_ref), temporal_window=float(temporal_window))
