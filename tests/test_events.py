"""Event parsing and time-surface construction."""
import gzip
import warnings

import numpy as np
import pytest

from evnormalflow import (BoundsError, Event, EventArray, EventOrderError,
                          ParseError, build_time_surface, parse_event_stream,
                          read_events)
from evnormalflow.events import JITTER_BUDGET, UNFIRED


def test_parse_single_line():
    events = list(parse_event_stream(["0.001 120 84 1"]))
    assert events == [Event(t=0.001, x=120, y=84, p=1)]


def test_parse_polarity_mapping():
    events = list(parse_event_stream(["0.1 0 0 0", "0.2 0 0 1", "0.3 0 0 -1"]))
    assert [e.p for e in events] == [-1, 1, -1]


def test_parse_missing_field():
    with pytest.raises(ParseError) as err:
        list(parse_event_stream(["0.001 120 84"]))
    assert "4 fields" in str(err.value)
    assert err.value.line_no == 1


def test_parse_error_reports_line_number():
    lines = ["0.1 1 1 1", "# comment", "", "garbage here x y"]
    with pytest.raises(ParseError) as err:
        list(parse_event_stream(lines))
    assert err.value.line_no == 4


def test_parse_empty_input():
    assert list(parse_event_stream([])) == []
    assert list(parse_event_stream(["# only a comment", "   "])) == []


def test_parse_bounds_check():
    with pytest.raises(BoundsError):
        list(parse_event_stream(["0.1 240 0 1"], width=240, height=180))
    with pytest.raises(BoundsError):
        list(parse_event_stream(["0.1 0 -1 1"], width=240, height=180))


def test_parse_bad_polarity_token():
    with pytest.raises(ParseError):
        list(parse_event_stream(["0.1 0 0 7"]))


def test_read_events_gzip(tmp_path):
    path = tmp_path / "events.txt.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("# header\n0.5 3 4 1\n0.6 3 4 0\n")
    events = read_events(path)
    assert len(events) == 2 and events[1].p == -1


@pytest.fixture(params=["plain", "gzip"])
def event_file(request, tmp_path):
    """Writes text to a plain or gzip event file and returns its path."""
    def write(text):
        if request.param == "gzip":
            path = tmp_path / "events.txt.gz"
            with gzip.open(path, "wt") as fh:
                fh.write(text)
        else:
            path = tmp_path / "events.txt"
            path.write_text(text)
        return path
    return write


def test_read_events_columns_and_indexing(event_file):
    events = read_events(event_file("0.5 3 4 1\n0.6 5 6 0\n0.7 7 8 -1\n"))
    assert isinstance(events, EventArray) and len(events) == 3
    assert events.t.dtype == np.float64 and events.p.dtype == np.int8
    assert events.x.tolist() == [3, 5, 7] and events.p.tolist() == [1, -1, -1]
    assert events[-1] == Event(t=0.7, x=7, y=8, p=-1)
    assert list(events) == [Event(0.5, 3, 4, 1), Event(0.6, 5, 6, -1),
                            Event(0.7, 7, 8, -1)]


def test_read_events_bad_line_after_comments_and_blanks(event_file):
    path = event_file("# header\n\n0.1 1 1 1\n   \n# note\n0.2 1 x 1\n0.3 1 1 1\n")
    with pytest.raises(ParseError) as err:
        read_events(path)
    assert err.value.line_no == 6


def test_read_events_bounds_error_names_line(event_file):
    path = event_file("0.1 1 1 1\n# note\n0.2 1 1 1\n0.3 240 1 1\n0.4 1 999 1\n")
    with pytest.raises(BoundsError, match="line 4: x=240"):
        read_events(path, width=240, height=180)


@pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
def test_read_events_non_finite_timestamp(event_file, stamp):
    with pytest.raises(ParseError) as err:
        read_events(event_file(f"0.1 1 1 1\n{stamp} 1 1 1\n"))
    assert err.value.line_no == 2


@pytest.mark.parametrize("text", ["", "# only a comment\n", "\n  \n# a\n# b\n"])
def test_read_events_empty_without_warning(event_file, text):
    path = event_file(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        events = read_events(path)
    assert len(events) == 0 and not events


def test_read_events_trailing_comment_accepted(event_file):
    # '#' starts a comment anywhere on a line, also after the four fields
    events = read_events(event_file("0.1 1 2 1  # first\n0.2 3 4 0#second\n"))
    assert list(events) == [Event(0.1, 1, 2, 1), Event(0.2, 3, 4, -1)]


def test_surface_single_event():
    surface = build_time_surface([Event(1.0, 5, 5, 1)], t_ref=1.0,
                                 temporal_window=0.04, shape=(10, 10))
    assert surface.timestamps[5, 5] == 1.0
    assert surface.polarity[5, 5] == 1
    mask = surface.fired_mask()
    assert mask.sum() == 1
    assert surface.timestamps[0, 0] == UNFIRED


def test_surface_overwrite_same_pixel():
    events = [Event(0.99, 5, 5, 1), Event(1.0, 5, 5, -1)]
    surface = build_time_surface(events, 1.0, 0.04, (10, 10))
    assert surface.timestamps[5, 5] == 1.0
    assert surface.polarity[5, 5] == -1


def test_surface_window_excludes_old_events():
    surface = build_time_surface([Event(0.95, 5, 5, 1)], 1.0, 0.04, (10, 10))
    assert not surface.fired_mask().any()


def test_surface_polarity_filter():
    events = [Event(0.99, 1, 1, 1), Event(0.995, 2, 2, -1)]
    pos = build_time_surface(events, 1.0, 0.04, (5, 5), polarity=1)
    neg = build_time_surface(events, 1.0, 0.04, (5, 5), polarity=-1)
    assert pos.fired_mask().sum() == 1 and pos.timestamps[1, 1] == 0.99
    assert neg.fired_mask().sum() == 1 and neg.timestamps[2, 2] == 0.995


def test_surface_jitter_tolerated_and_order_independent():
    # a regression inside the budget is accepted and applied max-wise
    events = [Event(1.0, 5, 5, 1), Event(1.0 - 0.5 * JITTER_BUDGET, 5, 5, -1)]
    surface = build_time_surface(events, 1.0, 0.04, (10, 10))
    assert surface.timestamps[5, 5] == 1.0
    assert surface.polarity[5, 5] == 1


def test_surface_jitter_budget_enforced():
    events = [Event(1.0, 5, 5, 1), Event(0.9, 6, 6, 1)]
    with pytest.raises(EventOrderError):
        build_time_surface(events, 1.0, 0.04, (10, 10))


def test_surface_rejects_out_of_bounds_event():
    with pytest.raises(BoundsError):
        build_time_surface([Event(1.0, 12, 0, 1)], 1.0, 0.04, (10, 10))


def test_surface_idempotent_rebuild():
    rng = np.random.default_rng(11)
    events = [Event(t=float(t), x=int(x), y=int(y), p=int(p))
              for t, x, y, p in zip(np.sort(rng.uniform(0.9, 1.0, 200)),
                                    rng.integers(0, 20, 200),
                                    rng.integers(0, 20, 200),
                                    rng.choice([-1, 1], 200))]
    a = build_time_surface(events, 1.0, 0.1, (20, 20))
    b = build_time_surface(events, 1.0, 0.1, (20, 20))
    assert np.array_equal(a.timestamps, b.timestamps)
    assert np.array_equal(a.polarity, b.polarity)


def test_surface_append_monotone():
    rng = np.random.default_rng(12)
    events = [Event(t=float(t), x=int(x), y=int(y), p=1)
              for t, x, y in zip(np.sort(rng.uniform(0.9, 0.99, 100)),
                                 rng.integers(0, 20, 100),
                                 rng.integers(0, 20, 100))]
    base = build_time_surface(events, 1.0, 0.1, (20, 20))
    extended = build_time_surface(events + [Event(0.995, 3, 3, 1)], 1.0, 0.1,
                                  (20, 20))
    assert np.all(extended.timestamps >= base.timestamps)


def test_surface_timestamps_bounded_by_t_ref():
    events = [Event(0.99, 1, 1, 1), Event(1.0, 2, 2, 1), Event(1.01, 3, 3, 1)]
    surface = build_time_surface(events, 1.0, 0.04, (5, 5))
    fired = surface.timestamps[surface.fired_mask()]
    assert np.all(fired <= surface.t_ref)
    assert not np.isfinite(surface.timestamps[3, 3])  # future event skipped


def test_surface_requires_positive_window():
    with pytest.raises(ValueError):
        build_time_surface([], 1.0, 0.0, (5, 5))


def reference_fold(events, t_ref, window, shape, polarity=None):
    """The per-event time-surface fold, as an oracle."""
    ts, pol = np.full(shape, UNFIRED), np.zeros(shape, np.int8)
    t_prev = -np.inf
    for ev in events:
        if ev.t < t_prev - JITTER_BUDGET:
            raise EventOrderError(f"regression at {ev.t}")
        t_prev = max(t_prev, ev.t)
        if (polarity is not None and ev.p != polarity
                or not t_ref - window < ev.t <= t_ref):
            continue
        if not (0 <= ev.x < shape[1] and 0 <= ev.y < shape[0]):
            raise BoundsError(f"pixel ({ev.x}, {ev.y})")
        if ev.t >= ts[ev.y, ev.x]:
            ts[ev.y, ev.x], pol[ev.y, ev.x] = ev.t, ev.p
    return ts, pol


def parity_stream(seed=21, n=3000, shape=(16, 20)):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.9, 1.0, n))
    regress = rng.random(n) < 0.1                  # in-budget regressions
    t[regress] -= rng.uniform(0.0, 0.9, regress.sum()) * JITTER_BUDGET
    x = rng.integers(0, shape[1], n)
    y = rng.integers(0, shape[0], n)
    old = t < 0.95                                 # out of sensor, out of window
    x[old & (rng.random(n) < 0.2)] = shape[1] + 3
    y[old & (rng.random(n) < 0.2)] = -1
    events = [Event(float(a), int(b), int(c), int(d)) for a, b, c, d in
              zip(t, x, y, rng.choice([-1, 1], n))]
    # equal timestamps at one pixel, both polarity orders
    at = [i for i, e in enumerate(events) if e.t > 0.97 and 0 <= e.x < shape[1]
          and 0 <= e.y < shape[0]][:40]
    for i in reversed(at):
        e = events[i]
        events.insert(i + 1, Event(e.t, e.x, e.y, -e.p))
    return events


@pytest.mark.parametrize("polarity", [None, 1, -1])
def test_surface_matches_reference_fold(polarity):
    shape = (16, 20)
    events = parity_stream(shape=shape)
    ts, pol = reference_fold(events, 0.99, 0.04, shape, polarity)
    assert np.isfinite(ts).sum() > 100
    for given in (events, EventArray.from_events(events)):
        surface = build_time_surface(given, 0.99, 0.04, shape, polarity=polarity)
        assert surface.timestamps.tobytes() == ts.tobytes()
        assert np.array_equal(surface.polarity, pol)


@pytest.mark.parametrize("order_first", [True, False])
def test_surface_raises_the_earlier_error(order_first):
    shape = (16, 20)
    events = [e for e in parity_stream(shape=shape) if e.t < 0.98]
    stray = Event(0.985, shape[1] + 1, 2, 1)        # in window, off sensor
    behind = Event(0.975, 1, 1, 1)                  # beyond the jitter budget
    bad = [behind, stray] if order_first else [stray, behind]
    events = events + bad + [Event(0.988, 1, 1, 1)]
    expected = EventOrderError if order_first else BoundsError
    with pytest.raises(expected):
        reference_fold(events, 0.99, 0.04, shape)
    with pytest.raises(expected):
        build_time_surface(events, 0.99, 0.04, shape)


def test_surface_budget_counts_from_the_latest_timestamp():
    # each step back is inside the budget, but the second is not when
    # measured from the latest timestamp so far
    b = JITTER_BUDGET
    events = [Event(0.99, 1, 1, 1), Event(0.99 - 0.9 * b, 2, 2, 1),
              Event(0.99 - 1.5 * b, 3, 3, 1)]
    for fold in (reference_fold, build_time_surface):
        with pytest.raises(EventOrderError):
            fold(events, 0.99, 0.04, (5, 5))
        fold(events[:2], 0.99, 0.04, (5, 5))
