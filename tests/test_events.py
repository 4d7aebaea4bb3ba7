"""Event parsing and time-surface construction."""
import gzip
import warnings

import numpy as np
import pytest

from evnormalflow import (BoundsError, EventArray, EventOrderError,
                          ParseError, build_time_surface, read_events)
from evnormalflow.events import JITTER_BUDGET, UNFIRED


def columns(events):
    """The four columns of an EventArray as lists."""
    return (events.t.tolist(), events.x.tolist(), events.y.tolist(),
            events.p.tolist())


def concat(*parts):
    return EventArray(*(np.concatenate([getattr(e, name) for e in parts])
                        for name in ("t", "x", "y", "p")))


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


def test_parse_single_line(event_file):
    events = read_events(event_file("0.001 120 84 1\n"))
    assert columns(events) == ([0.001], [120], [84], [1])


def test_parse_polarity_mapping(event_file):
    events = read_events(event_file("0.1 0 0 0\n0.2 0 0 1\n0.3 0 0 -1\n"))
    assert events.p.tolist() == [-1, 1, -1]


def test_parse_missing_field(event_file):
    with pytest.raises(ParseError) as err:
        read_events(event_file("0.001 120 84\n"))
    assert "4 fields" in str(err.value)
    assert err.value.line_no == 1


def test_parse_error_reports_line_number(event_file):
    with pytest.raises(ParseError) as err:
        read_events(event_file("0.1 1 1 1\n# comment\n\ngarbage here x y\n"))
    assert err.value.line_no == 4


def test_parse_empty_input(event_file):
    assert len(read_events(event_file(""))) == 0
    assert len(read_events(event_file("# only a comment\n   \n"))) == 0


def test_parse_bounds_check(event_file):
    with pytest.raises(BoundsError):
        read_events(event_file("0.1 240 0 1\n"), width=240, height=180)
    with pytest.raises(BoundsError):
        read_events(event_file("0.1 0 -1 1\n"), width=240, height=180)


def test_parse_bad_polarity_token(event_file):
    with pytest.raises(ParseError):
        read_events(event_file("0.1 0 0 7\n"))


def test_parse_number_only_python_reads(event_file):
    # np.loadtxt refuses "1_000", which int() accepts, so the line-by-line
    # re-read finds no bad line to name
    with pytest.raises(ParseError, match="unparseable event stream"):
        read_events(event_file("0.1 1_000 1 1\n"))


def test_read_events_without_trailing_newline(event_file):
    events = read_events(event_file("0.1 1 2 1\n0.2 3 4 0"))
    assert columns(events) == ([0.1, 0.2], [1, 3], [2, 4], [1, -1])


@pytest.mark.parametrize("last, error, match", [
    ("9.9999 5 5 2", ParseError, "line 10000: polarity token"),
    ("9.9999 240 5 1", BoundsError, "line 10000: x=240 outside"),
    ("9.9999 5 180 1", BoundsError, "line 10000: y=180 outside")])
def test_read_events_names_a_fault_on_the_last_of_many_lines(
        event_file, last, error, match):
    lines = [f"{i * 1e-3:.4f} {i % 240} {i % 180} {i % 2}" for i in range(9999)]
    path = event_file("\n".join(lines + [last]) + "\n")
    with pytest.raises(error, match=match):
        read_events(path, width=240, height=180)


def test_read_events_columns_and_indexing(event_file):
    events = read_events(event_file("0.5 3 4 1\n0.6 5 6 0\n0.7 7 8 -1\n"))
    assert isinstance(events, EventArray) and len(events) == 3
    assert events.t.dtype == np.float64 and events.p.dtype == np.int8
    assert events.x.tolist() == [3, 5, 7] and events.p.tolist() == [1, -1, -1]
    assert columns(events) == ([0.5, 0.6, 0.7], [3, 5, 7], [4, 6, 8],
                               [1, -1, -1])


def test_event_array_indexes_columns_not_rows():
    events = EventArray([0.5, 0.6, 0.7], [3, 5, 7], [4, 6, 8], [1, -1, -1])
    last = events[-1]
    assert last.t == events.t[-1] == 0.7 and isinstance(last.t, np.float64)
    assert (last.x, last.y, last.p) == (7, 8, -1)
    assert isinstance(last.p, np.int8)
    head = events[:2]
    assert isinstance(head, EventArray)
    assert columns(head) == ([0.5, 0.6], [3, 5], [4, 6], [1, -1])
    neg = events[events.p < 0]
    assert isinstance(neg, EventArray)
    assert columns(neg) == ([0.6, 0.7], [5, 7], [6, 8], [-1, -1])
    with pytest.raises(TypeError):
        iter(events)


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
        # no rows to reduce: the bounds have nothing to check
        bounded = read_events(path, width=240, height=180)
    assert len(events) == 0 and not events
    assert len(bounded) == 0 and bounded.p.dtype == np.int8


def test_read_events_trailing_comment_accepted(event_file):
    # '#' starts a comment anywhere on a line, also after the four fields
    events = read_events(event_file("0.1 1 2 1  # first\n0.2 3 4 0#second\n"))
    assert columns(events) == ([0.1, 0.2], [1, 3], [2, 4], [1, -1])


def test_surface_single_event():
    surface = build_time_surface(EventArray([1.0], [5], [5], [1]), t_ref=1.0,
                                 temporal_window=0.04, shape=(10, 10))
    assert surface.timestamps[5, 5] == 1.0
    mask = surface.fired_mask()
    assert mask.sum() == 1
    assert surface.timestamps[0, 0] == UNFIRED


def test_surface_overwrite_same_pixel():
    events = EventArray([0.99, 1.0], [5, 5], [5, 5], [1, -1])
    surface = build_time_surface(events, 1.0, 0.04, (10, 10))
    assert surface.timestamps[5, 5] == 1.0


def test_surface_window_excludes_old_events():
    surface = build_time_surface(EventArray([0.95], [5], [5], [1]), 1.0, 0.04,
                                 (10, 10))
    assert not surface.fired_mask().any()


def test_surface_polarity_filter():
    events = EventArray([0.99, 0.995], [1, 2], [1, 2], [1, -1])
    pos = build_time_surface(events, 1.0, 0.04, (5, 5), polarity=1)
    neg = build_time_surface(events, 1.0, 0.04, (5, 5), polarity=-1)
    assert pos.fired_mask().sum() == 1 and pos.timestamps[1, 1] == 0.99
    assert neg.fired_mask().sum() == 1 and neg.timestamps[2, 2] == 0.995
    # a NumPy integer selects as the Python one does
    assert np.array_equal(build_time_surface(events, 1.0, 0.04, (5, 5),
                                             polarity=np.int64(-1)).timestamps,
                          neg.timestamps)


@pytest.mark.parametrize("polarity", [0, 2, -2, True, False, "pos", 1.0])
def test_surface_refuses_bad_polarity(polarity):
    # only None, +1 and -1 select events; anything else would fold nothing,
    # or, as True, pass for +1
    events = EventArray([0.99, 0.995], [1, 2], [1, 2], [1, -1])
    with pytest.raises(ValueError, match=f"polarity .*got {polarity!r}"):
        build_time_surface(events, 1.0, 0.04, (5, 5), polarity=polarity)


def test_surface_jitter_tolerated_and_order_independent():
    # a regression inside the budget is accepted and applied max-wise
    events = EventArray([1.0, 1.0 - 0.5 * JITTER_BUDGET], [5, 5], [5, 5],
                        [1, -1])
    surface = build_time_surface(events, 1.0, 0.04, (10, 10))
    assert surface.timestamps[5, 5] == 1.0


def test_surface_jitter_budget_enforced():
    events = EventArray([1.0, 0.9], [5, 6], [5, 6], [1, 1])
    with pytest.raises(EventOrderError):
        build_time_surface(events, 1.0, 0.04, (10, 10))


def test_surface_rejects_out_of_bounds_event():
    with pytest.raises(BoundsError):
        build_time_surface(EventArray([1.0], [12], [0], [1]), 1.0, 0.04,
                           (10, 10))


def test_surface_idempotent_rebuild():
    rng = np.random.default_rng(11)
    events = EventArray(np.sort(rng.uniform(0.9, 1.0, 200)),
                        rng.integers(0, 20, 200), rng.integers(0, 20, 200),
                        rng.choice([-1, 1], 200))
    a = build_time_surface(events, 1.0, 0.1, (20, 20))
    b = build_time_surface(events, 1.0, 0.1, (20, 20))
    assert np.array_equal(a.timestamps, b.timestamps)


def test_surface_append_monotone():
    rng = np.random.default_rng(12)
    events = EventArray(np.sort(rng.uniform(0.9, 0.99, 100)),
                        rng.integers(0, 20, 100), rng.integers(0, 20, 100),
                        np.ones(100))
    base = build_time_surface(events, 1.0, 0.1, (20, 20))
    extended = build_time_surface(
        concat(events, EventArray([0.995], [3], [3], [1])), 1.0, 0.1, (20, 20))
    assert np.all(extended.timestamps >= base.timestamps)


def test_surface_timestamps_bounded_by_t_ref():
    events = EventArray([0.99, 1.0, 1.01], [1, 2, 3], [1, 2, 3], [1, 1, 1])
    surface = build_time_surface(events, 1.0, 0.04, (5, 5))
    fired = surface.timestamps[surface.fired_mask()]
    assert np.all(fired <= surface.t_ref)
    assert not np.isfinite(surface.timestamps[3, 3])  # future event skipped


def test_surface_requires_positive_window():
    for window in (0.0, -0.04, float("nan")):
        with pytest.raises(ValueError, match="temporal_window must be positive"):
            build_time_surface(EventArray([], [], [], []), 1.0, window, (5, 5))


@pytest.mark.parametrize("t_ref", [float("nan"), float("inf"), -float("inf"),
                                   np.float64("nan")])
def test_surface_requires_finite_t_ref(t_ref):
    with pytest.raises(ValueError, match="t_ref must be finite"):
        build_time_surface(EventArray([0.99], [1], [1], [1]), t_ref, 0.04,
                           (5, 5))


def reference_fold(events, t_ref, window, shape, polarity=None):
    """The per-event time-surface fold over the columns, as an oracle."""
    ts = np.full(shape, UNFIRED)
    t_prev = -np.inf
    for t, x, y, p in zip(*columns(events)):
        if t < t_prev - JITTER_BUDGET:
            raise EventOrderError(f"regression at {t}")
        t_prev = max(t_prev, t)
        if (polarity is not None and p != polarity
                or not t_ref - window < t <= t_ref):
            continue
        if not (0 <= x < shape[1] and 0 <= y < shape[0]):
            raise BoundsError(f"pixel ({x}, {y})")
        ts[y, x] = max(ts[y, x], t)
    return ts


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
    p = rng.choice([-1, 1], n)
    # equal timestamps at one pixel, both polarity orders
    at = np.flatnonzero((t > 0.97) & (x >= 0) & (x < shape[1])
                        & (y >= 0) & (y < shape[0]))[:40] + 1
    return EventArray(np.insert(t, at, t[at - 1]), np.insert(x, at, x[at - 1]),
                      np.insert(y, at, y[at - 1]), np.insert(p, at, -p[at - 1]))


@pytest.mark.parametrize("polarity", [None, 1, -1])
def test_surface_matches_reference_fold(polarity):
    shape = (16, 20)
    events = parity_stream(shape=shape)
    ts = reference_fold(events, 0.99, 0.04, shape, polarity)
    assert np.isfinite(ts).sum() > 100
    surface = build_time_surface(events, 0.99, 0.04, shape, polarity=polarity)
    assert surface.timestamps.tobytes() == ts.tobytes()


def test_surface_keeps_the_latest_time_over_a_later_regressed_event():
    # The last event at (1, 1) regresses inside the budget: the surface
    # keeps the earlier, larger timestamp, not the one that came last.
    b = JITTER_BUDGET
    events = EventArray([0.97, 0.975, 0.98, 0.98 - 0.5 * b],
                        [1, 2, 1, 1], [1, 3, 1, 1], [1, -1, 1, 1])
    ts = reference_fold(events, 0.99, 0.04, (5, 5))
    assert ts[1, 1] == 0.98 and ts[3, 2] == 0.975
    surface = build_time_surface(events, 0.99, 0.04, (5, 5))
    assert surface.timestamps.tobytes() == ts.tobytes()


@pytest.mark.parametrize("order_first", [True, False])
def test_surface_raises_the_earlier_error(order_first):
    shape = (16, 20)
    events = parity_stream(shape=shape)
    events = events[events.t < 0.98]
    stray = EventArray([0.985], [shape[1] + 1], [2], [1])  # in window, off sensor
    behind = EventArray([0.975], [1], [1], [1])  # beyond the jitter budget
    bad = [behind, stray] if order_first else [stray, behind]
    events = concat(events, *bad, EventArray([0.988], [1], [1], [1]))
    expected = EventOrderError if order_first else BoundsError
    with pytest.raises(expected):
        reference_fold(events, 0.99, 0.04, shape)
    with pytest.raises(expected):
        build_time_surface(events, 0.99, 0.04, shape)


def test_surface_budget_counts_from_the_latest_timestamp():
    # each step back is inside the budget, but the second is not when
    # measured from the latest timestamp so far
    b = JITTER_BUDGET
    events = EventArray([0.99, 0.99 - 0.9 * b, 0.99 - 1.5 * b], [1, 2, 3],
                        [1, 2, 3], [1, 1, 1])
    for fold in (reference_fold, build_time_surface):
        with pytest.raises(EventOrderError):
            fold(events, 0.99, 0.04, (5, 5))
        fold(events[:2], 0.99, 0.04, (5, 5))
