"""Exception hierarchy shared by all modules, and the rules for scalars.

Three families matter to callers (and to the CLI exit-code mapping):
input/configuration problems, solver degeneracies, and everything else.
Every scalar that a constructor, function or CLI flag takes passes one of
the rules at the end; no bool does, since True is no length, count or seed.
"""
from __future__ import annotations

import math
import numbers


class EvnfError(Exception):
    """Base class for all package errors."""


class InputError(EvnfError):
    """Invalid input data or configuration (CLI exit code 2)."""


class ParseError(InputError):
    """Malformed event stream line; carries the 1-based line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class BoundsError(InputError):
    """A pixel location off the sensor: an event's, or one converted to
    calibrated coordinates."""


class EventOrderError(InputError):
    """Event timestamps decrease by more than the jitter budget."""


class SolverDegeneracy(EvnfError):
    """Estimation impossible on this input (CLI exit code 3)."""


class DegenerateDepth(SolverDegeneracy):
    """Non-positive depth where positive depth is required."""


class PureRotation(SolverDegeneracy):
    """Translational velocity is zero so the epipolar row vanishes."""


class RankDeficient(SolverDegeneracy):
    """Stacked system rank below the model requirement."""


class NoConsensus(SolverDegeneracy):
    """RANSAC found no model supported by enough inliers."""


class UnderDetermined(SolverDegeneracy):
    """Fewer observations than the unknowns need: below a model's minimal
    sample, or below a spline's control-point unknowns."""


class PureRotationDegenerate(SolverDegeneracy):
    """Differential homography has no visible plane; only rotation is
    recoverable.  Carries the recovered angular velocity."""

    def __init__(self, message, omega=None):
        super().__init__(message)
        self.omega = omega


class RankOneDegenerate(SolverDegeneracy):
    """Translation parallel to the plane normal; the two decomposition
    candidates coincide."""


class OutOfDomain(SolverDegeneracy):
    """Query time outside the spline's evaluable domain."""


class BadNumber(ValueError):
    """A scalar that breaks its rule; `rule` is the rule in words."""

    def __init__(self, name, rule, value):
        super().__init__(f"{name} must be {rule}, got {value!r}")
        self.rule = rule


def _rule(convert, rule, ok):
    """check(name, value): convert(value) if ok accepts it, else BadNumber."""
    kind = numbers.Integral if convert is int else numbers.Real

    def check(name, value):
        if (isinstance(value, bool) or not isinstance(value, kind)
                or not ok(convert(value))):       # ok is False for NaN
            raise BadNumber(name, rule, value)
        return convert(value)
    return check


positive = _rule(float, "positive and finite", lambda v: 0 < v < math.inf)
positive_or_inf = _rule(float, "positive", lambda v: v > 0)   # inf: no limit
non_negative = _rule(float, "non-negative and finite", lambda v: 0 <= v < math.inf)
finite = _rule(float, "finite", math.isfinite)
uint64 = _rule(int, "an integer in [0, 2**64)", lambda v: 0 <= v < 1 << 64)
sign = _rule(int, "+1 or -1", lambda v: v in (1, -1))


def interval(name, value, low, high, closed=False):
    """A number in (low, high), or in [low, high) when closed."""
    bounds = ", ".join("pi" if b == math.pi else f"{b:g}" for b in (low, high))
    check = _rule(float, f"in {'[' if closed else '('}{bounds})",
                  lambda v: (low <= v if closed else low < v) and v < high)
    return check(name, value)


def integer(name, value, low, odd=False):
    """A Python or NumPy integer >= low, and odd when odd."""
    check = _rule(int, f"an {'odd ' if odd else ''}integer >= {low}",
                  lambda v: v >= low and (v % 2 == 1 or not odd))
    return check(name, value)
