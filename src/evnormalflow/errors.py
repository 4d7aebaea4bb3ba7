"""Exception hierarchy shared by all modules.

Three families matter to callers (and to the CLI exit-code mapping):
input/configuration problems, solver degeneracies, and everything else.
"""
from __future__ import annotations


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
    """Event pixel coordinate outside the sensor array."""


class OutOfBounds(InputError):
    """Pixel location outside the sensor during coordinate conversion."""


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


class TooFewObservations(SolverDegeneracy):
    """Fewer observations than the minimal sample size."""


class NoConsensus(SolverDegeneracy):
    """RANSAC found no model supported by enough inliers."""


class UnderDetermined(SolverDegeneracy):
    """Fewer observations than unknowns in a batch fit."""


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
