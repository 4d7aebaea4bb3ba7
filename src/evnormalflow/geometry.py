"""Calibrated-camera geometry: observations, interaction matrices,
epipolar terms and the pixel <-> calibrated conversions.

All quantities live in calibrated (focal-length-normalized) coordinates.
A point x = (x, y) denotes the projection (X/Z, Y/Z); xhat = (x, y, 1).
The instantaneous motion field of a camera moving with linear velocity nu
and angular velocity omega over depth Z(x) is

    u(x) = A(x) nu / Z + B(x) omega,

and a normal flow vector n (the projection of u onto the local image
gradient direction) satisfies  n . u = |n|^2.  matrix_a/b/c/d write that
field, and its planar form C(x) vec(H), in the paper's notation: they are
the oracle that tests hold the runtime to, and no runtime code calls them.
The runtime evaluates the field in solvers._flow_model.  A caller gets a
flow as matrix_d(x, y, z) @ np.r_[nu, omega], or as
matrix_c(x, y) @ h.ravel() for a differential homography h.

Measurements travel as one columnar `Observations` (xy, n, t, mag2
arrays) from extraction or synthesis to every solver; one measurement is a
one-row Observations.  Every helper here maps (..., 2) arrays row by row.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (BoundsError, DegenerateDepth, integer, interval,
                     positive)

# Calibrated coordinates beyond this magnitude correspond to rays >71deg
# off-axis; no supported sensor reaches them and the interaction matrices
# grow quadratically, so reject instead of silently extrapolating.
FOV_LIMIT = 3.0


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics with sensor size in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        positive("fx", self.fx)
        positive("fy", self.fy)
        # the principal point lies on the sensor
        interval("cx", self.cx, 0, integer("width", self.width, 1), closed=True)
        interval("cy", self.cy, 0, integer("height", self.height, 1), closed=True)


@dataclass(frozen=True)
class Velocity:
    """Camera linear velocity nu (m/s) and angular velocity omega (rad/s)."""

    nu: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=float).reshape(3)
        omega = np.asarray(self.omega, dtype=float).reshape(3)
        if not (np.all(np.isfinite(nu)) and np.all(np.isfinite(omega))):
            raise ValueError("velocity components must be finite")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "omega", omega)


@dataclass(frozen=True)
class DiffHomography:
    """Differential homography H_d = -([omega]_x + nu N^T / d)."""

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float).reshape(3, 3)
        if not np.all(np.isfinite(h)):
            raise ValueError("homography entries must be finite")
        object.__setattr__(self, "h", h)


def squared_norms(v):
    """Row-wise v_i . v_i of a (K, 2) array, bit-identical to float(v_i @ v_i);
    np.sum(v * v, 1) differs in the last bit on about one row in six."""
    return (v[:, None, :] @ v[:, :, None])[:, 0, 0]


@dataclass(frozen=True, eq=False)
class Observations:
    """K normal flow measurements as columns: calibrated locations xy (K, 2),
    flows n (K, 2), timestamps t (K,) and mag2 = |n|^2 (K,), computed here.
    Pixel locations px (K, 2) and plane-fit inliers and rms (K,) are
    optional; only the flows CSV uses them.

    Construction checks that xy, n and t are finite and |x|,|y| <= FOV_LIMIT.
    A mask, index array, slice or integer gives an Observations (not checked
    again); an integer selects one row, and iteration yields one-row sets.
    """

    xy: np.ndarray
    n: np.ndarray
    t: np.ndarray
    mag2: np.ndarray = field(init=False, repr=False)
    px: np.ndarray | None = None
    inliers: np.ndarray | None = None
    rms: np.ndarray | None = None

    def __post_init__(self):
        k = np.size(self.t)
        for name, shape in (("xy", (-1, 2)), ("n", (-1, 2)), ("t", (-1,)),
                            ("px", (-1, 2)), ("inliers", (-1,)), ("rms", (-1,))):
            value = getattr(self, name)
            if value is None:
                continue
            value = np.asarray(value, dtype=None if name == "inliers" else float)
            value = value.reshape(shape)
            if len(value) != k:
                raise ValueError(f"{name} must have one row per observation")
            if name in ("xy", "n", "t") and not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if np.any(np.abs(self.xy) > FOV_LIMIT):
            raise ValueError(f"calibrated point outside |x|,|y| <= {FOV_LIMIT}")
        object.__setattr__(self, "mag2", squared_norms(self.n))

    def __len__(self):
        return len(self.t)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            i = range(len(self))[index]   # wraps negatives, checks bounds
            index = slice(i, i + 1)
        columns = {}
        for name in _COLUMNS:
            column = getattr(self, name)
            columns[name] = None if column is None else column[index]
        return _from_columns(columns)

    def __iter__(self):
        return (self[i:i + 1] for i in range(len(self)))


_COLUMNS = tuple(f.name for f in fields(Observations))


def _from_columns(columns):
    """An Observations of already checked columns, one per field."""
    obs = object.__new__(Observations)
    for name, column in columns.items():
        object.__setattr__(obs, name, column)
    return obs


def as_observations(observations):
    """An Observations unchanged, or the rows of a sequence of Observations
    concatenated once; an empty sequence gives an empty set."""
    if isinstance(observations, Observations):
        return observations
    parts = list(observations)
    if not all(isinstance(part, Observations) for part in parts):
        raise TypeError("expected an Observations or a sequence of them")
    if not parts:
        return Observations(xy=[], n=[], t=[])
    columns = {}
    for name in _COLUMNS:
        values = [getattr(part, name) for part in parts]
        columns[name] = (None if any(v is None for v in values)
                         else np.concatenate(values))
    return _from_columns(columns)


def skew(v):
    """3x3 cross-product matrix [v]_x with [v]_x b = v x b."""
    v = np.asarray(v, dtype=float).reshape(3)
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def vee(m):
    """Inverse of skew() applied to the antisymmetric part of m."""
    m = np.asarray(m, dtype=float)
    s = 0.5 * (m - m.T)
    return np.array([s[2, 1], s[0, 2], s[1, 0]])


def matrix_a(x, y):
    """Translational interaction matrix A(x), shape (..., 2, 3).

    A(x) = [[-1, 0, x], [0, -1, y]]
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    zero = np.zeros(np.broadcast(x, y).shape)
    one = np.ones_like(zero)
    row1 = np.stack([-one, zero, x + zero], axis=-1)
    row2 = np.stack([zero, -one, y + zero], axis=-1)
    return np.stack([row1, row2], axis=-2)


def matrix_b(x, y):
    """Rotational interaction matrix B(x), shape (..., 2, 3).

    B(x) = [[x y, -(1 + x^2), y], [1 + y^2, -x y, -x]]
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    row1 = np.stack([x * y, -(1.0 + x * x), y + 0.0 * x], axis=-1)
    row2 = np.stack([1.0 + y * y, -x * y, -x + 0.0 * y], axis=-1)
    return np.stack([row1, row2], axis=-2)


def matrix_c(x, y):
    """Homography interaction matrix C(x), shape (..., 2, 9), such that
    C(x) vec(H) equals the homography flow (I - xhat e3^T) H xhat for
    row-major vec(H)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    zero = np.zeros(np.broadcast(x, y).shape)
    one = np.ones_like(zero)
    x = x + zero
    y = y + zero
    row1 = np.stack([x, y, one, zero, zero, zero, -x * x, -x * y, -x], axis=-1)
    row2 = np.stack([zero, zero, zero, x, y, one, -x * y, -y * y, -y], axis=-1)
    return np.stack([row1, row2], axis=-2)


def matrix_d(x, y, z):
    """Six-dof interaction matrix D(x) = [A(x)/Z | B(x)], shape (..., 2, 6).

    Depth must be strictly positive.
    """
    z = np.asarray(z, dtype=float)
    if np.any(~(z > 0)):
        raise DegenerateDepth("depth must be positive to form D(x)")
    a = matrix_a(x, y) / z[..., None, None]
    b = matrix_b(x, y)
    return np.concatenate([a, b], axis=-1)


def epipolar_terms(v):
    """Return ([nu]_x, s) for the differential epipolar constraint

        uhat^T [nu]_x xhat - xhat^T s xhat = 0,
        s = 1/2 ([nu]_x [omega]_x + [omega]_x [nu]_x).

    s is symmetric by construction.
    """
    nu_cross = skew(v.nu)
    omega_cross = skew(v.omega)
    s = 0.5 * (nu_cross @ omega_cross + omega_cross @ nu_cross)
    return nu_cross, s


def pixel_to_calibrated(px, intr, gradient_px=None):
    """Calibrated locations of pixel locations px (..., 2), and optionally
    of time-surface gradients in s/px at them.

    Points map contravariantly, (px - c) / f; gradients of a scalar field
    map covariantly, (fx gx, fy gy), so that gradient-derived flows stay
    consistent with the calibrated motion field.  Raises BoundsError naming
    the first pixel off the sensor.
    """
    px = np.asarray(px, dtype=float)
    inside = np.all((px >= 0) & (px < np.array([intr.width, intr.height])),
                    axis=-1)
    if not inside.all():
        bad = tuple(px.reshape(-1, 2)[np.argmin(inside.reshape(-1))].tolist())
        raise BoundsError(f"pixel {bad} outside {intr.width}x{intr.height}")
    xy = (px - np.array([intr.cx, intr.cy])) / np.array([intr.fx, intr.fy])
    if gradient_px is None:
        return xy
    return xy, np.asarray(gradient_px, dtype=float) * np.array([intr.fx, intr.fy])


def calibrated_to_pixel(xy, intr):
    """Inverse of pixel_to_calibrated for locations xy (..., 2)."""
    xy = np.asarray(xy, dtype=float)
    return xy * np.array([intr.fx, intr.fy]) + np.array([intr.cx, intr.cy])
