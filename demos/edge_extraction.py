"""Extract normal flow from an analytic time surface of moving edges.

Two perpendicular edges translate across the sensor; every crossed pixel
stores its crossing time.  Local plane fits on that surface give the
time-surface gradient, whose direction is the edge normal and whose
inverse magnitude is the edge speed.
"""
import numpy as np

from evnormalflow import Intrinsics, MovingEdge, extract_normal_flows, surface_from_edges
from evnormalflow.extraction import ExtractionConfig

INTR = Intrinsics(fx=200.0, fy=200.0, cx=60.0, cy=40.0, width=120, height=80)


def main():
    edges = [
        MovingEdge(point=(10.0, 0.0), direction=(0.0, 1.0), velocity=(150.0, 0.0)),
        MovingEdge(point=(0.0, 5.0), direction=(1.0, 0.0), velocity=(0.0, 80.0)),
    ]
    surface = surface_from_edges(edges, shape=(INTR.height, INTR.width),
                                 window=0.5)
    fired = np.isfinite(surface.timestamps).sum()
    print(f"surface: {fired} of {surface.timestamps.size} pixels crossed")

    obs, stats = extract_normal_flows(surface, INTR, ExtractionConfig())
    print(f"extraction: {stats.emitted} flows from {stats.candidates} "
          f"candidate pixels ({stats.insufficient_support} low support, "
          f"{stats.degenerate_configuration} degenerate, "
          f"{stats.below_min_gradient} flat)")

    nx, ny = obs.n[:, 0], obs.n[:, 1]
    speeds = np.hypot(nx * INTR.fx, ny * INTR.fy)
    horizontal = np.abs(nx) > np.abs(ny)
    print()
    for name, mask, expected in (("rightward edge", horizontal, 150.0),
                                 ("downward edge", ~horizontal, 80.0)):
        if mask.any():
            got = np.median(speeds[mask])
            print(f"  {name:15s} {mask.sum():5d} flows, median speed "
                  f"{got:7.2f} px/s (expected {expected:.0f})")


if __name__ == "__main__":
    main()
