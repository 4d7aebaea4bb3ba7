"""Why averaging normal flows is biased, on a four-edge toy problem.

A camera sees a single global flow u, but each edge only reports the
component of u along its own gradient direction.  Averaging those
projections under-shoots systematically; solving the constraint
n . u = |n|^2 in least squares recovers u exactly.
"""
import numpy as np

from evnormalflow import toy_registration
from evnormalflow.synthesis import UNOBSERVABLE_TOL

U_TRUE = np.array([1.732, -1.0])
ANGLES_DEG = [0.0, 45.0, 90.0, 135.0]


def main():
    print(f"true global flow      u = ({U_TRUE[0]:+.4f}, {U_TRUE[1]:+.4f})")
    print()
    rad = np.deg2rad(ANGLES_DEG)
    ghat = np.stack([np.cos(rad), np.sin(rad)], axis=1)
    # each edge sees only u's component along its gradient: n = (u . g) g
    dots = ghat @ U_TRUE
    flows = dots[:, None] * ghat
    for deg, n, dot in zip(ANGLES_DEG, flows, dots):
        print(f"  edge at {deg:5.1f} deg  ->  n = ({n[0]:+.4f}, {n[1]:+.4f})"
              f"  |n| = {np.linalg.norm(n):.4f}"
              f"  observable = {abs(dot) >= UNOBSERVABLE_TOL}")
    result = toy_registration(flows)
    print()
    print(f"constraint estimate     ({result.constraint[0]:+.4f}, "
          f"{result.constraint[1]:+.4f})   error "
          f"{np.linalg.norm(result.constraint - U_TRUE):.2e}")
    print(f"naive average           ({result.naive[0]:+.4f}, "
          f"{result.naive[1]:+.4f})   error "
          f"{np.linalg.norm(result.naive - U_TRUE):.2e}")
    print()
    print("the naive average keeps only ~half the flow magnitude; each")
    print("normal flow is a projection, so treating it as the full flow")
    print("shrinks every component the edges did not measure")


if __name__ == "__main__":
    main()
