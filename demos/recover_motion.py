"""Round trip every solver on one synthetic scene.

Generates a noise-free dataset with known camera velocity and depths, then
recovers per-pixel optical flow, per-pixel depth, angular velocity, the
full six-dof velocity, and the differential homography, printing each
estimate next to its ground truth.
"""
import argparse

import numpy as np

from evnormalflow import (ConstantMotion, ModelKind, PlaneScene, Velocity,
                          generate_dataset, ransac_estimate, recover_true_hd,
                          solve_depth, solve_diff_homography,
                          solve_optical_flow)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=800)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    v = Velocity(nu=(0.2, -0.1, 0.3), omega=(0.1, -0.2, 0.15))
    scene = PlaneScene(normal=(0.2, -0.1, 1.0), d=2.0)
    obs, truth = generate_dataset(scene, ConstantMotion(v), count=args.count,
                                  seed=args.seed)
    print(f"{args.count} observations on a tilted plane, seed {args.seed}")
    print(f"true nu    = {np.asarray(v.nu)}")
    print(f"true omega = {np.asarray(v.omega)}")
    print()

    u, valid = solve_optical_flow(obs, v)
    rel = (np.linalg.norm(u[valid] - truth.u[valid], axis=1)
           / np.linalg.norm(truth.u[valid], axis=1))
    print(f"optical flow   {valid.sum():4d} px solved, median rel err {np.median(rel):.2e}")

    z, valid = solve_depth(obs, v)
    rel = np.abs(z[valid] - truth.z[valid]) / truth.z[valid]
    print(f"depth          {valid.sum():4d} px solved, median rel err {np.median(rel):.2e}")

    fit = ransac_estimate(obs, ModelKind.SIX_DOF, depths=truth.z)
    est = fit.theta
    gt = np.concatenate([v.nu, v.omega])
    print(f"six-dof        theta = {np.array2string(est, precision=4)}")
    print(f"               rel err {np.linalg.norm(est - gt) / np.linalg.norm(gt):.2e},"
          f" {len(fit.inliers)} inliers, rms {fit.rms:.2e}")

    h_d, eps = recover_true_hd(solve_diff_homography(obs))
    gt_h = truth.hd.h
    print(f"homography     shift eps = {eps:+.4f}, rel err "
          f"{np.linalg.norm(h_d.h - gt_h) / np.linalg.norm(gt_h):.2e}")


if __name__ == "__main__":
    main()
