"""What the benchmark under perfbench/ uses of the package: every entry of
its call table resolves, and its traced oracle figures still compute, so
an API change cannot quietly break `perfbench/run.py --trace 1`."""
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import calls as perfbench_calls  # noqa: E402
import workloads  # noqa: E402

import evnormalflow as ev  # noqa: E402

K = ev.ModelKind
MOTION = ev.Velocity(nu=(0.2, -0.1, 0.3), omega=(0.1, -0.2, 0.15))
NOISE = ev.NoiseSpec(sigma_px=0.5, outlier_fraction=0.3)
PLANE = ev.PlaneScene(normal=(0.2, -0.1, 1.0), d=2.0)


def test_every_table_entry_resolves():
    plain = perfbench_calls.Calls()
    for name, (layer, fn, _, _) in perfbench_calls.TABLE.items():
        assert layer in perfbench_calls.LAYERS
        assert callable(fn) and getattr(plain, name) is fn
    for module, attr in perfbench_calls.INTERNAL:
        assert getattr(module, attr) is getattr(plain, attr)


def dataset(kind):
    scene = PLANE if kind is K.DIFF_HOMOGRAPHY else ev.RandomPointsScene()
    return ev.generate_dataset(scene, ev.ConstantMotion(MOTION), count=1500,
                               noise=NOISE, seed=5)


@pytest.mark.parametrize("kind", [K.SIX_DOF, K.DIFF_HOMOGRAPHY])
def test_row_list_builds_the_same_rows_as_the_mask(kind):
    obs, truth = dataset(kind)
    mask = truth.inlier_mask
    kw = {"depths": truth.z[mask]} if kind is K.SIX_DOF else {}
    a_list, b_list = ev.build_rows(list(obs[mask]), kind, **kw)
    a_mask, b_mask = ev.build_rows(obs[mask], kind, **kw)
    assert a_list.shape == (int(mask.sum()), kind.param_dim)
    assert np.array_equal(a_list, a_mask) and np.array_equal(b_list, b_mask)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("kind", [K.SIX_DOF, K.DIFF_HOMOGRAPHY])
def test_oracle_figures(kind, traced):
    tracer = perfbench_calls.Tracer() if traced else None
    calls = perfbench_calls.Calls(tracer)
    obs, truth = dataset(kind)
    if kind is K.SIX_DOF:
        kw = {"depths": truth.z}
        truth_theta = np.r_[MOTION.nu, MOTION.omega]
        err_of = lambda theta: workloads.rel_err(theta, truth_theta)  # noqa: E731
    else:
        kw = {}
        truth_h = truth.hd.h
        err_of = lambda theta: workloads._homography_err(theta, truth_h)  # noqa: E731
    with calls.active(0):
        report = calls.ransac_estimate(obs, kind, ev.RansacConfig(seed=5), **kw)
        figures = workloads._oracle_figures(calls, obs, truth.inlier_mask,
                                            report, err_of, **kw)
    assert set(figures) == {"inlier_recall", "inlier_precision", "err_vs_oracle"}
    assert 0 < figures["inlier_recall"] <= 1
    assert 0 < figures["inlier_precision"] <= 1
    assert np.isfinite(figures["err_vs_oracle"]) and figures["err_vs_oracle"] > 0
    if traced:
        names = [span[0] for span in tracer.spans]
        assert names == [f"solvers.ransac_estimate.{kind.value}",
                         "solvers.build_rows", "solvers.stack_and_solve"]
