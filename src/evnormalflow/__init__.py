"""Camera motion and scene structure from event-camera normal flow.

The normal-flow constraint  n . u(x) = |n|^2  ties each measured normal
flow vector to the instantaneous motion field

    u(x) = A(x) nu / Z + B(x) omega,

which is linear in every unknown it is solved for here: per-pixel full
flow and depth, angular velocity, joint translation + rotation, and the
differential homography of a planar scene.  The package covers the whole
pipeline: extracting normal flow from event time surfaces, solving the
five models (the three global ones robustly), decomposing homographies
into plane + motion, fitting continuous-time B-spline trajectories, and
generating synthetic data with exact ground truth.
"""
from .errors import (BadNumber, BoundsError, DegenerateDepth, EventOrderError,
                     EvnfError, InputError, NoConsensus, OutOfDomain,
                     ParseError, PureRotation, PureRotationDegenerate,
                     RankDeficient, RankOneDegenerate, SolverDegeneracy,
                     UnderDetermined)
from .events import EventArray, TimeSurface, build_time_surface, read_events
from .extraction import (ExtractionConfig, ExtractionStats,
                         extract_normal_flows, read_flows_csv, records_to_obs,
                         write_flows_csv)
from .geometry import (DiffHomography, Intrinsics, Observations, Velocity,
                       as_observations, calibrated_to_pixel, epipolar_terms,
                       matrix_a, matrix_b, matrix_c, matrix_d,
                       pixel_to_calibrated, skew, vee)
from .homography import (DecompositionResult, PlanarStructure, compose_hd,
                         decompose_hd, hd_from_plane, recover_true_hd)
from .solvers import (FitReport, ModelKind, RansacConfig, SolveInfo,
                      build_rows, ransac_estimate, solve_6dof,
                      solve_angular_velocity, solve_depth,
                      solve_diff_homography, solve_optical_flow,
                      stack_and_solve)
from .spline import (SplineFitProblem, SplineFitReport, SplineInitReport,
                     SplineTrajectory, basis_weights, evaluate, fit,
                     init_from_linear, trajectory_covering)
from .synthesis import (ConstantMotion, GroundTruth, MovingEdge, NoiseSpec,
                        PlaneScene, RandomPointsScene, SplineMotion,
                        StepMotion, SweepResult, ToyRegistrationResult,
                        TwoWallsScene, generate_dataset, run_noise_sweep,
                        surface_from_edges, toy_registration)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
