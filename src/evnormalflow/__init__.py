"""Camera motion and scene structure from event-camera normal flow.

The normal-flow constraint  n . u(x) = |n|^2  ties each measured normal
flow vector to the instantaneous motion field

    u(x) = A(x) nu / Z + B(x) omega,

which is linear in every unknown it is solved for here: per-pixel full
flow and depth, angular velocity, joint translation + rotation, and the
differential homography of a planar scene.  The package covers the whole
pipeline: extracting normal flow from event time surfaces, robustly
fitting the five models, decomposing homographies into plane + motion,
fitting continuous-time B-spline trajectories, and generating synthetic
data with exact ground truth.
"""
from .errors import (BelowMinGradient, BoundsError, DegenerateConfiguration,
                     DegenerateDepth, EventOrderError, EvnfError, InputError,
                     InsufficientSupport, NoConsensus, OutOfBounds,
                     OutOfDomain, ParseError, PureRotation,
                     PureRotationDegenerate, PureTranslationZeroNumerator,
                     RankDeficient, RankOneDegenerate, RotationExplainsFlow,
                     SingularSystem, SolverDegeneracy, TooFewObservations,
                     UnderDetermined)
from .events import (Event, EventArray, TimeSurface, build_time_surface,
                     parse_event_stream, read_events)
from .extraction import (ExtractionConfig, ExtractionStats, FlowRecord,
                         PlaneFit, extract_normal_flows, fit_local_plane,
                         normal_flow_from_gradient, read_flows_csv,
                         records_to_obs, write_flows_csv)
from .geometry import (CalibratedPoint, DiffHomography, Intrinsics,
                       NormalFlowObs, Velocity, calibrated_to_pixel,
                       epipolar_terms, homography_flow, matrix_a, matrix_b,
                       matrix_c, matrix_d, motion_field, nf_residual,
                       obs_arrays, pixel_to_calibrated, skew, vee)
from .homography import (DecompositionResult, PlanarStructure, compose_hd,
                         decompose_hd, hd_from_plane, recover_true_hd)
from .solvers import (FitReport, ModelKind, RansacConfig, SolveInfo,
                      build_rows, ransac_estimate, solve_6dof,
                      solve_angular_velocity, solve_depth, solve_depth_batch,
                      solve_diff_homography, solve_optical_flow,
                      solve_optical_flow_batch, stack_and_solve)
from .spline import (SplineFitProblem, SplineFitReport, SplineInitReport,
                     SplineTrajectory, basis_weights, evaluate, fit,
                     init_from_linear, trajectory_covering)
from .synthesis import (ConstantMotion, GroundTruth, MovingEdge, NoiseSpec,
                        PlaneScene, RandomPointsScene, SplineMotion,
                        StepMotion, SweepResult, ToyRegistrationResult,
                        TwoWallsScene, generate_dataset, ground_truth_flow,
                        run_noise_sweep, sample_normal_flow,
                        surface_from_edges, synthesize_time_surface,
                        toy_registration)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
