"""Friction-estimate fusion engine with a critical-scenario simulator.

Merges high-accuracy/low-availability local friction estimates with
low-accuracy/high-availability camera-class predictions through
heteroscedastic Gaussian process regression, and replays the resulting
conservative estimates through a friction-circle planner in two critical
driving scenarios.
"""

from .estimators import (
    Configuration,
    FrictionProfile,
    LocalEstimator,
    SurfaceClass,
    classify,
    local_estimate,
    resolve_error,
)
from .fusion import (
    EstimateSeries,
    FusedEstimate,
    SGrid,
    assemble_input,
    calibrate_prior,
    fuse,
    margin_to_std,
)
from .gp import (
    FactorizationError,
    GpPrior,
    ObservationSet,
    PosteriorSummary,
    SquaredExponentialKernel,
    gram_matrix,
    posterior,
)
from .planner import GRAVITY, PlannedTrajectory, plan
from .simulator import (
    Scenario,
    ScenarioResult,
    VehicleState,
    collision_scenario,
    run,
    step,
    turn_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "Configuration",
    "EstimateSeries",
    "FactorizationError",
    "FrictionProfile",
    "FusedEstimate",
    "GpPrior",
    "GRAVITY",
    "LocalEstimator",
    "ObservationSet",
    "PlannedTrajectory",
    "PosteriorSummary",
    "Scenario",
    "ScenarioResult",
    "SGrid",
    "SquaredExponentialKernel",
    "SurfaceClass",
    "VehicleState",
    "assemble_input",
    "calibrate_prior",
    "classify",
    "collision_scenario",
    "fuse",
    "gram_matrix",
    "local_estimate",
    "margin_to_std",
    "plan",
    "posterior",
    "resolve_error",
    "run",
    "step",
    "turn_scenario",
]
