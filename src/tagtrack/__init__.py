"""Joint particle-filter tracking and void-constrained trajectory planning for an
aerial observer localizing radio tags from received-signal-strength measurements."""

from .harness import (
    ConfigError,
    McSummary,
    MissionRecord,
    ScenarioConfig,
    VoidAuditError,
    bench_planners,
    run_mission,
    run_montecarlo,
)
from .planner import CandidateAction, PlannerKind, VoidConfig
from .rf import PropagationConfig
from .tracker import ObjectBelief, TrackerConfig
from .world import Area, TargetDynamics, UavKinematics, UavState

__version__ = "0.1.0"

__all__ = [
    "Area",
    "CandidateAction",
    "ConfigError",
    "McSummary",
    "MissionRecord",
    "ObjectBelief",
    "PlannerKind",
    "PropagationConfig",
    "ScenarioConfig",
    "TargetDynamics",
    "TrackerConfig",
    "UavKinematics",
    "UavState",
    "VoidAuditError",
    "VoidConfig",
    "bench_planners",
    "run_mission",
    "run_montecarlo",
    "__version__",
]
