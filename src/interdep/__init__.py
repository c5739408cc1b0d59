"""Simulate two-cook kitchen episodes and audit their cooperation.

The package couples a deterministic turn-taking gridworld with a symbolic
analyzer: every executed step becomes a planning-style action over grounded
propositions, actions are classified as independent or coordination
(trigger/accept roles), and giver-receiver pairs are extracted wherever one
cook's effect became the other's precondition. Reports aggregate the
resulting team metrics across seeded episodes.
"""

from importlib import resources

from .errors import (
    ChecksumMismatch,
    ConfigMismatch,
    EmptyTrace,
    InterdepError,
    IoFailure,
    MalformedGrid,
    MalformedJointAction,
    MissingStation,
    ReplayMismatch,
    SchemaViolation,
    SpawnCountError,
    Unreachable,
    VersionUnsupported,
)
from .gridworld import (
    EpisodeConfig,
    JointAction,
    Layout,
    PlayerState,
    PotState,
    PrimitiveAction,
    WorldState,
    initial_state,
    is_terminal,
    load_layout,
    single_action,
    step,
)
from .grounding import (
    Proposition,
    SymbolicAction,
    ground_state,
)
from .interdependence import (
    ActionClassification,
    InteractionSchema,
    InterdependencyLedger,
    InterdependentPair,
    SelfAcceptance,
    analyze_trace,
    build_interaction_schema,
    classify_action,
    match,
    replay,
)
from .metrics import (
    AggregateSummary,
    AgentReport,
    TeamReport,
    action_distribution_rings,
    aggregate,
    build_report,
    contribution_ratio,
)
from .policies import (
    PolicySpec,
    format_policy_spec,
    make_policy,
    parse_policy_spec,
    run_episode,
)
from .trace_io import ReplayableTrace, read_trace, write_report, write_trace

__version__ = "0.1.0"


def bundled_layout_text(name: str = "counter_circuit") -> str:
    """Text of a layout shipped with the package."""
    return (
        resources.files("interdep.layouts")
        .joinpath(f"{name}.layout")
        .read_text(encoding="utf-8")
    )


__all__ = [
    "ActionClassification",
    "AgentReport",
    "AggregateSummary",
    "ChecksumMismatch",
    "ConfigMismatch",
    "EmptyTrace",
    "EpisodeConfig",
    "InteractionSchema",
    "InterdepError",
    "InterdependencyLedger",
    "InterdependentPair",
    "IoFailure",
    "JointAction",
    "Layout",
    "MalformedGrid",
    "MalformedJointAction",
    "MissingStation",
    "PlayerState",
    "PolicySpec",
    "PotState",
    "PrimitiveAction",
    "Proposition",
    "ReplayMismatch",
    "ReplayableTrace",
    "SchemaViolation",
    "SelfAcceptance",
    "SpawnCountError",
    "SymbolicAction",
    "TeamReport",
    "Unreachable",
    "VersionUnsupported",
    "WorldState",
    "action_distribution_rings",
    "aggregate",
    "analyze_trace",
    "build_interaction_schema",
    "build_report",
    "bundled_layout_text",
    "classify_action",
    "contribution_ratio",
    "format_policy_spec",
    "ground_state",
    "initial_state",
    "is_terminal",
    "load_layout",
    "make_policy",
    "match",
    "parse_policy_spec",
    "read_trace",
    "replay",
    "run_episode",
    "single_action",
    "step",
    "write_report",
    "write_trace",
]
