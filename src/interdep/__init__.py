"""Simulate two-cook kitchen episodes and audit their cooperation.

The package couples a deterministic turn-taking gridworld with a symbolic
analyzer: every executed step becomes a planning-style action over grounded
propositions, actions are classified as independent or coordination
(trigger/accept roles), and giver-receiver pairs are extracted wherever one
cook's effect became the other's precondition. Reports aggregate the
resulting team metrics across seeded episodes.

Importing the package loads none of its modules. The first use of an
exported name, or of a submodule name such as ``interdep.trace_io``, imports
the module it lives in and keeps the value here, so a caller that only loads
a layout never imports the policies, the reports or the trace I/O.
"""

from importlib import import_module, resources

__version__ = "0.1.0"

# Each exported name, listed once under the module it lives in.
_EXPORTS = {
    "errors": (
        "ChecksumMismatch",
        "ConfigMismatch",
        "EmptyTrace",
        "InterdepError",
        "IoFailure",
        "MalformedGrid",
        "MalformedJointAction",
        "MissingStation",
        "ReplayMismatch",
        "SchemaViolation",
        "SpawnCountError",
        "Unreachable",
        "VersionUnsupported",
    ),
    "gridworld": (
        "EpisodeConfig",
        "Layout",
        "PlayerState",
        "PotState",
        "PrimitiveAction",
        "WorldState",
        "initial_state",
        "is_terminal",
        "load_layout",
        "single_action",
        "step",
    ),
    "grounding": ("Proposition",),
    "interdependence": (
        "ActionClassification",
        "InteractionSchema",
        "InterdependencyLedger",
        "InterdependentPair",
        "analyze_trace",
        "build_interaction_schema",
        "classify_action",
        "match",
        "replay",
    ),
    "metrics": (
        "AggregateSummary",
        "AgentReport",
        "TeamReport",
        "action_distribution_rings",
        "aggregate",
        "build_report",
        "contribution_ratio",
    ),
    "policies": (
        "PolicySpec",
        "format_policy_spec",
        "make_policy",
        "parse_policy_spec",
        "run_episode",
    ),
    "trace_io": ("ReplayableTrace", "read_trace", "write_report", "write_trace"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli"})


def bundled_layout_text(name: str = "counter_circuit") -> str:
    """Text of a layout shipped with the package."""
    return (
        resources.files("interdep.layouts")
        .joinpath(f"{name}.layout")
        .read_text(encoding="utf-8")
    )


__all__ = sorted([*_HOME, "bundled_layout_text"])


def __getattr__(name: str):
    """Import the module behind `name` on its first use (PEP 562)."""
    if name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_SUBMODULES})
