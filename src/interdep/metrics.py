"""Team-level and per-agent cooperation metrics from an analysis ledger.

All rates are fractions in [0, 1]; ratios that would divide by zero are
surfaced as None (undefined) with the raw counts kept alongside, never as
a 0 or infinity stand-in. The interdependence share counts pair
participations (giver side plus receiver side) over a configurable action
denominator.
"""

from __future__ import annotations

import statistics
import sys
from dataclasses import dataclass, fields
from functools import cache
from typing import TYPE_CHECKING, Optional, get_args, get_type_hints

from .errors import ConfigMismatch, EmptyTrace
from .gridworld import (
    ALL_SUBTASKS,
    INTERACT_SUBTASKS,
    MOVE,
    MOVE_DIRECTION,
    NOOP,
    EpisodeConfig,
)

if TYPE_CHECKING:  # pragma: no cover
    from .interdependence import InterdependencyLedger

DENOMINATOR_MODES = ("subtask-actions", "all-actions")
_SCALARS = (int, float, str, type(None))
_FRACTIONS = ("trigger_share_of_coordination", "trigger_acceptance_rate")


def _plain(value):
    """JSON-ready field value: tuples as lists, dicts key-sorted, records nested."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in sorted(value.items())}
    return value.to_dict()


class _Serializable:
    """`to_dict` over the dataclass fields, shared by the report types.

    It reads the class's field table; `fields()` builds a tuple per call.
    """

    def to_dict(self) -> dict:
        return {n: _plain(getattr(self, n)) for n in self.__dataclass_fields__}


def _from_fields(cls, d: dict, **converted):
    """Rebuild a record from its `to_dict` form; `converted` replaces fields."""
    return cls(**{f.name: d[f.name] for f in fields(cls)} | converted)


@cache
def _field_types(cls) -> tuple:
    """(field name, allowed exact types) per field of `cls`, resolved once."""
    return tuple(
        (name, get_args(hint) or (hint,)) for name, hint in get_type_hints(cls).items()
    )


def _check_types(record) -> None:
    """ValueError unless each field has exactly its declared type and range.

    Exact, because `aggregate` would average a bool or a numeric string as
    a number: counts must be ints and rates floats (or None if undefined),
    finite, not negative, and the trigger rates at most 1; a tally dict must
    map names to int counts >= 0. The share and the contribution ratio have
    no cap: a counter handoff's place and pickup can each give and receive.
    """
    for name, allowed in _field_types(type(record)):
        value = getattr(record, name)
        if type(value) not in allowed:
            expected = " or ".join(t.__name__ for t in allowed)
            raise ValueError(f"{name} must be {expected}, got {value!r}")
        top = 1 if name in _FRACTIONS else sys.float_info.max
        if type(value) in (int, float) and not 0 <= value <= top:
            raise ValueError(f"{name} must be a number from 0 to {top:g}, got {value!r}")
        tally = value.items() if type(value) is dict else ()
        if any(type(k) is not str or type(v) is not int or v < 0 for k, v in tally):
            raise ValueError(f"{name} must map names to counts >= 0, got {value!r}")


@dataclass(frozen=True)
class AgentReport(_Serializable):
    """One cook's tallies and rates for a single episode."""

    agent: int
    total_actions: int
    subtask_actions: int
    independent: int
    coordination: int
    triggers: int
    accepts: int
    trigger_accept_overlap: int
    giver_count: int
    receiver_count: int
    contribution_ratio: Optional[float]
    trigger_share_of_coordination: Optional[float]
    trigger_acceptance_rate: Optional[float]
    self_accept_count: int
    unaccepted_triggers: int
    event_distribution: dict

    @classmethod
    def from_dict(cls, d: dict) -> "AgentReport":
        return _from_fields(cls, d)


@dataclass(frozen=True)
class TeamReport(_Serializable):
    """Per-episode cooperation report for the two-cook team."""

    label: str
    episode_time: int
    timed_out: bool
    soups_delivered: int
    percent_interdependent: float
    denominator_mode: str
    denominator: int
    pair_count: int
    pairs_by_predicate: dict
    include_counter_empty: bool
    config: EpisodeConfig
    agents: tuple

    def agent(self, agent_id: int) -> AgentReport:
        return self.agents[agent_id - 1]

    @classmethod
    def from_dict(cls, d: dict) -> "TeamReport":
        """Rebuild a report, rejecting what `aggregate` would misread.

        The agents must be agent 1 then agent 2, and every field must have
        its declared type (`_check_types`); ValueError otherwise.
        """
        report = _from_fields(
            cls,
            d,
            config=EpisodeConfig.from_dict(d["config"]),
            agents=tuple(AgentReport.from_dict(a) for a in d["agents"]),
        )
        for record in (report, *report.agents):
            _check_types(record)
        ids = [a.agent for a in report.agents]
        if ids != [1, 2]:
            raise ValueError(f"agents must be agent 1 then agent 2, got {ids}")
        return report


def _ratio(num: int, den: int) -> Optional[float]:
    return num / den if den else None


def _denominator(agents: tuple, mode: str) -> int:
    """Both agents' actions counted in `mode`; EmptyTrace when there are none."""
    if mode not in DENOMINATOR_MODES:
        raise ValueError(f"unknown denominator mode {mode!r}")
    key = "total_actions" if mode == "all-actions" else "subtask_actions"
    den = sum(getattr(a, key) for a in agents)
    if den == 0:
        raise EmptyTrace(f"denominator is zero in mode {mode!r}")
    return den


def contribution_ratio(
    ledger: InterdependencyLedger, agent: int
) -> tuple[Optional[float], int, int]:
    """(giver/receiver ratio or None, giver count, receiver count)."""
    g = sum(1 for p in ledger.pairs if p.giver.agent == agent)
    r = sum(1 for p in ledger.pairs if p.receiver.agent == agent)
    return _ratio(g, r), g, r


def _agent_report(ledger: InterdependencyLedger, agent: int) -> AgentReport:
    """Every per-agent count and rate, from the agent's events and turns.

    The agent's turns are every other step, round-robin from agent 1; one
    without an event was a move or a stay, counted from the trace's steps.
    A trigger counts as accepted when it was matched as giver in some pair,
    i.e. when the ledger does not list it among the unaccepted triggers.
    """
    dist = dict.fromkeys(ALL_SUBTASKS, 0)
    roles = ledger.schema.roles
    independent = triggers = accepts = overlap = 0
    for event in ledger.events:
        if event.agent == agent:
            dist[event.name] += 1
            trig, acc = roles[event.name]
            triggers += trig
            accepts += acc
            overlap += trig and acc
            independent += not (trig or acc)
    turns = ledger.steps[agent - 1 :: 2]
    total = len(turns)
    dist[MOVE] = sum(map(MOVE_DIRECTION.__contains__, turns))
    dist[NOOP] = total - sum(dist.values())
    independent += dist[MOVE] + dist[NOOP]
    coordination = total - independent
    ratio, g, r = contribution_ratio(ledger, agent)
    unaccepted = len(ledger.unaccepted_triggers.get(agent, ()))
    return AgentReport(
        agent=agent,
        total_actions=total,
        subtask_actions=sum(dist[name] for name in INTERACT_SUBTASKS),
        independent=independent,
        coordination=coordination,
        triggers=triggers,
        accepts=accepts,
        trigger_accept_overlap=overlap,
        giver_count=g,
        receiver_count=r,
        contribution_ratio=ratio,
        trigger_share_of_coordination=_ratio(triggers, coordination),
        trigger_acceptance_rate=_ratio(triggers - unaccepted, triggers),
        self_accept_count=sum(s.receiver.agent == agent for s in ledger.self_accepts),
        unaccepted_triggers=unaccepted,
        event_distribution=dist,
    )


def build_report(
    ledger: InterdependencyLedger,
    mode: str = "subtask-actions",
    label: str = "",
) -> TeamReport:
    """Assemble the full per-episode report from a ledger.

    `percent_interdependent` counts each pair twice (giver and receiver
    side) over the actions `mode` counts: those that resolved to an
    interact subtask, or with all-actions also movement and no-ops.
    """
    agents = (_agent_report(ledger, 1), _agent_report(ledger, 2))
    den = _denominator(agents, mode)
    by_predicate: dict = {}
    for p in ledger.pairs:
        by_predicate[p.prop.predicate] = by_predicate.get(p.prop.predicate, 0) + 1

    return TeamReport(
        label=label,
        episode_time=ledger.episode_time,
        timed_out=ledger.timed_out,
        soups_delivered=ledger.soups_delivered,
        percent_interdependent=2 * len(ledger.pairs) / den,
        denominator_mode=mode,
        denominator=den,
        pair_count=len(ledger.pairs),
        pairs_by_predicate=by_predicate,
        include_counter_empty=ledger.schema.include_counter_empty,
        config=ledger.config,
        agents=agents,
    )


@dataclass(frozen=True)
class FieldSummary(_Serializable):
    """Mean/stddev of one report field, with undefined values excluded."""

    mean: Optional[float]
    stddev: Optional[float]
    n: int
    excluded: int


@dataclass(frozen=True)
class AggregateSummary(_Serializable):
    """Field-wise mean and stddev across episodes with identical config."""

    n_reports: int
    denominator_mode: str
    include_counter_empty: bool
    config: EpisodeConfig
    fields: dict
    reports: tuple


def _summarize(values: list) -> FieldSummary:
    present = [v for v in values if v is not None]
    excluded = len(values) - len(present)
    if not present:
        return FieldSummary(mean=None, stddev=None, n=0, excluded=excluded)
    mean = statistics.fmean(present)
    stddev = statistics.stdev(present) if len(present) > 1 else 0.0
    return FieldSummary(mean=mean, stddev=stddev, n=len(present), excluded=excluded)


AGGREGATE_TEAM_FIELDS = (
    "episode_time",
    "soups_delivered",
    "percent_interdependent",
    "pair_count",
)
AGGREGATE_AGENT_FIELDS = (
    "giver_count",
    "receiver_count",
    "contribution_ratio",
    "trigger_share_of_coordination",
    "trigger_acceptance_rate",
    "self_accept_count",
    "unaccepted_triggers",
    "triggers",
    "accepts",
    "independent",
    "coordination",
    "subtask_actions",
    "total_actions",
)


def aggregate(reports: list) -> AggregateSummary:
    """Combine per-episode reports into field-wise mean/stddev summaries.

    All reports must share config, denominator mode and schema flag.
    Undefined ratios are excluded field-wise, with the exclusion count kept
    in the summary.
    """
    if not reports:
        raise ConfigMismatch("aggregate needs at least one report")
    head = reports[0]
    for r in reports[1:]:
        if (
            r.config != head.config
            or r.denominator_mode != head.denominator_mode
            or r.include_counter_empty != head.include_counter_empty
        ):
            raise ConfigMismatch(
                f"report {r.label!r} was produced under a different configuration "
                f"than {head.label!r}"
            )

    fields: dict = {}
    for name in AGGREGATE_TEAM_FIELDS:
        fields[name] = _summarize([float(getattr(r, name)) for r in reports])
    for agent in (1, 2):
        for name in AGGREGATE_AGENT_FIELDS:
            values = []
            for r in reports:
                v = getattr(r.agent(agent), name)
                values.append(float(v) if v is not None else None)
            fields[f"agent{agent}.{name}"] = _summarize(values)

    return AggregateSummary(
        n_reports=len(reports),
        denominator_mode=head.denominator_mode,
        include_counter_empty=head.include_counter_empty,
        config=head.config,
        fields=fields,
        reports=tuple(reports),
    )
