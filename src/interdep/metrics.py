"""Team-level and per-agent cooperation metrics from an analysis ledger.

All rates are fractions in [0, 1]; ratios that would divide by zero are
surfaced as None (undefined) with the raw counts kept alongside, never as
a 0 or infinity stand-in. The interdependence share counts pair
participations (giver side plus receiver side) over a configurable action
denominator.

Each report field is declared once, in `TeamReport` or `AgentReport` in
CSV column order; its declared type says how it renders (`REPORT_COLUMNS`)
and whether `aggregate` averages it.
"""

from __future__ import annotations

import statistics
import sys
from dataclasses import dataclass
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


def _from_fields(cls, d: dict, **readers):
    """A record from a JSON object of exactly its fields; `readers` rebuild some."""
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {d!r}")
    names = cls.__dataclass_fields__
    unknown = [k for k in d if k not in names]
    if unknown:
        raise ValueError(f"{cls.__name__} has no field {', '.join(map(repr, unknown))}")
    values = {n: d[n] for n in names}
    return cls(**values | {n: read(values[n]) for n, read in readers.items()})


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
    giver_count: int
    receiver_count: int
    contribution_ratio: Optional[float]
    trigger_share_of_coordination: Optional[float]
    trigger_acceptance_rate: Optional[float]
    triggers: int
    accepts: int
    trigger_accept_overlap: int
    independent: int
    coordination: int
    subtask_actions: int
    total_actions: int
    self_accept_count: int
    unaccepted_triggers: int
    event_distribution: dict


def _agent_reports(value) -> tuple:
    if not isinstance(value, list):
        raise ValueError(f"agents must be a JSON list, got {value!r}")
    return tuple(_from_fields(AgentReport, a) for a in value)


@dataclass(frozen=True)
class TeamReport(_Serializable):
    """Per-episode cooperation report for the two-cook team."""

    label: str
    episode_time: int
    timed_out: bool
    soups_delivered: int
    percent_interdependent: float
    pair_count: int
    denominator: int
    denominator_mode: str
    include_counter_empty: bool
    pairs_by_predicate: dict
    config: EpisodeConfig
    agents: tuple

    def agent(self, agent_id: int) -> AgentReport:
        return self.agents[agent_id - 1]

    def value(self, key: str):
        """The field a `REPORT_COLUMNS` key names, e.g. "agent1.triggers"."""
        agent, _, name = key.rpartition(".")
        owner = self.agent(int(agent.removeprefix("agent"))) if agent else self
        return getattr(owner, name)

    @classmethod
    def from_dict(cls, d: dict) -> "TeamReport":
        """Rebuild a report, rejecting what `aggregate` would misread.

        Each record must be a JSON object, `agents` a list of agent 1 then
        agent 2, every field of its declared type (`_check_types`), the
        denominator mode one of `DENOMINATOR_MODES` and the counts as
        `build_report` derives them; ValueError otherwise.
        """
        report = _from_fields(
            cls, d, config=EpisodeConfig.from_dict, agents=_agent_reports
        )
        for record in (report, *report.agents):
            _check_types(record)
        ids = [a.agent for a in report.agents]
        if ids != [1, 2]:
            raise ValueError(f"agents must be agent 1 then agent 2, got {ids}")
        mode, den, pairs = report.denominator_mode, report.denominator, report.pair_count
        counted = _denominator(report.agents, mode)
        if den == 0:
            raise ValueError("denominator is zero")
        if pairs != sum(report.pairs_by_predicate.values()):
            raise ValueError(f"pair_count {pairs} is not the sum of pairs_by_predicate")
        if den != counted:
            raise ValueError(f"denominator {den} is not the agents' {mode} count")
        if report.percent_interdependent != 2 * pairs / den:
            raise ValueError("percent_interdependent is not 2 * pair_count / denominator")
        return report


# How a scalar report field renders, by its declared type; no other field is a scalar.
_KINDS = {
    (int,): "count",
    (float, type(None)): "rate",
    (float,): "pct",
    (bool,): "flag",
    (str,): "text",
}

# (key, kind) of each scalar field but the label and agent ids, in CSV column
# order: the team's, then each agent's keyed `agent1.<name>` (`TeamReport.value`).
REPORT_COLUMNS = tuple(
    (prefix + name, _KINDS[allowed])
    for prefix, cls in (("", TeamReport), ("agent1.", AgentReport), ("agent2.", AgentReport))
    for name, allowed in _field_types(cls)
    if allowed in _KINDS and name not in ("label", "agent")
)


def _ratio(num: int, den: int) -> Optional[float]:
    return num / den if den else None


def _denominator(agents: tuple, mode: str) -> int:
    """Both agents' actions counted in `mode`; ValueError for another mode."""
    if mode not in DENOMINATOR_MODES:
        raise ValueError(f"unknown denominator mode {mode!r}")
    key = "total_actions" if mode == "all-actions" else "subtask_actions"
    return sum(getattr(a, key) for a in agents)


def _agent_report(
    ledger: InterdependencyLedger, agent: int, gives: int, takes: int
) -> AgentReport:
    """Every per-agent count and rate, from the agent's events and turns.

    `gives` and `takes` count the pairs the agent is giver and receiver of.
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
        giver_count=gives,
        receiver_count=takes,
        contribution_ratio=_ratio(gives, takes),
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
    gives, takes, by_predicate = [0, 0, 0], [0, 0, 0], {}
    for p in ledger.pairs:
        gives[p.giver.agent] += 1
        takes[p.receiver.agent] += 1
        by_predicate[p.prop.predicate] = by_predicate.get(p.prop.predicate, 0) + 1
    agents = tuple(_agent_report(ledger, i, gives[i], takes[i]) for i in (1, 2))
    den = _denominator(agents, mode)
    if den == 0:
        raise EmptyTrace(f"denominator is zero in mode {mode!r}")
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
    present = [float(v) for v in values if v is not None]
    excluded = len(values) - len(present)
    if not present:
        return FieldSummary(mean=None, stddev=None, n=0, excluded=excluded)
    mean = statistics.fmean(present)
    stddev = statistics.stdev(present) if len(present) > 1 else 0.0
    return FieldSummary(mean=mean, stddev=stddev, n=len(present), excluded=excluded)



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

    # Every count, rate and pct but the denominator and the trigger/accept
    # overlap, which no summary has ever carried: summary bytes are pinned.
    fields = {
        key: _summarize([r.value(key) for r in reports])
        for key, kind in REPORT_COLUMNS
        if kind in ("count", "rate", "pct")
        and not key.endswith(("denominator", "trigger_accept_overlap"))
    }

    return AggregateSummary(
        n_reports=len(reports),
        denominator_mode=head.denominator_mode,
        include_counter_empty=head.include_counter_empty,
        config=head.config,
        fields=fields,
        reports=tuple(reports),
    )
