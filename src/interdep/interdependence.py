"""Classifying actions and extracting interdependent pairs from a trace.

A shared predicate is linkable when some subtask adds it and some subtask
requires it. A subtask's template fixes its roles: it is a trigger when it
adds a linkable predicate, an accept when it requires one, and independent
otherwise. A pair links a giver's add effect to the receiver's
precondition across agents, provided the proposition survived untouched
in between.

Only events, the steps in which a cook's interact did something, add or
require anything, so analysis grounds and folds events only and its cost
grows with the events, not the steps. A trace read from a file, or built
or altered by hand, is replayed: `replay` steps all of it through the
simulator, which is the check that it is a real episode, and yields its
events. A trace `run_episode` just played is grounded from the record of
its play (`played_actions`). Both use one grounding rule,
`grounding.ground`. `match` folds the events into the ledger through a
provenance map: every currently true shared proposition that some event
added points at that event's record. A fact absent from the map holds
since the initial state, or came from the environment, and links no one.
Acceptance reads the map, deletion clears it, addition overwrites it, so
freshness is structural rather than re-checked. Moves and stays are
counted from the trace's steps; `ledger.classifications` builds their
records only when asked.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .errors import ReplayMismatch
from .grounding import (
    SHARED_PREDICATES,
    SUBTASK_TEMPLATES,
    Proposition,
    SymbolicAction,
    acting_subtask,
    ground,
)
from .gridworld import (
    SERVE_SOUP,
    EpisodeConfig,
    WorldState,
    initial_state,
    is_terminal,
    load_layout,
    record,
    single_action,
    step,
)

if TYPE_CHECKING:  # pragma: no cover
    from .trace_io import ReplayableTrace

TRIGGER = "Trigger"
ACCEPT = "Accept"


@dataclass(frozen=True)
class InteractionSchema:
    """Which shared predicates can link one cook's action to the other's.

    Everything follows from the subtask templates. `linkable` is every
    shared predicate some subtask adds and some subtask requires; held
    items and the delivery tally cannot link the two cooks, and
    counter-empty counts only when the flag is on. `roles` maps each
    subtask to (is_trigger, is_accept): whether its template adds, and
    whether it requires, a linkable predicate.
    """

    include_counter_empty: bool = True
    linkable: frozenset = field(init=False, repr=False, compare=False)
    roles: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        templates = SUBTASK_TEMPLATES.values()
        adds = frozenset().union(*(t["add"] for t in templates))
        pres = frozenset().union(*(t["pre"] for t in templates))
        linkable = adds & pres & SHARED_PREDICATES
        if not self.include_counter_empty:
            linkable -= {"counter-empty"}
        roles = {
            name: (bool(t["add"] & linkable), bool(t["pre"] & linkable))
            for name, t in SUBTASK_TEMPLATES.items()
        }
        object.__setattr__(self, "linkable", linkable)
        object.__setattr__(self, "roles", roles)

    @property
    def accept_fluents(self) -> frozenset:
        """The linkable set under its earlier name, which readers still use."""
        return self.linkable

    def to_dict(self) -> dict:
        fluents = sorted(self.linkable)
        return {
            "trigger_fluents": fluents,
            "accept_fluents": fluents,
            "include_counter_empty": self.include_counter_empty,
        }


@functools.cache
def build_interaction_schema(
    *, include_counter_empty: bool = True
) -> InteractionSchema:
    """The interaction schema, with or without counter-empty; built once each."""
    return InteractionSchema(include_counter_empty)


@record
class ActionClassification:
    """One step of the trace: who acted when, on which subtask, in which roles.

    The same record is a pair's giver or receiver and an unaccepted
    trigger; `to_dict` names the step.
    """

    agent: int
    t: int
    subtask: str
    is_trigger: bool
    is_accept: bool

    @property
    def roles(self) -> frozenset:
        out = set()
        if self.is_trigger:
            out.add(TRIGGER)
        if self.is_accept:
            out.add(ACCEPT)
        return frozenset(out)

    @property
    def independent(self) -> bool:
        return not (self.is_trigger or self.is_accept)

    @property
    def klass(self) -> str:
        return "Independent" if self.independent else "Coordination"

    def to_dict(self) -> dict:
        return {"agent": self.agent, "t": self.t, "subtask": self.subtask}


def classify_action(
    action: SymbolicAction, schema: InteractionSchema
) -> ActionClassification:
    """The step's record, with the roles the schema gives its subtask."""
    return ActionClassification(
        action.agent, action.t, action.subtask, *schema.roles[action.subtask]
    )


@dataclass(frozen=True)
class InterdependentPair:
    """A giver's add effect consumed as the receiver's precondition."""

    prop: Proposition
    giver: ActionClassification
    receiver: ActionClassification

    def to_dict(self) -> dict:
        return {
            "prop": self.prop.canonical(),
            "giver": self.giver.to_dict(),
            "receiver": self.receiver.to_dict(),
        }


@dataclass(frozen=True)
class SelfAcceptance:
    """An agent consuming a precondition it itself established."""

    agent: int
    trigger_t: int
    accept_t: int
    prop: Proposition

    def to_dict(self) -> dict:
        return {
            "agent": self.agent,
            "trigger_t": self.trigger_t,
            "accept_t": self.accept_t,
            "prop": self.prop.canonical(),
        }


@dataclass
class InterdependencyLedger:
    """Everything the analysis extracted from one episode.

    `events` are the records of the steps with an event, in step order;
    `steps` is the trace's own step tuple, which holds the moves and stays.
    """

    schema: InteractionSchema
    config: EpisodeConfig
    events: tuple = ()
    steps: tuple = ()
    pairs: tuple = ()
    self_accepts: tuple = ()
    unaccepted_triggers: dict = field(default_factory=dict)
    episode_time: int = 0
    soups_delivered: int = 0
    timed_out: bool = False

    @property
    def classifications(self) -> tuple:
        """One record per step, built on demand from the events and steps.

        A step without an event is the move or the stay that
        `grounding.ground` makes of it, with the roles of its subtask.
        """
        by_t = {c.t: c for c in self.events}
        roles = self.schema.roles
        out = []
        for t, agent, action in self.steps:
            cls = by_t.get(t)
            if cls is None:
                subtask = ground(None, action, agent, None)[0]
                cls = ActionClassification(agent, t, subtask, *roles[subtask])
            out.append(cls)
        return tuple(out)

    def to_dict(self) -> dict:
        return {
            "schema": self.schema.to_dict(),
            "config": self.config.to_dict(),
            "episode": {
                "time": self.episode_time,
                "soups_delivered": self.soups_delivered,
                "timed_out": self.timed_out,
            },
            "classifications": [
                {**c.to_dict(), "klass": c.klass, "roles": sorted(c.roles)}
                for c in self.classifications
            ],
            "pairs": [p.to_dict() for p in self.pairs],
            "self_accepts": [s.to_dict() for s in self.self_accepts],
            "unaccepted_triggers": {
                str(agent): [r.to_dict() for r in refs]
                for agent, refs in sorted(self.unaccepted_triggers.items())
            },
        }


@functools.cache
def _start(layout_text: str, config: EpisodeConfig) -> WorldState:
    """The state a trace replays from, parsed once per layout and config.

    Every trace of a batch on one kitchen shares it; states are never
    mutated, so sharing one is the same as building it again.
    """
    return initial_state(load_layout(layout_text), config)


def replay(trace: "ReplayableTrace") -> Iterator[SymbolicAction]:
    """Step a trace through the simulator, yielding each event grounded.

    Every step replays once from the embedded layout and config. Turn
    order must be round-robin from agent 1, and no step may follow the
    terminal state or horizon. Only a step in which the acting cook had
    an event is grounded and yielded.
    """
    state = _start(trace.layout_text, trace.config)
    for idx, (t, agent, action) in enumerate(trace.steps):
        if t != idx:
            raise ReplayMismatch(f"step {idx}: timestep {t} breaks the 0..n sequence")
        expected = 1 + (idx % 2)
        if agent != expected:
            raise ReplayMismatch(
                f"step {idx}: agent {agent} acted, round-robin expects {expected}"
            )
        if is_terminal(state):
            raise ReplayMismatch(f"step {idx}: trace continues past the terminal state")
        successor, _, events = step(state, single_action(agent, action))
        if events:
            subtask = acting_subtask(events)
            if subtask is not None:
                yield SymbolicAction(agent, t, *ground(state, action, agent, subtask))
        state = successor


def match(
    events: Iterable[SymbolicAction],
    trace: "ReplayableTrace",
    schema: Optional[InteractionSchema] = None,
) -> InterdependencyLedger:
    """Fold one episode's grounded events, in step order, into its ledger.

    Each event is classified, then each linkable precondition of an
    accept is looked up in the provenance map: a fact another cook added
    is a pair, one the same cook added is a self-acceptance. Moves and
    stays link nothing and are not folded. The episode time is the number
    of steps in `trace` and the delivered soups are its serve-soup events.
    """
    if schema is None:
        schema = build_interaction_schema()
    linkable = schema.linkable

    provenance: dict = {}
    records: list = []
    pairs: list = []
    self_accepts: list = []
    soups = 0

    for sym in events:
        cls = classify_action(sym, schema)
        records.append(cls)
        if cls.is_accept:
            # Every template requires at most one shared predicate, so an
            # accept links at most one fact and needs no sorted order.
            for p in sym.pre:
                if p.predicate not in linkable:
                    continue
                src = provenance.get(p)
                if src is None:
                    continue
                if src.agent != cls.agent:
                    pairs.append(InterdependentPair(prop=p, giver=src, receiver=cls))
                else:
                    self_accepts.append(
                        SelfAcceptance(
                            agent=cls.agent, trigger_t=src.t, accept_t=cls.t, prop=p
                        )
                    )
        for p in sym.delete:
            if p.shared:
                provenance.pop(p, None)
        for p in sym.add:
            if p.shared:
                provenance[p] = cls
        if sym.subtask == SERVE_SOUP:
            soups += 1

    matched = {pair.giver.t for pair in pairs}
    unaccepted: dict = {1: [], 2: []}
    for cls in records:
        if cls.is_trigger and cls.t not in matched:
            unaccepted[cls.agent].append(cls)

    return InterdependencyLedger(
        schema=schema,
        config=trace.config,
        events=tuple(records),
        steps=trace.steps,
        pairs=tuple(pairs),
        self_accepts=tuple(self_accepts),
        unaccepted_triggers={k: tuple(v) for k, v in unaccepted.items()},
        episode_time=len(trace.steps),
        soups_delivered=soups,
        timed_out=soups < trace.config.target_soups,
    )


def played_actions(trace: "ReplayableTrace") -> Iterator[SymbolicAction]:
    """Ground each event of an in-process trace from the record of its play.

    Each entry of `trace.played` is grounded in the state it was played
    from. No other step is visited, and none is simulated a second time.
    """
    steps = trace.steps
    for t, (state, subtask) in trace.played.items():
        _, agent, action = steps[t]
        yield SymbolicAction(agent, t, *ground(state, action, agent, subtask))


def analyze_trace(
    trace: "ReplayableTrace", schema: Optional[InteractionSchema] = None
) -> InterdependencyLedger:
    """Ground a trace and match its events: classifications, pairs, self-accepts.

    A trace `run_episode` returned is grounded from the record of its play
    (`played_actions`); any other trace, read from a file, built by hand
    or altered with `dataclasses.replace`, is replayed (`replay`).
    """
    events = replay(trace) if trace.played is None else played_actions(trace)
    return match(events, trace, schema)
