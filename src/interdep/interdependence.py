"""Classifying actions and extracting interdependent pairs from a trace.

A shared predicate is linkable when some subtask adds it and some subtask
requires it. A subtask's template fixes its roles: it is a trigger when it
adds a linkable predicate, an accept when it requires one, and independent
otherwise. A pair links a giver's add effect to the receiver's
precondition, provided the proposition survived untouched in between. A
pair whose giver and receiver are the same cook is a self-acceptance, kept
apart in `ledger.self_accepts`.

Only events, the steps in which a cook's interact did something, add or
require anything, so analysis grounds and folds events only and its cost
grows with the events, not the steps. Its one input is the record of play,
a list of (state, event) in step order: for each event, the state its step
was taken in and the `EnvEvent` that `gridworld.step` reported, which
names the cook, the time, the subtask and the cell. `run_episode` keeps
it (`ReplayableTrace.played`). For a trace read from a file, or built or
altered by hand, `replay` steps all of it through the simulator, which is
the check that it is a real episode, and returns the same record. `match`
grounds each event with `grounding.ground` and folds it into the ledger
through a provenance map: every currently true shared proposition that
some event added points at that event's record. A fact absent from the map
holds since the initial state, or came from the environment, and links no
one. Acceptance reads the map, deletion clears it, addition overwrites it,
so freshness is structural rather than re-checked. Moves and stays are
counted from the trace's steps; `ledger.classifications` builds their
records only when asked.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .errors import ReplayMismatch
from .grounding import (
    SHARED_PREDICATES,
    SUBTASK_TEMPLATES,
    Proposition,
    ground,
)
from .gridworld import (
    COOK_TURNS,
    MOVE,
    MOVE_DIRECTION,
    NOOP,
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
    """One step of the trace: its event's cook, time and subtask, and two roles.

    The roles are those the schema gives the subtask; a step that is
    neither trigger nor accept is independent. The same record is a pair's
    giver or receiver and an unaccepted trigger; `to_dict` names the step.
    """

    agent: int
    t: int
    subtask: str
    is_trigger: bool
    is_accept: bool

    def to_dict(self) -> dict:
        return {"agent": self.agent, "t": self.t, "subtask": self.subtask}


def classify_action(
    agent: int, t: int, subtask: str, schema: InteractionSchema
) -> ActionClassification:
    """The step's record, with the roles the schema gives its subtask."""
    return ActionClassification(agent, t, subtask, *schema.roles[subtask])


@dataclass(frozen=True)
class InterdependentPair:
    """A giver's add effect consumed as the receiver's precondition.

    When the giver and the receiver are the same cook, the pair is a
    self-acceptance.
    """

    prop: Proposition
    giver: ActionClassification
    receiver: ActionClassification

    def to_dict(self) -> dict:
        return {
            "prop": self.prop.canonical(),
            "giver": self.giver.to_dict(),
            "receiver": self.receiver.to_dict(),
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

        A turn without an event is a move if its action is one, and a stay
        otherwise, with the roles of that subtask.
        """
        by_t = {c.t: c for c in self.events}
        roles = self.schema.roles
        out = []
        for t, (agent, action) in enumerate(self.steps):
            cls = by_t.get(t)
            if cls is None:
                subtask = MOVE if action in MOVE_DIRECTION else NOOP
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
                {
                    **c.to_dict(),
                    "klass": (
                        "Coordination" if c.is_trigger or c.is_accept else "Independent"
                    ),
                    # In sorted order: Accept before Trigger.
                    "roles": ["Accept"] * c.is_accept + ["Trigger"] * c.is_trigger,
                }
                for c in self.classifications
            ],
            "pairs": [p.to_dict() for p in self.pairs],
            "self_accepts": [
                {
                    "agent": s.receiver.agent,
                    "trigger_t": s.giver.t,
                    "accept_t": s.receiver.t,
                    "prop": s.prop.canonical(),
                }
                for s in self.self_accepts
            ],
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


def replay(trace: ReplayableTrace) -> list:
    """Step a trace through the simulator and return the record of its play.

    Every step replays once from the embedded layout and config. Turn
    order must be round-robin from agent 1, and no step may follow the
    terminal state or horizon. The record is the one `run_episode` keeps:
    (state, event) for each step with an event, in step order, where the
    event is the one `step` reported and the state the one it stepped from.
    """
    state = _start(trace.layout_text, trace.config)
    played = []
    for t, turn in enumerate(trace.steps):
        # Each turn `read_trace` or `run_episode` makes passes with one lookup.
        try:
            shared = COOK_TURNS[t & 1][turn] is turn
        except (KeyError, TypeError):
            shared = False
        if not shared:
            agent, action = turn
            expected = 1 + (t % 2)
            if agent != expected:
                raise ReplayMismatch(
                    f"step {t}: agent {agent} acted, round-robin expects {expected}"
                )
        if is_terminal(state):
            raise ReplayMismatch(f"step {t}: trace continues past the terminal state")
        successor, _, events = step(
            state, turn if shared else single_action(agent, action)
        )
        if events:
            played.append((state, events[0]))
        state = successor
    return played


def match(
    played: list,
    trace: ReplayableTrace,
    schema: Optional[InteractionSchema] = None,
) -> InterdependencyLedger:
    """Ground a record of play and fold it, in step order, into a ledger.

    `played` is (state, event) for each step of `trace` with an event, as
    `run_episode` keeps it and `replay` returns it. Each event is grounded
    in the state it was played from and classified by its own cook, time
    and subtask, then each linkable precondition of an accept is looked up
    in the provenance map. A fact an earlier event added makes one pair of
    the two events, kept in `ledger.pairs` across cooks and in
    `ledger.self_accepts` within one. Moves and stays link nothing and are
    not folded. The episode time is the number of steps in `trace` and the
    delivered soups are its serve-soup events.
    """
    if schema is None:
        schema = build_interaction_schema()
    linkable = schema.linkable

    provenance: dict = {}
    records: list = []
    pairs: list = []
    self_accepts: list = []
    soups = 0

    for state, event in played:
        agent, subtask = event.agent, event.name
        pre, add, delete = ground(state, event)
        cls = classify_action(agent, event.t, subtask, schema)
        records.append(cls)
        if cls.is_accept:
            # Every template requires at most one shared predicate, so an
            # accept links at most one fact and needs no sorted order.
            for p in pre:
                if p.predicate not in linkable:
                    continue
                src = provenance.get(p)
                if src is not None:
                    links = pairs if src.agent != agent else self_accepts
                    links.append(InterdependentPair(p, src, cls))
        for p in delete:
            if p.shared:
                provenance.pop(p, None)
        for p in add:
            if p.shared:
                provenance[p] = cls
        if subtask == SERVE_SOUP:
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


def analyze_trace(
    trace: ReplayableTrace, schema: Optional[InteractionSchema] = None
) -> InterdependencyLedger:
    """Ground a trace and match its events: classifications, pairs, self-accepts.

    A trace `run_episode` returned is matched from the record of its play;
    any other trace, read from a file, built by hand or altered with
    `dataclasses.replace`, is replayed (`replay`) to rebuild that record.
    """
    played = replay(trace) if trace.played is None else trace.played
    return match(played, trace, schema)
