"""Extracting interdependent pairs from a trace.

A shared predicate is linkable when some subtask adds it and some subtask
requires it. A subtask's template fixes its roles, one entry of
`schema.roles`: it is a trigger when it adds a linkable predicate, an
accept when it requires one, and independent otherwise. A pair links a
giver's add effect to the receiver's precondition, provided the
proposition survived untouched in between. A pair whose giver and
receiver are the same cook is a self-acceptance, kept apart in
`ledger.self_accepts`.

Only events, the steps in which a cook's interact did something, add or
require anything, so analysis reads the record of play alone, the
`EnvEvent`s `gridworld.step` reported in step order, each with its whole
grounding key, and its cost grows with the events, not the steps.
`run_episode` keeps the record (`ReplayableTrace.played`); for a trace
read from a file, or built or altered by hand, `replay` steps it through
the simulator, which checks that it is a real episode, and returns it.

`match` folds provenance alone. Its map points the canonical text of each
currently true shared proposition at the event that added it: acceptance
reads the map, deletion clears it and addition overwrites it, so
freshness is structural; a fact absent from the map held from the start,
or came from the environment, and links no one. Each event's link view,
its shared preconditions, deletes and adds by text, is compiled once per
distinct event with its grounding, so the fold hashes cached strings. The
pairs hold the events themselves. The unaccepted triggers and soups are
read off the events after the fold, each cook's action rings (`metrics`)
off its event distribution, and moves and stays off the trace's steps.
`ledger.classifications` builds a per-step view only when asked.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .errors import MalformedJointAction, ReplayMismatch
from .grounding import (
    SHARED_PREDICATES,
    SUBTASK_TEMPLATES,
    Proposition,
    ground_event,
)
from .gridworld import (
    COOK_TURNS,
    MOVE,
    MOVE_DIRECTION,
    NOOP,
    SERVE_SOUP,
    EnvEvent,
    EpisodeConfig,
    WorldState,
    initial_state,
    is_terminal,
    load_layout,
    record,
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
def build_interaction_schema(*, include_counter_empty: bool = True) -> InteractionSchema:
    """The interaction schema, with or without counter-empty; built once each."""
    return InteractionSchema(include_counter_empty)


def _step_dict(agent: int, t: int, subtask: str) -> dict:
    """How the ledger file names a step: its cook, time and subtask."""
    return {"agent": agent, "t": t, "subtask": subtask}


@record
class ActionClassification:
    """One row of the per-step view: a step's cook, time, subtask and roles.

    `ledger.classifications` builds one per step when asked, for the
    ledger file; the analysis itself builds none. The roles are
    `schema.roles[subtask]`; a step that is neither trigger nor accept is
    independent.
    """

    agent: int
    t: int
    subtask: str
    is_trigger: bool
    is_accept: bool


@record
class InterdependentPair:
    """A giver's add effect consumed as the receiver's precondition.

    The giver and the receiver are the two `EnvEvent`s that `step`
    reported. When they are the same cook's, the pair is a self-acceptance.
    """

    prop: Proposition
    giver: EnvEvent
    receiver: EnvEvent

    def to_dict(self) -> dict:
        g, r = self.giver, self.receiver
        return {
            "prop": self.prop.canonical(),
            "giver": _step_dict(g.agent, g.t, g.name),
            "receiver": _step_dict(r.agent, r.t, r.name),
        }


@dataclass
class InterdependencyLedger:
    """Everything the analysis extracted from one episode.

    `events` is the record of play itself, its `EnvEvent`s in step order,
    and the pairs, self-accepts and unaccepted triggers hold those same
    events; `steps` is the trace's own step tuple, which holds the moves
    and stays.
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
        """One row per step, built on demand from the events and steps.

        Step `t` is cook `1 + t % 2`'s. Its subtask is its event's name, or
        else a move if its action is one and a stay otherwise. Its roles are
        that subtask's entry in `schema.roles`.
        """
        by_t = {e.t: e.name for e in self.events}
        roles = self.schema.roles
        out = []
        for t, action in enumerate(self.steps):
            subtask = by_t.get(t) or (MOVE if action in MOVE_DIRECTION else NOOP)
            out.append(ActionClassification(1 + t % 2, t, subtask, *roles[subtask]))
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
                    **_step_dict(c.agent, c.t, c.subtask),
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
                str(agent): [_step_dict(e.agent, e.t, e.name) for e in refs]
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


def replay(trace: ReplayableTrace) -> tuple:
    """Step a trace through the simulator and return the record of its play.

    Every step replays once from the embedded layout and config, as the
    turn of agent `1 + t % 2`; a step that is not a PrimitiveAction raises
    MalformedJointAction, and none may follow the terminal state or
    horizon. The record is the one `run_episode` keeps: the event `step`
    reported for each step with one, in step order.
    """
    state = _start(trace.layout_text, trace.config)
    played = []
    for t, action in enumerate(trace.steps):
        if is_terminal(state):
            raise ReplayMismatch(f"step {t}: trace continues past the terminal state")
        try:
            turn = COOK_TURNS[t & 1][action]
        except (KeyError, TypeError):
            raise MalformedJointAction(
                f"step {t}: {action!r} is not a PrimitiveAction"
            ) from None
        state, _, events = step(state, turn)
        if events:
            played.append(events[0])
    return tuple(played)


def match(
    events: tuple,
    trace: ReplayableTrace,
    schema: Optional[InteractionSchema] = None,
) -> InterdependencyLedger:
    """Ground a record of play and fold it, in step order, into a ledger.

    `events` is `trace`'s record of play, from `run_episode` or `replay`,
    and becomes the ledger's `events`. The fold is provenance alone: each
    event is grounded from its own key, each linkable shared precondition
    is looked up by its canonical text in the provenance map, the deletes
    clear it and the adds record the event. A fact an earlier event added
    makes one pair of the two events, in `ledger.pairs` across cooks and
    in `ledger.self_accepts` within one. After the fold, the unaccepted
    triggers are the events of a trigger subtask (`schema.roles`) that no
    pair names as giver, and the soups are the serve-soup events.
    """
    if schema is None:
        schema = build_interaction_schema()
    linkable, provenance, pairs, self_accepts = schema.linkable, {}, [], []

    for event in events:
        grounded = ground_event(event)
        for text, p in grounded.shared_pre:
            if p.predicate in linkable:
                src = provenance.get(text)
                if src is not None:
                    links = pairs if src.agent != event.agent else self_accepts
                    links.append(InterdependentPair(p, src, event))
        for text in grounded.shared_del:
            provenance.pop(text, None)
        for text in grounded.shared_add:
            provenance[text] = event

    triggers = {name for name, (is_trigger, _) in schema.roles.items() if is_trigger}
    matched = {pair.giver.t for pair in pairs}
    unaccepted, soups = {1: [], 2: []}, 0
    for event in events:
        soups += event.name == SERVE_SOUP
        if event.name in triggers and event.t not in matched:
            unaccepted[event.agent].append(event)
    return InterdependencyLedger(
        schema=schema,
        config=trace.config,
        events=events,
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
    """Ground a trace and match its events: pairs, self-accepts, triggers.

    A trace `run_episode` returned is matched from the record of its play;
    any other trace, read from a file, built by hand or altered with
    `dataclasses.replace`, is replayed (`replay`) to rebuild that record.
    """
    played = replay(trace) if trace.played is None else trace.played
    return match(played, trace, schema)
