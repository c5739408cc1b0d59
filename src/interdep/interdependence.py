"""Classifying actions and extracting interdependent pairs from a trace.

A shared predicate is linkable when some subtask adds it and some subtask
requires it. A subtask's template fixes its roles: it is a trigger when it
adds a linkable predicate, an accept when it requires one, and independent
otherwise, so every step of one subtask plays the same roles. A pair links
a giver's add effect to the receiver's precondition across agents,
provided the proposition survived untouched in between.

Analysis runs in two steps. The first grounds each step into an action.
A trace read from a file, or built or altered by hand, is replayed:
`replay` steps it through the simulator, which is the check that it is a
real episode. A trace `run_episode` just played is grounded from the
record of its play (`played_actions`), with no second world step. Both
use one grounding rule, `grounding.ground`. `match` then folds the
actions into the ledger. Matching runs on a provenance map: every
currently true shared proposition that some step added points at that
step's record. A fact absent from the map holds since the initial state,
or came from the environment, and links no one. Acceptance reads the map,
deletion clears it, addition overwrites it, so freshness is structural
rather than re-checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .errors import ReplayMismatch
from .grounding import (
    SHARED_PREDICATES,
    SUBTASK_TEMPLATES,
    Proposition,
    SymbolicAction,
    ground,
    ground_step,
    sort_props,
)
from .gridworld import (
    SERVE_SOUP,
    EpisodeConfig,
    initial_state,
    is_terminal,
    load_layout,
    record,
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


def build_interaction_schema(
    *, include_counter_empty: bool = True
) -> InteractionSchema:
    """The interaction schema, with or without counter-empty."""
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
    """Everything the analysis extracted from one episode."""

    schema: InteractionSchema
    config: EpisodeConfig
    classifications: tuple = ()
    pairs: tuple = ()
    self_accepts: tuple = ()
    unaccepted_triggers: dict = field(default_factory=dict)
    episode_time: int = 0
    soups_delivered: int = 0
    timed_out: bool = False

    def givers(self, agent: int) -> tuple:
        return tuple(p for p in self.pairs if p.giver.agent == agent)

    def receivers(self, agent: int) -> tuple:
        return tuple(p for p in self.pairs if p.receiver.agent == agent)

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


def replay(trace: "ReplayableTrace") -> Iterator[SymbolicAction]:
    """Step a trace through the simulator, yielding each step grounded.

    Each step replays once from the embedded layout and config and takes
    the subtask that step reports. Turn order must be round-robin from
    agent 1; no step may follow the terminal state or horizon.
    """
    state = initial_state(load_layout(trace.layout_text), trace.config)
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
        sym, state = ground_step(state, action, agent)
        yield sym


def match(
    actions: Iterable[SymbolicAction],
    config: EpisodeConfig,
    schema: Optional[InteractionSchema] = None,
) -> InterdependencyLedger:
    """Fold one episode's grounded actions, in step order, into its ledger.

    Each action is classified, then each linkable precondition of an
    accept is looked up in the provenance map: a fact another cook added
    is a pair, one the same cook added is a self-acceptance. The episode
    time is the number of actions and the delivered soups are its
    serve-soup actions.
    """
    if schema is None:
        schema = build_interaction_schema()
    linkable = schema.linkable

    provenance: dict = {}
    classifications: list = []
    pairs: list = []
    self_accepts: list = []
    matched_givers: set = set()  # t of every action matched as a giver
    soups = 0

    for sym in actions:
        cls = classify_action(sym, schema)
        classifications.append(cls)
        if cls.is_accept:
            for p in sort_props(q for q in sym.pre if q.predicate in linkable):
                src = provenance.get(p)
                if src is None:
                    continue
                if src.agent != cls.agent:
                    pairs.append(InterdependentPair(prop=p, giver=src, receiver=cls))
                    matched_givers.add(src.t)
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

    unaccepted: dict = {1: [], 2: []}
    for cls in classifications:
        if cls.is_trigger and cls.t not in matched_givers:
            unaccepted[cls.agent].append(cls)

    return InterdependencyLedger(
        schema=schema,
        config=config,
        classifications=tuple(classifications),
        pairs=tuple(pairs),
        self_accepts=tuple(self_accepts),
        unaccepted_triggers={k: tuple(v) for k, v in unaccepted.items()},
        episode_time=len(classifications),
        soups_delivered=soups,
        timed_out=soups < config.target_soups,
    )


_UNPLAYED = (None, None)  # the entry of a step without an event


def played_actions(trace: "ReplayableTrace") -> Iterator[SymbolicAction]:
    """Ground each step of an in-process trace from the record of its play.

    A step with an entry in `trace.played` is grounded in the state it was
    played from, by the subtask its event named; any other step was a move
    or a stay. No step goes through the simulator a second time.
    """
    played = trace.played
    for t, agent, action in trace.steps:
        state, subtask = played.get(t, _UNPLAYED)
        yield SymbolicAction(agent, t, *ground(state, action, agent, subtask))


def analyze_trace(
    trace: "ReplayableTrace", schema: Optional[InteractionSchema] = None
) -> InterdependencyLedger:
    """Ground a trace and match its actions: classifications, pairs, self-accepts.

    A trace `run_episode` returned is grounded from the record of its play
    (`played_actions`); any other trace, read from a file, built by hand
    or altered with `dataclasses.replace`, is replayed (`replay`).
    """
    actions = replay(trace) if trace.played is None else played_actions(trace)
    return match(actions, trace.config, schema)
