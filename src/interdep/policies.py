"""Scripted cooks whose cooperation structure is known by construction.

They stand in for trained agents when auditing the analyzer: their traces
have pair counts you can reason about by hand. SoloChef runs the whole
cook-serve loop alone; Passer shuttles onions from the dispenser to one
counter; ReceiverChef pots onions from that counter, then plates and
serves; StochasticPasser is SoloChef with a seeded dial that routes each
dispensed onion via the counter with probability p, turning cooperation up
continuously; Idle never moves; RandomWalk samples uniform primitives.
Each class names the spec parameters it reads in `params`, and those a
spec of its kind must give in `required`; `_PARAMS` is the one grammar
that parses and writes them.

Every scripted move comes from one breadth-first route search, `_search`,
over the layout's floor-neighbour table (`Layout.floor_neighbours`, N,S,E,W
order) with the partner's cell treated as a wall, so every policy is
reproducible action for action from (layout, config, seed). The layout
keeps the answer to each route question in its `routes` memo, keyed by
everything the answer depends on, so a question is searched once per
layout however many turns and episodes ask it again; a warm memo changes
no move. The questions are a walk's first move, keyed `(own cell, partner
cell, target cells)`, and the move that faces a station, keyed `(own cell,
orientation, partner cell, station, wait)`. Each decision reads its own
and its partner's player record from the state once and passes them down.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Optional

from .errors import SpecMismatch, Unreachable
from .gridworld import (
    COOK_TURNS,
    MOVE_FOR_DIRECTION,
    EpisodeConfig,
    Item,
    Layout,
    Orientation,
    PlayerState,
    PotPhase,
    PotState,
    PrimitiveAction,
    Tile,
    WorldState,
    direction_toward,
    initial_state,
    is_terminal,
    step,
)
from .records import record
from .trace_io import ReplayableTrace

Cell = tuple

_ALL_ACTIONS = tuple(PrimitiveAction)


# The members the decision path compares against, bound to module names once
# as in `gridworld`: reading one through its enum class costs several times
# a module-name read on Python 3.11, and `next_action` runs every turn.
_ONION, _DISH, _SOUP = Item.ONION, Item.DISH, Item.SOUP
_FILLING, _COOKING, _READY = PotPhase.FILLING, PotPhase.COOKING, PotPhase.READY
_STAY, _INTERACT = PrimitiveAction.STAY, PrimitiveAction.INTERACT
_ONION_DISPENSER = Tile.ONION_DISPENSER


def _parse_cell(value: str) -> Cell:
    """`(x,y)` with integer x and y; ValueError otherwise."""
    if not (value.startswith("(") and value.endswith(")")):
        raise ValueError(value)
    x, y = value[1:-1].split(",")
    return (int(x), int(y))


# The spec grammar: each parameter's value parser, the name a bad value is
# reported under, and its canonical writer.
_PARAMS = {
    "p": (float, "probability", repr),
    "counter": (_parse_cell, "counter cell", lambda cell: f"({cell[0]},{cell[1]})"),
    "pot": (int, "pot index", str),
}


@record
class PolicySpec:
    """Parseable description of a scripted agent.

    A kind takes only the parameters its class reads: any other would change
    nothing yet still be written into the trace header. Each value must read
    back equal from its canonical text.
    """

    kind: str
    p: Optional[float] = None
    counter: Optional[Cell] = None
    pot: Optional[int] = None

    def __post_init__(self) -> None:
        cls = _POLICY_CLASSES.get(self.kind)
        if cls is None:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        for name in cls.required:
            if getattr(self, name) is None:
                raise ValueError(f"{self.kind} policy requires {name}=<{_PARAMS[name][1]}>")
        for name, (convert, what, write) in _PARAMS.items():
            value = getattr(self, name)
            if value is not None and name not in cls.params:
                raise ValueError(f"policy kind {self.kind!r} takes no {name} parameter")
            if name == "p" and value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"p={value} outside [0,1]")
            try:
                back = value if value is None else convert(write(value))
            except (TypeError, ValueError, IndexError):
                back = None
            if back != value:
                raise ValueError(f"bad {what} {value!r}: its text does not read back")


def parse_policy_spec(text: str) -> PolicySpec:
    """Parse strings like `solo`, `passer:counter=(4,2)`, `stochastic:p=0.5`."""
    kind, _, param_text = text.strip().partition(":")
    params: dict = {}
    if param_text:
        # split on commas outside parentheses
        parts, depth, cur = [], 0, []
        for ch in param_text:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == "," and depth == 0:
                parts.append("".join(cur))
                cur = []
            else:
                cur.append(ch)
        parts.append("".join(cur))
        for part in parts:
            key, sep, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not value:
                raise ValueError(f"bad policy parameter {part!r} in {text!r}")
            if key in params:
                raise ValueError(f"repeated policy parameter {key!r} in {text!r}")
            if key not in _PARAMS:
                raise ValueError(f"unknown policy parameter {key!r} in {text!r}")
            convert, what, _ = _PARAMS[key]
            try:
                params[key] = convert(value)
            except ValueError:
                raise ValueError(f"bad {what} {value!r} in {text!r}") from None
    return PolicySpec(kind=kind, **params)


def format_policy_spec(spec: PolicySpec) -> str:
    """Canonical string form; parse(format(s)) == s."""
    params = [
        f"{name}={write(getattr(spec, name))}"
        for name, (_, _, write) in _PARAMS.items()
        if getattr(spec, name) is not None
    ]
    return spec.kind + (":" + ",".join(params) if params else "")


def _search(
    layout: Layout, start: Cell, goals: frozenset, blocked: frozenset
) -> tuple[dict, Optional[Cell]]:
    """Breadth-first search over floor cells, stopping at the first goal.

    Returns the parent of every cell reached (None for `start`) and the
    first goal reached from `start`, or None. Neighbours expand in the
    layout's N,S,E,W order so ties resolve identically on every run;
    `blocked` cells (the partner) count as walls.
    """
    parent = {start: None}
    neighbours = layout.floor_neighbours
    frontier = deque([start])
    while frontier:
        cur = frontier.popleft()
        for nxt in neighbours[cur]:
            if nxt in parent or nxt in blocked:
                continue
            parent[nxt] = cur
            if nxt in goals:
                return parent, nxt
            frontier.append(nxt)
    return parent, None


def bfs_distances(layout: Layout, start: Cell, blocked: frozenset) -> dict:
    """Floor-cell distances from start, partner cells treated as walls.

    The dict is a pure function of the geometry, `start` and `blocked`, so
    it is searched once per layout and kept in `layout.routes` under
    `(start, blocked)`. Every caller shares it: read it, never mutate it.
    """
    key = (start, blocked)
    dist = layout.routes.get(key)
    if dist is None:
        dist = {}
        for cell, prev in _search(layout, start, frozenset(), blocked)[0].items():
            dist[cell] = 0 if prev is None else dist[prev] + 1
        layout.routes[key] = dist
    return dist


def _first_move(
    layout: Layout, here: Cell, partner: Cell, cells: tuple
) -> PrimitiveAction:
    """First step of a shortest route from `here` to any of `cells`.

    The partner's cell is a wall and never a goal. When the partner closes
    off every route, step to the first open neighbour instead: standing
    still while the partner occupies a sole approach cell can freeze both
    cooks, each parked on the cell the other needs.
    """
    blocked = frozenset((partner,))
    goals = frozenset(cells) - blocked
    parent, cell = _search(layout, here, goals, blocked)
    if cell is not None:
        while parent[cell] != here:
            cell = parent[cell]
        return MOVE_FOR_DIRECTION[direction_toward(here, cell)]
    for nxt in layout.floor_neighbours[here]:
        if nxt not in blocked:
            return MOVE_FOR_DIRECTION[direction_toward(here, nxt)]
    return _STAY


def _walk(layout: Layout, here: Cell, partner: Cell, cells: tuple) -> PrimitiveAction:
    """`_first_move`, kept in `layout.routes` under `(here, partner, cells)`."""
    key = (here, partner, cells)
    routes = layout.routes
    move = routes.get(key)
    if move is None:
        move = routes[key] = _first_move(layout, here, partner, cells)
    return move


def _face_move(
    layout: Layout,
    here: Cell,
    orientation: Orientation,
    partner: Cell,
    target: Cell,
    wait: bool,
) -> PrimitiveAction:
    """Walk next to target and face it, then interact (or stay if `wait`)."""
    d = direction_toward(here, target)
    if d is None:
        return _walk(layout, here, partner, layout.floor_neighbours[target])
    if orientation is not d:
        return MOVE_FOR_DIRECTION[d]  # target is never floor: turns in place
    return _STAY if wait else _INTERACT


class Policy:
    """Per-episode stateful agent; next_action is called on its turns only."""

    params: tuple = ()  # the spec parameters the kind reads
    required: tuple = ()  # those of them a spec of the kind must give
    counter_cell: Optional[Cell] = None  # a passing counter, never parked on

    def __init__(self, spec: PolicySpec, agent: int, layout: Layout, seed: int) -> None:
        self.spec = spec
        self.agent = agent
        self.layout = layout

    def next_action(self, state: WorldState) -> PrimitiveAction:
        raise NotImplementedError

    # navigation helpers -------------------------------------------------

    def _face(
        self, me: PlayerState, partner: PlayerState, target: Cell, wait: bool = False
    ) -> PrimitiveAction:
        """`_face_move`, kept in `layout.routes` under its five arguments."""
        key = (me.position, me.orientation, partner.position, target, wait)
        routes = self.layout.routes
        move = routes.get(key)
        if move is None:
            move = routes[key] = _face_move(self.layout, *key)
        return move

    def _nearest(
        self, me: PlayerState, partner: PlayerState, candidates: list
    ) -> Optional[Cell]:
        """Closest target cell by current approach distance; (dist, cell) ties."""
        dist = bfs_distances(self.layout, me.position, frozenset((partner.position,)))
        keys = []
        for cell in candidates:
            ds = [dist[a] for a in self.layout.floor_neighbours[cell] if a in dist]
            if ds:
                keys.append((min(ds), cell))
        return min(keys)[1] if keys else None

    def _park_item(
        self, state: WorldState, me: PlayerState, partner: PlayerState
    ) -> PrimitiveAction:
        """Put the held item on the nearest free counter, never `counter_cell`."""
        free = [
            c
            for c in self.layout.counter_cells
            if c not in state.counters and c != self.counter_cell
        ]
        target = self._nearest(me, partner, free)
        if target is None:
            return _STAY
        return self._face(me, partner, target)

    def _serve_or_plate(
        self, state: WorldState, me: PlayerState, partner: PlayerState, pot: PotState
    ) -> PrimitiveAction:
        """Serve a held soup, or bring a held dish to `pot`.

        A dish waits at a cooking pot, and is parked when the pot is filling
        (someone else collected the soup). Reads `serve_cell` and `pot_cell`.
        """
        if me.held is _SOUP:
            return self._face(me, partner, self.serve_cell)
        if pot.phase is _READY:
            return self._face(me, partner, self.pot_cell)
        if pot.phase is _COOKING:
            return self._face(me, partner, self.pot_cell, wait=True)
        return self._park_item(state, me, partner)

    def _pass_onion(
        self, state: WorldState, me: PlayerState, partner: PlayerState
    ) -> PrimitiveAction:
        """Carry the held onion to `counter_cell`; wait there while it is full."""
        wait = self.counter_cell in state.counters
        return self._face(me, partner, self.counter_cell, wait=wait)

    # construction-time validation ---------------------------------------

    def _spawn(self) -> Cell:
        return self.layout.spawns[self.agent - 1][0]

    def _reachable(self, cell: Cell) -> bool:
        """True when some floor cell next to `cell` is reachable from spawn."""
        dist = bfs_distances(self.layout, self._spawn(), frozenset())
        return any(a in dist for a in self.layout.floor_neighbours[cell])

    def _require_reachable(self, cell: Cell, what: str) -> None:
        if not self._reachable(cell):
            raise Unreachable(
                f"agent {self.agent}: {what} at {cell} has no reachable "
                f"approach from spawn {self._spawn()}"
            )

    def _require_station(self, tile: Tile, what: str) -> Cell:
        for cell in self.layout.tile_cells[tile]:
            if self._reachable(cell):
                return cell
        raise Unreachable(
            f"agent {self.agent}: no reachable {what} from spawn {self._spawn()}"
        )

    def _resolve_counter(self) -> None:
        cell = self.spec.counter
        if cell is None:
            for c in self.layout.counter_cells:
                if len(self.layout.floor_neighbours[c]) >= 2:
                    cell = c
                    break
            if cell is None:
                raise Unreachable(
                    f"agent {self.agent}: no counter with two approach sides"
                )
        if not self.layout.in_bounds(cell):
            raise SpecMismatch(
                f"counter cell {cell} is outside the "
                f"{self.layout.width}x{self.layout.height} grid"
            )
        if self.layout.tile_at(cell) is not Tile.COUNTER:
            raise SpecMismatch(f"target cell {cell} is not a counter tile")
        self._require_reachable(cell, "counter")
        self.counter_cell = cell

    def _resolve_pot(self) -> None:
        idx = self.spec.pot or 0
        pots = self.layout.pot_cells
        if not 0 <= idx < len(pots):
            raise SpecMismatch(f"pot index {idx} out of range (layout has {len(pots)})")
        self._require_reachable(pots[idx], "pot")
        self.pot_cell, self.pot_index = pots[idx], idx

    def _resolve_serving(self) -> None:
        self.dish_cell = self._require_station(Tile.DISH_DISPENSER, "dish dispenser")
        self.serve_cell = self._require_station(Tile.SERVING_STATION, "serving station")


class IdlePolicy(Policy):
    def next_action(self, state: WorldState) -> PrimitiveAction:
        return _STAY


class RandomWalkPolicy(Policy):
    def __init__(self, spec, agent, layout, seed) -> None:
        super().__init__(spec, agent, layout, seed)
        self.rng = random.Random(f"{seed}/{agent}/random-walk")

    def next_action(self, state: WorldState) -> PrimitiveAction:
        return self.rng.choice(_ALL_ACTIONS)


class SoloChefPolicy(Policy):
    """Full cook-serve loop alone: onions to the pot, dish, soup, serve.

    Onions come from the nearest source (dispenser or any counter already
    holding one); a held item the pot can no longer take is parked on the
    nearest free counter. `counter_cell` (set by subclasses) keeps a
    passing counter out of both source and parking decisions.
    """

    params = ("pot",)

    def __init__(self, spec, agent, layout, seed) -> None:
        super().__init__(spec, agent, layout, seed)
        self._resolve_pot()
        self._require_station(Tile.ONION_DISPENSER, "onion dispenser")
        self._resolve_serving()

    def _onion_sources(self, state: WorldState) -> list:
        sources = list(self.layout.tile_cells[_ONION_DISPENSER])
        for cell, item in state.counters.items():
            if item is _ONION and cell != self.counter_cell:
                sources.append(cell)
        return sources

    def next_action(self, state: WorldState) -> PrimitiveAction:
        players = state.players
        return self._decide(state, players[self.agent - 1], players[2 - self.agent])

    def _decide(
        self, state: WorldState, me: PlayerState, partner: PlayerState
    ) -> PrimitiveAction:
        pot = state.pots[self.pot_index]
        held = me.held
        if held is _SOUP or held is _DISH:
            return self._serve_or_plate(state, me, partner, pot)
        if held is _ONION:
            if pot.phase is _FILLING:
                return self._face(me, partner, self.pot_cell)
            return self._park_item(state, me, partner)
        if pot.phase is not _FILLING:
            return self._face(me, partner, self.dish_cell)
        target = self._nearest(me, partner, self._onion_sources(state))
        if target is None:
            return _STAY
        return self._face(me, partner, target)


class StochasticPasserPolicy(SoloChefPolicy):
    """SoloChef with a cooperation dial.

    Each onion taken from a dispenser is routed to the passing counter with
    probability p (sticky until the onion leaves the hands), otherwise
    potted directly; onions found on counters are always potted. The dial
    draws from its own seeded stream, so p=0 always pots and plays exactly
    like SoloChef, and p=1 always passes.
    """

    params = ("p", "counter", "pot")
    required = ("p",)

    def __init__(self, spec, agent, layout, seed) -> None:
        super().__init__(spec, agent, layout, seed)
        self._resolve_counter()
        self.rng = random.Random(f"{seed}/{agent}/stochastic-route")
        self._route: Optional[str] = None

    def _update_route(self, me: PlayerState) -> None:
        if me.held is not _ONION:
            self._route = None
            return
        if self._route is not None:
            return
        # The onion came from the cell the cook faces: a cook neither moves
        # nor turns between its own interact and its next turn.
        source = self.layout.faced[me.orientation][me.position]
        from_dispenser = source is not None and source[1] is _ONION_DISPENSER
        passes = from_dispenser and self.rng.random() < self.spec.p
        self._route = "counter" if passes else "pot"

    def next_action(self, state: WorldState) -> PrimitiveAction:
        me, partner = state.players[self.agent - 1], state.players[2 - self.agent]
        self._update_route(me)
        if me.held is _ONION and self._route == "counter":
            return self._pass_onion(state, me, partner)
        return self._decide(state, me, partner)


class PasserPolicy(Policy):
    """Shuttle onions from the dispenser to one counter, nothing else."""

    params = ("counter",)

    def __init__(self, spec, agent, layout, seed) -> None:
        super().__init__(spec, agent, layout, seed)
        self._resolve_counter()
        self.onion_cell = self._require_station(Tile.ONION_DISPENSER, "onion dispenser")

    def next_action(self, state: WorldState) -> PrimitiveAction:
        me, partner = state.players[self.agent - 1], state.players[2 - self.agent]
        if me.held is _ONION:
            return self._pass_onion(state, me, partner)
        return self._face(me, partner, self.onion_cell)


class ReceiverChefPolicy(Policy):
    """Pot onions arriving on the passing counter, then plate and serve.

    While the pot cooks it prefetches a dish; while nothing is available it
    parks one cell off the counter (on the side nearest the pot) so the
    serving lane stays clear.
    """

    params = ("counter", "pot")

    def __init__(self, spec, agent, layout, seed) -> None:
        super().__init__(spec, agent, layout, seed)
        self._resolve_counter()
        self._resolve_pot()
        self._resolve_serving()
        self.park_cell = self._pick_park_cell()

    def _pick_park_cell(self) -> Cell:
        pot_approaches = self.layout.floor_neighbours[self.pot_cell]
        keys = []
        for cell in self.layout.floor_neighbours[self.counter_cell]:
            dist = bfs_distances(self.layout, cell, frozenset())
            ds = [dist[a] for a in pot_approaches if a in dist]
            if ds:
                keys.append((min(ds), cell))
        # Never empty: the counter and the pot each have an approach reachable
        # from spawn, and floor moves are symmetric, so one of these reaches the pot.
        return min(keys)[1]

    def _stand_at_park(self, me: PlayerState, partner: PlayerState) -> PrimitiveAction:
        if me.position != self.park_cell:
            return _walk(self.layout, me.position, partner.position, (self.park_cell,))
        return self._face(me, partner, self.counter_cell, wait=True)

    def next_action(self, state: WorldState) -> PrimitiveAction:
        me, partner = state.players[self.agent - 1], state.players[2 - self.agent]
        pot = state.pots[self.pot_index]
        held = me.held
        if held is _SOUP or held is _DISH:
            return self._serve_or_plate(state, me, partner, pot)
        if held is _ONION:
            if pot.phase is _FILLING:
                return self._face(me, partner, self.pot_cell)
            # pot busy; hold the onion off its approach so the plater fits
            return self._stand_at_park(me, partner)
        if pot.phase is not _FILLING:
            if partner.held is _DISH:
                # partner already plating this soup; keep the lane clear
                return self._stand_at_park(me, partner)
            return self._face(me, partner, self.dish_cell)
        if state.counters.get(self.counter_cell) is _ONION:
            return self._face(me, partner, self.counter_cell)
        return self._stand_at_park(me, partner)


_POLICY_CLASSES = {
    "solo": SoloChefPolicy,
    "idle": IdlePolicy,
    "random": RandomWalkPolicy,
    "passer": PasserPolicy,
    "receiver": ReceiverChefPolicy,
    "stochastic": StochasticPasserPolicy,
}


def make_policy(spec: PolicySpec, agent: int, layout: Layout, seed: int) -> Policy:
    """Instantiate and validate a policy for one agent and layout."""
    return _POLICY_CLASSES[spec.kind](spec, agent, layout, seed)


def run_episode(
    layout: Layout,
    config: EpisodeConfig,
    spec1: PolicySpec,
    spec2: PolicySpec,
    seed: int,
) -> ReplayableTrace:
    """Play one turn-taking episode to termination and return its trace.

    Its steps are the actions the cooks decided, in turn order.
    The trace carries the record of its play (`ReplayableTrace.played`):
    the tuple of events `step` reported, in step order. Moves and stays get
    no entry. It is the record `replay` rebuilds from a file, so analysis
    reads it instead of replaying the trace.
    """
    # Agent 1 moves on even ticks and agent 2 on odd ones.
    decide = (
        make_policy(spec1, 1, layout, seed).next_action,
        make_policy(spec2, 2, layout, seed).next_action,
    )
    state = initial_state(layout, config)
    steps = []
    played = []
    while not is_terminal(state):
        turn_of = state.t & 1
        action = decide[turn_of](state)
        steps.append(action)
        state, _, events = step(state, COOK_TURNS[turn_of][action])
        if events:
            played.append(events[0])
    trace = ReplayableTrace(
        layout_text=layout.text,
        config=config,
        policies=(format_policy_spec(spec1), format_policy_spec(spec2)),
        seed=seed,
        steps=tuple(steps),
    )
    object.__setattr__(trace, "played", tuple(played))
    return trace
