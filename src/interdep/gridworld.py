"""Deterministic turn-based two-agent kitchen gridworld.

Two cooks move around a walled kitchen, picking up onions and dishes from
dispensers, filling pots (3 onions per soup), waiting for the cook timer,
plating the soup and delivering it at a serving station. Counters hold at
most one item and double as a passing surface between the agents.

The simulator is strictly turn-based: one turn `(agent, action)` per
timestep, round-robin from agent 1, so turn `t` is agent `1 + t % 2`'s.
All transitions are deterministic, so an episode is fully reproducible
from (layout, config, action sequence).

The state and step records (players, pots, events, world states) are
built by `record`: frozen, slotted dataclasses whose constructor sets each
slot directly, since the analyzer builds several of them per step. They
stay frozen and hashable like any frozen dataclass.

`step` does its geometry by table lookup: a loaded layout keeps the cell
and tile each grid cell faces in each direction (`Layout.faced`), and the
player and pot records a step produces come from the layout's shared
`records` memo, keyed by their field values, instead of being built anew
each turn. Records are frozen, so sharing one is the same as building it
again, and no output depends on the memo.
"""

from __future__ import annotations

import enum
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

from .errors import MalformedGrid, MalformedJointAction, MissingStation, SpawnCountError

Cell = tuple[int, int]  # (x, y); x grows rightward, y grows downward


def record(cls):
    """`dataclass(frozen=True, slots=True)` with a cheaper `__init__`.

    The `__init__` a frozen dataclass generates calls `object.__setattr__`
    once per field, which looks the attribute up by name every time. This
    one calls each slot's member descriptor directly, the same work without
    the lookup. Equality, hashing, repr, `replace`, pickling and the frozen
    assignment guard are the dataclass's own.

    The generated `__init__` only assigns its arguments, so a class that
    needs more of its constructor (`__post_init__`, fields with
    `default_factory`, `init=False` or `kw_only`) is refused.
    """
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"record {cls.__name__} cannot have __post_init__")
    cls = dataclass(frozen=True, slots=True)(cls)
    params, body = [], []
    namespace = {}
    for f in fields(cls):
        if f.default_factory is not MISSING or not f.init or f.kw_only:
            raise TypeError(
                f"record field {cls.__name__}.{f.name} must be a plain init argument"
            )
        namespace[f"_set_{f.name}"] = getattr(cls, f.name).__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"    _set_{f.name}(self, {f.name})")
    source = f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body)
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


class _Symbol(enum.Enum):
    """An enum hashed by identity.

    `Enum.__hash__` is a Python-level `hash(self._name_)`, and every step
    looks members up in dicts (MOVE_DIRECTION, DIR_VECTOR, the item
    tables). Members are singletons that compare by identity, so the
    identity hash agrees with equality. It differs from run to run, so no
    output may depend on the order of a set of members.
    """

    __hash__ = object.__hash__


class Tile(_Symbol):
    FLOOR = " "
    WALL = "X"
    COUNTER = "C"
    ONION_DISPENSER = "O"
    DISH_DISPENSER = "D"
    POT = "P"
    SERVING_STATION = "S"


class Item(_Symbol):
    NOTHING = "nothing"
    ONION = "onion"
    DISH = "dish"
    SOUP = "soup"


class Orientation(_Symbol):
    N = "N"
    S = "S"
    E = "E"
    W = "W"


# Insertion order N, S, E, W is the tie-break of every route search.
DIR_VECTOR = {
    Orientation.N: (0, -1),
    Orientation.S: (0, 1),
    Orientation.E: (1, 0),
    Orientation.W: (-1, 0),
}


class PrimitiveAction(_Symbol):
    STAY = "stay"
    UP = "up"
    DOWN = "down"
    LEFT = "left"
    RIGHT = "right"
    INTERACT = "interact"


MOVE_DIRECTION = {
    PrimitiveAction.UP: Orientation.N,
    PrimitiveAction.DOWN: Orientation.S,
    PrimitiveAction.LEFT: Orientation.W,
    PrimitiveAction.RIGHT: Orientation.E,
}


class PotPhase(_Symbol):
    FILLING = "filling"
    COOKING = "cooking"
    READY = "ready"


# Outcomes of the interact action. Movement and no-ops are labeled
# separately; together these are the exhaustive per-step subtask labels.
PICKUP_ONION_DISPENSER = "pickup-onion-dispenser"
PICKUP_ONION_COUNTER = "pickup-onion-counter"
PICKUP_DISH_DISPENSER = "pickup-dish-dispenser"
PICKUP_DISH_COUNTER = "pickup-dish-counter"
PICKUP_SOUP_COUNTER = "pickup-soup-counter"
PLACE_ONION_POT = "place-onion-pot"
PLACE_ONION_COUNTER = "place-onion-counter"
PLACE_DISH_COUNTER = "place-dish-counter"
PLACE_SOUP_COUNTER = "place-soup-counter"
GET_SOUP_POT = "get-soup-pot"
SERVE_SOUP = "serve-soup"
MOVE = "move"
NOOP = "noop"

INTERACT_SUBTASKS = (
    PICKUP_ONION_DISPENSER,
    PICKUP_ONION_COUNTER,
    PICKUP_DISH_DISPENSER,
    PICKUP_DISH_COUNTER,
    PICKUP_SOUP_COUNTER,
    PLACE_ONION_POT,
    PLACE_ONION_COUNTER,
    PLACE_DISH_COUNTER,
    PLACE_SOUP_COUNTER,
    GET_SOUP_POT,
    SERVE_SOUP,
)

ALL_SUBTASKS = INTERACT_SUBTASKS + (MOVE, NOOP)


@dataclass(frozen=True)
class Layout:
    """Static kitchen geometry parsed from an ASCII grid.

    `floor_neighbours` maps every in-grid cell to the floor cells next to
    it, in N,S,E,W order: `load_layout` builds it once per layout from the
    `faced` cells whose tile is floor. The policies' approach cells, route
    search and blocked-cook sidestep all read it.
    `tile_cells` maps every tile kind to its cells in row-major order, also
    built once, so no reader scans the grid. `faced` maps an
    orientation and an in-grid cell (`faced[orientation][cell]`) to the
    cell it faces and that cell's tile, or None when that cell is off the
    grid; `step` and grounding read it instead of doing the arithmetic.

    `routes` is the policies' route memo, empty when the layout is built.
    A `(start, blocked)` key holds the distance dict of `bfs_distances`; an
    `(own cell, partner cell, target cells)` key holds the first move of a
    cook's walk; an `(own cell, orientation, partner cell, station, wait)`
    key holds the move that faces that station, or interacts with it (stays
    if `wait`) once faced. Each value is a pure function of the geometry
    and its key and is never mutated, so the memo only caches answers: a
    layout shared by any number of episodes or threads plays exactly as a
    fresh one. At most one entry exists per key, so the geometry bounds its
    size. It takes no part in equality, hashing or `repr`, and
    `dataclasses.replace` starts it empty.

    `records` is the same kind of memo for the player and pot records
    `step` produces. A key is the record's class followed by its field
    values, and the value is that record, built once and never mutated, so
    a step that takes its record from the memo returns the very value it
    would have built. It holds at most agents x floor cells x 4
    orientations x items player records, plus pots x fill levels x timer
    values pot records, and follows the rules of `routes`.
    """

    width: int
    height: int
    tiles: tuple[tuple[Tile, ...], ...]  # tiles[y][x]
    spawns: tuple[tuple[Cell, Orientation], tuple[Cell, Orientation]]
    text: str
    floor_neighbours: dict[Cell, tuple[Cell, ...]] = field(compare=False, repr=False)
    tile_cells: dict[Tile, tuple[Cell, ...]] = field(compare=False, repr=False)
    faced: dict[Orientation, dict[Cell, Optional[tuple[Cell, Tile]]]] = field(
        compare=False, repr=False
    )
    routes: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    records: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def tile_at(self, cell: Cell) -> Tile:
        x, y = cell
        return self.tiles[y][x]

    def in_bounds(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    @property
    def counter_cells(self) -> tuple[Cell, ...]:
        return self.tile_cells[Tile.COUNTER]

    @property
    def pot_cells(self) -> tuple[Cell, ...]:
        return self.tile_cells[Tile.POT]


@dataclass(frozen=True)
class EpisodeConfig:
    """Recipe, timing and termination knobs for one episode.

    Every field is an int, and the soup target, horizon, cook time and
    onions per soup are at least 1; anything else raises ValueError.
    """

    target_soups: int = 3
    horizon: int = 1000
    cook_time: int = 20
    reward_per_soup: int = 20
    onions_per_soup: int = 3

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"config {f.name} must be an integer, got {value!r}")
        for name in ("target_soups", "horizon", "cook_time", "onions_per_soup"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"config {name} must be at least 1, got {value}")

    def to_dict(self) -> dict:
        # The class's field table, not vars(self): giving an instance a
        # __dict__ slows every later attribute read on it, and is_terminal
        # reads the shared config on every step.
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: dict) -> "EpisodeConfig":
        """The config `to_dict` wrote: a JSON object of every field and no other key."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {d!r}")
        names = cls.__dataclass_fields__
        wrong = [f"missing {n!r}" for n in names if n not in d]
        wrong += [f"unknown {k!r}" for k in d if k not in names]
        if wrong:
            raise ValueError(f"config keys: {', '.join(wrong)}")
        return cls(**d)


@record
class PlayerState:
    agent_id: int  # 1 or 2
    position: Cell
    orientation: Orientation
    held: Item = Item.NOTHING


@record
class PotState:
    pot_cell: Cell
    onion_count: int = 0
    cook_timer: int = 0
    phase: PotPhase = PotPhase.FILLING


# Each cook's six turns, agent 1's first, keyed by action: the turn
# `(agent, action)` that `step` takes when that cook plays that action.
COOK_TURNS = tuple({a: (i, a) for a in PrimitiveAction} for i in (1, 2))


def single_action(agent: int, action: PrimitiveAction) -> tuple[int, PrimitiveAction]:
    """The shared `(agent, action)` turn that `step` takes.

    Raises MalformedJointAction unless `agent` is 1 or 2 and `action` is a
    PrimitiveAction.
    """
    try:
        if type(agent) is int and agent in (1, 2):  # True, 1.0 and 2.0 equal 1 and 2
            return COOK_TURNS[agent - 1][action]
    except (KeyError, TypeError):
        pass
    raise MalformedJointAction(
        f"no turn-taking action for agent {agent!r} taking {action!r}"
    )


@record
class EnvEvent:
    """What one cook's interact did at step `t`: its subtask and the cell it faced."""

    t: int
    agent: int
    name: str
    cell: Cell


@record
class WorldState:
    layout: Layout = field(compare=False)
    config: EpisodeConfig
    players: tuple[PlayerState, PlayerState]
    # Occupied counters only; absence = empty. A dict does not hash, so the
    # state's hash leaves it out; equal states still hash equal.
    counters: dict[Cell, Item] = field(hash=False)
    pots: tuple[PotState, ...]
    soups_delivered: int = 0
    t: int = 0

    def player(self, agent: int) -> PlayerState:
        return self.players[agent - 1]

    def pot_index_at(self, cell: Cell) -> Optional[int]:
        for i, pot in enumerate(self.pots):
            if pot.pot_cell == cell:
                return i
        return None


_GLYPH_TO_TILE = {t.value: t for t in Tile}
_SPAWN_GLYPHS = ("1", "2")

_REQUIRED_STATIONS = (
    Tile.ONION_DISPENSER,
    Tile.DISH_DISPENSER,
    Tile.POT,
    Tile.SERVING_STATION,
)


def load_layout(text: str) -> Layout:
    """Parse an ASCII kitchen grid.

    Legend: X wall, space floor, C counter, O onion dispenser, D dish
    dispenser, P pot, S serving station, 1/2 agent spawn on floor. The grid
    must be rectangular, enclosed by non-floor tiles, contain at least one
    of each station type, and exactly one spawn glyph per agent.
    """
    lines = text.rstrip("\n").split("\n")
    if not lines or not any(line for line in lines):
        raise MalformedGrid("empty layout text")
    width = len(lines[0])
    if width == 0:
        raise MalformedGrid("empty first row")
    for i, line in enumerate(lines):
        if len(line) != width:
            raise MalformedGrid(
                f"ragged grid: row {i} has length {len(line)}, expected {width}"
            )

    rows: list[tuple[Tile, ...]] = []
    spawn_cells: dict[str, list[Cell]] = {g: [] for g in _SPAWN_GLYPHS}
    for y, line in enumerate(lines):
        row: list[Tile] = []
        for x, glyph in enumerate(line):
            if glyph in _SPAWN_GLYPHS:
                spawn_cells[glyph].append((x, y))
                row.append(Tile.FLOOR)
            elif glyph in _GLYPH_TO_TILE:
                row.append(_GLYPH_TO_TILE[glyph])
            else:
                raise MalformedGrid(f"unknown glyph {glyph!r} at ({x},{y})")
        rows.append(tuple(row))
    tiles = tuple(rows)
    height = len(tiles)
    cells = [(x, y) for y in range(height) for x in range(width)]
    tile_cells = {
        tile: tuple((x, y) for x, y in cells if tiles[y][x] is tile) for tile in Tile
    }
    faced = {
        orient: {
            (x, y): (
                ((x + dx, y + dy), tiles[y + dy][x + dx])
                if 0 <= x + dx < width and 0 <= y + dy < height
                else None
            )
            for x, y in cells
        }
        for orient, (dx, dy) in DIR_VECTOR.items()
    }
    layout = Layout(
        width=width,
        height=height,
        tiles=tiles,
        spawns=_check_spawns(spawn_cells),
        text="\n".join(lines),
        floor_neighbours={
            cell: tuple(
                nb
                for nb, tile in filter(None, (f[cell] for f in faced.values()))
                if tile is Tile.FLOOR
            )
            for cell in cells
        },
        tile_cells=tile_cells,
        faced=faced,
    )
    _check_stations(layout)
    _check_enclosure(layout)
    return layout


def _check_stations(layout: Layout) -> None:
    for station in _REQUIRED_STATIONS:
        if not layout.tile_cells[station]:
            raise MissingStation(f"layout has no {station.name} tile")


def _check_spawns(
    spawn_cells: dict[str, list[Cell]],
) -> tuple[tuple[Cell, Orientation], tuple[Cell, Orientation]]:
    total = sum(len(v) for v in spawn_cells.values())
    if total != 2 or any(len(v) != 1 for v in spawn_cells.values()):
        raise SpawnCountError(
            f"expected exactly one spawn glyph per agent, found {total} spawn cells"
        )
    # Both agents start facing north; distinctness is implied by one glyph
    # per grid cell.
    return tuple((spawn_cells[g][0], Orientation.N) for g in _SPAWN_GLYPHS)


def _check_enclosure(layout: Layout) -> None:
    for x in range(layout.width):
        for y in (0, layout.height - 1):
            if layout.tiles[y][x] is Tile.FLOOR:
                raise MalformedGrid(f"grid not enclosed: floor on border at ({x},{y})")
    for y in range(layout.height):
        for x in (0, layout.width - 1):
            if layout.tiles[y][x] is Tile.FLOOR:
                raise MalformedGrid(f"grid not enclosed: floor on border at ({x},{y})")


def initial_state(layout: Layout, config: EpisodeConfig) -> WorldState:
    """World at t=0: agents at their spawns, empty hands, idle pots."""
    players = tuple(
        PlayerState(agent_id=i + 1, position=cell, orientation=orient)
        for i, (cell, orient) in enumerate(layout.spawns)
    )
    pots = tuple(PotState(pot_cell=cell) for cell in layout.pot_cells)
    return WorldState(
        layout=layout,
        config=config,
        players=players,  # type: ignore[arg-type]
        counters={},
        pots=pots,
    )


def is_terminal(state: WorldState) -> bool:
    """True once the soup target is met or the horizon is exhausted."""
    cfg = state.config
    return state.soups_delivered >= cfg.target_soups or state.t >= cfg.horizon


# The members `step` compares against, bound to module names once. On
# Python 3.11 reading a member through its class (`Tile.FLOOR`) goes
# through EnumType's `__getattr__` hook and costs about 0.1 us, several
# times per step.
_FLOOR, _COUNTER, _POT = Tile.FLOOR, Tile.COUNTER, Tile.POT
_ONION_DISPENSER, _DISH_DISPENSER = Tile.ONION_DISPENSER, Tile.DISH_DISPENSER
_SERVING_STATION = Tile.SERVING_STATION
_NOTHING, _ONION, _DISH, _SOUP = Item.NOTHING, Item.ONION, Item.DISH, Item.SOUP
_FILLING, _COOKING, _READY = PotPhase.FILLING, PotPhase.COOKING, PotPhase.READY
_INTERACT = PrimitiveAction.INTERACT


def _shared(layout: Layout, key: tuple):
    """The record `key[0](*key[1:])`, built once per layout (`Layout.records`)."""
    records = layout.records
    shared = records.get(key)
    if shared is None:
        shared = records.setdefault(key, key[0](*key[1:]))
    return shared


def _holding(layout: Layout, me: PlayerState, item: Item) -> PlayerState:
    key = (PlayerState, me.agent_id, me.position, me.orientation, item)
    return _shared(layout, key)


# The subtask of taking each item off a counter, and of putting it on one.
_PICKUP_FROM_COUNTER = {
    Item.ONION: PICKUP_ONION_COUNTER,
    Item.DISH: PICKUP_DISH_COUNTER,
    Item.SOUP: PICKUP_SOUP_COUNTER,
}
_PLACE_ON_COUNTER = {
    Item.ONION: PLACE_ONION_COUNTER,
    Item.DISH: PLACE_DISH_COUNTER,
    Item.SOUP: PLACE_SOUP_COUNTER,
}


def _resolve_interact(state: WorldState, me: PlayerState, target: Cell, tile: Tile):
    """Work out what interact does from (held item, faced tile, pot phase).

    `target` is the faced cell and `tile` its tile. Returns (subtask,
    new_player, counters, pots). The counters and pots are the state's own
    unless the interact changed them; a soup was served exactly when the
    subtask is serve-soup. Incompatible combinations are silent no-ops.
    """
    layout = state.layout
    counters = state.counters
    pots = state.pots
    held = me.held

    if tile is _ONION_DISPENSER and held is _NOTHING:
        return PICKUP_ONION_DISPENSER, _holding(layout, me, _ONION), counters, pots

    if tile is _DISH_DISPENSER and held is _NOTHING:
        return PICKUP_DISH_DISPENSER, _holding(layout, me, _DISH), counters, pots

    if tile is _COUNTER:
        on_counter = counters.get(target)
        if held is _NOTHING and on_counter is not None:
            new_counters = dict(counters)
            del new_counters[target]
            subtask = _PICKUP_FROM_COUNTER[on_counter]
            return subtask, _holding(layout, me, on_counter), new_counters, pots
        if held is not _NOTHING and on_counter is None:
            new_counters = dict(counters)
            new_counters[target] = held
            subtask = _PLACE_ON_COUNTER[held]
            return subtask, _holding(layout, me, _NOTHING), new_counters, pots
        return NOOP, me, counters, pots

    if tile is _POT:
        idx = state.pot_index_at(target)
        assert idx is not None
        pot = pots[idx]
        if held is _ONION and pot.phase is _FILLING:
            count = pot.onion_count + 1
            if count == state.config.onions_per_soup:
                timer, phase = state.config.cook_time, _COOKING
            else:
                timer, phase = 0, _FILLING
            new_pot = _shared(layout, (PotState, target, count, timer, phase))
            new_pots = pots[:idx] + (new_pot,) + pots[idx + 1 :]
            new_me = _holding(layout, me, _NOTHING)
            return PLACE_ONION_POT, new_me, counters, new_pots
        if held is _DISH and pot.phase is _READY:
            emptied = _shared(layout, (PotState, target, 0, 0, _FILLING))
            new_pots = pots[:idx] + (emptied,) + pots[idx + 1 :]
            return GET_SOUP_POT, _holding(layout, me, _SOUP), counters, new_pots
        return NOOP, me, counters, pots

    if tile is _SERVING_STATION and held is _SOUP:
        return SERVE_SOUP, _holding(layout, me, _NOTHING), counters, pots

    return NOOP, me, counters, pots


def _tick_pots(state: WorldState, pots: tuple[PotState, ...]) -> tuple[PotState, ...]:
    """Count down the pots of `pots` that were already cooking in `state`.

    A pot the action just filled is cooking in `pots` but not in `state`,
    so it starts counting down on the next turn.
    """
    layout = state.layout
    ticked: list[PotState] = []
    for before, pot in zip(state.pots, pots):
        if before.phase is _COOKING and pot.phase is _COOKING:
            cell, count, timer = pot.pot_cell, pot.onion_count, pot.cook_timer - 1
            phase = _COOKING if timer else _READY
            pot = _shared(layout, (PotState, cell, count, timer, phase))
        ticked.append(pot)
    return tuple(ticked)


def step(
    state: WorldState, turn: tuple[int, PrimitiveAction]
) -> tuple[WorldState, int, list[EnvEvent]]:
    """Advance the world by one turn, an `(agent, action)` from `single_action`.

    The acting agent's action resolves against the current state, then pots
    that were already cooking tick down by one (flipping to ready at zero),
    then the clock advances. Blocked moves keep the position but still turn
    the agent toward the attempted direction. `events` is the acting cook's
    one event if its interact did something, and empty otherwise.

    `state` is never mutated. The successor shares with it the parts the
    turn left unchanged (the counters dict, the pots tuple, the players
    tuple), so no caller may write into a state's counters either. Its
    player and pot records come from the layout's `records` memo.
    """
    agent, action = turn
    layout = state.layout
    players = state.players
    me = players[agent - 1]

    events: list[EnvEvent] = []
    reward = 0
    counters = state.counters
    pots = state.pots
    delivered = state.soups_delivered

    direction = MOVE_DIRECTION.get(action)
    if direction is not None:
        # Blocked by anything non-floor and by the partner; orientation always
        # follows the attempted direction.
        cell = me.position
        faced = layout.faced[direction][cell]
        if (
            faced is not None
            and faced[1] is _FLOOR
            and faced[0] != players[2 - agent].position
        ):
            cell = faced[0]
        key = (PlayerState, me.agent_id, cell, direction, me.held)
        me = layout.records.get(key) or _shared(layout, key)
        players = (me, players[1]) if agent == 1 else (players[0], me)
    elif action is _INTERACT:
        # Facing off the grid, an interact does nothing.
        faced = layout.faced[me.orientation][me.position]
        if faced is not None:
            target, tile = faced
            subtask, me, counters, pots = _resolve_interact(state, me, target, tile)
            if subtask != NOOP:
                players = (me, players[1]) if agent == 1 else (players[0], me)
                events.append(EnvEvent(state.t, agent, subtask, target))
            if subtask == SERVE_SOUP:
                delivered += 1
                reward = state.config.reward_per_soup
    # STAY changes nothing.

    # Most turns no pot cooks, and then the pots pass through untouched.
    for pot in state.pots:
        if pot.phase is _COOKING:
            pots = _tick_pots(state, pots)
            break

    next_state = WorldState(
        layout,
        state.config,
        players,
        counters,
        pots,
        delivered,
        state.t + 1,
    )
    return next_state, reward, events


_DIRECTION_OF_VECTOR = {vec: orient for orient, vec in DIR_VECTOR.items()}


def direction_toward(src: Cell, dst: Cell) -> Optional[Orientation]:
    """Orientation pointing from src to an orthogonally adjacent dst.

    None when dst is src or not next to it.
    """
    return _DIRECTION_OF_VECTOR.get((dst[0] - src[0], dst[1] - src[1]))


MOVE_FOR_DIRECTION = {v: k for k, v in MOVE_DIRECTION.items()}
