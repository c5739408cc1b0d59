"""Layout parsing and validation."""


import pytest

from conftest import NAV_TRACES
from interdep import (
    MalformedGrid,
    MissingStation,
    SpawnCountError,
    bundled_layout_text,
    load_layout,
    replace,
)
from interdep.gridworld import (
    DIR_VECTOR,
    Item,
    Orientation,
    PlayerState,
    Tile,
    direction_toward,
)

GOOD = "XXPXX\nO1 2D\nXC SX\nXXXXX\n"


def test_parses_dimensions_and_stations():
    layout = load_layout(GOOD)
    assert (layout.width, layout.height) == (5, 4)
    assert layout.pot_cells == ((2, 0),)
    assert layout.counter_cells == ((1, 2),)
    assert layout.tile_cells[Tile.ONION_DISPENSER] == ((0, 1),)
    assert layout.tile_cells[Tile.DISH_DISPENSER] == ((4, 1),)
    assert layout.tile_cells[Tile.SERVING_STATION] == ((3, 2),)


def test_spawns_in_agent_order_facing_north():
    layout = load_layout(GOOD)
    (c1, o1), (c2, o2) = layout.spawns
    assert c1 == (1, 1) and c2 == (3, 1)
    assert o1 is Orientation.N and o2 is Orientation.N


def test_spawn_cells_are_floor():
    layout = load_layout(GOOD)
    for cell, _ in layout.spawns:
        assert layout.tile_at(cell) is Tile.FLOOR


def test_bundled_layout_parses(layout):
    assert (layout.width, layout.height) == (8, 5)
    assert layout.pot_cells == ((2, 0), (3, 0))
    assert layout.counter_cells == ((2, 2), (3, 2), (4, 2), (5, 2))


def test_station_cells_row_major(layout):
    cells = layout.counter_cells
    assert cells == tuple(sorted(cells, key=lambda c: (c[1], c[0])))


def test_text_round_trip():
    layout = load_layout(GOOD)
    assert load_layout(layout.text) == layout


@pytest.mark.parametrize(
    "dst,expected",
    [
        ((3, 1), Orientation.N),
        ((3, 3), Orientation.S),
        ((4, 2), Orientation.E),
        ((2, 2), Orientation.W),
        ((4, 3), None),  # diagonal
        ((3, 2), None),  # the same cell
        ((3, 4), None),  # two cells away
    ],
)
def test_direction_toward(dst, expected):
    assert direction_toward((3, 2), dst) is expected


def test_route_memo_is_outside_identity():
    # The route memo and the record memo alike.
    layout = load_layout(GOOD)
    fresh = load_layout(GOOD)
    layout.routes[((1, 1), frozenset())] = {(1, 1): 0}
    key = (PlayerState, 1, (1, 1), Orientation.N, Item.NOTHING)
    layout.records[key] = PlayerState(*key[1:])
    assert layout == fresh and hash(layout) == hash(fresh)
    assert repr(layout) == repr(fresh)
    replaced = replace(layout)
    assert replaced.routes == {} and replaced.records == {}


@pytest.mark.parametrize(
    "text",
    [GOOD, bundled_layout_text(), *NAV_TRACES["layouts"].values()],
    ids=["mini", "bundled", *NAV_TRACES["layouts"]],
)
def test_faced_table_is_the_grid_arithmetic(text):
    layout = load_layout(text)
    grid = [(x, y) for y in range(layout.height) for x in range(layout.width)]
    assert list(layout.faced) == list(DIR_VECTOR)
    for orient, (dx, dy) in DIR_VECTOR.items():
        assert list(layout.faced[orient]) == grid
        for x, y in grid:
            cell = (x + dx, y + dy)
            expected = (cell, layout.tile_at(cell)) if layout.in_bounds(cell) else None
            assert layout.faced[orient][x, y] == expected, (orient, x, y)
    # A border cell facing out of the grid faces nothing.
    assert layout.faced[Orientation.N][2, 0] is None
    assert layout.faced[Orientation.W][0, 1] is None
    assert layout.faced[Orientation.S][0, layout.height - 1] is None
    assert layout.faced[Orientation.E][layout.width - 1, 1] is None


@pytest.mark.parametrize(
    "text, message",
    [("", "empty layout text"), ("\nXXPXX\n", "empty first row")],
    ids=["empty", "empty-first-row"],
)
def test_empty_layout_rejected(text, message):
    with pytest.raises(MalformedGrid) as caught:
        load_layout(text)
    assert str(caught.value) == message


def test_ragged_rows_rejected():
    with pytest.raises(MalformedGrid):
        load_layout("XXPXX\nO1 2D\nXCSX\nXXXXX\n")


def test_unknown_glyph_rejected():
    with pytest.raises(MalformedGrid):
        load_layout(GOOD.replace("C", "?"))


def test_floor_on_border_rejected():
    with pytest.raises(MalformedGrid):
        load_layout("XXPXX\nO1 2D\nXC SX\nXX XX\n")
    with pytest.raises(MalformedGrid):
        load_layout("XXPXX\nO1 2D\nXC S \nXXXXX\n")


def test_missing_station_rejected():
    # no pot anywhere
    with pytest.raises(MissingStation):
        load_layout("XXXXX\nO1 2D\nXC SX\nXXXXX\n")


def test_spawn_count_enforced():
    # two copies of agent 1, no agent 2
    with pytest.raises(SpawnCountError):
        load_layout("XXPXX\nO1 1D\nXC SX\nXXXXX\n")
    # no spawns at all
    with pytest.raises(SpawnCountError):
        load_layout("XXPXX\nO   D\nXC SX\nXXXXX\n")
