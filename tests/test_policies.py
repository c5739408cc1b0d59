"""Scripted policies: spec strings, navigation, determinism, termination."""

import concurrent.futures
import dataclasses
import hashlib
import io
import itertools
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BASELINE_TEAMS,
    NAV_TRACES,
    PASSER,
    RECEIVER,
    policy_trace,
    stochastic,
)
from interdep import (
    EpisodeConfig,
    InterdepError,
    PrimitiveAction,
    TeamReport,
    Unreachable,
    analyze_trace,
    build_report,
    initial_state,
    load_layout,
)
from interdep.gridworld import Item, Orientation, PlayerState, PotState, Tile
from interdep.metrics import DENOMINATOR_MODES
from interdep.policies import (
    _POLICY_CLASSES,
    PolicySpec,
    _face_move,
    _first_move,
    _search,
    bfs_distances,
    format_policy_spec,
    make_policy,
    parse_policy_spec,
    run_episode,
)
from interdep.interdependence import _start
from interdep.trace_io import read_trace, trace_to_text, write_report

A = PrimitiveAction


# spec strings --------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "solo",
        "idle",
        "random",
        "passer:counter=(4,2)",
        "receiver:counter=(4,2),pot=0",
        "stochastic:p=0.5,counter=(4,2),pot=1",
        "stochastic:p=0.0",
        "stochastic:p=1.0",
    ],
)
def test_spec_round_trip(text):
    spec = parse_policy_spec(text)
    assert parse_policy_spec(format_policy_spec(spec)) == spec


# Values of every type each parameter takes, over their whole range: a spec
# need not name a cell or pot of any layout until a policy is built from it.
SPEC_VALUES = {
    "p": st.floats(0, 1) | st.sampled_from([0, 1]),
    "counter": st.tuples(st.integers(), st.integers()),
    "pot": st.integers(),
}
SPEC_SHAPES = [
    (kind, names)
    for kind, cls in _POLICY_CLASSES.items()
    for n in range(len(cls.params) + 1)
    for names in itertools.combinations(cls.params, n)
    if set(cls.required) <= set(names)  # a spec gives every required parameter
]


@pytest.mark.parametrize(
    "kind,names", SPEC_SHAPES, ids=[":".join((k, *n)) for k, n in SPEC_SHAPES]
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_spec_round_trips(kind, names, data):
    # Every kind with every subset of the parameters it reads.
    values = {name: data.draw(SPEC_VALUES[name], label=name) for name in names}
    spec = PolicySpec(kind, **values)
    assert parse_policy_spec(format_policy_spec(spec)) == spec


def test_spec_kinds_exposed():
    assert set(_POLICY_CLASSES) == {
        "solo",
        "idle",
        "random",
        "passer",
        "receiver",
        "stochastic",
    }


BAD_SPECS = [
    ("chef", None),                      # unknown kind
    ("stochastic", "^stochastic policy requires p=<probability>$"),
    ("stochastic:p=1.5", r"^p=1\.5 outside \[0,1\]$"),
    ("stochastic:p=-0.1", None),
    ("solo:p=0.5", "^policy kind 'solo' takes no p parameter$"),
    ("passer:counter=4,2", None),        # missing parens
    ("receiver:pot=first", "bad pot index 'first' in 'receiver:pot=first'"),
    ("solo:size=3", None),               # unknown parameter
    ("passer:pot=1", None),              # parameters the kind never reads
    ("solo:counter=(4,2)", None),
    ("idle:pot=0", None),
    ("idle:counter=(99,99)", None),
    ("solo:pot=0,pot=1", None),          # a repeated parameter
    ("stochastic:p=0.5,p=1.0", None),
    ("receiver:counter=(4,2),pot=0,counter=(4,2)", None),
    # values that are not numbers name the value and the spec
    ("passer:counter=(4,2,1)", r"bad counter cell '\(4,2,1\)' in 'passer:counter=\(4,2,1\)'$"),
    ("passer:counter=(x,2)", r"bad counter cell '\(x,2\)' in"),
    ("passer:counter=(4,)", r"bad counter cell '\(4,\)' in"),
    ("solo:pot=1.5", "bad pot index '1.5' in 'solo:pot=1.5'$"),
    ("stochastic:p=abc", "bad probability 'abc' in 'stochastic:p=abc'$"),
]


@pytest.mark.parametrize("text,match", BAD_SPECS, ids=[text for text, _ in BAD_SPECS])
def test_bad_specs_rejected(text, match):
    with pytest.raises(ValueError, match=match):
        parse_policy_spec(text)


def test_spec_validation_on_construction():
    with pytest.raises(ValueError):
        PolicySpec(kind="stochastic", p=2.0)
    with pytest.raises(ValueError):
        PolicySpec(kind="solo", p=0.5)
    # A value whose canonical text does not read back equal: the header
    # would name another spec, or one `parse_policy_spec` rejects.
    unreadable = [
        ("stochastic", {"p": True}),
        ("solo", {"pot": True}),
        ("solo", {"pot": 1.0}),
        ("passer", {"counter": [4, 2]}),
        ("passer", {"counter": (4, 2, 1)}),
        ("passer", {"counter": (True, 2)}),
    ]
    for kind, params in unreadable:
        with pytest.raises(ValueError, match="does not read back"):
            PolicySpec(kind, **params)
    # An integer probability reads back as the equal float.
    spec = PolicySpec("stochastic", p=1)
    assert format_policy_spec(spec) == "stochastic:p=1"
    assert parse_policy_spec("stochastic:p=1") == spec


def test_a_kind_requires_only_parameters_its_class_reads():
    # `PolicySpec` reads both from the class (BAD_SPECS checks the texts).
    for kind, cls in _POLICY_CLASSES.items():
        assert set(cls.required) <= set(cls.params), kind
    assert {k for k, cls in _POLICY_CLASSES.items() if cls.required} == {"stochastic"}


# pathfinding ----------------------------------------------------------------


def test_bfs_prefers_deterministic_ties(layout):
    # (6,3) is 7 steps from (1,1) along the top row and along the bottom
    # one. N,S,E,W expansion takes the bottom route, so the walk goes south.
    parent, cell = _search(layout, (1, 1), frozenset({(6, 3)}), frozenset())
    route = [cell]
    while parent[route[-1]] is not None:
        route.append(parent[route[-1]])
    bottom = [(1, 1), (1, 2), (1, 3), (2, 3), (3, 3), (4, 3), (5, 3), (6, 3)]
    assert route[::-1] == bottom
    assert _search(layout, (1, 1), frozenset({(6, 3)}), frozenset()) == (parent, cell)
    # (0,0) is a wall: a partner there blocks nothing.
    assert _first_move(layout, (1, 1), (0, 0), ((6, 3),)) is A.DOWN


def test_bfs_respects_blocked_cells(layout):
    assert _search(layout, (1, 1), frozenset({(2, 1)}), frozenset())[1] == (2, 1)
    assert _search(layout, (1, 1), frozenset({(2, 1)}), frozenset({(2, 1)}))[1] is None
    # A partner on (2,1) sends the walk to (3,1) round the counters.
    assert _first_move(layout, (1, 1), (0, 0), ((3, 1),)) is A.RIGHT
    assert _first_move(layout, (1, 1), (2, 1), ((3, 1),)) is A.DOWN
    # A partner on the only goal: step to the first open neighbour.
    assert _first_move(layout, (1, 1), (2, 1), ((2, 1),)) is A.DOWN


def test_bfs_distances_are_searched_once_per_layout(layout):
    first = bfs_distances(layout, (1, 1), frozenset({(2, 1)}))
    assert bfs_distances(layout, (1, 1), frozenset({(2, 1)})) is first
    assert layout.routes[((1, 1), frozenset({(2, 1)}))] is first


def test_unreachable_station_detected():
    # the pot's only approach cell is walled off
    text = "XXPXX\nO1X2D\nXC SX\nXXXXX\n"
    layout = load_layout(text)
    with pytest.raises(Unreachable):
        make_policy(parse_policy_spec("solo"), 1, layout, seed=1)


# behavior -------------------------------------------------------------------


def test_idle_policy_stays(layout, config):
    trace = run_episode(
        layout,
        EpisodeConfig(horizon=12),
        parse_policy_spec("idle"),
        parse_policy_spec("idle"),
        seed=3,
    )
    assert len(trace.steps) == 12
    assert all(act is A.STAY for act in trace.steps)


def test_episode_trace_header(layout, config, passer_receiver_trace):
    trace = passer_receiver_trace
    assert trace.policies == (PASSER, RECEIVER)
    assert trace.seed == 1
    assert trace.layout_text == layout.text
    assert trace.config == config
    assert all(type(action) is A for action in trace.steps)


@pytest.mark.parametrize("p1,p2", BASELINE_TEAMS, ids=lambda s: s.split(":")[0])
def test_every_played_step_is_the_shared_turn(layout, config, p1, p2):
    # Each step is the action its cook decided, whose shared turn `step`
    # took, and the file form reads back to the same members.
    trace = policy_trace(layout, config, p1, p2, seed=1)
    assert all(type(action) is A for action in trace.steps)
    back = read_trace(io.StringIO(trace_to_text(trace))).steps
    assert len(back) == len(trace.steps)
    assert all(b is a for a, b in zip(trace.steps, back))


def test_run_episode_deterministic(layout, config):
    kw = dict(
        spec1=parse_policy_spec(stochastic(0.5)),
        spec2=parse_policy_spec(RECEIVER),
        seed=11,
    )
    a = run_episode(layout, config, **kw)
    b = run_episode(layout, config, **kw)
    assert a == b


def test_seed_changes_stochastic_route(layout, config):
    traces = {
        run_episode(
            layout,
            config,
            parse_policy_spec(stochastic(0.5)),
            parse_policy_spec(RECEIVER),
            seed,
        ).steps
        for seed in range(1, 6)
    }
    assert len(traces) > 1


def test_stochastic_p0_plays_exactly_like_solo(layout, config):
    solo = run_episode(
        layout, config, parse_policy_spec("solo"), parse_policy_spec(RECEIVER), 5
    )
    p0 = run_episode(
        layout, config, parse_policy_spec(stochastic(0.0)),
        parse_policy_spec(RECEIVER), 5,
    )
    assert solo.steps == p0.steps


def test_random_policy_seeded(layout):
    cfg = EpisodeConfig(horizon=40)
    a = run_episode(
        layout, cfg, parse_policy_spec("random"), parse_policy_spec("random"), 9
    )
    b = run_episode(
        layout, cfg, parse_policy_spec("random"), parse_policy_spec("random"), 9
    )
    assert a.steps == b.steps
    c = run_episode(
        layout, cfg, parse_policy_spec("random"), parse_policy_spec("random"), 10
    )
    assert a.steps != c.steps


PRODUCTIVE = [
    ("solo", "idle"),
    ("solo", "solo"),
    ("solo", RECEIVER),
    (PASSER, RECEIVER),
    (stochastic(0.5), RECEIVER),
    (stochastic(1.0), RECEIVER),
]


@pytest.mark.parametrize("p1,p2", PRODUCTIVE)
def test_productive_pairings_finish_before_horizon(layout, config, p1, p2):
    for seed in (1, 2, 3):
        trace = run_episode(
            layout, config, parse_policy_spec(p1), parse_policy_spec(p2), seed
        )
        ledger = analyze_trace(trace)
        assert not ledger.timed_out, f"{p1} vs {p2} seed {seed} stalled"
        assert ledger.soups_delivered == config.target_soups
        assert ledger.episode_time < config.horizon


@pytest.mark.parametrize(
    "pin",
    NAV_TRACES["traces"],
    ids=lambda pin: f"{pin['layout']}-{pin['p1']}+{pin['p2']}-{pin['seed']}",
)
def test_navigation_matches_pinned_trace(pin):
    layout = load_layout(NAV_TRACES["layouts"][pin["layout"]])
    assert nav_digest(layout, pin) == pin["sha256"]


def nav_digest(layout, pin) -> str:
    trace = run_episode(
        layout,
        EpisodeConfig(horizon=NAV_TRACES["horizon"]),
        parse_policy_spec(pin["p1"]),
        parse_policy_spec(pin["p2"]),
        pin["seed"],
    )
    return hashlib.sha256(trace_to_text(trace).encode()).hexdigest()


def test_warm_route_memo_changes_no_move():
    # One layout per name serves every pin, in pinned order and then in
    # reverse, so most routes come from a memo warmed by other episodes.
    layouts = {name: load_layout(text) for name, text in NAV_TRACES["layouts"].items()}
    pins = NAV_TRACES["traces"]
    for pin in pins + pins[::-1]:
        assert nav_digest(layouts[pin["layout"]], pin) == pin["sha256"], pin
    config = EpisodeConfig(horizon=NAV_TRACES["horizon"])
    for layout in layouts.values():
        floor = len(layout.tile_cells[Tile.FLOOR])
        stations = sum(
            len(cells)
            for tile, cells in layout.tile_cells.items()
            if tile not in (Tile.FLOOR, Tile.WALL)
        )
        assert layout.routes
        # Three key shapes: distances (start, blocked), a walk's first move
        # (own cell, partner cell, target cells) and the move that faces a
        # station (own cell, orientation, partner cell, station, wait).
        checks = {2: bfs_distances, 3: _first_move, 5: _face_move}
        for key, value in layout.routes.items():
            fresh = dataclasses.replace(layout)  # same geometry, empty memo
            assert checks[len(key)](fresh, *key) == value, key
        sizes = [len(key) for key in layout.routes]
        assert sizes.count(2) <= floor * (floor + 1)
        assert 0 < sizes.count(5) <= floor * len(Orientation) * floor * stations * 2
        # The record memo the same episodes filled: every entry is the
        # record its key builds, within the bound its fields give.
        assert layout.records
        for key, value in layout.records.items():
            assert key[0] in (PlayerState, PotState), key
            assert value == key[0](*key[1:]), key
        players = sum(1 for key in layout.records if key[0] is PlayerState)
        pots = len(layout.records) - players
        assert players <= 2 * floor * len(Orientation) * len(Item)
        fills, timers = config.onions_per_soup + 1, config.cook_time + 1
        assert pots <= len(layout.pot_cells) * fills * timers


def test_warm_layout_changes_no_output_byte(layout_text, config):
    # The four baseline teams, played and analyzed twice on one layout:
    # first with its memos empty, then with the memos the first pass
    # filled. Replay steps through the layout it keeps per layout text,
    # emptied for the first pass too.
    def outputs(layout):
        out = []
        for p1, p2 in BASELINE_TEAMS:
            trace = policy_trace(layout, config, p1, p2, seed=1)
            text = trace_to_text(trace)
            out.append(text)
            for analyzed in (trace, read_trace(io.StringIO(text))):
                ledger = analyze_trace(analyzed)
                out.append(json.dumps(ledger.to_dict(), sort_keys=True, indent=2))
                for fmt in ("json", "csv", "markdown"):
                    sink = io.StringIO()
                    write_report(build_report(ledger), fmt, sink)
                    out.append(sink.getvalue())
        return out

    layout = load_layout(layout_text)
    _start.cache_clear()
    cold = outputs(layout)
    assert layout.routes and layout.records
    assert _start(layout.text, config).layout.records
    assert outputs(layout) == cold


def test_threads_sharing_a_layout_play_as_fresh_layouts():
    # More threads than cores and a short switch interval interleave memo
    # misses on the same key; a pure memo still yields every pinned trace.
    layouts = {name: load_layout(text) for name, text in NAV_TRACES["layouts"].items()}
    pins = NAV_TRACES["traces"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(nav_digest, layouts[p["layout"]], p) for p in pins]
            digests = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert digests == [pin["sha256"] for pin in pins]


def test_passing_team_produces_nine_onion_pairs(passer_receiver_trace):
    ledger = analyze_trace(passer_receiver_trace)
    onion = [p for p in ledger.pairs if p.prop.predicate == "onion-on-counter"]
    assert len(onion) == 9
    assert all((p.giver.agent, p.receiver.agent) == (1, 2) for p in onion)


def test_solo_team_produces_no_pairs(solo_idle_trace):
    ledger = analyze_trace(solo_idle_trace)
    assert ledger.pairs == ()
    assert ledger.soups_delivered == 3


def test_policies_only_act_on_their_turn(layout, config):
    state = initial_state(layout, config)
    policy = make_policy(parse_policy_spec("idle"), 2, layout, seed=1)
    assert policy.next_action(state) is A.STAY


# degenerate kitchens ---------------------------------------------------------


@st.composite
def small_kitchens(draw) -> str:
    """An enclosed kitchen of at most 6 x 6: random walls and counters,
    one station of each kind on the border off its corners, and one spawn
    per cook on the inside. A width of 3 is a one-cell corridor."""
    width = draw(st.integers(3, 6))
    height = draw(st.integers(4 if width == 3 else 3, 6))
    cells = [(x, y) for y in range(height) for x in range(width)]
    border = [(x, y) for x, y in cells if x in (0, width - 1) or y in (0, height - 1)]
    inside = [cell for cell in cells if cell not in border]
    grid = {cell: draw(st.sampled_from("XXC")) for cell in border}
    grid |= {cell: draw(st.sampled_from("      XC")) for cell in inside}
    sides = [(x, y) for x, y in border if (x in (0, width - 1)) != (y in (0, height - 1))]
    grid |= dict(zip(draw(st.permutations(sides))[:4], "ODPS"))
    grid |= dict(zip(draw(st.permutations(inside))[:2], "12"))
    return "\n".join("".join(grid[x, y] for x in range(width)) for y in range(height))


@st.composite
def specs_for(draw, layout) -> PolicySpec:
    """Any scripted kind, with or without each parameter it reads; a cell
    anywhere in the kitchen and a pot index that may be past the last."""
    kind = draw(st.sampled_from(sorted(_POLICY_CLASSES)))
    cls = _POLICY_CLASSES[kind]
    values = {
        "p": st.sampled_from([0.0, 0.5, 1.0]),
        "counter": st.tuples(st.integers(0, layout.width - 1), st.integers(0, layout.height - 1)),
        "pot": st.integers(0, 1),
    }
    return PolicySpec(kind, **{
        name: draw(values[name] if name in cls.required else st.none() | values[name])
        for name in cls.params
    })


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    text=small_kitchens(),
    seed=st.integers(1, 1000),
    horizon=st.sampled_from([1, 2, 40, 200]),
    cook_time=st.sampled_from([1, 20]),
    onions=st.sampled_from([1, 3]),
    soups=st.sampled_from([1, 3]),
)
def test_a_degenerate_kitchen_runs_or_fails_typed(
    data, text, seed, horizon, cook_time, onions, soups
):
    # Play, analysis and each report either complete or raise one of the two
    # errors the CLI turns into a single `error:` line, and a report that
    # completes reads back as it was written.
    config = EpisodeConfig(
        target_soups=soups, horizon=horizon, cook_time=cook_time, onions_per_soup=onions
    )
    layout = load_layout(text)
    try:
        specs = data.draw(specs_for(layout)), data.draw(specs_for(layout))
        ledger = analyze_trace(run_episode(layout, config, *specs, seed))
    except (InterdepError, ValueError):
        return
    for mode in DENOMINATOR_MODES:
        try:
            report = build_report(ledger, mode)
        except (InterdepError, ValueError):
            continue
        assert TeamReport.from_dict(json.loads(json.dumps(report.to_dict()))) == report
