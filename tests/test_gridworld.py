"""Simulator dynamics: movement, interactions, pot timing, conservation."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MINI_LAYOUT, NAV_TRACES, advance, turns
from interdep import (
    EpisodeConfig,
    bundled_layout_text,
    MalformedJointAction,
    PrimitiveAction,
    initial_state,
    is_terminal,
    load_layout,
    single_action,
    step,
)
from interdep.gridworld import (
    PICKUP_ONION_DISPENSER,
    PLACE_ONION_POT,
    Item,
    Orientation,
    PlayerState,
    PotPhase,
    PotState,
)
from oracle_utils import check_invariants, onion_imbalance, reference_step

A = PrimitiveAction


@pytest.fixture
def mini_state(mini_layout):
    return initial_state(mini_layout, EpisodeConfig(cook_time=3))


def test_initial_state(mini_state):
    p1, p2 = mini_state.players
    assert (p1.position, p2.position) == ((1, 1), (3, 1))
    assert p1.held is Item.NOTHING and p2.held is Item.NOTHING
    assert mini_state.t == 0 and mini_state.soups_delivered == 0
    assert all(p.phase is PotPhase.FILLING for p in mini_state.pots)
    check_invariants(mini_state)


def test_move_into_wall_turns_in_place(mini_state):
    nxt, _, _ = step(mini_state, single_action(1, A.UP))
    me = nxt.player(1)
    assert me.position == (1, 1)
    assert me.orientation is Orientation.N
    assert nxt.t == 1


def test_move_onto_floor_moves_and_faces(mini_state):
    nxt, _, _ = step(mini_state, single_action(1, A.RIGHT))
    me = nxt.player(1)
    assert me.position == (2, 1)
    assert me.orientation is Orientation.E


def test_move_onto_partner_blocked(mini_state):
    state, _ = advance(mini_state, [(1, A.RIGHT), (2, A.LEFT)])
    p2 = state.player(2)
    assert p2.position == (3, 1)  # (2,1) already taken by agent 1
    assert p2.orientation is Orientation.W


def test_stay_keeps_player_unchanged(mini_state):
    nxt, _, _ = step(mini_state, single_action(1, A.STAY))
    assert nxt.player(1) == mini_state.player(1)
    assert nxt.t == 1


@pytest.mark.parametrize(
    "agent, action",
    [
        (0, A.UP),
        (3, A.UP),
        (True, A.UP),
        (1.0, A.UP),
        (2.0, A.UP),
        (1, "up"),
        (2, None),
        (1, [A.UP]),
    ],
    ids=[
        "agent-0",
        "agent-3",
        "agent-true",
        "agent-1.0",
        "agent-2.0",
        "action-name",
        "action-none",
        "action-list",
    ],
)
def test_single_action_rejects_unknown_agent_or_action(agent, action):
    # Agent 0 used to make agent 2 act, and an action name used to stay;
    # True, 1.0 and 2.0 used to act as agents 1 and 2.
    with pytest.raises(MalformedJointAction):
        single_action(agent, action)


def test_single_action_shares_one_pair_per_turn():
    for agent in (1, 2):
        for action in A:
            turn = single_action(agent, action)
            assert turn is single_action(agent, action)
            assert turn == (agent, action) and type(turn) is tuple


def test_pickup_from_dispenser(mini_state):
    state, events = advance(mini_state, turns([A.LEFT, A.INTERACT]))
    assert state.player(1).held is Item.ONION
    assert [e.name for e in events] == [PICKUP_ONION_DISPENSER]


def test_interact_facing_nothing_is_noop(mini_state):
    state, _ = advance(mini_state, turns([A.RIGHT, A.INTERACT]))
    # facing east into open floor: nothing happens
    assert state.player(1).held is Item.NOTHING
    check_invariants(state)


def test_pickup_with_full_hands_is_noop(mini_state):
    state, events = advance(
        mini_state, turns([A.LEFT, A.INTERACT, A.INTERACT])
    )
    assert state.player(1).held is Item.ONION
    assert [e.name for e in events] == [PICKUP_ONION_DISPENSER]


ONE_ONION = [A.LEFT, A.INTERACT, A.RIGHT, A.UP, A.INTERACT]


def test_place_onion_in_pot(mini_state):
    state, _ = advance(mini_state, turns(ONE_ONION))
    pot = state.pots[0]
    assert pot.onion_count == 1 and pot.phase is PotPhase.FILLING
    assert state.player(1).held is Item.NOTHING


def test_third_onion_starts_cook(mini_state):
    # stop right at the placing step, before any further step can tick
    state, _ = advance(mini_state, turns(ONE_ONION * 3)[:-1])
    pot = state.pots[0]
    assert pot.phase is PotPhase.COOKING
    assert pot.onion_count == 3
    assert pot.cook_timer == 3


def test_cook_countdown_and_ready_event(mini_state):
    state, _ = advance(mini_state, turns(ONE_ONION * 3)[:-1])
    # cook_time=3: the pot ticks on each subsequent step, whoever acts
    state, ev1 = advance(state, [(2, A.STAY), (1, A.STAY)])
    assert state.pots[0].phase is PotPhase.COOKING
    assert state.pots[0].cook_timer == 1
    assert not ev1
    state, ev2 = advance(state, [(2, A.STAY)])
    assert state.pots[0].phase is PotPhase.READY
    # Turning ready is the pot's phase, not an event: the stay has none.
    assert not ev2


def test_pot_does_not_tick_on_its_starting_step(mini_state):
    # the step that adds the third onion must not also count down
    state, events = advance(mini_state, turns(ONE_ONION * 3)[:-1])
    assert state.pots[0].cook_timer == 3
    assert state.pots[0].phase is PotPhase.COOKING
    assert [e.name for e in events][-1] == PLACE_ONION_POT


def test_full_delivery_cycle(mini_state):
    state, _ = advance(mini_state, turns(ONE_ONION * 3))
    # agent 2 fetches a dish while the soup cooks
    state, _ = advance(state, [(1, A.LEFT), (2, A.RIGHT), (1, A.STAY), (2, A.INTERACT)])
    assert state.player(2).held is Item.DISH
    assert state.pots[0].phase is PotPhase.READY
    state, _ = advance(state, [(1, A.STAY), (2, A.LEFT)])
    assert state.player(2).position == (2, 1)
    state, _ = advance(state, [(1, A.STAY), (2, A.UP), (1, A.STAY), (2, A.INTERACT)])
    assert state.player(2).held is Item.SOUP
    assert state.pots[0].phase is PotPhase.FILLING
    assert state.pots[0].onion_count == 0
    # walk down and serve
    state, _ = advance(state, [(1, A.STAY), (2, A.DOWN), (1, A.STAY), (2, A.RIGHT)])
    prev_t = state.t
    state, reward, _ = step(state, single_action(2, A.INTERACT))
    assert state.soups_delivered == 1
    assert reward == state.config.reward_per_soup
    assert state.t == prev_t + 1
    check_invariants(state)


def test_get_soup_before_ready_is_noop(mini_state):
    state, _ = advance(mini_state, turns(ONE_ONION * 3))
    # agent 1 returns with a... nothing; interact at cooking pot does nothing
    state, _ = advance(state, [(1, A.INTERACT)])
    assert state.player(1).held is Item.NOTHING
    assert state.pots[0].phase is PotPhase.COOKING


def test_serve_requires_soup(mini_state):
    state, _ = advance(mini_state, [(1, A.STAY), (2, A.DOWN)])
    p2 = state.player(2)
    assert p2.position == (3, 1) and p2.orientation is Orientation.S
    state, _ = advance(state, [(1, A.STAY), (2, A.INTERACT)])
    assert state.soups_delivered == 0


def test_terminal_at_target_soups(mini_layout):
    cfg = EpisodeConfig(cook_time=3, target_soups=1)
    state = initial_state(mini_layout, cfg)
    assert not is_terminal(state)
    state = dataclasses.replace(state, soups_delivered=1)
    assert is_terminal(state)


def test_terminal_at_horizon(mini_layout):
    cfg = EpisodeConfig(horizon=4)
    state = initial_state(mini_layout, cfg)
    for _ in range(4):
        assert not is_terminal(state)
        agent = 1 + (state.t % 2)
        state, _, _ = step(state, single_action(agent, A.STAY))
    assert is_terminal(state)


@pytest.mark.parametrize(
    "field, value",
    [
        ("cook_time", 0),
        ("onions_per_soup", 0),
        ("target_soups", 0),
        ("horizon", 0),
        ("horizon", -5),
        ("cook_time", 2.7),
        ("target_soups", True),
        ("reward_per_soup", "20"),
    ],
)
def test_config_rejects_values_no_episode_can_use(field, value):
    # A zero cook time would leave a pot cooking forever; a zero target or
    # horizon yields an empty trace that only fails later, at analysis;
    # from_dict must not truncate 2.7 to 2. The dict is complete, so it is
    # the value that is refused, not a missing key.
    with pytest.raises(ValueError):
        EpisodeConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        EpisodeConfig.from_dict({**EpisodeConfig().to_dict(), field: value})


def test_config_from_dict_requires_exactly_the_fields():
    full = EpisodeConfig(horizon=50).to_dict()
    assert EpisodeConfig.from_dict(full) == EpisodeConfig(horizon=50)
    # A missing key used to take its default without a word.
    partial = {k: v for k, v in full.items() if k != "reward_per_soup"}
    with pytest.raises(ValueError, match="missing 'reward_per_soup'"):
        EpisodeConfig.from_dict(partial)
    with pytest.raises(ValueError, match="unknown 'speed'"):
        EpisodeConfig.from_dict({**full, "speed": 2})
    renamed = {("horizn" if k == "horizon" else k): v for k, v in full.items()}
    with pytest.raises(ValueError, match="missing 'horizon', unknown 'horizn'"):
        EpisodeConfig.from_dict(renamed)


def test_determinism_same_script_same_state(mini_state):
    script = turns(ONE_ONION * 2)
    a, _ = advance(mini_state, script)
    b, _ = advance(mini_state, script)
    assert a == b


def test_equal_states_hash_equal(mini_state):
    # Fetch an onion and put it on the counter at (1,2).
    script = turns([A.LEFT, A.INTERACT, A.DOWN, A.INTERACT])
    a, _ = advance(mini_state, script)
    b, _ = advance(mini_state, script)
    assert a.counters and a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b, dataclasses.replace(a, counters=dict(a.counters))}) == 1
    # The hash leaves the counters out; equality still reads them.
    emptied = dataclasses.replace(a, counters={})
    assert emptied != a
    assert len({a, emptied}) == 2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 120))
def test_random_walk_preserves_invariants(seed, n):
    rng = random.Random(seed)
    layout = load_layout(MINI_LAYOUT)
    state = initial_state(layout, EpisodeConfig(cook_time=3, horizon=300))
    acts = list(PrimitiveAction)
    dispensed = 0
    for i in range(n):
        if is_terminal(state):
            break
        agent = 1 + (i % 2)
        act = rng.choice(acts)
        state, reward, events = step(state, single_action(agent, act))
        dispensed += sum(e.name == PICKUP_ONION_DISPENSER for e in events)
        assert reward >= 0
        assert state.t == i + 1
        assert onion_imbalance(state, dispensed) == 0
        check_invariants(state)


def _snapshot(state):
    # Values, not references: a write into a shared object shows as a change.
    return (
        tuple(map(dataclasses.astuple, state.players)),
        dict(state.counters),
        tuple(map(dataclasses.astuple, state.pots)),
        state.t,
        state.soups_delivered,
    )


@settings(max_examples=60, deadline=None)
@given(
    text=st.sampled_from([MINI_LAYOUT, bundled_layout_text()]),
    seed=st.integers(0, 10_000),
    n=st.integers(1, 300),
)
def test_step_never_mutates_its_input(text, seed, n):
    # The successor shares the counters dict and the pots and players
    # tuples with its input when the turn leaves them alone; a step that
    # wrote into a shared part would change the state it was given. One
    # onion per soup lets random play reach cooking and ready pots.
    rng = random.Random(seed)
    config = EpisodeConfig(cook_time=3, horizon=400, onions_per_soup=1)
    state = initial_state(load_layout(text), config)
    moves = [a for a in PrimitiveAction if a is not A.INTERACT]
    for i in range(n):
        if is_terminal(state):
            break
        act = A.INTERACT if rng.random() < 0.5 else rng.choice(moves)
        before = _snapshot(state)
        nxt, _, _ = step(state, single_action(1 + i % 2, act))
        assert _snapshot(state) == before
        if nxt.counters != before[1]:
            assert nxt.counters is not state.counters
        else:
            assert nxt.counters is state.counters
        check_invariants(nxt)
        state = nxt


@settings(max_examples=60, deadline=None)
@given(
    text=st.sampled_from(
        [MINI_LAYOUT, *(NAV_TRACES["layouts"][k] for k in ("counter_circuit", "corridor"))]
    ),
    onions=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    n=st.integers(1, 400),
)
def test_step_agrees_with_the_reference_transition(text, onions, seed, n):
    # Random play, half of it interacts, checked turn by turn against a
    # transition re-derived from the grid with fresh records.
    rng = random.Random(seed)
    config = EpisodeConfig(cook_time=3, horizon=400, onions_per_soup=onions)
    state = initial_state(load_layout(text), config)
    moves = [a for a in PrimitiveAction if a is not A.INTERACT]
    for i in range(n):
        if is_terminal(state):
            break
        act = A.INTERACT if rng.random() < 0.5 else rng.choice(moves)
        turn = single_action(1 + i % 2, act)
        got = step(state, turn)
        assert got == reference_step(state, turn), (i, act)
        state = got[0]


@pytest.mark.parametrize("timer", [1, 2])
def test_two_pots_tick_only_if_cooking_before_the_action(layout, timer):
    # Pot 0 cooks while agent 1 adds the last onion to pot 1 in the same
    # step: pot 0 ticks, pot 1 starts at cook_time and ticks from the next.
    config = EpisodeConfig()
    start = initial_state(layout, config)
    state = dataclasses.replace(
        start,
        players=(PlayerState(1, (3, 1), Orientation.N, Item.ONION), start.player(2)),
        pots=(
            PotState((2, 0), 3, timer, PotPhase.COOKING),
            PotState((3, 0), 2),
        ),
    )
    check_invariants(state)
    state, _, events = step(state, single_action(1, A.INTERACT))
    assert state.pots[1] == PotState((3, 0), 3, config.cook_time, PotPhase.COOKING)
    phase = PotPhase.READY if timer == 1 else PotPhase.COOKING
    assert state.pots[0] == PotState((2, 0), 3, timer - 1, phase)
    # The cook's placement is the step's one event, whether pot 0 turned
    # ready in it or not.
    assert [(e.agent, e.name, e.cell) for e in events] == [(1, PLACE_ONION_POT, (3, 0))]
    state, _, _ = step(state, single_action(2, A.STAY))
    assert state.pots[1].cook_timer == config.cook_time - 1
