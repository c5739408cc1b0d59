"""Simulator dynamics: movement, interactions, pot timing, conservation."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MINI_LAYOUT, advance, turns
from interdep import (
    EpisodeConfig,
    JointAction,
    MalformedJointAction,
    PrimitiveAction,
    initial_state,
    is_terminal,
    load_layout,
    single_action,
    step,
)
from interdep.gridworld import (
    EVENT_SOUP_READY,
    GET_SOUP_POT,
    PICKUP_ONION_DISPENSER,
    PLACE_ONION_POT,
    SERVE_SOUP,
    Item,
    Orientation,
    PotPhase,
    check_invariants,
)
from oracle_utils import onion_imbalance

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


def test_joint_action_requires_exactly_one_actor():
    with pytest.raises(MalformedJointAction):
        JointAction(None, None).acting_agent()
    with pytest.raises(MalformedJointAction):
        JointAction(A.UP, A.UP).acting_agent()
    assert single_action(1, A.STAY).acting_agent() == 1
    assert single_action(2, A.UP).acting_agent() == 2


def test_pickup_from_dispenser(mini_state):
    state, _ = advance(mini_state, turns([A.LEFT, A.INTERACT]))
    assert state.player(1).held is Item.ONION
    assert state.onions_dispensed == 1


def test_interact_facing_nothing_is_noop(mini_state):
    state, _ = advance(mini_state, turns([A.RIGHT, A.INTERACT]))
    # facing east into open floor: nothing happens
    assert state.player(1).held is Item.NOTHING
    check_invariants(state)


def test_pickup_with_full_hands_is_noop(mini_state):
    state, _ = advance(
        mini_state, turns([A.LEFT, A.INTERACT, A.INTERACT])
    )
    assert state.player(1).held is Item.ONION
    assert state.onions_dispensed == 1


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
    assert [e.name for e in ev2] == [EVENT_SOUP_READY]


def test_pot_does_not_tick_on_its_starting_step(mini_state):
    # the step that adds the third onion must not also count down
    state, events = advance(mini_state, turns(ONE_ONION * 3)[:-1])
    assert state.pots[0].cook_timer == 3
    assert all(e.name != EVENT_SOUP_READY for e in events)


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
    # from_dict must not truncate 2.7 to 2.
    with pytest.raises(ValueError):
        EpisodeConfig(**{field: value})
    with pytest.raises(ValueError):
        EpisodeConfig.from_dict({field: value})


def test_determinism_same_script_same_state(mini_state):
    script = turns(ONE_ONION * 2)
    a, _ = advance(mini_state, script)
    b, _ = advance(mini_state, script)
    assert a == b


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 120))
def test_random_walk_preserves_invariants(seed, n):
    import random

    rng = random.Random(seed)
    layout = load_layout(MINI_LAYOUT)
    state = initial_state(layout, EpisodeConfig(cook_time=3, horizon=300))
    acts = list(PrimitiveAction)
    for i in range(n):
        if is_terminal(state):
            break
        agent = 1 + (i % 2)
        act = rng.choice(acts)
        state, reward, _ = step(state, single_action(agent, act))
        assert reward >= 0
        assert state.t == i + 1
        assert onion_imbalance(state) == 0
        check_invariants(state)
