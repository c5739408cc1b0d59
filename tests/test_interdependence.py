"""Schema derivation, subtask roles and pair extraction."""

import dataclasses
import hashlib
import importlib.util
import io
import itertools
import json
import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FORCED_COORDINATION,
    MINI_LAYOUT,
    PASSER,
    RECEIVER,
    external_trace,
    interact_states,
    play,
    policy_trace,
    stochastic,
)
from interdep import (
    EmptyTrace,
    EpisodeConfig,
    MalformedJointAction,
    PrimitiveAction,
    ReplayMismatch,
    analyze_trace,
    build_interaction_schema,
    build_report,
    bundled_layout_text,
    initial_state,
    load_layout,
    match,
    replay,
    single_action,
    step,
)
from interdep.gridworld import (
    GET_SOUP_POT,
    INTERACT_SUBTASKS,
    MOVE,
    MOVE_DIRECTION,
    NOOP,
    PICKUP_ONION_COUNTER,
    PICKUP_ONION_DISPENSER,
    PLACE_ONION_COUNTER,
    PLACE_ONION_POT,
    SERVE_SOUP,
    PotPhase,
)
from interdep.policies import parse_policy_spec, run_episode
from interdep.trace_io import read_trace, trace_to_text, write_report
from oracle_utils import (
    assert_ledger_arithmetic,
    assert_matches_oracle,
    ground_step,
    ledger_self_accept_keys,
    per_step_fold,
    random_external_trace,
    replay_symbolic,
    state_diff_match,
)

A = PrimitiveAction

LINKABLE = {
    "onion-on-counter",
    "dish-on-counter",
    "soup-on-counter",
    "counter-empty",
    "pot-contains",
    "soup-ready",
}


def mini_trace(actions, **cfg):
    config = EpisodeConfig(cook_time=3, **cfg)
    return external_trace(MINI_LAYOUT, config, actions)


# schema ------------------------------------------------------------------


def test_schema_fluents_default():
    schema = build_interaction_schema()
    assert schema.linkable == frozenset(LINKABLE)
    assert schema.accept_fluents == schema.linkable
    assert schema.include_counter_empty


def test_schema_without_counter_empty():
    schema = build_interaction_schema(include_counter_empty=False)
    assert schema.linkable == frozenset(LINKABLE - {"counter-empty"})
    assert schema.accept_fluents == schema.linkable


def test_schema_excludes_private_and_unconsumed():
    schema = build_interaction_schema()
    assert "holding" not in schema.linkable
    assert "soups-delivered" not in schema.linkable
    # soup-cooking is added by the cook-starting placement but no subtask
    # ever requires it, so it cannot link two actions
    assert "soup-cooking" not in schema.linkable


# roles -------------------------------------------------------------------


@pytest.fixture
def mini_state(mini_layout):
    return initial_state(mini_layout, EpisodeConfig(cook_time=3))


def classify_here(state, action, agent, schema=None):
    """(is_trigger, is_accept) of the step: its subtask's `schema.roles` entry."""
    sym = ground_step(state, action, agent)[0]
    schema = schema or build_interaction_schema()
    return schema.roles[sym.subtask]


def test_move_and_pickup_dispenser_are_independent(mini_state):
    assert classify_here(mini_state, A.RIGHT, 1) == (False, False)
    state, _, _ = step(mini_state, single_action(1, A.LEFT))
    # only private holding fluents change: no way to link the partner
    assert classify_here(state, A.INTERACT, 1) == (False, False)


def test_place_counter_roles(mini_state):
    state, _, _ = step(mini_state, single_action(1, A.LEFT))
    state, _, _ = step(state, single_action(1, A.INTERACT))
    state, _, _ = step(state, single_action(1, A.DOWN))
    # adds onion-on-counter (trigger) and consumes counter-empty (accept)
    assert classify_here(state, A.INTERACT, 1) == (True, True)
    no_ce = build_interaction_schema(include_counter_empty=False)
    assert classify_here(state, A.INTERACT, 1, no_ce) == (True, False)


def test_place_pot_is_dual_role(mini_state):
    state = mini_state
    for act in [A.LEFT, A.INTERACT, A.RIGHT, A.UP]:
        state, _, _ = step(state, single_action(1, act))
    # consumes pot-contains(0,0) and adds pot-contains(0,1)
    assert classify_here(state, A.INTERACT, 1) == (True, True)


def test_noop_is_independent(mini_state):
    assert classify_here(mini_state, A.STAY, 1) == (False, False)


def per_step_roles(sym, linkable):
    """The rule the role table replaced: scan the step's own add and pre sets."""
    return (
        any(p.shared and p.predicate in linkable for p in sym.add),
        any(p.shared and p.predicate in linkable for p in sym.pre),
    )


@pytest.mark.parametrize("counter_empty", [True, False])
def test_role_table_matches_per_step_rule(layout, config, counter_empty):
    """Every grounded interact step plays the roles its subtask's entry says."""
    schema = build_interaction_schema(include_counter_empty=counter_empty)
    linkable = LINKABLE if counter_empty else LINKABLE - {"counter-empty"}
    seen = set()
    for agent, state in interact_states(layout, config):
        sym = ground_step(state, A.INTERACT, agent)[0]
        assert schema.roles[sym.subtask] == per_step_roles(sym, linkable), sym
        seen.add(sym.subtask)
    assert seen == set(INTERACT_SUBTASKS) | {NOOP}
    assert schema.roles[MOVE] == schema.roles[NOOP] == (False, False)


# pair extraction ---------------------------------------------------------

PASS_SCRIPT = [
    (1, A.LEFT),      # t0 face the onion dispenser
    (2, A.LEFT),      # t1 move to (2,1)
    (1, A.INTERACT),  # t2 take an onion
    (2, A.DOWN),      # t3 move to (2,2)
    (1, A.DOWN),      # t4 face the counter
    (2, A.LEFT),      # t5 face the counter
    (1, A.INTERACT),  # t6 place the onion
    (2, A.INTERACT),  # t7 partner picks it up
]


def test_cross_agent_pass_yields_one_pair():
    ledger = analyze_trace(mini_trace(PASS_SCRIPT))
    assert len(ledger.pairs) == 1
    pair = ledger.pairs[0]
    assert pair.prop.canonical() == "onion-on-counter(1,2)"
    assert (pair.giver.agent, pair.giver.t) == (1, 6)
    assert (pair.receiver.agent, pair.receiver.t) == (2, 7)
    assert pair.giver.name == PLACE_ONION_COUNTER
    assert pair.receiver.name == PICKUP_ONION_COUNTER
    assert ledger.self_accepts == ()
    assert_ledger_arithmetic(ledger)


def test_environment_provenance_yields_nothing():
    # placing into the untouched pot consumes only environment-given fluents
    script = [
        (1, A.LEFT), (2, A.STAY),
        (1, A.INTERACT), (2, A.STAY),
        (1, A.RIGHT), (2, A.STAY),
        (1, A.UP), (2, A.STAY),
        (1, A.INTERACT), (2, A.STAY),
    ]
    ledger = analyze_trace(mini_trace(script))
    assert ledger.pairs == () and ledger.self_accepts == ()
    placed = [c for c in ledger.classifications if c.subtask == PLACE_ONION_POT]
    assert len(placed) == 1 and placed[0].is_trigger and placed[0].is_accept
    # its add was never consumed by the partner
    assert [r.t for r in ledger.unaccepted_triggers[1]] == [8]


SELF_ACCEPT_SCRIPT = [
    (1, A.LEFT), (2, A.STAY),
    (1, A.INTERACT), (2, A.STAY),     # t2 take onion
    (1, A.DOWN), (2, A.STAY),         # t4 face counter
    (1, A.INTERACT), (2, A.STAY),     # t6 place
    (1, A.INTERACT), (2, A.STAY),     # t8 take it back: self-acceptance
]


def test_self_acceptance_not_a_pair():
    ledger = analyze_trace(mini_trace(SELF_ACCEPT_SCRIPT))
    assert ledger.pairs == ()
    assert ledger_self_accept_keys(ledger) == [(1, 6, 8, "onion-on-counter(1,2)")]
    # the unconsumed place remains an unaccepted trigger
    assert 6 in [r.t for r in ledger.unaccepted_triggers[1]]
    assert_ledger_arithmetic(ledger)


REPEATED_PLACE_SCRIPT = PASS_SCRIPT[:6] + [
    (1, A.INTERACT), (2, A.STAY),     # t6 place
    (1, A.INTERACT), (2, A.STAY),     # t8 take back (delete severs t6 link)
    (1, A.INTERACT), (2, A.INTERACT), # t10 place again; t11 partner takes
]


def test_repeated_place_pairs_with_latest_giver():
    ledger = analyze_trace(mini_trace(REPEATED_PLACE_SCRIPT))
    onion_pairs = [p for p in ledger.pairs if p.prop.predicate == "onion-on-counter"]
    assert len(onion_pairs) == 1
    assert onion_pairs[0].giver.t == 10  # not the deleted t6 placement
    assert onion_pairs[0].receiver.t == 11
    # t10's counter-empty came from agent 1's own take-back at t8
    assert (1, 8, 10, "counter-empty(1,2)") in ledger_self_accept_keys(ledger)


def test_counter_empty_links_in_reverse():
    # after a pass, the pickup's counter-empty feeds the next place
    script = PASS_SCRIPT + [
        (1, A.LEFT), (2, A.STAY),       # t8 back toward the dispenser
        (1, A.INTERACT), (2, A.STAY),   # t10 take another onion
        (1, A.DOWN), (2, A.STAY),       # t12 face the counter
        (1, A.INTERACT), (2, A.STAY),   # t14 place: consumes partner's clear
    ]
    ledger = analyze_trace(mini_trace(script))
    ce = [p for p in ledger.pairs if p.prop.predicate == "counter-empty"]
    assert len(ce) == 1
    assert (ce[0].giver.agent, ce[0].giver.t) == (2, 7)
    assert (ce[0].receiver.agent, ce[0].receiver.t) == (1, 14)
    no_ce = build_interaction_schema(include_counter_empty=False)
    ledger_off = analyze_trace(mini_trace(script), no_ce)
    assert all(p.prop.predicate != "counter-empty" for p in ledger_off.pairs)
    assert len(ledger_off.pairs) == 1  # the onion pass survives


def test_pot_coproduction_pairs():
    script = [
        (1, A.LEFT), (2, A.STAY),
        (1, A.INTERACT), (2, A.STAY),
        (1, A.RIGHT), (2, A.STAY),
        (1, A.UP), (2, A.STAY),
        (1, A.INTERACT), (2, A.STAY),      # t8 onion 1 into the pot
        (1, A.LEFT), (2, A.LEFT),          # t10/t11 swap lanes
        (1, A.INTERACT), (2, A.DOWN),      # t12 onion 2 taken; t13 a2 to (2,2)
        (1, A.DOWN), (2, A.LEFT),          # t15 a2 faces counter
        (1, A.INTERACT), (2, A.INTERACT),  # t16 pass; t17 pickup
        (1, A.STAY), (2, A.UP),            # t19 a2 to (2,1)
        (1, A.STAY), (2, A.UP),            # t21 a2 faces pot
        (1, A.STAY), (2, A.INTERACT),      # t23 onion 2 into the pot
    ]
    ledger = analyze_trace(mini_trace(script))
    pot_pairs = [p for p in ledger.pairs if p.prop.predicate == "pot-contains"]
    assert len(pot_pairs) == 1
    assert pot_pairs[0].prop.canonical() == "pot-contains(0,1)"
    assert (pot_pairs[0].giver.agent, pot_pairs[0].giver.t) == (1, 8)
    assert (pot_pairs[0].receiver.agent, pot_pairs[0].receiver.t) == (2, 23)
    assert_ledger_arithmetic(ledger)


# replay guards -----------------------------------------------------------


@pytest.mark.parametrize("action", ["stay", None, 5], ids=repr)
def test_replay_rejects_an_action_that_is_not_a_primitive_action(action):
    trace = mini_trace([(1, A.STAY), (2, A.STAY)])
    broken = dataclasses.replace(trace, steps=(A.STAY, action))
    with pytest.raises(MalformedJointAction, match="^step 1: "):
        replay(broken)
    with pytest.raises(MalformedJointAction, match="^step 1: "):
        trace_to_text(broken)


def test_replay_rejects_steps_past_terminal():
    # horizon 2: the third step runs past the end of the episode
    trace = mini_trace(
        [(1, A.STAY), (2, A.STAY), (1, A.STAY)], horizon=2
    )
    with pytest.raises(ReplayMismatch) as caught:
        analyze_trace(trace)
    assert str(caught.value) == "step 2: trace continues past the terminal state"


def test_replay_rejects_steps_past_the_soup_target():
    # One soup of one onion: cook 1 pots it, cook 2 plates it and serves it
    # at step 21, which meets the target long before the horizon.
    one = [A.LEFT, A.INTERACT, A.RIGHT, A.UP, A.INTERACT, A.DOWN] + [A.STAY] * 5
    two = [A.RIGHT, A.INTERACT, A.STAY, A.STAY, A.STAY, A.LEFT]
    two += [A.UP, A.INTERACT, A.RIGHT, A.DOWN, A.INTERACT]
    script = [turn for pair in zip(one, two) for turn in zip((1, 2), pair)]
    served = analyze_trace(mini_trace(script, onions_per_soup=1, target_soups=1))
    assert served.events[-1].t == 21 and served.events[-1].name == "serve-soup"
    trace = mini_trace(script + [(1, A.STAY)], onions_per_soup=1, target_soups=1)
    with pytest.raises(ReplayMismatch) as caught:
        analyze_trace(trace)
    assert str(caught.value) == "step 22: trace continues past the terminal state"


@pytest.mark.parametrize(
    "steps",
    [
        [(True, A.STAY), (2, A.STAY)],
        [(1.0, A.STAY), (2, A.STAY)],
        [(1, A.STAY), (2.0, A.STAY)],
        [(1, A.STAY), (2, [A.STAY])],
        [(1, A.STAY, 0), (2, A.STAY)],
        [(1,), (2, A.STAY)],
        [5, (2, A.STAY)],
    ],
    ids=[
        "agent-true",
        "agent-1.0",
        "agent-2.0",
        "unhashable-turn",
        "triple",
        "single",
        "not-a-sequence",
    ],
)
def test_replay_rejects_a_turn_that_only_equals_a_shared_one(steps):
    # A step is its cook's action. Each step here is a turn in the old
    # (agent, action) shape, even one that equals a shared turn, or not a
    # pair at all; put in place of a stay, replay and the writer reject it.
    trace = mini_trace([(1, A.STAY), (2, A.STAY)])
    for t, bad in enumerate(steps):
        forged = list(trace.steps)
        forged[t] = bad
        broken = dataclasses.replace(trace, steps=tuple(forged))
        with pytest.raises(MalformedJointAction, match=f"^step {t}: "):
            analyze_trace(broken)
        with pytest.raises(MalformedJointAction, match=f"^step {t}: "):
            trace_to_text(broken)


@pytest.mark.parametrize("build", [tuple, list], ids=["fresh-tuples", "lists"])
def test_fresh_equal_turns_replay_as_the_shared_ones(passer_receiver_trace, build):
    # Steps rebuilt from their action names, as a new tuple or a list, are
    # the same members, and replay and analysis read them the same.
    trace = passer_receiver_trace
    fresh = dataclasses.replace(trace, steps=build(A(a.value) for a in trace.steps))
    assert fresh.steps is not trace.steps
    assert all(a is b for a, b in zip(fresh.steps, trace.steps))
    assert replay(fresh) == replay(trace)

    def ledger_and_report(t):
        ledger = analyze_trace(t)
        return json.dumps([ledger.to_dict(), build_report(ledger).to_dict()])

    assert ledger_and_report(fresh) == ledger_and_report(trace)


# oracle agreement --------------------------------------------------------


def test_known_traces_match_oracle(passer_receiver_trace, solo_idle_trace):
    assert_matches_oracle(passer_receiver_trace)
    assert_matches_oracle(solo_idle_trace)
    no_ce = build_interaction_schema(include_counter_empty=False)
    assert_matches_oracle(passer_receiver_trace, no_ce)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_fuzzed_traces_match_oracle(seed):
    trace = random_external_trace(
        MINI_LAYOUT, EpisodeConfig(cook_time=3, horizon=150), seed, 150
    )
    assert_matches_oracle(trace)
    no_ce = build_interaction_schema(include_counter_empty=False)
    assert_matches_oracle(trace, no_ce)


def test_oracle_runs_when_loaded_as_the_benchmark_loads_it():
    """The oracle works executed from its file with no `sys.modules` entry.

    The benchmark loads it that way, where a module-level dataclass cannot
    resolve its string annotations and fails at import.
    """
    path = pathlib.Path(__file__).with_name("oracle_utils.py")
    spec = importlib.util.spec_from_file_location("unregistered_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    assert spec.name not in sys.modules
    trace = mini_trace(REPEATED_PLACE_SCRIPT)
    ledger = analyze_trace(trace)
    actions, _ = oracle.replay_symbolic(trace)
    pairs, self_accepts = oracle.brute_force_match(actions, ledger.schema.linkable)
    assert pairs and self_accepts
    assert oracle.ledger_pair_keys(ledger) == pairs
    assert oracle.ledger_self_accept_keys(ledger) == self_accepts


NAV = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "nav_traces.json").read_text()
)


@pytest.mark.parametrize("counter_empty", ["on", "off"])
@pytest.mark.parametrize(
    "pin",
    NAV["traces"],
    ids=lambda pin: f"{pin['layout']}-{pin['p1']}-{pin['p2']}-{pin['seed']}",
)
def test_pinned_episodes_match_oracle(pin, counter_empty):
    """The fold equals the brute-force matcher on every pinned scripted episode."""
    trace = run_episode(
        load_layout(NAV["layouts"][pin["layout"]]),
        EpisodeConfig(horizon=NAV["horizon"]),
        parse_policy_spec(pin["p1"]),
        parse_policy_spec(pin["p2"]),
        pin["seed"],
    )
    assert hashlib.sha256(trace_to_text(trace).encode()).hexdigest() == pin["sha256"]
    schema = build_interaction_schema(include_counter_empty=counter_empty == "on")
    assert_matches_oracle(trace, schema)


# the record of play ---------------------------------------------------------


def test_only_run_episode_attaches_a_play_record(passer_receiver_trace):
    trace = passer_receiver_trace
    assert trace.played
    read = read_trace(io.StringIO(trace_to_text(trace)))
    assert read.played is None
    assert dataclasses.replace(trace, steps=trace.steps).played is None
    # The record is not part of the trace's value, its repr or its bytes.
    assert trace == read
    assert repr(trace) == repr(read)
    assert trace_to_text(trace) == trace_to_text(read)


def test_play_record_cannot_vouch_for_a_forged_step(passer_receiver_trace):
    # The first event's interact, forged into a stay: the forged trace
    # carries no record, so it is replayed, and the event is gone.
    trace = passer_receiver_trace
    event = trace.played[0]
    assert trace.steps[event.t] is A.INTERACT
    forged_steps = list(trace.steps)
    forged_steps[event.t] = A.STAY
    forged = dataclasses.replace(trace, steps=tuple(forged_steps))
    assert forged.played is None
    ledger = analyze_trace(forged)
    assert ledger == match(replay(forged), forged)
    assert event.t not in [e.t for e in ledger.events]
    assert ledger != analyze_trace(trace)


@pytest.mark.parametrize("path", ["played", "replayed"])
def test_the_ledger_holds_the_events_step_reported(passer_receiver_trace, path):
    # No record is built per event: the ledger's events, each pair's giver
    # and receiver and each unaccepted trigger are the record's own events.
    trace = passer_receiver_trace
    if path == "played":
        played, ledger = trace.played, analyze_trace(trace)
    else:
        trace = read_trace(io.StringIO(trace_to_text(trace)))
        played = replay(trace)
        ledger = match(played, trace)
    assert ledger.events is played
    kept = {id(event) for event in played}
    links = ledger.pairs + ledger.self_accepts
    assert ledger.pairs and ledger.self_accepts
    assert all(id(p.giver) in kept and id(p.receiver) in kept for p in links)
    unaccepted = [e for refs in ledger.unaccepted_triggers.values() for e in refs]
    assert unaccepted and all(id(e) in kept for e in unaccepted)


PLAY_LAYOUTS = {
    "mini": (MINI_LAYOUT, "(1,2)"),
    "counter_circuit": (bundled_layout_text(), "(4,2)"),
}


@settings(max_examples=30, deadline=None)
@given(
    where=st.sampled_from(sorted(PLAY_LAYOUTS)),
    kinds=st.tuples(
        st.sampled_from(["random", "stochastic"]),
        st.sampled_from(["random", "stochastic", "receiver"]),
    ),
    p=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    seed=st.integers(0, 10_000),
)
def test_played_ledger_equals_replayed_ledger(where, kinds, p, seed):
    text, counter = PLAY_LAYOUTS[where]
    params = {
        "random": "random",
        "stochastic": f"stochastic:p={p!r},counter={counter},pot=0",
        "receiver": f"receiver:counter={counter},pot=0",
    }
    config = EpisodeConfig(cook_time=3, horizon=300)
    trace = run_episode(
        load_layout(text), config, *(parse_policy_spec(params[k]) for k in kinds), seed
    )
    assert trace.played is not None
    assert replay(trace) == trace.played
    played = analyze_trace(trace)
    replayed = match(replay(trace), trace)
    assert played.to_dict() == replayed.to_dict()
    assert played == replayed


def diff_keys(links) -> set:
    """Each pair or self-accept as `state_diff_match` names it."""
    return {
        (p.prop.canonical(), p.giver.agent, p.giver.t, p.receiver.agent, p.receiver.t)
        for p in links
    }


@settings(max_examples=40, deadline=None)
@given(
    where=st.sampled_from(sorted(PLAY_LAYOUTS)),
    team=st.sampled_from(
        [None, ("passer", "receiver"), ("stochastic", "receiver"), ("random", "random")]
    ),
    p=st.sampled_from([0.0, 0.5, 1.0]),
    bias=st.sampled_from([0.2, 0.5, 0.8]),
    seed=st.integers(0, 10_000),
)
def test_pairs_follow_from_state_diffs(where, team, p, bias, seed):
    """The pairs and self-accepts are exactly those of successive states.

    `state_diff_match` shares no rule with grounding, so this catches a
    fault in `EFFECTS` or in an event's key, which the brute-force oracle
    grounds through as the analyzer does. The traces are random external
    logs (no team) and scripted play, whose cooks plate and serve soups.
    """
    text, counter = PLAY_LAYOUTS[where]
    config = EpisodeConfig(cook_time=3, horizon=400)
    if team is None:
        trace = random_external_trace(text, config, seed, config.horizon, bias)
    else:
        params = {
            "passer": f"passer:counter={counter}",
            "stochastic": f"stochastic:p={p!r},counter={counter},pot=0",
            "receiver": f"receiver:counter={counter},pot=0",
            "random": "random",
        }
        specs = (parse_policy_spec(params[kind]) for kind in team)
        trace = run_episode(load_layout(text), config, *specs, seed)
    for counter_empty in (True, False):
        schema = build_interaction_schema(include_counter_empty=counter_empty)
        ledger = analyze_trace(trace, schema)
        pairs, self_accepts = state_diff_match(trace, counter_empty)
        assert diff_keys(ledger.pairs) == pairs
        assert diff_keys(ledger.self_accepts) == self_accepts


@settings(max_examples=25, deadline=None)
@given(
    right=st.sampled_from(["random", "receiver:counter=(2,1),pot=0"]),
    left=st.sampled_from(["random", "passer:counter=(2,1)"]),
    seed=st.integers(0, 10_000),
)
def test_every_potted_onion_crossed_the_middle_counters(right, left, seed):
    """On forced_coordination the geometry bounds the pairs from below.

    Agent 1 can hold an onion only by taking one from a counter, and only
    agent 2 brings onions in, so each onion agent 1 pots was handed over
    by agent 2 at least once: a bound from the grid, not from the rules
    grounding and matching share with the oracle.
    """
    config = EpisodeConfig(cook_time=3, horizon=1000)
    trace = run_episode(
        load_layout(FORCED_COORDINATION),
        config,
        parse_policy_spec(right),
        parse_policy_spec(left),
        seed,
    )
    for counter_empty in (True, False):
        schema = build_interaction_schema(include_counter_empty=counter_empty)
        ledger = match(trace.played, trace, schema)
        done = {(e.agent, e.name) for e in ledger.events}
        assert (2, PLACE_ONION_POT) not in done
        assert (1, PICKUP_ONION_DISPENSER) not in done
        potted = sum(
            1 for e in ledger.events if (e.agent, e.name) == (1, PLACE_ONION_POT)
        )
        handed = sum(
            1
            for p in ledger.pairs
            if p.prop.predicate == "onion-on-counter" and p.giver.agent == 2
        )
        assert handed >= potted


# the event-only ledger ------------------------------------------------------

BASELINE_TEAMS = [
    ("passer:counter=(4,2)", "receiver:counter=(4,2),pot=0"),
    ("stochastic:p=0.5,counter=(4,2),pot=0", "receiver:counter=(4,2),pot=0"),
    ("solo", "idle"),
    ("random", "random"),
]


def assert_event_only(trace, ledger):
    """The ledger folds events only, yet its per-step view and its report's
    move and stay counts are those of grounding every step of `trace`."""
    actions, _ = replay_symbolic(trace)
    assert ledger.steps is trace.steps
    assert [c.t for c in ledger.events] == [
        a.t for a in actions if a.subtask in INTERACT_SUBTASKS
    ]
    assert ledger.classifications == per_step_fold(actions, ledger.schema)
    assert len(ledger.classifications) == len(trace.steps) == ledger.episode_time
    report = build_report(ledger, "all-actions")
    for agent in report.agents:
        turns = [a for t, a in enumerate(trace.steps) if 1 + t % 2 == agent.agent]
        mine = [a for a in actions if a.agent == agent.agent]
        assert agent.total_actions == len(turns) == len(mine)
        dist = agent.event_distribution
        assert dist[MOVE] == sum(1 for a in turns if a in MOVE_DIRECTION)
        assert dist[MOVE] == sum(1 for a in mine if a.subtask == MOVE)
        assert dist[NOOP] == sum(1 for a in mine if a.subtask == NOOP)
        assert sum(dist.values()) == agent.total_actions


@pytest.mark.parametrize("p1,p2", BASELINE_TEAMS, ids=lambda s: s.split(":")[0])
def test_event_only_ledger_on_baseline_teams(layout, config, p1, p2):
    trace = run_episode(
        layout, config, parse_policy_spec(p1), parse_policy_spec(p2), 1
    )
    ledger = analyze_trace(trace)
    assert_event_only(trace, ledger)
    assert ledger == match(replay(trace), trace)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000), bias=st.sampled_from([0.1, 0.5, 0.9]))
def test_event_only_ledger_on_fuzzed_logs(seed, bias):
    config = EpisodeConfig(cook_time=3, horizon=200)
    trace = random_external_trace(MINI_LAYOUT, config, seed, 200, bias)
    assert_event_only(trace, analyze_trace(trace))


def test_an_episode_without_events(layout):
    # Two idle cooks never interact: no step has an event to fold.
    trace = run_episode(
        layout,
        EpisodeConfig(horizon=12),
        parse_policy_spec("idle"),
        parse_policy_spec("idle"),
        1,
    )
    assert trace.played == () and len(trace.steps) == 12
    played = analyze_trace(trace)
    replayed = match(replay(trace), trace)
    assert played == replayed and played.to_dict() == replayed.to_dict()
    assert played.events == () and played.pairs == ()
    with pytest.raises(EmptyTrace):
        build_report(played)
    report = build_report(played, "all-actions")
    for agent in report.agents:
        assert agent.total_actions == 6 == agent.event_distribution[NOOP]
        assert agent.independent == 6 and agent.coordination == 0
    assert_event_only(trace, played)


# mirrored kitchens ----------------------------------------------------------

# Each axis's reflection of a cell in a kitchen `width` x `height`, and the
# two moves the reflection swaps.
REFLECTIONS = {
    "left-right": (lambda x, y, w, h: (w - 1 - x, y), {A.LEFT: A.RIGHT, A.RIGHT: A.LEFT}),
    "up-down": (lambda x, y, w, h: (x, h - 1 - y), {A.UP: A.DOWN, A.DOWN: A.UP}),
}
CELL_PREDICATES = {"onion-on-counter", "dish-on-counter", "soup-on-counter", "counter-empty"}
POT_PREDICATES = {"pot-contains", "soup-cooking", "soup-ready"}


def mirrored(trace, axis="left-right"):
    """`trace` in its kitchen reflected along `axis`: every glyph moved to
    its reflected cell, and the two moves along the axis swapped in every
    step."""
    reflect, swap = REFLECTIONS[axis]
    rows = trace.layout_text.splitlines()
    w, h = len(rows[0]), len(rows)
    image = [[""] * w for _ in range(h)]
    for y, row in enumerate(rows):
        for x, glyph in enumerate(row):
            rx, ry = reflect(x, y, w, h)
            image[ry][rx] = glyph
    return dataclasses.replace(
        trace,
        layout_text="".join("".join(row) + "\n" for row in image),
        steps=tuple(swap.get(a, a) for a in trace.steps),
    )


def turns_before_interacting(trace) -> bool:
    """Whether each cook moves or turns before its first interact.

    Both cooks spawn facing N in every kitchen, its up-down flip included,
    so only then does each interact face the flipped cell.
    """
    for agent in (0, 1):
        for action in trace.steps[agent::2]:
            if action in MOVE_DIRECTION:
                break
            if action is A.INTERACT:
                return False
    return True


def recorded_plays(layout, config):
    """Passer + receiver and stochastic + receiver episodes on
    counter_circuit, as plain traces: `dataclasses.replace` drops the record
    of play, so each is replayed like a file. They plate and serve soups,
    which random play on counter_circuit almost never does."""
    teams = [(PASSER, RECEIVER)] + [(stochastic(p), RECEIVER) for p in (0.5, 1.0)]
    return [
        dataclasses.replace(policy_trace(layout, config, *team, seed))
        for team in teams
        for seed in (1, 2)
    ]


@pytest.mark.parametrize(
    "layout_text",
    [bundled_layout_text(), FORCED_COORDINATION, MINI_LAYOUT],
    ids=["counter_circuit", "forced_coordination", "mini"],
)
def test_mirrored_kitchen_scores_the_same(layout_text):
    """A reflected kitchen, with every turn reflected, is the same play.

    `step`, the faced-cell table and grounding's cell and pot arguments
    share no fault with this relation. Each kitchen is reflected left to
    right and flipped up and down. The traces are random external ones
    and, on counter_circuit, scripted play replayed as plain steps: the
    scripted cooks break ties by cell order, so their own decisions are not
    reflection-symmetric, but their recorded steps are a trace like any
    other. Both cooks start facing N, which the left-right mirror keeps and
    the up-down flip does not, so the flip takes only traces in which each
    cook moves or turns before it first interacts.
    """
    layout = load_layout(layout_text)
    config = EpisodeConfig(cook_time=3, horizon=1500)
    scripted = layout_text == bundled_layout_text()
    paired, subtasks = 0, set()
    for axis, (reflect, _) in REFLECTIONS.items():

        def qualifies(trace):
            return axis == "left-right" or turns_before_interacting(trace)

        drawn = (
            random_external_trace(layout_text, config, seed, 1500, 0.5)
            for seed in itertools.count()
        )
        traces = list(itertools.islice(filter(qualifies, drawn), 20))
        if scripted:
            traces += list(filter(qualifies, recorded_plays(layout, config)))

        def cell(x, y):
            return reflect(x, y, layout.width, layout.height)

        for trace in traces:
            image = mirrored(trace, axis)
            image_layout = load_layout(image.layout_text)
            pots = layout.pot_cells
            pot_index = {i: image_layout.pot_index[cell(*c)] for i, c in enumerate(pots)}

            def mirror(prop):
                args = prop.args
                if prop.predicate in CELL_PREDICATES:
                    args = cell(*args)
                elif prop.predicate in POT_PREDICATES:
                    args = (pot_index[args[0]], *args[1:])
                return dataclasses.replace(prop, args=args)

            def mirror_event(event):
                return dataclasses.replace(
                    event, cell=cell(*event.cell), pot=pot_index.get(event.pot)
                )

            ledger, image_ledger = analyze_trace(trace), analyze_trace(image)
            where = (axis, trace.policies, trace.seed)
            assert image_ledger.events == tuple(map(mirror_event, ledger.events)), where
            assert {
                (mirror(p.prop), mirror_event(p.giver), mirror_event(p.receiver))
                for p in ledger.pairs
            } == {(p.prop, p.giver, p.receiver) for p in image_ledger.pairs}, where
            paired += len(ledger.pairs)
            subtasks |= {event.name for event in ledger.events}
            for mode in ("subtask-actions", "all-actions"):
                for fmt in ("json", "csv", "markdown"):
                    texts = []
                    for analyzed in (ledger, image_ledger):
                        sink = io.StringIO()
                        write_report(build_report(analyzed, mode), fmt, sink)
                        texts.append(sink.getvalue())
                    assert texts[0] == texts[1], (where, mode, fmt)
    assert paired  # the relation was held on some pairs
    if scripted:
        # The soup half of play, whose grounding reads the pot fill and the
        # soups delivered, was drawn too.
        assert {GET_SOUP_POT, SERVE_SOUP} <= subtasks


# shifted time ---------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    team=st.sampled_from(
        [(PASSER, RECEIVER), (stochastic(0.5), RECEIVER), (stochastic(1.0), RECEIVER),
         ("solo", "idle"), ("random", "random")]
    ),
    seed=st.integers(1, 10_000),
    where=st.floats(0, 1),
)
def test_a_tick_of_two_stays_shifts_time_and_nothing_else(layout, config, team, seed, where):
    """A tick of two stays, put in where no pot cooks, only delays play.

    The stays change no state but the clock, and with no pot cooking
    nothing else counts time, so every later event moves by 2 turns and
    the pairs, soups and %Interdependent are those of the episode as
    played. The tick goes at an even place, so each later step keeps its
    cook, and the episode ends 2 turns or more before the horizon, so the
    longer trace still ends where play did. Random play runs to the
    horizon, so its trace is cut to an even length 2 turns before it; the
    cut trace has no record of play and is replayed.
    """
    trace = run_episode(layout, config, *map(parse_policy_spec, team), seed)
    if len(trace.steps) > config.horizon - 2:
        assert team == ("random", "random")
        trace = dataclasses.replace(trace, steps=trace.steps[: (config.horizon - 2) & ~1])
        assert trace.played is None
    assert len(trace.steps) <= config.horizon - 2
    states = [state for state, _ in play(layout, config, trace)]
    places = [
        k for k in range(0, len(trace.steps), 2)
        if all(pot.phase is not PotPhase.COOKING for pot in states[k].pots)
    ]
    k = places[int(where * (len(places) - 1))]
    steps = trace.steps[:k] + (A.STAY, A.STAY) + trace.steps[k:]
    shifted = dataclasses.replace(trace, steps=steps)

    def moved(event):
        return dataclasses.replace(event, t=event.t + 2) if event.t >= k else event

    def links(pairs, move=lambda e: e):
        return {(p.prop, move(p.giver), move(p.receiver)) for p in pairs}

    ledger, after = analyze_trace(trace), analyze_trace(shifted)
    assert after.events == tuple(map(moved, ledger.events))
    assert links(after.pairs) == links(ledger.pairs, moved)
    assert links(after.self_accepts) == links(ledger.self_accepts, moved)
    assert after.episode_time == ledger.episode_time + 2
    report, shifted_report = build_report(ledger), build_report(after)
    assert shifted_report.soups_delivered == report.soups_delivered
    assert shifted_report.timed_out == report.timed_out
    assert shifted_report.percent_interdependent == report.percent_interdependent
    # The all-actions denominator counts the two stays.
    everything = build_report(ledger, "all-actions").denominator
    assert build_report(after, "all-actions").denominator == everything + 2


# swapped cooks ----------------------------------------------------------------


def swapped(trace):
    """`trace` with the cooks' spawns swapped and one stay put first.

    Agent 1's stay hands every later turn to the other cook, who now stands
    where the turn's cook stood, and the horizon grows by that turn.
    """
    config = dataclasses.replace(trace.config, horizon=trace.config.horizon + 1)
    return dataclasses.replace(
        trace,
        layout_text=trace.layout_text.translate(str.maketrans("12", "21")),
        config=config,
        steps=(A.STAY, *trace.steps),
    )


@pytest.mark.parametrize(
    "layout_text",
    [bundled_layout_text(), FORCED_COORDINATION, MINI_LAYOUT],
    ids=["counter_circuit", "forced_coordination", "mini"],
)
def test_swapped_cooks_score_the_same(layout_text):
    """Swapping the cooks' spawns behind one stay is the same play.

    Each event moves to the other cook and one turn later, and so does
    each pair and self-accept, on the same proposition; soups and
    %Interdependent do not change. The traces are random external ones
    and, on counter_circuit, scripted play replayed as plain steps: a
    scripted cook's decisions depend on which agent it is, but its recorded
    steps are a trace like any other.
    """

    def moved(event):
        return dataclasses.replace(event, agent=3 - event.agent, t=event.t + 1)

    def links(pairs, move=lambda e: e):
        return {(p.prop, move(p.giver), move(p.receiver)) for p in pairs}

    config = EpisodeConfig(cook_time=3, horizon=600)
    traces = [
        random_external_trace(layout_text, config, seed, 600, (0.2, 0.5, 0.8)[seed % 3])
        for seed in range(20)
    ]
    scripted = layout_text == bundled_layout_text()
    if scripted:
        traces += recorded_plays(load_layout(layout_text), config)
    linked, subtasks = 0, set()
    for trace in traces:
        where = (trace.policies, trace.seed)
        ledger, after = analyze_trace(trace), analyze_trace(swapped(trace))
        assert after.events == tuple(map(moved, ledger.events)), where
        assert links(after.pairs) == links(ledger.pairs, moved), where
        assert links(after.self_accepts) == links(ledger.self_accepts, moved), where
        subtasks |= {event.name for event in ledger.events}
        if not ledger.events:
            continue  # no subtask action, so no share to compare
        report, image_report = build_report(ledger), build_report(after)
        assert image_report.soups_delivered == report.soups_delivered, where
        assert image_report.percent_interdependent == report.percent_interdependent, where
        linked += len(ledger.pairs) + len(ledger.self_accepts)
    assert linked  # the relation was held on some links
    if scripted:
        # The soup half of play, whose grounding reads the pot fill and the
        # soups delivered, was drawn too.
        assert {GET_SOUP_POT, SERVE_SOUP} <= subtasks
