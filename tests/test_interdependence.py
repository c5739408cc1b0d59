"""Schema derivation, subtask roles and pair extraction."""

import dataclasses
import hashlib
import importlib.util
import io
import json
import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FORCED_COORDINATION,
    MINI_LAYOUT,
    external_trace,
    interact_states,
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
    INTERACT_SUBTASKS,
    MOVE,
    MOVE_DIRECTION,
    NOOP,
    PICKUP_ONION_COUNTER,
    PICKUP_ONION_DISPENSER,
    PLACE_ONION_COUNTER,
    PLACE_ONION_POT,
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


def test_replay_rejects_turn_order_violation():
    trace = mini_trace([(1, A.STAY), (2, A.STAY)])
    broken = dataclasses.replace(trace, steps=((1, A.STAY), (1, A.STAY)))
    with pytest.raises(ReplayMismatch, match="step 1: agent 1 acted"):
        analyze_trace(broken)


@pytest.mark.parametrize("action", ["stay", None, 5], ids=repr)
def test_replay_rejects_an_action_that_is_not_a_primitive_action(action):
    trace = mini_trace([(1, A.STAY), (2, A.STAY)])
    broken = dataclasses.replace(trace, steps=((1, A.STAY), (2, action)))
    with pytest.raises(MalformedJointAction):
        replay(broken)


def test_replay_rejects_steps_past_terminal():
    # horizon 2: the third step runs past the end of the episode
    trace = mini_trace(
        [(1, A.STAY), (2, A.STAY), (1, A.STAY)], horizon=2
    )
    with pytest.raises(ReplayMismatch):
        analyze_trace(trace)


@pytest.mark.parametrize(
    "steps, message",
    [
        (
            [(1, A.STAY), (2, A.STAY), (1, A.STAY), (1, A.STAY)],
            "step 2: trace continues past the terminal state",
        ),
        (
            [(1, A.STAY), (2, A.STAY), (2, A.STAY)],
            "step 2: agent 2 acted, round-robin expects 1",
        ),
    ],
    ids=["terminal-then-out-of-turn", "out-of-turn-past-terminal"],
)
def test_replay_checks_turn_order_then_terminal_state(steps, message):
    with pytest.raises(ReplayMismatch) as caught:
        analyze_trace(mini_trace(steps, horizon=2))
    assert str(caught.value) == message


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
    # True, 1.0 and 2.0 equal 1 and 2, so each turn finds its cook's
    # shared pair by equality; it is still not one. A turn that is not a
    # pair used to raise a bare ValueError or TypeError.
    with pytest.raises(MalformedJointAction):
        analyze_trace(mini_trace(steps))


@pytest.mark.parametrize("build", [tuple, list], ids=["fresh-tuples", "lists"])
def test_fresh_equal_turns_replay_as_the_shared_ones(passer_receiver_trace, build):
    trace = passer_receiver_trace
    fresh = dataclasses.replace(
        trace, steps=tuple(build([agent, action]) for agent, action in trace.steps)
    )
    assert fresh.steps[0] is not trace.steps[0]
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
    trace = passer_receiver_trace
    agent, action = trace.steps[7]
    forged_steps = list(trace.steps)
    forged_steps[7] = (3 - agent, action)
    forged = dataclasses.replace(trace, steps=tuple(forged_steps))
    with pytest.raises(ReplayMismatch, match="round-robin"):
        analyze_trace(forged)


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
    reported = [event for _, event in played]
    assert len(ledger.events) == len(reported)
    assert all(mine is theirs for mine, theirs in zip(ledger.events, reported))
    kept = {id(event) for event in reported}
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
        turns = [a for who, a in trace.steps if who == agent.agent]
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
    assert trace.played == [] and len(trace.steps) == 12
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

MIRRORED_TURN = {A.LEFT: A.RIGHT, A.RIGHT: A.LEFT}
CELL_PREDICATES = {"onion-on-counter", "dish-on-counter", "soup-on-counter", "counter-empty"}
POT_PREDICATES = {"pot-contains", "soup-cooking", "soup-ready"}


def mirrored(trace):
    """`trace` in its kitchen reversed left to right: every row reversed,
    and `left` and `right` swapped in every turn."""
    rows = trace.layout_text.splitlines()
    return dataclasses.replace(
        trace,
        layout_text="".join(row[::-1] + "\n" for row in rows),
        steps=tuple((agent, MIRRORED_TURN.get(a, a)) for agent, a in trace.steps),
    )


@pytest.mark.parametrize(
    "layout_text",
    [bundled_layout_text(), FORCED_COORDINATION, MINI_LAYOUT],
    ids=["counter_circuit", "forced_coordination", "mini"],
)
def test_mirrored_kitchen_scores_the_same(layout_text):
    """A left-right mirror of the kitchen and of every turn is the same play.

    `step`, the faced-cell table and grounding's cell and pot arguments
    share no fault with this relation. Only external traces qualify: the
    scripted cooks break ties by cell order, so their play is not
    mirror-symmetric. Both cooks start facing N, which the mirror keeps.
    """
    layout = load_layout(layout_text)
    config = EpisodeConfig(cook_time=3, horizon=1500)
    paired = 0
    for seed in range(20):
        trace = random_external_trace(layout_text, config, seed, 1500, 0.5)
        image = mirrored(trace)
        mirror_layout = load_layout(image.layout_text)
        width = layout.width

        def cell(x, y):
            return (width - 1 - x, y)

        pot_index = [mirror_layout.pot_cells.index(cell(*c)) for c in layout.pot_cells]

        def mirror(prop):
            args = prop.args
            if prop.predicate in CELL_PREDICATES:
                args = cell(*args)
            elif prop.predicate in POT_PREDICATES:
                args = (pot_index[args[0]], *args[1:])
            return dataclasses.replace(prop, args=args)

        def mirror_event(event):
            return dataclasses.replace(event, cell=cell(*event.cell))

        ledger, image_ledger = analyze_trace(trace), analyze_trace(image)
        assert {
            (mirror(p.prop), mirror_event(p.giver), mirror_event(p.receiver))
            for p in ledger.pairs
        } == {(p.prop, p.giver, p.receiver) for p in image_ledger.pairs}, seed
        paired += len(ledger.pairs)
        for mode in ("subtask-actions", "all-actions"):
            for fmt in ("json", "csv", "markdown"):
                texts = []
                for analyzed in (ledger, image_ledger):
                    sink = io.StringIO()
                    write_report(build_report(analyzed, mode), fmt, sink)
                    texts.append(sink.getvalue())
                assert texts[0] == texts[1], (seed, mode, fmt)
    assert paired  # the relation was held on some pairs
