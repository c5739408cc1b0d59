"""Scripted policies: spec strings, navigation, determinism, termination."""

import hashlib
import json
import pathlib

import pytest

from conftest import PASSER, RECEIVER, stochastic
from interdep import (
    EpisodeConfig,
    PrimitiveAction,
    Unreachable,
    analyze_trace,
    initial_state,
    load_layout,
)
from interdep.policies import (
    POLICY_KINDS,
    PolicySpec,
    bfs_path,
    format_policy_spec,
    make_policy,
    parse_policy_spec,
    run_episode,
)
from interdep.trace_io import trace_to_text

A = PrimitiveAction

NAV_TRACES = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "nav_traces.json").read_text()
)


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


def test_spec_kinds_exposed():
    assert set(POLICY_KINDS) == {
        "solo",
        "idle",
        "random",
        "passer",
        "receiver",
        "stochastic",
    }


@pytest.mark.parametrize(
    "text",
    [
        "chef",                      # unknown kind
        "stochastic",                # p is required
        "stochastic:p=1.5",          # out of range
        "stochastic:p=-0.1",
        "solo:p=0.5",                # p only applies to stochastic
        "passer:counter=4,2",        # missing parens
        "receiver:pot=first",        # non-integer pot
        "solo:size=3",               # unknown parameter
        "passer:pot=1",              # parameters the kind never reads
        "solo:counter=(4,2)",
        "idle:pot=0",
        "idle:counter=(99,99)",
        "solo:pot=0,pot=1",          # a repeated parameter
        "stochastic:p=0.5,p=1.0",
        "receiver:counter=(4,2),pot=0,counter=(4,2)",
    ],
)
def test_bad_specs_rejected(text):
    with pytest.raises(ValueError):
        parse_policy_spec(text)


def test_spec_validation_on_construction():
    with pytest.raises(ValueError):
        PolicySpec(kind="stochastic", p=2.0)
    with pytest.raises(ValueError):
        PolicySpec(kind="solo", p=0.5)


# pathfinding ----------------------------------------------------------------


def test_bfs_prefers_deterministic_ties(layout):
    path = bfs_path(layout, (1, 1), frozenset({(6, 3)}), frozenset())
    assert path is not None
    assert path[0] == (1, 1) and path[-1] == (6, 3)
    again = bfs_path(layout, (1, 1), frozenset({(6, 3)}), frozenset())
    assert path == again


def test_bfs_respects_blocked_cells(layout):
    free = bfs_path(layout, (1, 1), frozenset({(2, 1)}), frozenset())
    assert free is not None and len(free) == 2
    blocked = bfs_path(layout, (1, 1), frozenset({(2, 1)}), frozenset({(2, 1)}))
    assert blocked is None


def test_unreachable_station_detected():
    # the pot's only approach cell is walled off
    text = "XXPXX\nO1X2D\nXC SX\nXXXXX\n"
    layout = load_layout(text)
    with pytest.raises(Unreachable):
        make_policy(
            parse_policy_spec("solo"), 1, layout, EpisodeConfig(), seed=1
        )


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
    assert all(act is A.STAY for _, _, act in trace.steps)


def test_episode_trace_header(layout, config, passer_receiver_trace):
    trace = passer_receiver_trace
    assert trace.policies == (PASSER, RECEIVER)
    assert trace.seed == 1
    assert trace.layout_text == layout.text
    assert trace.config == config
    ts = [t for t, _, _ in trace.steps]
    assert ts == list(range(len(trace.steps)))
    agents = [agent for _, agent, _ in trace.steps]
    assert agents == [1 + (i % 2) for i in range(len(trace.steps))]


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
    trace = run_episode(
        load_layout(NAV_TRACES["layouts"][pin["layout"]]),
        EpisodeConfig(horizon=NAV_TRACES["horizon"]),
        parse_policy_spec(pin["p1"]),
        parse_policy_spec(pin["p2"]),
        pin["seed"],
    )
    digest = hashlib.sha256(trace_to_text(trace).encode()).hexdigest()
    assert digest == pin["sha256"]


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
    policy = make_policy(parse_policy_spec("idle"), 2, layout, config, seed=1)
    assert policy.next_action(state) is A.STAY
