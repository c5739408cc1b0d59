"""Shared fixtures: layouts, configs and trace builders used across tests."""

from __future__ import annotations

import json
import pathlib

import pytest

from interdep import (
    EpisodeConfig,
    PrimitiveAction,
    bundled_layout_text,
    initial_state,
    load_layout,
    single_action,
    step,
)
from interdep.gridworld import (
    DIR_VECTOR,
    Item,
    PlayerState,
    PotPhase,
    PotState,
    Tile,
    WorldState,
)
from interdep.policies import parse_policy_spec, run_episode
from interdep.trace_io import ReplayableTrace

# Tiny kitchen where both cooks start adjacent to stations, so interactions
# can be scripted directly without pathfinding.
MINI_LAYOUT = "XXPXX\nO1 2D\nXC SX\nXXXXX\n"

# Overcooked-AI's forced_coordination: a counter column splits the kitchen,
# so only the left cook (agent 2) reaches the onions and only the right cook
# (agent 1) reaches the pots.
FORCED_COORDINATION = "XXXPX\nO C1P\nO2C D\nD C X\nXXXSX\n"

PASSER = "passer:counter=(4,2)"
RECEIVER = "receiver:counter=(4,2),pot=0"


def stochastic(p: float) -> str:
    return f"stochastic:p={p!r},counter=(4,2),pot=0"


BASELINE_TEAMS = (
    (PASSER, RECEIVER),
    (stochastic(0.5), RECEIVER),
    ("solo", "idle"),
    ("random", "random"),
)

# Pinned navigation traces and the layouts they are played on.
NAV_TRACES = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "nav_traces.json").read_text()
)


@pytest.fixture(scope="session")
def layout_text() -> str:
    return bundled_layout_text()


@pytest.fixture(scope="session")
def layout(layout_text):
    return load_layout(layout_text)


@pytest.fixture(scope="session")
def config() -> EpisodeConfig:
    return EpisodeConfig()


@pytest.fixture(scope="session")
def mini_layout():
    return load_layout(MINI_LAYOUT)


def external_trace(layout_text: str, config: EpisodeConfig, actions) -> ReplayableTrace:
    """Wrap a round-robin (agent, action) script as a replayable trace."""
    return ReplayableTrace(
        layout_text=layout_text,
        config=config,
        policies="external",
        seed=None,
        steps=tuple(actions),
    )


def advance(state, agent_actions):
    """Apply (agent, action) steps in order, returning (state, events)."""
    events = []
    for agent, act in agent_actions:
        state, _, ev = step(state, single_action(agent, act))
        events.extend(ev)
    return state, events


def turns(agent1_actions):
    """Agent 1 scripted, agent 2 stays, strict alternation."""
    out = []
    for a in agent1_actions:
        out.append((1, a))
        out.append((2, PrimitiveAction.STAY))
    return out


def interleave(agent1_actions, agent2_actions=None):
    """Zip two single-agent scripts into the strict turn-taking order.

    Agent 2 defaults to STAY on every turn; the shorter script is padded
    with STAY.
    """
    a1 = list(agent1_actions)
    a2 = list(agent2_actions or [])
    n = max(len(a1), len(a2))
    a1 += [PrimitiveAction.STAY] * (n - len(a1))
    a2 += [PrimitiveAction.STAY] * (n - len(a2))
    out = []
    for x, y in zip(a1, a2):
        out.append((1, x))
        out.append((2, y))
    return out


def play(layout, config, trace: ReplayableTrace):
    """Replay a trace through the simulator.

    Returns (state, events of the step that reached it) for every state,
    the initial one (with no events) first.
    """
    state = initial_state(layout, config)
    visited = [(state, [])]
    for turn in trace.steps:
        state, _, events = step(state, turn)
        visited.append((state, events))
    return visited


def interact_states(layout, config):
    """(agent, state) for every faced cell x held item x counter item x pot phase.

    The item sits on the faced counter and every pot shares the phase; the
    partner stands on some other floor cell. Built by hand, so states random
    walks never reach (a soup waiting on a counter) are covered too.
    """
    floor = layout.tile_cells[Tile.FLOOR]
    full = config.onions_per_soup
    pots = [(n, 0, PotPhase.FILLING) for n in range(full)]
    pots += [(full, config.cook_time, PotPhase.COOKING), (full, 0, PotPhase.READY)]
    for cell in floor:
        spare = next(f for f in floor if f != cell)
        for orient, (dx, dy) in DIR_VECTOR.items():
            faced = (cell[0] + dx, cell[1] + dy)
            if faced in floor:
                continue
            on_counter = [None]
            if faced in layout.counter_cells:
                on_counter += [Item.ONION, Item.DISH, Item.SOUP]
            for held in Item:
                for item in on_counter:
                    for n, timer, phase in pots:
                        for agent in (1, 2):
                            me = PlayerState(agent, cell, orient, held)
                            partner = PlayerState(3 - agent, spare, orient)
                            yield agent, WorldState(
                                layout=layout,
                                config=config,
                                players=(me, partner) if agent == 1 else (partner, me),
                                counters={} if item is None else {faced: item},
                                pots=tuple(
                                    PotState(c, n, timer, phase) for c in layout.pot_cells
                                ),
                            )


def policy_trace(layout, config, p1: str, p2: str, seed: int) -> ReplayableTrace:
    return run_episode(
        layout, config, parse_policy_spec(p1), parse_policy_spec(p2), seed
    )


@pytest.fixture(scope="session")
def passer_receiver_trace(layout, config):
    """Deterministic passing episode reused by several suites."""
    return policy_trace(layout, config, PASSER, RECEIVER, seed=1)


@pytest.fixture(scope="session")
def solo_idle_trace(layout, config):
    return policy_trace(layout, config, "solo", "idle", seed=1)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one definitive pass/fail line per acceptance criterion."""
    lines = []
    for outcome in ("passed", "failed"):
        for rep in terminalreporter.stats.get(outcome, []):
            if "test_acceptance.py" in rep.nodeid and rep.when == "call":
                name = rep.nodeid.split("::")[-1]
                lines.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, status in sorted(lines):
            terminalreporter.write_line(f"{status}: {name}")
