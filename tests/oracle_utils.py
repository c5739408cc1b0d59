"""Test-side oracles, written independently of the analyzer under test.

The pair oracle re-derives giver/receiver matches by brute force: for every
precondition of every action it scans backwards through all earlier actions
(O(n^2)) for the latest add of that proposition, with any intervening delete
severing the link. The analyzer's single-pass provenance map must agree
exactly.

The reference transition (`reference_step`) re-derives each turn from the
grid itself, through `DIR_VECTOR`, `in_bounds` and `tile_at`, and builds
every record afresh. The simulator's table-driven `step` must agree with it
on the successor, the reward and the events, and `replay` with the record
of play that walking it builds (`reference_record`), each event's whole
grounding key included.

The state-diff oracle (`state_diff_match`) re-derives the pairs from
what each turn of `reference_step` changed on the counters and in the
pots, with no event and nothing of grounding, so it also catches a fault
that the analyzer and the brute-force oracle share through `EFFECTS` or
through the key `step` puts in an event.

`ground_state` lists every proposition true in a state, so a test can
check an event's sets against the states before and after its step;
`prop` builds one proposition from its predicate and arguments.

`reference_trace_text` writes a trace with one sorted-key `json.dumps`
per line; the trace writer, which takes each step line from a table,
must match it byte for byte.

`action_distribution_rings` nests one agent's report counts into rings
(total, independent and coordination, trigger and accept, matched or
not), so a test can check that the layers telescope.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import namedtuple

from interdep import (
    ActionClassification,
    EpisodeConfig,
    PrimitiveAction,
    analyze_trace,
    build_interaction_schema,
    build_report,
    initial_state,
    is_terminal,
    load_layout,
    match,
    replay,
    single_action,
    step,
)
from interdep.gridworld import (
    DIR_VECTOR,
    GET_SOUP_POT,
    MOVE,
    MOVE_DIRECTION,
    NOOP,
    PICKUP_DISH_DISPENSER,
    PICKUP_ONION_DISPENSER,
    PLACE_ONION_POT,
    SERVE_SOUP,
    EnvEvent,
    Item,
    PlayerState,
    PotPhase,
    PotState,
    Tile,
    WorldState,
)
from interdep.grounding import Proposition, ground_event
from interdep.trace_io import ReplayableTrace

# One cook's executed step as a grounded planning action. A named tuple, not
# a dataclass: the benchmark executes this file without registering it in
# `sys.modules`, where `dataclass` cannot resolve the module's annotations.
SymbolicAction = namedtuple("SymbolicAction", "agent t subtask pre add delete")


def prop(predicate: str, *args) -> Proposition:
    """The proposition `predicate(*args)`, e.g. prop("holding", 1, "onion")."""
    return Proposition(predicate, tuple(args))


def ground_state(state: WorldState) -> frozenset:
    """The set of all propositions true in a world state.

    Per counter exactly one of {onion,dish,soup}-on-counter / counter-empty;
    per pot one pot-contains(p,n) plus the phase fluent if cooking or ready;
    one holding(i,item) per cook; one soups-delivered(k).
    """
    props = set()
    for cell in state.layout.counter_cells:
        item = state.counters.get(cell)
        if item is None:
            props.add(prop("counter-empty", cell[0], cell[1]))
        else:
            props.add(prop(f"{item.value}-on-counter", cell[0], cell[1]))
    for idx, pot in enumerate(state.pots):
        props.add(prop("pot-contains", idx, pot.onion_count))
        if pot.phase is PotPhase.COOKING:
            props.add(prop("soup-cooking", idx))
        elif pot.phase is PotPhase.READY:
            props.add(prop("soup-ready", idx))
    for player in state.players:
        props.add(prop("holding", player.agent_id, player.held.value))
    props.add(prop("soups-delivered", state.soups_delivered))
    return frozenset(props)


def ground_step(
    state: WorldState, action: PrimitiveAction, agent: int
) -> tuple[SymbolicAction, WorldState]:
    """One simulator step, grounded; returns (action, successor).

    A step without an event is a move or a stay, with empty sets.
    """
    successor, _, events = step(state, single_action(agent, action))
    if events:
        grounded = ground_event(events[0])
        subtask, sets = events[0].name, (grounded.pre, grounded.add, grounded.delete)
    else:
        subtask = MOVE if action in MOVE_DIRECTION else NOOP
        sets = (frozenset(),) * 3
    return SymbolicAction(agent, state.t, subtask, *sets), successor


def replay_symbolic(trace: ReplayableTrace):
    """Ground every step of a trace; returns (symbolic actions, final state)."""
    layout = load_layout(trace.layout_text)
    state = initial_state(layout, trace.config)
    actions = []
    for t, act in enumerate(trace.steps):
        sym, state = ground_step(state, act, 1 + t % 2)
        actions.append(sym)
    return actions, state


def brute_force_match(actions, accept_predicates):
    """All (giver, receiver) pairs and self-acceptances by exhaustive scan.

    For each action v and each shared precondition p with an accepted
    predicate, the provider is the latest earlier action that added p; a
    delete of p after that add and before v severs the link (p can then only
    be true again via a later add, which the backward scan finds first).
    No provider means p held since the initial state: environment-given.
    """
    pairs = []
    self_accepts = []
    for v in actions:
        for p in sorted(v.pre, key=Proposition.canonical):
            if not p.shared or p.predicate not in accept_predicates:
                continue
            giver = None
            for u in reversed(actions):
                if u.t >= v.t:
                    continue
                if p in u.add:
                    giver = u
                    break
                if p in u.delete:
                    break
            if giver is None:
                continue
            if giver.agent != v.agent:
                pairs.append(
                    (
                        p.canonical(),
                        giver.agent,
                        giver.t,
                        giver.subtask,
                        v.agent,
                        v.t,
                        v.subtask,
                    )
                )
            else:
                self_accepts.append((v.agent, giver.t, v.t, p.canonical()))
    return sorted(pairs), sorted(self_accepts)


def state_diff_match(trace, include_counter_empty=True):
    """Pairs and self-accepts re-derived from successive states alone.

    Walks `reference_step`, which shares no code with `step`, and reads
    only what each turn changed on the counters and in the pots: no event,
    no subtask name and nothing of grounding, so a fault in `EFFECTS`, or
    in the key `step` puts in an event, shows here. The turn's cook:
    - fills a counter cell with item X: needs counter-empty(c) and adds
      X-on-counter(c);
    - empties a counter cell of item X: needs X-on-counter(c) and adds
      counter-empty(c);
    - raises a pot's onion count from n to n+1: needs pot-contains(p,n) and
      adds pot-contains(p,n+1), and soup-ready(p) too if the pot left its
      filling phase, since the cook who completed the pot enabled the soup;
    - empties a pot of n > 0 onions: needs soup-ready(p) and adds
      pot-contains(p,0); pot-contains(p,n) is false after it.
    A need is false after its turn. One met by the other cook's latest add
    is a pair, by the same cook's a self-accept. The one choice shared with
    the analyzer is which facts link, the definition under test: counter
    contents, pot fill and soup-ready, with counter-empty only when
    `include_counter_empty` is on.

    Returns (pairs, self-accepts), each a set of (fact text, giver cook,
    giver t, receiver cook, receiver t).
    """
    state = initial_state(load_layout(trace.layout_text), trace.config)
    provenance: dict = {}
    pairs, self_accepts = set(), set()
    for t, action in enumerate(trace.steps):
        agent = 1 + t % 2
        after, _, _ = reference_step(state, (agent, action))
        need, gone, adds = None, [], []
        for x, y in state.counters.keys() | after.counters.keys():
            was, now = state.counters.get((x, y)), after.counters.get((x, y))
            if was is None and now is not None:
                need = f"counter-empty({x},{y})"
                adds.append(f"{now.value}-on-counter({x},{y})")
            elif was is not None and now is None:
                need = f"{was.value}-on-counter({x},{y})"
                adds.append(f"counter-empty({x},{y})")
        for p, (was, now) in enumerate(zip(state.pots, after.pots)):
            n, m = was.onion_count, now.onion_count
            if m == n + 1:
                need = f"pot-contains({p},{n})"
                adds.append(f"pot-contains({p},{m})")
                if now.phase is not PotPhase.FILLING:
                    adds.append(f"soup-ready({p})")
            elif n > 0 and m == 0:
                need, gone = f"soup-ready({p})", [f"pot-contains({p},{n})"]
                adds.append(f"pot-contains({p},0)")
        if need is not None:
            giver = provenance.pop(need, None)
            if giver and (include_counter_empty or not need.startswith("counter-empty")):
                found = pairs if giver[0] != agent else self_accepts
                found.add((need, *giver, agent, t))
        for fact in gone:
            provenance.pop(fact, None)
        for fact in adds:
            provenance[fact] = (agent, t)
        state = after
    return pairs, self_accepts


def ledger_pair_keys(ledger):
    return sorted(
        (
            p.prop.canonical(),
            p.giver.agent,
            p.giver.t,
            p.giver.name,
            p.receiver.agent,
            p.receiver.t,
            p.receiver.name,
        )
        for p in ledger.pairs
    )


def ledger_self_accept_keys(ledger):
    return sorted(
        (s.receiver.agent, s.giver.t, s.receiver.t, s.prop.canonical())
        for s in ledger.self_accepts
    )


def assert_ledger_arithmetic(ledger) -> None:
    """Bookkeeping identities every ledger must satisfy."""
    g = {a: sum(p.giver.agent == a for p in ledger.pairs) for a in (1, 2)}
    r = {a: sum(p.receiver.agent == a for p in ledger.pairs) for a in (1, 2)}
    assert g[1] + g[2] == len(ledger.pairs)
    assert r[1] + r[2] == len(ledger.pairs)
    for a in (1, 2):
        acts = [c for c in ledger.classifications if c.agent == a]
        independent = sum(1 for c in acts if not (c.is_trigger or c.is_accept))
        coordination = sum(1 for c in acts if c.is_trigger or c.is_accept)
        assert independent + coordination == len(acts)
        triggers = [c for c in acts if c.is_trigger]
        matched = {(p.giver.agent, p.giver.t) for p in ledger.pairs}
        unmatched = sum(1 for c in triggers if (a, c.t) not in matched)
        assert unmatched == len(ledger.unaccepted_triggers[a])
    for p in ledger.pairs:
        assert p.giver.agent != p.receiver.agent
        assert p.giver.t < p.receiver.t
        assert p.prop.shared
    for s in ledger.self_accepts:
        assert s.giver.agent == s.receiver.agent
        assert s.giver.t < s.receiver.t
        assert s.prop.shared


def reference_record(trace):
    """The event of each step that has one, by `reference_step`."""
    state = initial_state(load_layout(trace.layout_text), trace.config)
    record = []
    for t, action in enumerate(trace.steps):
        state, _, events = reference_step(state, (1 + t % 2, action))
        record += events
    return tuple(record)


def assert_matches_oracle(trace, schema=None):
    """The replay -> match fold over `trace` agrees with the oracles.

    Its pairs and self-acceptances are the brute-force ones, its episode
    time and soups are those of the oracle replay's final state, its
    per-step view is the oracle's per-step fold, `replay` returns the
    record walking `reference_step` builds, `match` gives the same ledger
    from that record, and `analyze_trace`, which matches a trace
    `run_episode` returned from the record of its play, does too.
    """
    schema = schema or build_interaction_schema()
    ledger = match(replay(trace), trace, schema)
    assert analyze_trace(trace, schema) == ledger
    actions, final = replay_symbolic(trace)
    pairs, self_accepts = brute_force_match(actions, schema.linkable)
    assert ledger_pair_keys(ledger) == pairs
    assert ledger_self_accept_keys(ledger) == self_accepts
    assert ledger.episode_time == final.t
    assert ledger.soups_delivered == final.soups_delivered
    assert ledger.classifications == per_step_fold(actions, schema)
    assert ledger.steps is trace.steps
    record = reference_record(trace)
    assert replay(trace) == record
    assert match(record, trace, schema) == ledger
    assert_ledger_arithmetic(ledger)
    return ledger


def per_step_fold(actions, schema):
    """One row per grounded step, with its subtask's roles: the reference
    per-step view."""
    return tuple(
        ActionClassification(a.agent, a.t, a.subtask, *schema.roles[a.subtask])
        for a in actions
    )


def action_distribution_rings(ledger, agent: int) -> dict:
    """Nested tallies: total -> independent/coordination -> roles -> success.

    A trigger is successful when matched as giver in some pair, an accept
    when matched as receiver; dual-role actions count under both, and the
    overlap is reported so the layers telescope exactly.
    """
    r = build_report(ledger, "all-actions").agent(agent)
    accept_ok = len({p.receiver.t for p in ledger.pairs if p.receiver.agent == agent})
    return {
        "total": r.total_actions,
        "independent": r.independent,
        "coordination": {
            "total": r.coordination,
            "trigger": {
                "total": r.triggers,
                "successful": r.triggers - r.unaccepted_triggers,
                "unsuccessful": r.unaccepted_triggers,
            },
            "accept": {
                "total": r.accepts,
                "successful": accept_ok,
                "unsuccessful": r.accepts - accept_ok,
            },
            "overlap": r.trigger_accept_overlap,
        },
    }


def check_invariants(state) -> None:
    """Raise AssertionError if a structural invariant of `state` is broken."""
    p1, p2 = state.players
    assert p1.position != p2.position, "players share a cell"
    for p in state.players:
        assert p.position in state.layout.tile_cells[Tile.FLOOR], "player off the floor"
    for cell in state.counters:
        assert state.layout.tile_at(cell) is Tile.COUNTER, "item on a non-counter"
    for pot in state.pots:
        if pot.phase is PotPhase.FILLING:
            assert pot.onion_count < state.config.onions_per_soup and pot.cook_timer == 0
        elif pot.phase is PotPhase.COOKING:
            assert pot.onion_count == state.config.onions_per_soup and pot.cook_timer > 0
        else:
            assert pot.onion_count == state.config.onions_per_soup and pot.cook_timer == 0


def onion_imbalance(state, dispensed: int) -> int:
    """`dispensed` onions minus onions recounted from scratch on the board.

    Onions enter the world only through dispensers and are never destroyed,
    only potted (onions_per_soup to a soup), so this is zero in every
    reachable state when `dispensed` counts the pickup-onion-dispenser
    events of the walk that reached it.
    """
    held_onions = sum(1 for p in state.players if p.held is Item.ONION)
    counter_onions = sum(1 for it in state.counters.values() if it is Item.ONION)
    pot_onions = sum(pot.onion_count for pot in state.pots)
    soups = (
        sum(1 for p in state.players if p.held is Item.SOUP)
        + sum(1 for it in state.counters.values() if it is Item.SOUP)
        + state.soups_delivered
    )
    on_board = held_onions + counter_onions + pot_onions
    return dispensed - on_board - soups * state.config.onions_per_soup


def random_external_trace(
    layout_text: str,
    config: EpisodeConfig,
    seed: int,
    max_steps: int,
    interact_bias: float = 0.5,
) -> ReplayableTrace:
    """Seeded random walk biased toward interacting, as an external trace."""
    rng = random.Random(f"oracle-fuzz/{seed}")
    layout = load_layout(layout_text)
    state = initial_state(layout, config)
    moves = [a for a in PrimitiveAction if a is not PrimitiveAction.INTERACT]
    steps = []
    for i in range(max_steps):
        if is_terminal(state):
            break
        agent = 1 + (i % 2)
        if rng.random() < interact_bias:
            act = PrimitiveAction.INTERACT
        else:
            act = rng.choice(moves)
        steps.append(act)
        state, _, _ = step(state, single_action(agent, act))
    return ReplayableTrace(
        layout_text=layout_text,
        config=config,
        policies="external",
        seed=seed,
        steps=tuple(steps),
    )


def reference_trace_text(trace: ReplayableTrace) -> str:
    """The trace's text: header, one step object per line, sha256 footer."""
    lines = [json.dumps(trace.header_dict(), sort_keys=True)]
    for t, action in enumerate(trace.steps):
        lines.append(
            json.dumps({"action": action.value, "agent": 1 + t % 2, "t": t}, sort_keys=True)
        )
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return body + json.dumps({"sha256": digest}) + "\n"


def facing_cell(player) -> tuple:
    """The cell in front of `player`, by vector arithmetic."""
    dx, dy = DIR_VECTOR[player.orientation]
    return (player.position[0] + dx, player.position[1] + dy)


def _reference_interact(state, me):
    """(subtask, player, counters, pots, delivered) of one interact.

    The counters and pots are fresh copies, changed or not.
    """
    layout, config = state.layout, state.config
    target = facing_cell(me)
    counters, pots = dict(state.counters), list(state.pots)
    if not layout.in_bounds(target):
        return NOOP, me, counters, pots, 0
    tile, held = layout.tile_at(target), me.held

    def holding(item):
        return PlayerState(me.agent_id, me.position, me.orientation, item)

    if held is Item.NOTHING and tile is Tile.ONION_DISPENSER:
        return PICKUP_ONION_DISPENSER, holding(Item.ONION), counters, pots, 0
    if held is Item.NOTHING and tile is Tile.DISH_DISPENSER:
        return PICKUP_DISH_DISPENSER, holding(Item.DISH), counters, pots, 0
    if tile is Tile.COUNTER:
        on_counter = counters.get(target)
        if held is Item.NOTHING and on_counter is not None:
            del counters[target]
            subtask = f"pickup-{on_counter.value}-counter"
            return subtask, holding(on_counter), counters, pots, 0
        if held is not Item.NOTHING and on_counter is None:
            counters[target] = held
            subtask = f"place-{held.value}-counter"
            return subtask, holding(Item.NOTHING), counters, pots, 0
    if tile is Tile.POT:
        (idx,) = [i for i, pot in enumerate(pots) if pot.pot_cell == target]
        pot = pots[idx]
        if held is Item.ONION and pot.phase is PotPhase.FILLING:
            n = pot.onion_count + 1
            if n == config.onions_per_soup:
                pots[idx] = PotState(target, n, config.cook_time, PotPhase.COOKING)
            else:
                pots[idx] = PotState(target, n, 0, PotPhase.FILLING)
            return PLACE_ONION_POT, holding(Item.NOTHING), counters, pots, 0
        if held is Item.DISH and pot.phase is PotPhase.READY:
            pots[idx] = PotState(target, 0, 0, PotPhase.FILLING)
            return GET_SOUP_POT, holding(Item.SOUP), counters, pots, 0
    if tile is Tile.SERVING_STATION and held is Item.SOUP:
        return SERVE_SOUP, holding(Item.NOTHING), counters, pots, 1
    return NOOP, me, counters, pots, 0


def reference_step(state, turn):
    """(successor, reward, events) of one turn, re-derived from the grid.

    The acting cook's move turns it toward the attempted direction and
    enters the faced cell only if that is floor without the partner on it;
    its interact resolves against the faced tile, the turn's one event if it
    did something. The event's pot is found by scanning the pots for the
    faced cell, and its fill and soup count are the state's before the turn.
    Then every pot that was cooking before the action ticks down, turning
    ready at zero.
    """
    agent, action = turn
    me, other = state.player(agent), state.player(3 - agent)
    layout = state.layout
    counters, pots, delivered = dict(state.counters), state.pots, 0
    events = []
    if action in MOVE_DIRECTION:
        direction = MOVE_DIRECTION[action]
        dx, dy = DIR_VECTOR[direction]
        target = (me.position[0] + dx, me.position[1] + dy)
        free = (
            layout.in_bounds(target)
            and layout.tile_at(target) is Tile.FLOOR
            and target != other.position
        )
        position = target if free else me.position
        me = PlayerState(me.agent_id, position, direction, me.held)
    elif action is PrimitiveAction.INTERACT:
        subtask, me, counters, pots, delivered = _reference_interact(state, me)
        if subtask != NOOP:
            cell = facing_cell(me)
            faced = [i for i, pot in enumerate(state.pots) if pot.pot_cell == cell]
            pot = faced[0] if faced else None
            n = state.pots[pot].onion_count if faced else 0
            fills = n + 1 == state.config.onions_per_soup
            k = state.soups_delivered
            events.append(EnvEvent(state.t, agent, subtask, cell, pot, n, k, fills))
    ticked = []
    for before, pot in zip(state.pots, pots):
        if before.phase is PotPhase.COOKING and pot.phase is PotPhase.COOKING:
            timer = pot.cook_timer - 1
            phase = PotPhase.READY if timer == 0 else PotPhase.COOKING
            pot = PotState(pot.pot_cell, pot.onion_count, timer, phase)
        ticked.append(pot)
    players = (me, other) if agent == 1 else (other, me)
    successor = WorldState(
        layout=layout,
        config=state.config,
        players=players,
        counters=counters,
        pots=tuple(ticked),
        soups_delivered=state.soups_delivered + delivered,
        t=state.t + 1,
    )
    return successor, delivered * state.config.reward_per_soup, events
