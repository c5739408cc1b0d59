"""Grounding: state propositions and per-step planning actions."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BASELINE_TEAMS,
    MINI_LAYOUT,
    RECEIVER,
    advance,
    interact_states,
    policy_trace,
    stochastic,
    turns,
)
from interdep import (
    EpisodeConfig,
    PrimitiveAction,
    analyze_trace,
    build_interaction_schema,
    build_report,
    initial_state,
    is_terminal,
    load_layout,
    single_action,
    step,
)
from interdep.gridworld import (
    GET_SOUP_POT,
    INTERACT_SUBTASKS,
    MOVE,
    NOOP,
    PICKUP_ONION_COUNTER,
    PICKUP_ONION_DISPENSER,
    PLACE_ONION_COUNTER,
    PLACE_ONION_POT,
    SERVE_SOUP,
    ALL_SUBTASKS,
    EnvEvent,
    Orientation,
    PotPhase,
    PotState,
)
from interdep.grounding import (
    EFFECTS,
    PREDICATE_SIGNATURES,
    PRIVATE_PREDICATES,
    SHARED_PREDICATES,
    SUBTASK_TEMPLATES,
    Proposition,
    _effects,
    _signatures,
    ground_event,
    vocabulary_dump,
)
from interdep.interdependence import replay
from interdep.trace_io import report_to_markdown
from oracle_utils import (
    facing_cell,
    ground_state,
    ground_step,
    prop,
    random_external_trace,
)

A = PrimitiveAction
ONE_ONION = [A.LEFT, A.INTERACT, A.RIGHT, A.UP, A.INTERACT]


@pytest.fixture
def mini_state(mini_layout):
    return initial_state(mini_layout, EpisodeConfig(cook_time=3))


def test_proposition_validation():
    with pytest.raises(ValueError):
        prop("no-such-predicate", 1)
    with pytest.raises(ValueError):
        prop("soup-ready")  # arity 1
    with pytest.raises(ValueError):
        prop("counter-empty", 1.5, 2)
    with pytest.raises(ValueError):
        prop("counter-empty", True, 2)  # bools are not cell coordinates
    with pytest.raises(ValueError):
        prop("holding", 3, "onion")
    with pytest.raises(ValueError):
        prop("holding", 1, "stone")


def test_canonical_form_and_sorting():
    a = prop("onion-on-counter", 4, 2)
    assert a.canonical() == "onion-on-counter(4,2)"
    assert prop("holding", 1, "onion").canonical() == "holding(1,onion)"
    # Distinct facts have distinct canonical forms, so sorting by them is a
    # total, hash-independent order.
    props = [
        prop("soup-ready", 1),
        prop("counter-empty", 1, 2),
        a,
        prop("soup-ready", 0),
    ]
    ordered = sorted(props, key=Proposition.canonical)
    assert len({p.canonical() for p in props}) == len(props)
    assert [p.canonical() for p in ordered] == [
        "counter-empty(1,2)",
        "onion-on-counter(4,2)",
        "soup-ready(0)",
        "soup-ready(1)",
    ]


def test_shared_versus_private():
    assert prop("onion-on-counter", 1, 2).shared
    assert not prop("holding", 1, "onion").shared
    assert not prop("soups-delivered", 0).shared
    assert SHARED_PREDICATES.isdisjoint(PRIVATE_PREDICATES)
    assert set(PREDICATE_SIGNATURES) == SHARED_PREDICATES | PRIVATE_PREDICATES


@pytest.mark.parametrize(
    "subtask, written, rewritten",
    [
        (GET_SOUP_POT, "pot-contains(p,0)", "pot-contains(p)"),
        (SERVE_SOUP, "holding(i,soup)", "holding(i,n)"),
    ],
    ids=["pot-contains-one-argument", "holding-an-int"],
)
def test_a_predicate_written_with_two_signatures_stops_the_vocabulary(
    subtask, written, rewritten
):
    assert _signatures(EFFECTS) == PREDICATE_SIGNATURES
    sets = tuple(text.replace(written, rewritten) for text in EFFECTS[subtask])
    assert sets != EFFECTS[subtask]
    predicate = written.partition("(")[0]
    with pytest.raises(TypeError, match=f"^predicate '{predicate}' has two signatures$"):
        _signatures({**EFFECTS, subtask: sets})


def test_ground_initial_state(mini_state):
    props = ground_state(mini_state)
    assert prop("counter-empty", 1, 2) in props
    assert prop("pot-contains", 0, 0) in props
    assert prop("holding", 1, "nothing") in props
    assert prop("holding", 2, "nothing") in props
    assert prop("soups-delivered", 0) in props
    assert not any(p.predicate in ("soup-cooking", "soup-ready") for p in props)


def test_exactly_one_fluent_per_counter(mini_state):
    state, _ = advance(
        mini_state, turns([A.LEFT, A.INTERACT, A.DOWN, A.INTERACT])
    )
    # onion now parked on the counter below agent 1's spawn
    props = ground_state(state)
    on_counter = [
        p
        for p in props
        if p.predicate.endswith("-on-counter") or p.predicate == "counter-empty"
    ]
    cells = [p.args for p in on_counter]
    assert sorted(cells) == sorted(
        (c[0], c[1]) for c in state.layout.counter_cells
    )
    assert prop("onion-on-counter", 1, 2) in props


def test_move_and_noop_have_empty_sets(mini_state):
    sym = ground_step(mini_state, A.RIGHT, 1)[0]
    assert sym.subtask == MOVE
    assert sym.pre == sym.add == sym.delete == frozenset()
    sym = ground_step(mini_state, A.STAY, 1)[0]
    assert sym.subtask == NOOP
    assert sym.pre == sym.add == sym.delete == frozenset()


def test_failed_interact_is_noop(mini_state):
    # facing open floor, interact resolves to no subtask at all
    state, _ = advance(mini_state, [(1, A.RIGHT)])
    sym = ground_step(state, A.INTERACT, 1)[0]
    assert sym.subtask == NOOP


def test_pickup_onion_dispenser_sets(mini_state):
    state, _ = advance(mini_state, [(1, A.LEFT)])
    sym = ground_step(state, A.INTERACT, 1)[0]
    assert sym.subtask == PICKUP_ONION_DISPENSER
    assert sym.pre == frozenset({prop("holding", 1, "nothing")})
    assert sym.add == frozenset({prop("holding", 1, "onion")})
    assert sym.delete == frozenset({prop("holding", 1, "nothing")})


def test_place_onion_pot_sets(mini_state):
    state, _ = advance(mini_state, turns(ONE_ONION)[:-2])  # about to place
    sym = ground_step(state, A.INTERACT, 1)[0]
    assert sym.subtask == PLACE_ONION_POT
    assert sym.pre == frozenset(
        {prop("holding", 1, "onion"), prop("pot-contains", 0, 0)}
    )
    assert sym.add == frozenset(
        {prop("holding", 1, "nothing"), prop("pot-contains", 0, 1)}
    )
    assert sym.delete == sym.pre


def test_third_onion_owns_readiness(mini_state):
    state, _ = advance(mini_state, turns(ONE_ONION * 3)[:-2])
    sym = ground_step(state, A.INTERACT, 1)[0]
    assert sym.subtask == PLACE_ONION_POT
    # the cook-starting placement also claims the future readiness
    assert prop("soup-cooking", 0) in sym.add
    assert prop("soup-ready", 0) in sym.add
    assert prop("pot-contains", 0, 3) in sym.add
    nxt, _, _ = step(state, single_action(1, A.INTERACT))
    nxt_props = ground_state(nxt)
    assert prop("soup-cooking", 0) in nxt_props
    assert prop("soup-ready", 0) not in nxt_props  # arrives cook_time later


def test_get_soup_and_serve_sets(mini_state):
    state, _ = advance(mini_state, turns(ONE_ONION * 3))
    script = [
        (1, A.LEFT), (2, A.RIGHT),          # pot ticks to ready underway
        (1, A.STAY), (2, A.INTERACT),        # agent 2 takes a dish
        (1, A.STAY), (2, A.LEFT),
        (1, A.STAY), (2, A.UP),
    ]
    state, _ = advance(state, script)
    sym = ground_step(state, A.INTERACT, 2)[0]
    assert sym.subtask == GET_SOUP_POT
    assert sym.pre == frozenset(
        {prop("holding", 2, "dish"), prop("soup-ready", 0)}
    )
    assert sym.add == frozenset(
        {prop("holding", 2, "soup"), prop("pot-contains", 0, 0)}
    )
    assert sym.delete == frozenset(
        {
            prop("holding", 2, "dish"),
            prop("soup-ready", 0),
            prop("pot-contains", 0, 3),
        }
    )
    state, _ = advance(state, [(2, A.INTERACT), (1, A.STAY), (2, A.DOWN), (1, A.STAY)])
    sym = ground_step(state, A.RIGHT, 2)[0]
    assert sym.subtask == MOVE
    state, _ = advance(state, [(2, A.RIGHT), (1, A.STAY)])
    sym = ground_step(state, A.INTERACT, 2)[0]
    assert sym.subtask == SERVE_SOUP
    assert sym.pre == frozenset({prop("holding", 2, "soup")})
    assert sym.add == frozenset(
        {prop("holding", 2, "nothing"), prop("soups-delivered", 1)}
    )
    assert sym.delete == frozenset(
        {prop("holding", 2, "soup"), prop("soups-delivered", 0)}
    )


def test_counter_place_and_pickup_sets(mini_state):
    state, _ = advance(mini_state, turns([A.LEFT, A.INTERACT, A.DOWN]))
    sym = ground_step(state, A.INTERACT, 1)[0]
    assert sym.subtask == PLACE_ONION_COUNTER
    assert sym.pre == frozenset(
        {prop("holding", 1, "onion"), prop("counter-empty", 1, 2)}
    )
    assert sym.add == frozenset(
        {prop("holding", 1, "nothing"), prop("onion-on-counter", 1, 2)}
    )
    state, _ = advance(state, [(1, A.INTERACT), (2, A.STAY)])
    sym = ground_step(state, A.INTERACT, 1)[0]
    assert sym.subtask == PICKUP_ONION_COUNTER
    assert sym.pre == frozenset(
        {prop("holding", 1, "nothing"), prop("onion-on-counter", 1, 2)}
    )
    assert sym.add == frozenset(
        {prop("holding", 1, "onion"), prop("counter-empty", 1, 2)}
    )


def test_extraction_labels_interact_move_and_stay(mini_state):
    state, _ = advance(mini_state, [(1, A.LEFT)])
    assert ground_step(state, A.INTERACT, 1)[0].subtask == PICKUP_ONION_DISPENSER
    assert ground_step(state, A.UP, 1)[0].subtask == MOVE
    assert ground_step(state, A.STAY, 1)[0].subtask == NOOP


def test_labels_on_the_tick_a_pot_turns_ready(mini_state):
    """The pot turning ready is no event, and leaves the cook's label as it is."""
    pot = PotState(mini_state.layout.pot_cells[0], 3, 1, PotPhase.COOKING)
    state = replace(mini_state, pots=(pot,))
    facing_wall = replace(state.player(1), orientation=Orientation.N)
    state = replace(state, players=(facing_wall, state.player(2)))
    for act, subtask in ((A.INTERACT, NOOP), (A.STAY, NOOP), (A.RIGHT, MOVE)):
        successor, _, events = step(state, single_action(1, act))
        assert successor.pots[0].phase is PotPhase.READY and events == []
        assert ground_step(state, act, 1)[0].subtask == subtask


def test_templates_cover_every_subtask():
    assert set(SUBTASK_TEMPLATES) == set(ALL_SUBTASKS)
    vocab = SHARED_PREDICATES | PRIVATE_PREDICATES
    for name, tpl in SUBTASK_TEMPLATES.items():
        for key in ("pre", "add", "del"):
            assert set(tpl[key]) <= vocab, f"{name}.{key} outside the vocabulary"


def test_templates_equal_projection_of_grounded_actions(layout, config):
    seen = {name: {"pre": set(), "add": set(), "del": set()} for name in ALL_SUBTASKS}
    for agent, state in interact_states(layout, config):
        sym = ground_step(state, A.INTERACT, agent)[0]
        for key, props in (("pre", sym.pre), ("add", sym.add), ("del", sym.delete)):
            seen[sym.subtask][key] |= {p.predicate for p in props}
    for name in INTERACT_SUBTASKS + (NOOP,):
        assert seen[name] == SUBTASK_TEMPLATES[name], name


def test_each_template_requires_at_most_one_shared_predicate(layout, config):
    # What lets `match` link an accept's facts in any order: at most one of
    # them can be linkable, so the pair order cannot follow the hash seed.
    for name, tpl in SUBTASK_TEMPLATES.items():
        assert len(tpl["pre"] & SHARED_PREDICATES) <= 1, name
    for agent, state in interact_states(layout, config):
        sym = ground_step(state, A.INTERACT, agent)[0]
        assert sum(p.shared for p in sym.pre) <= 1, sym


def test_ground_rejects_an_unknown_subtask(mini_state):
    cell = facing_cell(mini_state.player(1))
    event = EnvEvent(0, 1, "juggle-onions", cell, None, 0, 0, False)
    with pytest.raises(ValueError, match="unknown subtask 'juggle-onions'"):
        ground_event(event)


def test_an_event_names_the_cell_it_faced():
    # Without its cell an event used to ground into a bare TypeError from
    # inside the grounding rule.
    with pytest.raises(TypeError, match="cell"):
        EnvEvent(0, 1, PICKUP_ONION_COUNTER)


def test_vocabulary_dump_shape():
    dump = vocabulary_dump()
    assert set(dump["predicates"]["shared"]) == SHARED_PREDICATES
    assert set(dump["predicates"]["private"]) == PRIVATE_PREDICATES
    assert set(dump["subtasks"]) == set(ALL_SUBTASKS)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 100))
def test_strips_contract_on_random_walks(seed, n):
    """pre/del hold before, del gone after, add true after (one exception).

    The only add proposition allowed to be false in the successor state is
    soup-ready on the cook-starting pot placement, whose effect lands
    cook_time ticks later.
    """
    rng = random.Random(seed)
    layout = load_layout(MINI_LAYOUT)
    state = initial_state(layout, EpisodeConfig(cook_time=3, horizon=300))
    acts = [a for a in PrimitiveAction]
    for i in range(n):
        if is_terminal(state):
            break
        agent = 1 + (i % 2)
        act = rng.choice(acts) if rng.random() < 0.5 else A.INTERACT
        before = ground_state(state)
        sym = ground_step(state, act, agent)[0]
        state, _, _ = step(state, single_action(agent, act))
        after = ground_state(state)

        assert sym.pre <= before
        assert sym.delete <= before
        assert not (sym.delete & after)
        assert not (sym.add & sym.delete)
        assert not (sym.add & sym.pre)
        late = sym.add - after
        if late:
            assert sym.subtask == PLACE_ONION_POT
            assert all(p.predicate == "soup-ready" for p in late)


def test_warm_effects_table_changes_no_action(layout, config):
    # The four baseline teams, grounded from the record of their play, and
    # fuzzed external logs, replayed, analyzed from an empty table and again
    # from the table the first pass filled.
    traces = [policy_trace(layout, config, p1, p2, seed=1) for p1, p2 in BASELINE_TEAMS]
    fuzz_config = EpisodeConfig(cook_time=3, horizon=300)
    traces += [random_external_trace(MINI_LAYOUT, fuzz_config, s, 300) for s in range(6)]

    def analyze_all():
        ledgers = [analyze_trace(trace) for trace in traces]
        texts = [report_to_markdown(build_report(ledger)) for ledger in ledgers]
        return ledgers, texts

    _effects.cache_clear()
    cold = analyze_all()
    assert _effects.cache_info().misses > 0
    warm = analyze_all()
    assert warm[0] == cold[0]
    assert warm[1] == cold[1]

    # Every step of one event key gets the very same entry, and the key
    # derived here from the state is the one `step` put in the event.
    by_key: dict = {}
    events = 0
    for trace in traces:
        state = initial_state(load_layout(trace.layout_text), trace.config)
        for t, act in enumerate(trace.steps):
            agent = 1 + t % 2
            successor, _, step_events = step(state, single_action(agent, act))
            if step_events:
                (e,) = step_events
                cell = facing_cell(state.player(agent))
                pot = state.layout.pot_index.get(cell)
                n = 0 if pot is None else state.pots[pot].onion_count
                fills = n + 1 == state.config.onions_per_soup
                key = (e.name, agent, cell, pot, n, state.soups_delivered, fills)
                assert key == (e.name, e.agent, e.cell, e.pot, e.n, e.k, e.fills)
                grounded = ground_event(e)
                assert by_key.setdefault(key, grounded) is grounded, key
                events += 1
            state = successor
    assert events > len(by_key)
    assert _effects.cache_info().currsize <= len(by_key)


def test_link_views_agree_with_ground(layout, layout_text, config):
    # Every entry a sweep pass and 40 random traces fill, analyzed under
    # both schemas: `match` folds the link view in place of the sets, so it
    # must hold exactly their shared members, keyed by canonical text.
    traces = [
        policy_trace(layout, config, stochastic(p), RECEIVER, seed)
        for seed in range(1, 21)
        for p in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    fuzz_config = EpisodeConfig(cook_time=3, horizon=300)
    traces += [
        random_external_trace((MINI_LAYOUT, layout_text)[s % 2], fuzz_config, s, 300)
        for s in range(40)
    ]
    _effects.cache_clear()
    for trace in traces:
        for counter_empty in (True, False):
            schema = build_interaction_schema(include_counter_empty=counter_empty)
            analyze_trace(trace, schema)
    filled = _effects.cache_info().currsize

    entries = {}
    for trace in traces:
        for event in trace.played or replay(trace):
            grounded = ground_event(event)
            entries[id(grounded)] = grounded
    assert len(entries) == filled == _effects.cache_info().currsize

    texts: dict = {}
    for grounded in entries.values():
        shared_pre = sorted((p for p in grounded.pre if p.shared), key=Proposition.canonical)
        assert [p for _, p in grounded.shared_pre] == shared_pre
        assert all(text == p.canonical() for text, p in grounded.shared_pre)
        for view, props in (
            (grounded.shared_del, grounded.delete),
            (grounded.shared_add, grounded.add),
        ):
            assert list(view) == sorted(p.canonical() for p in props if p.shared)
        # No two distinct facts share a text, so the text keys the fact.
        for p in grounded.pre | grounded.add | grounded.delete:
            assert texts.setdefault(p.canonical(), p) == p
