"""Team metrics: shares, ratios, ring distributions and aggregation."""

import statistics

import pytest

from conftest import MINI_LAYOUT, external_trace, interleave
from interdep import (
    ConfigMismatch,
    EmptyTrace,
    EpisodeConfig,
    PrimitiveAction,
    TeamReport,
    aggregate,
    analyze_trace,
    build_interaction_schema,
    build_report,
    replace,
)
from interdep.gridworld import ALL_SUBTASKS, INTERACT_SUBTASKS
from oracle_utils import action_distribution_rings

A = PrimitiveAction

PASS_SCRIPT = [
    (1, A.LEFT), (2, A.LEFT),
    (1, A.INTERACT), (2, A.DOWN),
    (1, A.DOWN), (2, A.LEFT),
    (1, A.INTERACT), (2, A.INTERACT),
]


@pytest.fixture(scope="module")
def pass_ledger():
    trace = external_trace(MINI_LAYOUT, EpisodeConfig(cook_time=3), PASS_SCRIPT)
    return analyze_trace(trace)


@pytest.fixture(scope="module")
def pr_ledger(passer_receiver_trace):
    return analyze_trace(passer_receiver_trace)


@pytest.fixture(scope="module")
def pr_report(pr_ledger):
    return build_report(pr_ledger, label="pr-1")


def test_percent_interdependent_known_value(pass_ledger):
    # one pair, three interact actions (pickup, place, partner pickup)
    assert build_report(pass_ledger).percent_interdependent == pytest.approx(2 / 3)
    all_actions = build_report(pass_ledger, "all-actions")
    assert all_actions.percent_interdependent == pytest.approx(2 / 8)


def test_percent_uses_interact_denominator(pr_ledger):
    interacts = sum(
        1
        for c in pr_ledger.classifications
        if c.subtask in INTERACT_SUBTASKS
    )
    expected = 2 * len(pr_ledger.pairs) / interacts
    assert build_report(pr_ledger).percent_interdependent == pytest.approx(expected)


def test_all_actions_dilutes_the_share(pr_ledger):
    diluted = build_report(pr_ledger, "all-actions").percent_interdependent
    assert diluted < build_report(pr_ledger).percent_interdependent


def test_unknown_denominator_mode_rejected(pr_ledger):
    with pytest.raises(ValueError):
        build_report(pr_ledger, "per-minute")


def test_zero_denominator_raises_empty_trace():
    trace = external_trace(
        MINI_LAYOUT, EpisodeConfig(horizon=4), interleave([A.STAY, A.STAY])
    )
    ledger = analyze_trace(trace)
    with pytest.raises(EmptyTrace):
        build_report(ledger)
    # movement steps still count in all-actions mode
    assert build_report(ledger, "all-actions").percent_interdependent == 0.0


def test_contribution_ratio_undefined_not_zero(pass_ledger):
    giver, receiver = build_report(pass_ledger).agents
    assert (giver.giver_count, giver.receiver_count) == (1, 0)
    assert giver.contribution_ratio is None
    assert (receiver.giver_count, receiver.receiver_count) == (0, 1)
    assert receiver.contribution_ratio == 0.0


def test_trigger_rates_bounds(pr_report):
    for agent in pr_report.agents:
        share = agent.trigger_share_of_coordination
        acceptance = agent.trigger_acceptance_rate
        assert share is None or 0.0 <= share <= 1.0
        assert acceptance is None or 0.0 <= acceptance <= 1.0


def test_trigger_rates_recount(pr_ledger, pr_report):
    for agent in (1, 2):
        acts = [c for c in pr_ledger.classifications if c.agent == agent]
        coord = [c for c in acts if c.is_trigger or c.is_accept]
        trig = [c for c in acts if c.is_trigger]
        share = pr_report.agent(agent).trigger_share_of_coordination
        acceptance = pr_report.agent(agent).trigger_acceptance_rate
        assert share == pytest.approx(len(trig) / len(coord))
        matched = {
            (p.giver.agent, p.giver.t) for p in pr_ledger.pairs
        }
        ok = sum(1 for c in trig if (agent, c.t) in matched)
        assert acceptance == pytest.approx(ok / len(trig))


def test_rings_telescope(pr_ledger):
    for agent in (1, 2):
        rings = action_distribution_rings(pr_ledger, agent)
        coord = rings["coordination"]
        assert rings["total"] == rings["independent"] + coord["total"]
        assert coord["total"] == (
            coord["trigger"]["total"] + coord["accept"]["total"] - coord["overlap"]
        )
        for role in ("trigger", "accept"):
            ring = coord[role]
            assert ring["total"] == ring["successful"] + ring["unsuccessful"]


def test_report_fields_consistent(pr_report, pr_ledger):
    assert pr_report.pair_count == len(pr_ledger.pairs)
    assert sum(pr_report.pairs_by_predicate.values()) == pr_report.pair_count
    assert pr_report.label == "pr-1"
    assert pr_report.denominator_mode == "subtask-actions"
    assert pr_report.include_counter_empty
    for agent_report in pr_report.agents:
        assert set(agent_report.event_distribution) == set(ALL_SUBTASKS)
        assert (
            sum(agent_report.event_distribution.values())
            == agent_report.total_actions
        )
        assert (
            agent_report.independent + agent_report.coordination
            == agent_report.total_actions
        )
    assert pr_report.agents[0].agent == 1 and pr_report.agents[1].agent == 2
    assert pr_report.agent(2) is pr_report.agents[1]


def test_report_round_trip(pr_report):
    assert TeamReport.from_dict(pr_report.to_dict()) == pr_report


def test_counter_empty_flag_restricts_pairs(passer_receiver_trace):
    no_ce = build_interaction_schema(include_counter_empty=False)
    ledger = analyze_trace(passer_receiver_trace, no_ce)
    report = build_report(ledger)
    assert not report.include_counter_empty
    assert set(report.pairs_by_predicate) == {"onion-on-counter"}
    # restricted to onion fluents the roles are one-directional
    assert (report.agent(1).giver_count, report.agent(1).receiver_count) == (9, 0)
    assert (report.agent(2).giver_count, report.agent(2).receiver_count) == (0, 9)
    assert report.agent(1).contribution_ratio is None
    assert report.agent(2).contribution_ratio == 0.0


# aggregation ---------------------------------------------------------------


def test_aggregate_singleton_identity(pr_report):
    summary = aggregate([pr_report])
    assert summary.n_reports == 1
    pct = summary.fields["percent_interdependent"]
    assert pct.mean == pytest.approx(pr_report.percent_interdependent)
    assert pct.stddev == 0.0
    assert pct.n == 1 and pct.excluded == 0


def test_aggregate_mean_and_sample_stddev(pr_report):
    a = replace(pr_report, episode_time=800)
    b = replace(pr_report, episode_time=900)
    summary = aggregate([a, b])
    fs = summary.fields["episode_time"]
    assert fs.mean == pytest.approx(850.0)
    assert fs.stddev == pytest.approx(statistics.stdev([800.0, 900.0]))
    assert fs.n == 2


def test_aggregate_excludes_undefined(solo_idle_trace):
    report = build_report(analyze_trace(solo_idle_trace), label="solo-idle")
    summary = aggregate([report, report])
    fs = summary.fields["agent2.trigger_acceptance_rate"]
    assert fs.mean is None and fs.n == 0 and fs.excluded == 2
    # the defined fields still aggregate
    assert summary.fields["pair_count"].mean == 0.0


def test_aggregate_rejects_mixed_config(pr_report):
    other = replace(
        pr_report, config=EpisodeConfig(horizon=999)
    )
    with pytest.raises(ConfigMismatch):
        aggregate([pr_report, other])


def test_aggregate_rejects_mixed_mode(pr_ledger, pr_report):
    other = build_report(pr_ledger, mode="all-actions", label="pr-all")
    with pytest.raises(ConfigMismatch):
        aggregate([pr_report, other])


def test_aggregate_rejects_empty_list():
    with pytest.raises(ConfigMismatch):
        aggregate([])
