"""Headline guarantees of the toolkit, one test per promise.

Each test here pins down a user-facing contract at full precision: exact
pair counts on scripted teams, exact agreement with a brute-force matcher,
statistically separated cooperation levels, conservation and bookkeeping
identities, byte determinism, and the published table layout. The terminal
summary prints one PASS or FAIL line per test.
"""

import io
import math
import pathlib
import statistics
import time

from conftest import MINI_LAYOUT, PASSER, RECEIVER, play, policy_trace, stochastic
from interdep import (
    EpisodeConfig,
    aggregate,
    analyze_trace,
    build_interaction_schema,
    build_report,
    bundled_layout_text,
    load_layout,
)
from interdep.cli import main
from interdep.gridworld import PICKUP_ONION_DISPENSER
from interdep.trace_io import (
    read_trace,
    report_to_markdown,
    summary_to_markdown,
    trace_to_text,
    write_trace,
)
from oracle_utils import (
    assert_ledger_arithmetic,
    assert_matches_oracle,
    onion_imbalance,
    random_external_trace,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

PAIRINGS = [
    ("solo", "idle"),
    ("solo", "solo"),
    ("solo", RECEIVER),
    (PASSER, RECEIVER),
    (stochastic(0.5), RECEIVER),
    (stochastic(1.0), RECEIVER),
]


def test_zero_cooperation_scores_zero(layout, config):
    """A lone worker plus an idle partner shows 0.00% interdependence."""
    start = time.perf_counter()
    for seed in range(1, 11):
        trace = policy_trace(layout, config, "solo", "idle", seed)
        report = build_report(analyze_trace(trace))
        assert report.percent_interdependent == 0.0
        assert report.pair_count == 0
        idle = report.agents[1]
        assert idle.triggers == 0
        assert idle.trigger_acceptance_rate is None
    assert time.perf_counter() - start < 5.0


def test_perfect_passing_yields_nine_onion_pairs(passer_receiver_trace):
    """Passing every onion across the counter links all nine handoffs."""
    trace = passer_receiver_trace
    onion_only = build_interaction_schema(include_counter_empty=False)
    restricted = assert_matches_oracle(trace, onion_only)

    # three onions per soup, three soups, all passed agent 1 to agent 2
    assert len(restricted.pairs) == 9
    assert all(p.prop.predicate == "onion-on-counter" for p in restricted.pairs)
    assert all(
        p.giver.agent == 1 and p.receiver.agent == 2 for p in restricted.pairs
    )

    # clearing the shared counter flows the opposite way
    full = assert_matches_oracle(trace, build_interaction_schema())
    extra = [p for p in full.pairs if p.prop.predicate == "counter-empty"]
    assert len(full.pairs) == 9 + len(extra)
    assert extra
    assert all(p.giver.agent == 2 and p.receiver.agent == 1 for p in extra)


def test_pair_extraction_matches_brute_force(layout):
    """Provenance matching equals the quadratic reference matcher exactly."""
    start = time.perf_counter()
    episodes = []
    fuzz_config = EpisodeConfig(cook_time=3, horizon=400)
    for seed in range(60):
        bias = (0.3, 0.5, 0.7)[seed % 3]
        episodes.append(
            random_external_trace(MINI_LAYOUT, fuzz_config, seed, 400, bias)
        )
    run_config = EpisodeConfig(horizon=500)
    for p1, p2 in PAIRINGS:
        for seed in range(1, 9):
            episodes.append(policy_trace(layout, run_config, p1, p2, seed))
    assert len(episodes) >= 100

    schemas = (
        build_interaction_schema(),
        build_interaction_schema(include_counter_empty=False),
    )
    for trace in episodes:
        for schema in schemas:
            assert_matches_oracle(trace, schema)
    assert time.perf_counter() - start < 60.0


def test_interdependence_rises_with_passing_probability(layout, config):
    """More willingness to pass means a strictly higher interdependence share."""

    def percents(p):
        vals = []
        for seed in range(1, 31):
            trace = policy_trace(layout, config, stochastic(p), RECEIVER, seed)
            report = build_report(analyze_trace(trace))
            vals.append(100 * report.percent_interdependent)
        return vals

    lo, mid, hi = percents(0.0), percents(0.5), percents(1.0)
    assert lo == [0.0] * 30
    for a, b in ((lo, mid), (mid, hi)):
        gap = statistics.mean(b) - statistics.mean(a)
        pooled_se = math.sqrt(
            statistics.variance(a) / len(a) + statistics.variance(b) / len(b)
        )
        assert gap > 0
        assert gap > 2 * pooled_se


def test_ledger_arithmetic_and_onion_conservation(layout, config):
    """Bookkeeping identities hold on every ledger; onions never leak."""
    traces = []
    for p1, p2 in PAIRINGS:
        for seed in (1, 2, 3):
            traces.append(policy_trace(layout, config, p1, p2, seed))
    fuzz_config = EpisodeConfig(cook_time=3, horizon=300)
    for seed in range(8):
        traces.append(random_external_trace(MINI_LAYOUT, fuzz_config, seed, 300))

    schemas = (
        build_interaction_schema(),
        build_interaction_schema(include_counter_empty=False),
    )
    for trace in traces:
        dispensed = 0
        for state, events in play(load_layout(trace.layout_text), trace.config, trace):
            dispensed += sum(e.name == PICKUP_ONION_DISPENSER for e in events)
            assert onion_imbalance(state, dispensed) == 0
        for schema in schemas:
            ledger = analyze_trace(trace, schema)
            assert_ledger_arithmetic(ledger)
            for mode in ("subtask-actions", "all-actions"):
                report = build_report(ledger, mode=mode)
                assert 0.0 <= report.percent_interdependent <= 1.0
                for agent in report.agents:
                    for rate in (
                        agent.trigger_share_of_coordination,
                        agent.trigger_acceptance_rate,
                    ):
                        assert rate is None or 0.0 <= rate <= 1.0


def test_end_to_end_determinism_and_round_trip(tmp_path, layout):
    """Same seed, same bytes, twice; long traces survive write and read."""
    layout_file = tmp_path / "counter_circuit.layout"
    layout_file.write_text(bundled_layout_text())

    def pipeline(root):
        root.mkdir()
        argv = [
            "simulate",
            "--layout", str(layout_file),
            "--p1", stochastic(0.5),
            "--p2", RECEIVER,
            "--seeds", "7",
            "--out", str(root),
        ]
        assert main(argv) == 0
        trace_path = root / "counter_circuit_7.trace.jsonl"
        assert main(["analyze", str(trace_path), "--out", str(root)]) == 0
        names = [
            "counter_circuit_7.trace.jsonl",
            "counter_circuit_7.report.json",
            "counter_circuit_7.report.csv",
            "counter_circuit_7.report.md",
        ]
        return [(root / name).read_bytes() for name in names]

    assert pipeline(tmp_path / "a") == pipeline(tmp_path / "b")

    long_trace = policy_trace(layout, EpisodeConfig(horizon=1000), "idle", "idle", 1)
    assert len(long_trace.steps) == 1000
    path = tmp_path / "long.trace.jsonl"
    write_trace(long_trace, path)
    assert read_trace(path) == long_trace
    assert read_trace(io.StringIO(trace_to_text(long_trace))) == long_trace


def test_markdown_tables_match_pinned_goldens(layout, config, passer_receiver_trace):
    """Reports keep the documented table layout, byte for byte."""
    report = build_report(analyze_trace(passer_receiver_trace), label="counter_circuit_1")
    text = report_to_markdown(report)
    assert text == (GOLDEN / "report_passing.md").read_text()
    assert (
        "| Episode | Time | %Interdependent | Ag1 G/R | Ag1 ratio "
        "| Ag2 G/R | Ag2 ratio |"
    ) in text
    assert (
        "| Episode | Ag1 trigger share | Ag1 trigger acceptance "
        "| Ag2 trigger share | Ag2 trigger acceptance |"
    ) in text

    solo = build_report(
        analyze_trace(policy_trace(layout, config, "solo", "idle", 1)),
        label="counter_circuit_1",
    )
    assert report_to_markdown(solo) == (GOLDEN / "report_solo.md").read_text()

    reports = [
        build_report(
            analyze_trace(policy_trace(layout, config, stochastic(0.5), RECEIVER, s)),
            label=f"counter_circuit_{s}",
        )
        for s in (1, 2, 3)
    ]
    summary = summary_to_markdown(aggregate(reports))
    assert summary == (GOLDEN / "summary_stochastic.md").read_text()
