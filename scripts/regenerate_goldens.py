"""Rebuild the pinned golden files under tests/golden/.

These are four markdown reports, one CSV summary, two `analyze
--write-ledgers` ledgers, the `interdep schema` dump and the sha256 of
scripted-navigation traces on two layouts. Run from the repository root after an intentional change
to any of them:

    python3 scripts/regenerate_goldens.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import shutil
import tempfile

from interdep import (
    EpisodeConfig,
    aggregate,
    analyze_trace,
    build_report,
    bundled_layout_text,
    load_layout,
)
from interdep.cli import main as cli_main
from interdep.policies import parse_policy_spec, run_episode
from interdep.trace_io import (
    report_to_csv,
    report_to_markdown,
    summary_to_markdown,
    trace_to_text,
)

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"

PASSING_TEAM = ("passer:counter=(4,2)", "receiver:counter=(4,2),pot=0")
SOLO_TEAM = ("solo", "idle")
MIXED_TEAM = ("stochastic:p=0.5,counter=(4,2),pot=0", "receiver:counter=(4,2),pot=0")

# Navigation pins: every scripted cook on the bundled kitchen and on a
# narrow one whose single corridor cell (4,2) two solo cooks contend for.
NAV_LAYOUTS = {
    "counter_circuit": bundled_layout_text(),
    "corridor": "XXXPXXXX\nO1    2X\nXCXX XCX\nD     SX\nXXXXXXXX",
}
NAV_TEAMS = (
    ("solo", "idle"),
    ("solo", "solo"),
    ("solo", "receiver"),
    ("stochastic:p=0.5", "receiver"),
    ("passer", "receiver"),
    ("random", "random"),
)
NAV_SEEDS = (1, 2, 3)
NAV_HORIZON = 400

# Ledger pins: golden file -> (team, extra `analyze` flags), seed 1.
LEDGERS = {
    "ledger_passing.json": (PASSING_TEAM, ()),
    "ledger_stochastic_no_ce.json": (MIXED_TEAM, ("--counter-empty", "off")),
}


def episode_report(p1: str, p2: str, seed: int):
    layout = load_layout(bundled_layout_text())
    config = EpisodeConfig()
    trace = run_episode(
        layout, config, parse_policy_spec(p1), parse_policy_spec(p2), seed
    )
    return build_report(analyze_trace(trace), label=f"counter_circuit_{seed}")


def nav_trace_sha256(layout_text: str, p1: str, p2: str, seed: int) -> str:
    trace = run_episode(
        load_layout(layout_text),
        EpisodeConfig(horizon=NAV_HORIZON),
        parse_policy_spec(p1),
        parse_policy_spec(p2),
        seed,
    )
    return hashlib.sha256(trace_to_text(trace).encode()).hexdigest()


def nav_traces() -> dict:
    """Self-describing pin file: the inputs of every trace and its sha256."""
    return {
        "horizon": NAV_HORIZON,
        "layouts": NAV_LAYOUTS,
        "traces": [
            {
                "layout": name,
                "p1": p1,
                "p2": p2,
                "seed": seed,
                "sha256": nav_trace_sha256(text, p1, p2, seed),
            }
            for name, text in NAV_LAYOUTS.items()
            for p1, p2 in NAV_TEAMS
            for seed in NAV_SEEDS
        ],
    }


def write_ledger(name: str, team: tuple, flags: tuple) -> None:
    """Simulate seed 1 of `team` and keep its `analyze --write-ledgers` ledger."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        tmp = pathlib.Path(tmp)
        layout = tmp / "counter_circuit.layout"
        layout.write_text(bundled_layout_text())
        p1, p2 = team
        trace = tmp / "counter_circuit_1.trace.jsonl"
        for argv in (
            ["simulate", "--layout", str(layout), "--p1", p1, "--p2", p2],
            ["analyze", str(trace), "--format", "json", "--write-ledgers", *flags],
        ):
            if cli_main([*argv, "--out", str(tmp)]) != 0:
                raise SystemExit(f"{argv[0]} failed for {name}")
        shutil.copyfile(tmp / "counter_circuit_1.ledger.json", GOLDEN_DIR / name)


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)

    passing = episode_report(*PASSING_TEAM, seed=1)
    (GOLDEN_DIR / "report_passing.md").write_text(report_to_markdown(passing))

    solo = episode_report(*SOLO_TEAM, seed=1)
    (GOLDEN_DIR / "report_solo.md").write_text(report_to_markdown(solo))

    summary = aggregate([episode_report(*MIXED_TEAM, seed=s) for s in (1, 2, 3)])
    (GOLDEN_DIR / "summary_stochastic.md").write_text(summary_to_markdown(summary))

    # Solo + idle leaves both contribution ratios and agent 2's two rates
    # undefined in every episode, so their mean cells render as undefined.
    solo_summary = aggregate([episode_report(*SOLO_TEAM, seed=s) for s in (1, 2)])
    (GOLDEN_DIR / "summary_solo.md").write_text(summary_to_markdown(solo_summary))
    (GOLDEN_DIR / "summary_solo.csv").write_text(report_to_csv(solo_summary))

    nav = json.dumps(nav_traces(), indent=2) + "\n"
    (GOLDEN_DIR / "nav_traces.json").write_text(nav)

    for name, (team, flags) in LEDGERS.items():
        write_ledger(name, team, flags)

    for name in (
        "report_passing.md",
        "report_solo.md",
        "summary_stochastic.md",
        "summary_solo.md",
        "summary_solo.csv",
        "nav_traces.json",
        *LEDGERS,
    ):
        print(GOLDEN_DIR / name)

    # Prints the path it writes.
    cli_main(["schema", "--out", str(GOLDEN_DIR / "schema.json")])


if __name__ == "__main__":
    main()
