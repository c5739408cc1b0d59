"""Rebuild the pinned golden files under tests/golden/.

These are three markdown reports and the `interdep schema` dump. Run from
the repository root after an intentional change to either:

    python3 scripts/regenerate_goldens.py
"""

from __future__ import annotations

import pathlib

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
from interdep.trace_io import report_to_markdown, summary_to_markdown

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"

PASSING_TEAM = ("passer:counter=(4,2)", "receiver:counter=(4,2),pot=0")
SOLO_TEAM = ("solo", "idle")
MIXED_TEAM = ("stochastic:p=0.5,counter=(4,2),pot=0", "receiver:counter=(4,2),pot=0")


def episode_report(p1: str, p2: str, seed: int):
    layout = load_layout(bundled_layout_text())
    config = EpisodeConfig()
    trace = run_episode(
        layout, config, parse_policy_spec(p1), parse_policy_spec(p2), seed
    )
    return build_report(analyze_trace(trace), label=f"counter_circuit_{seed}")


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)

    passing = episode_report(*PASSING_TEAM, seed=1)
    (GOLDEN_DIR / "report_passing.md").write_text(report_to_markdown(passing))

    solo = episode_report(*SOLO_TEAM, seed=1)
    (GOLDEN_DIR / "report_solo.md").write_text(report_to_markdown(solo))

    summary = aggregate([episode_report(*MIXED_TEAM, seed=s) for s in (1, 2, 3)])
    (GOLDEN_DIR / "summary_stochastic.md").write_text(summary_to_markdown(summary))

    for name in ("report_passing.md", "report_solo.md", "summary_stochastic.md"):
        print(GOLDEN_DIR / name)

    # Prints the path it writes.
    cli_main(["schema", "--out", str(GOLDEN_DIR / "schema.json")])


if __name__ == "__main__":
    main()
