#!/usr/bin/env python3
"""Sweep the passing probability and chart how interdependence responds.

Plays a StochasticPasser(p) next to a ReceiverChef for a grid of p values
over a batch of seeds, then writes one CSV row per episode plus a markdown
table of per-p means. The monotone rise of %Interdependent with p is the
headline sanity check for the pair extraction pipeline.

Usage:
    python3 scripts/run_cooperation_sweep.py --out results/sweep
    python3 scripts/run_cooperation_sweep.py --probs 0 0.5 1 --seeds 10
"""

from __future__ import annotations

import argparse
import csv
import statistics
from pathlib import Path

from interdep import (
    EpisodeConfig,
    analyze_trace,
    build_report,
    bundled_layout_text,
    load_layout,
)
from interdep.policies import parse_policy_spec, run_episode

RECEIVER = "receiver:counter=(4,2),pot=0"


def passer_spec(p: float) -> str:
    return f"stochastic:p={p!r},counter=(4,2),pot=0"


def run_sweep(layout, config: EpisodeConfig, probs, seeds) -> list:
    rows = []
    for p in probs:
        spec1 = parse_policy_spec(passer_spec(p))
        spec2 = parse_policy_spec(RECEIVER)
        for seed in seeds:
            trace = run_episode(layout, config, spec1, spec2, seed)
            report = build_report(analyze_trace(trace), label=f"p{p}_s{seed}")
            rows.append(
                {
                    "p": p,
                    "seed": seed,
                    "episode_time": report.episode_time,
                    "timed_out": int(report.timed_out),
                    "soups_delivered": report.soups_delivered,
                    "pair_count": report.pair_count,
                    "percent_interdependent": round(
                        100 * report.percent_interdependent, 2
                    ),
                }
            )
    return rows


def summarize(rows, probs) -> list:
    def agg(values):
        mean = statistics.mean(values)
        std = statistics.stdev(values) if len(values) > 1 else 0.0
        return f"{mean:.2f} ± {std:.2f}"

    lines = [
        "# Interdependence vs passing probability",
        "",
        "| p | %Interdependent | pairs | soups | time |",
        "| --- | --- | --- | --- | --- |",
    ]
    for p in probs:
        batch = [r for r in rows if r["p"] == p]
        lines.append(
            "| {} | {} | {} | {} | {} |".format(
                p,
                agg([r["percent_interdependent"] for r in batch]),
                agg([r["pair_count"] for r in batch]),
                agg([r["soups_delivered"] for r in batch]),
                agg([r["episode_time"] for r in batch]),
            )
        )
    lines.append("")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layout", default=None, help="layout file; bundled if omitted")
    parser.add_argument(
        "--probs", type=float, nargs="+", default=[0.0, 0.25, 0.5, 0.75, 1.0]
    )
    parser.add_argument("--seeds", type=int, default=30, help="seeds 1..N per p")
    parser.add_argument("--horizon", type=int)
    parser.add_argument("--target-soups", type=int)
    parser.add_argument("--out", default="sweep", help="output directory")
    args = parser.parse_args(argv)

    text = Path(args.layout).read_text() if args.layout else bundled_layout_text()
    layout = load_layout(text)
    # A config flag that was not given keeps EpisodeConfig's default.
    given = {"horizon": args.horizon, "target_soups": args.target_soups}
    config = EpisodeConfig(**{k: v for k, v in given.items() if v is not None})
    rows = run_sweep(layout, config, args.probs, range(1, args.seeds + 1))

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "sweep.csv"
    with csv_path.open("w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    lines = summarize(rows, args.probs)
    md_path = outdir / "sweep.md"
    md_path.write_text("\n".join(lines))
    print("\n".join(lines))
    print(f"wrote {csv_path} and {md_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
