"""Command line entry point: simulate, analyze, report, schema.

`simulate` plays seeded episodes and writes one trace file per seed;
`analyze` replays traces into per-episode reports plus an aggregate
summary; `report` re-aggregates previously written report JSON files;
`schema` dumps the predicate vocabulary and subtask templates.

Every failure path exits 1 with a single `error: ...` line on stderr. Set
INTERDEP_LOG=DEBUG (or INFO) for progress logging. Seed batches run on a
thread pool; all files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import logging
import os
import sys
from pathlib import Path
from typing import Callable, Optional

from .errors import InterdepError
from .grounding import vocabulary_dump
from .gridworld import EpisodeConfig, load_layout
from .interdependence import analyze_trace, build_interaction_schema
from .metrics import DENOMINATOR_MODES, aggregate, build_report
from .policies import parse_policy_spec, run_episode
from .trace_io import read_report, read_trace, write_report, write_trace

LOG = logging.getLogger("interdep")

TRACE_SUFFIX = ".trace.jsonl"
REPORT_FORMATS = {"json": ".report.json", "csv": ".report.csv", "markdown": ".report.md"}


def _configure_logging() -> None:
    name = os.environ.get("INTERDEP_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, format="%(asctime)s %(name)s %(levelname)s %(message)s"
    )


def _parse_seeds(text: str) -> list:
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(lo)]
    except ValueError:
        raise ValueError(f"bad seed spec {text!r}: use N or A..B") from None
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def _atomic_write(path: Path, write: Callable) -> None:
    """Run `write(file)` on a temp file beside `path`, then rename it over.

    The temp file is created as `open(path, "w")` would create it, mode
    0o666 less the umask, and the rename keeps that mode.
    """
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _read_layout_file(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise InterdepError(f"cannot read layout {path}: {e}") from e
    return load_layout(text)


def _config_from_args(args) -> EpisodeConfig:
    return EpisodeConfig(
        target_soups=args.target_soups,
        horizon=args.horizon,
        cook_time=args.cook_time,
        reward_per_soup=args.reward_per_soup,
    )


def cmd_simulate(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    layout = _read_layout_file(args.layout)
    spec1 = parse_policy_spec(args.p1)
    spec2 = parse_policy_spec(args.p2)
    config = _config_from_args(args)
    seeds = _parse_seeds(args.seeds)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.layout).name.removesuffix(".layout")

    def one(seed: int) -> Path:
        LOG.info("simulating seed %d", seed)
        trace = run_episode(layout, config, spec1, spec2, seed)
        path = outdir / f"{stem}_{seed}{TRACE_SUFFIX}"
        _atomic_write(path, lambda f: write_trace(trace, f))
        return path

    workers = min(args.jobs, len(seeds))
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        paths = list(pool.map(one, seeds))
    for path in paths:
        print(path)
    return 0


def _formats(arg: str) -> list:
    return list(REPORT_FORMATS) if arg == "all" else [arg]


def _write_reports(obj, stem: str, formats: list, outdir: Path) -> None:
    for fmt in formats:
        path = outdir / f"{stem}{REPORT_FORMATS[fmt]}"
        _atomic_write(path, lambda f: write_report(obj, fmt, f))
        print(path)


def _labels(trace_paths: list) -> list:
    """One report label per trace, the file name less its suffix.

    Output files are named by label, so two traces with one label, or a
    label `summary` beside a summary, would overwrite each other's reports.
    """
    labels = [Path(p).name.removesuffix(TRACE_SUFFIX) for p in trace_paths]
    taken = {"summary": "the summary"} if len(labels) > 1 else {}
    for path, label in zip(trace_paths, labels):
        if label in taken:
            raise ValueError(
                f"{taken[label]} and {path} share the report label {label!r}"
            )
        taken[label] = path
    return labels


def cmd_analyze(args) -> int:
    schema = build_interaction_schema(
        include_counter_empty=args.counter_empty == "on"
    )
    labels = _labels(args.traces)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    formats = _formats(args.format)

    reports = []
    for trace_path, label in zip(args.traces, labels):
        LOG.info("analyzing %s", trace_path)
        trace = read_trace(trace_path)
        ledger = analyze_trace(trace, schema)
        report = build_report(ledger, mode=args.denominator, label=label)
        reports.append(report)
        if args.write_ledgers:
            text = json.dumps(ledger.to_dict(), sort_keys=True, indent=2) + "\n"
            _atomic_write(outdir / f"{label}.ledger.json", lambda f: f.write(text))
        _write_reports(report, label, formats, outdir)

    if len(reports) > 1:
        _write_reports(aggregate(reports), "summary", formats, outdir)
    return 0


def cmd_report(args) -> int:
    reports = [read_report(p) for p in args.reports]
    summary = aggregate(reports)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_reports(summary, "summary", _formats(args.format), outdir)
    return 0


def cmd_schema(args) -> int:
    schema = build_interaction_schema(
        include_counter_empty=args.counter_empty == "on"
    )
    payload = {"schema": schema.to_dict(), **vocabulary_dump()}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        _atomic_write(Path(args.out), lambda f: f.write(text))
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


def _add_counter_empty(p: argparse.ArgumentParser, help: Optional[str] = None) -> None:
    p.add_argument("--counter-empty", choices=["on", "off"], default="on", help=help)


def _add_format(p: argparse.ArgumentParser, help: Optional[str] = None) -> None:
    p.add_argument(
        "--format", choices=[*REPORT_FORMATS, "all"], default="all", help=help
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interdep",
        description="Simulate two-cook kitchen episodes and audit their cooperation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="play seeded episodes and write traces")
    sim.add_argument("--layout", required=True, help="path to a .layout grid file")
    sim.add_argument("--p1", required=True, help="policy spec for agent 1")
    sim.add_argument("--p2", required=True, help="policy spec for agent 2")
    sim.add_argument("--seeds", default="1", help="seed N or inclusive range A..B")
    sim.add_argument("--target-soups", type=int, default=3)
    sim.add_argument("--horizon", type=int, default=1000)
    sim.add_argument("--cook-time", type=int, default=20)
    sim.add_argument("--reward-per-soup", type=int, default=20)
    sim.add_argument("--out", default=".", help="output directory")
    sim.add_argument("--jobs", type=int, default=min(8, os.cpu_count() or 1))
    sim.set_defaults(func=cmd_simulate)

    an = sub.add_parser("analyze", help="replay traces into cooperation reports")
    an.add_argument("traces", nargs="+", help="trace files to analyze")
    an.add_argument("--out", default=".", help="output directory")
    an.add_argument("--write-ledgers", action="store_true", help="also dump ledgers")
    an.add_argument(
        "--denominator",
        choices=DENOMINATOR_MODES,
        default="subtask-actions",
        help="action count used as the interdependence share denominator",
    )
    _add_counter_empty(an, "whether counter-empty can link the two agents' actions")
    _add_format(an, "report formats to write")
    an.set_defaults(func=cmd_analyze)

    rep = sub.add_parser("report", help="aggregate previously written report JSONs")
    rep.add_argument("reports", nargs="+", help="per-episode .report.json files")
    rep.add_argument("--out", default=".", help="output directory")
    _add_format(rep)
    rep.set_defaults(func=cmd_report)

    sch = sub.add_parser("schema", help="dump the vocabulary and subtask templates")
    _add_counter_empty(sch)
    sch.add_argument("--out", default=None, help="write to a file instead of stdout")
    sch.set_defaults(func=cmd_schema)

    return parser


def main(argv: Optional[list] = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InterdepError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
