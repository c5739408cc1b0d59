"""Command line entry point: simulate, analyze, report, schema.

`simulate` plays seeded episodes and writes one trace file per seed;
`analyze` replays traces into per-episode reports plus an aggregate
summary, and writes nothing unless every trace analyzes; `report`
re-aggregates previously written report JSON files; `schema` dumps the
predicate vocabulary and subtask templates.

Every failure path exits 1 with a single `error: ...` line on stderr. Set
INTERDEP_LOG=DEBUG (or INFO) for progress logging. Seed batches run on a
thread pool; all files are written atomically (temp file + rename). Each
command imports only the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Optional

from .errors import InterdepError

# `metrics.DENOMINATOR_MODES`, spelled out so that `schema`, which builds no
# report, does not load `metrics`.
DENOMINATOR_MODES = ("subtask-actions", "all-actions")
TRACE_SUFFIX = ".trace.jsonl"
REPORT_FORMATS = {"json": ".report.json", "csv": ".report.csv", "markdown": ".report.md"}


def _configure_logging() -> None:
    import logging

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


def cmd_simulate(args) -> int:
    import concurrent.futures
    import logging

    from .gridworld import EpisodeConfig, load_layout
    from .policies import parse_policy_spec, run_episode
    from .trace_io import write_trace

    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    try:
        text = Path(args.layout).read_text(encoding="utf-8")
    except OSError as e:
        raise InterdepError(f"cannot read layout {args.layout}: {e}") from e
    layout = load_layout(text)
    spec1 = parse_policy_spec(args.p1)
    spec2 = parse_policy_spec(args.p2)
    # Each config flag is named after an EpisodeConfig field; one that was
    # not given keeps the field's default.
    names = EpisodeConfig.__dataclass_fields__
    config = EpisodeConfig(
        **{k: v for k, v in vars(args).items() if k in names and v is not None}
    )
    seeds = _parse_seeds(args.seeds)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.layout).name.removesuffix(".layout")

    def one(seed: int) -> Path:
        logging.getLogger("interdep").info("simulating seed %d", seed)
        trace = run_episode(layout, config, spec1, spec2, seed)
        path = outdir / f"{stem}_{seed}{TRACE_SUFFIX}"
        _atomic_write(path, lambda f: write_trace(trace, f))
        return path

    # Play is pure Python under the GIL: a thread past one per CPU adds no
    # speed, only a thread.
    workers = min(args.jobs, len(seeds), os.cpu_count() or 1)
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        paths = list(pool.map(one, seeds))
    for path in paths:
        print(path)
    return 0


def _formats(arg: str) -> list:
    return list(REPORT_FORMATS) if arg == "all" else [arg]


def _write_reports(obj, stem: str, formats: list, outdir: Path) -> None:
    from .trace_io import write_report

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
    import logging

    from .interdependence import analyze_trace, build_interaction_schema
    from .metrics import aggregate, build_report
    from .trace_io import read_trace

    schema = build_interaction_schema(
        include_counter_empty=args.counter_empty == "on"
    )
    labels = _labels(args.traces)
    formats = _formats(args.format)

    # Every report and ledger text is built before the first file is
    # written, so a trace that fails leaves no output behind.
    reports, ledgers = [], []
    for trace_path, label in zip(args.traces, labels):
        logging.getLogger("interdep").info("analyzing %s", trace_path)
        try:
            ledger = analyze_trace(read_trace(trace_path), schema)
            reports.append(build_report(ledger, mode=args.denominator, label=label))
        except (InterdepError, ValueError, OSError) as e:
            raise InterdepError(f"{trace_path}: {e}") from e
        if args.write_ledgers:
            text = json.dumps(ledger.to_dict(), sort_keys=True, indent=2) + "\n"
            ledgers.append(text)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for i, (report, label) in enumerate(zip(reports, labels)):
        if ledgers:
            text = ledgers[i]
            _atomic_write(outdir / f"{label}.ledger.json", lambda f: f.write(text))
        _write_reports(report, label, formats, outdir)
    if len(reports) > 1:
        _write_reports(aggregate(reports), "summary", formats, outdir)
    return 0


def cmd_report(args) -> int:
    from .metrics import aggregate
    from .trace_io import read_report

    reports = [read_report(p) for p in args.reports]
    summary = aggregate(reports)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_reports(summary, "summary", _formats(args.format), outdir)
    return 0


def cmd_schema(args) -> int:
    from .grounding import vocabulary_dump
    from .interdependence import build_interaction_schema

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
    for flag in ("--target-soups", "--horizon", "--cook-time", "--reward-per-soup"):
        sim.add_argument(flag, type=int)
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
