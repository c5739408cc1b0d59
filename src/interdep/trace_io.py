"""Durable trace and report formats.

Traces are line-delimited JSON: a header object on line 1 (format name,
version, layout text, config, policy specs, seed), one step object per
following line, and an optional sha256 footer over everything before it.
World states are never stored; replaying the action sequence through the
deterministic simulator reconstructs them, which keeps files small and
makes the simulator the single source of transition truth.

Externally produced traces with simultaneous actions are accepted when the
header carries `"serialize": "agent1-first"`; each tick is expanded into
two turn-taking steps with agent 1 first.

Reports (single-episode or aggregate) serialize to JSON, CSV (one episode
per row plus a mean row for aggregates) and a markdown table pair: team
performance (time, interdependence share, giver/receiver counts) and
coordination rates (trigger share, trigger acceptance).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from .errors import (
    ChecksumMismatch,
    IoFailure,
    SchemaViolation,
    VersionUnsupported,
)
from .gridworld import ALL_SUBTASKS, EpisodeConfig, PrimitiveAction
from .metrics import AggregateSummary, TeamReport

FORMAT_NAME = "interdep-trace"
FORMAT_VERSION = 1

_ACTION_BY_NAME = {a.value: a for a in PrimitiveAction}

Sink = Union[str, Path, io.TextIOBase]


@dataclass(frozen=True)
class ReplayableTrace:
    """A replayable episode: header data plus the ordered action steps.

    `played` is the record of play that `run_episode` attaches to the
    trace it returns: {t: (state, subtask)} for each step in which the
    acting cook had an event. It is never written or read, takes no part
    in equality or repr, and `dataclasses.replace` drops it, so it can
    only describe the steps it was recorded with. A trace without it is
    analyzed by replay.
    """

    layout_text: str
    config: EpisodeConfig
    policies: Union[tuple, str]  # (spec1, spec2) or "external"
    seed: Optional[int]
    steps: tuple  # ((t, agent, PrimitiveAction), ...)
    played: Optional[dict] = field(
        init=False, default=None, compare=False, repr=False
    )

    def header_dict(self) -> dict:
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "layout": self.layout_text,
            "config": self.config.to_dict(),
            "policies": list(self.policies)
            if isinstance(self.policies, tuple)
            else self.policies,
            "seed": self.seed,
        }


def _write_text(sink: Sink, text: str) -> None:
    try:
        if isinstance(sink, (str, Path)):
            Path(sink).write_text(text, encoding="utf-8")
        else:
            sink.write(text)
    except OSError as e:
        raise IoFailure(f"cannot write {sink}: {e}") from e


def _read_text(source: Sink) -> str:
    try:
        if isinstance(source, (str, Path)):
            return Path(source).read_text(encoding="utf-8")
        return source.read()
    except OSError as e:
        raise IoFailure(f"cannot read {source}: {e}") from e
    except UnicodeDecodeError as e:
        raise SchemaViolation(f"{source} is not UTF-8 text: {e}") from e


def trace_to_text(trace: ReplayableTrace) -> str:
    lines = [json.dumps(trace.header_dict(), sort_keys=True)]
    for t, agent, action in trace.steps:
        lines.append(
            json.dumps({"action": action.value, "agent": agent, "t": t}, sort_keys=True)
        )
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return body + json.dumps({"sha256": digest}) + "\n"


def write_trace(trace: ReplayableTrace, sink: Sink) -> None:
    _write_text(sink, trace_to_text(trace))


# json.loads on one line is the C scanner behind three Python-level calls.
# Calling the scanner directly on the line, stripped of the whitespace JSON
# allows around a value, accepts exactly what json.loads accepts.
_scan_once = json.JSONDecoder().scan_once


def _parse_json_line(line: str, lineno: int) -> dict:
    text = line.strip(" \t\n\r")
    try:
        obj, end = _scan_once(text, 0)
    except (StopIteration, json.JSONDecodeError):
        end = -1
    if end != len(text):
        # Not one whole value: json.loads words the error.
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise SchemaViolation(f"line {lineno}: not valid JSON ({e})") from e
    if not isinstance(obj, dict):
        raise SchemaViolation(f"line {lineno}: expected a JSON object")
    return obj


def _parse_header(obj: dict) -> tuple:
    for key in ("format", "version", "layout", "config", "policies", "seed"):
        if key not in obj:
            raise SchemaViolation(f"header missing required field {key!r}")
    if obj["format"] != FORMAT_NAME:
        raise SchemaViolation(f"not an {FORMAT_NAME} file (format={obj['format']!r})")
    # JSON true and 2.0 compare equal to 1 and 2, so integers are checked
    # by exact type here and below.
    if type(obj["version"]) is not int:
        raise SchemaViolation(f"version must be an integer, got {obj['version']!r}")
    if obj["version"] != FORMAT_VERSION:
        raise VersionUnsupported(
            f"trace format version {obj['version']!r} is not supported "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        config = EpisodeConfig.from_dict(obj["config"])
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaViolation(f"bad config in header: {e}") from e
    policies = obj["policies"]
    if isinstance(policies, list):
        if len(policies) != 2 or not all(isinstance(p, str) for p in policies):
            raise SchemaViolation("policies must be two spec strings or 'external'")
        policies = tuple(policies)
    elif policies != "external":
        raise SchemaViolation("policies must be two spec strings or 'external'")
    seed = obj["seed"]
    if seed is not None and type(seed) is not int:
        raise SchemaViolation("seed must be an integer or null")
    serialize = obj.get("serialize")
    if serialize not in (None, "agent1-first"):
        raise SchemaViolation(f"unknown serialize mode {serialize!r}")
    if not isinstance(obj["layout"], str):
        raise SchemaViolation("layout must be the grid text")
    return obj["layout"], config, policies, seed, serialize


def _parse_action(name, lineno: int) -> PrimitiveAction:
    action = _ACTION_BY_NAME.get(name) if isinstance(name, str) else None
    if action is None:
        raise SchemaViolation(f"line {lineno}: unknown action name {name!r}")
    return action


def read_trace(source: Sink) -> ReplayableTrace:
    """Parse and validate a trace file, normalizing to turn-taking steps."""
    text = _read_text(source)
    lines = text.splitlines()
    # Trailing blank lines are dropped, so a footer above them is still
    # found and checked; a blank line inside the body stays an error.
    while lines and not lines[-1].strip(" \t"):
        lines.pop()
    if not lines:
        raise SchemaViolation("empty trace file")

    # An optional one-key footer carries a sha256 over everything before it.
    footer = None
    try:
        maybe = json.loads(lines[-1])
        if isinstance(maybe, dict) and set(maybe) == {"sha256"}:
            footer = maybe
    except json.JSONDecodeError:
        pass
    if footer is not None:
        if not isinstance(footer["sha256"], str):
            raise SchemaViolation("checksum footer must hold a hex digest string")
        body = "\n".join(lines[:-1]) + "\n"
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        if digest != footer["sha256"]:
            raise ChecksumMismatch(
                f"trace content does not match its checksum footer "
                f"(expected {footer['sha256'][:12]}…, got {digest[:12]}…)"
            )
        lines = lines[:-1]
        if not lines:
            raise SchemaViolation("trace has a checksum footer but no header")

    layout_text, config, policies, seed, serialize = _parse_header(
        _parse_json_line(lines[0], 1)
    )

    steps = []
    for i, line in enumerate(lines[1:]):
        lineno = i + 2
        obj = _parse_json_line(line, lineno)
        keys = set(obj)
        if serialize == "agent1-first" and keys == {"t", "a1", "a2"}:
            if type(obj["t"]) is not int or obj["t"] != i:
                raise SchemaViolation(
                    f"line {lineno}: tick {obj['t']!r} breaks the 0..n sequence"
                )
            steps.append((2 * i, 1, _parse_action(obj["a1"], lineno)))
            steps.append((2 * i + 1, 2, _parse_action(obj["a2"], lineno)))
        elif keys == {"t", "agent", "action"}:
            if serialize == "agent1-first":
                raise SchemaViolation(
                    f"line {lineno}: per-agent step in a simultaneous trace"
                )
            if type(obj["t"]) is not int or obj["t"] != i:
                raise SchemaViolation(
                    f"line {lineno}: step t={obj['t']!r} breaks the 0..n sequence"
                )
            if type(obj["agent"]) is not int or obj["agent"] not in (1, 2):
                raise SchemaViolation(f"line {lineno}: bad agent {obj['agent']!r}")
            steps.append((i, obj["agent"], _parse_action(obj["action"], lineno)))
        else:
            raise SchemaViolation(f"line {lineno}: unexpected step fields {sorted(keys)}")

    return ReplayableTrace(
        layout_text=layout_text,
        config=config,
        policies=policies,
        seed=seed,
        steps=tuple(steps),
    )


def _fmt_pct(v: Optional[float]) -> str:
    return "undef" if v is None else f"{100 * v:.2f}"


def _fmt_ratio(v: Optional[float]) -> str:
    return "undef" if v is None else f"{v:.2f}"


def _fmt_frac(v: Optional[float]) -> str:
    return "" if v is None else f"{v:.6f}"


def _md_table(headers: list, rows: list) -> list:
    out = ["| " + " | ".join(headers) + " |"]
    out.append("| " + " | ".join("---" for _ in headers) + " |")
    for row in rows:
        out.append("| " + " | ".join(row) + " |")
    return out


_TEAM_HEADERS = [
    "Episode",
    "Time",
    "%Interdependent",
    "Ag1 G/R",
    "Ag1 ratio",
    "Ag2 G/R",
    "Ag2 ratio",
]
_RATE_HEADERS = [
    "Episode",
    "Ag1 trigger share",
    "Ag1 trigger acceptance",
    "Ag2 trigger share",
    "Ag2 trigger acceptance",
]


def _team_row(r: TeamReport) -> list:
    a1, a2 = r.agents
    return [
        r.label or "episode",
        str(r.episode_time),
        _fmt_pct(r.percent_interdependent),
        f"{a1.giver_count}/{a1.receiver_count}",
        _fmt_ratio(a1.contribution_ratio),
        f"{a2.giver_count}/{a2.receiver_count}",
        _fmt_ratio(a2.contribution_ratio),
    ]


def _rate_row(r: TeamReport) -> list:
    a1, a2 = r.agents
    return [
        r.label or "episode",
        _fmt_pct(a1.trigger_share_of_coordination),
        _fmt_pct(a1.trigger_acceptance_rate),
        _fmt_pct(a2.trigger_share_of_coordination),
        _fmt_pct(a2.trigger_acceptance_rate),
    ]


def _config_lines(
    config: EpisodeConfig, mode: str, include_counter_empty: bool
) -> list:
    flag = "included" if include_counter_empty else "excluded"
    return [
        "- config: " + " ".join(f"{k}={v}" for k, v in config.to_dict().items()),
        f"- denominator: {mode}; counter-empty fluent: {flag}",
    ]


def report_to_markdown(report: TeamReport) -> str:
    lines = [f"# Cooperation report: {report.label or 'episode'}", ""]
    lines += _config_lines(
        report.config, report.denominator_mode, report.include_counter_empty
    )
    lines += [
        f"- outcome: {report.soups_delivered}/{report.config.target_soups} soups "
        f"in {report.episode_time} ticks"
        + (" (timed out)" if report.timed_out else ""),
        "",
        "## Team performance",
        "",
    ]
    lines += _md_table(_TEAM_HEADERS, [_team_row(report)])
    lines += ["", "## Coordination rates", ""]
    lines += _md_table(_RATE_HEADERS, [_rate_row(report)])
    lines += ["", "## Event distribution", ""]
    a1, a2 = report.agents
    dist_rows = [
        [name, str(a1.event_distribution.get(name, 0)), str(a2.event_distribution.get(name, 0))]
        for name in ALL_SUBTASKS
    ]
    lines += _md_table(["Subtask", "Agent 1", "Agent 2"], dist_rows)
    lines += ["", "## Pairs by fluent", ""]
    pair_rows = [
        [name, str(count)]
        for name, count in sorted(report.pairs_by_predicate.items())
    ] or [["(none)", "0"]]
    lines += _md_table(["Fluent", "Count"], pair_rows)
    return "\n".join(lines) + "\n"


def _mean_std(summary: AggregateSummary, name: str, pct: bool = False) -> str:
    f = summary.fields[name]
    if f.mean is None:
        return "undef"
    scale = 100.0 if pct else 1.0
    return f"{scale * f.mean:.2f} ± {scale * f.stddev:.2f}"


def summary_to_markdown(summary: AggregateSummary) -> str:
    lines = [f"# Cooperation summary: {summary.n_reports} episodes", ""]
    lines += _config_lines(
        summary.config, summary.denominator_mode, summary.include_counter_empty
    )
    excluded = [
        f"- excluded undefined values: {name} ({f.excluded} of {summary.n_reports})"
        for name, f in summary.fields.items()
        if f.excluded
    ]
    lines += excluded
    lines += ["", "## Team performance", ""]
    team_rows = [_team_row(r) for r in summary.reports]
    team_rows.append(
        [
            "mean ± std",
            _mean_std(summary, "episode_time"),
            _mean_std(summary, "percent_interdependent", pct=True),
            f"{_mean_std(summary, 'agent1.giver_count')} / "
            f"{_mean_std(summary, 'agent1.receiver_count')}",
            _mean_std(summary, "agent1.contribution_ratio"),
            f"{_mean_std(summary, 'agent2.giver_count')} / "
            f"{_mean_std(summary, 'agent2.receiver_count')}",
            _mean_std(summary, "agent2.contribution_ratio"),
        ]
    )
    lines += _md_table(_TEAM_HEADERS, team_rows)
    lines += ["", "## Coordination rates", ""]
    rate_rows = [_rate_row(r) for r in summary.reports]
    rate_rows.append(
        [
            "mean ± std",
            _mean_std(summary, "agent1.trigger_share_of_coordination", pct=True),
            _mean_std(summary, "agent1.trigger_acceptance_rate", pct=True),
            _mean_std(summary, "agent2.trigger_share_of_coordination", pct=True),
            _mean_std(summary, "agent2.trigger_acceptance_rate", pct=True),
        ]
    )
    lines += _md_table(_RATE_HEADERS, rate_rows)
    return "\n".join(lines) + "\n"


_CSV_AGENT_FIELDS = (
    "giver_count",
    "receiver_count",
    "contribution_ratio",
    "trigger_share_of_coordination",
    "trigger_acceptance_rate",
    "triggers",
    "accepts",
    "trigger_accept_overlap",
    "independent",
    "coordination",
    "subtask_actions",
    "total_actions",
    "self_accept_count",
    "unaccepted_triggers",
)

CSV_COLUMNS = (
    "label",
    "episode_time",
    "timed_out",
    "soups_delivered",
    "percent_interdependent",
    "pair_count",
    "denominator",
    "denominator_mode",
    "include_counter_empty",
    *(f"ag1_{name}" for name in _CSV_AGENT_FIELDS),
    *(f"ag2_{name}" for name in _CSV_AGENT_FIELDS),
)

_RATE_FIELDS = {
    "contribution_ratio",
    "trigger_share_of_coordination",
    "trigger_acceptance_rate",
}


def _csv_row(r: TeamReport) -> list:
    row = [
        r.label,
        str(r.episode_time),
        str(int(r.timed_out)),
        str(r.soups_delivered),
        f"{100 * r.percent_interdependent:.2f}",
        str(r.pair_count),
        str(r.denominator),
        r.denominator_mode,
        str(int(r.include_counter_empty)),
    ]
    for agent in r.agents:
        for name in _CSV_AGENT_FIELDS:
            v = getattr(agent, name)
            row.append(_fmt_frac(v) if name in _RATE_FIELDS else str(v))
    return row


def _csv_mean_row(summary: AggregateSummary) -> list:
    def mean(name: str, pct: bool = False):
        f = summary.fields[name]
        if f.mean is None:
            return ""
        return f"{100 * f.mean:.2f}" if pct else f"{f.mean:.4f}"

    row = [
        "mean",
        mean("episode_time"),
        "",
        mean("soups_delivered"),
        mean("percent_interdependent", pct=True),
        mean("pair_count"),
        "",
        summary.denominator_mode,
        str(int(summary.include_counter_empty)),
    ]
    for agent in (1, 2):
        for name in _CSV_AGENT_FIELDS:
            f = summary.fields.get(f"agent{agent}.{name}")
            if f is None or f.mean is None:
                row.append("")
            elif name in _RATE_FIELDS:
                row.append(f"{f.mean:.6f}")
            else:
                row.append(f"{f.mean:.4f}")
    return row


def report_to_csv(obj: Union[TeamReport, AggregateSummary]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    if isinstance(obj, TeamReport):
        writer.writerow(_csv_row(obj))
    else:
        for r in obj.reports:
            writer.writerow(_csv_row(r))
        writer.writerow(_csv_mean_row(obj))
    return out.getvalue()


def write_report(
    obj: Union[TeamReport, AggregateSummary], fmt: str, sink: Sink
) -> None:
    """Serialize a report or aggregate summary as json, csv or markdown."""
    if fmt == "json":
        text = json.dumps(obj.to_dict(), sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        text = report_to_csv(obj)
    elif fmt == "markdown":
        text = (
            report_to_markdown(obj)
            if isinstance(obj, TeamReport)
            else summary_to_markdown(obj)
        )
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    _write_text(sink, text)


def read_report(source: Sink) -> TeamReport:
    """Load a single-episode report back from its JSON form."""
    try:
        data = json.loads(_read_text(source))
        return TeamReport.from_dict(data)
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaViolation(f"bad report file {source}: {e}") from e
