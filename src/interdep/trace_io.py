"""Durable trace and report formats.

Traces are line-delimited JSON: a header object on line 1 (format name,
version, layout text, config, policy specs, seed), one step object per
following line, and an optional sha256 footer over everything before it.
World states are never stored; replaying the action sequence through the
deterministic simulator reconstructs them, which keeps files small and
makes the simulator the single source of transition truth.

Each step line is its turn's fixed text, `{"action": "up", "agent": 1,
"t": `, from a table with one entry per shared turn, then `t` and `}`.
The writer accepts exactly the turns replay accepts: a shared turn that
`single_action` returns, or an equal tuple or list, which it looks up
through `single_action`; any other turn (agent True, 1.0 or 3, no
`PrimitiveAction`, or not a pair) raises MalformedJointAction.

Externally produced traces with simultaneous actions are accepted when the
header carries `"serialize": "agent1-first"`; each tick is expanded into
two turn-taking steps with agent 1 first.

Reports (single-episode or aggregate) serialize to JSON, CSV (one episode
per row plus a mean row for aggregates) and a markdown table pair: team
performance (time, interdependence share, giver/receiver counts) and
coordination rates (trigger share, trigger acceptance). Each CSV and
markdown column is declared once, in a column table that names its
field and how it renders; the header, every episode row and the mean row
are all built from that table.
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
from .gridworld import (
    ALL_SUBTASKS,
    EpisodeConfig,
    PrimitiveAction,
    single_action,
    unpack_turn,
)
from .metrics import AggregateSummary, TeamReport

FORMAT_NAME = "interdep-trace"
FORMAT_VERSION = 1

_ACTION_NAMES = tuple(a.value for a in PrimitiveAction)
# A step line's (agent, action name), and a tick's two action names,
# mapped to the shared turns `single_action` returns.
_TURN_BY_NAMES = {
    (i, a.value): single_action(i, a) for i in (1, 2) for a in PrimitiveAction
}
_TICK_BY_NAMES = {
    (a, b): (_TURN_BY_NAMES[1, a], _TURN_BY_NAMES[2, b])
    for a in _ACTION_NAMES for b in _ACTION_NAMES
}
# Each shared turn's step line up to its `t` value, keyed by the turn's
# identity, so a turn that only equals one (agent True) is not found.
_STEP_PREFIX = {
    id(turn): json.dumps({"action": name, "agent": agent, "t": 0}, sort_keys=True)[:-2]
    for (agent, name), turn in _TURN_BY_NAMES.items()
}

Sink = Union[str, Path, io.TextIOBase]


@dataclass(frozen=True)
class ReplayableTrace:
    """A replayable episode: header data plus the ordered action steps.

    `played` is the record of play that `run_episode` attaches to the
    trace it returns: for each step with an event, in step order, the
    state it was taken in and the `EnvEvent` that `step` reported. A move
    or a stay has no entry. Analysis matches these entries and no other
    step. It is never written or read, takes no part in equality or repr,
    and `dataclasses.replace` drops it, so it can only describe the steps
    it was recorded with. A trace without it is replayed, which returns
    the same record.
    """

    layout_text: str
    config: EpisodeConfig
    policies: Union[tuple, str]  # (spec1, spec2) or "external"
    seed: Optional[int]
    steps: tuple  # steps[t] is the (agent, PrimitiveAction) turn `step` takes
    played: Optional[list] = field(
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
    for t, turn in enumerate(trace.steps):
        prefix = _STEP_PREFIX.get(id(turn))
        if prefix is None:
            # An equal tuple or a list; any other turn raises.
            prefix = _STEP_PREFIX[id(single_action(*unpack_turn(turn)))]
        lines.append(f"{prefix}{t}}}")
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return body + json.dumps({"sha256": digest}) + "\n"


def write_trace(trace: ReplayableTrace, sink: Sink) -> None:
    _write_text(sink, trace_to_text(trace))


# json.loads on one line is the C scanner behind three Python-level calls.
# Calling the scanner directly on the line, stripped of the whitespace JSON
# allows around a value, accepts exactly what json.loads accepts.
_scan_once = json.JSONDecoder().scan_once

# What the decoder raises on a line it rejects. A value nested deeper than
# the interpreter's recursion limit raises RecursionError, not a decode error.
_JSON_ERRORS = (json.JSONDecodeError, RecursionError)


def _parse_json_line(line: str, lineno: int) -> dict:
    text = line.strip(" \t\n\r")
    try:
        obj, end = _scan_once(text, 0)
    except (StopIteration, *_JSON_ERRORS):
        end = -1
    if end != len(text):
        # Not one whole value: json.loads words the error.
        try:
            obj = json.loads(line)
        except _JSON_ERRORS as e:
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
    except (KeyError, TypeError, ValueError, RecursionError) as e:
        # RecursionError: a value nested nearly as deep as the decoder
        # allows is too deep to repr in the error a few calls further in.
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
    except _JSON_ERRORS:
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

    ticks = serialize == "agent1-first"
    steps = []
    for i, line in enumerate(lines[1:]):
        lineno = i + 2
        obj = _parse_json_line(line, lineno)
        # A well-formed line is accepted with one table lookup. The checks
        # below word the error of any other line.
        try:
            if len(obj) == 3 and type(obj["t"]) is int and obj["t"] == i:
                if ticks:
                    steps += _TICK_BY_NAMES[obj["a1"], obj["a2"]]
                    continue
                if type(obj["agent"]) is int:
                    steps.append(_TURN_BY_NAMES[obj["agent"], obj["action"]])
                    continue
        except (KeyError, TypeError):
            pass
        keys = set(obj)
        if ticks and keys == {"t", "a1", "a2"}:
            if type(obj["t"]) is not int or obj["t"] != i:
                raise SchemaViolation(
                    f"line {lineno}: tick {obj['t']!r} breaks the 0..n sequence"
                )
            names = (obj["a1"], obj["a2"])
        elif keys == {"t", "agent", "action"}:
            if ticks:
                raise SchemaViolation(
                    f"line {lineno}: per-agent step in a simultaneous trace"
                )
            if type(obj["t"]) is not int or obj["t"] != i:
                raise SchemaViolation(
                    f"line {lineno}: step t={obj['t']!r} breaks the 0..n sequence"
                )
            if type(obj["agent"]) is not int or obj["agent"] not in (1, 2):
                raise SchemaViolation(f"line {lineno}: bad agent {obj['agent']!r}")
            names = (obj["action"],)
        else:
            raise SchemaViolation(f"line {lineno}: unexpected step fields {sorted(keys)}")
        # The line passed every check but its lookup, so a name is unknown.
        name = next(n for n in names if not (isinstance(n, str) and n in _ACTION_NAMES))
        raise SchemaViolation(f"line {lineno}: unknown action name {name!r}")

    return ReplayableTrace(
        layout_text=layout_text,
        config=config,
        policies=policies,
        seed=seed,
        steps=tuple(steps),
    )


def _value(r: TeamReport, key: str):
    """The value `aggregate` summarizes as `key`, e.g. "agent1.triggers"."""
    agent, _, name = key.rpartition(".")
    owner = r.agent(int(agent.removeprefix("agent"))) if agent else r
    return getattr(owner, name)


def _md_table(headers: list, rows: list) -> list:
    out = ["| " + " | ".join(headers) + " |"]
    out.append("| " + " | ".join("---" for _ in headers) + " |")
    for row in rows:
        out.append("| " + " | ".join(row) + " |")
    return out


# The two column tables of every markdown report, after the Episode
# column: (header, kind, `aggregate` field names). A count shows as is, a
# ratio with two decimals and a pct as a percentage; an undefined value
# shows as "undef". A column of two fields shows them as "g/r" and their
# means as "g / r".
_MARKDOWN_TABLES = {
    "Team performance": (
        ("Time", "count", ("episode_time",)),
        ("%Interdependent", "pct", ("percent_interdependent",)),
        ("Ag1 G/R", "count", ("agent1.giver_count", "agent1.receiver_count")),
        ("Ag1 ratio", "ratio", ("agent1.contribution_ratio",)),
        ("Ag2 G/R", "count", ("agent2.giver_count", "agent2.receiver_count")),
        ("Ag2 ratio", "ratio", ("agent2.contribution_ratio",)),
    ),
    "Coordination rates": (
        ("Ag1 trigger share", "pct", ("agent1.trigger_share_of_coordination",)),
        ("Ag1 trigger acceptance", "pct", ("agent1.trigger_acceptance_rate",)),
        ("Ag2 trigger share", "pct", ("agent2.trigger_share_of_coordination",)),
        ("Ag2 trigger acceptance", "pct", ("agent2.trigger_acceptance_rate",)),
    ),
}


def _md_cell(v, kind: str) -> str:
    if kind == "count":
        return str(v)
    if v is None:
        return "undef"
    return f"{100 * v:.2f}" if kind == "pct" else f"{v:.2f}"


def _md_mean(f, kind: str) -> str:
    if f.mean is None:
        return "undef"
    scale = 100.0 if kind == "pct" else 1.0
    return f"{scale * f.mean:.2f} ± {scale * f.stddev:.2f}"


def _md_column_tables(
    reports: tuple, summary: Optional[AggregateSummary] = None
) -> list:
    """Both column tables: a row per report, then a summary's mean row."""
    lines = []
    for title, columns in _MARKDOWN_TABLES.items():
        rows = [
            [r.label or "episode"]
            + [
                "/".join(_md_cell(_value(r, k), kind) for k in keys)
                for _, kind, keys in columns
            ]
            for r in reports
        ]
        if summary is not None:
            rows.append(
                ["mean ± std"]
                + [
                    " / ".join(_md_mean(summary.fields[k], kind) for k in keys)
                    for _, kind, keys in columns
                ]
            )
        headers = ["Episode"] + [header for header, _, _ in columns]
        lines += ["", f"## {title}", ""] + _md_table(headers, rows)
    return lines


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
    lines.append(
        f"- outcome: {report.soups_delivered}/{report.config.target_soups} soups "
        f"in {report.episode_time} ticks"
        + (" (timed out)" if report.timed_out else "")
    )
    lines += _md_column_tables((report,))
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


def summary_to_markdown(summary: AggregateSummary) -> str:
    lines = [f"# Cooperation summary: {summary.n_reports} episodes", ""]
    lines += _config_lines(
        summary.config, summary.denominator_mode, summary.include_counter_empty
    )
    lines += [
        f"- excluded undefined values: {name} ({f.excluded} of {summary.n_reports})"
        for name, f in summary.fields.items()
        if f.excluded
    ]
    lines += _md_column_tables(summary.reports, summary)
    return "\n".join(lines) + "\n"


# The CSV columns after the label: (`aggregate` field name, kind). A rate
# has six decimals and is empty when undefined; a pct is a percentage with
# two; a flag is 0 or 1. A mean row averages what `aggregate` summarizes
# (a count with four decimals), repeats the settings every report shares,
# and leaves the rest empty.
_CSV_AGENT_FIELDS = (
    ("giver_count", "count"),
    ("receiver_count", "count"),
    ("contribution_ratio", "rate"),
    ("trigger_share_of_coordination", "rate"),
    ("trigger_acceptance_rate", "rate"),
    ("triggers", "count"),
    ("accepts", "count"),
    ("trigger_accept_overlap", "count"),
    ("independent", "count"),
    ("coordination", "count"),
    ("subtask_actions", "count"),
    ("total_actions", "count"),
    ("self_accept_count", "count"),
    ("unaccepted_triggers", "count"),
)
_CSV_FIELDS = (
    ("episode_time", "count"),
    ("timed_out", "flag"),
    ("soups_delivered", "count"),
    ("percent_interdependent", "pct"),
    ("pair_count", "count"),
    ("denominator", "count"),
    ("denominator_mode", "text"),
    ("include_counter_empty", "flag"),
    *(
        (f"agent{a}.{name}", kind)
        for a in (1, 2)
        for name, kind in _CSV_AGENT_FIELDS
    ),
)

CSV_COLUMNS = (
    "label",
    *(key.replace("agent", "ag").replace(".", "_") for key, _ in _CSV_FIELDS),
)


def _csv_cell(v, kind: str) -> str:
    if v is None:
        return ""
    if kind == "rate":
        return f"{v:.6f}"
    if kind == "pct":
        return f"{100 * v:.2f}"
    return str(int(v)) if kind == "flag" else str(v)


def _csv_mean(summary: AggregateSummary, key: str, kind: str) -> str:
    f = summary.fields.get(key)
    if f is None:
        # Not averaged: a setting `aggregate` checked every report shares,
        # or else empty.
        return _csv_cell(getattr(summary, key, None), kind)
    if f.mean is None:
        return ""
    return f"{f.mean:.4f}" if kind == "count" else _csv_cell(f.mean, kind)


def _csv_row(r: TeamReport) -> list:
    return [r.label] + [
        _csv_cell(_value(r, key), kind) for key, kind in _CSV_FIELDS
    ]


def _csv_mean_row(summary: AggregateSummary) -> list:
    return ["mean"] + [_csv_mean(summary, key, kind) for key, kind in _CSV_FIELDS]


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
    bad = f"bad report file {source}:"
    try:
        data = json.loads(_read_text(source))
        if isinstance(data, dict) and {"n_reports", "reports", "fields"} <= data.keys():
            raise SchemaViolation(f"{bad} an aggregate summary, not a per-episode report")
        return TeamReport.from_dict(data)
    except KeyError as e:
        raise SchemaViolation(f"{bad} missing field {e.args[0]!r}") from e
    except (TypeError, ValueError, RecursionError) as e:
        raise SchemaViolation(f"{bad} {e}") from e
