"""Durable trace and report formats.

Traces are line-delimited JSON: a header object on line 1 (format name,
version, layout text, config, policy specs, seed), one step object per
following line, and an optional sha256 footer over everything before it.
World states are never stored; replaying the action sequence through the
deterministic simulator reconstructs them, which keeps files small and
makes the simulator the single source of transition truth.

Step `t` is the `PrimitiveAction` of agent `1 + t % 2`; the cook is not
stored, since the step's place names it. Each step line is that cook's
fixed text for the action, `{"action": "up", "agent": 1, "t": `, from a
table keyed by action, then `t` and `}`. A step that is not a
PrimitiveAction raises MalformedJointAction, as in replay, and a header
the reader would reject raises SchemaViolation; nothing is written.

The reader accepts a step line that is exactly the writer's text for its
place, a table prefix then `t` and `}`, by one lookup and without a JSON
parse; in an `agent1-first` trace the table holds the 36 tick prefixes,
such as `{"a1": "up", "a2": "stay", "t": `. The first line that is not
such a text, and every line after it, is parsed and checked. A line whose
`agent` is not its place's cook is rejected on either path. Both paths
accept the same lines with the same actions, a rejected line keeps its
error text, and a log in another key order or spacing pays for one failed
match, not one a line. Lines end only at LF, CRLF or CR, as in a file
read in text mode, never at a character such as U+2028 that JSON allows
raw inside a string.

Externally produced traces with simultaneous actions are accepted when the
header carries `"serialize": "agent1-first"`; each tick is expanded into
two turn-taking steps with agent 1 first.

Reports (single-episode or aggregate) serialize to JSON, CSV (one episode
per row plus a mean row for aggregates) and a markdown table pair: team
performance (time, interdependence share, giver/receiver counts) and
coordination rates (trigger share, trigger acceptance). The CSV columns
are the report records' scalar fields in declared order, each rendered
by the kind its declared type gives (`metrics.REPORT_COLUMNS`); each
markdown column is declared once, in a table that names its fields and
how it renders. The header, every episode row and the mean row are all
built from these tables.

This module imports `metrics` only when a report is rendered or read, so
`simulate`, which writes traces alone, never loads it. `CSV_COLUMNS` is
built from `metrics` on its first use.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from .errors import (
    ChecksumMismatch,
    IoFailure,
    MalformedJointAction,
    SchemaViolation,
    VersionUnsupported,
)
from .gridworld import ALL_SUBTASKS, EpisodeConfig, PrimitiveAction
from .records import Field, record

if TYPE_CHECKING:
    from .metrics import AggregateSummary, TeamReport

FORMAT_NAME = "interdep-trace"
FORMAT_VERSION = 1

_ACTIONS = {a.value: a for a in PrimitiveAction}


def _prefix(**step) -> str:
    """A step line's text up to its `t` value, as `json.dumps` writes it."""
    return json.dumps(dict(step, t=0), sort_keys=True)[:-2]


# The writer's table: each cook's step line up to `t`, keyed by action,
# agent 1's first.
_STEP_PREFIX = tuple(
    {a: _prefix(action=name, agent=i) for name, a in _ACTIONS.items()} for i in (1, 2)
)
# The reader's tables: a step line's text up to `t`, mapped to the actions
# it reads as; a turn trace has one table per cook.
_TURNS_BY_PREFIX = tuple({p: (a,) for a, p in cook.items()} for cook in _STEP_PREFIX)
_TICKS_BY_PREFIX = {
    _prefix(a1=n1, a2=n2): (a1, a2)
    for n1, a1 in _ACTIONS.items()
    for n2, a2 in _ACTIONS.items()
}

Sink = Union[str, Path, io.TextIOBase]


@record
class ReplayableTrace:
    """A replayable episode: header data plus the ordered action steps.

    `played` is the record of play that `run_episode` attaches to the
    trace it returns: the tuple of `EnvEvent`s that `step` reported, in
    step order, each with its own grounding key. A move or a stay has no
    entry. Analysis matches these events and no other step. It is never
    written or read, takes no part in equality or repr, and `replace`
    drops it, so it can only describe the steps it
    was recorded with. A trace without it is replayed, which returns the
    same record.
    """

    layout_text: str
    config: EpisodeConfig
    policies: Union[tuple, str]  # (spec1, spec2) or "external"
    seed: Optional[int]
    steps: tuple  # steps[t] is agent 1 + t % 2's PrimitiveAction
    played: Optional[tuple] = Field(default=None, init=False, compare=False, repr=False)

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
    if not isinstance(trace.config, EpisodeConfig):
        raise SchemaViolation(f"config must be an EpisodeConfig, got {trace.config!r}")
    header = trace.header_dict()
    _parse_header(header)
    lines = [json.dumps(header, sort_keys=True)]
    for t, action in enumerate(trace.steps):
        try:
            lines.append(f"{_STEP_PREFIX[t & 1][action]}{t}}}")
        except (KeyError, TypeError):
            raise MalformedJointAction(
                f"step {t}: {action!r} is not a PrimitiveAction"
            ) from None
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
    # Lines end only at "\n", "\r\n" or "\r", as in a file read in text
    # mode; str.splitlines would also end one at characters, such as
    # U+2028, that JSON allows raw inside a string. The search for "\r\n"
    # is slow, so a text without "\r" skips it.
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
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
    tables = (_TICKS_BY_PREFIX,) * 2 if ticks else _TURNS_BY_PREFIX
    body = lines[1:]
    steps = []
    # Each line that is the writer's own text for its place, a table prefix
    # then `i}`, is accepted by one lookup and not parsed, up to the first
    # line that is not. That line and every later one are parsed, so a log
    # in another key order or spacing pays for one failed match, not one a line.
    start = 0
    for line in body:
        place = f"{start}}}"
        table = tables[start & 1]
        if not (line.endswith(place) and (actions := table.get(line[: -len(place)]))):
            break
        steps += actions
        start += 1
    for i, line in enumerate(body[start:], start):
        lineno = i + 2
        obj = _parse_json_line(line, lineno)
        # Any other well-formed line is accepted with one table lookup. The
        # checks below word the error of any other line.
        try:
            if len(obj) == 3 and type(obj["t"]) is int and obj["t"] == i:
                if ticks:
                    steps += (_ACTIONS[obj["a1"]], _ACTIONS[obj["a2"]])
                    continue
                if type(obj["agent"]) is int and obj["agent"] == 1 + i % 2:
                    steps.append(_ACTIONS[obj["action"]])
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
            if obj["agent"] != 1 + i % 2:
                raise SchemaViolation(
                    f"line {lineno}: agent {obj['agent']} acted, "
                    f"round-robin expects {1 + i % 2}"
                )
            names = (obj["action"],)
        else:
            raise SchemaViolation(f"line {lineno}: unexpected step fields {sorted(keys)}")
        # The line passed every check but its lookup, so a name is unknown.
        name = next(n for n in names if not (isinstance(n, str) and n in _ACTIONS))
        raise SchemaViolation(f"line {lineno}: unknown action name {name!r}")

    return ReplayableTrace(
        layout_text=layout_text,
        config=config,
        policies=policies,
        seed=seed,
        steps=tuple(steps),
    )


def _md_table(headers: list, rows: list) -> list:
    out = ["| " + " | ".join(headers) + " |"]
    out.append("| " + " | ".join("---" for _ in headers) + " |")
    for row in rows:
        out.append("| " + " | ".join(row) + " |")
    return out


# The two column tables of every markdown report, after the Episode
# column: (header, kind, `REPORT_COLUMNS` keys). A count shows as is, a
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
                "/".join(_md_cell(r.value(k), kind) for k in keys)
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


# The CSV columns after the label are `REPORT_COLUMNS`, each rendered by
# its kind. A rate has six decimals and is empty when undefined; a pct is a
# percentage with two; a flag is 0 or 1. A mean row averages what
# `aggregate` summarizes (a count with four decimals), repeats the settings
# every report shares, and leaves the rest empty.
@cache
def _csv_columns() -> tuple:
    from .metrics import REPORT_COLUMNS

    return (
        "label",
        *(key.replace("agent", "ag").replace(".", "_") for key, _ in REPORT_COLUMNS),
    )


def __getattr__(name: str):
    """`CSV_COLUMNS`, built on its first use (PEP 562)."""
    if name == "CSV_COLUMNS":
        return _csv_columns()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def report_to_csv(obj: Union[TeamReport, AggregateSummary]) -> str:
    from .metrics import REPORT_COLUMNS, TeamReport

    single = isinstance(obj, TeamReport)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_csv_columns())
    for r in (obj,) if single else obj.reports:
        writer.writerow(
            [r.label] + [_csv_cell(r.value(key), kind) for key, kind in REPORT_COLUMNS]
        )
    if not single:
        writer.writerow(
            ["mean"] + [_csv_mean(obj, key, kind) for key, kind in REPORT_COLUMNS]
        )
    return out.getvalue()


def write_report(
    obj: Union[TeamReport, AggregateSummary], fmt: str, sink: Sink
) -> None:
    """Serialize a report or aggregate summary as json, csv or markdown."""
    from .metrics import TeamReport

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
    from .metrics import TeamReport

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
