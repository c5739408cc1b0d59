"""Trace serialization, validation, and report writers."""

import dataclasses
import hashlib
import io
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MINI_LAYOUT, external_trace, interleave, policy_trace
from interdep import (
    ChecksumMismatch,
    EpisodeConfig,
    InterdepError,
    IoFailure,
    PrimitiveAction,
    SchemaViolation,
    VersionUnsupported,
    aggregate,
    analyze_trace,
    build_report,
)
from interdep.trace_io import (
    CSV_COLUMNS,
    FORMAT_NAME,
    FORMAT_VERSION,
    read_report,
    read_trace,
    report_to_csv,
    report_to_markdown,
    summary_to_markdown,
    trace_to_text,
    write_report,
    write_trace,
)

A = PrimitiveAction
GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def small_trace():
    return external_trace(
        MINI_LAYOUT,
        EpisodeConfig(cook_time=3, horizon=6),
        interleave([A.LEFT, A.INTERACT, A.DOWN]),
    )


# round trips ---------------------------------------------------------------


def test_text_round_trip(small_trace):
    text = trace_to_text(small_trace)
    back = read_trace(io.StringIO(text))
    assert back == small_trace


def test_file_round_trip(tmp_path, small_trace):
    path = tmp_path / "episode.trace.jsonl"
    write_trace(small_trace, path)
    assert read_trace(path) == small_trace
    assert read_trace(str(path)) == small_trace


def test_policy_trace_round_trip(tmp_path, passer_receiver_trace):
    path = tmp_path / "pr.trace.jsonl"
    write_trace(passer_receiver_trace, path)
    back = read_trace(path)
    assert back == passer_receiver_trace
    assert back.policies == passer_receiver_trace.policies
    # the replayed analysis is identical too
    assert analyze_trace(back).to_dict() == analyze_trace(passer_receiver_trace).to_dict()


def test_serialization_is_stable(small_trace):
    assert trace_to_text(small_trace) == trace_to_text(small_trace)


def test_checksum_footer_optional(small_trace):
    *lines, footer = trace_to_text(small_trace).splitlines(keepends=True)
    assert "sha256" in footer
    text = "".join(lines)
    assert "sha256" not in text
    assert read_trace(io.StringIO(text)) == small_trace


def test_trailing_blank_lines_keep_the_footer(passer_receiver_trace):
    # The footer used to be read as a step when a blank line followed it.
    text = trace_to_text(passer_receiver_trace)
    for tail in ("\n", "\n \t\n"):
        assert read_trace(io.StringIO(text + tail)) == passer_receiver_trace
    with pytest.raises(SchemaViolation, match="line 2"):
        parse([header_line(), "", step_line(0, 1, "up")])


@pytest.mark.parametrize("tail", ["", "\n"], ids=["no-tail", "blank-tail"])
def test_tampered_trace_rejected(small_trace, tail):
    text = trace_to_text(small_trace)
    tampered = text.replace('"action": "left"', '"action": "right"', 1)
    assert tampered != text
    with pytest.raises(ChecksumMismatch):
        read_trace(io.StringIO(tampered + tail))


# validation ----------------------------------------------------------------


def header_line(**overrides):
    base = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "layout": MINI_LAYOUT,
        "config": EpisodeConfig().to_dict(),
        "policies": "external",
        "seed": None,
    }
    base.update(overrides)
    return json.dumps(base, sort_keys=True)


def step_line(t, agent, action):
    return json.dumps({"t": t, "agent": agent, "action": action}, sort_keys=True)


def parse(lines):
    return read_trace(io.StringIO("\n".join(lines) + "\n"))


def test_missing_header_field_rejected():
    header = header_line()
    broken = json.loads(header)
    del broken["config"]
    with pytest.raises(SchemaViolation):
        parse([json.dumps(broken)])


@pytest.mark.parametrize("cook_time", [0, 2.5])
def test_bad_header_config_value_rejected(cook_time):
    config = dict(EpisodeConfig().to_dict(), cook_time=cook_time)
    with pytest.raises(SchemaViolation):
        parse([header_line(config=config)])


def test_unsupported_version_rejected():
    with pytest.raises(VersionUnsupported):
        parse([header_line(version=99)])


def test_wrong_format_name_rejected():
    with pytest.raises(SchemaViolation):
        parse([header_line(format="other-trace")])


def test_time_gap_rejected():
    with pytest.raises(SchemaViolation):
        parse([header_line(), step_line(0, 1, "stay"), step_line(2, 2, "stay")])


def test_unknown_action_rejected():
    with pytest.raises(SchemaViolation):
        parse([header_line(), step_line(0, 1, "teleport")])


def test_bad_agent_rejected():
    with pytest.raises(SchemaViolation):
        parse([header_line(), step_line(0, 3, "stay")])


def test_non_json_line_rejected():
    with pytest.raises(SchemaViolation):
        parse([header_line(), "not json"])


@pytest.mark.parametrize(
    "lines, lineno",
    [
        (
            [
                header_line(),
                step_line(0, 1, "stay"),
                '{"action": "stay",',
                '"agent": 2, "t": 1}',
            ],
            3,
        ),
        ([header_line(), step_line(0, 1, "stay") + " " + step_line(1, 2, "stay")], 2),
        ([header_line(), "1,2"], 2),
    ],
    ids=["object-split-over-lines", "two-objects-on-a-line", "number-list"],
)
def test_step_line_must_hold_one_whole_object(lines, lineno):
    with pytest.raises(SchemaViolation, match=f"^line {lineno}: "):
        parse(lines)


def test_whitespace_around_a_step_line_is_allowed():
    trace = parse(
        [header_line(), " \t" + step_line(0, 1, "up") + "\t  ", step_line(1, 2, "stay")]
    )
    assert trace.steps == ((0, 1, A.UP), (1, 2, A.STAY))


def test_empty_file_rejected():
    with pytest.raises(SchemaViolation):
        read_trace(io.StringIO(""))


def test_missing_file_is_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        read_trace(tmp_path / "missing.trace.jsonl")


# simultaneous traces ---------------------------------------------------------


def sim_line(t, a1, a2):
    return json.dumps({"t": t, "a1": a1, "a2": a2}, sort_keys=True)


def test_simultaneous_trace_expands_agent1_first():
    lines = [
        header_line(serialize="agent1-first"),
        sim_line(0, "left", "left"),
        sim_line(1, "interact", "down"),
    ]
    trace = parse(lines)
    assert trace.steps == (
        (0, 1, A.LEFT),
        (1, 2, A.LEFT),
        (2, 1, A.INTERACT),
        (3, 2, A.DOWN),
    )


def test_simultaneous_expansion_matches_hand_serialization():
    lines = [
        header_line(serialize="agent1-first"),
        sim_line(0, "left", "left"),
        sim_line(1, "interact", "down"),
    ]
    by_expansion = parse(lines)
    by_hand = external_trace(
        MINI_LAYOUT,
        EpisodeConfig(),
        [(1, A.LEFT), (2, A.LEFT), (1, A.INTERACT), (2, A.DOWN)],
    )
    assert by_expansion.steps == by_hand.steps
    assert analyze_trace(by_expansion).to_dict() == analyze_trace(by_hand).to_dict()


def test_simultaneous_rejects_turn_taking_steps():
    with pytest.raises(SchemaViolation):
        parse([header_line(serialize="agent1-first"), step_line(0, 1, "stay")])


def test_simultaneous_tick_gap_rejected():
    with pytest.raises(SchemaViolation):
        parse(
            [
                header_line(serialize="agent1-first"),
                sim_line(0, "stay", "stay"),
                sim_line(2, "stay", "stay"),
            ]
        )


def test_unknown_serialize_mode_rejected():
    with pytest.raises(SchemaViolation):
        parse([header_line(serialize="agent2-first")])


@pytest.mark.parametrize(
    "lines",
    [
        [header_line(version=True)],
        [header_line(seed=True)],
        [header_line(), step_line(0, True, "stay")],
        [header_line(), step_line(0, 1, "stay"), step_line(True, 2, "stay")],
        [
            header_line(),
            step_line(0, 1, "stay"),
            step_line(1, 2, "stay"),
            step_line(2.0, 1, "stay"),
        ],
        [
            header_line(serialize="agent1-first"),
            sim_line(0, "stay", "stay"),
            sim_line(1.0, "stay", "stay"),
        ],
    ],
    ids=["version-true", "seed-true", "agent-true", "t-true", "t-float", "tick-float"],
)
def test_bool_or_float_where_an_integer_belongs_rejected(lines):
    # JSON true and 2.0 compare equal to 1 and 2 in Python; neither is an int.
    with pytest.raises(SchemaViolation):
        parse(lines)


@pytest.mark.parametrize(
    "data",
    [
        (header_line() + "\n" + json.dumps({"sha256": 5}) + "\n").encode(),
        (header_line() + "\n" + step_line(0, 1, ["up"]) + "\n").encode(),
        (
            header_line(serialize="agent1-first")
            + "\n"
            + sim_line(0, "stay", {"up": 1})
            + "\n"
        ).encode(),
        (json.dumps({"sha256": hashlib.sha256(b"\n").hexdigest()}) + "\n").encode(),
        b"\xff\xfe not utf-8\n",
    ],
    ids=["footer-int", "action-list", "a2-object", "footer-only", "not-utf8"],
)
def test_malformed_trace_file_rejected(tmp_path, data):
    # Each used to escape as TypeError, IndexError or UnicodeDecodeError.
    path = tmp_path / "bad.trace.jsonl"
    path.write_bytes(data)
    with pytest.raises(SchemaViolation):
        read_trace(path)


# Valid JSON nested deeper than any interpreter's recursion limit.
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "lines, lineno",
    [
        ([DEEP], 1),
        ([header_line(), DEEP, step_line(1, 2, "stay")], 2),
        ([header_line(), step_line(0, 1, "stay"), DEEP], 3),
    ],
    ids=["header", "step", "last-line"],
)
def test_deeply_nested_line_rejected(lines, lineno):
    # Each used to escape as RecursionError.
    with pytest.raises(SchemaViolation, match=f"^line {lineno}: not valid JSON"):
        parse(lines)


def test_config_value_nested_to_the_decoder_limit_rejected():
    # A config value the decoder just accepts used to raise RecursionError
    # when the config check, a few calls further in, wrote its repr.
    def error(depth):
        config = {**EpisodeConfig().to_dict(), "horizon": "\0"}
        nested = "[" * depth + "]" * depth
        with pytest.raises(SchemaViolation) as info:
            parse([header_line(config=config).replace('"\\u0000"', nested)])
        return str(info.value)

    # Bisect for the deepest value the decoder accepts here, then try every
    # depth just below it.
    accepted, rejected = 1, 100_000
    while rejected - accepted > 1:
        mid = (accepted + rejected) // 2
        if error(mid).startswith("bad config in header"):
            accepted = mid
        else:
            rejected = mid
    assert error(rejected).startswith("line 1: not valid JSON")
    for depth in range(max(1, accepted - 50), accepted + 1):
        assert error(depth).startswith("bad config in header")


def test_deeply_nested_report_file_rejected(tmp_path):
    path = tmp_path / "deep.report.json"
    path.write_text(DEEP)
    with pytest.raises(SchemaViolation, match="^bad report file "):
        read_report(path)


# One short valid trace, footer dropped, as parsed lines, and every value
# in it a bad input could replace: a header field, a config field or a
# step field.
_VALID_LINES = [
    json.loads(line)
    for line in trace_to_text(
        external_trace(
            MINI_LAYOUT,
            EpisodeConfig(cook_time=3, horizon=6),
            interleave([A.LEFT, A.INTERACT, A.DOWN]),
        )
    ).splitlines()[:-1]
]
_VALUE_SITES = (
    [(0, (key,)) for key in _VALID_LINES[0]]
    + [(0, ("config", key)) for key in _VALID_LINES[0]["config"]]
    + [(i, (key,)) for i in range(1, len(_VALID_LINES)) for key in _VALID_LINES[i]]
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=10,
).map(json.dumps)
_NESTED_LISTS = st.integers(1, 200_000).map(lambda n: "[" * n + "]" * n)


@settings(max_examples=200, deadline=None)
@given(
    site=st.sampled_from(_VALUE_SITES),
    value=_JSON_VALUES | _NESTED_LISTS,
)
def test_any_replaced_value_fails_as_one_error_line(site, value):
    # `interdep analyze` prints these three as one `error:` line; anything
    # else would end in a traceback.
    lineno, path = site
    lines = [json.dumps(obj, sort_keys=True) for obj in _VALID_LINES]
    obj = json.loads(lines[lineno])
    owner = obj
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = "\0value"
    lines[lineno] = json.dumps(obj, sort_keys=True).replace('"\\u0000value"', value)
    try:
        build_report(analyze_trace(parse(lines)))
    except (InterdepError, ValueError, OSError):
        pass


# report writers --------------------------------------------------------------


@pytest.fixture(scope="module")
def pr_report(passer_receiver_trace):
    return build_report(analyze_trace(passer_receiver_trace), label="counter_circuit_1")


def test_csv_columns_and_values(pr_report):
    text = report_to_csv(pr_report)
    lines = text.strip().split("\n")
    assert lines[0].split(",") == list(CSV_COLUMNS)
    row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert row["label"] == "counter_circuit_1"
    assert row["pair_count"] == "18"
    assert row["percent_interdependent"] == "75.00"
    assert row["ag1_contribution_ratio"] == "1.000000"


def test_csv_renders_undefined_as_empty(solo_idle_trace):
    report = build_report(analyze_trace(solo_idle_trace), label="solo")
    row = dict(
        zip(
            CSV_COLUMNS,
            report_to_csv(report).strip().split("\n")[1].split(","),
        )
    )
    assert row["ag1_contribution_ratio"] == ""
    assert row["ag2_trigger_share_of_coordination"] == ""


def test_report_json_round_trip(tmp_path, pr_report):
    path = tmp_path / "one.report.json"
    write_report(pr_report, "json", path)
    assert read_report(path) == pr_report


def test_report_json_rejects_garbage(tmp_path):
    path = tmp_path / "bad.report.json"
    path.write_text('{"half": true}')
    with pytest.raises(SchemaViolation):
        read_report(path)


def test_write_report_unknown_format(tmp_path, pr_report):
    with pytest.raises(ValueError):
        write_report(pr_report, "xml", tmp_path / "x")


# golden files ----------------------------------------------------------------


def test_markdown_report_matches_golden(pr_report):
    assert report_to_markdown(pr_report) == (GOLDEN / "report_passing.md").read_text()


def test_markdown_solo_report_matches_golden(layout, config):
    trace = policy_trace(layout, config, "solo", "idle", seed=1)
    report = build_report(analyze_trace(trace), label="counter_circuit_1")
    assert report_to_markdown(report) == (GOLDEN / "report_solo.md").read_text()


def test_markdown_summary_matches_golden(layout, config):
    reports = [
        build_report(
            analyze_trace(
                policy_trace(
                    layout,
                    config,
                    "stochastic:p=0.5,counter=(4,2),pot=0",
                    "receiver:counter=(4,2),pot=0",
                    seed,
                )
            ),
            label=f"counter_circuit_{seed}",
        )
        for seed in (1, 2, 3)
    ]
    text = summary_to_markdown(aggregate(reports))
    assert text == (GOLDEN / "summary_stochastic.md").read_text()


def test_summary_with_undefined_means_matches_golden(layout, config):
    # Both contribution ratios and agent 2's two rates are undefined in
    # both episodes: "undef" in markdown, an empty CSV cell.
    reports = [
        build_report(
            analyze_trace(policy_trace(layout, config, "solo", "idle", seed)),
            label=f"counter_circuit_{seed}",
        )
        for seed in (1, 2)
    ]
    summary = aggregate(reports)
    assert summary_to_markdown(summary) == (GOLDEN / "summary_solo.md").read_text()
    assert report_to_csv(summary) == (GOLDEN / "summary_solo.csv").read_text()


def test_summary_csv_has_mean_row(pr_report):
    other = dataclasses.replace(pr_report, label="counter_circuit_2")
    summary = aggregate([pr_report, other])
    lines = report_to_csv(summary).strip().split("\n")
    assert len(lines) == 4  # header, two episodes, mean row
    assert lines[-1].startswith("mean,")
