"""Trace serialization, validation, and report writers."""

import dataclasses
import hashlib
import io
import json
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BASELINE_TEAMS,
    MINI_LAYOUT,
    external_trace,
    interleave,
    policy_trace,
)
from interdep import (
    ChecksumMismatch,
    EpisodeConfig,
    InterdepError,
    IoFailure,
    MalformedJointAction,
    PrimitiveAction,
    SchemaViolation,
    VersionUnsupported,
    aggregate,
    analyze_trace,
    build_report,
    bundled_layout_text,
    load_layout,
    replay,
)
from interdep import metrics, trace_io
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
from oracle_utils import random_external_trace, reference_trace_text

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


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "lone-cr"])
def test_crlf_and_lone_cr_lines_keep_the_footer(small_trace, end):
    text = trace_to_text(small_trace)
    assert read_trace(io.StringIO(text.replace("\n", end))) == small_trace
    tampered = text.replace('"action": "left"', '"action": "right"', 1)
    with pytest.raises(ChecksumMismatch):
        read_trace(io.StringIO(tampered.replace("\n", end)))


@pytest.mark.parametrize("raw", ["\u2028", "\u2029", "\x85"])
def test_a_line_separator_inside_a_json_string_is_not_a_line_end(tmp_path, small_trace, raw):
    # JSON allows these raw inside a string; str.splitlines ends a line there.
    header = json.loads(trace_to_text(small_trace).split("\n")[0])
    header["note"] = f"a{raw}b"
    # The step lines without the footer, whose digest the new header breaks.
    text = trace_to_text(small_trace).split("\n", 1)[1].rsplit("\n", 2)[0]
    lines = [json.dumps(header, sort_keys=True, ensure_ascii=False), text]
    path = tmp_path / "noted.trace.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert raw in path.read_text(encoding="utf-8")
    assert read_trace(path) == small_trace
    assert read_trace(io.StringIO("\n".join(lines) + "\n")) == small_trace


def test_a_vertical_tab_does_not_end_a_line(small_trace):
    text = trace_to_text(small_trace).replace("\n", "\x0b")
    with pytest.raises(SchemaViolation, match="^line 1: not valid JSON \\(Extra data"):
        read_trace(io.StringIO(text))


# the step-line table --------------------------------------------------------

_COUNTER_CIRCUIT = bundled_layout_text()


@settings(max_examples=60, deadline=None)
@given(
    episode=st.sampled_from(["random-mini", "random", "scripted"]),
    team=st.sampled_from(BASELINE_TEAMS),
    seed=st.integers(0, 2**16),
    build=st.sampled_from(["shared", "fresh-tuples", "lists"]),
)
def test_writer_matches_one_json_dumps_per_line(episode, team, seed, build):
    config = EpisodeConfig(cook_time=3, horizon=120)
    if episode == "scripted":
        trace = policy_trace(load_layout(_COUNTER_CIRCUIT), config, *team, seed)
    else:
        layout = MINI_LAYOUT if episode == "random-mini" else _COUNTER_CIRCUIT
        trace = random_external_trace(layout, config, seed, 120)
    if build != "shared":
        # The same members, looked up by name into a new tuple or a list.
        make = tuple if build == "fresh-tuples" else list
        steps = make(A(action.value) for action in trace.steps)
        assert steps is not trace.steps
        trace = dataclasses.replace(trace, steps=steps)
    assert trace_to_text(trace) == reference_trace_text(trace)


@pytest.mark.parametrize(
    "turn",
    [
        (True, A.UP),
        (1.0, A.UP),
        (2.0, A.STAY),
        (3, A.UP),
        (1, "up"),
        (1, A.UP, 0),
        (1,),
        5,
    ],
    ids=[
        "agent-true",
        "agent-1.0",
        "agent-2.0",
        "agent-3",
        "not-an-action",
        "triple",
        "single",
        "not-a-sequence",
    ],
)
def test_writer_rejects_a_turn_that_replay_rejects(small_trace, turn):
    # A step is its cook's action, so a turn in the old (agent, action)
    # shape, or anything else that is not a PrimitiveAction, is rejected
    # by the writer and by replay alike.
    trace = dataclasses.replace(small_trace, steps=small_trace.steps[:-1] + (turn,))
    with pytest.raises(MalformedJointAction, match="^step 5: "):
        trace_to_text(trace)
    with pytest.raises(MalformedJointAction, match="^step 5: "):
        replay(trace)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("seed", True, "seed must be an integer or null"),
        ("seed", 1.0, "seed must be an integer or null"),
        ("policies", ("solo",), "policies must be two spec strings or 'external'"),
        ("policies", "Xternal", "policies must be two spec strings or 'external'"),
        ("policies", ("solo", 3), "policies must be two spec strings or 'external'"),
        ("layout_text", None, "layout must be the grid text"),
        ("config", None, "config must be an EpisodeConfig, got None"),
        ("config", EpisodeConfig().to_dict(), "config must be an EpisodeConfig, got {"),
    ],
    ids=["seed-true", "seed-float", "one-policy", "Xternal", "policy-int", "no-layout",
         "no-config", "config-dict"],
)
def test_writer_rejects_a_header_the_reader_rejects(tmp_path, small_trace, field, value, message):
    # Each was written as a header read_trace rejects, or raised a bare
    # AttributeError; now the writer checks the header as the reader does.
    trace = dataclasses.replace(small_trace, **{field: value})
    with pytest.raises(SchemaViolation, match=f"^{re.escape(message)}"):
        trace_to_text(trace)
    path = tmp_path / "bad.trace.jsonl"
    with pytest.raises(SchemaViolation):
        write_trace(trace, path)
    assert not path.exists()


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


@pytest.mark.parametrize(
    "config, shown", [("cfg", "'cfg'"), ([1], "[1]"), (5, "5")], ids=["string", "list", "int"]
)
def test_header_config_that_is_not_an_object_rejected(config, shown):
    # These used to name characters or a Python type error.
    message = f"bad config in header: config must be a JSON object, got {shown}"
    with pytest.raises(SchemaViolation, match=f"^{re.escape(message)}$"):
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


def test_step_line_that_is_not_an_object_rejected():
    with pytest.raises(SchemaViolation) as caught:
        parse([header_line(), "[1, 2]"])
    assert str(caught.value) == "line 2: expected a JSON object"


def test_unwritable_sink_raises_io_failure(small_trace, tmp_path):
    # A directory cannot be written as a file.
    with pytest.raises(IoFailure, match=f"^cannot write {re.escape(str(tmp_path))}: "):
        write_trace(small_trace, tmp_path)


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
    assert trace.steps == (A.UP, A.STAY)


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
    assert trace.steps == (A.LEFT, A.LEFT, A.INTERACT, A.DOWN)


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


def turn_obj(t, agent, action):
    return {"t": t, "agent": agent, "action": action}


def tick_obj(t, a1, a2):
    return {"t": t, "a1": a1, "a2": a2}


TICKS = "agent1-first"

# (serialize mode, step objects, the whole error text): every way a step
# line is rejected. The last rows hold the order of the checks on a line
# that breaks two rules.
_STEP_LINE_ERRORS = {
    "t-true": (None, [turn_obj(True, 1, "stay")], "line 2: step t=True breaks the 0..n sequence"),
    "t-float": (None, [turn_obj(0.0, 1, "stay")], "line 2: step t=0.0 breaks the 0..n sequence"),
    "t-string": (None, [turn_obj("0", 1, "stay")], "line 2: step t='0' breaks the 0..n sequence"),
    "t-gap": (
        None,
        [turn_obj(0, 1, "stay"), turn_obj(2, 2, "stay")],
        "line 3: step t=2 breaks the 0..n sequence",
    ),
    "tick-true": (TICKS, [tick_obj(True, "stay", "stay")], "line 2: tick True breaks the 0..n sequence"),
    "tick-float": (TICKS, [tick_obj(0.0, "stay", "stay")], "line 2: tick 0.0 breaks the 0..n sequence"),
    "tick-string": (TICKS, [tick_obj("0", "stay", "stay")], "line 2: tick '0' breaks the 0..n sequence"),
    "tick-gap": (
        TICKS,
        [tick_obj(0, "stay", "stay"), tick_obj(2, "stay", "stay")],
        "line 3: tick 2 breaks the 0..n sequence",
    ),
    "action-unknown": (None, [turn_obj(0, 1, "teleport")], "line 2: unknown action name 'teleport'"),
    "action-null": (None, [turn_obj(0, 1, None)], "line 2: unknown action name None"),
    "action-list": (None, [turn_obj(0, 1, ["up"])], "line 2: unknown action name ['up']"),
    "a1-unknown": (TICKS, [tick_obj(0, "teleport", "stay")], "line 2: unknown action name 'teleport'"),
    "a1-null": (TICKS, [tick_obj(0, None, "stay")], "line 2: unknown action name None"),
    "a1-list": (TICKS, [tick_obj(0, ["up"], "stay")], "line 2: unknown action name ['up']"),
    "a2-unknown": (TICKS, [tick_obj(0, "stay", "teleport")], "line 2: unknown action name 'teleport'"),
    "a2-null": (TICKS, [tick_obj(0, "stay", None)], "line 2: unknown action name None"),
    "a2-list": (TICKS, [tick_obj(0, "stay", ["up"])], "line 2: unknown action name ['up']"),
    "agent-true": (None, [turn_obj(0, True, "stay")], "line 2: bad agent True"),
    "agent-float": (None, [turn_obj(0, 2.0, "stay")], "line 2: bad agent 2.0"),
    "agent-3": (None, [turn_obj(0, 3, "stay")], "line 2: bad agent 3"),
    "key-missing": (None, [{"t": 0, "agent": 1}], "line 2: unexpected step fields ['agent', 't']"),
    "key-extra": (
        None,
        [dict(turn_obj(0, 1, "stay"), extra=1)],
        "line 2: unexpected step fields ['action', 'agent', 'extra', 't']",
    ),
    "tick-key-missing": (TICKS, [{"t": 0, "a1": "stay"}], "line 2: unexpected step fields ['a1', 't']"),
    "tick-key-extra": (
        TICKS,
        [dict(tick_obj(0, "stay", "stay"), extra=1)],
        "line 2: unexpected step fields ['a1', 'a2', 'extra', 't']",
    ),
    "turn-in-ticks": (TICKS, [turn_obj(0, 1, "stay")], "line 2: per-agent step in a simultaneous trace"),
    "tick-in-turns": (None, [tick_obj(0, "stay", "stay")], "line 2: unexpected step fields ['a1', 'a2', 't']"),
    "t-before-action": (None, [turn_obj(1, 1, "teleport")], "line 2: step t=1 breaks the 0..n sequence"),
    "t-before-agent": (None, [turn_obj(1, 3, "stay")], "line 2: step t=1 breaks the 0..n sequence"),
    "agent-before-action": (None, [turn_obj(0, 3, "teleport")], "line 2: bad agent 3"),
    "tick-before-a1": (TICKS, [tick_obj(1, "teleport", "stay")], "line 2: tick 1 breaks the 0..n sequence"),
    "a1-before-a2": (TICKS, [tick_obj(0, "teleport", None)], "line 2: unknown action name 'teleport'"),
}


@pytest.mark.parametrize(
    "serialize, objs, message",
    list(_STEP_LINE_ERRORS.values()),
    ids=list(_STEP_LINE_ERRORS),
)
def test_every_step_line_rejection_keeps_its_text(serialize, objs, message):
    header = header_line(serialize=serialize) if serialize else header_line()
    with pytest.raises(SchemaViolation) as caught:
        parse([header] + [json.dumps(obj, sort_keys=True) for obj in objs])
    assert str(caught.value) == message


_FORMS = {
    "writer": lambda obj: json.dumps(obj, sort_keys=True),
    "compact": lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":")),
    "key-order": lambda obj: json.dumps(obj),
}


@pytest.mark.parametrize("form", list(_FORMS))
@pytest.mark.parametrize(
    "agents, horizon, message",
    [
        ((1, 1), 1000, "line 3: agent 1 acted, round-robin expects 2"),
        ((1, 2, 2), 2, "line 4: agent 2 acted, round-robin expects 1"),
        ((1, 2, 1, 1), 2, "line 5: agent 1 acted, round-robin expects 2"),
    ],
    ids=["turn-order-violation", "out-of-turn-past-terminal", "terminal-then-out-of-turn"],
)
def test_reader_rejects_a_line_out_of_turn(form, agents, horizon, message):
    # Step t is agent 1 + t % 2's, so a line naming the other cook is
    # rejected as it is read, whether its text is the writer's, which
    # misses the no-parse table, or is parsed. Reading comes before
    # replay, so the out-of-turn line is named even when a step before
    # it already ran past the horizon.
    config = dict(EpisodeConfig().to_dict(), horizon=horizon)
    lines = [header_line(config=config)]
    lines += [_FORMS[form](turn_obj(t, agent, "stay")) for t, agent in enumerate(agents)]
    with pytest.raises(SchemaViolation) as caught:
        parse(lines)
    assert str(caught.value) == message


_NAMES = [a.value for a in A]
_STEP_VALUES = (
    st.integers(-1, 3)
    | st.booleans()
    | st.sampled_from([0.0, 1.0, 2.0, "0", "1", None, ["up"]])
    | st.sampled_from(_NAMES + ["teleport", "UP"])
)
# The t of a built line, replaced by the line's place so that it can pass.
_PLACE = "<place>"
_STEP_OBJECTS = st.dictionaries(
    st.sampled_from(["t", "agent", "action", "a1", "a2", "extra"]),
    _STEP_VALUES,
)


def _is_name(value):
    return isinstance(value, str) and value in _NAMES


def _readme_actions(obj, i, serialize):
    """The actions the README's rules read from the step object on line i + 2, or None."""
    if type(obj.get("t")) is not int or obj["t"] != i:
        return None
    if serialize == TICKS:
        if set(obj) != {"t", "a1", "a2"} or not (_is_name(obj["a1"]) and _is_name(obj["a2"])):
            return None
        return [A(obj["a1"]), A(obj["a2"])]
    agent, action = obj.get("agent"), obj.get("action")
    if set(obj) != {"t", "agent", "action"} or type(agent) is not int:
        return None
    if agent != 1 + i % 2 or not _is_name(action):
        return None
    return [A(action)]


@settings(max_examples=300, deadline=None)
@given(
    serialize=st.sampled_from([None, TICKS]),
    objs=st.lists(
        # Mostly well-formed lines, so that later lines get read too.
        st.one_of(
            _STEP_OBJECTS,
            st.builds(turn_obj, st.just(_PLACE), st.sampled_from([1, 2]), st.sampled_from(_NAMES)),
            st.builds(tick_obj, st.just(_PLACE), st.sampled_from(_NAMES), st.sampled_from(_NAMES)),
        ),
        max_size=4,
    ),
    # Key-sorted, a well-formed line is the writer's text, which the reader
    # accepts without parsing; in drawn key order it is parsed.
    sort_keys=st.booleans(),
)
def test_reader_accepts_exactly_the_readme_step_lines(serialize, objs, sort_keys):
    objs = [dict(obj, t=i) if obj.get("t") == _PLACE else obj for i, obj in enumerate(objs)]
    expected, bad = [], None
    for i, obj in enumerate(objs):
        actions = _readme_actions(obj, i, serialize)
        if actions is None:
            bad = i + 2
            break
        expected += actions
    header = header_line(serialize=serialize) if serialize else header_line()
    lines = [header] + [json.dumps(obj, sort_keys=sort_keys) for obj in objs]
    if bad is None:
        trace = parse(lines)
        assert trace.steps == tuple(expected)
        assert all(type(action) is A for action in trace.steps)
    else:
        with pytest.raises(SchemaViolation, match=f"^line {bad}: "):
            parse(lines)


@pytest.mark.parametrize("place", [0, 7, 1234])
@pytest.mark.parametrize("serialize", [None, TICKS])
def test_every_writer_line_reads_back_without_a_parse(monkeypatch, serialize, place):
    # Each of the 12 turn lines, at `place` or the next place its cook
    # plays, or each of the 36 tick lines at `place`, after stay lines,
    # reads as its actions by identity.
    parsed, parse_json = [], trace_io._parse_json_line

    def parse_json_line(line, lineno):
        parsed.append(lineno)
        return parse_json(line, lineno)

    monkeypatch.setattr(trace_io, "_parse_json_line", parse_json_line)
    if serialize:
        objs = [tick_obj(place, a1, a2) for a1 in _NAMES for a2 in _NAMES]
        fill = [tick_obj(t, "stay", "stay") for t in range(place)]
        header = header_line(serialize=serialize)
    else:
        objs = [
            turn_obj(place + (agent - 1 - place) % 2, agent, name)
            for agent in (1, 2)
            for name in _NAMES
        ]
        fill = [turn_obj(t, 1 + t % 2, "stay") for t in range(place + 1)]
        header = header_line()
    for obj in objs:
        parsed.clear()
        lines = [header] + [json.dumps(o, sort_keys=True) for o in fill[: obj["t"]]]
        trace = parse(lines + [json.dumps(obj, sort_keys=True)])
        assert parsed == [1]
        want = (A(obj["a1"]), A(obj["a2"])) if serialize else (A(obj["action"]),)
        got = trace.steps[-len(want):]
        assert len(trace.steps) == len(want) * (obj["t"] + 1)
        assert all(g is w for g, w in zip(got, want))


# A line on place 5 that differs from the writer's text: it reads as the
# JSON checks read it, to the same steps or the same whole error text.
_NEAR_MISSES = {
    "t-05": (None, '{"action": "up", "agent": 2, "t": 05}',
             "line 7: not valid JSON (Expecting ',' delimiter: line 1 column 36 (char 35))"),
    "t-5.0": (None, '{"action": "up", "agent": 2, "t": 5.0}',
              "line 7: step t=5.0 breaks the 0..n sequence"),
    "t-15": (None, '{"action": "up", "agent": 2, "t": 15}',
             "line 7: step t=15 breaks the 0..n sequence"),
    "t-true": (None, '{"action": "up", "agent": 2, "t": true}',
               "line 7: step t=True breaks the 0..n sequence"),
    "trailing-space": (None, '{"action": "up", "agent": 2, "t": 5} ', (A.UP,)),
    "double-brace": (None, '{"action": "up", "agent": 2, "t": 5}}',
                     "line 7: not valid JSON (Extra data: line 1 column 37 (char 36))"),
    "compact": (None, '{"action":"up","agent":2,"t":5}', (A.UP,)),
    "key-order": (None, '{"t": 5, "agent": 2, "action": "up"}', (A.UP,)),
    "tick-05": (TICKS, '{"a1": "up", "a2": "left", "t": 05}',
                "line 7: not valid JSON (Expecting ',' delimiter: line 1 column 34 (char 33))"),
    "tick-compact": (TICKS, '{"a1":"up","a2":"left","t":5}', (A.UP, A.LEFT)),
    "turn-in-ticks": (TICKS, '{"action": "up", "agent": 1, "t": 5}',
                      "line 7: per-agent step in a simultaneous trace"),
    "tick-in-turns": (None, '{"a1": "up", "a2": "left", "t": 5}',
                      "line 7: unexpected step fields ['a1', 'a2', 't']"),
}


@pytest.mark.parametrize(
    "serialize, line, want", list(_NEAR_MISSES.values()), ids=list(_NEAR_MISSES)
)
def test_a_near_miss_of_a_writer_line_reads_as_parsed(serialize, line, want):
    if serialize:
        header = header_line(serialize=serialize)
        fill = [sim_line(t, "stay", "stay") for t in range(5)]
    else:
        header = header_line()
        fill = [step_line(t, 1 + t % 2, "stay") for t in range(5)]
    lines = [header] + fill + [line]
    if isinstance(want, str):
        with pytest.raises(SchemaViolation) as caught:
            parse(lines)
        assert str(caught.value) == want
    else:
        steps = parse(lines).steps
        assert steps == parse(lines[:-1]).steps + want
        # A writer line after the near miss is parsed and reads the same.
        if serialize:
            after, actions = sim_line(6, "up", "stay"), (A.UP, A.STAY)
        else:
            after, actions = step_line(6, 1, "up"), (A.UP,)
        assert parse(lines + [after]).steps == steps + actions


class _CountedTable(dict):
    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


@pytest.mark.parametrize("serialize", [None, TICKS])
@pytest.mark.parametrize(
    "form, lookups",
    [
        ("writer", 20),
        ("compact", 1),
        ("key-order", 0),
        ("writer-then-compact", 11),
    ],
)
def test_a_log_in_another_form_pays_one_failed_match(monkeypatch, serialize, form, lookups):
    # The writer's lines take one lookup each, up to the first line that is
    # not one; from there on every line is parsed and not looked up.
    if serialize:
        tables = (_CountedTable(trace_io._TICKS_BY_PREFIX),)
        monkeypatch.setattr(trace_io, "_TICKS_BY_PREFIX", tables[0])
    else:
        tables = tuple(map(_CountedTable, trace_io._TURNS_BY_PREFIX))
        monkeypatch.setattr(trace_io, "_TURNS_BY_PREFIX", tables)
    objs = [
        tick_obj(t, "up", "stay") if serialize else turn_obj(t, 1 + t % 2, "up")
        for t in range(20)
    ]
    dumps = {
        "writer": lambda t, obj: json.dumps(obj, sort_keys=True),
        "compact": lambda t, obj: json.dumps(obj, sort_keys=True, separators=(",", ":")),
        "key-order": lambda t, obj: json.dumps(obj),
        "writer-then-compact": lambda t, obj: json.dumps(
            obj, sort_keys=True, separators=(", ", ": ") if t < 10 else (",", ":")
        ),
    }[form]
    header = header_line(serialize=serialize) if serialize else header_line()
    lines = [header] + [dumps(t, obj) for t, obj in enumerate(objs)]
    steps = parse(lines).steps
    assert sum(table.gets for table in tables) == lookups
    want = [A.UP, A.STAY] * 20 if serialize else [A.UP] * 20
    assert len(steps) == len(want) and all(g is w for g, w in zip(steps, want))


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


# One written report of a passing episode, and every value in it a bad
# input could replace: a team field, a config field, an agent field or a
# tally entry. Numbers past a float's range come as literals too.
_PASS_REPORT = build_report(
    analyze_trace(
        external_trace(
            MINI_LAYOUT,
            EpisodeConfig(cook_time=3),
            interleave(
                [A.LEFT, A.INTERACT, A.DOWN, A.INTERACT],
                [A.LEFT, A.DOWN, A.LEFT, A.INTERACT],
            ),
        )
    ),
    label="pass",
)
_REPORT = _PASS_REPORT.to_dict()
_REPORT_SITES = (
    [(key,) for key in _REPORT]
    + [("config", key) for key in _REPORT["config"]]
    + [("pairs_by_predicate", key) for key in _REPORT["pairs_by_predicate"]]
    + [("agents", i, key) for i in (0, 1) for key in _REPORT["agents"][i]]
    + [
        ("agents", i, "event_distribution", key)
        for i in (0, 1)
        for key in _REPORT["agents"][i]["event_distribution"]
    ]
)
_OUT_OF_RANGE = st.sampled_from([str(10**400), "-1e400", "NaN", "Infinity"])


@settings(max_examples=200, deadline=None)
@given(
    site=st.sampled_from(_REPORT_SITES),
    value=_JSON_VALUES | _NESTED_LISTS | _OUT_OF_RANGE,
)
def test_any_replaced_report_value_fails_as_one_error_line(site, value):
    # `interdep report` prints these three as one `error:` line; anything
    # else would end in a traceback.
    assert _PASS_REPORT.pair_count == 1
    data = json.loads(json.dumps(_REPORT))
    owner = data
    for key in site[:-1]:
        owner = owner[key]
    owner[site[-1]] = "\0value"
    text = json.dumps(data, sort_keys=True).replace('"\\u0000value"', value)
    try:
        report = read_report(io.StringIO(text))
        summary = aggregate([report, _PASS_REPORT])
        for obj in (report, summary):
            for fmt in ("json", "csv", "markdown"):
                write_report(obj, fmt, io.StringIO())
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


def test_read_report_resolves_type_hints_once_per_record_class(
    tmp_path, pr_report, monkeypatch
):
    resolved, hints = [], metrics.get_type_hints

    def get_type_hints(cls):
        resolved.append(cls)
        return hints(cls)

    monkeypatch.setattr(metrics, "get_type_hints", get_type_hints)
    metrics._field_types.cache_clear()
    paths = [tmp_path / f"{i}.report.json" for i in range(5)]
    for path in paths:
        write_report(pr_report, "json", path)
    assert [read_report(path) for path in paths] == [pr_report] * 5
    assert sorted(cls.__name__ for cls in resolved) == ["AgentReport", "TeamReport"]


@pytest.mark.parametrize(
    "extra, message",
    [
        (
            lambda d: d.update(percent_interdependant=9.0),
            "TeamReport has no field 'percent_interdependant'",
        ),
        (lambda d: d["agents"][0].update(bogus=[1]), "AgentReport has no field 'bogus'"),
    ],
    ids=["team", "agent"],
)
def test_read_report_rejects_a_field_no_report_has(tmp_path, pr_report, extra, message):
    # Both used to read back as the report without the extra key.
    data = pr_report.to_dict()
    extra(data)
    path = tmp_path / "extra.report.json"
    path.write_text(json.dumps(data))
    expected = f"^bad report file {re.escape(str(path))}: {message}$"
    with pytest.raises(SchemaViolation, match=expected):
        read_report(path)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda d: [1, 2], "TeamReport must be a JSON object, got [1, 2]"),
        (lambda d: {**d, "config": "cfg"}, "config must be a JSON object, got 'cfg'"),
        (
            lambda d: {**d, "agents": ["agent", d["agents"][1]]},
            "AgentReport must be a JSON object, got 'agent'",
        ),
        (
            lambda d: {**d, "agents": {"agent": 1}},
            "agents must be a JSON list, got {'agent': 1}",
        ),
    ],
    ids=["report-list", "config-string", "agent-string", "agents-object"],
)
def test_read_report_rejects_a_part_that_is_not_an_object(
    tmp_path, pr_report, corrupt, message
):
    # These used to name characters or Python internals.
    path = tmp_path / "bad.report.json"
    path.write_text(json.dumps(corrupt(pr_report.to_dict())))
    expected = f"^bad report file {re.escape(str(path))}: {re.escape(message)}$"
    with pytest.raises(SchemaViolation, match=expected):
        read_report(path)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda d: d.update(denominator=0), "denominator is zero"),
        (
            lambda d: d.update(pair_count=999),
            "pair_count 999 is not the sum of pairs_by_predicate",
        ),
        (
            lambda d: d.update(denominator=7),
            "denominator 7 is not the agents' subtask-actions count",
        ),
        (
            lambda d: d.update(percent_interdependent=0.5),
            "percent_interdependent is not 2 * pair_count / denominator",
        ),
        (
            lambda d: d["agents"][0].update(giver_count=d["agents"][0]["giver_count"] + 5),
            "pair_count 18 is not the sum of the agents' giver_count",
        ),
        (
            lambda d: d["agents"][1].update(receiver_count=0),
            "pair_count 18 is not the sum of the agents' receiver_count",
        ),
        (
            lambda d: d["agents"][1]["event_distribution"].update(
                move=d["agents"][1]["event_distribution"]["move"] + 40
            ),
            "agent 2's event_distribution does not sum to its total_actions 259",
        ),
        (
            lambda d: d.update(soups_delivered=2),
            "soups_delivered 2 should be 3 by the counts",
        ),
        (
            lambda d: d.update(episode_time=999),
            "episode_time 999 should be 518 by the counts",
        ),
        (
            lambda d: d.update(timed_out=True),
            "timed_out True should be False by the counts",
        ),
        *(
            (
                lambda d, edit=edit: d["agents"][1].update(edit),
                f"agent 2's {name} {shown!r} should be {right!r} by the counts",
            )
            for edit, name, shown, right in [
                ({"contribution_ratio": 0.5}, "contribution_ratio", 0.5, 1.0),
                (
                    {"trigger_share_of_coordination": 0.5},
                    "trigger_share_of_coordination", 0.5, 1.0,
                ),
                ({"trigger_acceptance_rate": 0.5}, "trigger_acceptance_rate", 0.5, 9 / 21),
                ({"coordination": 20}, "coordination", 20, 21),
                ({"independent": 237}, "independent", 237, 238),
                ({"triggers": 22}, "coordination", 21, 22),
                ({"accepts": 22}, "coordination", 21, 22),
                ({"trigger_accept_overlap": 22}, "coordination", 21, 20),
                ({"unaccepted_triggers": 11}, "trigger_acceptance_rate", 9 / 21, 10 / 21),
            ]
        ),
        (
            lambda d: d["agents"][1].update(unaccepted_triggers=22),
            "agent 2 has more unaccepted_triggers than triggers",
        ),
        (
            lambda d: d["agents"][1]["event_distribution"].update(juggle=0),
            "agent 2's event_distribution is not per subtask",
        ),
        (
            # Agent 1 delivered nothing, so its total still adds up.
            lambda d: d["agents"][0]["event_distribution"].pop("serve-soup"),
            "agent 1's event_distribution is not per subtask",
        ),
    ],
    ids=[
        "zero-denominator",
        "pair-count",
        "denominator",
        "share",
        "giver-counts",
        "receiver-counts",
        "event-distribution",
        "soups-delivered",
        "episode-time",
        "timed-out",
        "contribution-ratio",
        "trigger-share",
        "acceptance-rate",
        "coordination",
        "independent",
        "triggers",
        "accepts",
        "overlap",
        "unaccepted-triggers",
        "more-unaccepted-than-triggers",
        "extra-subtask",
        "no-serve-soup",
    ],
)
def test_read_report_rejects_counts_that_disagree(tmp_path, pr_report, corrupt, message):
    # Each used to read back, and `aggregate` averaged it as sound.
    data = pr_report.to_dict()
    corrupt(data)
    path = tmp_path / "bad.report.json"
    path.write_text(json.dumps(data))
    expected = f"^bad report file {re.escape(str(path))}: {re.escape(message)}$"
    with pytest.raises(SchemaViolation, match=expected):
        read_report(path)


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


def _json_text(obj) -> str:
    out = io.StringIO()
    write_report(obj, "json", out)
    return out.getvalue()


def test_json_report_matches_golden(pr_report):
    assert _json_text(pr_report) == (GOLDEN / "report_passing.json").read_text()


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
    assert _json_text(summary) == (GOLDEN / "summary_solo.json").read_text()


def test_summary_csv_has_mean_row(pr_report):
    other = dataclasses.replace(pr_report, label="counter_circuit_2")
    summary = aggregate([pr_report, other])
    lines = report_to_csv(summary).strip().split("\n")
    assert len(lines) == 4  # header, two episodes, mean row
    assert lines[-1].startswith("mean,")
