"""End-to-end command line behavior, run in process via main(argv)."""

import hashlib
import json
import os
import pathlib
import stat
import subprocess
import sys
import threading

import pytest

from conftest import PASSER, RECEIVER, stochastic
from interdep import EpisodeConfig, bundled_layout_text, load_layout
from interdep import cli, metrics
from interdep.cli import _atomic_write, main
from interdep.trace_io import read_report, read_trace

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def layout_file(tmp_path):
    path = tmp_path / "counter_circuit.layout"
    path.write_text(bundled_layout_text())
    return path


def simulate(layout_file, out, seeds="1", p1=PASSER, p2=RECEIVER, extra=()):
    argv = [
        "simulate",
        "--layout", str(layout_file),
        "--p1", p1,
        "--p2", p2,
        "--seeds", seeds,
        "--out", str(out),
        *extra,
    ]
    assert main(argv) == 0
    return sorted(out.glob("*.trace.jsonl"))


# simulate --------------------------------------------------------------------


def test_simulate_names_traces_by_stem_and_seed(layout_file, tmp_path, capsys):
    out = tmp_path / "traces"
    paths = simulate(layout_file, out, seeds="1")
    assert [p.name for p in paths] == ["counter_circuit_1.trace.jsonl"]
    assert str(paths[0]) in capsys.readouterr().out


def test_simulate_seed_range(layout_file, tmp_path):
    out = tmp_path / "traces"
    paths = simulate(layout_file, out, seeds="3..5", extra=["--jobs", "2"])
    assert [p.name for p in paths] == [
        "counter_circuit_3.trace.jsonl",
        "counter_circuit_4.trace.jsonl",
        "counter_circuit_5.trace.jsonl",
    ]
    assert [read_trace(p).seed for p in paths] == [3, 4, 5]


def test_simulate_pool_writes_the_serial_bytes(layout_file, tmp_path):
    # The pool's threads share one layout and so one route memo.
    def traces(jobs):
        out = tmp_path / f"jobs{jobs}"
        extra = ["--jobs", str(jobs)]
        paths = simulate(layout_file, out, "1..6", p1=stochastic(0.5), extra=extra)
        return {p.name: p.read_bytes() for p in paths}

    serial = traces(1)
    assert len(serial) == 6
    assert traces(2) == serial


@pytest.mark.parametrize(
    "jobs, seeds, cpus, workers",
    [("50000", 3, 2, 2), ("50000", 3, None, 1), ("8", 2, 4, 2), ("1", 3, 4, 1)],
)
def test_simulate_pool_is_capped_by_cpus_and_seeds(
    layout_file, tmp_path, monkeypatch, jobs, seeds, cpus, workers
):
    # A recording stand-in for the thread never starts, so the calling
    # thread, always one of the workers, runs the batch serially and no
    # thread starts however large --jobs is.
    extra_threads = []

    class RecordingThread:
        def __init__(self, target):
            extra_threads.append(target)

        def start(self):
            pass

        def join(self):
            pass

    monkeypatch.setattr(threading, "Thread", RecordingThread)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    paths = simulate(layout_file, tmp_path, f"1..{seeds}", "solo", "idle", ["--jobs", jobs])
    assert 1 + len(extra_threads) == workers
    assert len(paths) == seeds


def test_thread_map_runs_each_item_once_in_order():
    # More threads than CPUs and a short switch interval: a lost or doubled
    # take of an item would show in `seen` or in the results.
    seen = []

    def square(x):
        seen.append(x)
        return x * x

    items = list(range(3000))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = cli._map_on_threads(square, items, 8)
    finally:
        sys.setswitchinterval(interval)
    assert results == [x * x for x in items]
    assert sorted(seen) == items


@pytest.mark.parametrize("workers", [1, 4])
def test_thread_map_raises_the_earliest_failure(workers):
    started = []

    def fail_at_3_and_5(x):
        started.append(x)
        if x in (3, 5):
            raise ValueError(x)
        return x

    with pytest.raises(ValueError) as caught:
        cli._map_on_threads(fail_at_3_and_5, list(range(100)), workers)
    assert caught.value.args == (3,)
    # Items are taken in order, so the started ones are a prefix; one
    # worker starts none after the failure.
    assert sorted(started) == list(range(len(started)))
    if workers == 1:
        assert started == [0, 1, 2, 3]


def test_simulate_trace_header_records_run(layout_file, tmp_path):
    out = tmp_path / "traces"
    (path,) = simulate(layout_file, out)
    trace = read_trace(path)
    assert trace.layout_text == load_layout(bundled_layout_text()).text
    assert trace.policies == (PASSER, RECEIVER)
    assert trace.config.horizon == 1000 and trace.config.cook_time == 20


def test_simulate_config_flags(layout_file, tmp_path):
    out = tmp_path / "traces"
    (path,) = simulate(
        layout_file,
        out,
        extra=["--target-soups", "1", "--horizon", "400", "--cook-time", "5"],
    )
    trace = read_trace(path)
    assert trace.config.target_soups == 1
    assert trace.config.horizon == 400
    assert trace.config.cook_time == 5


def test_simulate_config_flag_not_given_keeps_the_config_default(layout_file, tmp_path):
    (path,) = simulate(layout_file, tmp_path / "traces", extra=["--cook-time", "5"])
    assert read_trace(path).config == EpisodeConfig(cook_time=5)


# analyze ---------------------------------------------------------------------


def test_analyze_single_trace_writes_all_formats(layout_file, tmp_path):
    traces = simulate(layout_file, tmp_path / "traces")
    out = tmp_path / "reports"
    assert main(["analyze", str(traces[0]), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "counter_circuit_1.report.csv",
        "counter_circuit_1.report.json",
        "counter_circuit_1.report.md",
    ]
    report = read_report(out / "counter_circuit_1.report.json")
    assert report.label == "counter_circuit_1"
    assert report.pair_count == 18


def test_analyze_many_traces_adds_summary(layout_file, tmp_path):
    traces = simulate(layout_file, tmp_path / "traces", seeds="1..2")
    out = tmp_path / "reports"
    argv = ["analyze", *map(str, traces), "--out", str(out), "--format", "json"]
    assert main(argv) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "counter_circuit_1.report.json",
        "counter_circuit_2.report.json",
        "summary.report.json",
    ]
    summary = json.loads((out / "summary.report.json").read_text())
    assert [r["label"] for r in summary["reports"]] == [
        "counter_circuit_1",
        "counter_circuit_2",
    ]


def test_analyze_write_ledgers(layout_file, tmp_path):
    traces = simulate(layout_file, tmp_path / "traces")
    out = tmp_path / "reports"
    argv = [
        "analyze", str(traces[0]),
        "--out", str(out),
        "--format", "json",
        "--write-ledgers",
    ]
    assert main(argv) == 0
    ledger = json.loads((out / "counter_circuit_1.ledger.json").read_text())
    assert len(ledger["pairs"]) == 18
    assert {p["prop"].split("(")[0] for p in ledger["pairs"]} == {
        "onion-on-counter",
        "counter-empty",
    }


@pytest.mark.parametrize(
    "p1, flags, golden",
    [
        (PASSER, [], "ledger_passing.json"),
        (stochastic(0.5), ["--counter-empty", "off"], "ledger_stochastic_no_ce.json"),
    ],
    ids=["passer", "stochastic-no-ce"],
)
def test_analyze_ledger_matches_golden(layout_file, tmp_path, p1, flags, golden):
    traces = simulate(layout_file, tmp_path / "traces", p1=p1)
    out = tmp_path / "reports"
    argv = [
        "analyze", str(traces[0]),
        "--out", str(out),
        "--format", "json",
        "--write-ledgers",
        *flags,
    ]
    assert main(argv) == 0
    ledger = (out / "counter_circuit_1.ledger.json").read_bytes()
    assert ledger == (GOLDEN / golden).read_bytes()


def test_analyze_counter_empty_off(layout_file, tmp_path):
    traces = simulate(layout_file, tmp_path / "traces")
    out = tmp_path / "reports"
    argv = [
        "analyze", str(traces[0]),
        "--out", str(out),
        "--format", "json",
        "--counter-empty", "off",
    ]
    assert main(argv) == 0
    report = read_report(out / "counter_circuit_1.report.json")
    assert report.pair_count == 9
    assert report.include_counter_empty is False


def test_analyze_denominator_mode(layout_file, tmp_path):
    traces = simulate(layout_file, tmp_path / "traces")
    out = tmp_path / "reports"
    argv = [
        "analyze", str(traces[0]),
        "--out", str(out),
        "--format", "json",
        "--denominator", "all-actions",
    ]
    assert main(argv) == 0
    report = read_report(out / "counter_circuit_1.report.json")
    assert report.denominator_mode == "all-actions"
    # one agent action per tick under turn taking
    assert report.denominator == report.episode_time


# report ----------------------------------------------------------------------


def test_report_reaggregates_report_files(layout_file, tmp_path):
    traces = simulate(layout_file, tmp_path / "traces", seeds="1..3")
    first = tmp_path / "first"
    argv = ["analyze", *map(str, traces), "--out", str(first), "--format", "all"]
    assert main(argv) == 0

    out = tmp_path / "second"
    argv = [
        "report",
        *(str(first / f"counter_circuit_{seed}.report.json") for seed in (1, 2, 3)),
        "--out", str(out),
        "--format", "all",
    ]
    assert main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "summary.report.csv",
        "summary.report.json",
        "summary.report.md",
    ]
    for rebuilt in out.iterdir():
        assert rebuilt.read_bytes() == (first / rebuilt.name).read_bytes()


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda d: d.update(agents=d["agents"][:1]),
        lambda d: d.update(agents=[d["agents"][0], d["agents"][0]]),
        lambda d: d["agents"][0].update(giver_count="7"),
        lambda d: d["agents"][1].update(contribution_ratio=True),
        lambda d: d["agents"][0].update(giver_count=-50),
        lambda d: d.update(percent_interdependent=-3.5),
        lambda d: d["agents"][1].update(trigger_acceptance_rate=42.0),
        lambda d: d["agents"][0]["event_distribution"].update(move=-1),
        lambda d: d.update(percent_interdependant=9.0),
        lambda d: d["agents"][0].update(bogus=[1]),
        lambda d: d.update(denominator_mode="bogus"),
        lambda d: d.update(denominator=0),
        lambda d: d.update(pair_count=999),
        lambda d: d.update(denominator=7),
        lambda d: d.update(percent_interdependent=0.5),
        lambda d: d["agents"][0].update(giver_count=d["agents"][0]["giver_count"] + 5),
        lambda d: d["agents"][1].update(receiver_count=d["agents"][1]["receiver_count"] + 5),
        lambda d: d["agents"][1]["event_distribution"].update(
            move=d["agents"][1]["event_distribution"]["move"] + 40
        ),
        lambda d: d.update(soups_delivered=2),
        lambda d: d["agents"][1].update(independent=d["agents"][1]["independent"] - 1),
    ],
    ids=[
        "one-agent",
        "agent-1-twice",
        "string-count",
        "bool-rate",
        "negative-count",
        "negative-percent",
        "rate-above-1",
        "negative-tally",
        "unknown-team-field",
        "unknown-agent-field",
        "unknown-denominator-mode",
        "zero-denominator",
        "pair-count-not-the-predicate-sum",
        "denominator-not-the-actions",
        "share-not-pairs-over-denominator",
        "giver-counts-not-the-pairs",
        "receiver-counts-not-the-pairs",
        "events-not-the-actions",
        "soups-not-the-serve-soup-events",
        "independent-not-the-rest",
    ],
)
def test_report_rejects_malformed_report_file(layout_file, tmp_path, capsys, corrupt):
    # Each used to crash `aggregate` or be averaged as a plausible number.
    traces = simulate(layout_file, tmp_path / "traces")
    first = tmp_path / "first"
    assert main(["analyze", str(traces[0]), "--out", str(first), "--format", "json"]) == 0
    path = first / "counter_circuit_1.report.json"
    data = json.loads(path.read_text())
    corrupt(data)
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["report", str(path), "--out", str(tmp_path / "second")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "second").exists()


def test_report_rejects_a_config_with_a_missing_field(layout_file, tmp_path, capsys):
    # The missing horizon used to be read as the default 1000.
    traces = simulate(layout_file, tmp_path / "traces")
    first = tmp_path / "first"
    assert main(["analyze", str(traces[0]), "--out", str(first), "--format", "json"]) == 0
    path = first / "counter_circuit_1.report.json"
    data = json.loads(path.read_text())
    del data["config"]["horizon"]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["report", str(path), "--out", str(tmp_path / "second")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "missing 'horizon'" in err


@pytest.mark.parametrize(
    "name, problem",
    [
        ("summary.report.json", "an aggregate summary, not a per-episode report"),
        ("counter_circuit_1.report.json", "missing field 'agents'"),
    ],
    ids=["summary", "missing-field"],
)
def test_report_names_a_file_it_cannot_read(layout_file, tmp_path, capsys, name, problem):
    # A glob that picks up the summary used to end in the bare KeyError
    # "error: bad report file .../summary.report.json: 'agents'".
    traces = simulate(layout_file, tmp_path / "traces", seeds="1..2")
    first = tmp_path / "first"
    assert main(["analyze", *map(str, traces), "--out", str(first), "--format", "json"]) == 0
    path = first / name
    if name != "summary.report.json":
        data = json.loads(path.read_text())
        del data["agents"]
        path.write_text(json.dumps(data))
    capsys.readouterr()
    reports = sorted(first.glob("*.report.json"))
    assert main(["report", *map(str, reports), "--out", str(tmp_path / "second")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: bad report file {path}: {problem}\n"
    assert not (tmp_path / "second").exists()


# schema ----------------------------------------------------------------------


def test_denominator_choices_are_the_report_modes():
    # `cli` spells them out so that `schema` does not load `metrics`.
    assert cli.DENOMINATOR_MODES == metrics.DENOMINATOR_MODES


def test_schema_prints_vocabulary(capsys):
    assert main(["schema"]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert "counter-empty" in dump["schema"]["trigger_fluents"]
    assert "soup-cooking" not in dump["schema"]["trigger_fluents"]
    assert "pot-contains" in dump["predicates"]["shared"]
    assert "place-onion-pot" in dump["subtasks"]


def test_schema_counter_empty_off(capsys):
    assert main(["schema", "--counter-empty", "off"]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert "counter-empty" not in dump["schema"]["trigger_fluents"]


def test_schema_out_file(tmp_path):
    path = tmp_path / "vocab.json"
    assert main(["schema", "--out", str(path)]) == 0
    assert json.loads(path.read_text())["schema"]["include_counter_empty"] is True


def test_schema_matches_golden(capsys):
    # The dump is derived from the grounding effects table; pin its bytes.
    assert main(["schema"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "schema.json").read_bytes()


def test_outputs_follow_the_umask(layout_file, tmp_path):
    # Outputs get the mode open(path, "w") would give them, not a temp
    # file's private 0o600.
    old = os.umask(0o022)
    try:
        traces = simulate(
            layout_file, tmp_path / "traces", seeds="1..2", extra=["--jobs", "2"]
        )
        out = tmp_path / "reports"
        argv = ["analyze", *map(str, traces), "--out", str(out), "--write-ledgers"]
        assert main(argv) == 0
        assert main(["schema", "--out", str(tmp_path / "vocab.json")]) == 0
    finally:
        os.umask(old)
    written = [*traces, *out.iterdir(), tmp_path / "vocab.json"]
    assert len(written) == 2 + 2 * 4 + 3 + 1  # traces, reports and ledgers, summary, schema
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in written} == {
        p.name: 0o644 for p in written
    }


# failure paths ---------------------------------------------------------------


def test_missing_layout_is_reported(tmp_path, capsys):
    missing = tmp_path / "nope.layout"
    argv = ["simulate", "--layout", str(missing), "--p1", "idle", "--p2", "idle"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "nope.layout" in err


def test_bad_seed_spec_is_reported(layout_file, capsys):
    argv = [
        "simulate",
        "--layout", str(layout_file),
        "--p1", "idle",
        "--p2", "idle",
        "--seeds", "alpha",
    ]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("flag", ["--cook-time", "--target-soups", "--horizon"])
def test_zero_config_value_is_reported(layout_file, tmp_path, capsys, flag):
    argv = [
        "simulate",
        "--layout", str(layout_file),
        "--p1", "solo",
        "--p2", "idle",
        "--out", str(tmp_path),
        flag, "0",
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not list(tmp_path.glob("*.trace.jsonl"))


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_reported(layout_file, tmp_path, capsys, jobs):
    # Accepted before: the pool size was clamped to 1 and the batch ran.
    argv = [
        "simulate",
        "--layout", str(layout_file),
        "--p1", "solo",
        "--p2", "idle",
        "--out", str(tmp_path),
        "--jobs", jobs,
    ]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: --jobs must be at least 1, got {jobs}\n"
    assert not list(tmp_path.glob("*.trace.jsonl"))


def test_bad_policy_spec_is_reported(layout_file, capsys):
    argv = ["simulate", "--layout", str(layout_file), "--p1", "warp", "--p2", "idle"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_ignored_policy_parameter_is_reported(layout_file, tmp_path, capsys):
    # Accepted before: no effect, yet written into the trace header.
    argv = [
        "simulate",
        "--layout", str(layout_file),
        "--p1", "passer:pot=1",
        "--p2", "idle",
        "--out", str(tmp_path),
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: policy kind 'passer' takes no pot parameter\n"
    assert not list(tmp_path.glob("*.trace.jsonl"))


def test_repeated_policy_parameter_is_reported(layout_file, tmp_path, capsys):
    # Accepted before: the later value won and went into the trace header.
    argv = [
        "simulate",
        "--layout", str(layout_file),
        "--p1", "solo:pot=0,pot=1",
        "--p2", "idle",
        "--out", str(tmp_path),
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: repeated policy parameter 'pot' in 'solo:pot=0,pot=1'\n"
    assert not list(tmp_path.glob("*.trace.jsonl"))


def test_non_numeric_policy_parameter_is_reported(layout_file, tmp_path, capsys):
    # Used to print int()'s own message, which names neither value nor spec.
    argv = [
        "simulate",
        "--layout", str(layout_file),
        "--p1", "passer:counter=(4,2,1)",
        "--p2", "idle",
        "--out", str(tmp_path),
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: bad counter cell '(4,2,1)' in 'passer:counter=(4,2,1)'\n"
    assert not list(tmp_path.glob("*.trace.jsonl"))


@pytest.mark.parametrize("cell", ["(99,2)", "(-4,-3)"])
def test_counter_outside_grid_is_reported(layout_file, tmp_path, capsys, cell):
    # (99,2) used to raise IndexError; (-4,-3) wrapped onto counter (4,2).
    argv = [
        "simulate",
        "--layout", str(layout_file),
        "--p1", f"passer:counter={cell}",
        "--p2", "idle",
        "--out", str(tmp_path),
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "outside the 8x5 grid" in err


KITCHEN_FAULTS = [
    (None, "passer:counter", "bad policy parameter 'counter' in 'passer:counter'"),
    (None, "passer:counter=(1,1)", "target cell (1, 1) is not a counter tile"),
    (None, "solo:pot=9", "pot index 9 out of range (layout has 2)"),
    (
        # The dish dispenser's only neighbours are walls.
        "XXPXXX\nO1 2XD\nXC SXX\nXXXXXX\n",
        "solo",
        "agent 1: no reachable dish dispenser from spawn (1, 1)",
    ),
    (
        # The one counter has a single floor neighbour.
        "XXPXX\nO1 2D\nXCXSX\nXXXXX\n",
        "passer",
        "agent 1: no counter with two approach sides",
    ),
]


@pytest.mark.parametrize(
    "grid, p1, message",
    KITCHEN_FAULTS,
    ids=["bare-parameter", "not-a-counter", "pot-index", "no-dish", "no-counter"],
)
def test_policy_that_cannot_play_the_kitchen_is_reported(
    layout_file, tmp_path, capsys, grid, p1, message
):
    if grid is not None:
        layout_file = tmp_path / "kitchen.layout"
        layout_file.write_text(grid)
    out = tmp_path / "traces"
    argv = ["simulate", "--layout", str(layout_file), "--p1", p1, "--p2", "idle"]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(out.glob("*.trace.jsonl"))


def test_empty_seed_range_is_reported(layout_file, tmp_path, capsys):
    argv = [
        "simulate",
        "--layout", str(layout_file),
        "--p1", "idle",
        "--p2", "idle",
        "--seeds", "5..3",
        "--out", str(tmp_path / "traces"),
    ]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: empty seed range '5..3'\n"


def test_a_failed_write_leaves_the_target_and_no_temp_file(tmp_path):
    target = tmp_path / "summary.json"
    target.write_text("before\n")

    def write(f):
        f.write("half a report")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _atomic_write(target, write)
    assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]
    assert target.read_text() == "before\n"


def test_missing_trace_is_reported(tmp_path, capsys):
    argv = ["analyze", str(tmp_path / "gone.trace.jsonl")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_corrupt_trace_is_reported(tmp_path, capsys):
    bad = tmp_path / "bad.trace.jsonl"
    bad.write_text("not json\n")
    assert main(["analyze", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_failing_trace_is_named_and_nothing_is_written(layout_file, tmp_path, capsys):
    # Reports and ledgers of the good traces used to be written before the
    # bad one failed, and the error line did not name it.
    traces = simulate(layout_file, tmp_path / "traces", seeds="1..2")
    bad = tmp_path / "traces" / "bad.trace.jsonl"
    bad.write_text("not json\n")
    out = tmp_path / "reports"
    capsys.readouterr()
    argv = ["analyze", *map(str, traces), str(bad), "--out", str(out), "--write-ledgers"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert str(bad) in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "tail",
    [
        '{"sha256": 5}',
        '{"action": ["up"], "agent": 1, "t": 0}',
        None,
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=["footer-int", "action-list", "footer-only", "deeply-nested"],
)
def test_malformed_trace_is_reported(layout_file, tmp_path, capsys, tail):
    # Each used to end in a traceback instead of one error line.
    header = simulate(layout_file, tmp_path)[0].read_text().splitlines()[0]
    if tail is None:
        text = json.dumps({"sha256": hashlib.sha256(b"\n").hexdigest()}) + "\n"
    else:
        text = header + "\n" + tail + "\n"
    bad = tmp_path / "bad.trace.jsonl"
    bad.write_text(text)
    assert main(["analyze", str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_deeply_nested_report_file_is_reported(tmp_path, capsys):
    bad = tmp_path / "deep.report.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["report", str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "bad report file" in err
    assert not (tmp_path / "out").exists()


def test_trace_config_with_a_missing_field_is_reported(layout_file, tmp_path, capsys):
    # The trace used to be analyzed under the default reward and exit 0.
    lines = simulate(layout_file, tmp_path)[0].read_text().splitlines()
    if "sha256" in json.loads(lines[-1]):
        lines.pop()  # its checksum would refuse the edited header first
    header = json.loads(lines[0])
    del header["config"]["reward_per_soup"]
    bad = tmp_path / "bad.trace.jsonl"
    bad.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    capsys.readouterr()
    assert main(["analyze", str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "missing 'reward_per_soup'" in err


@pytest.mark.parametrize(
    "names",
    [
        ("a/counter_circuit_1.trace.jsonl", "b/counter_circuit_1.trace.jsonl"),
        ("a/counter_circuit_1.trace.jsonl", "b/summary.trace.jsonl"),
    ],
    ids=["same-name", "summary"],
)
def test_clashing_report_labels_are_reported(layout_file, tmp_path, capsys, names):
    # Both used to exit 0 after one report had overwritten the other.
    source = simulate(layout_file, tmp_path / "traces")[0]
    paths = [tmp_path / name for name in names]
    for path in paths:
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(source.read_bytes())
    out = tmp_path / "reports"
    assert main(["analyze", *map(str, paths), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "share the report label" in err
    assert not out.exists()


def test_log_env_var_is_tolerated(layout_file, tmp_path, monkeypatch):
    monkeypatch.setenv("INTERDEP_LOG", "DEBUG")
    simulate(layout_file, tmp_path / "a")
    monkeypatch.setenv("INTERDEP_LOG", "bogus")
    simulate(layout_file, tmp_path / "b")


def run_logged(argv: list) -> str:
    """`interdep` in a fresh interpreter with INTERDEP_LOG=INFO; its stderr."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "interdep.cli", *argv],
        env={**os.environ, "PYTHONPATH": path, "INTERDEP_LOG": "INFO"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stderr


def test_info_logging_names_each_seed_and_trace(layout_file, tmp_path):
    # This process has loaded and configured `logging` already, so only a
    # fresh interpreter shows that `main` sets it up from INTERDEP_LOG.
    out = tmp_path / "traces"
    argv = ["--layout", str(layout_file), "--p1", "solo", "--p2", "idle"]
    err = run_logged(["simulate", *argv, "--seeds", "1..3", "--jobs", "2", "--out", str(out)])
    lines = err.splitlines()
    assert sorted(line.split(" INFO ")[1] for line in lines) == [
        f"simulating seed {seed}" for seed in (1, 2, 3)
    ]
    assert all(" interdep INFO " in line for line in lines)
    traces = sorted(str(p) for p in out.glob("*.trace.jsonl"))
    err = run_logged(["analyze", *traces, "--out", str(tmp_path / "reports")])
    assert [line.split(" INFO ")[1] for line in err.splitlines()] == [
        f"analyzing {trace}" for trace in traces
    ]


# determinism and golden pipeline ----------------------------------------------


def run_pipeline(layout_file, root):
    traces = simulate(layout_file, root / "traces")
    out = root / "reports"
    assert main(["analyze", str(traces[0]), "--out", str(out)]) == 0
    return traces[0], out


def test_pipeline_is_byte_deterministic(layout_file, tmp_path):
    trace_a, out_a = run_pipeline(layout_file, tmp_path / "a")
    trace_b, out_b = run_pipeline(layout_file, tmp_path / "b")
    assert trace_a.read_bytes() == trace_b.read_bytes()
    for name in (
        "counter_circuit_1.report.json",
        "counter_circuit_1.report.csv",
        "counter_circuit_1.report.md",
    ):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_pipeline_markdown_matches_golden(layout_file, tmp_path):
    _, out = run_pipeline(layout_file, tmp_path / "run")
    produced = (out / "counter_circuit_1.report.md").read_text()
    assert produced == (GOLDEN / "report_passing.md").read_text()
