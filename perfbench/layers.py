"""Per-layer metrics: the traced run behind `run.py --trace 1`.

One traced run of a workload does, in order:

1. the ROADMAP baseline cross-check, untraced: µs/step of simulate, analyze,
   trace write/read and build_report for four teams at seed 1;
2. an untraced pass over a fixed slice of the workload's inputs, then the
   same slice with the `Tracer` installed. Both passes go through the output
   gate. The difference of their episodes/s, both scaled to the reference
   speed of probe.py, is the tracing overhead;
3. peak memory of `analyze_trace` under tracemalloc, on a few traces;
4. on cli-batch, one more round as subprocesses with `--jobs 2` for the
   pool's CPU use and the `report` command's wall time.

The cli-batch slice runs the three commands in-process through
`interdep.cli.main` with `--jobs 1`, so every span is captured.

Which end-to-end metric each layer should move, and where:
  policies.*        episodes_per_s, episode_ms_* on sweep; simulate_s on
                    cli-batch. No change expected on replay-external.
  gridworld.*       all three workloads; the largest share on replay-external.
  grounding.*       episodes_per_s on replay-external; analyze_s on cli-batch.
  interdependence.* episodes_per_s, peak_rss_mb on replay-external; analyze_s
                    on cli-batch.
  metrics.*         episode_ms_* on sweep and replay-external; analyze_s on
                    cli-batch.
  trace_io.*        simulate_s, analyze_s on cli-batch; episodes_per_s on
                    replay-external. No change expected on sweep.
  cli.*             simulate_s on cli-batch only.
A layer that a workload does not run reports 0.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
import tracemalloc

import bench as run
from probe import probe, to_reference
from tracer import SpanStats, Tracer

SLICE = {"sweep": 20, "replay-external": 10}
PEAK_TRACES = 3
CLI_PROBES = 50  # kernels on each side of an in-process command
OVERHEAD_PAIRS = 2  # untraced + traced passes
BASELINE_REPEATS = 5
BASELINE_TEAMS = {
    "passer_receiver": ("passer:counter=(4,2)", run.RECEIVER),
    "stochastic_receiver": ("stochastic:p=0.5,counter=(4,2),pot=0", run.RECEIVER),
    "solo_idle": ("solo", "idle"),
    "random_random": ("random", "random"),
}
SPANS_DIR = run.ROOT / ".perfbench_out"


def baseline(metrics: dict) -> None:
    """µs/step per stage for the ROADMAP's baseline teams at seed 1."""
    ip = run.ip
    layout = ip.load_layout(ip.bundled_layout_text())
    config = ip.EpisodeConfig()
    for team, (p1, p2) in BASELINE_TEAMS.items():
        spec1, spec2 = ip.parse_policy_spec(p1), ip.parse_policy_spec(p2)
        stages: dict = {k: [] for k in ("simulate", "analyze", "build_report", "write", "read")}
        for _ in range(BASELINE_REPEATS):
            t0 = time.perf_counter()
            trace = ip.run_episode(layout, config, spec1, spec2, 1)
            t1 = time.perf_counter()
            ledger = ip.analyze_trace(trace)
            t2 = time.perf_counter()
            ip.build_report(ledger)
            t3 = time.perf_counter()
            text = ip.trace_io.trace_to_text(trace)
            t4 = time.perf_counter()
            ip.read_trace(io.StringIO(text))
            t5 = time.perf_counter()
            for name, dt in zip(stages, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
                stages[name].append(dt)
        steps = len(trace.steps)
        metrics[f"baseline.{team}.steps"] = (steps, "count")
        for name, times in stages.items():
            us = 1e6 * statistics.median(times) / steps
            metrics[f"baseline.{team}.{name}_us_per_step"] = (us, "us/step")


def in_process_pass(workload, items, gate, tally, warmup) -> tuple:
    """One closed-loop pass; returns (episodes ok, reference seconds in them)."""
    (episodes,) = run.closed_loop(items, workload.run_one, 0, gate, tally, lambda *_: True, warmup)
    return len(episodes), sum(sum(ref.values()) for ref, _ in episodes)


def cli_in_process(workload, name, gate, tally) -> tuple:
    """The three commands through `cli.main` with --jobs 1, writing to the
    workload's directory `name`; returns (episodes ok, reference seconds)."""
    out = workload.fresh(name)
    tally.attempted += len(workload.seeds)
    busy = 0.0
    try:
        for argv in workload.argvs(out, workload.seeds, jobs=1):
            k_before, _ = probe(CLI_PROBES)
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = run.ip.cli.main(argv)
            elapsed = time.perf_counter() - t0
            k_after, _ = probe(CLI_PROBES)
            busy += to_reference(elapsed, (k_before + k_after) / 2)
            if code != 0:
                raise RuntimeError(f"interdep {argv[0]} returned {code}")
        good = workload.check_outputs(out, gate, first=False)
    except Exception as exc:
        tally.error(name, exc)
        tally.failed += len(workload.seeds) - 1
        return 0, busy
    if not good:
        tally.failed += len(workload.seeds)
        return 0, busy
    return len(workload.seeds), busy


def subprocess_round(workload, gate, tally) -> tuple:
    """One untraced round as run.py times it, with `--jobs 2`; returns the
    simulate child's CPU use per job and the `report` command's seconds."""
    out = workload.fresh("subprocess")
    tally.attempted += len(workload.seeds)
    try:
        times, cpu = workload.run_round(out, workload.seeds)
        good = workload.check_outputs(out, gate, first=True)
    except Exception as exc:
        tally.error("subprocess round", exc)
        tally.failed += len(workload.seeds) - 1
        return 0.0, 0.0
    if not good:
        tally.failed += len(workload.seeds)
    _, sim_raw, sim_probe = times[0]
    return (cpu - sim_probe) / (sim_raw * 2), times[2][0]


def peak_kib(workload) -> float:
    """Largest tracemalloc peak of one `analyze_trace` call, in KiB."""
    schema = getattr(workload, "schema", None)
    peaks = []
    for trace in workload.analysis_traces(PEAK_TRACES):
        tracemalloc.start()
        try:
            run.ip.analyze_trace(trace, schema)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return max(peaks) / 1024.0


def layer_metrics(stats: SpanStats, counts, peak: float) -> dict:
    def per(num, den):
        return num / den if den else 0.0

    decisions = stats.top_level["next_action"]
    bfs_in_decisions, _ = stats.under("bfs", "next_action")
    sim_calls, sim_ns = stats.under("step", "run_episode")
    replay_calls, replay_ns = stats.under("step", "analyze_trace")
    reports = stats.calls["build_report"] + stats.calls["aggregate"]
    return {
        "policies.next_action.calls": (decisions, "count"),
        "policies.next_action.self_us": (per(stats.self_ns["next_action"], 1e3 * decisions), "us"),
        "policies.bfs.calls_per_decision": (per(bfs_in_decisions, decisions), "ratio"),
        "policies.bfs.us_per_call": (stats.us_per_call("bfs"), "us"),
        "policies.make_policy.us_per_call": (stats.us_per_call("make_policy"), "us"),
        "gridworld.step.calls": (stats.calls["step"], "count"),
        "gridworld.step.sim_us_per_call": (per(sim_ns, 1e3 * sim_calls), "us"),
        "gridworld.step.replay_us_per_call": (per(replay_ns, 1e3 * replay_calls), "us"),
        "grounding.extract.calls": (
            stats.calls["extract:interact"] + stats.calls["extract:other"],
            "count",
        ),
        "grounding.extract.us_per_interact": (stats.us_per_call("extract:interact"), "us"),
        "grounding.extract.us_per_other": (stats.us_per_call("extract:other"), "us"),
        "interdependence.analyze.self_us_per_step": (
            per(stats.self_ns["analyze_trace"], 1e3 * counts["analyze.steps"]),
            "us/step",
        ),
        "interdependence.classify.us_per_call": (stats.us_per_call("classify"), "us"),
        "interdependence.pairs": (counts["pairs"], "count"),
        "interdependence.triggers": (counts["triggers"], "count"),
        "interdependence.triggers_matched": (counts["triggers_matched"], "count"),
        "interdependence.trigger_acceptance": (
            per(counts["triggers_matched"], counts["triggers"]),
            "ratio",
        ),
        "interdependence.analyze.peak_kib": (peak, "KiB"),
        "metrics.build_report.us_per_call": (stats.us_per_call("build_report"), "us"),
        "metrics.aggregate.ms_per_call": (stats.us_per_call("aggregate") / 1e3, "ms"),
        "trace_io.trace_to_text.us_per_step": (
            per(stats.total_ns["trace_to_text"], 1e3 * counts["trace_to_text.steps"]),
            "us/step",
        ),
        "trace_io.read_trace.us_per_step": (
            per(stats.total_ns["read_trace"], 1e3 * counts["read_trace.steps"]),
            "us/step",
        ),
        "trace_io.render.us_per_report": (per(stats.total_ns["render@top"], 1e3 * reports), "us"),
        "trace_io.trace_bytes_per_step": (
            per(counts["trace_to_text.bytes"], counts["trace_to_text.steps"]),
            "B/step",
        ),
    }


def traced_run(workload, gate, tally) -> tuple:
    """All per-layer metrics of one workload as {name: (value, unit)}."""
    metrics: dict = {}
    baseline(metrics)
    is_cli = isinstance(workload, run.CliBatch)
    if is_cli:
        def one_pass(name, warmup):
            return cli_in_process(workload, name, gate, tally)
    else:
        if isinstance(workload, run.ReplayExternal):
            workload.write_logs(gate)
        items = workload.items[: SLICE[workload.name]]

        def one_pass(name, warmup):
            return in_process_pass(workload, items, gate, tally, warmup)

    # Untraced and traced passes alternate, so a drift in machine speed
    # weighs on both sides of the overhead alike.
    tracer = Tracer()
    totals = {False: [0, 0.0], True: [0, 0.0]}
    for i in range(OVERHEAD_PAIRS):
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                ok, busy = one_pass(f"{'traced' if traced else 'untraced'}_{i}", warmup=i == 0 and not traced)
            finally:
                tracer.uninstall()
            totals[traced][0] += ok
            totals[traced][1] += busy
    if is_cli:
        last = workload.dir / f"traced_{OVERHEAD_PAIRS - 1}"
        files = [p for p in last.rglob("*") if p.is_file()]
        cpu_util, report_s = subprocess_round(workload, gate, tally)
    else:
        files, cpu_util, report_s = [], 0.0, 0.0
    metrics.update(layer_metrics(SpanStats(tracer.spans), tracer.counts, peak_kib(workload)))
    metrics["cli.simulate.cpu_util"] = (cpu_util, "ratio")
    metrics["cli.report_s"] = (report_s, "s")
    metrics["cli.files_written"] = (len(files), "count")
    metrics["cli.bytes_written"] = (sum(p.stat().st_size for p in files), "B")
    (ok_u, busy_u), (ok_t, busy_t) = totals[False], totals[True]
    eps_u = ok_u / busy_u if busy_u else 0.0
    eps_t = ok_t / busy_t if busy_t else 0.0
    metrics["trace.episodes"] = (ok_t, "count")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.overhead_episodes_per_s"] = (eps_t - eps_u, "1/s")
    SPANS_DIR.mkdir(exist_ok=True)
    tracer.write(SPANS_DIR / f"spans_{workload.name}.jsonl")
    samples = {"traced_episodes": ok_t, "baseline_repeats": BASELINE_REPEATS}
    return metrics, samples
