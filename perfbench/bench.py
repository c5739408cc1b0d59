"""Benchmark for the interdep pipeline: simulate, analyze, report.

Run from the repository root (perfbench/run.py is the entry point):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: the next episode starts when
the previous one has finished. The package is imported from `src/` of the
checkout the script sits in; the workload seed only generates the inputs.

Workloads
  sweep            in-process `run_episode -> analyze_trace -> build_report`
                   for stochastic:p + receiver teams, p in {0,.25,.5,.75,1},
                   the work of scripts/run_cooperation_sweep.py.
  replay-external  in-process `read_trace -> analyze_trace -> build_report`
                   over simultaneous-move logs ("policies": "external",
                   "serialize": "agent1-first") of seeded, interact-heavy
                   random play, written once per run before timing.
  cli-batch        `simulate --jobs 2`, `analyze --format all` and `report`
                   run as subprocesses over one seed batch, in rounds.

End-to-end metrics (--trace 0), all from untraced runs
  setup_s          median time of fresh interpreters (child.py setup) that
                   import interdep, load the bundled layout and build the
                   schema. Each launch counts from spawn to exit.
  episodes_per_s   episodes per second of pipeline wall time, median over
                   passes (rounds on cli-batch). The client's output check
                   between episodes is not counted.
  episode_ms_p50/p90  per-episode latency. On cli-batch an episode is not
                   timed alone, so these are over rounds of the batch's wall
                   time divided by its episodes.
  simulate_s       wall seconds to produce the traces of one pass: the
                   `run_episode` calls (sweep), the random play that makes the
                   logs (replay-external) or the `simulate` command.
  analyze_s        wall seconds to analyze one pass: `analyze_trace` plus
                   `build_report` (sweep), with `read_trace` (replay-external),
                   or the `analyze` command.
  peak_rss_mb      largest resident set of the process that ran the work:
                   this one, or the largest command child on cli-batch.
The share of failed episodes is the result line's `failed` / `attempted`.

Times are scaled to a reference interpreter speed by a kernel timed next to
each piece of work, in the same process and thread (see probe.py): the
machines share cores with other tenants, and their speed drifts too much for
raw wall times to compare one run with the next. The context line printed
before the result holds the raw values too, with the run's environment,
load averages and sample counts.

Output gate: every episode's output bytes are hashed. At the default seed
they must equal the sha256 pins in pins.json, taken from the code this
benchmark was defined on; at any seed every later pass must repeat the first
pass byte for byte, written traces must read back to the simulated steps and
re-serialize byte for byte, and a sample of external logs must agree with
the brute-force pair oracle in tests/oracle_utils.py. A failed check or an
exception counts the episode as failed, and a run with any failure prints no
speed numbers. `--write-pins` recomputes pins.json at the default seed.

--trace 1 gives the per-layer metrics instead: see perfbench/layers.py.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from random import Random

from probe import probe, to_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINS = HERE / "pins.json"

DEFAULT_SEED = 1
SETUP_LAUNCHES = 7
PROBS = (0.0, 0.25, 0.5, 0.75, 1.0)
RECEIVER = "receiver:counter=(4,2),pot=0"
SWEEP_SEEDS = 20  # x5 probabilities = 100 episodes per pass
REPLAY_LOGS = 60
REPLAY_TICKS = 500  # 1000 turns at the default horizon
REPLAY_ORACLE_SAMPLE = 3
REPLAY_GENERATIONS = 3
CLI_BATCH = 40
CLI_TEAM = ("stochastic:p=0.5,counter=(4,2),pot=0", RECEIVER)
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 150

ip = None  # the interdep package, imported from SRC by load_package()


class SetupError(Exception):
    """The checkout cannot run the benchmark (no package, no oracle)."""


def load_package():
    global ip
    if not (SRC / "interdep" / "__init__.py").is_file():
        raise SetupError(f"no interdep package under {SRC}")
    sys.path.insert(0, str(SRC))
    import interdep

    if Path(interdep.__file__).resolve().parent != (SRC / "interdep").resolve():
        raise SetupError(f"imported interdep from {interdep.__file__}, not {SRC}")
    import interdep.cli  # noqa: F401  (so a tracer can wrap its bindings)

    ip = interdep
    return interdep


def load_oracle():
    import importlib.util

    path = ROOT / "tests" / "oracle_utils.py"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    spec = importlib.util.spec_from_file_location("perfbench_oracle_utils", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# output bytes and the gate ---------------------------------------------------


def report_bytes(report) -> bytes:
    """A report's JSON exactly as `write_report(..., "json", ...)` writes it."""
    return (json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n").encode()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Gate:
    """Compares output bytes to the pins, or to the first pass without pins."""

    def __init__(self, pins) -> None:
        self.pins = pins
        self.seen: dict = {}
        self.problems: list = []

    def check(self, key: str, data: bytes) -> bool:
        digest = sha(data)
        if self.pins is not None:
            expected = self.pins.get(key)
            why = "differs from its pin" if expected else "has no pin"
        else:
            expected = self.seen.setdefault(key, digest)
            why = "differs from the first pass"
        if digest == expected:
            return True
        self.fail(f"{key}: output {why}")
        return False

    def fail(self, message: str) -> None:
        self.problems.append(message)
        if len(self.problems) <= 5:
            print(f"check failed: {message}", file=sys.stderr)


def load_pins(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    if pins.get("seed") != DEFAULT_SEED:
        raise SetupError(f"{PINS} is not pinned at seed {DEFAULT_SEED}")
    return pins[workload]


def check_round_trip(trace, text: str, gate: Gate, key: str) -> bool:
    """A written trace must read back to its steps and re-serialize exactly."""
    back = ip.read_trace(io.StringIO(text))
    if back.steps != trace.steps:
        gate.fail(f"{key}: trace does not read back to the simulated steps")
        return False
    if ip.trace_io.trace_to_text(back) != text:
        gate.fail(f"{key}: trace does not re-serialize byte for byte")
        return False
    return True


# shared measurements ---------------------------------------------------------


def launch(args: list) -> tuple:
    """Run child.py in a fresh interpreter; returns (reference s, raw s,
    probe s). The raw time is the child's wall time minus its own probing.
    """
    env = dict(os.environ)
    env.pop("INTERDEP_LOG", None)
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(CHILD), str(SRC), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(args[:2])} exited {done.returncode}: "
            f"{done.stderr.decode(errors='replace').strip()[-500:]}"
        )
    info = json.loads(done.stdout.decode().strip().splitlines()[-1])
    raw = wall - info["probe_s"]
    return to_reference(raw, info["kernel_s"]), raw, info["probe_s"]


def measure_setup(launches: int = SETUP_LAUNCHES) -> tuple:
    """Median (reference, raw) seconds of a fresh interpreter's set-up."""
    launch(["setup"])  # the first launch compiles bytecode and fills caches
    times = [launch(["setup"]) for _ in range(launches)]
    return tuple(statistics.median(t[i] for t in times) for i in (0, 1))


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tally:
    """Attempted and failed episodes of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def error(self, key: str, exc: BaseException) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"episode {key} raised:", file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr)


def closed_loop(items, run_one, seconds: float, gate: Gate, tally: Tally, first_check, warmup=True):
    """Run whole passes over `items` until `seconds` have passed.

    `run_one(item)` returns (key, output bytes, {stage: seconds}, extra); the
    stages are timed inside it, and the probe and checks run between
    episodes. `first_check(item, extra)` runs once per item, on the first
    pass. Returns one list per pass of ({stage: reference s}, {stage: raw s})
    for the episodes that passed their checks.
    """
    try:
        if warmup:
            run_one(items[0])  # untimed warm-up episode
    except Exception as exc:
        tally.attempted += 1
        tally.error(f"warm-up {items[0]}", exc)
    passes = []
    k_before, _ = probe()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        episodes = []
        for item in items:
            tally.attempted += 1
            key = str(item)
            try:
                key, output, stages, extra = run_one(item)
                k_after, _ = probe()
                good = gate.check(key, output)
                if good and not passes:
                    good = first_check(item, extra)
            except Exception as exc:  # one bad episode must not stop the run
                tally.error(key, exc)
                k_before, _ = probe()
                continue
            kernel_s = (k_before + k_after) / 2
            k_before = k_after
            if not good:
                tally.failed += 1
                continue
            ref = {name: to_reference(v, kernel_s) for name, v in stages.items()}
            episodes.append((ref, stages))
        passes.append(episodes)
    return passes


def loop_metrics(passes, which: int, setup_s: float, simulate_s=None) -> dict:
    """End-to-end metrics from `closed_loop` passes; which=0 reference, 1 raw."""
    done = [p for p in passes if p]
    if not done:
        return {}
    latencies = [sum(e[which].values()) for p in done for e in p]

    def stage(name):
        return statistics.median(sum(e[which][name] for e in p) for p in done)

    return {
        "setup_s": setup_s,
        "episodes_per_s": statistics.median(len(p) / sum(sum(e[which].values()) for e in p) for p in done),
        "episode_ms_p50": 1e3 * statistics.median(latencies),
        "episode_ms_p90": 1e3 * percentile(latencies, 90),
        "simulate_s": stage("simulate") if simulate_s is None else simulate_s,
        "analyze_s": stage("analyze"),
    }


def in_process_result(passes, setup: tuple, simulate=(None, None)) -> tuple:
    """(metrics, samples, raw metrics) of an in-process workload."""
    rss = rss_mb(resource.RUSAGE_SELF)
    metrics, raw = (loop_metrics(passes, i, setup[i], simulate[i]) for i in (0, 1))
    if metrics:
        metrics["peak_rss_mb"] = rss
    samples = {"latency_samples": sum(len(p) for p in passes), "passes": len(passes)}
    return metrics, samples, raw


# workload: sweep -------------------------------------------------------------


class Sweep:
    name = "sweep"

    def __init__(self, seed: int) -> None:
        rng = Random(f"sweep/{seed}")
        seeds = sorted(rng.sample(range(1, 1_000_000), SWEEP_SEEDS))
        self.layout = ip.load_layout(ip.bundled_layout_text())
        self.config = ip.EpisodeConfig()
        self.receiver = ip.parse_policy_spec(RECEIVER)
        specs = {p: ip.parse_policy_spec(f"stochastic:p={p!r},counter=(4,2),pot=0") for p in PROBS}
        self.items = [(p, s, specs[p]) for s in seeds for p in PROBS]

    def run_one(self, item):
        p, s, spec = item
        t0 = time.perf_counter()
        trace = ip.run_episode(self.layout, self.config, spec, self.receiver, s)
        t1 = time.perf_counter()
        report = ip.build_report(ip.analyze_trace(trace), label=f"p{p}_s{s}")
        t2 = time.perf_counter()
        return report.label, report_bytes(report), {"simulate": t1 - t0, "analyze": t2 - t1}, trace

    def first_check(self, item, trace, gate: Gate) -> bool:
        text = ip.trace_io.trace_to_text(trace)
        return check_round_trip(trace, text, gate, f"p{item[0]}_s{item[1]}")

    def run(self, seconds: float, gate: Gate, tally: Tally, setup: tuple) -> tuple:
        passes = closed_loop(
            self.items,
            self.run_one,
            seconds,
            gate,
            tally,
            lambda item, trace: self.first_check(item, trace, gate),
        )
        return in_process_result(passes, setup)

    def analysis_traces(self, n: int) -> list:
        return [
            ip.run_episode(self.layout, self.config, spec, self.receiver, s)
            for _, s, spec in self.items[:n]
        ]


# workload: replay-external ---------------------------------------------------


def play_external(layout, config, seed: int, index: int) -> list:
    """Seeded random play, about half interacts, as simultaneous ticks.

    Stops at the terminal state. A tick's first half never ends the episode
    (the log could not be expanded), so an agent-1 move that would is
    replaced by `stay`. A play in which no cook completes a subtask is
    degenerate (`build_report` rejects it), so it is played again from the
    next attempt's seed.
    """
    gw = ip.gridworld
    moves = [a for a in gw.PrimitiveAction if a is not gw.PrimitiveAction.INTERACT]
    for attempt in itertools.count():
        rng = Random(f"replay/{seed}/{index}/{attempt}")
        state = gw.initial_state(layout, config)
        ticks = []
        subtasks = 0
        while len(ticks) < REPLAY_TICKS and not gw.is_terminal(state):
            pair = []
            for agent in (1, 2):
                act = gw.PrimitiveAction.INTERACT if rng.random() < 0.5 else rng.choice(moves)
                nxt, _, events = gw.step(state, gw.single_action(agent, act))
                if agent == 1 and gw.is_terminal(nxt):
                    act = gw.PrimitiveAction.STAY
                    nxt, _, events = gw.step(state, gw.single_action(agent, act))
                subtasks += sum(1 for e in events if e.agent is not None)
                pair.append(act.value)
                state = nxt
            ticks.append(pair)
        if subtasks:
            return ticks


def external_log_text(layout_text: str, config, index: int, ticks: list) -> str:
    header = {
        "config": config.to_dict(),
        "format": "interdep-trace",
        "layout": layout_text,
        "policies": "external",
        "seed": index,
        "serialize": "agent1-first",
        "version": 1,
    }
    lines = [json.dumps(header, sort_keys=True)]
    lines += [
        json.dumps({"a1": a1, "a2": a2, "t": t}, sort_keys=True)
        for t, (a1, a2) in enumerate(ticks)
    ]
    return "\n".join(lines) + "\n"


class ReplayExternal:
    name = "replay-external"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.layout_text = ip.bundled_layout_text()
        self.layout = ip.load_layout(self.layout_text)
        self.config = ip.EpisodeConfig()
        self.schema = ip.build_interaction_schema()
        self.dir = WORK / "replay-external"

    def generate(self) -> tuple:
        """Play the log set; returns (reference s, raw s) of play, log texts."""
        ref = raw = 0.0
        texts = []
        k_before, _ = probe()
        for i in range(REPLAY_LOGS):
            t0 = time.perf_counter()
            ticks = play_external(self.layout, self.config, self.seed, i)
            elapsed = time.perf_counter() - t0
            k_after, _ = probe()
            ref += to_reference(elapsed, (k_before + k_after) / 2)
            raw += elapsed
            k_before = k_after
            texts.append(external_log_text(self.layout_text, self.config, i, ticks))
        return (ref, raw), texts

    def write_logs(self, gate: Gate) -> tuple:
        """Write the logs; returns the median (reference, raw) s of play."""
        times, texts = [], None
        for _ in range(REPLAY_GENERATIONS):
            elapsed, again = self.generate()
            times.append(elapsed)
            if texts is not None and again != texts:
                gate.fail("the same seed generated different log bytes")
            texts = again
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        self.items = []
        for i, text in enumerate(texts):
            path = self.dir / f"external_{i:03d}.trace.jsonl"
            path.write_text(text, encoding="utf-8")
            self.items.append(path)
        self.oracle_sample = set(Random(f"oracle/{self.seed}").sample(self.items, REPLAY_ORACLE_SAMPLE))
        return tuple(statistics.median(t[i] for t in times) for i in (0, 1))

    def run_one(self, path):
        t0 = time.perf_counter()
        trace = ip.read_trace(path)
        ledger = ip.analyze_trace(trace, self.schema)
        report = ip.build_report(ledger, label=path.name)
        t1 = time.perf_counter()
        return path.name, report_bytes(report), {"analyze": t1 - t0}, (trace, ledger)

    def first_check(self, path, extra, gate: Gate, oracle) -> bool:
        if path not in self.oracle_sample:
            return True
        trace, ledger = extra
        actions, _ = oracle.replay_symbolic(trace)
        pairs, self_accepts = oracle.brute_force_match(actions, self.schema.accept_fluents)
        if pairs != oracle.ledger_pair_keys(ledger) or self_accepts != oracle.ledger_self_accept_keys(ledger):
            gate.fail(f"{path.name}: analyze_trace disagrees with the brute-force oracle")
            return False
        return True

    def run(self, seconds: float, gate: Gate, tally: Tally, setup: tuple) -> tuple:
        oracle = load_oracle()
        simulate = self.write_logs(gate)
        passes = closed_loop(
            self.items,
            self.run_one,
            seconds,
            gate,
            tally,
            lambda path, extra: self.first_check(path, extra, gate, oracle),
        )
        return in_process_result(passes, setup, simulate)

    def analysis_traces(self, n: int) -> list:
        return [ip.read_trace(path) for path in self.items[:n]]


# workload: cli-batch ---------------------------------------------------------


class CliBatch:
    name = "cli-batch"

    def __init__(self, seed: int) -> None:
        first = Random(f"cli/{seed}").randrange(1, 1_000_000)
        self.seeds = list(range(first, first + CLI_BATCH))
        self.layout_path = SRC / "interdep" / "layouts" / "counter_circuit.layout"
        self.stem = "counter_circuit"
        self.dir = WORK / "cli-batch"

    def argvs(self, out: Path, seeds: list, jobs: int) -> list:
        traces = [str(out / "traces" / f"{self.stem}_{s}.trace.jsonl") for s in seeds]
        reports = [str(out / "reports" / f"{self.stem}_{s}.report.json") for s in seeds]
        return [
            [
                "simulate",
                "--layout", str(self.layout_path),
                "--p1", CLI_TEAM[0],
                "--p2", CLI_TEAM[1],
                "--seeds", f"{seeds[0]}..{seeds[-1]}",
                "--out", str(out / "traces"),
                "--jobs", str(jobs),
            ],
            ["analyze", *traces, "--out", str(out / "reports"), "--format", "all"],
            ["report", *reports, "--out", str(out / "summary"), "--format", "all"],
        ]

    def fresh(self, name: str) -> Path:
        out = self.dir / name
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        return out

    def run_round(self, out: Path, seeds: list) -> tuple:
        """The three commands as subprocesses; returns `launch` times per
        command and the CPU seconds of the `simulate` child."""
        times = []
        cpu = 0.0
        for argv in self.argvs(out, seeds, jobs=2):
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            times.append(launch(["cli", *argv]))
            if argv[0] == "simulate":
                after = resource.getrusage(resource.RUSAGE_CHILDREN)
                cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return times, cpu

    @staticmethod
    def outputs(out: Path) -> dict:
        return {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    def check_outputs(self, out: Path, gate: Gate, first: bool) -> bool:
        files = self.outputs(out)
        good = True
        expected = 3 + 3 * len(self.seeds) + len(self.seeds) + 3
        if len(files) != expected:
            gate.fail(f"cli-batch wrote {len(files)} files, expected {expected}")
            good = False
        for key, data in files.items():
            good &= gate.check(key, data)
        if first:
            good &= self.check_traces(out, gate)
        return good

    def check_traces(self, out: Path, gate: Gate) -> bool:
        """Written traces equal the library's episodes and round-trip."""
        layout = ip.load_layout(self.layout_path.read_text(encoding="utf-8"))
        config = ip.EpisodeConfig()
        specs = [ip.parse_policy_spec(s) for s in CLI_TEAM]
        good = True
        for s in self.seeds:
            key = f"traces/{self.stem}_{s}.trace.jsonl"
            text = (out / key).read_text(encoding="utf-8")
            trace = ip.run_episode(layout, config, *specs, s)
            good &= check_round_trip(trace, text, gate, key)
        return good

    def run(self, seconds: float, gate: Gate, tally: Tally, setup: tuple) -> tuple:
        self.run_round(self.fresh("warmup"), self.seeds[:2])  # untimed warm-up
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            tally.attempted += len(self.seeds)
            out = self.fresh(f"round_{len(rounds)}")
            try:
                times, _ = self.run_round(out, self.seeds)
                good = self.check_outputs(out, gate, first=not rounds)
            except Exception as exc:  # one bad round must not stop the run
                tally.error(f"round {len(rounds)}", exc)
                tally.failed += len(self.seeds) - 1
                rounds.append(None)
                continue
            finally:
                shutil.rmtree(out, ignore_errors=True)
            if not good:
                tally.failed += len(self.seeds)
            rounds.append(times if good else None)
        done = [t for t in rounds if t is not None]
        samples = {"latency_samples": len(done), "rounds": len(rounds)}
        if not done:
            return {}, samples, {}
        metrics, raw = (self.round_metrics(done, i, setup[i]) for i in (0, 1))
        metrics["peak_rss_mb"] = rss_mb(resource.RUSAGE_CHILDREN)
        return metrics, samples, raw

    def round_metrics(self, rounds, which: int, setup_s: float) -> dict:
        """Metrics over rounds of `launch` times; which=0 reference, 1 raw."""
        per_episode = [sum(t[which] for t in r) / len(self.seeds) for r in rounds]
        return {
            "setup_s": setup_s,
            "episodes_per_s": statistics.median(1.0 / x for x in per_episode),
            "episode_ms_p50": 1e3 * statistics.median(per_episode),
            "episode_ms_p90": 1e3 * percentile(per_episode, 90),
            "simulate_s": statistics.median(r[0][which] for r in rounds),
            "analyze_s": statistics.median(r[1][which] for r in rounds),
        }

    def analysis_traces(self, n: int) -> list:
        layout = ip.load_layout(self.layout_path.read_text(encoding="utf-8"))
        specs = [ip.parse_policy_spec(s) for s in CLI_TEAM]
        return [ip.run_episode(layout, ip.EpisodeConfig(), *specs, s) for s in self.seeds[:n]]


WORKLOADS = {w.name: w for w in (Sweep, ReplayExternal, CliBatch)}
UNITS = {
    "setup_s": "s",
    "episodes_per_s": "1/s",
    "episode_ms_p50": "ms",
    "episode_ms_p90": "ms",
    "simulate_s": "s",
    "analyze_s": "s",
    "peak_rss_mb": "MB",
}


# run context and entry point -------------------------------------------------


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "interdep").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def load_note(when: str, warnings: list) -> float:
    load = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    if load > nproc:
        note = f"load average {load:.2f} at the {when} exceeds nproc={nproc}"
        warnings.append(note)
        print(f"warning: {note}", file=sys.stderr)
    return load


def run_context() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload; returns (result line dict, context dict)."""
    warnings: list = []
    context = run_context()
    context.update(workload=name, seed=seed, seconds=seconds, trace=int(trace))
    context["loadavg_start"] = load_note("start", warnings)
    workload = WORKLOADS[name](seed)
    gate = Gate(load_pins(name, seed))
    tally = Tally()
    if trace:
        from layers import traced_run  # imports this module back

        metrics, samples = traced_run(workload, gate, tally)
        units = {k: v[1] for k, v in metrics.items()}
        metrics = {k: v[0] for k, v in metrics.items()}
    else:
        metrics, samples, context["raw"] = workload.run(seconds, gate, tally, measure_setup())
        samples["setup_launches"] = SETUP_LAUNCHES
        units = UNITS
    context["samples"] = samples
    context["loadavg_end"] = load_note("end", warnings)
    context["warnings"] = warnings
    correct = tally.failed == 0 and not gate.problems
    context["failed_frac"] = tally.failed / tally.attempted if tally.attempted else 1.0
    context["problems"] = gate.problems[:20]
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        if correct
        else {},
    }
    return result, context


def write_pins() -> None:
    """Recompute pins.json from the current code at the default seed."""
    pins: dict = {"seed": DEFAULT_SEED}
    sweep = Sweep(DEFAULT_SEED)
    pins["sweep"] = {}
    for item in sweep.items:
        key, data, _, _ = sweep.run_one(item)
        pins["sweep"][key] = sha(data)
    replay = ReplayExternal(DEFAULT_SEED)
    replay.write_logs(Gate(None))
    pins["replay-external"] = {}
    for path in replay.items:
        key, data, _, _ = replay.run_one(path)
        pins["replay-external"][key] = sha(data)
    cli = CliBatch(DEFAULT_SEED)
    out = cli.fresh("pins")
    cli.run_round(out, cli.seeds)
    pins["cli-batch"] = {k: sha(v) for k, v in cli.outputs(out).items()}
    shutil.rmtree(WORK, ignore_errors=True)
    PINS.write_text(json.dumps(pins, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true", help=write_pins.__doc__)
    args = parser.parse_args(argv)
    if not args.write_pins and args.workload is None:
        parser.error("--workload is required")

    try:
        load_package()
        if args.write_pins:
            write_pins()
            print(f"wrote {PINS}")
            return 0
        result, context = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as e:
        print(f"perfbench: cannot run here: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
