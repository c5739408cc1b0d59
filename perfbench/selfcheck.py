#!/usr/bin/env python3
"""Checks that the benchmark's own gate works. Run from the repository root:

    python3 perfbench/selfcheck.py

1. One flipped byte in a pinned output makes the run incorrect: the
   episode counts as failed and no metric is printed (sweep, cli-batch).
2. An episode that raises is counted as failed and the run goes on to the
   end of its pass (replay-external).
3. The same workload seed generates the same input bytes twice, and another
   seed generates other inputs.

Exits 1 if any check fails.
"""

from __future__ import annotations

import sys

import bench

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def flip(data: bytes) -> bytes:
    return data[:10] + bytes([data[10] ^ 1]) + data[11:]


def tampered_sweep_output() -> None:
    real = bench.report_bytes
    calls = []

    def report_bytes(report):
        calls.append(1)
        data = real(report)
        return flip(data) if len(calls) == 5 else data

    bench.report_bytes = report_bytes
    try:
        result, _ = bench.run_workload("sweep", bench.DEFAULT_SEED, 0.1, trace=False)
    finally:
        bench.report_bytes = real
    expect(not result["correct"], "sweep: a flipped report byte makes the run incorrect")
    expect(result["failed"] == 1, f"sweep: exactly that episode failed ({result['failed']})")
    expect(result["metrics"] == {}, "sweep: no metric is printed")


def tampered_cli_output() -> None:
    real = bench.CliBatch.outputs

    def outputs(out):
        files = real(out)
        key = sorted(k for k in files if k.endswith(".report.md"))[0]
        files[key] = flip(files[key])
        return files

    bench.CliBatch.outputs = staticmethod(outputs)
    try:
        result, _ = bench.run_workload("cli-batch", bench.DEFAULT_SEED, 0.1, trace=False)
    finally:
        bench.CliBatch.outputs = staticmethod(real)
    expect(not result["correct"], "cli-batch: a flipped markdown byte makes the run incorrect")
    expect(result["failed"] > 0, f"cli-batch: the round's episodes failed ({result['failed']})")
    expect(result["metrics"] == {}, "cli-batch: no metric is printed")


def raising_episode() -> None:
    real = bench.ip.analyze_trace
    calls = []

    def analyze_trace(*args, **kwargs):
        calls.append(1)
        if len(calls) == 7:
            raise RuntimeError("injected failure")
        return real(*args, **kwargs)

    bench.ip.analyze_trace = analyze_trace
    try:
        result, _ = bench.run_workload("replay-external", bench.DEFAULT_SEED, 0.1, trace=False)
    finally:
        bench.ip.analyze_trace = real
    expect(result["failed"] == 1, f"replay-external: the raising episode is counted ({result['failed']})")
    expect(
        result["attempted"] == bench.REPLAY_LOGS,
        f"replay-external: the pass ran to its end ({result['attempted']} attempted)",
    )
    expect(result["metrics"] == {}, "replay-external: no metric is printed")


def inputs(name: str, seed: int) -> bytes:
    workload = bench.WORKLOADS[name](seed)
    if name == "sweep":
        return repr([(p, s) for p, s, _ in workload.items]).encode()
    if name == "replay-external":
        _, texts = workload.generate()
        return "".join(texts).encode()
    return repr(workload.argvs(bench.WORK, workload.seeds, jobs=2)).encode()


def same_seed_same_inputs() -> None:
    for name in bench.WORKLOADS:
        first, again, other = inputs(name, 7), inputs(name, 7), inputs(name, 8)
        expect(first == again, f"{name}: seed 7 generates identical input bytes twice")
        expect(first != other, f"{name}: seed 8 generates other inputs")


def main() -> int:
    bench.load_package()
    try:
        same_seed_same_inputs()
        tampered_sweep_output()
        raising_episode()
        tampered_cli_output()
    finally:
        bench.shutil.rmtree(bench.WORK, ignore_errors=True)
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
