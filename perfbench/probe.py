"""Reference-speed probe: a fixed pure-Python kernel timed next to the work.

The machines this benchmark runs on share CPU cores with other tenants. The
interpreter's speed on one CPU drifts by up to about 1.9x from one second to
the next, and the two CPUs of a 2-CPU VM drift independently. A fixed kernel
timed in the same process and thread as the work, right before and after it
(and, in child processes, every few milliseconds during it), slows down by
about the same factor, so every time the benchmark reports is scaled to a
reference speed:

    reported = measured * REF_KERNEL_S / mean kernel time measured alongside

The kernel touches nothing of interdep and runs with the garbage collector
off, so the code under test cannot change its time through heap size.
"""

from __future__ import annotations

import gc
import time

# About the kernel's typical time on a 2-CPU x86-64 VM with CPython 3.11, so
# reported times read close to wall times there; it only fixes their scale.
REF_KERNEL_S = 100e-6


def kernel() -> int:
    table = {}
    for i in range(400):
        table[(i & 15, i >> 4)] = i
    total = 0
    for value in table.values():
        total += value
    return total


def probe(n: int = 10) -> tuple:
    """Run the kernel n times; returns (mean kernel seconds, seconds spent)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(n):
            kernel()
        spent = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return spent / n, spent


def to_reference(seconds: float, kernel_s: float) -> float:
    return seconds * REF_KERNEL_S / kernel_s
