"""Child process for the timed subprocess work, with probes around it.

    python3 perfbench/child.py SRC setup
    python3 perfbench/child.py SRC cli <interdep command and arguments>

`setup` imports interdep from SRC, loads the bundled layout and builds the
interaction schema; `cli` runs `interdep.cli.main` on the arguments, as
`python -m interdep.cli` would, with its stdout discarded.

The reference kernel runs EDGE times before and after the work and, from an
interval timer, once every INTERVAL_S during it, always on the main thread:
a command of a second can move between CPUs whose speeds differ. The last
stdout line is JSON: {"code", "kernel_s", "probe_s"}, so the parent can
subtract the probing from its wall time and scale the rest.
"""

import contextlib
import json
import os
import signal
import sys

from probe import probe

EDGE = 50
INTERVAL_S = 0.01


class Sampler:
    def __init__(self) -> None:
        self.times = []

    def sample(self, *_) -> None:
        self.times.append(probe(1)[0])

    def __enter__(self) -> "Sampler":
        for _ in range(EDGE):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(EDGE):
            self.sample()


def main() -> int:
    src, mode, *argv = sys.argv[1:]
    with Sampler() as sampler:
        sys.path.insert(0, src)
        if mode == "setup":
            import interdep

            interdep.load_layout(interdep.bundled_layout_text())
            interdep.build_interaction_schema()
            code = 0
        else:
            from interdep.cli import main as cli_main

            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                code = cli_main(argv)
    spent = sum(sampler.times)
    print(json.dumps({"code": code, "kernel_s": spent / len(sampler.times), "probe_s": spent}))
    return code


if __name__ == "__main__":
    sys.exit(main())
