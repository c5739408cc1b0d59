#!/usr/bin/env python3
"""Entry point of the interdep benchmark; see bench.py for what it measures.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
"""

import sys

from bench import main

if __name__ == "__main__":
    sys.exit(main())
