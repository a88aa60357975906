"""Set-up probe: in a fresh interpreter, import `qsteenrod.cli` and build one
round's inputs, then print the seconds that took as JSON.

Usage: python3 perfbench/probe.py <workload> <seed>
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import qsteenrod.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.operations(sys.argv[1], int(sys.argv[2]))
print(json.dumps({"setup_s": time.perf_counter() - START}))
