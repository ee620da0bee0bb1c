"""Time one workload's set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Prints the seconds from before ``import riskforge`` until the workload's
first operation could start: imports (the CLI module included), corpus
ingest and profile load.
"""

import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

start = time.perf_counter()
import riskforge.cli  # noqa: E402,F401  (the CLI's import cost is set-up)
import workloads  # noqa: E402

workloads.make(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(repr(time.perf_counter() - start))
