"""Time one workload set-up in a fresh interpreter and print the seconds.

Set-up is importing dcqe (numpy with it) and building and validating the
workload's tables. ``run.py`` starts this several times and reports the
median as ``setup_s``, because an import is paid once per process.

    python3 perfbench/setup_probe.py <workload> [--smoke]
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](smoke="--smoke" in sys.argv[2:]).setup(NullTracer())
print(time.perf_counter() - start)
