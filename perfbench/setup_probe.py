"""Times one set-up of the benchmark in a fresh process.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <scratch dir>

Prints the seconds taken by ``import signbase.cli`` plus the generation and
writing of the workload's first round of inputs.  Interpreter start is not
counted, and the bytecode is already compiled by the parent run.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

start = time.perf_counter()
import signbase.cli  # noqa: E402,F401

import_s = time.perf_counter() - start

import shutil  # noqa: E402

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
os.makedirs(workdir)
try:
    start = time.perf_counter()
    WORKLOADS[workload]().make_round(seed, 0, workdir)
    generate_s = time.perf_counter() - start
finally:
    shutil.rmtree(workdir, ignore_errors=True)
print(import_s + generate_s)
