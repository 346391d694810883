#!/usr/bin/env python3
"""Command-level benchmark of signbase.

Usage, from the repository root:

    python3 perfbench/run.py --workload family-analyze --seed 1 --seconds 20 --trace 0

The program is driven in-process through ``signbase.cli.main(argv)`` with
standard output and error captured, single-threaded, on inputs generated from
``--seed``.  Whole rounds of operations run until ``--seconds`` of operation
wall time have passed and the tail percentile has ten operations beyond it.
Every output is checked against ``refcheck``, which shares no code with the
program.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced replay.
Results and traces are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PROBE = os.path.join(HERE, "setup_probe.py")

#: Fresh processes that each time the set-up; setup_s is their median.
SETUP_PROBES = 7
#: Least op time between two calibrations, in seconds.
STRETCH_S = 0.05

sys.path.insert(0, HERE)

import tracing  # noqa: E402
from calibration import REFERENCE_S, calibrate  # noqa: E402
from workloads import CAPACITY_MARKER, WORKLOADS  # noqa: E402


def import_program():
    """Import signbase.cli from this checkout's ``src``, or exit 2."""
    sys.path.insert(0, SRC)
    try:
        import signbase.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import signbase from {SRC}: {exc}")
    if not os.path.abspath(signbase.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: signbase was imported from outside {SRC}")
    return signbase.cli


def call(cli, argv: list[str]) -> tuple[int | None, str, str, float]:
    """Run one CLI command in-process; rc None marks an uncaught exception."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # reported as a wrong output, never as a failure
            rc = None
            traceback.print_exc(file=err)
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(count: int, pct: float) -> int:
    """Operations strictly above the interpolated percentile position."""
    return count - 1 - int((count - 1) * pct / 100.0)


class Run:
    """Rounds of one workload, timed, with every output checked."""

    def __init__(self, cli, workload, seed: int, workdir: str) -> None:
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.rounds: list[list] = []
        self.errors: list[str] = []

    def execute(self, ops: list) -> tuple[float, float, list[float], int]:
        """Time one round; returns its raw and its scaled op seconds, the
        scaled latencies of its completed ops and its expected failures.
        Outputs are checked after the round's clock stops.

        A calibration runs before the round and after each stretch of at
        least STRETCH_S of ops; each op's time is scaled by the mean of the
        two calibrations around its stretch.
        """
        gc.collect()
        results, scaled, stretch = [], [], []
        before = calibrate()
        for i, op in enumerate(ops):
            results.append(call(self.cli, op.argv))
            stretch.append(results[-1][3])
            if sum(stretch) >= STRETCH_S or i == len(ops) - 1:
                after = calibrate()
                factor = 2.0 * REFERENCE_S / (before + after)
                scaled += [seconds * factor for seconds in stretch]
                before, stretch = after, []
        wall = sum(r[3] for r in results)
        latencies, failed = [], 0
        for op, (rc, out, err, _), seconds in zip(ops, results, scaled):
            if op.may_fail and rc == 1 and CAPACITY_MARKER in err:
                failed += 1
                continue
            latencies.append(seconds)
            if rc != 0:
                self.errors.append(f"{op.argv}: exit {rc}: {err.strip()[-400:]}")
                continue
            try:
                problem = self.workload.check(op, out)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                problem = f"output could not be read: {exc!r}"
            if problem:
                self.errors.append(f"{op.argv}: {problem}")
        return wall, sum(scaled), latencies, failed

    def timed_rounds(self, seconds: float, min_ops: int) -> tuple[float, list[float], int]:
        """New rounds until ``seconds`` of raw op wall time and ``min_ops``
        completed ops; returns the scaled wall time, the scaled latencies of
        completed ops and the number of failures."""
        wall = scaled_wall = 0.0
        latencies: list[float] = []
        failed = 0
        while wall < seconds or len(latencies) < min_ops:
            ops = self.workload.make_round(self.seed, len(self.rounds), self.workdir)
            self.rounds.append(ops)
            w, scaled, lat, f = self.execute(ops)
            wall, scaled_wall, failed = wall + w, scaled_wall + scaled, failed + f
            latencies += lat
        return scaled_wall, latencies, failed

    def replay(self) -> tuple[float, int]:
        """The generated rounds once more; returns scaled wall seconds and
        failures."""
        scaled_wall = failed = 0
        for ops in self.rounds:
            _, scaled, _, f = self.execute(ops)
            scaled_wall, failed = scaled_wall + scaled, failed + f
        return scaled_wall, failed


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes of import plus round-0 input generation,
    each scaled by calibrations taken just before and after it."""
    values = []
    for i in range(SETUP_PROBES):
        workdir = os.path.join(OUT, f"probe-{os.getpid()}-{i}")
        before = calibrate()
        done = subprocess.run(
            [sys.executable, PROBE, workload, str(seed), workdir],
            capture_output=True,
            text=True,
            timeout=120,
        )
        after = calibrate()
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed: {done.stderr.strip()[-400:]}")
        values.append(float(done.stdout.split()[-1]) * REFERENCE_S * 2.0 / (before + after))
    return statistics.median(values)


def end_to_end(run: Run, args, min_ops: int) -> tuple[dict, int]:
    setup = setup_seconds(args.workload, args.seed)
    wall, latencies, failed = run.timed_rounds(args.seconds, min_ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": (len(latencies) / wall, "1/s"),
        "op_p50_ms": (percentile(latencies, 50.0) * 1000.0, "ms"),
        "op_tail_ms": (percentile(latencies, run.workload.tail_pct) * 1000.0, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, failed


def per_layer(run: Run, args) -> tuple[dict, int]:
    """Half the run length untraced, then the same rounds traced."""
    wall_plain, _, failed_plain = run.timed_rounds(args.seconds / 2.0, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall_traced, failed_traced = run.replay()
    finally:
        tracer.uninstall()
    ops = sum(len(r) for r in run.rounds)
    values = tracing.layer_metrics(tracer.summary(), ops, wall_traced / wall_plain)
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
    units = dict(tracing.PER_LAYER)
    return {name: (values[name], units[name]) for name, _ in tracing.PER_LAYER}, failed_plain + failed_traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Command-level benchmark of signbase.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("SIGNBASE_THREADS", None)
    cli = import_program()
    workload = WORKLOADS[args.workload]()
    min_ops = 1
    while beyond(min_ops, workload.tail_pct) < 10:
        min_ops += 1
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    run = Run(cli, workload, args.seed, workdir)
    try:
        if args.trace:
            metrics, failed = per_layer(run, args)
        else:
            metrics, failed = end_to_end(run, args, min_ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r) for r in run.rounds) * (2 if args.trace else 1)
    for line in run.errors:
        print(f"perfbench: wrong output: {line}", file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: rounds={len(run.rounds)} "
          f"attempted={attempted} failed={failed} correct={result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
