#!/usr/bin/env python3
"""Benchmark of medial's two user questions, "does this relation hold?"
and "which monomials admit a commutation?".

    python3 perfbench/run.py --workload prove --seed 1 --seconds 35 --trace 0

Run from the repository root; the program under test is ``src/medial``.
One run repeats passes of the workload, each in a fresh worker process,
one at a time, until ``--seconds`` have gone by (and at least
``MIN_PASSES`` passes were made).  With ``--trace 0`` every pass is
untraced and the run reports the median of each end-to-end metric over
its passes.  With ``--trace 1`` the run alternates untraced and traced
passes and reports the median of each per-layer metric over the traced
passes; ``trace.overhead_s`` is the median traced ``wall_s`` minus the
median untraced ``wall_s``.  Metric names, units and directions come from
``BENCHMARK.json``.

Every verdict is checked against a reference answer outside the timed
region; ``failed / attempted`` is the fail ratio.  The last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
DEFAULT_SEED = 1
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
# Times are reported in reference seconds: seconds at the machine speed at
# which the calibration loop takes this long.  See README.md.
REFERENCE_CALIBRATION_S = 0.130
CALIBRATION_ROUNDS = 60
TIME_UNITS = ("s", "ms")
# A run ends within this many seconds of starting, whatever --seconds says.
HARD_LIMIT_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def calibration_s() -> float:
    """Time of a fixed pure-Python loop of tuple building and dict
    insertion, the speed reference for a pass.

    It runs in this process, which never imports medial, right before and
    right after each worker, so no change to medial can move it.
    """
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(CALIBRATION_ROUNDS):
            table = {}
            for i in range(10000):
                table[(i, "h", (i % 7, "v"))] = i
        return perf_counter() - start
    finally:
        gc.enable()


def run_pass(args, traced: bool, thorough: bool, deadline: float) -> dict:
    cmd = [
        sys.executable,
        WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", "1" if traced else "0",
        "--thorough", "1" if thorough else "0",
    ]
    before = calibration_s()
    spawned = perf_counter()
    proc = subprocess.run(
        cmd + ["--spawned", repr(spawned)],
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - spawned),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["calibration_s"] = (before + calibration_s()) / 2
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = perf_counter()
    if not os.path.isfile(os.path.join("src", "medial", "cli.py")):
        return fail("run from the repository root: src/medial/cli.py not found")
    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(names)}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    deadline = started + HARD_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    try:
        while True:
            enough = len(plain) >= (MIN_TRACE_PASSES if args.trace else MIN_PASSES)
            if args.trace:
                enough = enough and len(traced) >= MIN_TRACE_PASSES
            if enough and perf_counter() - started >= args.seconds:
                break
            use_trace = bool(args.trace) and len(traced) < len(plain)
            first = not plain and not traced
            result = run_pass(args, use_trace, thorough=first, deadline=deadline)
            (traced if use_trace else plain).append(result)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(f"{args.workload} seed {args.seed}: {exc}")

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for line in p["errors"]:
            print(f"wrong verdict: {line}", file=sys.stderr)

    def speed(p: dict) -> float:
        """Factor taking a pass's times to reference seconds."""
        return REFERENCE_CALIBRATION_S / p["calibration_s"]

    def median(rows: list[dict], name: str, unit: str, field: str | None = None) -> float:
        return statistics.median(
            (p[field] if field else p).get(name, 0.0) * (speed(p) if unit in TIME_UNITS else 1.0)
            for p in rows
        )

    values: dict[str, float] = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name == "trace.overhead_s":
            values[name] = median(traced, "trace.wall_s", unit, "layers") - median(plain, "wall_s", unit)
        elif args.trace:
            values[name] = median(traced, name, unit, "layers")
        else:
            values[name] = median(plain, name, unit)

    print(
        f"{args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced "
        f"passes in {perf_counter() - started:.1f} s"
    )
    print(f"  {'fail_ratio':32} {failed / attempted:14.6g} ({failed}/{attempted} verdicts)")
    for m in wanted:
        print(f"  {m['name']:32} {values[m['name']]:14.6g} {m['unit']}")
    raw = statistics.median(p["wall_s"] for p in plain)
    cal = statistics.median(p["calibration_s"] for p in passes)
    print(f"  untraced wall_s {raw:.4f} s as measured; calibration loop {cal:.4f} s")
    if args.trace:
        selfs = statistics.median(
            speed(p) * sum(v for k, v in p["layers"].items() if k.endswith(".self.s"))
            for p in traced
        )
        print(
            f"  layer self times sum to {selfs:.4f} s; traced wall "
            f"{median(traced, 'trace.wall_s', 's', 'layers'):.4f} s, "
            f"untraced wall {median(plain, 'wall_s', 's'):.4f} s"
        )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
