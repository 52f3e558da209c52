#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over ten seeds.

    python3 perfbench/steadiness.py      # writes perfbench/steadiness.json

Runs ``run.py --trace 0`` once per workload and seed 1..10, one run at a
time, for every workload and ``run_seconds`` in ``BENCHMARK.json``, and
makes two such sets, one after the other.  For each set and metric it
reports the distance between the first and third quartile of the values
(``statistics.quantiles(values, n=4)``) as a share of their median.  A
metric is steady when that spread is below a third of its bound;
``setup_s`` is reported but not held to it.  Each later set's median must
not be worse than the first set's by more than the bound.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "steadiness.json")
SEEDS = list(range(1, 11))
SETS = 2


def run_set(spec: dict) -> dict | None:
    """Values and spreads of one set of runs, or None on a wrong verdict."""
    out = {}
    for w in spec["workloads"]:
        name = w["name"]
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: wrong verdicts\n{proc.stderr}", file=sys.stderr)
                return None
            for key, v in result["metrics"].items():
                values[key].append(v["value"])
        rows = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[m["name"]] = {"values": vals, "median": med, "spread": (q3 - q1) / med}
        out[name] = rows
    return out


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    report = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "sets": [],
    }
    steady = True
    for k in range(SETS):
        rows = run_set(spec)
        if rows is None:
            return 1
        report["sets"].append(rows)
        for w in spec["workloads"]:
            for m in spec["end_to_end"]:
                row = rows[w["name"]][m["name"]]
                first = report["sets"][0][w["name"]][m["name"]]["median"]
                ratio = row["median"] / first
                worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
                ok = (m["name"] == "setup_s" or row["spread"] < m["bound"] / 3) and worse <= m["bound"]
                steady = steady and ok
                print(
                    f"set {k + 1} {w['name']:8} {m['name']:12} median {row['median']:12.6g} "
                    f"{m['unit']:3} spread {row['spread']:.4f} bound/3 {m['bound'] / 3:.4f} "
                    f"vs set 1 {ratio:.3f}  {'ok' if ok else 'WIDE'}",
                    flush=True,
                )
    with open(OUT, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
