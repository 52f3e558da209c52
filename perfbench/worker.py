"""One pass of one workload, in a fresh interpreter.

Run by ``run.py`` once per pass, never imported by it, so no module-level
cache in medial carries over from one pass to the next: every pass pays
interpreter start, imports and cold caches, as every ``medial`` command
does.  The pass is single-threaded and closed-loop: each verdict starts
after the previous one has ended.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

SRC = os.path.join(os.getcwd(), "src")
SPANS_DIR = ".perfbench"


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolating between neighbours."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer, inputs, pass_root: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass.

    ``<module>.<function>.s`` is the self time of that function's spans,
    the set-up included; ``<module>.self.s`` is the self time of the
    module's spans inside the timed region, so those sum to the traced
    ``wall_s``.  ``cli.verify.<target>.s`` and ``cli.search.s`` are whole
    command times.
    """
    from tracer import BUSY, ITEM, NAME

    spans = tracer.spans
    own = tracer.self_times()
    out: dict[str, float] = {}
    for span, t in zip(spans, own):
        key = f"{span[NAME]}.s"
        out[key] = out.get(key, 0.0) + t
    for idx in tracer.subtree(pass_root):
        key = f"{spans[idx][NAME].split('.')[0]}.self.s"
        out[key] = out.get(key, 0.0) + own[idx]
    for span in spans:
        if span[NAME] == "cli.verify":
            out[f"cli.verify.{inputs[span[ITEM]]}.s"] = span[BUSY]
        elif span[NAME] == "cli.search":
            out["cli.search.s"] = span[BUSY]
    counts = tracer.counts
    out.update(counts)
    moves = counts["quotient.moves"]
    out["quotient.new_state_ratio"] = counts["quotient.discovered"] / moves if moves else 0.0
    cuts = counts["geometry.main_cuts.calls"]
    out["geometry.main_cuts.pass_ratio"] = counts["geometry.main_cuts.both"] / cuts if cuts else 0.0
    out["runtime.gc_s"] = tracer.gc_s
    out["runtime.gc_collections"] = tracer.gc_collections
    out["trace.wall_s"] = spans[pass_root][BUSY]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="perf_counter() of the parent just before it started this process")
    parser.add_argument("--thorough", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import medial

    if not os.path.abspath(medial.__file__).startswith(SRC + os.sep):
        print(f"medial imported from {medial.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import tracer as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    item_ms: list[float] = []
    if not args.trace:
        inputs = workload.inputs(args.seed)
        ready = start = perf_counter()
        outputs = workload.run(inputs, item_ms, None)
        wall = perf_counter() - start
    else:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        with tracer.span("bench.setup"):
            inputs = workload.inputs(args.seed)
        ready = perf_counter()
        tracer.watch_gc()
        start = perf_counter()
        with tracer.span("bench.pass") as pass_root:
            outputs = workload.run(inputs, item_ms, tracer)
        wall = perf_counter() - start
        tracer.unwatch_gc()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": ready - args.spawned,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "items": len(item_ms),
        "item_p50_ms": percentile(item_ms, 50) if item_ms else None,
        "item_p99_ms": percentile(item_ms, 99) if item_ms else None,
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer, inputs, pass_root)
        uninstall()
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans = os.path.join(SPANS_DIR, f"{args.workload}-seed{args.seed}.spans.json")
        with open(spans, "w") as fh:
            json.dump({"fields": tracing.FIELDS, "spans": tracer.spans}, fh)
    errors = workload.check(inputs, outputs, args.seed, bool(args.thorough))
    result["attempted"] = workload.verdicts(inputs)
    result["failed"] = len(errors)
    result["errors"] = [f"item {k}: {why}" for k, why in sorted(errors.items())[:20]]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
