#!/usr/bin/env python3
"""Write the reference answer of the ``census9`` workload.

    python3 perfbench/census_reference.py      # from the repository root

For every arity-9 alternating tree (41,586 of them, leaves labelled 1..9
from left to right) it computes the non-identity relabellings reachable
in the raw binary ``rewrite.closure`` of its right-comb bracketing, and
checks that ``quotient.find_commutations`` reports the same set.  The
trees that have any are written to ``census9_reference.json`` next to
this file, keyed by ``workloads.shape_key``; every other tree has none.

A census tree is one of these trees, bracketed and relabelled, so its
commutations are the reference's conjugated by its labelling
(``workloads.expected_permutations``).  The benchmark compares every
tree's witnesses with that on every pass.  The closures take about five
minutes on a 2-core x86_64 machine.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "census9_reference.json")


def closure_permutations(t) -> set[tuple[int, ...]]:
    """Non-identity same-shape relabellings in the raw binary closure of t."""
    from medial.rewrite import closure
    from medial.trees import leaf_labels, strip_labels

    result = closure(t)
    if not result.exhausted:
        raise RuntimeError(f"closure of {t} ran out of budget")
    shape, labels = strip_labels(t), leaf_labels(t)
    perms = set()
    for member in result.members:
        if member != t and strip_labels(member) == shape:
            image = dict(zip(labels, leaf_labels(member)))
            perms.add(tuple(image[i] for i in sorted(image)))
    return perms


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    from medial.assoc import enumerate_alternating, right_comb
    from medial.quotient import find_commutations
    from workloads import CENSUS_ARITY, shape_key

    witnessed: dict[str, list[str]] = {}
    shapes = 0
    for shapes, alt in enumerate(enumerate_alternating(CENSUS_ARITY), 1):
        t = right_comb(alt)
        key, labels = shape_key(t)
        assert labels == list(range(1, CENSUS_ARITY + 1)), labels
        want = closure_permutations(t)
        scan = find_commutations(t)
        got = {w.permutation for w in scan.witnesses}
        if not scan.exhausted or got != want:
            print(f"{key}: search finds {sorted(got)}, binary closure {sorted(want)}", file=sys.stderr)
            return 1
        if want:
            witnessed[key] = sorted("".join(map(str, p)) for p in want)
        if shapes % 5000 == 0:
            print(f"{shapes} trees, {len(witnessed)} with commutations", flush=True)
    with open(OUT, "w") as fh:
        fh.write('{"arity": %d, "trees": %d, "witnessed": {\n' % (CENSUS_ARITY, shapes))
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(witnessed.items())))
        fh.write("\n}}\n")
    print(f"{shapes} trees, {len(witnessed)} with commutations: wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
