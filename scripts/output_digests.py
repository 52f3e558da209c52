#!/usr/bin/env python3
"""Print one ``name sha256`` line for each of medial's pinned outputs.

    python scripts/output_digests.py

Run it on two trees and compare the lines: a change that should leave
every output alone leaves every line alone.  The digests cover

* ``medial verify <target>``, stdout and exit code, for every target;
* ``medial search --arity 6``, ``7`` and ``8``, and ``search --arity 7
  --no-require-main-cuts``;
* ``medial count --arity 8``;
* ``find_commutations`` over the ``census9`` benchmark draws for seeds 1
  and 7 (read from ``perfbench/workloads.py``): for each monomial whether
  its class was exhausted, the states expanded, the class size, and each
  witness's permutation and certificate.

Everything runs in this process, on the ``src/`` next to this script; it
takes a few seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from medial import cli  # noqa: E402
from medial.quotient import find_commutations  # noqa: E402
from workloads import census_inputs  # noqa: E402

CENSUS_SEEDS = (1, 7)
SEARCHES = (
    ("search-6", ["search", "--arity", "6"]),
    ("search-7", ["search", "--arity", "7"]),
    ("search-8", ["search", "--arity", "8"]),
    ("search-7-no-require-main-cuts", ["search", "--arity", "7", "--no-require-main-cuts"]),
    ("count-8", ["count", "--arity", "8"]),
)


def cli_digest(argv: list[str]) -> str:
    """sha256 of ``medial <argv>``'s stdout, then a line with its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return hashlib.sha256(f"{out.getvalue()}exit {code}\n".encode()).hexdigest()


def census_digest(seed: int) -> str:
    """sha256 over ``find_commutations`` of each ``census9`` draw of ``seed``."""
    h = hashlib.sha256()
    for t in census_inputs(seed):
        scan = find_commutations(t)
        h.update(f"{scan.exhausted} {scan.expanded} {scan.class_size}\n".encode())
        for w in scan.witnesses:
            h.update(f"{w.permutation}\n".encode() + w.certificate.dump().encode())
    return h.hexdigest()


def main() -> int:
    for target in cli.VERIFY_TARGETS:
        print(f"verify-{target}", cli_digest(["verify", target]), flush=True)
    for name, argv in SEARCHES:
        print(name, cli_digest(argv), flush=True)
    for seed in CENSUS_SEEDS:
        print(f"census9-seed-{seed}", census_digest(seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
