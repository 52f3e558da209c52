"""Inputs, timed bodies and reference answers of the three workloads.

``prove``   ``medial verify <target>`` for every bundled target.
``scan7``   ``medial search --arity 7``.
``census9`` ``find_commutations`` on a seeded draw of arity-9 monomials.

Each workload is split the same way: ``inputs(seed)`` runs before the
timed region, ``run(inputs, item_ms, tracer)`` is the timed region and
returns raw outputs, and ``check(inputs, outputs, seed, thorough)`` runs
after it and maps the index of each wrong verdict to the reason; the
first pass of a run checks ``thorough``-ly.  The checkers are plain
functions so the self-tests can feed them corrupted outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

# -- prove --------------------------------------------------------------------

# Exit code and verdict lines (lines starting PASS, FAIL or INCONCLUSIVE)
# of ``medial verify <target>``.  configC-negative is scored against the
# documented witness transposing d and e (exit 1), so a change that makes
# it print PASS is a wrong verdict.
PROVE_REFERENCE = {
    "kock16": (0, ("PASS kock16",)),
    "bm9": (0, ("PASS bm9",)),
    "configA": (0, ("PASS configA",)),
    "configB": (0, ("PASS configB",)),
    "case2": (0, ("PASS case2",)),
    "configC-negative": (
        1,
        ("FAIL configC-negative: closure exhausted but witnesses exist: ['d->e e->d ']",),
    ),
    "seven-block-negative": (
        0,
        (
            "PASS seven-block-1 (closure size 4, no commutation)",
            "PASS seven-block-2 (closure size 8, no commutation)",
            "PASS seven-block-3 (closure size 8, no commutation)",
        ),
    ),
    "case1-negative": (0, ("PASS case1-negative (closure size 420, block order stable)",)),
}

PROVE_TARGETS = tuple(PROVE_REFERENCE)
VERDICT_PREFIXES = ("PASS", "FAIL", "INCONCLUSIVE")


def _span(tracer, name: str, item: int):
    return contextlib.nullcontext() if tracer is None else tracer.span(name, item)


def _capture(argv: list[str]) -> tuple[int | None, str, str | None]:
    """Run ``medial.cli.main(argv)``; return exit code, stdout, error."""
    from medial import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as exc:  # an exception is a wrong verdict, not a crash
        return None, buf.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue(), None


def prove_inputs(seed: int) -> list[str]:
    """Every target once, in the order ``medial verify`` documents them.

    The input is fixed, so the seed is unused.  The order is fixed too:
    the collector's state after kock16 changes the times of the targets
    that follow it.
    """
    return list(PROVE_TARGETS)


def prove_run(targets: list[str], item_ms: list[float], tracer=None) -> list[tuple]:
    """One verdict per target.  An item is the whole pass: the targets run
    from 2 ms to 3 s, and the few short ones are too noisy to gate on
    alone; each target's own time is the per-layer ``cli.verify.<target>.s``."""
    out = []
    start = perf_counter()
    for k, target in enumerate(targets):
        with _span(tracer, "cli.verify", k):
            out.append((target,) + _capture(["verify", target]))
    item_ms.append((perf_counter() - start) * 1000.0)
    return out


def check_prove(targets: list[str], outputs: list[tuple], seed: int, thorough: bool) -> dict:
    errors = {}
    done = [o[0] for o in outputs]
    for k, target in enumerate(targets):
        if target not in done:
            errors[k] = f"{target}: no verdict"
    for k, (target, code, text, error) in enumerate(outputs):
        if error is not None:
            errors[k] = f"{target}: raised {error}"
            continue
        lines = tuple(ln for ln in text.splitlines() if ln.startswith(VERDICT_PREFIXES))
        if (code, lines) != PROVE_REFERENCE[target]:
            errors[k] = f"{target}: exit {code}, verdicts {lines!r}"
    return errors


# -- scan7 --------------------------------------------------------------------

SCAN7_REFERENCE = (0, "examined 380 candidates, pruned 7112\n")


def scan7_inputs(seed: int) -> list[str]:
    """The command line; arity 7 has no random input, the seed is unused."""
    return ["search", "--arity", "7"]


def scan7_run(argv: list[str], item_ms: list[float], tracer=None) -> list[tuple]:
    """One verdict: the search command's report."""
    start = perf_counter()
    with _span(tracer, "cli.search", 0):
        out = [_capture(argv)]
    item_ms.append((perf_counter() - start) * 1000.0)
    return out


def check_scan7(argv: list[str], outputs: list[tuple], seed: int, thorough: bool) -> dict:
    """No witness and no incomplete line: criterion 12 at arity 7."""
    ((code, text, error),) = outputs
    if error is not None:
        return {0: f"search raised {error}"}
    if (code, text) != SCAN7_REFERENCE:
        return {0: f"search: exit {code}, output {text!r}"}
    return {}


# -- census9 ------------------------------------------------------------------

CENSUS_ARITY = 9
CENSUS_TREES = 4096


def _bracket(op: str, parts: list, rng: random.Random):
    if len(parts) == 1:
        return parts[0]
    split = rng.randrange(1, len(parts))
    return (op, _bracket(op, parts[:split], rng), _bracket(op, parts[split:], rng))


def random_binary(alt, labels: list[int], rng: random.Random):
    """A seeded bracketing of an alternating tree, leaf k relabelled
    ``labels[k - 1]``."""
    if isinstance(alt, int):
        return labels[alt - 1]
    return _bracket(alt[0], [random_binary(c, labels, rng) for c in alt[1:]], rng)


def census_inputs(seed: int) -> list:
    """One arity-9 alternating tree from each of ``CENSUS_TREES`` runs of
    consecutive trees in enumeration order, each with a seeded bracketing
    and a seeded argument labelling.

    Search cost depends only on the tree's class and is heavy-tailed;
    drawing one tree per run of neighbours keeps the total cost of a draw
    close to the same from seed to seed.
    """
    from medial.assoc import enumerate_alternating

    shapes = list(enumerate_alternating(CENSUS_ARITY))
    n, k = len(shapes), CENSUS_TREES
    rng = random.Random(seed)
    out = []
    for i in range(k):
        lo, hi = i * n // k, (i + 1) * n // k
        labels = list(range(1, CENSUS_ARITY + 1))
        rng.shuffle(labels)
        out.append(random_binary(shapes[lo + rng.randrange(hi - lo)], labels, rng))
    return out


def census_run(monomials: list, item_ms: list[float], tracer=None) -> list[tuple]:
    # Looked up at call time, so a traced pass gets the tracer's wrapper.
    from medial.quotient import find_commutations

    out = []
    for k, t in enumerate(monomials):
        if tracer is not None:
            tracer.item = k
        start = perf_counter()
        try:
            out.append((find_commutations(t), None))
        except Exception as exc:  # an exception is a wrong verdict, not a crash
            out.append((None, f"{type(exc).__name__}: {exc}"))
        item_ms.append((perf_counter() - start) * 1000.0)
    return out


def check_witness(t, witness, thorough: bool) -> str | None:
    """Why a commutation witness for ``t`` is wrong, or None.  Only a
    ``thorough`` check compares the realizations (about 3 ms a witness)."""
    from medial.geometry import realize
    from medial.rewrite import replay_certificate
    from medial.trees import relabel

    cert = witness.certificate
    perm = witness.permutation
    if witness.monomial != t or cert.initial != t:
        return "certificate does not start at the input"
    if sorted(perm) != list(range(1, len(perm) + 1)) or list(perm) == sorted(perm):
        return f"{perm} is not a non-identity permutation"
    replay = replay_certificate(cert)
    if not replay:
        return f"certificate does not replay: {replay.reason}"
    if cert.final != relabel(t, {i + 1: img for i, img in enumerate(perm)}):
        return f"final is not the input permuted by {perm}"
    if thorough and realize(cert.initial).unlabeled() != realize(cert.final).unlabeled():
        return "initial and final realize to different partitions"
    return None


REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "census9_reference.json")


def shape_key(t) -> tuple[str, list[int]]:
    """The shape of binary tree t modulo associativity, as text, and its
    leaf labels from left to right.  Every bracketing of one alternating
    tree has the same key; it indexes the census reference."""
    labels: list[int] = []

    def go(node, parent_op) -> str:
        if isinstance(node, int):
            labels.append(node)
            return "x"
        inner = go(node[1], node[0]) + "," + go(node[2], node[0])
        return inner if node[0] == parent_op else f"{node[0]}({inner})"

    return go(t, None), labels


def load_reference() -> dict[str, list[str]]:
    """Shape key -> commutations of that shape with labels 1..n from left
    to right, each a string of images; written by census_reference.py."""
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)["witnessed"]


def expected_permutations(t, reference: dict[str, list[str]]) -> set[tuple[int, ...]]:
    """The commutations of t: the reference's for its shape, conjugated by
    its labelling.  If label i sits at leaf position i and p moves i to
    p(i), then in t the label at position i moves to the one at p(i)."""
    key, sigma = shape_key(t)
    out = set()
    for images in reference.get(key, ()):
        perm = [0] * len(sigma)
        for i, image in enumerate(images):
            perm[sigma[i] - 1] = sigma[int(image) - 1]
        out.add(tuple(perm))
    return out


def check_census(monomials: list, outputs: list[tuple], seed: int, thorough: bool) -> dict:
    """Every scan is exhausted, finds exactly the reference's commutations,
    and every witness replays and permutes the input.  A ``thorough``
    check also compares each witness's realizations."""
    reference = load_reference()
    errors = {}
    for k in range(len(outputs), len(monomials)):
        errors[k] = "no verdict"
    for k, (t, (scan, error)) in enumerate(zip(monomials, outputs)):
        if error is not None:
            errors[k] = f"raised {error}"
            continue
        if not scan.exhausted:
            errors[k] = "INCONCLUSIVE, budget exhausted"
            continue
        got = {w.permutation for w in scan.witnesses}
        want = expected_permutations(t, reference)
        if got != want or len(scan.witnesses) != len(got):
            errors[k] = f"search finds {sorted(got)}, reference {sorted(want)}"
            continue
        for witness in scan.witnesses:
            why = check_witness(t, witness, thorough)
            if why is not None:
                errors[k] = why
                break
    return errors


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    run: Callable
    check: Callable
    verdicts: Callable  # inputs -> verdicts one pass attempts


WORKLOADS = {
    "prove": Workload(prove_inputs, prove_run, check_prove, len),
    "scan7": Workload(scan7_inputs, scan7_run, check_scan7, lambda argv: 1),
    "census9": Workload(census_inputs, census_run, check_census, len),
}
