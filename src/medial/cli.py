"""Command line front end.

Exit codes: 0 pass, 1 fail, 2 inconclusive, 64 usage error.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from itertools import tee
from pathlib import Path

from . import geometry  # catalog, counts and render load in the commands that run them
from .quotient import check_equivalence, find_commutations, scan_monomials
from .rewrite import (
    ALL_FAMILIES,
    ASSOC_H,
    ASSOC_V,
    DEFAULT_BUDGET,
    INTERCHANGE,
    closure,
    replay_certificate,
)
from .trees import OPS, arity, format_monomial, parse_monomial

PASS, FAIL, INCONCLUSIVE, USAGE = 0, 1, 2, 64

def _worst(a: int, b: int) -> int:
    """Combine exit codes: FAIL dominates INCONCLUSIVE dominates PASS."""
    if FAIL in (a, b):
        return FAIL
    return max(a, b)


def _emit(text: str, out: str | None) -> int:
    """Write ``text`` to the file ``out``, or to stdout when there is none.
    PASS, or USAGE with one stderr line when the file cannot be written."""
    if not out:
        sys.stdout.write(text)
        return PASS
    try:
        Path(out).write_text(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    return PASS


def cmd_count(args) -> int:
    from . import counts

    n = args.arity
    try:
        # the graph's limit is the lower one: check it before counting
        graph = counts.interchange_graph(n) if args.graph_out else None
        rows = counts.count_summary(n)
        if graph is not None:
            lines = [f"vertices {len(graph.vertices)}"]
            lines += [f"{i} {j}" for i, j in sorted(graph.edges)]
            Path(args.graph_out).write_text("\n".join(lines) + "\n")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    expected = {
        "shapes": counts.SHAPE_COUNTS.get(n),
        "assoc_classes": counts.ALTERNATING_COUNTS.get(n),
        "isolated": counts.ISOLATED_COUNTS.get(n),
    }
    status = PASS
    print(f"arity {n}")
    for key, value in rows.items():
        want = expected.get(key)
        if want is None:
            print(f"  {key:14} {value}")
        else:
            mark = "ok" if value == want else f"MISMATCH (expected {want})"
            if value != want:
                status = FAIL
            print(f"  {key:14} {value:8}  {mark}")
    return status


def _verify_relation(name: str, budget: int, rediscover: bool) -> int:
    from . import catalog

    rel = catalog.RELATIONS[name]
    cert = catalog.load_certificate(name)
    if cert.initial != rel.lhs or cert.final != rel.rhs:
        print(f"FAIL {name}: bundled certificate does not state the relation")
        return FAIL
    result = replay_certificate(cert)
    if not result:
        print(f"FAIL {name}: certificate replay failed: {result.reason}")
        return FAIL
    print(
        f"  replay ok: {len(cert.steps)} steps, "
        f"{cert.interchange_count} interchange applications"
    )
    search = check_equivalence(rel.lhs, rel.rhs, budget=budget)
    if not search.found:
        if search.proved_distinct:
            print(f"FAIL {name}: independent search proved the sides distinct")
            return FAIL
        print(f"INCONCLUSIVE {name}: search budget exhausted before a proof")
        return INCONCLUSIVE
    print(f"  independent search: proof with {search.certificate.interchange_count} interchanges")
    if rediscover:
        scan = find_commutations(rel.lhs, budget=budget)
        if rel.transposition not in {w.transposed_pair for w in scan}:
            if not scan.exhausted:
                print(f"INCONCLUSIVE {name}: commutation scan ran out of budget")
                return INCONCLUSIVE
            print(f"FAIL {name}: commutation scan did not rediscover the transposition")
            return FAIL
        print(
            f"  commutation scan: rediscovered transposition "
            f"({' '.join(rel.transposed_letters())}) "
            f"(class size {scan.class_size}, exhausted={scan.exhausted})"
        )
    print(f"PASS {name}")
    return PASS


def _verify_config_c(budget: int) -> int:
    from . import catalog

    name, cfg = "configC-negative", catalog.CONFIG_C
    scan = find_commutations(cfg.monomial, budget=budget)
    if not scan.exhausted:
        print(f"INCONCLUSIVE {name}: budget exhausted before the closure completed")
        return INCONCLUSIVE
    if scan.witnesses:
        rev = {v: k for k, v in cfg.names.items()}
        perms = [
            "".join(f"{rev[i+1]}->{rev[img]} " for i, img in enumerate(w.permutation) if img != i + 1)
            for w in scan.witnesses
        ]
        print(f"FAIL {name}: closure exhausted but witnesses exist: {perms}")
        return FAIL
    print(f"PASS {name} (closure exhausted, {scan.class_size} classes, no commutation)")
    return PASS


def _verify_seven_block(budget: int) -> int:
    from . import catalog

    status = PASS
    for k, cfg in enumerate(catalog.SEVEN_BLOCKS):
        result = closure(cfg.monomial, budget=budget)
        scan = find_commutations(cfg.monomial, budget=budget)
        if not (result.exhausted and scan.exhausted):
            print(f"INCONCLUSIVE {cfg.name}: budget exhausted")
            status = _worst(status, INCONCLUSIVE)
            continue
        if scan.witnesses:
            print(f"FAIL {cfg.name}: commutation witnesses exist")
            status = FAIL
            continue
        note = f"closure size {len(result)}"
        if k == 0 and len(result) != catalog.SEVEN_BLOCK_FIRST_CLOSURE_SIZE:
            print(f"FAIL {cfg.name}: {note}, expected {catalog.SEVEN_BLOCK_FIRST_CLOSURE_SIZE}")
            status = FAIL
            continue
        print(f"PASS {cfg.name} ({note}, no commutation)")
    return status


def _verify_case1(budget: int) -> int:
    from . import catalog

    cfg = catalog.CASE1
    tracked = tuple(cfg.names[x] for x in ("d", "e", "f", "g"))
    result = closure(cfg.monomial, budget=budget)
    if not result.exhausted:
        print("INCONCLUSIVE case1-negative: budget exhausted")
        return INCONCLUSIVE

    def order(t) -> tuple[int, ...]:
        # blocks are sorted by (x1, y1), so the tracked labels come west to east
        return tuple(k for k in geometry.realize(t).labels() if k in tracked)

    want = order(cfg.monomial)
    for member in result.members:
        if order(member) != want:
            print("FAIL case1-negative: member permutes the tracked blocks")
            return FAIL
    scan = find_commutations(cfg.monomial, budget=budget)
    if scan.witnesses or not scan.exhausted:
        print("FAIL case1-negative: unexpected commutation witnesses")
        return FAIL
    print(
        f"PASS case1-negative (closure size {len(result)}, block order stable)"
    )
    return PASS


# Each verify target's check of a budget, in the order the help lists them.
VERIFY_TARGETS = {
    "kock16": partial(_verify_relation, "kock16", rediscover=False),
    "bm9": partial(_verify_relation, "bm9", rediscover=False),
    "configA": partial(_verify_relation, "configA", rediscover=True),
    "configB": partial(_verify_relation, "configB", rediscover=True),
    "case2": partial(_verify_relation, "case2", rediscover=True),
    "configC-negative": _verify_config_c,
    "seven-block-negative": _verify_seven_block,
    "case1-negative": _verify_case1,
}


def cmd_verify(args) -> int:
    return VERIFY_TARGETS[args.name](args.budget)


def cmd_search(args) -> int:
    budget = args.budget
    lines: list[str] = []
    status = PASS
    if not args.monomial and args.arity is None:
        print("error: provide --arity or --monomial", file=sys.stderr)
        return USAGE
    if args.monomial and args.arity is not None:
        print("error: give --arity or --monomial, not both", file=sys.stderr)
        return USAGE
    if args.min_interior < 0:
        print(f"error: --min-interior must be at least 0, got {args.min_interior}", file=sys.stderr)
        return USAGE
    try:
        slices = None if args.slices is None else _slice_bounds(args.slices)
        if args.monomial:
            part = geometry.realize(parse_monomial(args.monomial))
            keep = not args.require_main_cuts or len(geometry.main_cuts(part)) == 2
            candidates = [part] if keep else []
            total = 1
        else:
            if args.require_main_cuts:
                unlabeled = geometry.grid_partitions(args.arity)
            else:
                unlabeled = geometry.enumerate_partitions(args.arity)
            candidates = (p.with_lex_labels() for p in unlabeled)
            total = geometry.partition_count(args.arity)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE

    def passes_filters(part: geometry.BlockPartition) -> bool:
        if args.min_interior and len(geometry.interior_labels(part)) < args.min_interior:
            return False
        if slices is None:
            return True
        lo, hi = slices
        return len(geometry.main_cuts(part)) == 2 and all(
            lo <= len(geometry.primary_cuts_and_slices(part, geometry.UNIT_RECT, d)[1]) <= hi
            for d in (geometry.HORIZONTAL, geometry.VERTICAL)
        )

    # tee buffers one monomial: each scan is taken before the next is built
    kept = (part for part in candidates if passes_filters(part))
    reps, queries = tee(map(geometry.representative, kept))
    families = args.rule_families
    if families is None or families == ALL_FAMILIES:
        scans = scan_monomials(queries, budget)
    else:
        scans = (find_commutations(t, budget, families) for t in queries)
    examined = 0
    for rep, scan in zip(reps, scans):
        examined += 1
        if not scan.exhausted:
            status = _worst(status, INCONCLUSIVE)
            lines.append(f"INCOMPLETE monomial={format_monomial(rep)}")
            continue
        for w in scan.witnesses:
            kind = "transposition" if w.is_transposition else "permutation"
            lines.append(
                f"WITNESS arity={arity(rep)} {kind}={w.permutation} "
                f"monomial={format_monomial(rep)}"
            )
    lines.append(f"examined {examined} candidates, pruned {total - examined}")
    return _emit("\n".join(lines) + "\n", args.out) or status


def _partition_shaped(text: str) -> bool:
    """Some line is five fields with no bracket and no operation among them,
    as in partition files; a monomial of two or more arguments has brackets
    and operations, and one of one argument is one field."""
    for line in text.splitlines():
        fields = line.split()
        if len(fields) == 5 and "(" not in line and ")" not in line and not {*OPS} & {*fields}:
            return True
    return False


def cmd_render(args) -> int:
    from . import render

    try:
        if args.monomial:
            part = geometry.realize(parse_monomial(args.monomial))
        elif args.input:
            text = Path(args.input).read_text()
            if _partition_shaped(text):
                part = geometry.parse_partition(text)
            else:
                part = geometry.realize(parse_monomial(text.strip()))
        else:
            print("error: provide --monomial or --input", file=sys.stderr)
            return USAGE
        text = render.partition_svg(part) if args.format == "svg" else render.partition_ascii(part)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    return _emit(text, args.out)


def _slice_bounds(text: str) -> tuple[int, int]:
    """``LO:HI`` as two ints with 0 <= LO <= HI; ValueError otherwise."""
    lo, sep, hi = text.partition(":")
    if sep and lo.isdecimal() and hi.isdecimal() and int(lo) <= int(hi):
        return int(lo), int(hi)
    raise ValueError(f"--slices must be LO:HI with 0 <= LO <= HI, got {text!r}")


def _rule_families(text: str) -> frozenset[str]:
    table = {"assoc": {ASSOC_H, ASSOC_V}, "interchange": {INTERCHANGE}}
    out: set[str] = set()
    for token in text.split(","):
        token = token.strip()
        if token not in table:
            raise argparse.ArgumentTypeError(
                f"unknown rule family {token!r} (use assoc,interchange)"
            )
        out |= table[token]
    return frozenset(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medial",
        description="Rewriting and enumeration for double interchange semigroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="combinatorial counts for one arity")
    p_count.add_argument("--arity", type=int, required=True)
    p_count.add_argument(
        "--graph-out", type=str, help="also write the interchange graph edge list"
    )
    p_count.set_defaults(func=cmd_count)

    p_verify = sub.add_parser("verify", help="check a named relation or negative")
    p_verify.add_argument("name", choices=VERIFY_TARGETS)
    p_verify.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_verify.set_defaults(func=cmd_verify)

    p_search = sub.add_parser("search", help="scan partitions for commutations")
    p_search.add_argument("--arity", type=int)
    p_search.add_argument("--monomial", type=str)
    p_search.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_search.add_argument(
        "--rules",
        dest="rule_families",
        type=_rule_families,
        default=None,
        metavar="FAMILIES",
        help="comma list from {assoc, interchange}; default both",
    )
    p_search.add_argument(
        "--no-require-main-cuts",
        dest="require_main_cuts",
        action="store_false",
        help="also scan partitions lacking one of the two main cuts",
    )
    p_search.add_argument("--min-interior", type=int, default=0)
    p_search.add_argument(
        "--slices",
        default=None,
        metavar="LO:HI",
        help="require between LO and HI parallel slices in each direction",
    )
    p_search.add_argument("--out", type=str)
    p_search.set_defaults(func=cmd_search)

    p_render = sub.add_parser("render", help="draw a monomial or partition")
    p_render.add_argument("--monomial", type=str)
    p_render.add_argument("--input", type=str)
    p_render.add_argument("--format", choices=("svg", "ascii"), default="ascii")
    p_render.add_argument("--out", type=str)
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    if getattr(args, "budget", 1) < 1:
        print(f"error: --budget must be at least 1, got {args.budget}", file=sys.stderr)
        return USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
