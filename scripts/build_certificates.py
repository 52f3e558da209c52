#!/usr/bin/env python3
"""Regenerate the certificates bundled under src/medial/certs/.

The configA certificate follows a fixed chain of twenty interchange
milestones (the classical derivation for that configuration); this script
interpolates the explicit associativity steps between consecutive
milestones, so the shipped JSON replays one localized rewrite at a time.
The remaining certificates come from bidirectional search.

    python scripts/build_certificates.py           # rewrite the files
    python scripts/build_certificates.py --check   # compare, write nothing

With ``--check`` every certificate is rebuilt in memory and compared byte
for byte with its bundled file; the exit status is 1, with one line per
differing file on stderr, if any differs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from medial.catalog import BM9, CASE2, CONFIG_A, CONFIG_B, KOCK16, CERTIFICATE_FILES
from medial.quotient import _Store, _certificate, check_equivalence
from medial.rewrite import Certificate, RewriteError, replay_certificate
from medial.trees import parse_monomial

CERTS_DIR = Path(__file__).resolve().parent.parent / "src" / "medial" / "certs"

# Interchange milestones for configuration A, all ten letters per line;
# reassociations between consecutive lines are interpolated below.
CONFIG_A_MILESTONES = [
    "(((a h b) v (c h (d v e))) h (((f v g) h h) v (i h j)))",
    "(((a h b) v (c h (d v e))) h (((f v g) v i) h (h v j)))",
    "(((a h b) v (c h (d v e))) h ((f h h) v ((g v i) h j)))",
    "(((a v c) h ((b v d) v e)) h ((f h h) v ((g v i) h j)))",
    "(((a h (b v d)) v (c h e)) h ((f h h) v ((g v i) h j)))",
    "(((a h (b v d)) h (f h h)) v ((c h e) h ((g v i) h j)))",
    "(((a h (b v d)) v ((c h e) h (g v i))) h ((f h h) v j))",
    "(((a v (c h e)) h (((b v d) v g) v i)) h ((f h h) v j))",
    "(((a h ((b v d) v g)) v ((c h e) h i)) h ((f h h) v j))",
    "(((a h ((b v d) v g)) h (f h h)) v (((c h e) h i) h j))",
    "(((a h ((b v d) v g)) v (c h e)) h ((f h h) v (i h j)))",
    "(((a v c) h (((b v d) v g) v e)) h ((f h h) v (i h j)))",
    "(((a h (b v d)) v (c h (g v e))) h ((f h h) v (i h j)))",
    "(((a h (b v d)) h (f h h)) v ((c h (g v e)) h (i h j)))",
    "((a v (c h (g v e))) h (((b v d) h (f h h)) v (i h j)))",
    "((a v (c h (g v e))) h (((b v d) v i) h ((f h h) v j)))",
    "((a v (c h (g v e))) h ((b h (f h h)) v ((d v i) h j)))",
    "(((a h b) h (f h h)) v ((c h (g v e)) h ((d v i) h j)))",
    "(((a h b) v (c h (g v e))) h ((f h h) v ((d v i) h j)))",
    "(((a h b) v (c h (g v e))) h ((f v (d v i)) h (h v j)))",
    "(((a h b) v (c h (g v e))) h (((f v d) h h) v (i h j)))",
]


def build_config_a() -> Certificate:
    names: dict[str, int] = {}
    milestones = [parse_monomial(CONFIG_A_MILESTONES[0], names=names)]
    for text in CONFIG_A_MILESTONES[1:]:
        milestones.append(parse_monomial(text, names=names))
    if (milestones[0], milestones[-1]) != (CONFIG_A.lhs, CONFIG_A.rhs):
        raise SystemExit("the configA milestones do not run from its lhs to its rhs")

    store = _Store()
    path = [store.state(m) for m in milestones]
    try:
        return _certificate(store, milestones[0], path, CONFIG_A.rhs, [])
    except RewriteError as exc:
        raise SystemExit(f"the configA milestones do not give a certificate: {exc}")


def build_by_search(relation) -> Certificate:
    result = check_equivalence(relation.lhs, relation.rhs)
    if not result.found:
        raise SystemExit(f"search failed for {relation.name}")
    return result.certificate


def build_all() -> dict[str, Certificate]:
    built = {
        "configA": build_config_a(),
        "kock16": build_by_search(KOCK16),
        "bm9": build_by_search(BM9),
        "configB": build_by_search(CONFIG_B),
        "case2": build_by_search(CASE2),
    }
    for name, cert in built.items():
        result = replay_certificate(cert)
        if not result:
            raise SystemExit(f"the {name} certificate does not replay: {result.reason}")
    return built


def differing_files(built: dict[str, Certificate], certs_dir: Path = CERTS_DIR) -> list[str]:
    """Names of the bundled files whose bytes differ from ``built``."""
    out = []
    for name, cert in built.items():
        path = certs_dir / CERTIFICATE_FILES[name]
        if not path.is_file() or path.read_bytes() != cert.dump().encode():
            out.append(path.name)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare the rebuilt certificates with the bundled files; write nothing",
    )
    args = parser.parse_args(argv)
    built = build_all()
    if args.check:
        stale = differing_files(built)
        for name in stale:
            print(f"differs from its rebuild: {CERTS_DIR / name}", file=sys.stderr)
        return 1 if stale else 0
    CERTS_DIR.mkdir(parents=True, exist_ok=True)
    for name, cert in built.items():
        path = CERTS_DIR / CERTIFICATE_FILES[name]
        path.write_text(cert.dump())
        print(
            f"{name:10} {len(cert.steps):4} steps "
            f"({cert.interchange_count} interchanges) -> {path.name}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
