"""Named verification targets bundled with the package.

Positive targets are commutativity relations: pairs of monomials with the
same bracketing and operations whose arguments differ by one transposition.
Negative targets are configurations whose full rewrite closure provably
contains no such pair.  Certificates for the positive targets ship as JSON
under ``medial/certs`` and replay offline.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .rewrite import Certificate
from .trees import Tree, leaf_labels, parse_monomial


@dataclass(frozen=True)
class Configuration:
    """A monomial stated over named arguments; alone, a negative control
    whose closure is scanned."""

    name: str
    text: str

    @property
    def monomial(self) -> Tree:
        return parse_monomial(self.text)

    @property
    def names(self) -> dict[str, int]:
        table: dict[str, int] = {}
        parse_monomial(self.text, names=table)
        return table


@dataclass(frozen=True)
class Relation(Configuration):
    """A commutativity relation: the monomial ``text`` (its left side)
    equals ``rhs_text``, stated over the same names."""

    rhs_text: str

    lhs = Configuration.monomial

    @property
    def rhs(self) -> Tree:
        return parse_monomial(self.rhs_text, names=self.names)

    @property
    def transposition(self) -> tuple[int, int]:
        l1, l2 = leaf_labels(self.lhs), leaf_labels(self.rhs)
        moved = sorted({a for a, b in zip(l1, l2) if a != b})
        if len(moved) != 2:
            raise ValueError(f"{self.name} is not a single transposition")
        return (moved[0], moved[1])

    def transposed_letters(self) -> tuple[str, str]:
        rev = {v: k for k, v in self.names.items()}
        i, j = self.transposition
        return rev[i], rev[j]


def _row(w: str, x: str, y: str, z: str) -> str:
    return f"(({w} h {x}) h ({y} h {z}))"


def _stack(r1: str, r2: str, r3: str, r4: str) -> str:
    return f"(({r1} v {r2}) v ({r3} v {r4}))"


KOCK16 = Relation(
    "kock16",
    _stack(
        _row("a", "b", "c", "d"),
        _row("e", "f", "g", "h"),
        _row("i", "j", "k", "l"),
        _row("m", "n", "p", "q"),
    ),
    _stack(
        _row("a", "b", "c", "d"),
        _row("e", "g", "f", "h"),
        _row("i", "j", "k", "l"),
        _row("m", "n", "p", "q"),
    ),
)

BM9 = Relation(
    "bm9",
    "(((a h b) h c) v (((d h (e v f)) h (g v h)) h i))",
    "(((a h b) h c) v (((d h (g v f)) h (e v h)) h i))",
)

CONFIG_A = Relation(
    "configA",
    "(((a h b) v (c h (d v e))) h (((f v g) h h) v (i h j)))",
    "(((a h b) v (c h (g v e))) h (((f v d) h h) v (i h j)))",
)

CONFIG_B = Relation(
    "configB",
    "(((a h (b v c)) v (f h (g v h))) h ((d h e) v (i h j)))",
    "(((a h (b v g)) v (f h (c v h))) h ((d h e) v (i h j)))",
)

CASE2 = Relation(
    "case2",
    "((a h (b v c)) v (((d h e) v i) h (((f h g) h h) v j)))",
    "((a h (b v c)) v (((d h e) v i) h (((g h f) h h) v j)))",
)

RELATIONS = {r.name: r for r in (KOCK16, BM9, CONFIG_A, CONFIG_B, CASE2)}


CONFIG_C = Configuration(
    "configC",
    "(((a h b) v (c h ((d h e) v f))) h ((g h h) v (i h j)))",
)

CASE1 = Configuration(
    "case1",
    "((a v ((c h (d h e)) v i)) h (b v (((f h g) h h) v j)))",
)

SEVEN_BLOCKS = (
    Configuration("seven-block-1", "((a h b) v (((c h (d v e)) v f) h g))"),
    Configuration("seven-block-2", "((a h b) v ((((c h d) h e) v f) h g))"),
    Configuration("seven-block-3", "((a h b) v (((c h (d h e)) v f) h g))"),
)

# Closure of the first seven-block configuration: a single forced chain.
SEVEN_BLOCK_FIRST_CLOSURE_SIZE = 4

CERTIFICATE_FILES = {
    "kock16": "kock16.json",
    "bm9": "bm9.json",
    "configA": "config_a.json",
    "configB": "config_b.json",
    "case2": "case2.json",
}


def load_certificate(name: str) -> Certificate:
    return Certificate.load(
        resources.files("medial.certs").joinpath(CERTIFICATE_FILES[name]).read_text()
    )
