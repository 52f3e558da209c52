"""Tree monomials over two operations.

Internal nodes carry one of two operation symbols: ``h`` (horizontal) or
``v`` (vertical).  Leaves carry 1-based argument indices.  Trees are plain
nested tuples so they hash and compare fast in the rewriting closures:

    leaf       -> int (the argument index)
    internal   -> (op, child1, ..., childk) with op in {"h", "v"}, k >= 2

A binary monomial, the paper's tree monomial, has k = 2 at every node; the
alternating trees of ``assoc`` are the same tuples with wider nodes.  A
*standard* monomial has leaf labels forming a permutation of 1..n.  The
shape of a monomial is the same tree with all labels set to 0.

Every helper here reads a node of any width.  The leaf substitutions
(``strip_labels``, ``with_identity_labels``, ``relabel`` and
``partial_compose``) are one walk, ``_map_leaves``, and the symmetries of
the square are one pass, ``DihedralElement.apply``.  Four helpers are bound
to the binary grammar: ``parse_monomial`` and ``format_monomial`` (the text
form is binary; ``format_monomial`` raises ``ValueError`` on a wider node),
``enumerate_shapes`` and ``random_shape``.

``bracketings`` is the package's one bracketing enumerator: the shapes,
``assoc.binary_representatives`` and ``intervals.association_types`` are
each one call to it.  ``check_arity`` is the one arity guard.

``parse_monomial`` is also where text input meets the recursive walkers of
the package: it refuses nesting deeper than ``NESTING_LIMIT``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterable, Iterator, Mapping, Sequence

H = "h"
V = "v"
OPS = (H, V)
OPPOSITE = {H: V, V: H}
SHAPE_ARITY_LIMIT = 10
# The tree walkers recurse at most twice a level under Python's default
# recursion limit of 1000; a parsed monomial nests at most this deep.
NESTING_LIMIT = 400

Tree = int | tuple
Position = tuple[int, ...]


class MonomialSyntaxError(ValueError):
    """Raised on malformed monomial text; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def opposite(op: str) -> str:
    return OPPOSITE[op]


def is_leaf(t: Tree) -> bool:
    return isinstance(t, int)


def arity(t: Tree) -> int:
    return len(leaf_labels(t))


def leaf_labels(t: Tree) -> tuple[int, ...]:
    """Leaf labels read left to right."""
    out: list[int] = []
    stack = [t]
    while stack:
        node = stack.pop()
        if is_leaf(node):
            out.append(node)
        else:
            stack += node[:0:-1]  # the children, last first
    return tuple(out)


def is_standard(t: Tree) -> bool:
    labels = leaf_labels(t)
    return sorted(labels) == list(range(1, len(labels) + 1))


def _map_leaves(t: Tree, leaf: Callable[[int], Tree]) -> Tree:
    """``t`` with each leaf k replaced by ``leaf(k)``, called left to right."""

    def go(node: Tree) -> Tree:
        if is_leaf(node):
            return leaf(node)
        return (node[0], *map(go, node[1:]))

    return go(t)


def strip_labels(t: Tree) -> Tree:
    """Forget the leaf permutation (every label becomes 0)."""
    return _map_leaves(t, lambda k: 0)


def with_identity_labels(t: Tree) -> Tree:
    """Relabel leaves 1..n left to right."""
    counter = count(1)
    return _map_leaves(t, lambda k: next(counter))


def relabel(t: Tree, mapping: Mapping[int, int]) -> Tree:
    """Apply a label substitution to every leaf (identity where unmapped)."""
    return _map_leaves(t, lambda k: mapping.get(k, k))


# ---------------------------------------------------------------------------
# Text grammar:  expr := ident | "(" expr ("h"|"v") expr ")"
# ---------------------------------------------------------------------------

def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append((c, c, i))
            i += 1
        elif c.isalnum() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("word", text[i:j], i))
            i = j
        else:
            raise MonomialSyntaxError(f"unexpected character {c!r}", i)
    return tokens


def parse_monomial(text: str, names: dict[str, int] | None = None) -> Tree:
    """Parse monomial text into a tree.

    Identifiers of the form ``x<k>`` map to argument index k; any other
    identifier is assigned the next unused index in first-occurrence order.
    Passing a ``names`` dict shares one assignment across several parses
    (needed to state a relation whose two sides permute the same letters);
    the dict is updated in place.
    """
    tokens = _tokenize(text)
    pos = 0
    assigned: dict[str, int] = {} if names is None else names
    used = set(assigned.values())
    free = 1  # no index below it is free
    seen_here: set[str] = set()

    def leaf_for(word: str, offset: int) -> int:
        nonlocal free
        if word in seen_here:
            raise MonomialSyntaxError(f"duplicate leaf identifier {word!r}", offset)
        seen_here.add(word)
        if word in assigned:
            return assigned[word]
        if word.startswith("x") and word[1:].isdecimal():
            # k in ASCII digits, no leading zeros; k > len(text) >= n fails
            digits = "".join(str(int(c)) for c in word[1:]).lstrip("0")
            if len(digits) > len(str(len(text))):
                raise MonomialSyntaxError("leaf index exceeds the number of leaves", offset)
            idx = int(digits or "0")
            if idx < 1:
                raise MonomialSyntaxError("leaf indices are 1-based", offset)
        else:
            while free in used:
                free += 1
            idx = free
        if idx in used:
            raise MonomialSyntaxError(f"leaf index {idx} already used", offset)
        assigned[word] = idx
        used.add(idx)
        return idx

    def take() -> tuple[str, str, int]:
        """The next token; MonomialSyntaxError at the end of the text."""
        nonlocal pos
        if pos >= len(tokens):
            raise MonomialSyntaxError("unexpected end of input", len(text))
        pos += 1
        return tokens[pos - 1]

    def parse_expr(depth: int) -> Tree:
        kind, value, offset = take()
        if kind == "word":
            return leaf_for(value, offset)
        if kind == "(":
            if depth == NESTING_LIMIT:
                raise MonomialSyntaxError(f"nesting deeper than {NESTING_LIMIT} levels", offset)
            left = parse_expr(depth + 1)
            kind, op, offset = take()
            if kind != "word" or op not in OPS:
                raise MonomialSyntaxError("expected operation 'h' or 'v'", offset)
            right = parse_expr(depth + 1)
            kind, _, offset = take()
            if kind != ")":
                raise MonomialSyntaxError("expected ')'", offset)
            return (op, left, right)
        raise MonomialSyntaxError(f"unexpected token {value!r}", offset)

    tree = parse_expr(0)
    if pos != len(tokens):
        raise MonomialSyntaxError(f"trailing input {tokens[pos][1]!r}", tokens[pos][2])
    if not is_standard(tree):
        raise MonomialSyntaxError("leaf labels do not form a permutation of 1..n", 0)
    return tree


def format_monomial(t: Tree) -> str:
    """Pretty-print with every internal node parenthesized; reparses equal.

    The grammar is binary: a node without exactly two children raises
    ``ValueError``.
    """
    if is_leaf(t):
        return f"x{t}"
    if len(t) != 3:
        raise ValueError(f"a {t[0]} node with {len(t) - 1} children has no binary text form")
    return f"({format_monomial(t[1])} {t[0]} {format_monomial(t[2])})"


def to_word(t: Tree) -> str:
    """Functional notation for the underlying shape.

    Variables are renumbered x1..xn left to right (identity permutation);
    H/V name the two operations.
    """
    counter = count(1)

    def go(node: Tree) -> str:
        if is_leaf(node):
            return f"x{next(counter)}"
        return f"{node[0].upper()}({','.join(map(go, node[1:]))})"

    return go(t)


# ---------------------------------------------------------------------------
# Positions
# ---------------------------------------------------------------------------

def subtree_at(t: Tree, position: Position) -> Tree:
    node = t
    for step in position:
        if is_leaf(node):
            raise IndexError(f"position {position} runs past a leaf")
        node = node[1 + step]
    return node


def replace_at(t: Tree, position: Position, replacement: Tree) -> Tree:
    if not position:
        return replacement
    if is_leaf(t):
        raise IndexError(f"position {position} runs past a leaf")
    k = position[0] + 1
    return (*t[:k], replace_at(t[k], position[1:], replacement), *t[k + 1 :])


def positions(t: Tree) -> Iterator[tuple[Position, Tree]]:
    """All (position, subtree) pairs in preorder."""
    stack: list[tuple[Position, Tree]] = [((), t)]
    while stack:
        pos, node = stack.pop()
        yield pos, node
        if not is_leaf(node):
            stack += [(pos + (j,), node[j + 1]) for j in reversed(range(len(node) - 1))]


# ---------------------------------------------------------------------------
# Operad structure
# ---------------------------------------------------------------------------

def partial_compose(t: Tree, i: int, u: Tree) -> Tree:
    """Substitute u for the i-th argument of t, with standard renumbering.

    Labels j > i of t shift up by arity(u)-1; labels of u shift up by i-1.
    """
    m, n = arity(t), arity(u)
    if not 1 <= i <= m:
        raise IndexError(f"argument index {i} out of range 1..{m}")
    grafted = _map_leaves(u, lambda k: k + i - 1)
    return _map_leaves(t, lambda k: grafted if k == i else k + n - 1 if k > i else k)


# ---------------------------------------------------------------------------
# Dihedral symmetry action
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DihedralElement:
    """Symmetry of the square acting on tree monomials.

    Written in the normal form transpose^t . fliph^a . flipv^b; ``apply``
    performs the flips first, then the transposition: one pass reverses the
    children of every flipped node and swaps the operations when
    transposing.
    """

    transpose: bool = False
    flip_h: bool = False
    flip_v: bool = False

    def apply(self, t: Tree) -> Tree:
        flipped = {H: self.flip_h, V: self.flip_v}
        image = OPPOSITE if self.transpose else {H: H, V: V}

        def go(node: Tree) -> Tree:
            if is_leaf(node):
                return node
            op = node[0]
            return (image[op], *map(go, node[:0:-1] if flipped[op] else node[1:]))

        return go(t)

    def compose(self, other: "DihedralElement") -> "DihedralElement":
        """Element acting as self after other: (self*other).apply = self.apply . other.apply."""
        # Moving other's transpose across self's flips swaps the flip axes.
        a, b = self.flip_h, self.flip_v
        if other.transpose:
            a, b = b, a
        return DihedralElement(
            transpose=self.transpose ^ other.transpose,
            flip_h=a ^ other.flip_h,
            flip_v=b ^ other.flip_v,
        )


FLIP_H = DihedralElement(flip_h=True)
FLIP_V = DihedralElement(flip_v=True)
TRANSPOSE = DihedralElement(transpose=True)


def dihedral_elements() -> tuple[DihedralElement, ...]:
    """The eight symmetries of the square."""
    return tuple(
        DihedralElement(transpose=t, flip_h=a, flip_v=b)
        for t in (False, True)
        for a in (False, True)
        for b in (False, True)
    )


def apply_symmetry(t: Tree, g: DihedralElement) -> Tree:
    return g.apply(t)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def catalan(n: int) -> int:
    out = 1
    for k in range(n):
        out = out * 2 * (2 * k + 1) // (k + 2)
    return out


def shape_count(n: int) -> int:
    """Number of operation-labeled binary shapes with n leaves."""
    return 2 ** (n - 1) * catalan(n - 1)


def check_arity(n: int, limit: int, kind: str = "enumeration") -> None:
    """ValueError unless 1 <= n <= limit; ``kind`` names the limit."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    if n > limit:
        raise ValueError(f"arity {n} exceeds the {kind} limit {limit}")


def bracketings(parts: Sequence[Sequence], join: Callable[..., Iterable]) -> Iterator:
    """Every binary bracketing of one or more ``parts``, each part one of its
    choices: by the split of the parts, then the left bracketing, then the
    right one, then each node ``join(left, right)`` lists."""
    if len(parts) == 1:
        yield from parts[0]
        return
    for split in range(1, len(parts)):
        for left in bracketings(parts[:split], join):
            for right in bracketings(parts[split:], join):
                yield from join(left, right)


def enumerate_shapes(n: int) -> Iterator[Tree]:
    """All operation-labeled shapes with identity leaf labels, in a fixed order."""
    check_arity(n, SHAPE_ARITY_LIMIT)
    leaves = [(k,) for k in range(1, n + 1)]
    return bracketings(leaves, lambda left, right: ((H, left, right), (V, left, right)))


def random_shape(n: int, rng: random.Random) -> Tree:
    """Uniformly random split pattern with random operation labels."""

    def go(size: int, offset: int) -> Tree:
        if size == 1:
            return offset + 1
        split = rng.randint(1, size - 1)
        return (rng.choice(OPS), go(split, offset), go(size - split, offset + split))

    return go(n, 0)


# ---------------------------------------------------------------------------
# Canonical key
# ---------------------------------------------------------------------------

def canonical_key(t: Tree) -> bytes:
    """Prefix-free preorder encoding; injective on trees of any width.

    A leaf is 0x00 and its label, a node its operation tag (0x01 for h,
    0x02 for v), its width and its children, all numbers as varints.  On
    binary trees the width is always 2, so the sort order of keys is that
    of the encoding without it.
    """
    out = bytearray()

    def emit_varint(k: int) -> None:
        while k >= 0x80:
            out.append((k & 0x7F) | 0x80)
            k >>= 7
        out.append(k)

    def go(node: Tree) -> None:
        if is_leaf(node):
            out.append(0x00)
            emit_varint(node)
        else:
            out.append(0x01 if node[0] == H else 0x02)
            emit_varint(len(node) - 1)
            for child in node[1:]:
                go(child)

    go(t)
    return bytes(out)
