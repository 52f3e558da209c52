"""Alternating trees: the normal form modulo the two associative laws.

An alternating tree is a rooted plane tree whose internal nodes have at
least two children and whose operation labels alternate between levels.
Representation mirrors the binary trees:

    leaf     -> int (argument index)
    internal -> (op, child1, ..., childk) with k >= 2

Flattening a binary monomial (merging every child node that carries the
same operation as its parent) computes its class modulo associativity; the
binary trees in one class are exactly the bracketings of the alternating
tree, one bracketing per node chosen independently.

Every helper here reads a node of any width, as do those of ``trees``
(the leaf test, ``arity``, ``leaf_labels``, ``relabel``, the symmetries and
the rest), which serve alternating trees too.  The ``trees`` helpers bound
to the binary grammar are ``parse_monomial``, ``format_monomial``,
``enumerate_shapes`` and ``random_shape``.  ``binary_representatives`` is a
call to ``trees.bracketings``, the package's one bracketing enumerator.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

from .trees import OPS, Tree, bracketings, catalan, check_arity, is_leaf, opposite

AltTree = int | tuple
ALTERNATING_ARITY_LIMIT = 12


def is_alternating(a: AltTree) -> bool:
    if is_leaf(a):
        return True
    if len(a) < 3:
        return False
    for child in a[1:]:
        if not is_leaf(child):
            if child[0] != opposite(a[0]) or not is_alternating(child):
                return False
    return True


def to_alternating(t: Tree) -> AltTree:
    """Flatten equal-operation parent/child pairs to a fixpoint.

    Reads a node of any width, so an alternating tree is its own form.
    The flattening system is confluent, so the bottom-up order here is a
    determinism choice, not a correctness requirement.
    """
    if is_leaf(t):
        return t
    op = t[0]
    parts: list[AltTree] = []
    for side in t[1:]:
        sub = to_alternating(side)
        if not is_leaf(sub) and sub[0] == op:
            parts.extend(sub[1:])
        else:
            parts.append(sub)
    return (op,) + tuple(parts)


def binary_representatives(a: AltTree) -> Iterator[Tree]:
    """All binary monomials whose alternating form is ``a``.

    A node with k children contributes all bracketings of its child list
    (``trees.bracketings``), each child one of its own representatives.
    """
    if is_leaf(a):
        yield a
        return
    op = a[0]
    kids = [tuple(binary_representatives(child)) for child in a[1:]]
    yield from bracketings(kids, lambda left, right: ((op, left, right),))


def comb(op: str, parts: Sequence[Tree]) -> Tree:
    """The right comb ``p1 op (p2 op (... op pk))`` of one or more parts."""
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = (op, part, out)
    return out


def right_comb(a: AltTree) -> Tree:
    """Canonical bracketing: right comb at every node."""
    if is_leaf(a):
        return a
    return comb(a[0], tuple(map(right_comb, a[1:])))


def assoc_class_size(a: AltTree) -> int:
    """Number of binary representatives (product of Catalan factors)."""
    if is_leaf(a):
        return 1
    size = catalan(len(a) - 2)
    for child in a[1:]:
        size *= assoc_class_size(child)
    return size


def enumerate_alternating(n: int) -> Iterator[AltTree]:
    """All alternating trees with n leaves and identity labels.

    Counts follow the large Schroder numbers (OEIS A006318): 1, 2, 6, 22,
    90, 394, 1806, 8558, 41586, 206098, 1037718 and 5293446 for n = 1 to
    12, two little-Schroder families, one per root operation.

    A tree rooted at ``op`` is ``(op, first) + rest``: ``first`` is a
    tree rooted at the opposite operation (or a leaf) covering the first
    leaves, and ``rest`` a sequence of one or more further children.  The
    order is by the size of ``first``, then ``first``, then ``rest``; a
    sequence of one child comes after the longer sequences of its size.
    Each call keeps tables of the rooted trees and of the sequences, keyed
    by (operation, size, offset of the first leaf), for sizes up to
    n - 2, and builds every larger tree from them, so the subtrees are
    shared.  The two largest sizes, n - 1 and n, stream instead of being
    stored, and the tables are dropped when the generator ends.
    """
    check_arity(n, ALTERNATING_ARITY_LIMIT)
    if n == 1:
        yield 1
        return
    stored = n - 2
    tables: dict[tuple[str, str, int, int], list[tuple]] = {}

    def table(
        kind: str, op: str, size: int, offset: int, items: Iterator[tuple]
    ) -> Iterable[tuple]:
        """``items``, listed once per key up to size n - 2, else streamed."""
        if size > stored:
            return items
        key = (kind, op, size, offset)
        listed = tables.get(key)
        if listed is None:
            listed = tables[key] = list(items)
        return listed

    def nodes(op: str, size: int, offset: int, lead: tuple) -> Iterator[tuple]:
        """``lead`` followed by each sequence of two or more children
        summing to ``size`` leaves, the first leaf being ``offset + 1``."""
        other = opposite(op)
        for first_size in range(1, size):
            # A streamed ``rests`` has size n - 1, so it meets one ``first``.
            rests = sequences(op, size - first_size, offset + first_size)
            for first in rooted(other, first_size, offset):
                head = lead + (first,)
                for rest in rests:
                    yield head + rest

    def rooted(op: str, size: int, offset: int) -> Iterable[AltTree]:
        """Trees rooted at ``op`` with ``size`` leaves; the leaf if size 1."""
        if size == 1:
            return (offset + 1,)
        return table("rooted", op, size, offset, nodes(op, size, offset, (op,)))

    def sequences(op: str, size: int, offset: int) -> Iterable[tuple[AltTree, ...]]:
        """Non-top child sequences under ``op``: one or more children."""
        singles = ((only,) for only in rooted(opposite(op), size, offset))
        return table("sequence", op, size, offset, chain(nodes(op, size, offset, ()), singles))

    for op in OPS:
        yield from rooted(op, n, 0)


def format_alternating(a: AltTree) -> str:
    """Diagnostic text form: nested lists with an operation suffix."""
    if is_leaf(a):
        return f"x{a}"
    inner = " ".join(format_alternating(c) for c in a[1:])
    return f"({inner})_{a[0]}"
