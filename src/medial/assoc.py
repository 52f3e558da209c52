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
"""

from __future__ import annotations

from typing import Iterator

from .trees import OPS, Tree, is_leaf, opposite

AltTree = int | tuple


def alt_is_leaf(a: AltTree) -> bool:
    return isinstance(a, int)


def alt_arity(a: AltTree) -> int:
    if alt_is_leaf(a):
        return 1
    return sum(alt_arity(c) for c in a[1:])


def alt_leaf_labels(a: AltTree) -> tuple[int, ...]:
    out: list[int] = []
    stack = [a]
    while stack:
        node = stack.pop()
        if alt_is_leaf(node):
            out.append(node)
        else:
            stack.extend(reversed(node[1:]))
    return tuple(out)


def alt_strip(a: AltTree) -> AltTree:
    if alt_is_leaf(a):
        return 0
    return (a[0],) + tuple(alt_strip(c) for c in a[1:])


def is_alternating(a: AltTree) -> bool:
    if alt_is_leaf(a):
        return True
    if len(a) < 3:
        return False
    for child in a[1:]:
        if not alt_is_leaf(child):
            if child[0] != opposite(a[0]) or not is_alternating(child):
                return False
    return True


def to_alternating(t: Tree) -> AltTree:
    """Flatten equal-operation parent/child pairs to a fixpoint.

    The flattening system is confluent, so the bottom-up order here is a
    determinism choice, not a correctness requirement.
    """
    if is_leaf(t):
        return t
    op = t[0]
    parts: list[AltTree] = []
    for side in (t[1], t[2]):
        sub = to_alternating(side)
        if not alt_is_leaf(sub) and sub[0] == op:
            parts.extend(sub[1:])
        else:
            parts.append(sub)
    return (op,) + tuple(parts)


def binary_representatives(a: AltTree) -> Iterator[Tree]:
    """All binary monomials whose alternating form is ``a``.

    A node with k children contributes all bracketings of its child list,
    combined independently across nodes.
    """
    if alt_is_leaf(a):
        yield a
        return
    op = a[0]

    def brackets(children: tuple[AltTree, ...]) -> Iterator[Tree]:
        if len(children) == 1:
            yield from binary_representatives(children[0])
            return
        for split in range(1, len(children)):
            for left in brackets(children[:split]):
                for right in brackets(children[split:]):
                    yield (op, left, right)

    yield from brackets(a[1:])


def right_comb(a: AltTree) -> Tree:
    """Canonical bracketing: right comb at every node."""
    if alt_is_leaf(a):
        return a
    op = a[0]
    combed = [right_comb(c) for c in a[1:]]
    out = combed[-1]
    for child in reversed(combed[:-1]):
        out = (op, child, out)
    return out


def assoc_class_size(a: AltTree) -> int:
    """Number of binary representatives (product of Catalan factors)."""
    from .trees import catalan

    if alt_is_leaf(a):
        return 1
    size = catalan(len(a) - 2)
    for child in a[1:]:
        size *= assoc_class_size(child)
    return size


def enumerate_alternating(n: int, limit: int = 12) -> Iterator[AltTree]:
    """All alternating trees with n leaves and identity labels.

    Counts follow the large Schroder numbers 1, 2, 6, 22, 90, 394, 1806
    (two little-Schroder families, one per root operation).
    """
    if n < 1:
        raise ValueError("arity must be >= 1")
    if n > limit:
        raise ValueError(f"arity {n} exceeds the enumeration limit {limit}")
    if n == 1:
        yield 1
        return
    for op in OPS:
        yield from _rooted(op, n, 0)


def _rooted(op: str, size: int, offset: int) -> Iterator[AltTree]:
    """Trees rooted at ``op`` with the given leaf count (size >= 2)."""
    for parts in _child_sequences(op, size, offset, top=True):
        yield (op,) + parts


def _child_sequences(
    op: str, size: int, offset: int, top: bool
) -> Iterator[tuple[AltTree, ...]]:
    """Sequences of >= 2 (or >= 1 when not top) children summing to ``size``."""
    low = 2 if top else 1
    if not top and size == 0:
        yield ()
        return
    for first_size in range(1, size - low + 2):
        if first_size == 1:
            firsts: Iterator[AltTree] = iter((offset + 1,))
        else:
            firsts = _rooted(opposite(op), first_size, offset)
        rest_size = size - first_size
        for first in firsts:
            if rest_size == 0:
                yield (first,)
            else:
                for rest in _child_sequences(op, rest_size, offset + first_size, top=False):
                    yield (first,) + rest


def format_alternating(a: AltTree) -> str:
    """Diagnostic text form: nested lists with an operation suffix."""
    if alt_is_leaf(a):
        return f"x{a}"
    inner = " ".join(format_alternating(c) for c in a[1:])
    return f"({inner})_{a[0]}"
