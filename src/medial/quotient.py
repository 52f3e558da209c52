"""Search over associativity classes.

One interchange application, performed on any binary representative of an
alternating tree, descends to a local move on the alternating tree itself:
pick a node, two adjacent children both rooted at the opposite operation,
and a two-way split of each child's list.  Searching over alternating trees
with these moves explores exactly the joint rewrite closure while skipping
the associativity churn, which keeps the big equivalence checks tractable.

Each public search call builds one hash-consing store (Goto 1974;
Filliatre and Conchon, "Type-safe modular hash-consing", 2006) and drops
it on return; nothing is cached between calls.

* A leaf stays its label, an int >= 0.  A node is a negative int id,
  interned on the key ``(op, child, ...)`` of its child ids, so hashing and
  comparing a key is shallow, and a subtree shared by many states is one
  id.  A binary monomial is flattened and interned in one pass.
* Every non-root node memoizes its successor list, in the order of the
  moves: local moves first, then the moves inside each child, from the
  last child to the first.  A local entry is ``(new id, i, sa, sb)``; a
  move inside child j is ``(new id, j, entry of child j)``, so a parent's
  list shares its children's entries, and a move's path is spelled out
  only along a traced path.  A child result that collapsed onto the
  node's own operation is spliced into the node, as ``apply_move`` does.
  The root's list is the one exception: it is rebuilt from its children's
  lists on each expansion and never kept, because states far outnumber
  the subtrees they share.
* Operation-labelled shapes get ids of their own, computed only for
  states the search discovers, so "same shape as the start" is an int
  compare.

One breadth-first frontier (``_Frontier``) runs both searches:
``check_equivalence`` grows two towards each other and
``find_commutations`` one.  States become nested tuples again only along
the traced path of a result.

Every quotient move expands back into explicit binary steps (associativity
rotations around a single interchange), so search results are delivered as
ordinary replayable certificates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .assoc import AltTree, alt_is_leaf, right_comb
from .rewrite import (
    ALL_FAMILIES,
    BACKWARD,
    DEFAULT_BUDGET,
    FORWARD,
    INTERCHANGE,
    Certificate,
    RewriteStep,
    apply_redex,
    assoc_path,
    certificate_from_path,
    comb_steps,
)
from .trees import Position, Tree, V, arity, is_leaf, leaf_labels, opposite, relabel

# A move is (path to the node, child index i, split of child i, split of
# child i+1); the node's operation determines the interchange direction.
Move = tuple[Position, int, int, int]


def _group(op: str, parts: tuple[AltTree, ...]) -> AltTree:
    return parts[0] if len(parts) == 1 else (op,) + parts


def _join(op: str, x: AltTree, y: AltTree) -> AltTree:
    xs = x[1:] if not alt_is_leaf(x) and x[0] == op else (x,)
    ys = y[1:] if not alt_is_leaf(y) and y[0] == op else (y,)
    return (op,) + xs + ys


def _node_move_result(node: AltTree, i: int, sa: int, sb: int) -> AltTree:
    """Apply the move at this node; may collapse to a single child."""
    op = node[0]
    opp = opposite(op)
    kids = node[1:]
    A, B = kids[i], kids[i + 1]
    p = _group(opp, A[1 : 1 + sa])
    q = _group(opp, A[1 + sa :])
    r = _group(opp, B[1 : 1 + sb])
    s = _group(opp, B[1 + sb :])
    new_child = (opp, _join(op, p, r), _join(op, q, s))
    rest = kids[:i] + (new_child,) + kids[i + 2 :]
    if len(rest) == 1:
        return rest[0]
    return (op,) + rest


def _apply_at_path(tree: AltTree, path: Position, i: int, sa: int, sb: int) -> AltTree:
    if not path:
        return _node_move_result(tree, i, sa, sb)
    idx = path[0]
    kids = list(tree[1:])
    sub = _apply_at_path(kids[idx], path[1:], i, sa, sb)
    if not alt_is_leaf(sub) and sub[0] == tree[0]:
        # The child collapsed to a node carrying our own operation: splice.
        kids[idx : idx + 1] = list(sub[1:])
    else:
        kids[idx] = sub
    return (tree[0],) + tuple(kids)


def apply_move(tree: AltTree, move: Move) -> AltTree:
    """The move applied to nested tuples, apart from the interned search:
    certificate expansion recomputes every traced move with it."""
    path, i, sa, sb = move
    return _apply_at_path(tree, path, i, sa, sb)


# ---------------------------------------------------------------------------
# Hash-consed states
# ---------------------------------------------------------------------------

# A successor entry is (new id, i, sa, sb) for a move at the node itself,
# or (new id, j, entry of child j) for a move inside child j.
Successor = tuple


class _Store:
    """Interned alternating trees of one search; see the module docstring."""

    __slots__ = ("keys", "index", "memo", "shape_ids", "shape_index")

    def __init__(self) -> None:
        self.keys: list[tuple] = []  # key of node id ~k at index k
        self.index: dict[tuple, int] = {}
        self.memo: list[list[Successor] | None] = []
        self.shape_ids: dict[int, int] = {}
        self.shape_index: dict[tuple, int] = {}

    def node(self, key: tuple) -> int:
        nid = self.index.get(key)
        if nid is None:
            nid = self.index[key] = ~len(self.keys)
            self.keys.append(key)
            self.memo.append(None)
        return nid

    def from_binary(self, t: Tree) -> int:
        """Flatten and intern a binary monomial in one pass."""
        if is_leaf(t):
            return t
        op = t[0]
        parts: list[int] = []
        stack = [t[2], t[1]]
        while stack:
            sub = stack.pop()
            if is_leaf(sub):
                parts.append(sub)
            elif sub[0] == op:
                stack += (sub[2], sub[1])
            else:
                parts.append(self.from_binary(sub))
        return self.node((op, *parts))

    def from_alternating(self, a: AltTree) -> int:
        if alt_is_leaf(a):
            return a
        return self.node((a[0], *map(self.from_alternating, a[1:])))

    def tree(self, n: int) -> AltTree:
        if n >= 0:
            return n
        key = self.keys[~n]
        return (key[0], *map(self.tree, key[1:]))

    def labels(self, n: int) -> list[int]:
        out: list[int] = []
        stack = [n]
        while stack:
            m = stack.pop()
            if m >= 0:
                out.append(m)
            else:
                stack.extend(reversed(self.keys[~m][1:]))
        return out

    def shape(self, n: int) -> int:
        """Id of node ``n``'s operation-labelled shape (leaves read 0)."""
        sid = self.shape_ids.get(n)
        if sid is None:
            key = self.keys[~n]
            skey = (key[0], *[0 if c >= 0 else self.shape(c) for c in key[1:]])
            sid = self.shape_index.setdefault(skey, ~len(self.shape_index))
            self.shape_ids[n] = sid
        return sid

    def _splits(self, n: int) -> list[list[tuple[int, ...]]]:
        """For k = 1, 2, ...: the first k children of node ``n`` and the
        rest, each as the children it brings to a node of the opposite
        operation.  A lone leaf brings itself, a lone node (which carries
        that operation) its own children, and several children one node
        grouping them under ``n``'s operation."""
        keys, node = self.keys, self.node
        key = keys[~n]
        out = []
        for k in range(2, len(key)):
            halves = []
            for part in (key[1:k], key[k:]):
                if len(part) > 1:
                    halves.append((node((key[0], *part)),))
                elif part[0] < 0:
                    halves.append(keys[~part[0]][1:])
                else:
                    halves.append(part)
            out.append(halves)
        return out

    def successors(self, n: int) -> list[Successor]:
        """Every single-interchange neighbour of node ``n``, in move order.

        The lists of ``n``'s descendants are memoized; ``n``'s own is not.
        """
        if n >= 0:
            return []
        key = self.keys[~n]
        kids = key[1:]
        out: list[Successor] = []
        for i, (a, b) in enumerate(zip(kids, kids[1:])):
            if a < 0 and b < 0:
                self._local(out, key, i)
        for j in reversed(range(len(kids))):
            child = kids[j]
            if child < 0:
                sub = self.memo[~child]
                if sub is None:
                    sub = self.memo[~child] = self.successors(child)
                if sub:
                    self._lift(out, key, j, sub)
        return out

    def _local(self, out: list[Successor], key: tuple, i: int) -> None:
        """Append the moves on children i and i+1 of the node ``key``."""
        node = self.node
        op, kids = key[0], key[1:]
        opp = opposite(op)
        head, tail = key[: i + 1], kids[i + 2 :]
        b_splits = self._splits(kids[i + 1])
        for sa, (p, q) in enumerate(self._splits(kids[i]), 1):
            for sb, (r, s) in enumerate(b_splits, 1):
                new = node((opp, node((op, *p, *r)), node((op, *q, *s))))
                if len(kids) > 2:
                    new = node((*head, new, *tail))
                out.append((new, i, sa, sb))

    def _lift(self, out: list[Successor], key: tuple, j: int, sub: list[Successor]) -> None:
        """Append child j's successors ``sub``, placed in the node ``key``."""
        keys, node = self.keys, self.node
        op = key[0]
        head, tail = key[: j + 1], key[j + 2 :]
        for entry in sub:
            c = entry[0]
            ckey = keys[~c]
            if ckey[0] == op:  # the child collapsed onto our operation
                k = head + ckey[1:] + tail
            else:
                k = (*head, c, *tail)
            out.append((node(k), j, entry))


def _move(entry: Successor) -> Move:
    """Spell out the move of a successor entry."""
    path: list[int] = []
    while len(entry) == 3:
        _, j, entry = entry
        path.append(j)
    _, i, sa, sb = entry
    return tuple(path), i, sa, sb


def alt_successors(tree: AltTree) -> Iterator[tuple[Move, AltTree]]:
    """All single-interchange neighbours of an alternating tree."""
    store = _Store()
    for entry in store.successors(store.from_alternating(tree)):
        yield _move(entry), store.tree(entry[0])


# ---------------------------------------------------------------------------
# Expansion of a quotient move into binary steps
# ---------------------------------------------------------------------------

def _comb_chain(op: str, parts: list[Tree]) -> Tree:
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = (op, part, out)
    return out


def _split_rep(op: str, child: AltTree, split: int) -> Tree:
    """Binary representative of ``child`` whose root splits its list at
    ``split``; children are combed canonically below the split."""
    kids = child[1:]
    left = _comb_chain(op, [right_comb(c) for c in kids[:split]])
    right = _comb_chain(op, [right_comb(c) for c in kids[split:]])
    return (op, left, right)


def _rep_with_redex(tree: AltTree, move: Move) -> tuple[Tree, Position]:
    """A binary representative in which the move is one interchange redex."""
    path, i, sa, sb = move

    def go(node: AltTree, depth: int) -> tuple[Tree, Position]:
        op = node[0]
        kids = node[1:]
        if depth == len(path):
            opp = opposite(op)
            parts = [right_comb(c) for c in kids[: i]]
            redex = (op, _split_rep(opp, kids[i], sa), _split_rep(opp, kids[i + 1], sb))
            parts.append(redex)
            parts.extend(right_comb(c) for c in kids[i + 2 :])
            rel = (1,) * i if i == len(parts) - 1 else (1,) * i + (0,)
            if len(parts) == 1:
                rel = ()
            return _comb_chain(op, parts), rel
        idx = path[depth]
        parts = [right_comb(c) for c in kids]
        sub, sub_pos = go(kids[idx], depth + 1)
        parts[idx] = sub
        rel = (1,) * idx if idx == len(parts) - 1 else (1,) * idx + (0,)
        return _comb_chain(op, parts), rel + sub_pos

    return go(tree, 0)


def expand_move(u: AltTree, move: Move) -> tuple[tuple[RewriteStep, ...], AltTree]:
    """Binary steps from right_comb(u) to right_comb(v) realizing the move."""
    rep, pos = _rep_with_redex(u, move)
    node = rep
    for p in pos:
        node = node[1 + p]
    direction = FORWARD if node[0] == V else BACKWARD
    step = RewriteStep(INTERCHANGE, direction, pos)
    after = apply_redex(rep, step)
    v = apply_move(u, move)
    steps = (
        assoc_path(right_comb(u), rep)
        + (step,)
        + assoc_path(after, right_comb(v))
    )
    return steps, v


def expand_path(t_start: Tree, moves: list[tuple[AltTree, Move]]) -> tuple[RewriteStep, ...]:
    """Binary steps from ``t_start`` through a chain of quotient moves.

    ``moves`` lists (state, move applied at that state) in order.
    """
    _, start_rot = comb_steps(t_start)
    steps = list(start_rot)
    for state, move in moves:
        seg, _ = expand_move(state, move)
        steps.extend(seg)
    return tuple(steps)


# ---------------------------------------------------------------------------
# Equivalence search (bidirectional)
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceResult:
    certificate: Certificate | None
    proved_distinct: bool
    expanded: int

    @property
    def found(self) -> bool:
        return self.certificate is not None

    @property
    def decided(self) -> bool:
        return self.found or self.proved_distinct


class _Frontier:
    """Breadth-first search from one root over interned states."""

    __slots__ = ("store", "parents", "queue", "expanded")

    def __init__(self, store: _Store, root: int) -> None:
        self.store = store
        self.parents: dict[int, tuple[int, Successor] | None] = {root: None}
        self.queue: deque[int] = deque([root])
        self.expanded = 0

    def expand(self) -> list[int]:
        """Expand the oldest queued state; return the states it discovered,
        in move order, after recording their parents and queueing them."""
        state = self.queue.popleft()
        self.expanded += 1
        parents = self.parents
        new: list[int] = []
        for entry in self.store.successors(state):
            nxt = entry[0]
            if nxt not in parents:
                parents[nxt] = (state, entry)
                new.append(nxt)
        self.queue.extend(new)
        return new

    def trace(self, state: int) -> list[tuple[AltTree, Move]]:
        """Chain of (state, move) pairs from the root to ``state``."""
        chain: list[tuple[AltTree, Move]] = []
        while (prev := self.parents[state]) is not None:
            state, entry = prev
            chain.append((self.store.tree(state), _move(entry)))
        chain.reverse()
        return chain


def check_equivalence(
    t1: Tree, t2: Tree, budget: int = DEFAULT_BUDGET
) -> EquivalenceResult:
    """Bidirectional search for a rewrite proof that t1 and t2 are equal.

    Returns a replayable certificate on success.  On failure the result
    distinguishes a definitive negative (both closures exhausted, disjoint)
    from plain budget exhaustion.
    """
    if arity(t1) != arity(t2):
        raise ValueError("monomials must have equal arity")
    if sorted(leaf_labels(t1)) != sorted(leaf_labels(t2)):
        raise ValueError("monomials must use the same arguments")

    store = _Store()
    u1, u2 = store.from_binary(t1), store.from_binary(t2)
    if u1 == u2:
        steps = assoc_path(t1, t2)
        return EquivalenceResult(Certificate(t1, steps, t2), False, 0)

    sides = (_Frontier(store, u1), _Frontier(store, u2))

    def expanded() -> int:
        return sides[0].expanded + sides[1].expanded

    while sides[0].queue or sides[1].queue:
        side = 0 if len(sides[0].queue) <= len(sides[1].queue) else 1
        if not sides[side].queue:
            side = 1 - side
        mine, other = sides[side], sides[1 - side]
        for _ in range(len(mine.queue)):
            if expanded() >= budget:
                return EquivalenceResult(None, False, expanded())
            for nxt in mine.expand():
                if nxt in other.parents:
                    fwd_steps = expand_path(t1, sides[0].trace(nxt))
                    bwd_steps = expand_path(t2, sides[1].trace(nxt))
                    total = fwd_steps + tuple(s.inverted() for s in reversed(bwd_steps))
                    cert = certificate_from_path(t1, total)
                    assert cert.final == t2
                    return EquivalenceResult(cert, False, expanded())
    return EquivalenceResult(None, True, expanded())


# ---------------------------------------------------------------------------
# Commutation discovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommutationWitness:
    monomial: Tree
    permutation: tuple[int, ...]  # image of argument i at index i-1
    certificate: Certificate

    @property
    def moved_points(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, img in enumerate(self.permutation) if img != i + 1)

    @property
    def is_transposition(self) -> bool:
        moved = self.moved_points
        return len(moved) == 2

    @property
    def transposed_pair(self) -> tuple[int, int] | None:
        return self.moved_points if self.is_transposition else None


@dataclass
class CommutationScan:
    witnesses: tuple[CommutationWitness, ...]
    exhausted: bool
    expanded: int
    class_size: int

    def __iter__(self):
        return iter(self.witnesses)

    def __len__(self) -> int:
        return len(self.witnesses)


def find_commutations(
    t: Tree,
    budget: int = DEFAULT_BUDGET,
    families: frozenset[str] | None = None,
) -> CommutationScan:
    """Scan the rewrite closure of t for same-shape relabelings.

    Every member whose operation-labeled shape equals t's shape is t with
    its arguments permuted; each distinct nonidentity permutation is
    reported once, with a certificate from a shortest interchange path.
    Passing a proper subset of rule families falls back to a plain binary
    closure scan under those rules.
    """
    if families is not None and frozenset(families) != ALL_FAMILIES:
        return _find_commutations_binary(t, frozenset(families), budget)
    store = _Store()
    root = store.from_binary(t)
    search = _Frontier(store, root)
    found: dict[tuple[int, ...], int] = {}
    exhausted = True
    while search.queue:
        if search.expanded >= budget:
            exhausted = False
            break
        for nxt in search.expand():
            if store.shape(nxt) == store.shape(root):
                sigma = dict(zip(store.labels(root), store.labels(nxt)))
                perm = tuple(sigma[k] for k in sorted(sigma))
                if perm != tuple(sorted(sigma)) and perm not in found:
                    found[perm] = nxt
    witnesses = []
    for perm, state in sorted(found.items()):
        sigma = {i + 1: img for i, img in enumerate(perm)}
        target = relabel(t, sigma)
        steps = expand_path(t, search.trace(state))
        _, target_rot = comb_steps(target)
        total = steps + tuple(s.inverted() for s in reversed(target_rot))
        cert = certificate_from_path(t, total)
        assert cert.final == target
        witnesses.append(CommutationWitness(t, perm, cert))
    return CommutationScan(
        witnesses=tuple(witnesses),
        exhausted=exhausted,
        expanded=search.expanded,
        class_size=len(search.parents),
    )


def _find_commutations_binary(
    t: Tree, families: frozenset[str], budget: int
) -> CommutationScan:
    from .rewrite import closure
    from .trees import strip_labels

    result = closure(t, families=families, budget=budget, keep_parents=True)
    shape = strip_labels(t)
    labels = leaf_labels(t)
    witnesses = []
    seen: set[tuple[int, ...]] = set()
    for member in sorted(result.members, key=repr):
        if member == t or strip_labels(member) != shape:
            continue
        image = dict(zip(labels, leaf_labels(member)))
        perm = tuple(image[k] for k in sorted(image))
        if perm in seen:
            continue
        seen.add(perm)
        cert = certificate_from_path(t, result.path_to(member))
        witnesses.append(CommutationWitness(t, perm, cert))
    return CommutationScan(
        witnesses=tuple(witnesses),
        exhausted=result.exhausted,
        expanded=result.expanded,
        class_size=len(result.members),
    )


def interchange_neighbours_exist(tree: AltTree) -> bool:
    """True iff some binary representative contains an interchange redex."""
    for _ in alt_successors(tree):
        return True
    return False
