"""Search over associativity classes.

One interchange application, performed on any binary representative of an
alternating tree, descends to a local move on the alternating tree itself:
pick a node, two adjacent children both rooted at the opposite operation,
and a two-way split of each child's list.  Searching over alternating trees
with these moves explores exactly the joint rewrite closure while skipping
the associativity churn, which keeps the big equivalence checks tractable.

Each public search call, ``scan_monomials``' whole run included, builds one
hash-consing store (Goto 1974; Filliatre and Conchon, "Type-safe modular
hash-consing", 2006) and drops it on return; nothing is cached between
calls.  The store interns only subtrees; a state is its root's flat key.

* A leaf stays its label, an int >= 0.  A node below the root is a
  negative int id, interned on the key ``(op, child, ...)`` of its child
  ids, so hashing and comparing a key is shallow, and a subtree shared by
  many states is one id.  The store is a dict whose ``__missing__`` interns
  the key, so a node seen before costs one lookup.  A binary monomial is
  flattened and interned in one pass, one Python frame per maximal subtree
  of one operation (``_Store.state``): a node of the frame's operation
  pushes its two children, and a node of the other operation is read in a
  nested frame and interned.  A node that is empty, or of an operation
  other than h and v, is refused there, as a wider node is.
* A state is its root's key, not an id: a state is never a child of
  another node, so interning it would buy nothing and cost a dict entry, a
  ``keys`` slot, a ``memo`` slot, an int and a lookup per edge.  A
  one-leaf state is its label.  ``find_commutations(kock16, budget=100000)``
  discovers 213,710 states, interns 98,340 nodes and grows the peak RSS by
  about 220 bytes a state on CPython 3.11; interning the states too would
  make that 312,050 nodes and 285 bytes a state.
* ``_Store.neighbours(key)`` is a flat list of the keys of a state's
  neighbours, and ``successors(n)`` the same list interned, as ids.  Every
  non-root node memoizes its list of ids; a state's own list is rebuilt
  from its children's lists on each expansion and never kept, because
  states far outnumber the subtrees they share.  A child result that
  collapsed onto the node's own operation is spliced into the node, as
  flattening the binary interchange does.
* A local move regroups two adjacent children, each split in two.
  ``_splits(n, bare)`` lists a child's splits for the side of the pair it
  is on: halves prefixed with the new node's operation for the left
  child, bare for the right one, so a new key is one concatenation
  ``p + r``; a child of width two has one split and skips the loop.  A
  child whose list is empty is skipped before any slicing, and a lifted
  key is ``head + (c,) + tail``.  The opposite operation is read from
  ``trees.OPPOSITE``.
* A state of width two, 84 % of ``census9``'s states and 92 % of kock16's,
  takes a direct path: when both children are nodes of width two the
  interchange is written out from the four grandchildren, and a move
  inside a child is placed without slicing the key.  Its list is the one
  the general loop would make, in the same order.
* The kernel keeps no per-node state beyond ``memo``.  Measured and left
  out: a memo of each node's splits (``prove`` peak RSS 38.3 to 49.1 MB,
  +28 %, for 2 % less wall time); a memo of pair moves keyed by the pair
  (``census9`` 1.29 to 1.47 s; within one store only 10 to 17 % of pair
  moves repeat a pair); one store shared by ``census9``'s 4,096 calls
  (1.12-1.22 to 1.27-1.31 s in process, 24.7 to 68.7 MB); and subtrees
  with no moves flagged when interned (about 2 % less, within noise).
* ``_Store`` is the only code that enumerates moves.  ``neighbours(key)``
  lists first the local moves of each adjacent pair of non-leaf children,
  pair by pair, split by split, then the moves inside each child, from the
  last child to the first; ``move(key, k)`` names the move behind entry
  ``k``.
* "Same operation-labelled shape as the start" is decided one slot (a
  child's position in a flat key) at a time.  A state with the start's
  operation and width has its shape exactly when each child has the shape
  of the start's child in the same slot; each (slot, child id) is decided
  at most once, by ``same_shape`` against that child, in one dict per
  slot.  On ``census9`` seed 1 the 52,767 states of the start's operation
  and width make 65,783 slot lookups, 27,395 of them dict hits, and 38,388
  child comparisons, where they took 52,767 state comparisons.
  ``same_shape`` compares two keys, then walks their children side by side
  and stops at the first difference; a subtree the two share is one id and
  is not entered.

Both searches run on ``rewrite.Frontier``, the package's one
breadth-first search, over ``_Store.neighbours``.  ``find_commutations``
grows one frontier, ``check_equivalence`` two towards each other until
either runs dry, which proves the sides distinct: that side holds its whole
class, so it would have met the other root (Pohl 1971).  A frontier maps
each state to the state that discovered it and records no move.  Only the
traced path of a result is spelled out (``_trace``): the move from a parent
to a state is ``move_to(parent, state)``, the move at the state's first place
in its parent's list, where it was discovered.  A traced chain is a list of
(state key, move); no state on it becomes nested tuples.

Every relation ``medial verify`` proves is a pair (t, sigma(t)), one monomial
and itself with its arguments permuted.  When ``check_equivalence``'s two
sides have the same shape and t1's labels are distinct, sigma maps t1's labels
to t2's position by position.  The moves read only the shape, so the second
frontier is sigma applied to the first: its k-th expansion discovers the
sigma-images of what the first side's k-th expansion discovered, in the same
order.  ``_Mirror`` replays it so, and the kernel never runs on the second
side.  The first side logs each expansion's discoveries; the second
consumes the log as it goes and maps each state through sigma, a memoized
``_Relabel`` (node ids to the ids of their images, in the same store).  The
second side never leads: ties go to the first, and mirrored sides have
equal level sizes, so a run is always logged before it is replayed, and a
missing run is a ``RewriteError``.  A result's chains are traced with the
kernel (``_trace``) and rebuilt as binary rewrites (``expand_path``), so a
wrong image raises instead of becoming a certificate; a negative rests on
the first side's own expansion.  A pair with a repeated label, or of two
shapes, runs the kernel on both sides.  On kock16 ``neighbours`` runs on
25,411 states instead of 35,442: 10,031 of the check's 35,428 expansions
are replayed, and the traced paths run the kernel as before.

Outside the store a move has one meaning, the binary interchange it stands
for.  ``_move_steps`` writes it as binary steps, from the right comb of the
state to the right comb of the next, in closed form from the widths in the
store's keys: rotations into a representative that holds the redex, the
interchange, rotations out.  ``expand_path`` applies them to the running
right comb and, at each move, checks that comb against the right comb of
the state the move is taken at, built from the store's keys and memoized by
node id for the call, so a wrong step raises instead of becoming a
certificate, and returns the certificate it walked.  ``_certificate`` joins
two walks that end on the same comb, one inverted, without applying a step
again.  The tests keep a tree-walking expansion as the oracle; the two agree
on every move of every alternating tree to arity 8.

``find_commutations`` has two engines, the interchange search ``_scan`` and,
under fewer rule families, a binary closure.  Both hand their same-shape
members in discovery order to one builder, ``_witnesses``: one witness per
permutation, sorted, certified from its first member by a shortest path.
The store reads binary monomials only: ``_rooted`` checks that each node is
an h or a v node with two children and that the leaf labels are 1..n on the
walk that interns the monomial, so a wider node, an empty one or one of
another operation is refused before any state is expanded.

``scan_monomials`` answers a run of ``find_commutations`` calls with one
search for each class that needs one.  Relabelling the arguments preserves
equality in a DIS, so a monomial whose unlabelled shape lies in an earlier
monomial's class has a class that is a relabelling of the earlier one: the
same size, so the same ``exhausted``, ``expanded`` and ``class_size``, and a
conjugate group of commutations.  A class exhausted without witnesses has
the trivial group, and so does every relabelling of it; its scan is reused,
found by a state's shape key, its image under the ``_Relabel`` that sends
every label to 0.  A class with witnesses, or one the budget cut short, is
searched again for each monomial.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import pairwise
from typing import Callable, Collection, Iterable, Iterator

from .assoc import AltTree, comb, right_comb
from .rewrite import (
    ALL_FAMILIES,
    ASSOC_RULE,
    BACKWARD,
    DEFAULT_BUDGET,
    FORWARD,
    INTERCHANGE,
    Certificate,
    Frontier,
    RewriteError,
    RewriteStep,
    apply_redex,
    closure,
    comb_steps,
)
from .trees import (
    OPPOSITE,
    H,
    Position,
    Tree,
    V,
    is_leaf,
    leaf_labels,
    relabel,
    strip_labels,
)

# A move is (path to the node, child index i, split of child i, split of
# child i+1); the node's operation determines the interchange direction.
Move = tuple[Position, int, int, int]
State = tuple | int  # the flat key (op, child id, ...) of a searched tree, or a leaf
Chain = list[tuple[State, Move]]  # (state, move taken there), in order


# ---------------------------------------------------------------------------
# Hash-consed states
# ---------------------------------------------------------------------------

def _not_binary(node: tuple) -> ValueError:
    """The refusal of a tuple that is not a binary h or v node."""
    if node and node[0] in (H, V):
        return ValueError(f"a {node[0]} node with {len(node) - 1} children is not binary")
    return ValueError(f"node {node!r} is not an h or a v node")


class _Store(dict):
    """Interned subtrees of one search; see the module docstring."""

    __slots__ = ("keys", "memo")

    def __init__(self) -> None:
        self.keys: list[tuple] = []  # key of node id ~k at index k
        self.memo: list[list[int] | None] = []

    def __missing__(self, key: tuple) -> int:
        nid = self[key] = ~len(self.keys)
        self.keys.append(key)
        self.memo.append(None)
        return nid

    def from_binary(self, t: Tree, leaves: list[int] | None = None) -> int:
        """Flatten and intern a binary monomial in one pass; its leaf labels
        are appended to ``leaves``, left to right, when a list is given."""
        key = self.state(t, leaves)
        return key if is_leaf(key) else self[key]

    def state(self, t: Tree, leaves: list[int] | None = None) -> State:
        """``from_binary`` without interning the root: the search state of
        ``t``, the flat key of its root, or a leaf alone.

        One frame reads the maximal subtree of the root's operation: a node
        of that operation pushes its two children, right first; a leaf is
        appended to the key and to ``leaves``; a node of the other
        operation is read in a nested frame and interned.  ValueError on
        the first defect met, left to right: a node that does not have two
        children, a node that is empty or has an operation other than h or
        v, or a leaf that is not an int >= 0, which the store would
        misread."""
        if leaves is None:
            leaves = []
        if not isinstance(t, tuple):  # a one-leaf monomial
            if not (isinstance(t, int) and t >= 0):
                raise ValueError(f"leaf {t!r} is not an int >= 0")
            leaves.append(t)
            return t
        if len(t) != 3 or t[0] not in (H, V):
            raise _not_binary(t)
        op = t[0]
        other = OPPOSITE[op]
        key = [op]
        stack = [t[2], t[1]]
        while stack:
            sub = stack.pop()
            if isinstance(sub, int) and sub >= 0:  # is_leaf inlined: no call per leaf
                key.append(sub)
                leaves.append(sub)
            elif not isinstance(sub, tuple):
                raise ValueError(f"leaf {sub!r} is not an int >= 0")
            elif len(sub) != 3:
                raise _not_binary(sub)
            elif sub[0] == op:
                stack.append(sub[2])
                stack.append(sub[1])
            elif sub[0] == other:
                key.append(self[self.state(sub, leaves)])
            else:
                raise _not_binary(sub)
        return tuple(key)

    def tree(self, n: State) -> AltTree:
        """The nested tuples of a state, a node id or a leaf."""
        if is_leaf(n):
            if n >= 0:
                return n
            n = self.keys[~n]
        return (n[0], *map(self.tree, n[1:]))

    def same_shape(self, a: State, b: State) -> bool:
        """True iff ``a`` and ``b``, each a state, a node id or a leaf, have
        the same operation-labelled shape.

        Compares the two keys, then walks their children's ids in pairs and
        stops at the first difference: a leaf against a node, another
        operation or another width.  Equal ids share their whole subtree, so
        the walk skips them.
        """
        keys = self.keys
        leaf = (None,)  # no operation and no children
        if isinstance(a, int):
            a = keys[~a] if a < 0 else leaf
        if isinstance(b, int):
            b = keys[~b] if b < 0 else leaf
        pairs = [(a, b)]
        while pairs:
            ka, kb = pairs.pop()
            if ka[0] != kb[0] or len(ka) != len(kb):
                return False
            for a, b in zip(ka, kb):  # the operations are equal by now
                if a == b:
                    continue
                if a < 0 and b < 0:
                    pairs.append((keys[~a], keys[~b]))
                elif a < 0 or b < 0:
                    return False
        return True

    def _splits(self, n: int, bare: bool) -> list[tuple[tuple, tuple]]:
        """For k = 1, 2, ...: the first k children of node ``n`` and the
        rest, each as the children it brings to a node of the opposite
        operation.  A lone leaf brings itself, a lone node (which carries
        that operation) its own children, and several children one node
        grouping them under ``n``'s operation.

        Without ``bare`` each half is prefixed by the opposite operation,
        for ``n`` on the left of a pair; with it the halves are bare, for
        ``n`` on the right; so a new key is one concatenation.  A node of
        width two has one split, its two children."""
        keys, index = self.keys, self
        key = keys[~n]
        op, first, last = key[0], key[1], key[-1]
        opp = OPPOSITE[op]
        first = keys[~first] if first < 0 else (opp, first)
        last = keys[~last] if last < 0 else (opp, last)
        if bare:
            first, last = first[1:], last[1:]
        if len(key) == 3:
            return [(first, last)]
        pre = () if bare else (opp,)
        out = [(first, pre + (index[(op,) + key[2:]],))]
        for k in range(3, len(key) - 1):
            out.append((pre + (index[key[:k]],), pre + (index[(op,) + key[k:]],)))
        out.append((pre + (index[key[:-1]],), last))
        return out

    def neighbours(self, key: State, intern: bool = False) -> list:
        """The state of every single-interchange neighbour of the state
        ``key``, or with ``intern`` its node id; entry ``k`` is reached by
        the move ``move(key, k)``.

        The lists of the state's subtrees are memoized as ids; its own is
        not.  Interning as each key is made, rather than in a second pass,
        keeps small searches, whose subtrees' lists outnumber their states'
        two to one, as fast as when every state was interned.  A key of
        width two, most of them, takes a direct path that makes the same
        list as the general loops: the pair move, then the moves inside
        child 2, then those inside child 1.
        """
        if isinstance(key, int):  # a one-leaf state
            return []
        index, keys, memo = self, self.keys, self.memo
        op = key[0]
        opp = OPPOSITE[op]
        out: list[State] = []
        if len(key) == 3:
            # two children, most states: the same moves without slicing
            _, a, b = key
            if a < 0 and b < 0:
                ka, kb = keys[~a], keys[~b]
                if len(ka) == len(kb) == 3:
                    # (op, (opp, a1, a2), (opp, b1, b2)) becomes
                    # (opp, (op, a1, b1), (op, a2, b2)); a grandchild that
                    # carries op is spliced in
                    _, a1, a2 = ka
                    _, b1, b2 = kb
                    x = (keys[~a1] if a1 < 0 else (op, a1)) + (keys[~b1][1:] if b1 < 0 else (b1,))
                    y = (keys[~a2] if a2 < 0 else (op, a2)) + (keys[~b2][1:] if b2 < 0 else (b2,))
                    new = (opp, index[x], index[y])
                    out.append(index[new] if intern else new)
                else:
                    lefts, rights = self._splits(a, False), self._splits(b, True)
                    for p, q in lefts:
                        for r, s in rights:
                            new = (opp, index[p + r], index[q + s])
                            out.append(index[new] if intern else new)
            if b < 0:
                sub = memo[~b]
                if sub is None:
                    sub = memo[~b] = self.neighbours(keys[~b], True)
                for c in sub:
                    ckey = keys[~c]
                    new = (op, a) + ckey[1:] if ckey[0] == op else (op, a, c)
                    out.append(index[new] if intern else new)
            if a < 0:
                sub = memo[~a]
                if sub is None:
                    sub = memo[~a] = self.neighbours(keys[~a], True)
                for c in sub:
                    ckey = keys[~c]
                    new = (op,) + ckey[1:] + (b,) if ckey[0] == op else (op, c, b)
                    out.append(index[new] if intern else new)
            return out
        # moves on the children at key positions i and i+1
        for i in range(1, len(key) - 1):
            if key[i] < 0 and key[i + 1] < 0:
                lefts, rights = self._splits(key[i], False), self._splits(key[i + 1], True)
                head, tail = key[:i], key[i + 2 :]
                for p, q in lefts:
                    for r, s in rights:
                        pair = (opp, index[p + r], index[q + s])
                        new = head + (index[pair],) + tail
                        out.append(index[new] if intern else new)
        # moves inside the child at key position j, placed in this node
        for j in range(len(key) - 1, 0, -1):
            child = key[j]
            if child >= 0:
                continue
            sub = memo[~child]
            if sub is None:
                sub = memo[~child] = self.neighbours(keys[~child], True)
            if not sub:
                continue
            head, tail = key[:j], key[j + 1 :]
            for c in sub:
                ckey = keys[~c]
                if ckey[0] == op:  # the child collapsed onto our operation
                    new = head + ckey[1:] + tail
                else:
                    new = head + (c,) + tail
                out.append(index[new] if intern else new)
        return out

    def successors(self, n: int) -> list[int]:
        """The ids of the neighbours of node ``n``, in ``neighbours`` order."""
        return self.neighbours(self.keys[~n], True) if n < 0 else []

    def move(self, key: State, k: int) -> Move:
        """The move behind entry ``k`` of ``neighbours(key)``, which must have
        run, read block by block off the keys and the children's memoized
        lists."""
        keys = self.keys
        kids = key[1:]
        for i, (a, b) in enumerate(pairwise(kids)):
            if a < 0 and b < 0:
                width = len(keys[~b]) - 2  # the splits of child i + 1
                size = (len(keys[~a]) - 2) * width
                if k < size:
                    return (), i, k // width + 1, k % width + 1
                k -= size
        for j in reversed(range(len(kids))):
            size = len(self.memo[~kids[j]]) if kids[j] < 0 else 0
            if k < size:
                path, *rest = self.move(keys[~kids[j]], k)
                return ((j, *path), *rest)
            k -= size
        raise IndexError("move index out of range")

    def move_to(self, key: State, state: State) -> Move:
        """The move from the state ``key`` to its neighbour ``state``, at its
        first place in ``neighbours(key)``; ValueError if none leads there."""
        return self.move(key, self.neighbours(key).index(state))


def alt_successors(tree: AltTree) -> Iterator[tuple[Move, AltTree]]:
    """All single-interchange neighbours of an alternating tree."""
    store = _Store()
    key = store.state(right_comb(tree))
    for k, c in enumerate(store.neighbours(key)):
        yield store.move(key, k), store.tree(c)


# ---------------------------------------------------------------------------
# Expansion of a quotient move into binary steps
# ---------------------------------------------------------------------------

def _comb_position(j: int, m: int) -> Position:
    """Position of part ``j`` of ``m`` in their right comb."""
    return (1,) * j + (0,) * (j < m - 1)


def _move_steps(keys: list[tuple], state: tuple, move: Move) -> list[RewriteStep]:
    """The binary steps of ``move`` from the right comb of ``state`` to the
    right comb of the state it leads to, read off the widths in ``keys``,
    the store's node keys.

    The node's comb position ``pos`` gains ``(1,)*j + (0,)*(j < w-1)`` for
    each index ``j`` of the path under an ancestor of width ``w``.  With
    ``m`` parts once children i and i+1 are grouped, the redex sits at
    ``pos + (1,)*i``, followed by ``(0,)`` when ``i < m-1``.
    """
    path, i, sa, sb = move
    pos, key = (), state
    for j in path:
        pos += _comb_position(j, len(key) - 1)
        key = keys[~key[j + 1]]
    op = key[0]
    rotate, rotate_opp = ASSOC_RULE[op], ASSOC_RULE[OPPOSITE[op]]
    m = len(key) - 2  # parts once children i and i + 1 are grouped
    a = keys[~key[i + 1]]
    redex = pos + _comb_position(i, m)
    # in: the comb steps from the representative holding the redex, inverted
    # in reverse order; they split child i + 1, then child i, then group them
    steps = []
    for child, split in ((i + 1, sb), (i, sa)):
        at = pos + _comb_position(child, m + 1)
        ups = reversed(range(split - 1))
        steps += [RewriteStep(rotate_opp, BACKWARD, at + (1,) * k) for k in ups]
    if i < m - 1:
        steps.append(RewriteStep(rotate, BACKWARD, pos + (1,) * i))
    steps.append(RewriteStep(INTERCHANGE, FORWARD if op == V else BACKWARD, redex))
    # out: a node left with one child splices it into its parent, which takes
    # one rotation unless the node is the root or its parent's last child;
    # then a half of the new child whose part of child i is one node of
    # width w takes w - 1 rotations
    if m == 1 and pos[-1:] == (0,):
        steps.append(RewriteStep(rotate_opp, FORWARD, pos[:-1]))
        halves = pos, pos[:-1] + (1, 0)
    else:
        halves = redex + (0,), redex + (1,)
    for at, alone, part in zip(halves, (sa == 1, sa == len(a) - 2), (a[1], a[-1])):
        if alone and part < 0:
            width = len(keys[~part]) - 1
            steps += [RewriteStep(rotate, FORWARD, at + (1,) * k) for k in range(width - 1)]
    return steps


def expand_path(store: _Store, t_start: Tree, chain: Chain) -> Certificate:
    """The certificate from ``t_start`` through a chain of quotient moves.

    ``chain`` lists (state, move taken there) in order, each state a key of
    ``store``.  Each step is applied once, to the running right comb, which
    at each move must be the right comb of the state the move is taken at:
    the state of ``t_start``, then the one the move before it led to.  The
    comb the walk ends on is the certificate's ``final``."""
    keys = store.keys
    combs: dict[int, Tree] = {}  # right comb of each node id met

    def right_comb_of(n: State) -> Tree:
        # one Python frame a level, within the nesting limit's two
        if isinstance(n, tuple):
            return comb(n[0], tuple(map(right_comb_of, n[1:])))
        if n >= 0:
            return n
        out = combs.get(n)
        if out is None:
            key = keys[~n]
            out = combs[n] = comb(key[0], tuple(map(right_comb_of, key[1:])))
        return out

    at, rotate = comb_steps(t_start)
    steps = list(rotate)
    for state, move in chain:
        want = right_comb_of(state)
        if at != want:
            raise RewriteError(f"move {move} does not start where the chain stands")
        at = want
        for step in _move_steps(keys, state, move):
            at = apply_redex(at, step)
            steps.append(step)
    return Certificate(t_start, tuple(steps), at)


# ---------------------------------------------------------------------------
# Equivalence search (bidirectional)
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceResult:
    """A ``check_equivalence`` outcome: a certificate, proved distinct, or neither."""

    certificate: Certificate | None
    proved_distinct: bool
    expanded: int

    @property
    def found(self) -> bool:
        return self.certificate is not None


def _trace(store: _Store, search: Frontier, state: State) -> Chain:
    """Chain from the search's root to ``state``.  A state was discovered at
    its first place in its parent's successor list, so that place names the move."""
    return [(u, store.move_to(u, v)) for u, v in pairwise(search.path(state))]


def _certificate(store: _Store, t1: Tree, chain1: Chain, t2: Tree, chain2: Chain) -> Certificate:
    """Certificate from ``t1`` along ``chain1``, then back along ``chain2``
    to ``t2``, both chains of ``store``'s states: the two ``expand_path``
    walks joined, no step applied again; walks ending apart are an error."""
    fwd, bwd = expand_path(store, t1, chain1), expand_path(store, t2, chain2)
    if fwd.final != bwd.final:
        raise RewriteError("the traced chains do not meet")
    return Certificate(t1, fwd.steps + bwd.inverted().steps, t2)


class _Relabel(dict):
    """The relabelling sigma on the states of one store: each operation to
    itself, each label to its image and, through ``__missing__``, each node
    id to the id of its image, interned in the same store on first use.
    With every label sent to 0 the image is the unlabelled shape."""

    __slots__ = ("store",)

    def __init__(self, store: _Store, sigma: dict[int, int]) -> None:
        super().__init__(sigma | {op: op for op in OPPOSITE})
        self.store = store

    def __missing__(self, n: int) -> int:
        if n >= 0:  # a label sigma does not map
            raise KeyError(n)
        image = self[n] = self.store[tuple(map(self.__getitem__, self.store.keys[~n]))]
        return image

    def state(self, key: State) -> State:
        """The image of a state, a flat key or a one-leaf label."""
        return tuple(map(self.__getitem__, key)) if isinstance(key, tuple) else self[key]


class _Mirror:
    """The replay of a search from ``sigma(root)`` off the discoveries of a
    search from ``root``; see the module docstring.  ``log`` holds the states
    not yet replayed, each expansion's run ended by ``None``: one flat deque,
    since a list per run raised the traced peak of kock16's check by 1.06 MB,
    the flat log by 0.09 MB."""

    def __init__(self, store: _Store, sigma: dict[int, int]) -> None:
        self.sigma = _Relabel(store, sigma)
        self.log: deque[State | None] = deque()

    def record(self, run: list[State]) -> None:
        """Log one expansion's discoveries, ended by ``None``."""
        self.log.extend(run)
        self.log.append(None)

    def replay(self, state: State) -> list[State]:
        """The sigma-images of the oldest logged run; the expansion of ``state``
        discovers them, since ``state`` is the sigma-image of the state whose
        expansion logged that run."""
        log, image, out = self.log, self.sigma.state, []
        if not log:
            raise RewriteError("the replayed side ran ahead of the side it mirrors")
        while (key := log.popleft()) is not None:
            out.append(image(key))
        return out


def check_equivalence(
    t1: Tree, t2: Tree, budget: int = DEFAULT_BUDGET
) -> EquivalenceResult:
    """Bidirectional search for a rewrite proof that t1 and t2 are equal.

    Returns a replayable certificate on success.  On failure the result
    distinguishes a definitive negative (one side's class exhausted without
    meeting the other) from plain budget exhaustion.
    """
    store = _Store()
    leaves1: list[int] = []
    leaves2: list[int] = []
    u1, u2 = store.state(t1, leaves1), store.state(t2, leaves2)
    if len(leaves1) != len(leaves2):
        raise ValueError("monomials must have equal arity")
    if sorted(leaves1) != sorted(leaves2):
        raise ValueError("monomials must use the same arguments")
    if u1 == u2:
        return EquivalenceResult(_certificate(store, t1, [], t2, []), False, 0)

    mirror = None
    if len(set(leaves1)) == len(leaves1) and store.same_shape(u1, u2):
        mirror = _Mirror(store, dict(zip(leaves1, leaves2)))  # t2 is sigma(t1)
    sides = (
        Frontier(store.neighbours, u1),
        Frontier(store.neighbours if mirror is None else mirror.replay, u2),
    )

    def expanded() -> int:
        return sides[0].expanded + sides[1].expanded

    while sides[0].queue and sides[1].queue:  # a dry side proves them distinct
        side = 0 if len(sides[0].queue) <= len(sides[1].queue) else 1
        mine, other = sides[side], sides[1 - side]
        for _ in range(len(mine.queue)):
            if expanded() >= budget:
                return EquivalenceResult(None, False, expanded())
            new = mine.expand()
            if mirror is not None and not side:
                mirror.record(new)
            for nxt in new:
                if nxt in other.parents:
                    fwd, bwd = (_trace(store, side, nxt) for side in sides)
                    cert = _certificate(store, t1, fwd, t2, bwd)
                    return EquivalenceResult(cert, False, expanded())
    return EquivalenceResult(None, True, expanded())


# ---------------------------------------------------------------------------
# Commutation discovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommutationWitness:
    """A permutation of a monomial's arguments that it equals, and the proof."""

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


@dataclass(frozen=True)
class CommutationScan:
    """The commutation witnesses in one monomial's class, and the search's size."""

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
    closure scan under those rules.  ValueError unless t is binary with leaf
    labels 1..n, before any search.
    """
    rooted = _rooted(t)  # checks t
    if families is not None and frozenset(families) != ALL_FAMILIES:
        return _find_commutations_binary(t, frozenset(families), budget)
    return _scan(t, budget, *rooted)[0]


def scan_monomials(
    monomials: Iterable[Tree], budget: int = DEFAULT_BUDGET
) -> Iterator[CommutationScan]:
    """``find_commutations(t, budget)`` for each monomial in turn, in one store.

    A class that was exhausted without witnesses is remembered, for this
    call only, by the shape keys of its states; a later monomial with one
    of those shape keys gets the same scan without a search.  The monomials
    are consumed one at a time, as the scans are taken.
    """
    store = _Store()
    shape = _Relabel(store, {})
    trivial: dict[State, CommutationScan] = {}
    for t in monomials:
        leaves: list[int] = []
        _, root = _rooted(t, store, leaves)
        shape.update(dict.fromkeys(leaves, 0))
        scan = trivial.get(shape.state(root))
        if scan is None:
            scan, search = _scan(t, budget, store, root)
            if scan.exhausted and not scan.witnesses:
                for state in search.parents:
                    trivial[shape.state(state)] = scan
        yield scan


def _rooted(
    t: Tree, store: _Store | None = None, leaves: list[int] | None = None
) -> tuple[_Store, State]:
    """``store``, or a new store, and t's search state in it, on the one walk
    that checks that t is binary with leaf labels 1..n (ValueError otherwise),
    appending the labels to ``leaves`` when a list is given."""
    store = _Store() if store is None else store
    leaves = [] if leaves is None else leaves
    root = store.state(t, leaves)
    if sorted(leaves) != list(range(1, len(leaves) + 1)):
        raise ValueError(f"leaf labels {tuple(leaves)} are not a permutation of 1..{len(leaves)}")
    return store, root


def _scan(t: Tree, budget: int, store: _Store, root: State) -> tuple[CommutationScan, Frontier]:
    """The interchange search behind ``find_commutations``, from ``root``,
    t's state in ``store`` (``_rooted(t)``), with its frontier."""
    search = Frontier(store.neighbours, root)
    exhausted = search.run(budget)
    # a state other than the root is never the identity; the rest are
    # decided one root child at a time, by slot
    members = _same_shape_states(store, search.parents, root)
    witnesses = ()  # most classes hold no member
    if members:
        witnesses = _witnesses(
            t,
            ((store.tree(s), s) for s in members),
            lambda state, target: _certificate(store, t, _trace(store, search, state), target, []),
        )
    scan = CommutationScan(
        witnesses=witnesses,
        exhausted=exhausted,
        expanded=search.expanded,
        class_size=len(search.parents),
    )
    return scan, search


def _same_shape_states(store: _Store, states: Collection[State], root: State) -> list[State]:
    """The states other than ``root`` that have its operation-labelled
    shape, in the order of ``states``.

    A state of the root's operation and width has the root's shape exactly
    when each child has the shape of the root's child in the same slot, its
    position in the key.  Those states are filtered one slot at a time, and
    each (slot, child id) is decided at most once, by ``same_shape`` against
    the root's child, in one dict per slot; a class with no state of the
    root's operation and width makes no dict."""
    if len(states) == 1:
        return []  # the root alone, as in every one-leaf class
    op, width = root[0], len(root)
    found = [s for s in states if s[0] == op and len(s) == width and s != root]
    for slot in range(1, width):
        if not found:
            break
        r = root[slot]
        alike = {r: True}  # child id in this slot -> same shape as r
        keep = []
        for s in found:
            c = s[slot]
            same = alike.get(c)
            if same is None:
                same = alike[c] = store.same_shape(c, r)
            if same:
                keep.append(s)
        found = keep
    return found


def _witnesses(t: Tree, found: Iterable, certify: Callable) -> tuple[CommutationWitness, ...]:
    """The witnesses among the same-shape members that ``found`` lists as
    (member, handle) in discovery order: one per distinct permutation,
    sorted, certified by ``certify(handle, target)`` from its first member,
    ``target`` being t with its arguments permuted."""
    first = {}
    labels = ()
    for member, handle in found:
        labels = labels or leaf_labels(t)  # read once, at the first member
        sigma = dict(zip(labels, leaf_labels(member)))
        first.setdefault(tuple(sigma[k] for k in sorted(sigma)), handle)
    return tuple(
        CommutationWitness(t, perm, certify(handle, relabel(t, dict(enumerate(perm, 1)))))
        for perm, handle in sorted(first.items())
    )


def _find_commutations_binary(
    t: Tree, families: frozenset[str], budget: int
) -> CommutationScan:
    result = closure(t, families=families, budget=budget)
    shape = strip_labels(t)
    found = ((m, m) for m in result.search.parents if m != t and strip_labels(m) == shape)
    return CommutationScan(
        witnesses=_witnesses(t, found, lambda m, _: Certificate(t, tuple(result.path_to(m)), m)),
        exhausted=result.exhausted,
        expanded=result.expanded,
        class_size=len(result.members),
    )


def interchange_neighbours_exist(tree: AltTree) -> bool:
    """True iff some binary representative contains an interchange redex,
    that is, iff some node has two adjacent non-leaf children."""
    if is_leaf(tree):
        return False
    kids = tree[1:]
    adjacent = any(not is_leaf(a) and not is_leaf(b) for a, b in pairwise(kids))
    return adjacent or any(map(interchange_neighbours_exist, kids))
