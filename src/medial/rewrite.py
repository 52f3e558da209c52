"""Undirected rewriting on binary monomials.

Every function here takes binary monomials, every node with two children;
``quotient`` handles the alternating trees.  Three rule families, each
usable in both directions:

    assoc_h      (p h q) h r  <->  p h (q h r)
    assoc_v      (p v q) v r  <->  p v (q v r)
    interchange  (p h q) v (r h s)  <->  (p v r) h (q v s)

``Frontier`` is the package's one breadth-first search: ``closure`` runs
it over binary monomials, deduplicated by the tree value itself (nested
tuples hash cheaply), and ``quotient`` runs it over interned alternating
trees.  Certificates record localized steps that any independent
implementation can replay bit-exactly.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from itertools import pairwise
from typing import Callable, Hashable, Iterable, Iterator

from .trees import (
    H,
    V,
    Position,
    Tree,
    format_monomial,
    is_leaf,
    leaf_labels,
    parse_monomial,
    positions,
    replace_at,
    subtree_at,
)

ASSOC_H = "assoc_h"
ASSOC_V = "assoc_v"
INTERCHANGE = "interchange"
ALL_FAMILIES = frozenset({ASSOC_H, ASSOC_V, INTERCHANGE})
ASSOC_FAMILIES = frozenset({ASSOC_H, ASSOC_V})
ASSOC_RULE = {H: ASSOC_H, V: ASSOC_V}  # the associativity rule of each operation
INTERCHANGE_ONLY = frozenset({INTERCHANGE})

FORWARD = "forward"
BACKWARD = "backward"

DEFAULT_BUDGET = 10**7


class RewriteError(ValueError):
    pass


@dataclass(frozen=True)
class RewriteStep:
    """One rule applied in one direction at one root path."""

    rule: str
    direction: str
    position: Position

    def inverted(self) -> "RewriteStep":
        flip = BACKWARD if self.direction == FORWARD else FORWARD
        return RewriteStep(self.rule, flip, self.position)

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "direction": self.direction,
            "position": "".join(str(i) for i in self.position),
        }

    @staticmethod
    def from_json(data: dict) -> "RewriteStep":
        """The step ``data`` states; ValueError naming the field when it is
        malformed.  Unknown rules and directions are left to replay."""
        rule, direction, position = (
            _json_field(data, key, str) for key in ("rule", "direction", "position")
        )
        if position.strip("01"):
            raise ValueError(f"field 'position' must be a string of 0s and 1s, got {position!r}")
        return RewriteStep(rule, direction, tuple(map(int, position)))


def _json_field(data: dict, key: str, kind: type):
    """``data[key]``, which must be a ``kind``; ValueError naming the field,
    or saying that ``data`` is not an object."""
    if not isinstance(data, dict):
        raise ValueError(f"must be an object, got {type(data).__name__}")
    if key not in data:
        raise ValueError(f"missing field {key!r}")
    value = data[key]
    if not isinstance(value, kind):
        raise ValueError(f"field {key!r} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _json_monomial(data: dict, key: str) -> Tree:
    """The monomial that the string ``data[key]`` writes; ValueError naming the field."""
    text = _json_field(data, key, str)
    try:
        return parse_monomial(text)
    except ValueError as exc:
        raise ValueError(f"field {key!r}: {exc}") from None


def _apply_local(node: Tree, rule: str, direction: str) -> Tree | None:
    """Apply a rule at the root of ``node``; None if the pattern misses."""
    if is_leaf(node):
        return None
    op, left, right = node
    if rule == ASSOC_H or rule == ASSOC_V:
        want = H if rule == ASSOC_H else V
        if op != want:
            return None
        if direction == FORWARD:
            if is_leaf(left) or left[0] != want:
                return None
            return (want, left[1], (want, left[2], right))
        if is_leaf(right) or right[0] != want:
            return None
        return (want, (want, left, right[1]), right[2])
    if rule == INTERCHANGE:
        # forward turns a v of two h nodes into an h of two v nodes
        outer, inner = (V, H) if direction == FORWARD else (H, V)
        if op != outer or is_leaf(left) or is_leaf(right):
            return None
        if left[0] != inner or right[0] != inner:
            return None
        return (inner, (outer, left[1], right[1]), (outer, left[2], right[2]))
    raise RewriteError(f"unknown rule {rule!r}")


_RULE_ORDER = (ASSOC_H, ASSOC_V, INTERCHANGE)
_DIRECTIONS = (FORWARD, BACKWARD)


def apply_redex(t: Tree, step: RewriteStep) -> Tree:
    node = subtree_at(t, step.position)
    result = _apply_local(node, step.rule, step.direction)
    if result is None:
        raise RewriteError(
            f"{step.rule}/{step.direction} does not match at position {step.position}"
        )
    return replace_at(t, step.position, result)


def successors(t: Tree, families: Iterable[str] = ALL_FAMILIES) -> Iterator[tuple[RewriteStep, Tree]]:
    """Every applicable step with its result, preorder then rule order."""
    fams = frozenset(families)
    rules = [rule for rule in _RULE_ORDER if rule in fams]
    for pos, node in positions(t):
        if is_leaf(node):
            continue
        for rule in rules:
            for direction in _DIRECTIONS:
                local = _apply_local(node, rule, direction)
                if local is not None:
                    yield RewriteStep(rule, direction, pos), replace_at(t, pos, local)


def find_redexes(t: Tree, families: Iterable[str] = ALL_FAMILIES) -> list[RewriteStep]:
    """Every applicable (rule, direction, position), in ``successors`` order."""
    return [step for step, _ in successors(t, families)]


# ---------------------------------------------------------------------------
# Closure
# ---------------------------------------------------------------------------

class Frontier:
    """Breadth-first search from one root over ``successors(state)``, which
    lists a state's neighbours in a fixed order.  ``parents`` maps each
    state to the state that discovered it (the root to None), so a state is
    discovered at its first place in its parent's list."""

    __slots__ = ("successors", "parents", "queue", "expanded")

    def __init__(self, successors: Callable[[Hashable], Iterable], root: Hashable) -> None:
        self.successors = successors
        self.parents: dict = {root: None}
        self.queue: deque = deque([root])
        self.expanded = 0

    def expand(self) -> list:
        """Expand the oldest queued state; return the states it discovered,
        in successor order, after recording their parent and queueing them."""
        state = self.queue.popleft()
        self.expanded += 1
        parents = self.parents
        new = []
        for nxt in self.successors(state):
            if nxt not in parents:
                parents[nxt] = state
                new.append(nxt)
        self.queue.extend(new)
        return new

    def run(self, budget: int) -> bool:
        """Expand until the queue is empty (True, exhausted) or ``budget``
        states have been expanded in all (False)."""
        while self.queue:
            if self.expanded >= budget:
                return False
            self.expand()
        return True

    def path(self, state: Hashable) -> list:
        """The states from the root to ``state``."""
        out = [state]
        while (state := self.parents[state]) is not None:
            out.append(state)
        return out[::-1]


@dataclass
class ClosureResult:
    """The monomials a closure reached, and whether it reached them all."""

    members: frozenset[Tree]
    exhausted: bool
    expanded: int
    families: frozenset[str]
    search: Frontier = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.members)

    def path_to(self, target: Tree) -> list[RewriteStep]:
        """Steps from the closure root to a member.  Each is the first step
        from its tree that yields the next tree on the path, the one the
        search discovered that tree by."""
        return [
            next(step for step, r in successors(u, self.families) if r == v)
            for u, v in pairwise(self.search.path(target))
        ]


def closure(
    t: Tree,
    families: Iterable[str] = ALL_FAMILIES,
    budget: int = DEFAULT_BUDGET,
) -> ClosureResult:
    """Breadth-first rewrite closure of t under the enabled families.

    ``budget`` bounds node expansions; running out is reported through
    ``exhausted=False``, not an exception.  Every rewrite preserves arity
    and the leaf multiset, so members all share t's leaves.
    """
    fams = frozenset(families)
    start_leaves = sorted(leaf_labels(t))

    def neighbours(u: Tree) -> list[Tree]:
        out = [r for _, r in successors(u, fams)]
        assert all(sorted(leaf_labels(r)) == start_leaves for r in out)
        return out

    search = Frontier(neighbours, t)
    exhausted = search.run(budget)
    return ClosureResult(frozenset(search.parents), exhausted, search.expanded, fams, search)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Replayable proof object: initial monomial plus localized steps."""

    initial: Tree
    steps: tuple[RewriteStep, ...]
    final: Tree

    @property
    def interchange_count(self) -> int:
        return sum(1 for s in self.steps if s.rule == INTERCHANGE)

    def inverted(self) -> "Certificate":
        return Certificate(
            self.final,
            tuple(s.inverted() for s in reversed(self.steps)),
            self.initial,
        )

    def to_json(self) -> dict:
        return {
            "initial": format_monomial(self.initial),
            "steps": [s.to_json() for s in self.steps],
            "final": format_monomial(self.final),
        }

    def dump(self) -> str:
        return json.dumps(self.to_json(), indent=2) + "\n"

    @staticmethod
    def from_json(data: dict) -> "Certificate":
        """The certificate ``data`` states; ValueError naming the field, and
        for a step its index, when it is malformed."""
        try:
            initial, final = (_json_monomial(data, key) for key in ("initial", "final"))
            steps = _json_field(data, "steps", list)
        except ValueError as exc:
            raise ValueError(f"certificate: {exc}") from None
        out = []
        for k, step in enumerate(steps):
            try:
                out.append(RewriteStep.from_json(step))
            except ValueError as exc:
                raise ValueError(f"certificate step {k}: {exc}") from None
        return Certificate(initial, tuple(out), final)

    @staticmethod
    def load(text: str) -> "Certificate":
        return Certificate.from_json(json.loads(text))


@dataclass(frozen=True)
class ReplayResult:
    """Whether a certificate replays, and if not, at which step and why."""

    ok: bool
    failed_step: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def replay_certificate(cert: Certificate) -> ReplayResult:
    """Re-run every step; true only if the stated final tree is reached."""
    current = cert.initial
    for k, step in enumerate(cert.steps):
        try:
            current = apply_redex(current, step)
        except (RewriteError, IndexError) as exc:
            return ReplayResult(False, k, f"step {k}: {exc}")
    if current != cert.final:
        return ReplayResult(
            False,
            len(cert.steps),
            f"final tree is {format_monomial(current)}, not the claimed "
            f"{format_monomial(cert.final)}",
        )
    return ReplayResult(True)


def certificate_from_path(initial: Tree, steps: Iterable[RewriteStep]) -> Certificate:
    current = initial
    steps = tuple(steps)
    for step in steps:
        current = apply_redex(current, step)
    return Certificate(initial, steps, current)


# ---------------------------------------------------------------------------
# Rotation normal form (explicit associativity paths)
# ---------------------------------------------------------------------------

def comb_steps(t: Tree) -> tuple[Tree, tuple[RewriteStep, ...]]:
    """Rotate to the recursive right-comb representative of t's class
    modulo associativity, recording the forward steps taken."""
    steps: list[RewriteStep] = []

    def go(node: Tree, pos: Position) -> Tree:
        if is_leaf(node):
            return node
        op = node[0]
        while not is_leaf(node[1]) and node[1][0] == op:
            left = node[1]
            node = (op, left[1], (op, left[2], node[2]))
            steps.append(RewriteStep(ASSOC_RULE[op], FORWARD, pos))
        return (op, go(node[1], pos + (0,)), go(node[2], pos + (1,)))

    result = go(t, ())
    return result, tuple(steps)


def assoc_path(src: Tree, dst: Tree) -> tuple[RewriteStep, ...]:
    """Explicit associativity steps from src to dst (same class required)."""
    comb_a, up = comb_steps(src)
    comb_b, down = comb_steps(dst)
    if comb_a != comb_b:
        raise RewriteError("trees are not equal modulo associativity")
    return up + tuple(s.inverted() for s in reversed(down))
