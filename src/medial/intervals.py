"""Dyadic machinery on the unit interval.

A tree sequence is a finite set of dyadic points in (0,1) closed under
taking tree parents; it records a history of exact bisections and is the
one-dimensional shadow of the square geometry.  Tree sequences biject with
association types (complete binary bracketings), and two equal-size tree
sequences determine a piecewise linear interval map with power-of-two
slopes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .geometry import ONE, ZERO, dyadic_level, format_dyadic, is_dyadic_fraction
from .trees import NESTING_LIMIT, bracketings

# Association types as nested pairs: leaf = (), node = (left, right).
Association = tuple


def tree_parent(x: Fraction) -> Fraction:
    """Parent of a dyadic point: halve the unique odd-half neighbour."""
    b = dyadic_level(x)
    if b <= 1:
        raise ValueError("level-1 points are roots")
    a = x.numerator
    up, down = a + 1, a - 1
    candidate = up if (up // 2) % 2 == 1 else down
    return Fraction(candidate // 2, 2 ** (b - 1))


def is_tree_sequence(points: Iterable[Fraction]) -> bool:
    """True iff every point's tree parent is present (roots excepted)."""
    pts = set(points)
    for x in pts:
        if not isinstance(x, Fraction) or not is_dyadic_fraction(x):
            raise ValueError(f"{x} is not a dyadic rational")
        if not ZERO < x < ONE:
            raise ValueError(f"{x} is outside (0,1)")
    for x in pts:
        if dyadic_level(x) >= 2 and tree_parent(x) not in pts:
            return False
    return True


def sequence_to_association(points: Iterable[Fraction]) -> Association:
    """Binary bracketing whose bisection record equals the tree sequence."""
    pts = sorted(set(points))
    if not is_tree_sequence(pts):
        raise ValueError("not a tree sequence")

    def go(lo: Fraction, hi: Fraction, inner: list[Fraction]) -> Association:
        if not inner:
            return ()
        mid = (lo + hi) / 2
        assert mid in inner, "tree-sequence closure guarantees the midpoint"
        left = [x for x in inner if x < mid]
        right = [x for x in inner if x > mid]
        return (go(lo, mid, left), go(mid, hi, right))

    return go(ZERO, ONE, list(pts))


def association_to_sequence(tree: Association) -> frozenset[Fraction]:
    def go(node: Association, lo: Fraction, hi: Fraction) -> Iterator[Fraction]:
        if node == ():
            return
        mid = (lo + hi) / 2
        yield mid
        yield from go(node[0], lo, mid)
        yield from go(node[1], mid, hi)

    return frozenset(go(tree, ZERO, ONE))


def association_types(letters: int) -> Iterator[Association]:
    """All bracketings of a product of the given number of letters."""
    if letters < 1:
        raise ValueError("need at least one letter")
    yield from bracketings([((),)] * letters, lambda left, right: ((left, right),))


def format_association(tree: Association, letters: str = "abcdefghij") -> str:
    """The bracketing written with ``letters`` in order, outer parentheses
    dropped; ValueError if it has more leaves than there are letters."""

    def go(node: Association) -> str:
        return "{}" if node == () else f"({go(node[0])}{go(node[1])})"

    text = go(tree)
    leaves = text.count("{}")
    if leaves > len(letters):
        raise ValueError(f"a bracketing of {leaves} leaves needs {leaves} letters, not {len(letters)}")
    text = text.format(*letters)
    return text[1:-1] if text.startswith("(") else text


def parse_association(text: str) -> Association:
    """Parse bracketings like ``(ab)c`` or ``a(b(cd))``; ValueError on
    nesting deeper than ``trees.NESTING_LIMIT``, as ``parse_monomial``."""
    pos = 0

    def parse_atom(depth: int) -> Association:
        nonlocal pos
        if pos >= len(text):
            raise ValueError("unexpected end of input")
        c = text[pos]
        if c == "(":
            if depth == NESTING_LIMIT:
                raise ValueError(f"nesting deeper than {NESTING_LIMIT} levels at {pos}")
            pos += 1
            return parse_product(depth + 1)
        if c.isalnum():
            pos += 1
            return ()
        raise ValueError(f"unexpected character {c!r} at {pos}")

    def parse_product(depth: int) -> Association:
        """The product at ``depth``, closed by its ')' unless at the top."""
        nonlocal pos
        factors = [parse_atom(depth)]
        while pos < len(text) and text[pos] != ")":
            factors.append(parse_atom(depth))
        if depth:
            if pos >= len(text) or text[pos] != ")":
                raise ValueError("missing ')'")
            pos += 1
        if len(factors) == 1:
            return factors[0]
        if len(factors) != 2:
            raise ValueError("products must be fully parenthesized (binary)")
        return (factors[0], factors[1])

    out = parse_product(0)
    if pos != len(text):
        raise ValueError(f"trailing input at {pos}")
    return out


# ---------------------------------------------------------------------------
# Piecewise linear maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Increasing interval homeomorphism given by its breakpoints,
    always including (0,0) and (1,1)."""

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        bps = self.breakpoints
        if bps[0] != (ZERO, ZERO) or bps[-1] != (ONE, ONE):
            raise ValueError("map must fix 0 and 1")
        for (x1, y1), (x2, y2) in zip(bps, bps[1:]):
            if not (x1 < x2 and y1 < y2):
                raise ValueError("breakpoints must increase in both coordinates")

    def __call__(self, x: Fraction) -> Fraction:
        bps = self.breakpoints
        if not ZERO <= x <= ONE:
            raise ValueError("argument outside [0,1]")
        for (x1, y1), (x2, y2) in zip(bps, bps[1:]):
            if x <= x2:
                return y1 + (x - x1) * (y2 - y1) / (x2 - x1)
        raise AssertionError("unreachable")

    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(
            (y2 - y1) / (x2 - x1)
            for (x1, y1), (x2, y2) in zip(self.breakpoints, self.breakpoints[1:])
        )

    def slopes_are_powers_of_two(self) -> bool:
        """Whether every slope a/b (lowest terms) is a power of two: exactly when a * b is."""
        return all(
            is_dyadic_fraction(Fraction(1, s.numerator * s.denominator)) for s in self.slopes()
        )

    def compose(self, inner: "PiecewiseLinearMap") -> "PiecewiseLinearMap":
        """self after inner, refined to the union of relevant breakpoints."""
        xs = {x for x, _ in inner.breakpoints}
        for x, _ in self.breakpoints:
            xs.add(inner.inverse()(x))
        points = tuple(sorted(xs))
        return PiecewiseLinearMap(tuple((x, self(inner(x))) for x in points))

    def inverse(self) -> "PiecewiseLinearMap":
        return PiecewiseLinearMap(tuple((y, x) for x, y in self.breakpoints))


def thompson_map(a: Iterable[Fraction], b: Iterable[Fraction]) -> PiecewiseLinearMap:
    """The unique map linear between consecutive points of ``a`` carrying
    the i-th point of ``a`` to the i-th point of ``b``."""
    xs, ys = sorted(set(a)), sorted(set(b))
    if len(xs) != len(ys):
        raise ValueError("tree sequences must have equal size")
    if not (is_tree_sequence(xs) and is_tree_sequence(ys)):
        raise ValueError("inputs must be tree sequences")
    points = ((ZERO, ZERO),) + tuple(zip(xs, ys)) + ((ONE, ONE),)
    return PiecewiseLinearMap(points)


def format_tree_sequence(points: Iterable[Fraction]) -> str:
    return ", ".join(format_dyadic(x) for x in sorted(points))
