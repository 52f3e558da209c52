"""Exact block partitions of the open unit square.

A partition is a set of open blocks, pairwise disjoint, of total area one.
It is held on an integer grid: ``den`` is the least common denominator of
all coordinates, and ``cells`` holds one ``(x1, x2, y1, y2, label)`` tuple
per block, coordinates in units of ``1/den`` and the label an int or None,
sorted by (x1, y1).  Everything medial builds is dyadic, so there ``den``
is a power of two; a partition a caller builds may use any denominator.
One function bisects a window of cells, ``_halves``, in one pass over the
cells; its midpoint test compares doubled coordinates (``2 * x2 <= a + b``),
which keeps it in integers.  One function scales and moves cells,
``_placed``, and one function brings built cells to lowest terms,
``_reduced``; only ``realize`` picks a grid that is in lowest terms already.

Values go in and come out as ``fractions.Fraction``: ``Rect``, the one box
type (a ``Block`` is a ``Rect`` with a label), and ``Cut`` carry Fractions,
and ``BlockPartition.blocks`` converts the cells on first use.  An error
prints every box it names through ``Rect.__str__``, each number cut short.

The area, overlap and duplicate-label checks run where input comes in:
``BlockPartition(blocks)`` and ``parse_partition``.  ``realize``,
``hjoin``, ``vjoin``, ``bisect``, ``compose_partition``,
``transform_partition``, ``with_lex_labels``, ``unlabeled``,
``enumerate_partitions`` and ``grid_partitions`` build valid partitions
from valid ones by construction and skip them; ``realize``, ``hjoin`` and
``vjoin`` keep the labels they are given, so those must be distinct.
``cuts`` trusts its input too: in blocks that tile the square, every block
side strictly inside it lies under one of the cuts found.

Dyadic partitions are built one way: one with more than one block is the
``hjoin`` or the ``vjoin`` of two smaller ones, once for each main cut it
has.  ``enumerate_partitions`` and ``grid_partitions`` read one table of
these joins (``_dyadic``), and ``partition_count`` counts them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from operator import itemgetter
from typing import Iterator, Sequence

from . import trees
from .trees import DihedralElement, Tree, is_leaf

ZERO = Fraction(0)
ONE = Fraction(1)

HORIZONTAL = "horizontal"
VERTICAL = "vertical"
X_AXIS = "x"
Y_AXIS = "y"
PARTITION_ARITY_LIMIT = 8
# A coordinate a/2^b in lowest terms lies on a cut b levels deep, so the
# blocks beside it are leaves at least b levels deep in their monomial; past
# the parser's nesting limit it belongs to no monomial medial reads.
DYADIC_EXPONENT_LIMIT = trees.NESTING_LIMIT


class PartitionError(ValueError):
    pass


class NotDyadicError(PartitionError):
    """Raised when a partition admits no recursive bisection structure."""


def is_dyadic_fraction(value: Fraction) -> bool:
    return value.denominator & (value.denominator - 1) == 0


def dyadic_level(value: Fraction) -> int:
    """The exponent b of a dyadic a/2^b in lowest terms."""
    if not is_dyadic_fraction(value):
        raise ValueError(f"{value} is not dyadic")
    return value.denominator.bit_length() - 1


def format_dyadic(value: Fraction) -> str:
    """Coordinate text form a/2^b in lowest terms."""
    return f"{value.numerator}/2^{dyadic_level(value)}"


class _NotANumber(ValueError):
    """A coordinate in which neither ``Fraction`` nor ``int`` reads a number."""


def _cut(text: str, show=str) -> str:
    """A field or number as an error message writes it: ``show`` of its
    first 20 characters, and ``...`` when it is longer.  Fields are quoted
    with ``show=repr``."""
    return show(text[:20]) + ("..." if len(text) > 20 else "")


def parse_dyadic(text: str) -> Fraction:
    """A coordinate written ``a/2^b``, or in any form ``Fraction`` reads;
    ValueError naming the coordinate when it holds no number, when ``b`` is
    negative, above ``DYADIC_EXPONENT_LIMIT`` or followed by a second
    ``/2^``, or when a denominator is zero.  An exponent with more digits
    than the limit, not counting leading zeros, is refused before it is
    read as a number; an error quotes at most a prefix of the coordinate."""
    text = text.strip()
    quoted = _cut(text, repr)
    num, *exps = text.split("/2^")
    if len(exps) > 1:
        raise ValueError(f"coordinate {quoted} has more than one '/2^'")
    above = f"coordinate {quoted} has an exponent above {DYADIC_EXPONENT_LIMIT}"
    exp_text = exps[0].strip() if exps else ""
    if exp_text.isdecimal():  # read without its leading zeros
        exp_text = exp_text.lstrip("0") or "0"
        if len(exp_text) > len(str(DYADIC_EXPONENT_LIMIT)):
            raise ValueError(above)
    try:
        if not exps:
            return Fraction(text)
        num, exp = int(num), int(exp_text)
    except ZeroDivisionError:
        raise ValueError(f"coordinate {quoted} has a zero denominator") from None
    except ValueError:
        raise _NotANumber(f"coordinate {quoted} is not a number") from None
    if exp < 0:
        raise ValueError(f"coordinate {quoted} has a negative exponent")
    if exp > DYADIC_EXPONENT_LIMIT:
        raise ValueError(above)
    return Fraction(num, 2**exp)


@dataclass(frozen=True)
class Rect:
    """A box of the square: any subwindow, unlabelled and unchecked."""

    x1: Fraction
    x2: Fraction
    y1: Fraction
    y2: Fraction

    def __str__(self) -> str:
        """The box as an error message shows it, every number cut by ``_cut``."""
        fields = ", ".join(f"{k}={_cut(str(v))}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


@dataclass(frozen=True, order=True)
class Block(Rect):
    """A labelled ``Rect`` inside the unit square; never equal to a ``Rect``."""

    label: int | None = None

    def __post_init__(self):
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise PartitionError(f"degenerate block {self}")
        if not (ZERO <= self.x1 and self.x2 <= ONE and ZERO <= self.y1 and self.y2 <= ONE):
            raise PartitionError(f"block {self} leaves the unit square")

    @property
    def area(self) -> Fraction:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


UNIT_RECT = Rect(ZERO, ONE, ZERO, ONE)


@dataclass(frozen=True)
class Cut:
    """A maximal open segment between blocks: its line and its extent along it."""

    orientation: str  # HORIZONTAL or VERTICAL
    coordinate: Fraction  # the fixed axis value
    lo: Fraction  # extent along the cut
    hi: Fraction


# A cell is a block on the integer grid: (x1, x2, y1, y2, label); a window
# is a box on it: (x1, x2, y1, y2).
_corner = itemgetter(0, 2)
_Window = tuple[int, int, int, int]


def _box(den: int, cell: tuple) -> Rect:
    """A window ``(x1, x2, y1, y2)`` over ``den`` as a ``Rect``, or a cell,
    which adds its label, as a ``Block``."""
    return (Block if len(cell) == 5 else Rect)(*(Fraction(c, den) for c in cell[:4]), *cell[4:])


@dataclass(frozen=True, init=False)
class BlockPartition:
    """A partition of the unit square into labeled or unlabeled blocks.

    ``BlockPartition(blocks)`` checks that the blocks cover the square
    without overlap and carry distinct labels.  ``den`` and ``cells`` are
    the integer form described in the module docstring, and partitions are
    equal exactly when those are; ``blocks`` gives the same blocks with
    Fraction coordinates.
    """

    den: int
    cells: tuple[tuple[int, int, int, int, int | None], ...]

    def __init__(self, blocks: Sequence[Block]):
        blocks = tuple(blocks)
        corners = [[Fraction(c) for c in (b.x1, b.x2, b.y1, b.y2)] for b in blocks]
        den = math.lcm(*(c.denominator for corner in corners for c in corner))
        cells = sorted(
            ((*(int(c * den) for c in corner), b.label) for corner, b in zip(corners, blocks)),
            key=_corner,
        )
        _validate(den, cells)
        self.__dict__.update(den=den, cells=tuple(cells))

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        return tuple(_box(self.den, c) for c in self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def labels(self) -> tuple[int | None, ...]:
        return tuple(c[4] for c in self.cells)

    def unlabeled(self) -> "BlockPartition":
        return _trusted(self.den, [(*c[:4], None) for c in self.cells])

    def with_lex_labels(self) -> "BlockPartition":
        return _trusted(self.den, [(*c[:4], i + 1) for i, c in enumerate(self.cells)])

    def block_with_label(self, label: int) -> Block:
        for b in self.blocks:
            if b.label == label:
                return b
        raise KeyError(f"no block labeled {label}")


def _validate(den: int, cells: list[tuple]) -> None:
    total = sum((x2 - x1) * (y2 - y1) for x1, x2, y1, y2, _ in cells)
    if total != den * den:
        raise PartitionError(f"block areas sum to {_cut(str(Fraction(total, den * den)))}, not 1")
    for i, a in enumerate(cells):
        for b in cells[i + 1 :]:
            if a[0] < b[1] and b[0] < a[1] and a[2] < b[3] and b[2] < a[3]:
                raise PartitionError(f"blocks overlap: {_box(den, a)} / {_box(den, b)}")
    labels = [c[4] for c in cells if c[4] is not None]
    if len(set(labels)) != len(labels):
        raise PartitionError("duplicate block labels")


def _trusted(den: int, cells) -> BlockPartition:
    """A partition from cells that are valid by construction and already in
    lowest terms over ``den``: the unit square, a relabelling or a
    reflection of a partition, ``realize``'s grid, or ``_reduced``'s output;
    no checks run."""
    p = BlockPartition.__new__(BlockPartition)
    p.__dict__.update(den=den, cells=tuple(sorted(cells, key=_corner)))
    return p


def _reduced(den: int, cells: list[tuple]) -> BlockPartition:
    """Like ``_trusted``, for cells over any common denominator."""
    g = math.gcd(den, *(v for c in cells for v in c[:4]))
    if g > 1:
        den //= g
        cells = [(x1 // g, x2 // g, y1 // g, y2 // g, label) for x1, x2, y1, y2, label in cells]
    return _trusted(den, cells)


def _placed(cells, x0: int, y0: int, sx: int, sy: int) -> list[tuple]:
    """The cells scaled by ``sx`` across and ``sy`` up, then moved to the
    corner (x0, y0); labels kept."""
    return [
        (x0 + x1 * sx, x0 + x2 * sx, y0 + y1 * sy, y0 + y2 * sy, label)
        for x1, x2, y1, y2, label in cells
    ]


def unit_square(label: int | None = 1) -> BlockPartition:
    return _trusted(1, [(0, 1, 0, 1, label)])


def _join(p: BlockPartition, q: BlockPartition, axis: str) -> BlockPartition:
    """p in the lower half along axis, q in the upper half (labels kept)."""
    den = 2 * math.lcm(p.den, q.den)
    # each part's cells scale by den over its own den, halved along the axis
    kp = den // p.den
    kq = den // q.den
    if axis == X_AXIS:
        cells = _placed(p.cells, 0, 0, kp // 2, kp) + _placed(q.cells, den // 2, 0, kq // 2, kq)
    else:
        cells = _placed(p.cells, 0, 0, kp, kp // 2) + _placed(q.cells, 0, den // 2, kq, kq // 2)
    return _reduced(den, cells)


def hjoin(p: BlockPartition, q: BlockPartition) -> BlockPartition:
    """Place p in the west half and q in the east half (labels kept)."""
    return _join(p, q, X_AXIS)


def vjoin(p: BlockPartition, q: BlockPartition) -> BlockPartition:
    """Place p in the south half and q in the north half (labels kept)."""
    return _join(p, q, Y_AXIS)


def _cut_depths(t: Tree) -> tuple[int, int]:
    """The most h nodes, and the most v nodes, on one root-to-leaf path."""
    if is_leaf(t):
        return 0, 0
    h1, v1 = _cut_depths(t[1])
    h2, v2 = _cut_depths(t[2])
    if t[0] == trees.H:
        return max(h1, h2) + 1, max(v1, v2)
    return max(h1, h2), max(v1, v2) + 1


def realize(t: Tree) -> BlockPartition:
    """Geometric realization of a binary monomial, ValueError for any other
    tree (``trees.check_binary``): h joins east, v joins north, labels from leaves."""
    trees.check_binary(t)
    # On a 2^d grid, d the larger cut depth, every split is integral, and
    # the deepest split on that axis lands on an odd coordinate, so the
    # grid is already in lowest terms.
    den = 1 << max(_cut_depths(t))
    cells: list[tuple] = []

    def place(node: Tree, x1: int, x2: int, y1: int, y2: int) -> None:
        if is_leaf(node):
            cells.append((x1, x2, y1, y2, node))
        elif node[0] == trees.H:
            mid = (x1 + x2) // 2
            place(node[1], x1, mid, y1, y2)
            place(node[2], mid, x2, y1, y2)
        else:
            mid = (y1 + y2) // 2
            place(node[1], x1, x2, y1, mid)
            place(node[2], x1, x2, mid, y2)

    place(t, 0, den, 0, den)
    return _trusted(den, cells)


def compose_partition(p: BlockPartition, i: int, q: BlockPartition) -> BlockPartition:
    """Replace the block labeled i (or the i-th in sorted order when
    unlabeled) by q scaled into it, renumbering labels operadically."""
    m, n = len(p), len(q)
    if not 1 <= i <= m:
        raise IndexError(f"block ordinal {i} out of range 1..{m}")
    labels = p.labels()
    if None not in labels:
        if i not in labels:
            raise KeyError(f"no block labeled {i}")
        target = labels.index(i)
    else:
        target = i - 1
    rest = [
        (*c[:4], c[4] + n - 1 if c[4] is not None and c[4] > i else c[4])
        for c in p.cells[:target] + p.cells[target + 1 :]
    ]
    inner = [(*c[:4], None if c[4] is None else i + c[4] - 1) for c in q.cells]
    # everything goes over p.den * q.den: p's cells scale by q.den, and q's
    # by the target's size, offset to its corner
    k = q.den
    tx1, tx2, ty1, ty2, _ = p.cells[target]
    out = _placed(rest, 0, 0, k, k) + _placed(inner, tx1 * k, ty1 * k, tx2 - tx1, ty2 - ty1)
    return _reduced(p.den * k, out)


def build_dyadic(choices: Sequence[tuple[int, str]]) -> BlockPartition:
    """Start from the unit square and perform exact bisections.

    Each choice is (block ordinal in the current sorted order, axis),
    axis "x" bisecting by a vertical line and "y" by a horizontal one.
    """
    part = unit_square(label=None)
    for step, (ordinal, axis) in enumerate(choices):
        try:
            part = bisect(part, ordinal, axis)
        except (IndexError, ValueError) as exc:
            raise type(exc)(f"step {step}: {exc}") from None
    return part


def bisect(p: BlockPartition, ordinal: int, axis: str) -> BlockPartition:
    """Halve the ordinal-th block (1-based, sorted order) on the grid refined
    by two, back to lowest terms through ``_reduced``; the halves are unlabeled."""
    if not 1 <= ordinal <= len(p):
        raise IndexError(f"ordinal {ordinal} out of range 1..{len(p)}")
    if axis not in (X_AXIS, Y_AXIS):
        raise ValueError("axis must be 'x' or 'y'")
    rest = _placed(p.cells, 0, 0, 2, 2)
    x1, x2, y1, y2, _ = rest.pop(ordinal - 1)
    xm, ym = (x1 + x2) // 2, (y1 + y2) // 2
    if axis == X_AXIS:
        rest += [(x1, xm, y1, y2, None), (xm, x2, y1, y2, None)]
    else:
        rest += [(x1, x2, y1, ym, None), (x1, x2, ym, y2, None)]
    return _reduced(2 * p.den, rest)


# ---------------------------------------------------------------------------
# Cuts, slices, block classification
# ---------------------------------------------------------------------------

def cuts(p: BlockPartition) -> frozenset[Cut]:
    """Maximal open segments separating the blocks: on each line through a
    block side, the gaps between the blocks that straddle the line."""
    den, cells = p.den, p.cells
    found = []
    # cell indices of a block's start and end across the line, and of its
    # extent along it
    for orientation, (start, end), (lo_i, hi_i) in (
        (VERTICAL, (0, 1), (2, 3)),
        (HORIZONTAL, (2, 3), (0, 1)),
    ):
        for x in {c[start] for c in cells} - {0}:
            at = 0  # the line is covered up to here
            for lo, hi in sorted((c[lo_i], c[hi_i]) for c in cells if c[start] < x < c[end]):
                if at < lo:
                    found.append((orientation, x, at, lo))
                at = max(at, hi)
            if at < den:
                found.append((orientation, x, at, den))
    return frozenset(
        Cut(orientation, Fraction(x, den), Fraction(lo, den), Fraction(hi, den))
        for orientation, x, lo, hi in found
    )


def _window(p: BlockPartition, r: Rect) -> tuple[int, _Window, Sequence[tuple] | None]:
    """A common denominator for p and r, r's corners over it, and p's cells
    within r over it, or None when they do not fill r or r has no area."""
    if r is UNIT_RECT:  # every partition fills the square
        return p.den, (0, p.den, 0, p.den), p.cells
    corners = [Fraction(c) for c in (r.x1, r.x2, r.y1, r.y2)]
    den = math.lcm(p.den, *(c.denominator for c in corners))
    x1, x2, y1, y2 = window = tuple(int(c * den) for c in corners)
    if x1 >= x2 or y1 >= y2:  # no cell fills a window of no area
        return den, window, None
    cells = _placed(p.cells, 0, 0, den // p.den, den // p.den)
    inside = [c for c in cells if x1 <= c[0] and c[1] <= x2 and y1 <= c[2] and c[3] <= y2]
    area = sum((c[1] - c[0]) * (c[3] - c[2]) for c in inside)
    return den, window, inside if area == (x2 - x1) * (y2 - y1) else None


def _halves(window: _Window, cells, orientation: str) -> tuple | None:
    """The two halves of a window of cells that fill it, across its
    bisection in ``orientation``: west or south first, each ``(window,
    cells within it)``.  None when a cell straddles the bisection.

    One pass over the cells: each lies below the bisection, lies above it,
    or straddles it, and the first that straddles ends the pass.  A
    bisection found lies on the grid ((x1 + x2) or (y1 + y2) is even): the
    cell that covers a point halfway between grid lines straddles it.
    """
    # window and cell indices of the start and end across the bisection
    lo, hi = (0, 1) if orientation == VERTICAL else (2, 3)
    twice_mid = window[lo] + window[hi]
    below: list[tuple] = []
    above: list[tuple] = []
    for c in cells:
        if 2 * c[hi] <= twice_mid:
            below.append(c)
        elif 2 * c[lo] >= twice_mid:
            above.append(c)
        else:
            return None
    mid = twice_mid // 2
    # no cell straddles mid, so the cells within each half fill it
    return (
        (window[:hi] + (mid,) + window[hi + 1 :], below),
        (window[:lo] + (mid,) + window[lo + 1 :], above),
    )


def _main_cuts(cells, window: _Window) -> frozenset[str]:
    """Which bisections of a window no cell straddles, for cells that fill it."""
    return frozenset(o for o in (VERTICAL, HORIZONTAL) if _halves(window, cells, o) is not None)


def is_subrectangle(p: BlockPartition, r: Rect) -> int | None:
    """Arity of r as a disjoint union of blocks of p, or None."""
    inside = _window(p, r)[2]
    return None if inside is None else len(inside)


def _subrectangle(p: BlockPartition, r: Rect) -> tuple[int, _Window, Sequence[tuple]]:
    """``_window(p, r)``; PartitionError unless p's cells fill r."""
    den, window, inside = _window(p, r)
    if inside is None:
        raise PartitionError(f"{r} is not a subrectangle of the partition")
    return den, window, inside


def main_cuts(p: BlockPartition, r: Rect = UNIT_RECT) -> frozenset[str]:
    """Which exact bisections of r are unions of cuts of p."""
    _, window, inside = _subrectangle(p, r)
    return _main_cuts(inside, window)


def primary_cuts_and_slices(
    p: BlockPartition, r: Rect, orientation: str
) -> tuple[tuple[Fraction, ...], tuple[Rect, ...]]:
    """Primary cuts of r parallel to its main cut, and the slices between.

    The main cut must exist in the requested orientation; cuts come back in
    natural order with the sides of r as implicit outer boundaries.
    """
    if orientation not in (HORIZONTAL, VERTICAL):
        raise ValueError("orientation must be 'horizontal' or 'vertical'")
    den, window, inside = _subrectangle(p, r)

    def slices(w: _Window, cells: Sequence[tuple]) -> list[_Window]:
        halves = _halves(w, cells, orientation)
        return [w] if halves is None else [s for half in halves for s in slices(*half)]

    windows = slices(window, inside)
    if len(windows) == 1:
        raise PartitionError(f"no {orientation} main cut in {r}")
    # a primary cut is the east or north side of every slice but the last
    side = 1 if orientation == VERTICAL else 3
    marks = tuple(Fraction(w[side], den) for w in windows[:-1])
    return marks, tuple(_box(den, w) for w in windows)


INTERIOR = "interior"
BORDER = "border"


def _on_border(den: int, cell: tuple) -> bool:
    x1, x2, y1, y2, _ = cell
    return x1 == 0 or x2 == den or y1 == 0 or y2 == den


def classify_blocks(p: BlockPartition) -> dict[Block, str]:
    return {b: BORDER if _on_border(p.den, c) else INTERIOR for b, c in zip(p.blocks, p.cells)}


def interior_labels(p: BlockPartition) -> frozenset[int]:
    return frozenset(c[4] for c in p.cells if c[4] is not None and not _on_border(p.den, c))


def boundary_order(p: BlockPartition) -> tuple[tuple[int, ...], ...]:
    """Label sequences along the south, north, west, east sides."""
    den, cells = p.den, p.cells

    def side(index: int, value: int, along: int) -> tuple[int, ...]:
        on_side = sorted((c for c in cells if c[index] == value), key=itemgetter(along))
        return tuple(c[4] for c in on_side)

    return side(2, 0, 0), side(3, den, 0), side(0, 0, 2), side(1, den, 2)


# ---------------------------------------------------------------------------
# Tree preimages
# ---------------------------------------------------------------------------

def _splits(den: int, window: _Window, cells: Sequence[tuple]) -> Iterator[tuple]:
    """The main-cut splits of a window of cells that fill it, in the order
    the fiber lists them: the vertical bisection, an h node of the west and
    east halves, then the horizontal one, a v node of the south and north
    halves.  Each split is ``(op, (window, cells), (window, cells))``; the
    horizontal bisection is tried only when a second split is asked for.
    NotDyadicError when the window has neither."""
    west_east = _halves(window, cells, VERTICAL)
    if west_east is not None:
        yield (trees.H, *west_east)
    south_north = _halves(window, cells, HORIZONTAL)
    if south_north is not None:
        yield (trees.V, *south_north)
    elif west_east is None:
        raise NotDyadicError(f"window {_box(den, window)} admits no main cut")


def fiber(p: BlockPartition) -> tuple[Tree, ...]:
    """All binary monomials realizing p, labels carried from the blocks.

    Recursive main-cut decomposition over ``_splits``.  No two trees
    coincide: the splits give different root operations, and each split
    gives the distinct pairs of its halves' trees.
    """
    if None in p.labels():
        p = p.with_lex_labels()

    def go(window: _Window, cells: Sequence[tuple]) -> tuple[Tree, ...]:
        if len(cells) == 1:
            return (cells[0][4],)
        return tuple(
            (op, first, second)
            for op, lo, hi in _splits(p.den, window, cells)
            for first, second in product(go(*lo), go(*hi))
        )

    return go((0, p.den, 0, p.den), p.cells)


def representative(p: BlockPartition) -> Tree:
    """``fiber(p)[0]``, built alone: each window takes only its first split."""
    if None in p.labels():
        p = p.with_lex_labels()

    def go(window: _Window, cells: Sequence[tuple]) -> Tree:
        if len(cells) == 1:
            return cells[0][4]
        op, lo, hi = next(_splits(p.den, window, cells))
        return (op, go(*lo), go(*hi))

    return go((0, p.den, 0, p.den), p.cells)


def is_dyadic(p: BlockPartition) -> bool:
    """Whether p has a recursive bisection structure.  Its first split's
    halves suffice: a bisection that crosses no block of a dyadic window
    leaves two dyadic halves."""
    try:
        representative(p)
    except NotDyadicError:
        return False
    return True


# ---------------------------------------------------------------------------
# Dihedral action on partitions
# ---------------------------------------------------------------------------

def transform_partition(p: BlockPartition, g: DihedralElement) -> BlockPartition:
    """Geometric counterpart of the symmetry action on monomials."""
    den = p.den
    cells = []
    for x1, x2, y1, y2, label in p.cells:
        if g.flip_h:
            x1, x2 = den - x2, den - x1
        if g.flip_v:
            y1, y2 = den - y2, den - y1
        if g.transpose:
            x1, x2, y1, y2 = y1, y2, x1, x2
        cells.append((x1, x2, y1, y2, label))
    return _trusted(den, cells)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def format_partition(p: BlockPartition) -> str:
    lines = []
    for b in p.blocks:
        coords = " ".join(format_dyadic(c) for c in (b.x1, b.x2, b.y1, b.y2))
        label = "-" if b.label is None else str(b.label)
        lines.append(f"{coords} {label}")
    return "\n".join(lines) + "\n"


def parse_partition(text: str) -> BlockPartition:
    """The partition of ``format_partition``'s text: one ``x1 x2 y1 y2
    label`` line per block, ``-`` for no label; blank lines and lines that
    start with ``#`` are skipped.  A field that holds no number is named
    with its line."""
    blocks = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise PartitionError(f"line {lineno}: expected 'x1 x2 y1 y2 label'")
        coords = []
        for field, s in zip(("x1", "x2", "y1", "y2"), parts):
            try:
                coords.append(parse_dyadic(s))
            except _NotANumber as exc:
                raise PartitionError(f"line {lineno}, {field}: {exc}") from None
        try:
            label = None if parts[4] == "-" else int(parts[4])
        except ValueError:
            raise PartitionError(
                f"line {lineno}, label: {_cut(parts[4], repr)} is not an int or '-'"
            ) from None
        blocks.append(Block(*coords, label))
    return BlockPartition(tuple(blocks))


# ---------------------------------------------------------------------------
# Enumeration of dyadic partitions
# ---------------------------------------------------------------------------

def _by_coordinates(parts) -> list[BlockPartition]:
    """The partitions in lexicographic order of their block coordinates."""
    den = max((part.den for part in parts), default=1)

    def coordinates(part: BlockPartition) -> tuple[int, ...]:
        k = den // part.den
        return tuple(v * k for c in part.cells for v in c[:4])

    return sorted(parts, key=coordinates)


def _joins(d: list[list[BlockPartition]], m: int, join) -> Iterator[BlockPartition]:
    """``join(p, q)`` for every p in d[a] and q in d[m - a]."""
    return (join(p, q) for a in range(1, m) for p in d[a] for q in d[m - a])


def _dyadic(n: int) -> list[list[BlockPartition]]:
    """d[m], the unlabeled dyadic partitions with m blocks, for m <= n.

    Equal cells are one tuple within a call.  Each join makes fresh cells,
    and the 47,082 partitions with 8 blocks hold 376,656 cells of only
    2,560 values.
    """
    cells: dict[tuple, tuple] = {}

    def interned(p: BlockPartition) -> BlockPartition:
        p.__dict__["cells"] = tuple([cells.setdefault(c, c) for c in p.cells])
        return p

    d = [[], [unit_square(label=None)]]
    for m in range(2, n + 1):
        d.append(list({*map(interned, _joins(d, m, hjoin)), *map(interned, _joins(d, m, vjoin))}))
    return d


def enumerate_partitions(n: int) -> Iterator[BlockPartition]:
    """All distinct unlabeled dyadic partitions with n blocks, in
    lexicographic order of their block coordinates."""
    trees.check_arity(n, PARTITION_ARITY_LIMIT)
    yield from _by_coordinates(_dyadic(n)[n])


def grid_partitions(n: int) -> list[BlockPartition]:
    """The unlabeled dyadic partitions with n blocks that have both main
    cuts, in the order of ``enumerate_partitions``.

    Each is ``vjoin(hjoin(sw, se), hjoin(nw, ne))`` for exactly one
    quadruple of dyadic quadrants, so they are built from the quadrants and
    the rest of the arity-n partitions is never made.
    """
    trees.check_arity(n, PARTITION_ARITY_LIMIT)
    quadrants = _dyadic(n - 3)
    # halves[m]: the m-block partitions with a vertical main cut, for m < n - 1
    halves = [list(_joins(quadrants, m, hjoin)) if m < n - 1 else [] for m in range(n)]
    return _by_coordinates(list(_joins(halves, n, vjoin)))


def partition_count(n: int) -> int:
    """The number of dyadic partitions with n blocks, without building them.

    A partition with a vertical main cut is ``hjoin(p, q)`` for exactly one
    pair of dyadic partitions, so there are V(n) = sum D(k) D(n - k) of
    them, as many with a horizontal one, and B(n) = sum V(k) V(n - k) with
    both; every partition with more than one block has one or the other,
    so D(n) = 2 V(n) - B(n).
    """
    trees.check_arity(n, PARTITION_ARITY_LIMIT)
    d, v = [0, 1], [0, 0]
    for m in range(2, n + 1):
        v.append(sum(d[k] * d[m - k] for k in range(1, m)))
        d.append(2 * v[m] - sum(v[k] * v[m - k] for k in range(1, m)))
    return d[n]
