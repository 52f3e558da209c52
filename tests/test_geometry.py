import hashlib
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from medial.geometry import (
    BORDER,
    HORIZONTAL,
    INTERIOR,
    UNIT_RECT,
    VERTICAL,
    Block,
    BlockPartition,
    Cut,
    NotDyadicError,
    PartitionError,
    Rect,
    boundary_order,
    build_dyadic,
    bisect,
    classify_blocks,
    compose_partition,
    cuts,
    enumerate_partitions,
    fiber,
    format_dyadic,
    format_partition,
    grid_partitions,
    hjoin,
    interior_labels,
    is_dyadic,
    is_subrectangle,
    main_cuts,
    parse_dyadic,
    parse_partition,
    partition_count,
    primary_cuts_and_slices,
    realize,
    representative,
    transform_partition,
    unit_square,
    vjoin,
)
from medial.geometry import _halves
from medial.geometry import _main_cuts
from medial.geometry import _splits
from medial.trees import (
    H,
    V,
    arity,
    canonical_key,
    dihedral_elements,
    enumerate_shapes,
    parse_monomial,
    partial_compose,
    random_shape,
)

GRID = realize((V, (H, 1, 2), (H, 3, 4)))
PINWHEEL = BlockPartition(
    (
        Block(F(0), F(1, 2), F(0), F(1, 3), 1),
        Block(F(1, 2), F(1), F(0), F(2, 3), 2),
        Block(F(0), F(1, 2), F(1, 3), F(1), 3),
        Block(F(1, 2), F(1), F(2, 3), F(1), 4),
    )
)


def test_realize_examples():
    assert realize(1) == unit_square()
    two = realize((H, 1, 2))
    assert two.blocks == (
        Block(F(0), F(1, 2), F(0), F(1), 1),
        Block(F(1, 2), F(1), F(0), F(1), 2),
    )
    # the two sides of the interchange law realize the same grid
    lhs = realize((V, (H, 1, 2), (H, 3, 4)))
    rhs = realize((H, (V, 1, 3), (V, 2, 4)))
    assert lhs == rhs
    assert len(lhs) == 4


def test_joins():
    assert hjoin(unit_square(), unit_square(2)).blocks == realize((H, 1, 2)).blocks
    assert vjoin(unit_square(), unit_square(2)).blocks == realize((V, 1, 2)).blocks
    rng = random.Random(2)
    for _ in range(50):
        t1 = random_shape(rng.randint(1, 4), rng)
        t2 = _shift_labels(random_shape(rng.randint(1, 4), rng), arity(t1))
        assert realize((H, t1, t2)) == hjoin(realize(t1), realize(t2))
        assert realize((V, t1, t2)) == vjoin(realize(t1), realize(t2))


def _shift_labels(t, offset):
    from medial.trees import leaf_labels, relabel

    return relabel(t, {k: k + offset for k in leaf_labels(t)})


def test_area_is_conserved():
    rng = random.Random(3)
    for _ in range(100):
        t = random_shape(rng.randint(1, 8), rng)
        p = realize(t)
        assert sum((b.area for b in p.blocks), F(0)) == 1
        assert BlockPartition(p.blocks) == p  # in lowest terms


def test_overlap_rejected():
    with pytest.raises(PartitionError):
        BlockPartition(
            (
                Block(F(0), F(3, 4), F(0), F(1), 1),
                Block(F(1, 2), F(1), F(0), F(1), 2),
            )
        )


def test_compose_partition_identity_and_counts():
    q = realize((V, 1, 2))
    assert compose_partition(unit_square(), 1, q) == q
    rng = random.Random(4)
    for _ in range(100):
        t = random_shape(rng.randint(1, 4), rng)
        u = random_shape(rng.randint(1, 4), rng)
        i = rng.randint(1, arity(t))
        p, q = realize(t), realize(u)
        out = compose_partition(p, i, q)
        assert len(out) == len(p) + len(q) - 1


def test_realization_is_a_morphism():
    # realize(t o_i u) == realize(t) o_i realize(u), exhaustively for small arities
    small = [t for n in range(1, 5) for t in enumerate_shapes(n)]
    tiny = [t for n in range(1, 4) for t in enumerate_shapes(n)]
    for t in small:
        for u in tiny:
            for i in range(1, arity(t) + 1):
                lhs = realize(partial_compose(t, i, u))
                rhs = compose_partition(realize(t), i, realize(u))
                assert lhs == rhs


def test_build_dyadic():
    assert build_dyadic([]) == unit_square(label=None)
    assert build_dyadic([(1, "x")]) == realize((H, 1, 2)).unlabeled()
    # three bisections reproduce the 2x2 grid
    assert build_dyadic([(1, "x"), (1, "y"), (3, "y")]) == GRID.unlabeled()
    with pytest.raises(IndexError):
        build_dyadic([(2, "x")])


@given(st.lists(st.tuples(st.integers(0, 63), st.sampled_from("xy")), max_size=12))
def test_build_dyadic_is_in_lowest_terms(draws):
    # step k bisects one of the k + 1 blocks, whose midpoint may lie on the
    # grid or between two of its lines
    p = build_dyadic([(r % (k + 1) + 1, axis) for k, (r, axis) in enumerate(draws)])
    assert BlockPartition(p.blocks) == p


def test_cuts_examples():
    assert cuts(unit_square()) == frozenset()
    grid_cuts = cuts(GRID)
    assert grid_cuts == frozenset(
        {
            Cut(VERTICAL, F(1, 2), F(0), F(1)),
            Cut(HORIZONTAL, F(1, 2), F(0), F(1)),
        }
    )
    # ((x1 h x2) h x3) cuts at 1/4 and 1/2, both full height
    p = realize((H, (H, 1, 2), 3))
    assert cuts(p) == frozenset(
        {
            Cut(VERTICAL, F(1, 4), F(0), F(1)),
            Cut(VERTICAL, F(1, 2), F(0), F(1)),
        }
    )


def test_cuts_maximality_on_pinwheel_style_partition():
    # T-shaped arrangement: one full vertical cut, one half-width horizontal
    p = BlockPartition(
        (
            Block(F(0), F(1, 2), F(0), F(1), 1),
            Block(F(1, 2), F(1), F(0), F(1, 2), 2),
            Block(F(1, 2), F(1), F(1, 2), F(1), 3),
        )
    )
    assert cuts(p) == frozenset(
        {
            Cut(VERTICAL, F(1, 2), F(0), F(1)),
            Cut(HORIZONTAL, F(1, 2), F(1, 2), F(1)),
        }
    )


def test_cuts_are_pinned_on_every_partition_to_arity_7():
    # the sorted cuts of the 8,986 dyadic partitions of arity <= 7; the hash
    # was taken from the intersection of the merged sides on each line
    h = hashlib.sha256()
    count = 0
    for n in range(1, 8):
        for p in enumerate_partitions(n):
            found = sorted((c.orientation, c.coordinate, c.lo, c.hi) for c in cuts(p))
            h.update(repr(found).encode() + b"\n")
            count += 1
    assert count == 8986
    assert h.hexdigest() == "37b18a5b5388988331d8d5d9636e596f506fce2fc7064204e4b412ebca9023f6"


def _two_pass_halves(window, cells, orientation):
    """The bisection as two passes: a scan for a cell that straddles the
    midpoint, then one comprehension for each half."""
    lo, hi = (0, 1) if orientation == VERTICAL else (2, 3)
    twice_mid = window[lo] + window[hi]
    for c in cells:
        if 2 * c[lo] < twice_mid < 2 * c[hi]:
            return None
    mid = twice_mid // 2
    return (
        (window[:hi] + (mid,) + window[hi + 1 :], [c for c in cells if c[hi] <= mid]),
        (window[:lo] + (mid,) + window[lo + 1 :], [c for c in cells if c[lo] >= mid]),
    )


def test_halves_is_the_two_pass_bisection_on_every_window_to_arity_7():
    # every window met while bisecting the 8,986 dyadic partitions of arity
    # <= 7 in both orientations, one-cell windows (nothing to bisect) included
    partitions = windows = splits = 0
    for n in range(1, 8):
        for p in enumerate_partitions(n):
            partitions += 1
            todo = [((0, p.den, 0, p.den), p.cells)]
            seen = set()
            while todo:
                window, cells = todo.pop()
                if window in seen:
                    continue
                seen.add(window)
                windows += 1
                for orientation in (VERTICAL, HORIZONTAL):
                    got = _halves(window, cells, orientation)
                    assert got == _two_pass_halves(window, cells, orientation)
                    if got is not None:
                        splits += 1
                        todo += got
    assert (partitions, windows, splits) == (8986, 115330, 55326)


def test_main_cuts():
    assert main_cuts(GRID) == frozenset({HORIZONTAL, VERTICAL})
    assert main_cuts(realize((H, 1, 2))) == frozenset({VERTICAL})
    assert main_cuts(unit_square()) == frozenset()
    left_half = Rect(F(0), F(1, 2), F(0), F(1))
    assert main_cuts(GRID, left_half) == frozenset({HORIZONTAL})
    with pytest.raises(PartitionError):
        main_cuts(GRID, Rect(F(0), F(1, 4), F(0), F(1)))


def test_primary_cuts_and_slices():
    four = realize((H, (H, 1, 2), (H, 3, 4)))
    cuts_x, slices = primary_cuts_and_slices(four, UNIT_RECT, VERTICAL)
    assert cuts_x == (F(1, 4), F(1, 2), F(3, 4))
    assert len(slices) == 4
    assert slices[0] == Rect(F(0), F(1, 4), F(0), F(1))
    one_cut, two_slices = primary_cuts_and_slices(GRID, UNIT_RECT, HORIZONTAL)
    assert one_cut == (F(1, 2),)
    assert len(two_slices) == 2
    with pytest.raises(PartitionError):
        primary_cuts_and_slices(realize((H, 1, 2)), UNIT_RECT, HORIZONTAL)


def test_primary_cuts_are_the_full_length_cuts():
    # oracle: the marks are the cuts that run the whole side of the square
    pairs = 0
    for p in (p for n in range(1, 7) for p in enumerate_partitions(n)):
        full = {(c.orientation, c.coordinate) for c in cuts(p) if (c.lo, c.hi) == (0, 1)}
        for orientation in (HORIZONTAL, VERTICAL):
            pairs += 1
            lines = sorted(x for o, x in full if o == orientation)
            if orientation not in main_cuts(p):
                assert lines == []
                with pytest.raises(PartitionError):
                    primary_cuts_and_slices(p, UNIT_RECT, orientation)
                continue
            marks, slices = primary_cuts_and_slices(p, UNIT_RECT, orientation)
            assert list(marks) == lines
            # the slices tile the square in order, one between each two marks
            bounds = (0, *marks, 1)
            for s, lo, hi in zip(slices, bounds, bounds[1:]):
                if orientation == VERTICAL:
                    assert s == Rect(F(lo), F(hi), F(0), F(1))
                else:
                    assert s == Rect(F(0), F(1), F(lo), F(hi))
            assert len(slices) == len(bounds) - 1
    assert pairs == 2988


def test_classify_blocks():
    assert set(classify_blocks(GRID).values()) == {BORDER}
    # nested partition with one block clear of all four sides
    p = realize(parse_monomial("((a v (c h (d v f))) h b)"))
    kinds = classify_blocks(p)
    inner = p.block_with_label(3)
    assert kinds[inner] == INTERIOR
    assert interior_labels(p) == frozenset({3})
    assert (inner.x1, inner.x2, inner.y1, inner.y2) == (F(1, 4), F(1, 2), F(1, 2), F(3, 4))


def test_interior_labels_on_ten_block_configuration():
    # two interior blocks: the second-column middle block and the
    # third-column lower-middle block
    t = parse_monomial("(((a h b) v (c h (d v e))) h (((f v g) h h) v (i h j)))")
    p = realize(t)
    assert interior_labels(p) == frozenset({4, 7})
    d = p.block_with_label(4)
    g = p.block_with_label(7)
    assert (d.x1, d.x2, d.y1, d.y2) == (F(1, 4), F(1, 2), F(1, 2), F(3, 4))
    assert (g.x1, g.x2, g.y1, g.y2) == (F(1, 2), F(3, 4), F(1, 4), F(1, 2))


def test_boundary_order():
    south, north, west, east = boundary_order(GRID)
    assert south == (1, 2)
    assert north == (3, 4)
    assert west == (1, 3)
    assert east == (2, 4)


def test_fiber_examples():
    assert fiber(unit_square()) == (1,)
    grid_fiber = set(fiber(GRID))
    assert grid_fiber == {(V, (H, 1, 2), (H, 3, 4)), (H, (V, 1, 3), (V, 2, 4))}


def test_fiber_contains_preimage():
    for n in range(1, 7):
        for t in enumerate_shapes(n):
            assert t in fiber(realize(t))


def test_fiber_rejects_non_dyadic():
    with pytest.raises(NotDyadicError):
        fiber(PINWHEEL)
    assert not is_dyadic(PINWHEEL)


def test_representative_is_the_first_tree_of_the_fiber():
    labelled = [p.with_lex_labels() for n in range(1, 8) for p in enumerate_partitions(n)]
    labelled += [p.with_lex_labels() for p in grid_partitions(8)]
    for p in labelled:
        assert representative(p) == fiber(p)[0]
    assert representative(GRID.unlabeled()) == fiber(GRID.unlabeled())[0]


def test_representative_rejects_non_dyadic():
    with pytest.raises(NotDyadicError):
        representative(PINWHEEL)
    # a pinwheel below a window with both main cuts, on either of its splits
    for i in range(1, 5):
        nested = compose_partition(GRID, i, PINWHEEL)
        for call in (representative, fiber):
            with pytest.raises(NotDyadicError):
                call(nested)
        assert not is_dyadic(nested)


def test_is_subrectangle():
    b = GRID.blocks[0]
    assert is_subrectangle(GRID, Rect(b.x1, b.x2, b.y1, b.y2)) == 1
    assert is_subrectangle(GRID, Rect(F(0), F(1, 2), F(0), F(1))) == 2
    assert is_subrectangle(GRID, Rect(F(0), F(1, 4), F(0), F(1))) is None
    assert is_subrectangle(GRID, UNIT_RECT) == 4


def test_dihedral_equivariance():
    elements = dihedral_elements()
    for n in range(1, 6):
        for t in enumerate_shapes(n):
            p = realize(t)
            for g in elements:
                assert realize(g.apply(t)) == transform_partition(p, g)


def test_partition_text_round_trip():
    for t in [(V, (H, 1, 2), (H, 3, 4)), (H, (V, 1, 2), 3)]:
        p = realize(t)
        assert parse_partition(format_partition(p)) == p
    assert format_dyadic(F(3, 4)) == "3/2^2"
    assert parse_dyadic("3/2^2") == F(3, 4)
    assert parse_dyadic("0/2^0") == 0


def test_enumerate_partitions_counts():
    # arity 4: forty labeled shapes collapse to 39 distinct partitions
    assert sum(1 for _ in enumerate_partitions(1)) == 1
    assert sum(1 for _ in enumerate_partitions(2)) == 2
    assert sum(1 for _ in enumerate_partitions(3)) == 8
    assert sum(1 for _ in enumerate_partitions(4)) == 39


def test_grid_partitions_are_the_enumeration_with_both_main_cuts():
    # built from the four quadrants, order included
    for n in range(1, 8):
        every = list(enumerate_partitions(n))
        assert grid_partitions(n) == [p for p in every if len(main_cuts(p)) == 2]
        assert partition_count(n) == len(every)
    assert len(grid_partitions(8)) == 2568
    assert partition_count(8) == 47082
    for n in (0, 9):
        with pytest.raises(ValueError):
            grid_partitions(n)


def _assert_valid(p):
    # the public constructor runs the full area, overlap and label checks
    assert BlockPartition(p.blocks) == p


def test_internally_built_partitions_are_valid():
    for n in range(1, 7):
        for p in enumerate_partitions(n):
            _assert_valid(p)
            _assert_valid(p.with_lex_labels())
    rng = random.Random(5)
    elements = dihedral_elements()
    for _ in range(300):
        t = random_shape(rng.randint(1, 10), rng)
        p = realize(t)
        _assert_valid(p)
        _assert_valid(p.unlabeled())
        q = realize(random_shape(rng.randint(1, 4), rng))
        _assert_valid(hjoin(p, q.unlabeled()))
        _assert_valid(vjoin(q.unlabeled(), p))
        i = rng.randint(1, len(p))
        _assert_valid(compose_partition(p, i, q))
        _assert_valid(compose_partition(p.unlabeled(), i, q))
        for g in elements:
            _assert_valid(transform_partition(p, g))
    # a denominator that is not a power of two (thirds and halves)
    thirds = BlockPartition(
        (
            Block(F(0), F(1, 2), F(0), F(1, 3), 1),
            Block(F(1, 2), F(1), F(0), F(2, 3), 2),
            Block(F(0), F(1, 2), F(1, 3), F(1), 3),
            Block(F(1, 2), F(1), F(2, 3), F(1), 4),
        )
    )
    for g in elements:
        _assert_valid(transform_partition(thirds, g))
    _assert_valid(compose_partition(thirds, 2, GRID))
    _assert_valid(compose_partition(GRID, 3, thirds))
    _assert_valid(bisect(thirds, 1, "y"))


def test_bisect_refuses_an_axis_other_than_x_or_y():
    with pytest.raises(ValueError, match="^axis must be 'x' or 'y'$"):
        bisect(GRID, 1, "z")
    # build_dyadic raises bisect's refusals, with the step's index
    with pytest.raises(ValueError, match="^step 1: axis must be 'x' or 'y'$"):
        build_dyadic([(1, "x"), (1, "z")])
    with pytest.raises(IndexError, match=r"^step 1: ordinal 4 out of range 1\.\.2$"):
        build_dyadic([(1, "x"), (4, "y")])


@pytest.mark.parametrize(
    "r",
    [
        Rect(F(0), F(1), F(1, 2), F(1, 2)),
        Rect(F(1, 2), F(1, 2), F(0), F(1)),
        Rect(F(1), F(0), F(0), F(1)),
    ],
    ids=["no-height", "no-width", "reversed"],
)
def test_a_rectangle_of_no_area_is_no_subrectangle(r):
    assert is_subrectangle(GRID, r) is None
    with pytest.raises(PartitionError, match="is not a subrectangle"):
        main_cuts(GRID, r)
    for orientation in (HORIZONTAL, VERTICAL):
        with pytest.raises(PartitionError, match="is not a subrectangle"):
            primary_cuts_and_slices(GRID, r, orientation)


def test_bisect_ordinals_track_sorted_order():
    p = build_dyadic([(1, "x")])
    q = bisect(p, 2, "y")
    assert len(q) == 3
    with pytest.raises(IndexError):
        build_dyadic([(1, "x"), (4, "y")])


def _keyed_fiber(p):
    """Reference for ``fiber``: the product of each split rebuilt per tree of
    its first half, every tree keyed by its canonical encoding, so that a
    duplicate would collapse instead of being listed twice."""
    if None in p.labels():
        p = p.with_lex_labels()

    def go(window, cells):
        if len(cells) == 1:
            return (cells[0][4],)
        results = {}
        x1, x2, y1, y2 = window
        found = _main_cuts(cells, window)
        if VERTICAL in found:
            mid = (x1 + x2) // 2
            west = tuple(c for c in cells if c[1] <= mid)
            east = tuple(c for c in cells if c[0] >= mid)
            for left in go((x1, mid, y1, y2), west):
                for right in go((mid, x2, y1, y2), east):
                    tree = (H, left, right)
                    results[canonical_key(tree)] = tree
        if HORIZONTAL in found:
            mid = (y1 + y2) // 2
            south = tuple(c for c in cells if c[3] <= mid)
            north = tuple(c for c in cells if c[2] >= mid)
            for bottom in go((x1, x2, y1, mid), south):
                for top in go((x1, x2, mid, y2), north):
                    tree = (V, bottom, top)
                    results[canonical_key(tree)] = tree
        if not results:
            raise NotDyadicError(f"window {window} admits no main cut")
        return tuple(results.values())

    return go((0, p.den, 0, p.den), p.cells)


def test_fiber_order_matches_the_keyed_reference():
    # every partition to arity 7 and every arity-8 search candidate
    parts = [p for n in range(1, 8) for p in enumerate_partitions(n)] + grid_partitions(8)
    for p in parts:
        p = p.with_lex_labels()
        got = fiber(p)
        assert got == _keyed_fiber(p)
        assert len(set(got)) == len(got)


def _uncovered_sides(p):
    """The block sides strictly inside the square that lie under no cut,
    on the partition's integer grid."""
    den = p.den
    spans = {}
    for cut in cuts(p):
        key = (cut.orientation, int(cut.coordinate * den))
        spans.setdefault(key, []).append((int(cut.lo * den), int(cut.hi * den)))
    out = []
    for x1, x2, y1, y2, label in p.cells:
        for side in (
            (VERTICAL, x1, y1, y2),
            (VERTICAL, x2, y1, y2),
            (HORIZONTAL, y1, x1, x2),
            (HORIZONTAL, y2, x1, x2),
        ):
            orientation, c, lo, hi = side
            under = spans.get((orientation, c), ())
            if 0 < c < den and not any(a <= lo and hi <= z for a, z in under):
                out.append((label, side))
    return out


def test_every_inner_block_side_lies_under_a_cut():
    thirds = BlockPartition(
        (
            Block(F(0), F(1, 2), F(0), F(1, 3), 1),
            Block(F(1, 2), F(1), F(0), F(2, 3), 2),
            Block(F(0), F(1, 2), F(1, 3), F(1), 3),
            Block(F(1, 2), F(1), F(2, 3), F(1), 4),
        )
    )
    t_shape = BlockPartition(
        (
            Block(F(0), F(1, 2), F(0), F(1), 1),
            Block(F(1, 2), F(1), F(0), F(1, 2), 2),
            Block(F(1, 2), F(1), F(1, 2), F(1), 3),
        )
    )
    golden = Path(__file__).parent / "golden"
    parsed = [thirds, t_shape] + [
        parse_partition(format_partition(realize(t)))
        for t in [(V, (H, 1, 2), (H, 3, 4)), (H, (V, 1, 2), 3)]
    ]
    parsed += [parse_partition(f.read_text()) for f in sorted(golden.glob("*.partition"))]
    # non-dyadic: thirds and halves mixed in one grid
    composed = [compose_partition(thirds, i, q) for i in range(1, 5) for q in (GRID, thirds)]
    composed += [compose_partition(GRID, i, thirds) for i in range(1, 5)]
    every = [p for n in range(1, 8) for p in enumerate_partitions(n)]
    for p in every + parsed + composed:
        assert _uncovered_sides(p) == []


def test_errors_naming_a_window_cut_its_numbers():
    # a window with a 3,000-digit denominator: each error that names it
    # prints its numbers cut to 20 characters, not in full
    n = int("3" * 3000)
    thin = BlockPartition((Block(F(0), F(1), F(0), F(1, n), 1), Block(F(0), F(1), F(1, n), F(1), 2)))
    with pytest.raises(PartitionError) as not_inside:
        main_cuts(GRID, Rect(F(0), F(1, 2), F(0), F(2, n)))
    with pytest.raises(PartitionError) as no_cut:
        primary_cuts_and_slices(thin, Rect(F(0), F(1), F(0), F(1, n)), VERTICAL)
    with pytest.raises(NotDyadicError) as no_split:
        next(_splits(n, (0, 1, 0, 1), [(0, 1, 0, 1, 1)]))
    cut = "3" * 18 + "..."
    assert str(not_inside.value) == (
        f"Rect(x1=0, x2=1/2, y1=0, y2=2/{cut}) is not a subrectangle of the partition"
    )
    assert str(no_cut.value) == f"no vertical main cut in Rect(x1=0, x2=1, y1=0, y2=1/{cut})"
    assert str(no_split.value) == f"window Rect(x1=0, x2=1/{cut}, y1=0, y2=1/{cut}) admits no main cut"
    for exc in (not_inside, no_cut, no_split):
        assert len(str(exc.value).encode()) < 200


def test_a_block_is_a_labelled_rect():
    # a Block is a Rect with a label: its str, repr, hash, order and
    # equality are those of the five-field box, and it never equals a Rect
    b = Block(F(0), F(1, 2), F(1, 4), F(1), 3)
    assert str(b) == "Block(x1=0, x2=1/2, y1=1/4, y2=1, label=3)"
    assert repr(b) == (
        "Block(x1=Fraction(0, 1), x2=Fraction(1, 2), y1=Fraction(1, 4), y2=Fraction(1, 1), label=3)"
    )
    assert hash(b) == hash((F(0), F(1, 2), F(1, 4), F(1), 3))
    assert b == Block(F(0), F(1, 2), F(1, 4), F(1), 3) != Block(F(0), F(1, 2), F(1, 4), F(1), 4)
    west, east = Block(F(0), F(1, 2), F(0), F(1, 4), 5), Block(F(1, 2), F(1), F(0), F(1), 1)
    assert sorted([east, b, west]) == [west, b, east]
    assert b < Block(F(0), F(1, 2), F(1, 4), F(1), 4)
    r = Rect(b.x1, b.x2, b.y1, b.y2)
    assert b != r and r != b and len({b, r}) == 2
    assert classify_blocks(GRID) == {
        Block(F(0), F(1, 2), F(0), F(1, 2), 1): BORDER,
        Block(F(1, 2), F(1), F(0), F(1, 2), 2): BORDER,
        Block(F(0), F(1, 2), F(1, 2), F(1), 3): BORDER,
        Block(F(1, 2), F(1), F(1, 2), F(1), 4): BORDER,
    }
    assert all(type(k) is Block for k in classify_blocks(GRID))
