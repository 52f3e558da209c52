import hashlib
import random
from fractions import Fraction as F

import pytest

from medial.intervals import (
    PiecewiseLinearMap,
    association_to_sequence,
    association_types,
    format_association,
    format_tree_sequence,
    is_tree_sequence,
    parse_association,
    sequence_to_association,
    thompson_map,
    tree_parent,
)
from medial.trees import NESTING_LIMIT

# Bracketings of up to five letters with their bisection records; the
# fractions are the tick positions of the reference interval diagrams.
BISECTION_TABLE = {
    "a": (),
    "ab": (F(1, 2),),
    "(ab)c": (F(1, 4), F(1, 2)),
    "a(bc)": (F(1, 2), F(3, 4)),
    "((ab)c)d": (F(1, 8), F(1, 4), F(1, 2)),
    "(a(bc))d": (F(1, 4), F(3, 8), F(1, 2)),
    "(ab)(cd)": (F(1, 4), F(1, 2), F(3, 4)),
    "a((bc)d)": (F(1, 2), F(5, 8), F(3, 4)),
    "a(b(cd))": (F(1, 2), F(3, 4), F(7, 8)),
    "(((ab)c)d)e": (F(1, 16), F(1, 8), F(1, 4), F(1, 2)),
    "((a(bc))d)e": (F(1, 8), F(3, 16), F(1, 4), F(1, 2)),
    "((ab)(cd))e": (F(1, 8), F(1, 4), F(3, 8), F(1, 2)),
    "(a((bc)d))e": (F(1, 4), F(5, 16), F(3, 8), F(1, 2)),
    "(a(b(cd)))e": (F(1, 4), F(3, 8), F(7, 16), F(1, 2)),
    "((ab)c)(de)": (F(1, 8), F(1, 4), F(1, 2), F(3, 4)),
    "(a(bc))(de)": (F(1, 4), F(3, 8), F(1, 2), F(3, 4)),
    "(ab)((cd)e)": (F(1, 4), F(1, 2), F(5, 8), F(3, 4)),
    "(ab)(c(de))": (F(1, 4), F(1, 2), F(3, 4), F(7, 8)),
    "a(((bc)d)e)": (F(1, 2), F(9, 16), F(5, 8), F(3, 4)),
    "a((b(cd))e)": (F(1, 2), F(5, 8), F(11, 16), F(3, 4)),
    "a((bc)(de))": (F(1, 2), F(5, 8), F(3, 4), F(7, 8)),
    "a(b((cd)e))": (F(1, 2), F(3, 4), F(13, 16), F(7, 8)),
    "a(b(c(de)))": (F(1, 2), F(3, 4), F(7, 8), F(15, 16)),
}


def test_tree_parent():
    assert tree_parent(F(1, 4)) == F(1, 2)
    assert tree_parent(F(3, 4)) == F(1, 2)
    assert tree_parent(F(3, 8)) == F(1, 4)
    assert tree_parent(F(5, 8)) == F(3, 4)
    assert tree_parent(F(7, 16)) == F(3, 8)


def test_is_tree_sequence_examples():
    assert is_tree_sequence({F(1, 2)})
    assert is_tree_sequence({F(1, 4), F(1, 2)})
    assert not is_tree_sequence({F(1, 4)})
    assert not is_tree_sequence({F(3, 8), F(1, 2)})
    assert is_tree_sequence(set())
    with pytest.raises(ValueError):
        is_tree_sequence({F(1, 3)})


def test_bisection_table_round_trip():
    for text, points in BISECTION_TABLE.items():
        tree = parse_association(text)
        assert association_to_sequence(tree) == frozenset(points)
        assert sequence_to_association(points) == tree
        assert is_tree_sequence(points)


def test_bijection_over_all_association_types():
    # Catalan counts 1, 2, 5, 14, 42 for two to six letters
    counts = {}
    for letters in range(2, 7):
        seen = set()
        trees = list(association_types(letters))
        counts[letters] = len(trees)
        for tree in trees:
            points = association_to_sequence(tree)
            assert sequence_to_association(points) == tree
            assert points not in seen
            seen.add(points)
    assert counts == {2: 1, 3: 2, 4: 5, 5: 14, 6: 42}


def test_association_types_order_is_pinned():
    # the order of association_types(1..9); the hash was taken from the
    # hand-written recursion
    h = hashlib.sha256()
    for n in range(1, 10):
        for a in association_types(n):
            h.update(repr(a).encode() + b"\n")
    assert h.hexdigest() == "98e2b1b3004ac09341c436dd5c74c356c8be61f9ded293af27ee9144522a4f07"


def test_format_parse_association():
    assert format_association(parse_association("(ab)c")) == "(ab)c"
    assert parse_association("a(b(cd))") == ((), ((), ((), ())))


def test_parse_association_refuses_nesting_past_the_limit():
    def comb(depth):
        text = "ab"
        for _ in range(depth):
            text = f"a({text})"
        return text

    tree = parse_association(comb(NESTING_LIMIT))
    assert len(association_to_sequence(tree)) == NESTING_LIMIT + 1
    for depth in (NESTING_LIMIT + 1, 500):
        with pytest.raises(ValueError, match=f"nesting deeper than {NESTING_LIMIT} levels"):
            parse_association(comb(depth))


def test_format_association_needs_a_letter_per_leaf():
    eleven = parse_association("a(b(c(d(e(f(g(h(i(jk)))))))))")
    assert format_association(eleven, "abcdefghijk") == "a(b(c(d(e(f(g(h(i(jk)))))))))"
    with pytest.raises(ValueError, match="a bracketing of 11 leaves needs 11 letters, not 10"):
        format_association(eleven)


def test_thompson_identity():
    pts = (F(1, 4), F(1, 2))
    f = thompson_map(pts, pts)
    assert set(f.slopes()) == {1}
    assert f(F(1, 3)) == F(1, 3)


def test_thompson_example_slopes():
    # hand-solved: pieces (0,1/4)->(0,1/2), (1/4,1/2)->(1/2,3/4), rest
    f = thompson_map((F(1, 4), F(1, 2)), (F(1, 2), F(3, 4)))
    assert f.slopes() == (2, 1, F(1, 2))
    assert f(F(1, 4)) == F(1, 2)
    assert f(F(1, 2)) == F(3, 4)
    assert f(F(0)) == 0 and f(F(1)) == 1


def test_thompson_maps_carry_points_and_have_dyadic_slopes():
    rng = random.Random(17)
    rows = list(BISECTION_TABLE.values())
    for _ in range(200):
        a = rng.choice(rows)
        b = rng.choice(rows)
        if len(a) != len(b):
            continue
        f = thompson_map(a, b)
        for x, y in zip(sorted(a), sorted(b)):
            assert f(x) == y
        assert f.slopes_are_powers_of_two()


def test_thompson_composition_agrees_on_points():
    a = (F(1, 8), F(1, 4), F(1, 2))
    b = (F(1, 4), F(1, 2), F(3, 4))
    c = (F(1, 2), F(3, 4), F(7, 8))
    f = thompson_map(a, b)
    g = thompson_map(b, c)
    h = thompson_map(a, c)
    for x in a:
        assert g(f(x)) == h(x)
    composed = g.compose(f)
    for x in a:
        assert composed(x) == h(x)
    assert composed.slopes_are_powers_of_two()


@pytest.mark.parametrize(
    "points, powers",
    [
        (((0, 0), (1, 1)), True),
        (((0, 0), (F(1, 2), F(1, 4)), (F(3, 4), F(3, 4)), (1, 1)), True),
        (((0, 0), (F(1, 2), F(1, 4)), (1, 1)), False),
        (((0, 0), (F(1, 4), F(3, 4)), (1, 1)), False),
    ],
)
def test_slopes_are_powers_of_two(points, powers):
    # slopes 1; 1/2, 2, 1; 1/2, 3/2; 3, 1/3
    f = PiecewiseLinearMap(tuple((F(x), F(y)) for x, y in points))
    assert f.slopes_are_powers_of_two() is powers


def test_thompson_size_mismatch():
    with pytest.raises(ValueError):
        thompson_map((F(1, 2),), (F(1, 4), F(1, 2)))


def test_format_tree_sequence():
    assert format_tree_sequence((F(1, 2), F(1, 4))) == "1/2^2, 1/2^1"
