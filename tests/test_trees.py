import hashlib
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from medial.assoc import enumerate_alternating
from medial.trees import (
    FLIP_H,
    FLIP_V,
    NESTING_LIMIT,
    TRANSPOSE,
    H,
    V,
    MonomialSyntaxError,
    apply_symmetry,
    arity,
    canonical_key,
    catalan,
    dihedral_elements,
    enumerate_shapes,
    format_monomial,
    is_standard,
    leaf_labels,
    parse_monomial,
    partial_compose,
    positions,
    random_shape,
    relabel,
    replace_at,
    shape_count,
    strip_labels,
    subtree_at,
    to_word,
    with_identity_labels,
)


def test_parse_basic():
    assert parse_monomial("(a h b)") == (H, 1, 2)
    assert parse_monomial("((a h b) v (c h d))") == (V, (H, 1, 2), (H, 3, 4))
    assert parse_monomial("x1") == 1
    assert parse_monomial("(x2 v x1)") == (V, 2, 1)


def test_parse_letters_first_occurrence_order():
    assert parse_monomial("(b h a)") == (H, 1, 2)


def test_parse_h_as_argument_name():
    # 'h' in argument position is an identifier, not an operation
    assert parse_monomial("((g h h) v i)") == (V, (H, 1, 2), 3)


def test_parse_errors_carry_offsets():
    with pytest.raises(MonomialSyntaxError):
        parse_monomial("(a h")
    with pytest.raises(MonomialSyntaxError):
        parse_monomial("(a x b)")
    with pytest.raises(MonomialSyntaxError):
        parse_monomial("(a h a)")
    with pytest.raises(MonomialSyntaxError):
        parse_monomial("(x1 h x1)")


def test_shared_name_table_across_sides():
    names = {}
    lhs = parse_monomial("((a h b) v c)", names=names)
    rhs = parse_monomial("((b h a) v c)", names=names)
    assert lhs == (V, (H, 1, 2), 3)
    assert rhs == (V, (H, 2, 1), 3)


def test_parse_assigns_first_occurrence_indices_to_many_words():
    # 2^14 leaves: x2, then word identifiers in a shuffled order, each taking
    # the least free index at its first occurrence; a second side shares
    # the table
    rng = random.Random(14)
    n = 2**14
    leaves = ["x2"] + [f"w{k}" for k in rng.sample(range(n), n - 1)]

    def balanced(leaves, op):
        if len(leaves) == 1:
            return leaves[0]
        mid, other = len(leaves) // 2, "v" if op == "h" else "h"
        return f"({balanced(leaves[:mid], other)} {op} {balanced(leaves[mid:], other)})"

    names = {}
    lhs = parse_monomial(balanced(leaves, "h"), names=names)
    assert leaf_labels(lhs) == (2, 1, *range(3, n + 1))
    assert names == {"x2": 2, leaves[1]: 1, **{w: k for k, w in enumerate(leaves[2:], 3)}}
    rhs = parse_monomial(balanced(leaves[::-1], "h"), names=names)
    assert leaf_labels(rhs) == leaf_labels(lhs)[::-1]
    assert len(names) == n


def test_print_parse_round_trip_exhaustive():
    for n in range(1, 7):
        for t in enumerate_shapes(n):
            assert parse_monomial(format_monomial(t)) == t


def test_to_word():
    assert to_word(1) == "x1"
    assert to_word((H, 1, 2)) == "H(x1,x2)"
    assert to_word((V, (H, 1, 2), 3)) == "V(H(x1,x2),x3)"


def test_partial_compose_unit_and_example():
    u = (V, 1, 2)
    assert partial_compose(1, 1, u) == u
    assert partial_compose((H, 1, 2), 1, (V, 1, 2)) == (H, (V, 1, 2), 3)
    assert partial_compose((H, 1, 2), 2, (V, 1, 2)) == (H, 1, (V, 2, 3))


def test_partial_compose_arity_and_standardness():
    rng = random.Random(7)
    for _ in range(200):
        t = random_shape(rng.randint(1, 5), rng)
        u = random_shape(rng.randint(1, 5), rng)
        i = rng.randint(1, arity(t))
        out = partial_compose(t, i, u)
        assert arity(out) == arity(t) + arity(u) - 1
        assert is_standard(out)


def test_partial_compose_sequential_axiom():
    # composing into the grafted slot associates: (t o_i u) o_{i+j-1} v
    # equals t o_i (u o_j v); disjoint slots commute with an index shift.
    rng = random.Random(11)
    for _ in range(100):
        t = random_shape(rng.randint(2, 4), rng)
        u = random_shape(rng.randint(2, 3), rng)
        v = random_shape(rng.randint(1, 3), rng)
        i = rng.randint(1, arity(t))
        j = rng.randint(1, arity(u))
        lhs = partial_compose(partial_compose(t, i, u), i + j - 1, v)
        rhs = partial_compose(t, i, partial_compose(u, j, v))
        assert lhs == rhs
    for _ in range(100):
        t = random_shape(rng.randint(2, 4), rng)
        u = random_shape(rng.randint(1, 3), rng)
        v = random_shape(rng.randint(1, 3), rng)
        m = arity(t)
        if m < 2:
            continue
        j = rng.randint(2, m)
        i = rng.randint(1, j - 1)
        lhs = partial_compose(partial_compose(t, i, u), j + arity(u) - 1, v)
        rhs = partial_compose(partial_compose(t, j, v), i, u)
        assert lhs == rhs


def test_symmetry_examples():
    assert apply_symmetry((H, 1, 2), FLIP_H) == (H, 2, 1)
    assert apply_symmetry((H, 1, 2), FLIP_V) == (H, 1, 2)
    assert apply_symmetry((H, 1, 2), TRANSPOSE) == (V, 1, 2)


def test_symmetry_involutions_and_conjugation():
    for n in range(1, 6):
        for t in enumerate_shapes(n):
            for g in (FLIP_H, FLIP_V, TRANSPOSE):
                assert g.apply(g.apply(t)) == t
            assert TRANSPOSE.apply(FLIP_H.apply(TRANSPOSE.apply(t))) == FLIP_V.apply(t)


def test_dihedral_group_structure():
    elements = dihedral_elements()
    assert len(elements) == 8
    sample = [t for n in (3, 4) for t in enumerate_shapes(n)]
    for g in elements:
        for k in elements:
            composed = g.compose(k)
            for t in sample[:20]:
                assert composed.apply(t) == g.apply(k.apply(t))
    # closure under composition
    table = {g.compose(k) for g in elements for k in elements}
    assert table == set(elements)


def test_shape_counts():
    # 2^(n-1) * Catalan(n-1), cross-checked against direct generation
    expected = [1, 2, 8, 40, 224, 1344, 8448, 54912]
    for n, want in enumerate(expected, start=1):
        assert shape_count(n) == want
        assert sum(1 for _ in enumerate_shapes(n)) == want
    assert catalan(5) == 42


def test_enumerate_shapes_limit():
    with pytest.raises(ValueError):
        list(enumerate_shapes(11))


def test_enumerate_shapes_order_is_pinned():
    # the order of enumerate_shapes(1..8); the hash was taken from the
    # hand-written recursion
    h = hashlib.sha256()
    for n in range(1, 9):
        for t in enumerate_shapes(n):
            h.update(repr(t).encode() + b"\n")
    assert h.hexdigest() == "417b5320b4009a06c35f9ab606c584c975088852d7a47725809d04fb3178fd9b"


def test_enumeration_is_deterministic_and_standard():
    first = list(enumerate_shapes(5))
    second = list(enumerate_shapes(5))
    assert first == second
    assert all(is_standard(t) for t in first)
    assert len(set(first)) == len(first)


def test_canonical_key_injective_on_enumeration():
    seen = {}
    for n in range(1, 6):
        for t in enumerate_shapes(n):
            key = canonical_key(t)
            assert key not in seen
            seen[key] = t
    assert canonical_key(1) != canonical_key((H, 1, 2))
    assert canonical_key((H, 1, 2)) != canonical_key((V, 1, 2))


def test_positions_and_replacement():
    t = (V, (H, 1, 2), 3)
    assert subtree_at(t, (0,)) == (H, 1, 2)
    assert subtree_at(t, (0, 1)) == 2
    assert replace_at(t, (1,), (H, 3, 4)) == (V, (H, 1, 2), (H, 3, 4))
    assert dict(positions(t))[(0,)] == (H, 1, 2)


def test_strip_and_relabel():
    t = (V, (H, 2, 1), 3)
    assert strip_labels(t) == (V, (H, 0, 0), 0)
    assert relabel(t, {1: 2, 2: 1}) == (V, (H, 1, 2), 3)
    assert leaf_labels(t) == (2, 1, 3)


def test_helpers_read_every_child_of_a_wide_node():
    wide = (H, 1, 2, 3)
    x = (V, 4, 5)
    assert canonical_key(wide) != canonical_key((H, 1, 2))
    assert relabel(wide, {3: 9}) == (H, 1, 2, 9)
    assert replace_at(wide, (2,), x) == (H, 1, 2, x)
    assert FLIP_H.apply(wide) == (H, 3, 2, 1)
    assert FLIP_V.apply(wide) == wide
    assert TRANSPOSE.apply(wide) == (V, 1, 2, 3)
    assert partial_compose(wide, 3, (V, 1, 2)) == (H, 1, 2, (V, 3, 4))
    assert strip_labels(wide) == (H, 0, 0, 0)
    assert with_identity_labels((H, 3, (V, 1, 4, 2))) == (H, 1, (V, 2, 3, 4))
    assert to_word((H, 1, (V, 2, 3, 4))) == "H(x1,V(x2,x3,x4))"
    assert list(positions(wide)) == [((), wide), ((0,), 1), ((1,), 2), ((2,), 3)]


def test_format_monomial_refuses_a_node_of_other_width():
    for t in ((H, 1, 2, 3), (V, 1, (H, 2, 3, 4)), (H, 1)):
        with pytest.raises(ValueError):
            format_monomial(t)


def test_canonical_key_injective_on_binary_and_alternating_trees():
    everything = set()
    for n in range(1, 8):
        everything.update(enumerate_shapes(n))
        everything.update(enumerate_alternating(n))
    assert len(everything) == 11995
    assert len({canonical_key(t) for t in everything}) == 11995


def test_parser_refuses_nesting_past_the_limit():
    def comb(depth):
        text = "x1"
        for k in range(2, depth + 2):
            text = f"({text} {'hv'[k % 2]} x{k})"
        return text

    assert arity(parse_monomial(comb(NESTING_LIMIT))) == NESTING_LIMIT + 1
    with pytest.raises(MonomialSyntaxError, match="nesting deeper than"):
        parse_monomial(comb(NESTING_LIMIT + 1))


@given(st.text(alphabet="x12\u00b2\u0662 hv()", max_size=40))
@example("(x\u00b2 h x1)")
@example("(x\u0662 h x1)")
def test_parser_returns_a_tree_or_a_syntax_error(text):
    try:
        t = parse_monomial(text)
    except MonomialSyntaxError:
        return
    assert is_standard(t)


def test_parser_reads_leaf_indices_in_decimal_digits_only():
    assert parse_monomial("(x\u0662 h x1)") == (H, 2, 1)  # an Arabic-Indic 2
    with pytest.raises(MonomialSyntaxError, match="leaf index 1 already used"):
        parse_monomial("(x\u00b2 h x1)")  # a superscript two names a leaf
    with pytest.raises(MonomialSyntaxError, match="do not form a permutation"):
        parse_monomial("(x1 h x9)")


@pytest.mark.parametrize("zeros", [0, 5_000])
def test_parser_refuses_a_leaf_index_with_thousands_of_digits(zeros):
    word = "x" + "0" * zeros + "9" * 5_000
    with pytest.raises(MonomialSyntaxError, match="exceeds the number of leaves") as err:
        parse_monomial(f"(x1 h {word})")
    assert err.value.offset == 6


def test_parser_drops_thousands_of_leading_zeros():
    assert parse_monomial("(x" + "0" * 4_999 + "2 v x1)") == (V, 2, 1)
