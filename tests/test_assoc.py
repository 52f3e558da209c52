import hashlib
import random

import pytest

from medial.assoc import (
    assoc_class_size,
    binary_representatives,
    enumerate_alternating,
    format_alternating,
    is_alternating,
    right_comb,
    to_alternating,
)
from medial.rewrite import ASSOC_FAMILIES, closure
from medial.trees import (
    H,
    V,
    arity,
    dihedral_elements,
    enumerate_shapes,
    leaf_labels,
    opposite,
    partial_compose,
    random_shape,
    relabel,
    strip_labels,
    with_identity_labels,
)


def test_flattening_examples():
    assert to_alternating((H, (H, 1, 2), 3)) == (H, 1, 2, 3)
    assert to_alternating((H, 1, (V, 2, 3))) == (H, 1, (V, 2, 3))
    assert to_alternating(1) == 1


def test_alternating_invariant_holds():
    for n in range(1, 7):
        for t in enumerate_shapes(n):
            a = to_alternating(t)
            assert is_alternating(a)
            assert arity(a) == n


def test_flattening_is_a_fixpoint():
    for n in range(1, 6):
        for t in enumerate_shapes(n):
            a = to_alternating(t)
            assert to_alternating(right_comb(a)) == a


def test_binary_representatives_of_leaf():
    assert list(binary_representatives(1)) == [1]


def test_binary_representatives_of_flat_node():
    # Catalan(2) = 2 bracketings; cross-checked by filtering all shapes
    reps = set(binary_representatives((H, 1, 2, 3)))
    assert reps == {(H, (H, 1, 2), 3), (H, 1, (H, 2, 3))}
    oracle = {t for t in enumerate_shapes(3) if to_alternating(t) == (H, 1, 2, 3)}
    assert oracle == reps


def test_representatives_are_exact_fibers():
    for n in range(1, 6):
        by_class = {}
        for t in enumerate_shapes(n):
            by_class.setdefault(to_alternating(t), set()).add(t)
        for a, members in by_class.items():
            reps = set(binary_representatives(a))
            assert reps == members
            assert len(reps) == assoc_class_size(a)
            assert right_comb(a) in reps


def test_binary_representatives_order_is_pinned():
    # binary_representatives(a), in order, for every alternating tree to
    # arity 7; the hash was taken from the hand-written recursion
    h = hashlib.sha256()
    for n in range(1, 8):
        for a in enumerate_alternating(n):
            h.update(repr(tuple(binary_representatives(a))).encode() + b"\n")
    assert h.hexdigest() == "cd1d851b42d661314a941f45f8536b79a07227c6a04d38d7eaec60548673811a"


def test_section_property():
    for n in range(1, 6):
        for t in enumerate_shapes(n):
            assert t in set(binary_representatives(to_alternating(t)))


def test_fibers_partition_the_shapes():
    for n in range(1, 7):
        total = 0
        for a in enumerate_alternating(n):
            total += assoc_class_size(a)
        assert total == sum(1 for _ in enumerate_shapes(n))


def test_alternating_counts_match_schroder():
    expected = {1: 1, 2: 2, 3: 6, 4: 22, 5: 90, 6: 394, 7: 1806}
    for n, want in expected.items():
        assert sum(1 for _ in enumerate_alternating(n)) == want


def test_enumerate_alternating_is_deterministic():
    assert list(enumerate_alternating(5)) == list(enumerate_alternating(5))
    seen = set(enumerate_alternating(5))
    assert len(seen) == 90
    assert all(leaf_labels(a) == tuple(range(1, 6)) for a in seen)


def _recursive_rooted(op, size, offset):
    # the enumerator before the per-call tables, kept as the order oracle
    for parts in _recursive_sequences(op, size, offset, top=True):
        yield (op,) + parts


def _recursive_sequences(op, size, offset, top):
    low = 2 if top else 1
    if not top and size == 0:
        yield ()
        return
    for first_size in range(1, size - low + 2):
        if first_size == 1:
            firsts = iter((offset + 1,))
        else:
            firsts = _recursive_rooted(opposite(op), first_size, offset)
        rest_size = size - first_size
        for first in firsts:
            if rest_size == 0:
                yield (first,)
            else:
                for rest in _recursive_sequences(op, rest_size, offset + first_size, top=False):
                    yield (first,) + rest


def _recursive_alternating(n):
    if n == 1:
        yield 1
        return
    for op in (H, V):
        yield from _recursive_rooted(op, n, 0)


def test_enumerate_alternating_matches_recursive_order():
    # census draws its inputs by index, so the order is part of the contract
    for n in range(1, 10):
        assert list(enumerate_alternating(n)) == list(_recursive_alternating(n))


def test_alternating_counts_match_schroder_to_arity_11():
    expected = {8: 8558, 9: 41586, 10: 206098, 11: 1037718}
    for n, want in expected.items():
        assert sum(1 for _ in enumerate_alternating(n)) == want


def test_enumerate_alternating_limit():
    with pytest.raises(ValueError):
        list(enumerate_alternating(13))


def test_equal_normal_forms_iff_assoc_connected():
    for n in range(2, 6):
        shapes = list(enumerate_shapes(n))
        for t in random.Random(3).sample(shapes, min(12, len(shapes))):
            members = closure(t, families=ASSOC_FAMILIES).members
            a = to_alternating(t)
            for u in shapes:
                assert (to_alternating(u) == a) == (u in members)


def test_right_comb_is_canonical_bracketing():
    rng = random.Random(5)
    for _ in range(100):
        t = random_shape(rng.randint(1, 8), rng)
        a = to_alternating(t)
        comb = right_comb(a)
        assert to_alternating(comb) == a


def test_format_alternating():
    assert format_alternating((H, 1, 2, 3)) == "(x1 x2 x3)_h"
    assert format_alternating((V, 1, (H, 2, 3))) == "(x1 (x2 x3)_h)_v"


def test_tree_helpers_commute_with_flattening():
    # the trees helpers read any width, so each gives the same alternating
    # tree whether it runs before or after to_alternating
    rng = random.Random(31)
    for _ in range(300):
        t = random_shape(rng.randint(1, 9), rng)
        a = to_alternating(t)
        assert to_alternating(a) == a
        for g in dihedral_elements():
            assert to_alternating(g.apply(t)) == g.apply(a)
        images = list(range(1, arity(t) + 1))
        rng.shuffle(images)
        sigma = dict(zip(range(1, arity(t) + 1), images))
        r = relabel(t, sigma)
        assert to_alternating(r) == relabel(a, sigma)
        assert to_alternating(with_identity_labels(r)) == with_identity_labels(to_alternating(r))
        assert to_alternating(strip_labels(t)) == strip_labels(a)
        u = random_shape(rng.randint(1, 4), rng)
        i = rng.randint(1, arity(t))
        # grafting u under a node of its root operation needs a final flatten
        want = to_alternating(partial_compose(t, i, u))
        assert to_alternating(partial_compose(a, i, to_alternating(u))) == want
