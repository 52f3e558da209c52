import functools
import hashlib
import random
import re
import sys
from itertools import islice, tee

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medial import quotient
from medial.assoc import (
    binary_representatives,
    comb,
    enumerate_alternating,
    right_comb,
    to_alternating,
)
from medial.catalog import BM9, CASE2, CONFIG_A, CONFIG_B, CONFIG_C, KOCK16
from medial.geometry import grid_partitions, realize, representative
from medial.quotient import (
    EquivalenceResult,
    _Store,
    alt_successors,
    check_equivalence,
    expand_path,
    find_commutations,
    interchange_neighbours_exist,
    scan_monomials,
)
from medial.rewrite import (
    ALL_FAMILIES,
    BACKWARD,
    DEFAULT_BUDGET,
    FORWARD,
    INTERCHANGE,
    INTERCHANGE_ONLY,
    Frontier,
    RewriteError,
    RewriteStep,
    apply_redex,
    assoc_path,
    certificate_from_path,
    closure,
    comb_steps,
    replay_certificate,
    successors,
)
from medial.trees import (
    H,
    V,
    _map_leaves,
    check_binary,
    enumerate_shapes,
    is_leaf,
    leaf_labels,
    opposite,
    parse_monomial,
    random_shape,
    relabel,
    replace_at,
    strip_labels,
)


def _binary_route_neighbours(a):
    out = set()
    for rep in binary_representatives(a):
        for _, res in successors(rep, families=INTERCHANGE_ONLY):
            out.add(to_alternating(res))
    return out


def _moves(tree):
    """The moves of ``tree``, in the order of ``_Store.neighbours``."""
    return [move for move, _ in alt_successors(tree)]


def _split_rep(op, child, split):
    """Binary representative of ``child`` whose root splits its list at
    ``split``; children are combed canonically below the split."""
    parts = tuple(map(right_comb, child[1:]))
    return (op, comb(op, parts[:split]), comb(op, parts[split:]))


def _comb_position(j, m):
    """Position of part ``j`` of ``m`` in their right comb."""
    return (1,) * j + (0,) * (j < m - 1)


def _interchange(tree, move, tree_comb):
    """The binary interchange the move stands for: ``tree_comb``, which is
    ``right_comb(tree)``, with the moved node rebracketed around the redex,
    and the step on it, whose direction the node's operation gives."""
    path, i, sa, sb = move
    pos, node = (), tree
    for j in path:
        pos += _comb_position(j, len(node) - 1)
        node = node[j + 1]
    op, kids = node[0], node[1:]
    opp = opposite(op)
    parts = [right_comb(c) for c in kids]
    parts[i : i + 2] = [(op, _split_rep(opp, kids[i], sa), _split_rep(opp, kids[i + 1], sb))]
    rep = replace_at(tree_comb, pos, comb(op, parts))
    direction = FORWARD if op == V else BACKWARD
    return rep, RewriteStep(INTERCHANGE, direction, pos + _comb_position(i, len(parts)))


def _expand_move(u, move):
    """The tree-walking expansion, the oracle for the closed form: rotate
    into a representative holding the redex, apply it, comb the result; the
    steps and the alternating tree reached."""
    u_comb = right_comb(u)
    rep, step = _interchange(u, move, u_comb)
    after = apply_redex(rep, step)
    return assoc_path(u_comb, rep) + (step,) + comb_steps(after)[1], to_alternating(after)


def apply_move(tree, move):
    """The move applied to nested tuples, by the oracle: its binary
    interchange, flattened."""
    return _expand_move(tree, move)[1]


def _closed_form(u, move):
    """``quotient._move_steps`` for a move at the alternating tree ``u``."""
    store = _Store()
    return quotient._move_steps(store.keys, store.state(right_comb(u)), move)


def expand_move(u, move):
    """The closed-form steps of a move at ``u`` and the alternating tree
    they lead to."""
    steps = _closed_form(u, move)
    return steps, to_alternating(certificate_from_path(right_comb(u), steps).final)


def _assert_closed_form_is_the_oracle(a):
    """Every move of the alternating tree ``a``; returns their number."""
    moves = _moves(a)
    for move in moves:
        assert tuple(_closed_form(a, move)) == _expand_move(a, move)[0]
    return len(moves)


def test_closed_form_equals_the_tree_walking_expansion():
    trees = (a for n in range(1, 9) for a in enumerate_alternating(n))
    assert sum(map(_assert_closed_form_is_the_oracle, trees)) == 10562


def _random_alternating(n, op, rng, offset=0):
    """A seeded alternating tree of ``n`` leaves rooted at ``op``: its leaves
    cut into two to five runs, each run a child rooted at the other
    operation, or a leaf."""
    if n == 1:
        return offset + 1
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(n - 1, 4))))
    bounds = list(zip([0, *cuts], [*cuts, n]))
    return (op, *(_random_alternating(b - a, opposite(op), rng, offset + a) for a, b in bounds))


@settings(max_examples=60, deadline=None)
@given(st.integers(9, 12), st.sampled_from((H, V)), st.randoms(use_true_random=False))
def test_closed_form_equals_the_tree_walking_expansion_to_arity_12(n, op, rng):
    # the drawn tree, then up to three trees a random walk of moves reaches
    a = _random_alternating(n, op, rng)
    for _ in range(4):
        _assert_closed_form_is_the_oracle(a)
        neighbours = [v for _, v in alt_successors(a)]
        if not neighbours:
            break
        a = rng.choice(neighbours)


def test_moves_match_binary_enumeration_exhaustively():
    for n in range(2, 6):
        for t in enumerate_shapes(n):
            a = to_alternating(t)
            assert {s for _, s in alt_successors(a)} == _binary_route_neighbours(a)


def test_moves_match_binary_enumeration_random_larger():
    rng = random.Random(21)
    for _ in range(25):
        a = to_alternating(random_shape(rng.randint(6, 7), rng))
        assert {s for _, s in alt_successors(a)} == _binary_route_neighbours(a)


def _tuple_alt_successors(tree):
    """The tuple-walking enumeration the interned search replaced: a
    depth-first walk, local moves of a node before those of its children,
    children from last to first, each move applied by ``apply_move``."""
    stack = [((), tree)]
    while stack:
        path, node = stack.pop()
        if is_leaf(node):
            continue
        opp = opposite(node[0])
        kids = node[1:]
        for j, child in enumerate(kids):
            if not is_leaf(child):
                stack.append((path + (j,), child))
        for i in range(len(kids) - 1):
            A, B = kids[i], kids[i + 1]
            if is_leaf(A) or is_leaf(B):
                continue
            if A[0] != opp or B[0] != opp:
                continue
            for sa in range(1, len(A) - 1):
                for sb in range(1, len(B) - 1):
                    move = (path, i, sa, sb)
                    yield move, apply_move(tree, move)


def test_moves_match_tuple_enumeration_in_order():
    # arity 8 is the first with two sibling subtrees that both have moves,
    # which pins the order of the children's lists
    rng = random.Random(24)
    for n in range(1, 9):
        for a in enumerate_alternating(n):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            a = relabel(a, dict(zip(range(1, n + 1), images)))
            assert list(alt_successors(a)) == list(_tuple_alt_successors(a))
    for a in enumerate_alternating(6):
        stripped = strip_labels(a)
        assert list(alt_successors(stripped)) == list(_tuple_alt_successors(stripped))


@settings(max_examples=60, deadline=None)
@given(st.integers(9, 12), st.sampled_from((H, V)), st.randoms(use_true_random=False))
def test_moves_match_tuple_enumeration_in_order_to_arity_12(n, op, rng):
    # past the exhaustive test's arity 8: the drawn tree, then up to three
    # trees a random walk of moves reaches, all in one store
    store = _Store()
    a = _random_alternating(n, op, rng)
    for _ in range(4):
        want = list(_tuple_alt_successors(a))
        assert list(alt_successors(a)) == want
        got = store.neighbours(store.state(right_comb(a)))
        assert [store.tree(k) for k in got] == [v for _, v in want]
        if not want:
            break
        a = rng.choice(want)[1]


def test_store_successors_follow_moves_in_order():
    # a traced state's move is read off its index in the parent's successor
    # list, so the interned lists and the tuple-level moves must agree
    # entry by entry; one store for all trees also exercises the memo
    rng = random.Random(25)
    trees = []
    for n in range(1, 9):
        for a in enumerate_alternating(n):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            trees.append(relabel(a, dict(zip(range(1, n + 1), images))))
    trees += [strip_labels(a) for a in enumerate_alternating(6)]
    store = _Store()
    for t in trees:
        got = [store.tree(c) for c in store.neighbours(store.state(right_comb(t)), True)]
        assert got == [apply_move(t, m) for m in _moves(t)]
        # the search's view: the same trees, in the same order, as states
        key = store.state(right_comb(t))
        assert [store.tree(k) for k in store.neighbours(key)] == got


def test_search_interns_fewer_nodes_than_it_has_states():
    # a state is its root's key and is not interned; only subtrees are
    store, root = quotient._rooted(KOCK16.lhs)
    scan, search = quotient._scan(KOCK16.lhs, 2000, store, root)
    assert not scan.exhausted
    assert len(store) == len(store.keys) < len(search.parents)
    assert all(not is_leaf(s) and s not in store for s in search.parents)


def test_same_shape_agrees_with_stripped_trees():
    rng = random.Random(26)
    store = _Store()
    ids = [store.state(random_shape(rng.randint(1, 9), rng)) for _ in range(300)]
    # a shape that recurs with other labels, so that true answers occur
    ids += [store.state(relabel(t, {1: 2, 2: 1})) for t in (BM9.lhs, CONFIG_A.lhs)]
    ids += [store.state(BM9.lhs), store.state(CONFIG_A.lhs)]
    pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(3000)]
    pairs += [(a, b) for a in ids[-4:] for b in ids[-4:]]
    leaf, node = 1, store[store.state((H, 1, 2))]
    wide = store[store.state((H, 1, (H, 2, 3)))]
    pairs += [(node, node), (leaf, node), (node, leaf), (node, wide), (leaf, 2)]
    answers = set()
    shape = quotient._Relabel(store, dict.fromkeys(range(1, 11), 0))
    for a, b in pairs:
        want = strip_labels(store.tree(a)) == strip_labels(store.tree(b))
        assert store.same_shape(a, b) == want
        assert (shape.state(a) == shape.state(b)) == want
        answers.add(want)
    assert answers == {True, False}
    assert not store.same_shape(node, wide)
    assert store.same_shape(node, node) and store.same_shape(leaf, 2)


def test_relabel_refuses_a_label_sigma_does_not_map():
    # configA's label 10 is missing from sigma; it is not the node id ~10
    store = _Store()
    state = store.state(CONFIG_A.lhs)
    with pytest.raises(KeyError):
        quotient._Relabel(store, dict.fromkeys(range(1, 10), 0)).state(state)
    shape = quotient._Relabel(store, dict.fromkeys(range(1, 11), 0)).state(state)
    assert store.tree(shape) == strip_labels(CONFIG_A.lhs)  # configA's lhs is alternating


def test_search_counts_are_pinned():
    # the breadth-first order decides these counts and the certificates
    expanded = {KOCK16: 35428, BM9: 125, CONFIG_B: 324, CASE2: 291}
    for rel, want in expanded.items():
        assert check_equivalence(rel.lhs, rel.rhs).expanded == want
    for t in (CONFIG_A.lhs, CONFIG_C.monomial):
        scan = find_commutations(t)
        assert (scan.class_size, scan.expanded) == (692, 692)


def _random_bracketing(a, rng):
    """A seeded binary representative of the alternating tree ``a``."""
    if is_leaf(a):
        return a
    parts = [_random_bracketing(c, rng) for c in a[1:]]
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i : i + 2] = [(a[0], parts[i], parts[i + 1])]
    return parts[0]


def _arity9_draws(rng):
    trees = list(enumerate_alternating(9))
    while True:
        images = list(range(1, 10))
        rng.shuffle(images)
        a = relabel(rng.choice(trees), dict(zip(range(1, 10), images)))
        yield _random_bracketing(a, rng)


def test_witness_certificates_are_pinned():
    # every witness certificate byte for byte: a kernel or certificate
    # change that keeps the counts but moves a step shows here
    draws, scanned = tee(_arity9_draws(random.Random(27)))
    with_witnesses = (t for t, scan in zip(draws, scan_monomials(scanned)) if scan.witnesses)
    monomials = [BM9.lhs, CONFIG_A.lhs, CONFIG_C.monomial, CASE2.lhs]
    monomials += islice(with_witnesses, 64)
    h = hashlib.sha256()
    count = 0
    for t in monomials:
        for w in find_commutations(t):
            h.update(repr(w.permutation).encode() + w.certificate.dump().encode())
            count += 1
    assert count == 72
    assert h.hexdigest() == "d9ab6c857a8fdcb4a8939ce9590dd8eacfc5a488400a3bcc20c4d8d1177a212d"


def test_searches_share_no_state_between_calls():
    first = check_equivalence(BM9.lhs, BM9.rhs)
    assert check_equivalence(BM9.lhs, BM9.rhs) == first
    scan = find_commutations(CONFIG_A.lhs)
    assert find_commutations(BM9.lhs).witnesses
    assert find_commutations(CONFIG_A.lhs) == scan


def test_single_argument_has_no_moves():
    assert list(alt_successors(1)) == []
    scan = find_commutations(1)
    assert (scan.witnesses, scan.exhausted, scan.expanded, scan.class_size) == ((), True, 1, 1)


def test_collapse_move():
    # a two-child node whose pair merges must splice into its parent
    a = to_alternating(parse_monomial("((a h b) v (c h d))"))
    succ = dict(alt_successors(a))
    assert set(succ.values()) == {(H, (V, 1, 3), (V, 2, 4))}


def test_expand_move_produces_replayable_segments():
    rng = random.Random(22)
    checked = 0
    while checked < 60:
        t = random_shape(rng.randint(3, 7), rng)
        u = to_alternating(t)
        moves = list(alt_successors(u))
        if not moves:
            continue
        move, expected = rng.choice(moves)
        steps, v = expand_move(u, move)
        assert v == expected
        cert = certificate_from_path(right_comb(u), steps)
        assert cert.final == right_comb(v)
        assert sum(1 for s in steps if s.rule == INTERCHANGE) == 1
        checked += 1


def test_expand_path_rejects_a_broken_chain():
    t = parse_monomial("(((a h b) v (c h d)) h ((e h f) v (g h k)))")
    u = to_alternating(t)
    (m1, v1), (m2, v2) = list(alt_successors(u))[:2]
    (m3, w), *_ = alt_successors(v1)
    store = _Store()
    u, v1, v2, x = (store.state(right_comb(a)) for a in (u, v1, v2, w))
    cert = expand_path(store, t, [u, v1, x])
    assert cert.final == right_comb(w)
    # the second move is taken at u again, not where the first one led
    with pytest.raises(RewriteError):
        expand_path(store, t, [u, v1, v2])
    # the first move is not taken at t's own alternating form
    with pytest.raises(RewriteError):
        expand_path(store, t, [v1, x])


def test_expand_path_names_the_states_no_move_joins():
    t = parse_monomial("(((a h b) v (c h d)) h ((e h f) v (g h k)))")
    store = _Store()
    u = store.state(t)
    v1, v2 = store.neighbours(u)[:2]
    assert v2 not in store.neighbours(v1)
    with pytest.raises(RewriteError, match="^no single move leads from state 1 to state 2 of the path$"):
        expand_path(store, t, [u, v1, v2])
    with pytest.raises(RewriteError, match="^no single move leads from state 0 to state 1 of the path$"):
        expand_path(store, t, [u, u])
    # an empty path is t's comb steps alone, as a one-state path is
    assert expand_path(store, t, []) == expand_path(store, t, [u])
    assert expand_path(store, t, []).steps == comb_steps(t)[1]


def test_a_certificate_that_misses_its_target_is_an_error(monkeypatch):
    # a traced chain short of its last move must not become a certificate;
    # an explicit check, not an assert, so that python -O keeps it
    from medial import quotient

    monkeypatch.setattr(
        quotient, "expand_path", lambda store, t, chain: expand_path(store, t, chain[:-1])
    )
    with pytest.raises(RewriteError):
        find_commutations(CONFIG_A.lhs)
    with pytest.raises(RewriteError):
        check_equivalence(BM9.lhs, BM9.rhs)


def test_a_move_that_misses_its_landing_is_an_error(monkeypatch):
    # closed-form steps short of their last rotation out of the redex leave
    # the running comb off the next traced state's comb; no certificate may
    # come of them
    steps = quotient._move_steps
    landings = []

    def short(keys, state, move):
        out = steps(keys, state, move)
        if out[-1].rule != INTERCHANGE:
            del out[-1]
        return out

    def checked(store, t, chain):
        try:
            return expand_path(store, t, chain)
        except RewriteError as exc:
            landings.append(str(exc))
            raise

    monkeypatch.setattr(quotient, "_move_steps", short)
    monkeypatch.setattr(quotient, "expand_path", checked)
    with pytest.raises(RewriteError):
        find_commutations(CONFIG_A.lhs)
    with pytest.raises(RewriteError):
        check_equivalence(BM9.lhs, BM9.rhs)
    assert len(landings) == 2
    assert all(e.endswith("does not start where the chain stands") for e in landings)


@settings(max_examples=100, deadline=None)
@given(
    st.builds(random_shape, st.integers(3, 8), st.randoms(use_true_random=False)),
    st.randoms(use_true_random=False),
)
@example(BM9.lhs, random.Random(9))
def test_written_certificates_replay(t, rng):
    # expand_path applies each step once, as it writes it, and nothing
    # replays the result before it is returned; an independent replay does
    # here.  No class to arity 8 has a witness, so BM9 stands in for them
    for families in (None, INTERCHANGE_ONLY):
        for w in find_commutations(t, families=families):
            cert = w.certificate
            assert (cert.initial, cert.final) == (t, relabel(t, dict(enumerate(w.permutation, 1))))
            assert replay_certificate(cert)
    m = rng.choice(sorted(closure(t, budget=200).members, key=str))
    cert = check_equivalence(t, m).certificate
    assert (cert.initial, cert.final) == (t, m)
    assert replay_certificate(cert)


def test_check_equivalence_reflexive():
    t = parse_monomial("((a h b) v (c h d))")
    res = check_equivalence(t, t)
    assert res.found
    assert res.certificate.steps == ()


def test_check_equivalence_same_class_assoc_only():
    t = parse_monomial("((a h b) h c)")
    u = parse_monomial("(a h (b h c))")
    res = check_equivalence(t, u)
    assert res.found
    assert replay_certificate(res.certificate)
    assert res.certificate.interchange_count == 0


def test_check_equivalence_positive_small():
    names = {}
    t = parse_monomial("((a h b) v (c h d))", names=names)
    u = parse_monomial("((a v c) h (b v d))", names=names)
    res = check_equivalence(t, u)
    assert res.found
    assert replay_certificate(res.certificate)
    assert res.certificate.initial == t and res.certificate.final == u


def test_check_equivalence_proved_distinct():
    t = parse_monomial("((a h b) h c)")
    u = parse_monomial("((a v b) v c)")
    res = check_equivalence(t, u)
    assert not res.found
    assert res.proved_distinct


@pytest.mark.parametrize("comb_first", [True, False], ids=["comb-first", "kock16-first"])
def test_check_equivalence_stops_when_one_side_runs_dry(comb_first):
    # a flat h of 16 arguments has no interchange neighbours, so its class is
    # itself; it is proved distinct from kock16 without exhausting kock16's
    # class of about 25.4M states
    flat = comb(H, tuple(range(1, 17)))
    pair = (flat, KOCK16.lhs) if comb_first else (KOCK16.lhs, flat)
    res = check_equivalence(*pair, budget=2000)
    assert not res.found
    assert res.proved_distinct
    assert res.expanded <= 2


def test_check_equivalence_budget():
    res = check_equivalence(BM9.lhs, BM9.rhs, budget=1)
    assert not res.found
    assert not res.proved_distinct


def test_check_equivalence_validates_arguments():
    with pytest.raises(ValueError):
        check_equivalence((H, 1, 2), (H, (V, 1, 2), 3))
    with pytest.raises(ValueError):
        check_equivalence((H, 1, 2), relabel((H, 1, 2), {2: 3}))


@pytest.mark.parametrize(
    "t1, t2, leaf",
    [
        ((H, -1, 2), (H, 2, -1), "-1"),
        # the medial law, which the binary closure proves in one step
        ((H, (V, -1, -2), (V, -3, -4)), (V, (H, -1, -3), (H, -2, -4)), "-1"),
        ((H, 1.5, 2), (H, 2, 1.5), "1.5"),
    ],
    ids=["negative", "medial-negative", "float"],
)
def test_check_equivalence_refuses_leaves_the_store_cannot_hold(t1, t2, leaf):
    # a node id is a negative int, so a negative or non-int label would be
    # misread as one
    with pytest.raises(ValueError, match=f"^leaf {re.escape(leaf)} is not an int >= 0$"):
        check_equivalence(t1, t2)


_labelled_trees = st.recursive(
    st.integers(-3, 10),
    lambda kids: st.builds(
        lambda op, cs: (op, *cs), st.sampled_from((H, V)), st.lists(kids, min_size=1, max_size=3)
    ),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(_labelled_trees, st.randoms(use_true_random=False))
def test_check_equivalence_returns_or_refuses_any_labelled_tree(t, rng):
    # nodes of one to three children, labels that may be negative or
    # repeated: a result, or a ValueError before any search
    labels = list(leaf_labels(t))
    rng.shuffle(labels)
    shuffled = iter(labels)
    try:
        check_equivalence(t, _map_leaves(t, lambda _: next(shuffled)), budget=500)
    except ValueError:
        pass


def test_bm9_equivalence_and_certificate():
    res = check_equivalence(BM9.lhs, BM9.rhs)
    assert res.found
    assert replay_certificate(res.certificate)


def _plain_check_equivalence(t1, t2, budget=DEFAULT_BUDGET):
    """``check_equivalence`` with the kernel expanding both sides, as it was
    before the second side of a pair (t, sigma(t)) replayed the first."""
    store = _Store()
    u1, u2 = store.state(t1), store.state(t2)
    if u1 == u2:
        return EquivalenceResult(quotient._certificate(store, t1, [], t2, []), False, 0)
    sides = (Frontier(store.neighbours, u1), Frontier(store.neighbours, u2))

    def expanded():
        return sides[0].expanded + sides[1].expanded

    while sides[0].queue and sides[1].queue:
        side = 0 if len(sides[0].queue) <= len(sides[1].queue) else 1
        mine, other = sides[side], sides[1 - side]
        for _ in range(len(mine.queue)):
            if expanded() >= budget:
                return EquivalenceResult(None, False, expanded())
            for nxt in mine.expand():
                if nxt in other.parents:
                    fwd, bwd = (s.path(nxt) for s in sides)
                    cert = quotient._certificate(store, t1, fwd, t2, bwd)
                    return EquivalenceResult(cert, False, expanded())
    return EquivalenceResult(None, True, expanded())


def _assert_agrees_with_the_plain_search(t1, t2, budget):
    got, want = check_equivalence(t1, t2, budget), _plain_check_equivalence(t1, t2, budget)
    assert (got.found, got.proved_distinct, got.expanded) == (
        want.found,
        want.proved_distinct,
        want.expanded,
    )
    if want.found:
        assert got.certificate.dump() == want.certificate.dump()
    return got


class _CountingMirror(quotient._Mirror):
    made = 0
    replayed = 0

    def __init__(self, store, sigma):
        super().__init__(store, sigma)
        _CountingMirror.made += 1

    def replay(self, state):
        _CountingMirror.replayed += 1
        return super().replay(state)


def _sigma_pairs():
    """Pairs (t, sigma(t)) with distinct labels: seeded random shapes of arity
    5 to 9 against a random sigma, mostly outside t's class, and arity-9 draws
    against one of their commutations, inside it; sigma(t) is rebracketed."""
    rng = random.Random(53)
    pairs = [(rel.lhs, rel.rhs) for rel in (BM9, CONFIG_B, CASE2)]
    for _ in range(30):
        n = rng.randint(5, 9)
        t = random_shape(n, rng)
        images = list(range(1, n + 1))
        while images == sorted(images):
            rng.shuffle(images)
        pairs.append((t, relabel(t, dict(zip(range(1, n + 1), images)))))
    draws, scanned = tee(_arity9_draws(random.Random(54)))
    with_witnesses = ((t, scan) for t, scan in zip(draws, scan_monomials(scanned)) if scan.witnesses)
    for t, scan in islice(with_witnesses, 12):
        perm = rng.choice(scan.witnesses).permutation
        pairs.append((t, relabel(t, dict(enumerate(perm, 1)))))
    return [(t, _random_bracketing(to_alternating(u), rng)) for t, u in pairs]


def test_replayed_side_agrees_with_the_plain_search(monkeypatch):
    # the oracle expands both sides with the kernel; the sigma side must
    # discover the same states in the same order, so every count and every
    # certificate byte is the same
    monkeypatch.setattr(quotient, "_Mirror", _CountingMirror)
    monkeypatch.setattr(_CountingMirror, "made", 0)
    monkeypatch.setattr(_CountingMirror, "replayed", 0)
    pairs = _sigma_pairs()
    outcomes = set()
    for budget in (DEFAULT_BUDGET, 1, 7, 50):
        for t, u in pairs:
            res = _assert_agrees_with_the_plain_search(t, u, budget)
            outcomes.add((budget, res.found, res.proved_distinct))
    assert _CountingMirror.made == 4 * len(pairs)
    assert _CountingMirror.replayed > 0
    # met, proved distinct and cut short by the budget all occur
    assert {(DEFAULT_BUDGET, True, False), (DEFAULT_BUDGET, False, True)} <= outcomes
    assert (7, False, False) in outcomes and (50, False, True) in outcomes


def test_repeated_labels_take_the_plain_search(monkeypatch):
    # with a repeated label, "the label at each position" is no map on
    # labels, so the sigma side is searched with the kernel
    def no_mirror(*args):
        raise AssertionError("a repeated-label pair was replayed")

    monkeypatch.setattr(quotient, "_Mirror", no_mirror)
    merge = {2: 1}
    pairs = [
        (relabel(BM9.lhs, merge), relabel(BM9.rhs, merge)),
        (relabel(CASE2.lhs, merge), relabel(CASE2.rhs, merge)),
        (relabel(CONFIG_A.lhs, merge), relabel(CONFIG_A.lhs, {2: 1, 1: 3, 3: 1})),
    ]
    for t, u in pairs:
        store = _Store()
        assert t != u and store.same_shape(store.state(t), store.state(u))
        for budget in (DEFAULT_BUDGET, 7):
            _assert_agrees_with_the_plain_search(t, u, budget)
    assert check_equivalence(*pairs[0]).found


def test_replay_refuses_a_missing_run():
    mirror = quotient._Mirror(_Store(), {1: 2, 2: 1})
    with pytest.raises(RewriteError):
        mirror.replay((H, 2, 1))


def test_a_wrong_replayed_image_is_a_rewrite_error(monkeypatch):
    # sigma composed with BM9's commutation (5 7): the replayed side's
    # images stay in the class, so the sides meet on one of them, and the
    # walk of that side's path finds no move to it
    mirror = quotient._Mirror.__init__
    tau = {5: 7, 7: 5}

    def skewed(self, store, sigma):
        mirror(self, store, {k: sigma[tau.get(k, k)] for k in sigma})

    monkeypatch.setattr(quotient._Mirror, "__init__", skewed)
    with pytest.raises(RewriteError, match="^no single move leads from state 0 to state 1 of the path$"):
        check_equivalence(BM9.lhs, BM9.rhs)


def test_find_commutations_none_for_small_arity():
    rng = random.Random(23)
    for _ in range(20):
        t = random_shape(rng.randint(2, 6), rng)
        scan = find_commutations(t)
        assert scan.exhausted
        assert scan.witnesses == ()
    # arity seven: still below the smallest commutative configuration
    for _ in range(10):
        t = random_shape(7, rng)
        scan = find_commutations(t)
        assert scan.exhausted
        assert scan.witnesses == ()


def test_find_commutations_config_a():
    scan = find_commutations(CONFIG_A.lhs)
    assert scan.exhausted
    perms = {w.permutation: w for w in scan}
    assert len(perms) == 1
    w = next(iter(perms.values()))
    assert w.is_transposition
    assert w.transposed_pair == CONFIG_A.transposition == (4, 7)
    assert replay_certificate(w.certificate)
    assert w.certificate.initial == CONFIG_A.lhs
    assert w.certificate.final == relabel(CONFIG_A.lhs, {4: 7, 7: 4})
    # witness members really are closure members at the binary level
    binary = closure(CONFIG_A.lhs, budget=10**6)
    assert binary.exhausted
    assert w.certificate.final in binary.members


@pytest.mark.parametrize(
    "t", [BM9.lhs, CONFIG_A.lhs, CONFIG_C.monomial], ids=["bm9", "configA", "configC"]
)
def test_binary_engine_witnesses_match_the_quotient_scan(t):
    # the plain binary closure under all three families is an independent
    # second path to the same group of commutations
    binary = quotient._find_commutations_binary(t, ALL_FAMILIES, DEFAULT_BUDGET)
    scan = find_commutations(t)
    assert binary.exhausted and scan.exhausted
    assert [w.permutation for w in binary] == [w.permutation for w in scan]
    assert len(binary.witnesses) == 1
    for w in binary:
        sigma = {i + 1: img for i, img in enumerate(w.permutation)}
        assert w.monomial == t
        assert w.certificate.initial == t
        assert w.certificate.final == relabel(t, sigma)
        assert replay_certificate(w.certificate)


def test_commutation_scan_compares_each_slot_and_child_once(monkeypatch):
    # the scan compares children of candidate states with the start's child
    # in the same slot, never whole states, and each (slot, child id) once
    calls = []
    same_shape = _Store.same_shape

    def recorded(self, a, b):
        calls.append((self, a, b))
        return same_shape(self, a, b)

    monkeypatch.setattr(_Store, "same_shape", recorded)
    scan = find_commutations(CASE2.lhs)
    assert scan.exhausted and scan.witnesses
    (store,) = {id(s): s for s, _, _ in calls}.values()
    root = store.state(CASE2.lhs)
    pairs = [(a, b) for _, a, b in calls]
    assert all(b in root[1:] for _, b in pairs)  # a child of the start, not the start
    # the start's children are distinct ids, so b names the slot
    assert len(set(root[1:])) == len(root) - 1
    assert pairs and len(set(pairs)) == len(pairs)


def _scan_draws():
    """Seeded arity-9 and arity-10 draws; the arity-10 draws are random
    binary shapes, so their roots take every width."""
    yield from islice(_arity9_draws(random.Random(28)), 100)
    rng = random.Random(29)
    for _ in range(100):
        images = list(range(1, 11))
        rng.shuffle(images)
        yield relabel(random_shape(10, rng), dict(zip(range(1, 11), images)))


def test_scan_hands_witnesses_exactly_the_same_shape_states(monkeypatch):
    # the slot-by-slot filter against the plain one: every state other than
    # the start whose stripped tree is the start's, in discovery order, and
    # no call at all when there is none
    handed = []
    witnesses = quotient._witnesses

    def captured(t, found, certify):
        found = list(found)
        handed.append(found)
        return witnesses(t, found, certify)

    monkeypatch.setattr(quotient, "_witnesses", captured)
    named = [BM9.lhs, CONFIG_A.lhs, CONFIG_B.lhs, CASE2.lhs, CONFIG_C.monomial]
    draws = with_members = wide = 0
    for t in [*named, *_scan_draws()]:
        handed.clear()
        store, root = quotient._rooted(t)
        _, search = quotient._scan(t, DEFAULT_BUDGET, store, root)
        shape = strip_labels(store.tree(root))
        want = [s for s in search.parents if s != root and strip_labels(store.tree(s)) == shape]
        assert handed == ([[(store.tree(s), s) for s in want]] if want else [])
        draws += 1
        with_members += bool(want)
        wide += bool(want) and len(root) > 3
    assert draws == 205
    assert with_members > len(named) and wide > 0  # a start of width three or more


@pytest.mark.parametrize(
    "mapping", [{k: k + 10 for k in range(1, 10)}, {2: 1}], ids=["shifted", "repeated"]
)
def test_commutation_scans_refuse_labels_other_than_1_to_n(mapping, monkeypatch):
    t = relabel(BM9.lhs, mapping)

    def no_search(*args, **kwargs):
        raise AssertionError("a search started")

    monkeypatch.setattr(quotient, "Frontier", no_search)
    monkeypatch.setattr(quotient, "closure", no_search)
    for scan in (
        lambda: find_commutations(t),
        lambda: find_commutations(t, families=INTERCHANGE_ONLY),
        lambda: list(scan_monomials([t])),
    ):
        with pytest.raises(ValueError, match=re.escape(f"leaf labels {leaf_labels(t)}")) as exc:
            scan()
        assert not isinstance(exc.value, RewriteError)


def test_find_commutations_budget_flag():
    scan = find_commutations(CONFIG_A.lhs, budget=5)
    assert not scan.exhausted


def test_check_equivalence_on_random_walk_pairs():
    # a monomial is always provably equal to anything reachable from it
    rng = random.Random(31)
    from medial.rewrite import apply_redex, find_redexes

    for _ in range(40):
        t = random_shape(rng.randint(3, 7), rng)
        u = t
        for _ in range(rng.randint(1, 12)):
            redexes = find_redexes(u)
            if not redexes:
                break
            u = apply_redex(u, rng.choice(redexes))
        res = check_equivalence(t, u)
        assert res.found
        cert = res.certificate
        assert cert.initial == t and cert.final == u
        assert replay_certificate(cert)


def test_find_commutations_agrees_with_binary_closure_scan():
    # the quotient scan must report exactly the permutations visible as
    # same-shape members of the plain binary closure
    from medial.trees import leaf_labels, strip_labels

    rng = random.Random(41)
    cases = [parse_monomial("(((a h b) v (c h (d v e))) h ((f v g) h (i h j)))")]
    cases += [random_shape(rng.randint(5, 7), rng) for _ in range(12)]
    for t in cases:
        scan = find_commutations(t, budget=10**6)
        binary = closure(t, budget=10**6)
        assert scan.exhausted and binary.exhausted
        shape = strip_labels(t)
        labels = leaf_labels(t)
        expected = set()
        for member in binary.members:
            if strip_labels(member) == shape:
                image = dict(zip(labels, leaf_labels(member)))
                perm = tuple(image[k] for k in sorted(image))
                if perm != tuple(sorted(image)):
                    expected.add(perm)
        assert {w.permutation for w in scan} == expected


def test_check_equivalence_agrees_with_binary_closure():
    rng = random.Random(42)
    for _ in range(15):
        t = random_shape(5, rng)
        members = closure(t).members
        # positive: any member is provably equal
        u = rng.choice(sorted(members, key=str))
        assert check_equivalence(t, u).found
        # negative: a same-leaf monomial outside the closure is distinct
        for _ in range(30):
            v = random_shape(5, rng)
            if v not in members:
                res = check_equivalence(t, v)
                assert not res.found
                assert res.proved_distinct
                break


def test_find_commutations_with_restricted_rules():
    from medial.rewrite import ASSOC_FAMILIES

    t = CONFIG_A.lhs
    inter_only = find_commutations(t, families=INTERCHANGE_ONLY)
    assert inter_only.exhausted and inter_only.witnesses == ()
    assoc_only = find_commutations(t, families=ASSOC_FAMILIES)
    assert assoc_only.exhausted and assoc_only.witnesses == ()
    full = find_commutations(t, families=frozenset({"assoc_h", "assoc_v", "interchange"}))
    assert len(full.witnesses) == 1  # routes through the quotient search


@functools.cache
def _search_candidates(n):
    """The fiber representative of each ``search --arity n`` candidate."""
    return tuple(representative(p.with_lex_labels()) for p in grid_partitions(n))


@pytest.mark.parametrize("n", [6, 7, 8])
def test_scan_monomials_is_find_commutations_on_the_search_candidates(n):
    monomials = _search_candidates(n)
    for budget in (DEFAULT_BUDGET, 3):
        scans = list(scan_monomials(iter(monomials), budget))
        assert scans == [find_commutations(t, budget) for t in monomials]


@pytest.mark.parametrize("n, searches", [(6, 14), (7, 46), (8, 139)])
def test_scan_monomials_searches_each_component_once(n, searches, monkeypatch):
    # no class to arity 8 has a witness, so one search per component
    searched = []
    scan = quotient._scan
    monkeypatch.setattr(
        quotient, "_scan", lambda t, budget, *rooted: searched.append(t) or scan(t, budget, *rooted)
    )
    list(scan_monomials(_search_candidates(n)))
    assert len(searched) == searches


def test_scan_monomials_builds_one_store(monkeypatch):
    built = []

    class CountingStore(_Store):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(quotient, "_Store", CountingStore)
    monomials = _search_candidates(7)
    assert len(list(scan_monomials(monomials))) == len(monomials) == 380
    assert len(built) == 1


def test_scan_monomials_is_find_commutations_on_a_census_draw():
    # a seeded arity-9 draw with BM9, then each tree and one of its
    # interchange neighbours relabelled, so that classes with witnesses and
    # classes without both come back
    rng = random.Random(9)
    shapes = list(enumerate_alternating(9))

    def shuffled(a):
        labels = leaf_labels(a)
        return relabel(a, dict(zip(sorted(labels), rng.sample(labels, len(labels)))))

    draw = [to_alternating(BM9.lhs)] + [shuffled(a) for a in rng.sample(shapes, 48)]
    copies = []
    for a in draw:
        copies.append(shuffled(a))
        neighbours = [u for _, u in alt_successors(a)]
        if neighbours:
            copies.append(shuffled(rng.choice(neighbours)))
    monomials = [right_comb(a) for a in draw + copies]
    scans = list(scan_monomials(monomials))
    assert scans == [find_commutations(t) for t in monomials]
    assert sum(1 for scan in scans if scan.witnesses) >= 2
    assert len(set(map(id, scans))) < len(scans)
    scans = list(scan_monomials(monomials, 3))
    assert scans == [find_commutations(t, 3) for t in monomials]


def test_interchange_neighbour_existence():
    assert not interchange_neighbours_exist(strip_labels(to_alternating((H, 1, 2))))
    grid = to_alternating(parse_monomial("((a h b) v (c h d))"))
    assert interchange_neighbours_exist(strip_labels(grid))


def test_searches_refuse_a_wide_node_before_any_expansion(monkeypatch):
    # the store reads binary monomials; an alternating tree with a node wider
    # than two is refused up front by every entry point, on the cache-hit
    # path of scan_monomials too
    wide = to_alternating(BM9.lhs)
    assert any(not is_leaf(t) and len(t) > 3 for t in (wide, *wide[1:]))

    def unreached(*args, **kwargs):
        raise AssertionError("a search expanded a state")

    refused = pytest.raises(ValueError, match=r"^a [hv] node with \d+ children is not binary$")
    scans = scan_monomials([BM9.lhs, wide], budget=1)
    next(scans)  # BM9's class is cut short, so a second search would follow
    monkeypatch.setattr(Frontier, "expand", unreached)
    monkeypatch.setattr(quotient, "closure", unreached)
    for call in (
        lambda: check_equivalence(wide, wide),
        lambda: check_equivalence(BM9.lhs, wide),
        lambda: check_equivalence(wide, BM9.lhs),
        lambda: find_commutations(wide),
        lambda: find_commutations(wide, families=INTERCHANGE_ONLY),
        lambda: list(scan_monomials([wide])),
        lambda: next(scans),
    ):
        with refused:
            call()
    # a witness-free class is reused without a search: the wide form of a
    # monomial in it still raises
    lone = (V, (H, 1, (H, 2, 3)), 4)  # no interchange applies
    hits = scan_monomials([lone, to_alternating(lone)])
    monkeypatch.undo()
    assert next(hits).exhausted
    monkeypatch.setattr(Frontier, "expand", unreached)
    with refused:
        next(hits)


def _reader_cases():
    """Seeded random binary monomials of arity 1 to 16 with shuffled labels,
    then the left comb, the right comb and the alternating chain at 16."""
    rng = random.Random(5)
    for n in range(1, 17):
        for _ in range(20):
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
            yield relabel(random_shape(n, rng), dict(enumerate(labels, 1)))
    yield functools.reduce(lambda t, k: (H, t, k), range(2, 17), 1)
    yield comb(H, tuple(range(1, 17)))
    yield functools.reduce(lambda t, k: (V if k % 2 else H, t, k), range(2, 17), 1)


def test_store_reads_a_binary_monomial_as_its_alternating_tree():
    store = _Store()
    for t in _reader_cases():
        leaves = []
        key = store.state(t, leaves)
        assert store.tree(key) == to_alternating(t)
        assert leaves == list(leaf_labels(t))
        interned = len(store.keys)
        again = []
        assert store.state(t, again) == key and again == leaves
        assert len(store.keys) == interned  # read again, nothing is interned
        nid = key if is_leaf(key) else store[key]  # the root interned too
        if is_leaf(key):
            assert nid == key
        else:
            assert nid < 0 and store.keys[~nid] == key
        assert store.tree(nid) == to_alternating(t)
        interned = len(store.keys)
        # read again, the root is found, not interned again
        assert store.get(store.state(t), key) == nid and len(store.keys) == interned


@pytest.mark.parametrize(
    "t, message",
    [
        ((H, -1, (V, 1, 2, 3)), "leaf -1 is not an int >= 0"),
        ((H, (V, 1, 2, 3), -1), "a v node with 3 children is not binary"),
        # the first defect sits in a nested subtree of the other operation
        ((H, (V, 1, -2), (H, 3, 4, 5)), "leaf -2 is not an int >= 0"),
        ((H, (V, 1, (H, 2, 3, 4)), -5), "a h node with 3 children is not binary"),
        ((V, (H, 1, (V, 2, ())), ("x", 3, 4)), "node () is not an h or a v node"),
        ((V, (H, 1, (V, 2, 3)), ("x", 3, -4)), "node ('x', 3, -4) is not an h or a v node"),
    ],
    ids=["leaf-then-wide", "wide-then-leaf", "nested-leaf", "nested-wide", "empty", "other-op"],
)
def test_store_names_the_first_defect_left_to_right(t, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _Store().state(t)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_equivalence(t, t)


def test_store_reads_a_deep_alternating_chain_under_the_default_recursion_limit():
    # one frame per level of alternation
    levels = 700
    t = functools.reduce(lambda t, k: (V if k % 2 else H, t, k), range(2, levels + 2), 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        store = _Store()
        leaves = []
        key = store.state(t, leaves)
    finally:
        sys.setrecursionlimit(limit)
    assert leaves == list(range(1, levels + 2))
    assert key[0] == t[0] and key[2] == levels + 1
    assert len(store.keys) == levels - 1  # every node below the root, once


@pytest.mark.parametrize(
    "bad, node",
    [
        ((), ()),
        ((H, 1, ()), ()),
        (("x", 1, 2), ("x", 1, 2)),
        ((H, ("x", 1, 2), 3), ("x", 1, 2)),
        ((H, (H, 1, 2), ("x", 3, 4)), ("x", 3, 4)),
    ],
    ids=["empty", "empty-child", "other-op", "other-op-child", "other-op-right"],
)
def test_searches_refuse_a_node_that_is_not_h_or_v_before_any_expansion(bad, node, monkeypatch):
    def unreached(*args, **kwargs):
        raise AssertionError("a search expanded a state")

    good = (H, 1, 2)
    scans = scan_monomials([good, bad])
    next(scans)  # the bad tree follows a search in the same store
    monkeypatch.setattr(Frontier, "expand", unreached)
    monkeypatch.setattr(quotient, "closure", unreached)
    for call in (
        lambda: find_commutations(bad),
        lambda: find_commutations(bad, families=INTERCHANGE_ONLY),
        lambda: check_equivalence(bad, bad),
        lambda: check_equivalence(good, bad),
        lambda: check_equivalence(bad, good),
        lambda: list(scan_monomials([bad])),
        lambda: next(scans),
    ):
        with pytest.raises(ValueError, match=f"^node {re.escape(repr(node))} is not an h or a v node$"):
            call()


def _mapped_leaves(t, leaf):
    """``t`` with each leaf replaced by ``leaf(k)``, left to right; any
    tuple is a node, the empty one included."""
    if isinstance(t, tuple):
        return t[:1] + tuple(_mapped_leaves(c, leaf) for c in t[1:])
    return leaf(t)


def _defective(t) -> bool:
    """Whether t is not a binary h/v monomial with int labels >= 0."""
    if not isinstance(t, tuple):
        return not (isinstance(t, int) and t >= 0)
    return len(t) != 3 or t[0] not in (H, V) or any(map(_defective, t[1:]))


_any_trees = st.recursive(
    st.integers(-3, 10) | st.just(()),
    lambda kids: st.builds(
        lambda op, cs: (op, *cs), st.sampled_from((H, V, "x")), st.lists(kids, max_size=3)
    ),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(_any_trees, st.randoms(use_true_random=False))
@example((H, 1, ()), random.Random(0))
@example((H, (H, 1, 2), ("x", 3, 4)), random.Random(0))
def test_searches_return_or_refuse_any_tree(t, rng):
    # any operation, empty nodes and nodes of up to three children, labels
    # that may be negative or repeated: a result, or a ValueError, which a
    # tree that is not a binary h/v monomial always gets
    labels = list(leaf_labels(t))
    rng.shuffle(labels)
    shuffled = iter(labels)
    numbered = iter(range(1, len(labels) + 1))
    for search, tree in (
        (lambda u: check_equivalence(u, _mapped_leaves(u, lambda _: next(shuffled)), budget=500), t),
        (lambda u: find_commutations(u, budget=200), _mapped_leaves(t, lambda _: next(numbered))),
    ):
        try:
            search(tree)
        except ValueError:
            continue
        assert not _defective(tree)


@pytest.mark.parametrize(
    "t, message",
    [
        (("x", 1, 2), "node ('x', 1, 2) is not an h or a v node"),
        ((H, 1, 2, 3), "a h node with 3 children is not binary"),
        ((H, -1, 2), "leaf -1 is not an int >= 0"),
        ((), "node () is not an h or a v node"),
        ((H, 1, ()), "node () is not an h or a v node"),
        (("x", ("x", 1, 2), 3), "node ('x', ('x', 1, 2), 3) is not an h or a v node"),
    ],
    ids=["other-op", "wide", "negative-leaf", "empty", "empty-child", "other-op-nested"],
)
def test_realize_and_closure_name_the_first_defect(t, message):
    for read in (check_binary, realize, closure):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read(t)


@settings(max_examples=300, deadline=None)
@given(_any_trees)
@example(("x", 1, 2))
@example((H, -1, 2))
@example(("x", ("x", 1, 2), 3))
def test_realize_and_closure_return_or_refuse_any_tree(t):
    # the geometry and the binary closure refuse what the store refuses,
    # with the same message, and read every binary h/v monomial
    try:
        _Store().state(t)
    except ValueError as exc:
        refusal = str(exc)
    else:
        refusal = None
    assert (refusal is not None) == _defective(t)
    for read in (check_binary, realize, lambda u: closure(u, budget=20)):
        if refusal is None:
            read(t)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
                read(t)
