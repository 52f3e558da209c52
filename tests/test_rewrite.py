import json
import random

import pytest

from medial.assoc import right_comb, to_alternating
from medial.rewrite import (
    ALL_FAMILIES,
    ASSOC_FAMILIES,
    ASSOC_H,
    FORWARD,
    INTERCHANGE,
    INTERCHANGE_ONLY,
    Certificate,
    RewriteError,
    RewriteStep,
    apply_redex,
    assoc_path,
    certificate_from_path,
    closure,
    comb_steps,
    find_redexes,
    replay_certificate,
    successors,
)
from medial.trees import H, V, leaf_labels, parse_monomial, random_shape


def test_find_redexes_examples():
    assert find_redexes((H, 1, 2)) == []
    assert find_redexes((H, (H, 1, 2), 3)) == [RewriteStep(ASSOC_H, FORWARD, ())]
    t = parse_monomial("((a h b) v (c h d))")
    assert find_redexes(t) == [RewriteStep(INTERCHANGE, FORWARD, ())]


def test_find_redexes_order_is_deterministic():
    t = parse_monomial("(((a h b) h c) v ((d h e) h f))")
    steps = find_redexes(t)
    assert steps == sorted(steps, key=lambda s: (s.position, s.rule, s.direction != FORWARD))
    assert find_redexes(t, families=INTERCHANGE_ONLY) == [
        RewriteStep(INTERCHANGE, FORWARD, ())
    ]


def test_apply_redex_examples():
    names = {}
    t = parse_monomial("((a h b) v (c h d))", names=names)
    out = apply_redex(t, RewriteStep(INTERCHANGE, FORWARD, ()))
    assert out == parse_monomial("((a v c) h (b v d))", names=names)
    t2 = parse_monomial("((a h b) h c)")
    out2 = apply_redex(t2, RewriteStep(ASSOC_H, FORWARD, ()))
    assert out2 == parse_monomial("(a h (b h c))")


def test_forward_then_backward_restores():
    rng = random.Random(9)
    for _ in range(200):
        t = random_shape(rng.randint(2, 7), rng)
        redexes = find_redexes(t)
        if not redexes:
            continue
        step = rng.choice(redexes)
        u = apply_redex(t, step)
        assert apply_redex(u, step.inverted()) == t


def test_apply_redex_mismatch_raises():
    with pytest.raises(RewriteError):
        apply_redex((H, 1, 2), RewriteStep(INTERCHANGE, FORWARD, ()))


def test_rewrites_preserve_leaf_multiset():
    rng = random.Random(10)
    for _ in range(200):
        t = random_shape(rng.randint(2, 7), rng)
        for step, u in successors(t):
            assert sorted(leaf_labels(u)) == sorted(leaf_labels(t))


def test_closure_examples():
    assert closure((H, 1, 2)).members == {(H, 1, 2)}
    t = parse_monomial("((a h b) v (c h d))")
    inter = closure(t, families=INTERCHANGE_ONLY)
    assert len(inter) == 2
    assert inter.exhausted


def test_closure_budget_reporting():
    t = parse_monomial("((a h b) v ((c h d) v ((e h f) v (g h h))))")
    limited = closure(t, budget=3)
    assert not limited.exhausted
    assert limited.expanded == 3


def test_closure_is_schedule_independent():
    # the member set never depends on expansion order; compare against a
    # stack-based (depth-first) dedup walk
    cases = [
        ("(((a h b) h c) v (d h e))", ALL_FAMILIES),
        ("(((a h b) h c) v (d h e))", INTERCHANGE_ONLY),
        ("((((a h b) h c) h d) v ((e v f) v g))", ASSOC_FAMILIES),
        ("((a h b) v ((((c h d) h e) v f) h g))", ALL_FAMILIES),  # seven blocks
    ]
    for text, families in cases:
        t = parse_monomial(text)
        bfs = closure(t, families=families).members
        seen = {t}
        stack = [t]
        while stack:
            node = stack.pop()
            for _, nxt in successors(node, families):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        assert bfs == frozenset(seen), text


def test_closure_parent_paths_replay():
    t = parse_monomial("(((a h b) h c) v (d h e))")
    wide = parse_monomial("((a h b) v ((c h d) v ((e h f) v (g h i))))")
    truncated = closure(wide, budget=3)  # members found but never expanded
    assert not truncated.exhausted and len(truncated) > truncated.expanded
    cases = [
        (t, closure(t)),
        (wide, truncated),
        (wide, closure(wide, families=INTERCHANGE_ONLY)),
    ]
    for start, result in cases:
        for member in result.members:
            steps = result.path_to(member)
            assert {s.rule for s in steps} <= result.families
            cert = certificate_from_path(start, steps)
            assert cert.final == member
            assert replay_certificate(cert)


def test_certificate_json_round_trip():
    t = parse_monomial("((a h b) v (c h d))")
    cert = certificate_from_path(t, [RewriteStep(INTERCHANGE, FORWARD, ())])
    blob = json.loads(cert.dump())
    again = Certificate.from_json(blob)
    assert again == cert
    assert replay_certificate(again)


def _certificate_text(steps=({"rule": "interchange", "direction": "forward", "position": ""},),
                      **fields) -> str:
    """The certificate of one interchange at the root, with ``fields`` replaced."""
    data = {"initial": "((x1 h x2) v (x3 h x4))", "steps": steps, "final": "((x1 v x3) h (x2 v x4))"}
    return json.dumps({**data, **fields})


@pytest.mark.parametrize(
    "text, message",
    [
        ("{}", "certificate: missing field 'initial'"),
        ("[]", "certificate: must be an object, got list"),
        (_certificate_text(initial=5), "certificate: field 'initial' must be a str, got int"),
        (_certificate_text(final="(a h"), "certificate: field 'final': unexpected end of input"),
        (_certificate_text(steps="ab"), "certificate: field 'steps' must be a list, got str"),
        (_certificate_text(steps=[3]), "certificate step 0: must be an object, got int"),
        (
            _certificate_text(steps=[{"rule": "interchange", "position": ""}]),
            "certificate step 0: missing field 'direction'",
        ),
        (
            _certificate_text(steps=[{"rule": None, "direction": "forward", "position": ""}]),
            "certificate step 0: field 'rule' must be a str, got NoneType",
        ),
        (
            _certificate_text(steps=[
                {"rule": "interchange", "direction": "forward", "position": ""},
                {"rule": "interchange", "direction": "backward", "position": "0a"},
            ]),
            "certificate step 1: field 'position' must be a string of 0s and 1s, got '0a'",
        ),
        (
            _certificate_text(steps=[{"rule": "interchange", "direction": "forward", "position": "2"}]),
            "certificate step 0: field 'position' must be a string of 0s and 1s, got '2'",
        ),
    ],
    ids=[
        "empty-object", "list", "initial-not-text", "final-unparsable", "steps-not-a-list",
        "step-not-an-object", "step-without-direction", "rule-not-text", "position-not-binary",
        "position-digit-two",
    ],
)
def test_certificate_load_names_the_malformed_field(text, message):
    with pytest.raises(ValueError) as caught:
        Certificate.load(text)
    assert str(caught.value).startswith(message)


def test_certificate_load_leaves_unknown_rules_and_directions_to_replay():
    assert replay_certificate(Certificate.load(_certificate_text()))
    unknown = Certificate.load(_certificate_text(steps=[
        {"rule": "interchange", "direction": "forward", "position": ""},
        {"rule": "medial", "direction": "forward", "position": "1"},
    ]))
    assert replay_certificate(unknown).reason == "step 1: unknown rule 'medial'"
    sideways = Certificate.load(_certificate_text(steps=[
        {"rule": "interchange", "direction": "sideways", "position": ""},
    ]))
    assert replay_certificate(sideways).failed_step == 0


def test_certificate_corruption_detected():
    t = parse_monomial("((a h b) v (c h d))")
    cert = certificate_from_path(t, [RewriteStep(INTERCHANGE, FORWARD, ())])
    bad_step = Certificate(
        cert.initial, (RewriteStep(INTERCHANGE, FORWARD, (0,)),), cert.final
    )
    result = replay_certificate(bad_step)
    assert not result
    assert result.failed_step == 0
    bad_final = Certificate(cert.initial, cert.steps, cert.initial)
    result2 = replay_certificate(bad_final)
    assert not result2
    assert result2.failed_step == len(cert.steps)


def test_empty_certificate():
    t = parse_monomial("(a h b)")
    assert replay_certificate(Certificate(t, (), t))
    assert not replay_certificate(Certificate(t, (), (V, 1, 2)))


def test_comb_steps_reach_canonical_representative():
    rng = random.Random(11)
    for _ in range(200):
        t = random_shape(rng.randint(1, 8), rng)
        comb, steps = comb_steps(t)
        assert comb == right_comb(to_alternating(t))
        cert = certificate_from_path(t, steps)
        assert cert.final == comb
        assert all(s.rule in ASSOC_FAMILIES and s.direction == FORWARD for s in steps)


def test_assoc_path_connects_representatives():
    rng = random.Random(12)
    for _ in range(100):
        t = random_shape(rng.randint(2, 7), rng)
        u = right_comb(to_alternating(t))
        steps = assoc_path(t, u)
        assert certificate_from_path(t, steps).final == u
    with pytest.raises(RewriteError):
        assoc_path((H, 1, 2), (V, 1, 2))


def test_interchange_preserves_realization():
    from medial.geometry import realize

    rng = random.Random(13)
    for _ in range(200):
        t = random_shape(rng.randint(2, 7), rng)
        for step, u in successors(t, families=INTERCHANGE_ONLY):
            assert realize(u) == realize(t)


def test_assoc_preserves_alternating_form():
    rng = random.Random(14)
    for _ in range(200):
        t = random_shape(rng.randint(2, 7), rng)
        for step, u in successors(t, families=ASSOC_FAMILIES):
            assert to_alternating(u) == to_alternating(t)
