import dataclasses
import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from medial import catalog, cli, counts, geometry
from medial.cli import FAIL, INCONCLUSIVE, PASS, USAGE, main
from medial.quotient import CommutationScan, EquivalenceResult, find_commutations
from medial.rewrite import Certificate
from medial.trees import relabel


def test_count_pass(capsys):
    assert main(["count", "--arity", "4"]) == PASS
    out = capsys.readouterr().out
    assert "40" in out and "22" in out and "20" in out


def test_count_arity_two(capsys):
    assert main(["count", "--arity", "2"]) == PASS
    out = capsys.readouterr().out
    assert out.count("2  ") >= 1


def test_count_limit_error(capsys):
    assert main(["count", "--arity", "99"]) == USAGE


def test_count_checks_the_arity_before_counting(monkeypatch, capsys):
    # the shape count of a huge arity grows without bound: it must not start
    def refuse(n):
        raise AssertionError(f"shape_count({n}) ran before the arity check")

    monkeypatch.setattr(counts, "shape_count", refuse)
    assert main(["count", "--arity", "13"]) == USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: arity 13 exceeds the enumeration limit 12\n"


def test_verify_bm9(capsys):
    assert main(["verify", "bm9"]) == PASS
    assert "PASS bm9" in capsys.readouterr().out


def test_verify_config_b(capsys):
    assert main(["verify", "configB"]) == PASS
    out = capsys.readouterr().out
    assert "(c g)" in out


def test_verify_seven_block(capsys):
    assert main(["verify", "seven-block-negative"]) == PASS
    out = capsys.readouterr().out
    assert "closure size 4" in out


def test_verify_case1(capsys):
    assert main(["verify", "case1-negative"]) == PASS


def test_verify_unknown_target():
    assert main(["verify", "nonsense"]) == USAGE


def test_render_ascii_stable(capsys):
    args = ["render", "--monomial", "((x1 h x2) v (x3 h x4))", "--format", "ascii"]
    assert main(args) == PASS
    first = capsys.readouterr().out
    assert main(args) == PASS
    second = capsys.readouterr().out
    assert first == second
    assert "+" in first and "1" in first


def test_render_svg(tmp_path, capsys):
    out = tmp_path / "grid.svg"
    args = [
        "render",
        "--monomial",
        "((x1 h x2) v (x3 h x4))",
        "--format",
        "svg",
        "--out",
        str(out),
    ]
    assert main(args) == PASS
    first = out.read_bytes()
    assert main(args) == PASS
    assert out.read_bytes() == first
    assert first.startswith(b"<svg")


def test_render_partition_file(tmp_path):
    from medial.geometry import format_partition, realize
    from medial.trees import parse_monomial

    src = tmp_path / "p.txt"
    src.write_text(format_partition(realize(parse_monomial("(a h b)"))))
    assert main(["render", "--input", str(src), "--format", "ascii", "--out", str(tmp_path / "o.txt")]) == PASS


def test_render_parse_failure(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("(a h")
    assert main(["render", "--input", str(bad)]) == USAGE


def test_render_rejects_non_dyadic_partition(tmp_path, capsys):
    # a pinwheel whose blocks meet at heights 1/3 and 2/3
    src = tmp_path / "thirds.txt"
    src.write_text(
        "0/2^0 1/2^1 0/2^0 1/3 1\n"
        "1/2^1 1/2^0 0/2^0 2/3 2\n"
        "0/2^0 1/2^1 1/3 1/2^0 3\n"
        "1/2^1 1/2^0 2/3 1/2^0 4\n"
    )
    for fmt in ("svg", "ascii"):
        assert main(["render", "--input", str(src), "--format", fmt]) == USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_render_refuses_a_negative_exponent(tmp_path, capsys):
    src = tmp_path / "neg.txt"
    src.write_text("0 1/2^-1 0 1 1\n")
    assert main(["render", "--input", str(src)]) == USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: coordinate '1/2^-1' has a negative exponent\n"


@pytest.mark.parametrize(
    "coordinate, reason",
    [
        ("1/2^20000", "has an exponent above 400"),
        ("1/2^2000000", "has an exponent above 400"),
        ("1/2^2/2^3", "has more than one '/2^'"),
        ("1/0", "has a zero denominator"),
    ],
)
def test_render_refuses_a_malformed_exponent(tmp_path, capsys, coordinate, reason):
    src = tmp_path / "bad.txt"
    src.write_text(f"0 {coordinate} 0 1 1\n")
    assert main(["render", "--input", str(src)]) == USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: coordinate {coordinate!r} {reason}\n"


@pytest.mark.parametrize(
    "coordinate, message",
    [
        ("1/2^" + "9" * 5000, "error: coordinate '1/2^9999999999999999'... has an exponent above 400"),
        ("9" * 5000 + "/2^3", "error: line 1, x2: coordinate '99999999999999999999'... is not a number"),
    ],
    ids=["exponent", "numerator"],
)
def test_render_quotes_a_prefix_of_a_huge_coordinate(tmp_path, capsys, coordinate, message):
    # more digits than int() reads by default: the exponent is refused by
    # its digit count, and either error quotes only a prefix of the field
    src = tmp_path / "huge.txt"
    src.write_text(f"0 {coordinate} 0 1 1\n")
    assert main(["render", "--input", str(src)]) == USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_render_reports_partition_and_monomial_errors(tmp_path, capsys):
    # an invalid partition file reports its own error, not a monomial one
    dup = tmp_path / "dup.txt"
    dup.write_text("0/2^0 1/2^1 0/2^0 1/2^0 1\n1/2^1 1/2^0 0/2^0 1/2^0 1\n")
    # five whitespace-separated fields, but a monomial with a missing ')'
    typo = tmp_path / "typo.txt"
    typo.write_text("((a h b) v c\n")
    # a partition file written in decimals
    half = tmp_path / "half.txt"
    half.write_text("0 0.5 0 1 1\n")
    # a coordinate and a label that hold no number
    letter = tmp_path / "letter.txt"
    letter.write_text("0 1/2^x 0 1 1\n")
    label = tmp_path / "label.txt"
    label.write_text("0 1/2 0 1 1\n1/2 1 0 1 x\n")
    for src, message in (
        (dup, "duplicate block labels"),
        (typo, "unexpected end of input"),
        (half, "block areas sum to 1/2, not 1"),
        (letter, "line 1, x2: coordinate '1/2^x' is not a number"),
        (label, "line 2, label: 'x' is not an int or '-'"),
    ):
        assert main(["render", "--input", str(src)]) == USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


_THIRDS = 10**3000 // 3  # 3,000 threes


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "0 1/" + "3" * 4000 + " 0 1 1\n",
            "block areas sum to 1/333333333333333333..., not 1",
        ),
        (
            f"1/{_THIRDS} 1/{_THIRDS} 0 1 1\n",
            "degenerate block Block(x1=1/333333333333333333..., x2=1/333333333333333333..., "
            "y1=0, y2=1, label=1)",
        ),
        (
            f"-1/{_THIRDS} 1 0 1 1\n",
            "block Block(x1=-1/33333333333333333..., x2=1, y1=0, y2=1, label=1) "
            "leaves the unit square",
        ),
        (
            # the second block overlaps the first by 1/_THIRDS and leaves as
            # much uncovered at the top, so the areas sum to 1
            "0 1 0 1/2 1\n"
            f"0 1 {Fraction(1, 2) - Fraction(1, _THIRDS)} {1 - Fraction(1, _THIRDS)} 2\n",
            "blocks overlap: Block(x1=0, x2=1, y1=0, y2=1/2, label=1) / "
            "Block(x1=0, x2=1, y1=33333333333333333333..., y2=33333333333333333333..., label=2)",
        ),
    ],
    ids=["area", "degenerate", "outside", "overlap"],
)
def test_render_cuts_the_numbers_of_a_validation_error(text, message, tmp_path, capsys):
    src = tmp_path / "huge.txt"
    src.write_text(text)
    assert main(["render", "--input", str(src)]) == USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, label",
    [
        ("0 1 0 1 12345678901234567890\n", "12345678901234567890"),
        ("0 1/2 0 1 1234\n1/2 1 0 1 5\n", "1234"),
    ],
    ids=["wider-than-the-square", "over-the-border"],
)
def test_render_ascii_refuses_a_label_wider_than_its_block(text, label, tmp_path, capsys):
    src = tmp_path / "wide.txt"
    src.write_text(text)
    assert main(["render", "--input", str(src)]) == USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: label {label} ") and captured.err.count("\n") == 1
    assert "--format svg" in captured.err
    assert main(["render", "--input", str(src), "--format", "svg"]) == PASS


def test_render_ascii_draws_a_label_that_fills_its_block(tmp_path, capsys):
    src = tmp_path / "full.txt"
    src.write_text("0 1/2 0 1 123\n1/2 1 0 1 5\n")
    assert main(["render", "--input", str(src)]) == PASS
    assert capsys.readouterr().out == (
        "+---+---+\n"
        "|   |   |\n"
        "|123| 5 |\n"
        "|   |   |\n"
        "+---+---+\n"
    )


def test_render_ascii_refuses_a_too_fine_partition(capsys):
    # a 12-argument left comb halves its first block 11 times: denominator
    # 2048, whose character grid would take about 400 MB
    comb = "x1"
    for k in range(2, 13):
        comb = f"({comb} h x{k})"
    assert main(["render", "--monomial", comb]) == USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--format svg" in captured.err
    assert main(["render", "--monomial", comb, "--format", "svg"]) == PASS


def test_search_monomial_syntax_error(capsys):
    assert main(["search", "--monomial", "((a h b) v c"]) == USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _deep_comb(depth):
    """An h/v left comb whose last leaf sits ``depth`` parentheses deep."""
    text = "x1"
    for k in range(2, depth + 2):
        text = f"({text} {'hv'[k % 2]} x{k})"
    return text


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--monomial"],
        ["search", "--no-require-main-cuts", "--monomial"],
        ["render", "--monomial"],
        ["render", "--input"],
    ],
)
def test_deep_nesting_is_a_usage_error(argv, tmp_path, capsys):
    text = _deep_comb(2000)
    if argv[-1] == "--input":
        src = tmp_path / "deep.txt"
        src.write_text(text)
        text = str(src)
    assert main([*argv, text]) == USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: nesting deeper than") and captured.err.count("\n") == 1


def test_nesting_at_the_limit_runs(capsys):
    from medial.trees import NESTING_LIMIT

    text = _deep_comb(NESTING_LIMIT)
    assert main(["search", "--monomial", text]) == PASS
    assert main(["search", "--no-require-main-cuts", "--monomial", text]) == PASS
    assert main(["render", "--monomial", text, "--format", "svg"]) == PASS
    assert capsys.readouterr().err == ""


def test_bm9_under_a_comb_at_the_nesting_limit(capsys):
    """BM9 as the innermost argument of an alternating right comb, nested as
    deep as the parser accepts: every walker stays within the recursion
    limit."""
    import re

    from medial.quotient import check_equivalence
    from medial.rewrite import replay_certificate
    from medial.trees import NESTING_LIMIT, MonomialSyntaxError, format_monomial, parse_monomial

    levels = NESTING_LIMIT - 5  # BM9 nests five deep

    def under_comb(t):
        text = re.sub(r"x(\d+)", lambda m: f"x{int(m.group(1)) + levels}", format_monomial(t))
        for k in range(levels, 0, -1):
            text = f"(x{k} {'hv'[(levels - k) % 2]} {text})"
        return text

    lhs, rhs = map(under_comb, (catalog.BM9.lhs, catalog.BM9.rhs))
    t1, t2 = parse_monomial(lhs), parse_monomial(rhs)
    with pytest.raises(MonomialSyntaxError, match="nesting deeper than"):
        parse_monomial(f"({lhs} v y)")
    scan = find_commutations(t1)
    moved = [w.transposed_pair for w in scan.witnesses]
    assert (5 + levels, 7 + levels) in moved
    proof = check_equivalence(t1, t2)
    assert proof.found
    witness = scan.witnesses[moved.index((5 + levels, 7 + levels))]
    for cert in (witness.certificate, proof.certificate):
        assert replay_certificate(cert).ok
    assert (proof.certificate.initial, proof.certificate.final) == (t1, t2)
    assert main(["search", "--monomial", lhs, "--no-require-main-cuts"]) == PASS
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("WITNESS") == 1


def test_search_seeded_config_a(capsys):
    rel_text = "(((a h b) v (c h (d v e))) h (((f v g) h h) v (i h j)))"
    assert main(["search", "--monomial", rel_text]) == PASS
    out = capsys.readouterr().out
    assert "WITNESS" in out
    assert "examined 1 candidates" in out


def test_search_small_arity(capsys):
    assert main(["search", "--arity", "4"]) == PASS
    out = capsys.readouterr().out
    assert "examined 1 candidates" in out  # only the grid has both main cuts


def test_search_requires_input():
    assert main(["search"]) == USAGE


def test_search_with_slice_bounds(capsys):
    assert main(["search", "--arity", "5", "--slices", "2:4"]) == PASS
    out = capsys.readouterr().out
    assert "examined" in out


@pytest.mark.parametrize(
    "argv, report",
    [
        (["--arity", "7"], "examined 380 candidates, pruned 7112"),
        (["--arity", "6", "--no-require-main-cuts"], "examined 1232 candidates, pruned 0"),
        (["--arity", "6", "--min-interior", "1"], "examined 8 candidates, pruned 1224"),
        (["--arity", "6", "--slices", "2:3"], "examined 56 candidates, pruned 1176"),
        (["--arity", "2"], "examined 0 candidates, pruned 2"),
        (["--monomial", "(((a h b) v (c h d)) h e)"], "examined 0 candidates, pruned 1"),
    ],
)
def test_search_reports(argv, report, capsys):
    assert main(["search", *argv]) == PASS
    assert capsys.readouterr().out == report + "\n"


def test_search_slices_computes_main_cuts_once_per_candidate(monkeypatch, capsys):
    calls = []
    main_cuts = geometry.main_cuts
    monkeypatch.setattr(geometry, "main_cuts", lambda *a: calls.append(a) or main_cuts(*a))
    assert main(["search", "--arity", "7", "--slices", "2:3"]) == PASS
    assert capsys.readouterr().out == "examined 380 candidates, pruned 7112\n"
    assert len(calls) == 380


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--arity", "0"], "arity must be >= 1"),
        (["--arity", "9"], "arity 9 exceeds the enumeration limit 8"),
        (["--arity", "3", "--slices", "5:2"], "--slices must be LO:HI"),
        (["--arity", "3", "--slices=-1:3"], "--slices must be LO:HI"),
        (["--arity", "3", "--slices", "2"], "--slices must be LO:HI"),
        (["--arity", "4", "--monomial", "((a h b) v (c h d))"], "give --arity or --monomial"),
        (["--arity", "5", "--min-interior", "-1"], "--min-interior must be at least 0, got -1"),
    ],
)
def test_search_usage_errors(argv, message, capsys):
    assert main(["search", *argv]) == USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["render"], "error: provide --monomial or --input"),
        (["search", "--arity", "4", "--rules", "assoc,nonsense"], "unknown rule family 'nonsense'"),
    ],
    ids=["render-without-input", "unknown-rule-family"],
)
def test_missing_input_and_unknown_rules_are_usage_errors(argv, message, capsys):
    assert main(argv) == USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_search_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["search", "--arity", "5", "--out", str(a)]) == PASS
    assert main(["search", "--arity", "5", "--out", str(b)]) == PASS
    assert a.read_bytes() == b.read_bytes()


def test_verify_inconclusive_on_tiny_budget():
    from medial.cli import INCONCLUSIVE

    assert main(["verify", "bm9", "--budget", "1"]) == INCONCLUSIVE


@pytest.mark.parametrize(
    "target, lines",
    [
        (
            "seven-block-negative",
            [f"INCONCLUSIVE seven-block-{k}: budget exhausted" for k in (1, 2, 3)],
        ),
        ("case1-negative", ["INCONCLUSIVE case1-negative: budget exhausted"]),
        (
            "configC-negative",
            ["INCONCLUSIVE configC-negative: budget exhausted before the closure completed"],
        ),
        (
            "configA",
            [
                "  replay ok: 54 steps, 20 interchange applications",
                "INCONCLUSIVE configA: search budget exhausted before a proof",
            ],
        ),
        (
            "kock16",
            [
                "  replay ok: 50 steps, 14 interchange applications",
                "INCONCLUSIVE kock16: search budget exhausted before a proof",
            ],
        ),
    ],
)
def test_verify_budget_one_is_inconclusive(target, lines, capsys):
    assert main(["verify", target, "--budget", "1"]) == INCONCLUSIVE
    assert capsys.readouterr().out.splitlines() == lines


def _scan(witnesses=(), exhausted=True, class_size=0):
    return CommutationScan(tuple(witnesses), exhausted, 0, class_size)


def _config_c_scan(*args, **kwargs):
    """configC's scan, which holds a commutation witness, for any monomial."""
    return find_commutations(catalog.CONFIG_C.monomial)


def _corrupt_certificate(how):
    """A ``catalog.load_certificate`` whose certificates are changed by ``how``."""
    load = catalog.load_certificate
    return lambda name: how(load(name))


@pytest.mark.parametrize(
    "target, patch, status, last",
    [
        (
            "bm9",
            (catalog, "load_certificate", _corrupt_certificate(Certificate.inverted)),
            FAIL,
            "FAIL bm9: bundled certificate does not state the relation",
        ),
        (
            "bm9",
            (
                catalog,
                "load_certificate",
                _corrupt_certificate(lambda c: dataclasses.replace(c, steps=c.steps[:-1])),
            ),
            FAIL,
            "FAIL bm9: certificate replay failed: final tree is ",
        ),
        (
            "bm9",
            (cli, "check_equivalence", lambda *a, **k: EquivalenceResult(None, True, 1)),
            FAIL,
            "FAIL bm9: independent search proved the sides distinct",
        ),
        (
            "configA",
            (cli, "find_commutations", lambda *a, **k: _scan(exhausted=False)),
            INCONCLUSIVE,
            "INCONCLUSIVE configA: commutation scan ran out of budget",
        ),
        (
            "configA",
            (cli, "find_commutations", lambda *a, **k: _scan()),
            FAIL,
            "FAIL configA: commutation scan did not rediscover the transposition",
        ),
        (
            "configC-negative",
            (cli, "find_commutations", lambda *a, **k: _scan(class_size=692)),
            PASS,
            "PASS configC-negative (closure exhausted, 692 classes, no commutation)",
        ),
        (
            "seven-block-negative",
            (cli, "find_commutations", _config_c_scan),
            FAIL,
            "FAIL seven-block-3: commutation witnesses exist",
        ),
        (
            "case1-negative",
            (cli, "find_commutations", lambda *a, **k: _scan(exhausted=False)),
            FAIL,
            "FAIL case1-negative: unexpected commutation witnesses",
        ),
    ],
    ids=[
        "inverted-certificate",
        "truncated-certificate",
        "proved-distinct",
        "scan-out-of-budget",
        "scan-misses-transposition",
        "negative-scan-passes",
        "seven-block-witnesses",
        "case1-witnesses",
    ],
)
def test_verify_fail_branches(target, patch, status, last, monkeypatch, capsys):
    # each case replaces one function the check calls, to reach one branch
    monkeypatch.setattr(*patch)
    assert main(["verify", target]) == status
    assert capsys.readouterr().out.splitlines()[-1].startswith(last)


def test_verify_seven_block_checks_the_first_closure_size(monkeypatch, capsys):
    monkeypatch.setattr(catalog, "SEVEN_BLOCK_FIRST_CLOSURE_SIZE", 5)
    assert main(["verify", "seven-block-negative"]) == FAIL
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "FAIL seven-block-1: closure size 4, expected 5"
    assert [line.split(" (")[0] for line in out[1:]] == ["PASS seven-block-2", "PASS seven-block-3"]


def test_verify_case1_fails_on_a_member_that_permutes_the_tracked_blocks(monkeypatch, capsys):
    # a closure that also holds case1 with d and e swapped
    closure = cli.closure
    d, e = catalog.CASE1.names["d"], catalog.CASE1.names["e"]
    swapped = relabel(catalog.CASE1.monomial, {d: e, e: d})

    def with_swapped(t, **kwargs):
        result = closure(t, **kwargs)
        return dataclasses.replace(result, members=result.members | {swapped})

    monkeypatch.setattr(cli, "closure", with_swapped)
    assert main(["verify", "case1-negative"]) == FAIL
    assert capsys.readouterr().out == "FAIL case1-negative: member permutes the tracked blocks\n"


def test_search_rule_restriction(capsys):
    seed = "(((a h b) v (c h (d v e))) h (((f v g) h h) v (i h j)))"
    assert main(["search", "--monomial", seed, "--rules", "interchange"]) == PASS
    out = capsys.readouterr().out
    assert "WITNESS" not in out  # interchange alone never permutes arguments
    assert main(["search", "--monomial", seed, "--rules", "assoc,interchange"]) == PASS
    out = capsys.readouterr().out
    assert "WITNESS" in out


def test_exit_code_priority():
    from medial.cli import INCONCLUSIVE, _worst

    assert _worst(PASS, INCONCLUSIVE) == INCONCLUSIVE
    assert _worst(INCONCLUSIVE, FAIL) == FAIL
    assert _worst(FAIL, INCONCLUSIVE) == FAIL
    assert _worst(PASS, PASS) == PASS


def test_count_checks_the_graph_limit_before_counting(monkeypatch, tmp_path, capsys):
    def refuse(n):
        raise AssertionError(f"count_summary({n}) ran before the graph limit check")

    monkeypatch.setattr(counts, "count_summary", refuse)
    out = tmp_path / "g.txt"
    assert main(["count", "--arity", "11", "--graph-out", str(out)]) == USAGE
    assert capsys.readouterr().err == "error: arity 11 exceeds the graph limit 8\n"
    assert not out.exists()


def test_count_graph_out(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["count", "--arity", "4", "--graph-out", str(out)]) == PASS
    lines = out.read_text().splitlines()
    assert lines[0] == "vertices 22"
    assert len(lines) == 2  # exactly one edge at arity 4


@pytest.mark.parametrize(
    "arity, lines, digest",
    [
        (7, 689, "5c9308dd66c505451748a549238cd1b506d5cbee50a060a19b6fccf72fcfed9c"),
        (8, 4483, "ff4b751a282270abc962880afdf1c7581dfa9ccc86dd9822ef8de0145ab08d8b"),
    ],
    ids=["arity7", "arity8"],
)
def test_count_graph_out_bytes_are_pinned(arity, lines, digest, tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["count", "--arity", str(arity), "--graph-out", str(out)]) == PASS
    data = out.read_bytes()
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, status, lines, digest",
    [
        (
            ["--arity", "8"],
            PASS,
            1,
            "3c6db00c74e027b2066e6b429bb2aeb0bd43e106b10c81db3df59b4a459ed3f5",
        ),
        (
            ["--arity", "7", "--no-require-main-cuts"],
            PASS,
            1,
            "f39d827da4fb7d0884598378c0ca4e187cfd47b028b8cfd01534e971231838bd",
        ),
        (
            ["--arity", "7", "--budget", "8"],
            INCONCLUSIVE,
            253,
            "800a4882b86c7ccad4166b1e10a6ee3ef3c4e607fe37e228cb941706c4c14a7f",
        ),
    ],
    ids=["arity8", "arity7-all-partitions", "arity7-budget8"],
)
def test_search_out_bytes_are_pinned(argv, status, lines, digest, capsys):
    # at --budget 8, 252 candidates are INCOMPLETE and 128 exhaust their class
    assert main(["search", *argv]) == status
    data = capsys.readouterr().out.encode()
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "target, status, lines, digest",
    [
        ("bm9", PASS, 3, "a6291f2914f03dfb733f1c6afb869748a49b76fd2e4510ef29124443af050ba6"),
        ("configA", PASS, 4, "788ca41bf5b84a98cd2b781b872a972ea6e441e1e4d9a7b0769d3fc178e89d04"),
        ("configB", PASS, 4, "a23a2d7d99d998a69b644040c411083ad9d38080b30343e1d54c4405c5e2261e"),
        ("case2", PASS, 4, "0afaf04949cce82f0bf377ecb4f7f44d6235da7fd419016a3c68b51fb107e79e"),
        (
            "configC-negative",
            FAIL,
            1,
            "cdfe98af0ff95bc9f492f40fd4f939ee1127c63662f7cc77f367467af9366fdb",
        ),
        (
            "seven-block-negative",
            PASS,
            3,
            "70369eb908db8cd32c8b18d7e57cac27ddeb8f968970625dcf3515592c50a872",
        ),
        (
            "case1-negative",
            PASS,
            1,
            "01f2d648d3b4b30decdb20f136bb4f1274a8158c8d2ba659619ec9fb35e5d869",
        ),
    ],
)
def test_verify_out_bytes_are_pinned(target, status, lines, digest, capsys):
    # kock16's search is pinned by test_search_counts_are_pinned instead
    assert main(["verify", target]) == status
    data = capsys.readouterr().out.encode()
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == digest


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    out = str(tmp_path / "missing" / "out.txt")
    for argv in (
        ["count", "--arity", "4", "--graph-out", out],
        ["search", "--arity", "4", "--out", out],
        ["render", "--monomial", "(a h b)", "--out", out],
    ):
        assert main(argv) == USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_count_checks_schroder_number_at_arity_8(capsys):
    assert main(["count", "--arity", "8"]) == PASS
    assert "assoc_classes      8558  ok" in capsys.readouterr().out


def test_render_unit_square_single_box(capsys):
    assert main(["render", "--monomial", "x1", "--format", "ascii"]) == PASS
    out = capsys.readouterr().out
    assert out == "+---+\n| 1 |\n+---+\n"


def test_render_ten_block_configuration(capsys):
    text = "(((a h b) v (c h (d v e))) h (((f v g) h h) v (i h j)))"
    assert main(["render", "--monomial", text, "--format", "ascii"]) == PASS
    out = capsys.readouterr().out
    assert out == (
        "+---+---+---+---+\n"
        "|   | 5 |   |   |\n"
        "| 3 +---+ 9 |10 |\n"
        "|   | 4 |   |   |\n"
        "+---+---+---+---+\n"
        "|   |   | 7 |   |\n"
        "| 1 | 2 +---+ 8 |\n"
        "|   |   | 6 |   |\n"
        "+---+---+---+---+\n"
    )


def test_verify_config_c_reports_failure(capsys):
    assert main(["verify", "configC-negative"]) == FAIL
    out = capsys.readouterr().out
    assert "witnesses exist" in out


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize("command", [["verify", "bm9"], ["search", "--arity", "4"]])
def test_budget_below_one_is_a_usage_error(command, budget, capsys):
    assert main(command + ["--budget", budget]) == USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --budget") and captured.err.count("\n") == 1


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "medial", "verify", "bm9"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == PASS, done.stderr
    assert "PASS bm9" in done.stdout
