import importlib.util
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from medial import catalog
from medial.geometry import interior_labels, main_cuts, realize
from medial.rewrite import ReplayResult, replay_certificate
from medial.trees import arity, leaf_labels


def test_relation_shapes_and_transpositions():
    expect = {
        "kock16": (16, ("f", "g")),
        "bm9": (9, ("e", "g")),
        "configA": (10, ("d", "g")),
        "configB": (10, ("c", "g")),
        "case2": (10, ("f", "g")),
    }
    for name, (n, letters) in expect.items():
        rel = catalog.RELATIONS[name]
        assert arity(rel.lhs) == arity(rel.rhs) == n
        assert sorted(leaf_labels(rel.lhs)) == list(range(1, n + 1))
        assert rel.transposed_letters() == letters
        # both sides share the bracketing and operations
        from medial.trees import strip_labels

        assert strip_labels(rel.lhs) == strip_labels(rel.rhs)


def test_kock16_realizes_four_by_four_grid():
    p = realize(catalog.KOCK16.lhs)
    xs = {b.x1 for b in p.blocks} | {b.x2 for b in p.blocks}
    ys = {b.y1 for b in p.blocks} | {b.y2 for b in p.blocks}
    quarters = {F(0), F(1, 4), F(1, 2), F(3, 4), F(1)}
    assert xs == quarters and ys == quarters
    assert len(p) == 16


def test_config_a_blocks():
    rel = catalog.CONFIG_A
    p = realize(rel.lhs)
    names = rel.names
    assert interior_labels(p) == {names["d"], names["g"]}
    d = p.block_with_label(names["d"])
    assert (d.x1, d.x2, d.y1, d.y2) == (F(1, 4), F(1, 2), F(1, 2), F(3, 4))
    g = p.block_with_label(names["g"])
    assert (g.x1, g.x2, g.y1, g.y2) == (F(1, 2), F(3, 4), F(1, 4), F(1, 2))
    assert len(main_cuts(p)) == 2


def test_case1_middle_slice_blocks():
    cfg = catalog.CASE1
    p = realize(cfg.monomial)
    names = cfg.names
    # the four tracked blocks line up left to right in the middle band
    xs = [
        (p.block_with_label(names[x]).x1, p.block_with_label(names[x]).x2)
        for x in "defg"
    ]
    assert xs == [
        (F(1, 4), F(3, 8)),
        (F(3, 8), F(1, 2)),
        (F(1, 2), F(5, 8)),
        (F(5, 8), F(3, 4)),
    ]
    assert interior_labels(p) == {names[x] for x in "defg"}


def test_seven_block_configurations_realize_seven_blocks():
    for cfg in catalog.SEVEN_BLOCKS:
        p = realize(cfg.monomial)
        assert len(p) == 7
        assert len(interior_labels(p)) == 2


def test_bundled_certificates_replay_and_state_their_relations():
    for name, rel in catalog.RELATIONS.items():
        cert = catalog.load_certificate(name)
        assert cert.initial == rel.lhs
        assert cert.final == rel.rhs
        assert replay_certificate(cert)


def test_config_a_certificate_has_twenty_interchanges():
    cert = catalog.load_certificate("configA")
    assert cert.interchange_count == 20



BUILD_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "build_certificates.py"


def test_build_certificates_check_reproduces_bundled_files():
    # rebuilding every certificate (bidirectional searches included) must
    # give the bundled bytes, which pins the search order
    proc = subprocess.run(
        [sys.executable, str(BUILD_SCRIPT), "--check"], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == proc.stderr == ""


def test_build_certificates_check_names_a_differing_file(tmp_path):
    spec = importlib.util.spec_from_file_location("build_certificates", BUILD_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    built = {name: catalog.load_certificate(name) for name in catalog.CERTIFICATE_FILES}
    for name, cert in built.items():
        (tmp_path / catalog.CERTIFICATE_FILES[name]).write_text(cert.dump())
    assert script.differing_files(built, tmp_path) == []
    (tmp_path / "bm9.json").write_text(built["bm9"].inverted().dump())
    (tmp_path / "case2.json").unlink()
    assert script.differing_files(built, tmp_path) == ["bm9.json", "case2.json"]


def test_build_certificates_refuses_milestones_no_interchange_joins(monkeypatch):
    spec = importlib.util.spec_from_file_location("build_certificates", BUILD_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    milestones = script.CONFIG_A_MILESTONES
    monkeypatch.setattr(script, "CONFIG_A_MILESTONES", milestones[:5] + milestones[6:])
    with pytest.raises(SystemExit, match="no single move leads from state 4 to state 5 of the path"):
        script.build_config_a()


def test_build_certificates_refuses_a_certificate_that_does_not_replay(monkeypatch):
    # an explicit check, not an assert, so that python -O keeps it
    spec = importlib.util.spec_from_file_location("build_certificates", BUILD_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "replay_certificate", lambda cert: ReplayResult(False, 0, "broken"))
    with pytest.raises(SystemExit, match="does not replay"):
        script.build_all()
