"""Byte-for-byte output checks against files in ``tests/golden``.

The files were written by the Fraction-coordinate geometry that preceded
the integer grid, so they pin the text format, the SVG and ASCII drawings
and the exhaustive-search report across changes of representation.
"""

import contextlib
import io
from pathlib import Path

import pytest

from medial import catalog
from medial.cli import PASS, main
from medial.geometry import format_partition, parse_partition, realize
from medial.render import partition_ascii, partition_svg
from medial.trees import H, V, parse_monomial

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "grid": (V, (H, 1, 2), (H, 3, 4)),
    "nested": parse_monomial("((a v (c h (d v f))) h b)"),
    "kock16": catalog.RELATIONS["kock16"].lhs,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_partition_text_svg_and_ascii_bytes(name):
    p = realize(CASES[name])
    text = (GOLDEN / f"{name}.partition").read_text()
    assert format_partition(p) == text
    assert parse_partition(text) == p
    assert partition_svg(p) == (GOLDEN / f"{name}.svg").read_text()
    assert partition_ascii(p) == (GOLDEN / f"{name}.txt").read_text()


def test_search_arity_6_report():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["search", "--arity", "6"]) == PASS
    assert out.getvalue() == (GOLDEN / "search_arity6.txt").read_text()
