"""The benchmark's tracer still finds, wraps and restores every function it
traces.

``perfbench/tracer.py`` wraps medial functions by name.  A change that drops
or renames one of them fails here instead of in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

# every medial module is loaded first, so that installing the tracer loads none
from medial import assoc, catalog, cli, counts, geometry, quotient  # noqa: F401
from medial import render, rewrite, trees  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Names the benchmark's per-layer metrics are read from.
TRACED = [
    ("medial.quotient", "alt_successors"),
    ("medial.quotient", "check_equivalence"),
    ("medial.quotient", "find_commutations"),
    ("medial.geometry", "enumerate_partitions"),
    ("medial.geometry", "interior_labels"),
    ("medial.geometry", "fiber"),
    ("medial.geometry", "main_cuts"),
    ("medial.geometry", "realize"),
    ("medial.cli", "check_equivalence"),
    ("BlockPartition", "with_lex_labels"),
    ("medial.quotient", "expand_path"),
    ("medial.rewrite", "certificate_from_path"),
    ("medial.rewrite", "closure"),
    ("medial.rewrite", "replay_certificate"),
    ("medial.catalog", "load_certificate"),
    ("medial.trees", "parse_monomial"),
    ("medial.assoc", "to_alternating"),
    ("medial.assoc", "enumerate_alternating"),
]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every attribute of every loaded medial module, and the method of
    ``BlockPartition`` that the tracer wraps."""
    out = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "medial" or name.startswith("medial.")
        for attr, value in vars(module).items()
    }
    out["BlockPartition", "with_lex_labels"] = geometry.BlockPartition.with_lex_labels
    return out


def test_tracer_wraps_its_functions_and_restores_them():
    tracing = _load_tracer()
    before = _bindings()
    uninstall = tracing.install(tracing.Tracer())
    try:
        during = _bindings()
    finally:
        uninstall()
    after = _bindings()
    wrapped = {key for key, value in during.items() if value is not before.get(key)}
    assert set(TRACED) <= wrapped
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
