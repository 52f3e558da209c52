"""What a ``medial`` process loads, and the package's public names.

``import medial`` loads the five core modules that every command runs; the
others load on first use.  Each check runs in a fresh interpreter, since
this test session has long since loaded every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CORE = {"trees", "assoc", "rewrite", "quotient", "geometry"}

# Every public name of the package, by the module it comes from; each
# module is itself one of the names.
PUBLIC = {
    "assoc": (
        "binary_representatives",
        "enumerate_alternating",
        "format_alternating",
        "to_alternating",
    ),
    "catalog": ("RELATIONS", "load_certificate"),
    "counts": (
        "dihedral_orbits",
        "interchange_graph",
        "isolated_count",
        "verify_fiber_equivalence",
    ),
    "geometry": (
        "Block",
        "BlockPartition",
        "build_dyadic",
        "classify_blocks",
        "compose_partition",
        "cuts",
        "fiber",
        "hjoin",
        "is_subrectangle",
        "main_cuts",
        "primary_cuts_and_slices",
        "realize",
        "vjoin",
    ),
    "intervals": (
        "association_to_sequence",
        "is_tree_sequence",
        "sequence_to_association",
        "thompson_map",
    ),
    "quotient": ("CommutationWitness", "check_equivalence", "find_commutations"),
    "rewrite": (
        "Certificate",
        "RewriteStep",
        "apply_redex",
        "closure",
        "find_redexes",
        "replay_certificate",
    ),
    "trees": (
        "apply_symmetry",
        "canonical_key",
        "dihedral_elements",
        "enumerate_shapes",
        "format_monomial",
        "parse_monomial",
        "partial_compose",
        "to_word",
    ),
}
HOME = {name: module for module, names in PUBLIC.items() for name in (module, *names)}


def _run(script: str) -> list:
    """Run ``script`` in a fresh interpreter; the last stdout line, read as
    JSON, is what it reports, followed by the ``medial`` submodules it had
    loaded by then."""
    script += (
        "\nimport json, sys"
        "\nloaded = sorted(m[len('medial.'):] for m in sys.modules if m.startswith('medial.'))"
        "\nprint(json.dumps([report, loaded]))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_the_core_only():
    report, loaded = _run("import medial\nreport = None")
    assert set(loaded) == CORE


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["search", "--arity", "5"], set()),
        (["verify", "bm9"], {"catalog", "certs"}),  # certs: the certificate files
        (["count", "--arity", "4"], {"counts"}),
        (["render", "--monomial", "(x1 h x2)"], {"render"}),
    ],
    ids=["search", "verify", "count", "render"],
)
def test_each_command_loads_the_modules_it_runs(argv, loads):
    report, loaded = _run(f"from medial import cli\nreport = cli.main({argv!r})")
    assert report == 0
    assert set(loaded) == CORE | {"cli"} | loads


# Ways to reach every public name from a fresh interpreter; each leaves them
# in ``got``.
REACHES = {
    "attribute": "got = {name: getattr(medial, name) for name in names}",
    "from-import": (
        "got = {}\n"
        "for name in names:\n"
        "    exec(f'from medial import {name} as found', got)\n"
        "    got[name] = got.pop('found')\n"
        "del got['__builtins__']"
    ),
    "star-import": "got = {}\nexec('from medial import *', got)\ndel got['__builtins__']",
    "dir": "got = {name: getattr(medial, name) for name in dir(medial) if name[0] != '_'}",
}


@pytest.mark.parametrize("way", REACHES)
def test_every_public_name_resolves_to_its_home_object(way):
    script = (
        f"import importlib, medial\nnames = {sorted(HOME)!r}\n{REACHES[way]}\n"
        f"home = {HOME!r}\n"
        "def expected(name):\n"
        "    module = importlib.import_module('medial.' + home[name])\n"
        "    return module if name == home[name] else getattr(module, name)\n"
        "report = sorted(got), [name for name in got if got[name] is not expected(name)]"
    )
    (found, wrong), loaded = _run(script)
    assert found == sorted(HOME)
    assert len(found) == 52
    assert wrong == []


def test_dir_lists_every_public_name_before_any_is_used():
    (listed, all_names), loaded = _run(
        "import medial\n"
        "report = [n for n in dir(medial) if n[0] != '_'], sorted(medial.__all__)"
    )
    assert listed == all_names == sorted(HOME)
    assert set(loaded) == CORE
