"""Term rewriting and enumeration for double interchange semigroups.

``import medial`` loads the five core modules, ``trees``, ``assoc``,
``rewrite``, ``quotient`` and ``geometry``: every command runs them.
``catalog`` (the verify targets), ``counts`` (the count command) and
``intervals`` (no command) load the first time one of them or a name
re-exported from them is used, so a process pays for them only when it
needs them; ``cli`` and ``render`` load only when imported.
"""

from importlib import import_module as _import_module

from .assoc import (
    binary_representatives,
    enumerate_alternating,
    format_alternating,
    to_alternating,
)
from .geometry import (
    Block,
    BlockPartition,
    build_dyadic,
    classify_blocks,
    compose_partition,
    cuts,
    fiber,
    hjoin,
    is_subrectangle,
    main_cuts,
    primary_cuts_and_slices,
    realize,
    vjoin,
)
from .quotient import CommutationWitness, check_equivalence, find_commutations
from .rewrite import (
    Certificate,
    RewriteStep,
    apply_redex,
    closure,
    find_redexes,
    replay_certificate,
)
from .trees import (
    apply_symmetry,
    canonical_key,
    dihedral_elements,
    enumerate_shapes,
    format_monomial,
    parse_monomial,
    partial_compose,
    to_word,
)

# The names re-exported from each module loaded on first use.
_ON_FIRST_USE = {
    "catalog": ("RELATIONS", "load_certificate"),
    "counts": (
        "dihedral_orbits",
        "interchange_graph",
        "isolated_count",
        "verify_fiber_equivalence",
    ),
    "intervals": (
        "association_to_sequence",
        "is_tree_sequence",
        "sequence_to_association",
        "thompson_map",
    ),
}
_HOME = {name: module for module, names in _ON_FIRST_USE.items() for name in names}

__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | {*_ON_FIRST_USE, *_HOME}
)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _ON_FIRST_USE:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
