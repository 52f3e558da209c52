"""Combinatorial counts and the interchange graph.

Vendored expected values (no network lookups):

    binary shapes by arity       1, 2, 8, 40, ..., 120393728  (2^(n-1) Catalan(n-1))
    alternating trees by arity   1, 2, 6, 22, 90, 394, 1806, 8558, 41586,
                                 206098, 1037718, 5293446     (OEIS A006318)
    isolated vertices            1, 2, 6, 20, 70, 254, 948    (OEIS A078482)

The interchange graph has one vertex per unlabeled alternating tree, with
an edge whenever a single interchange application carries some binary
representative of one vertex to a representative of the other.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import geometry
from .assoc import ALTERNATING_ARITY_LIMIT, AltTree, enumerate_alternating, right_comb
from .quotient import _Store, interchange_neighbours_exist
from .rewrite import INTERCHANGE_ONLY, closure
from .trees import (
    Tree,
    canonical_key,
    check_arity,
    dihedral_elements,
    enumerate_shapes,
    shape_count,
    strip_labels,
    with_identity_labels,
)

SHAPE_COUNTS = {1: 1, 2: 2, 3: 8, 4: 40, 5: 224, 6: 1344, 7: 8448, 8: 54912, 9: 366080,
                10: 2489344, 11: 17199104, 12: 120393728}
ALTERNATING_COUNTS = {1: 1, 2: 2, 3: 6, 4: 22, 5: 90, 6: 394, 7: 1806, 8: 8558, 9: 41586,
                      10: 206098, 11: 1037718, 12: 5293446}
ISOLATED_COUNTS = {1: 1, 2: 2, 3: 6, 4: 20, 5: 70, 6: 254, 7: 948}

GRAPH_ARITY_LIMIT = 8
FIBER_CHECK_ARITY_LIMIT = 6


@dataclass(frozen=True)
class InterchangeGraph:
    """Unlabeled alternating trees joined when one interchange links them."""

    vertices: tuple[AltTree, ...]
    edges: frozenset[tuple[int, int]]

    def isolated_vertices(self) -> tuple[int, ...]:
        touched = {i for e in self.edges for i in e}
        return tuple(i for i in range(len(self.vertices)) if i not in touched)


def interchange_graph(n: int) -> InterchangeGraph:
    check_arity(n, GRAPH_ARITY_LIMIT, "graph")
    vertices = tuple(strip_labels(a) for a in enumerate_alternating(n))
    store = _Store()  # the unlabelled vertices share their subtrees' moves
    index = {store.state(right_comb(v)): i for i, v in enumerate(vertices)}
    edges: set[tuple[int, int]] = set()
    for u, i in index.items():
        for w in store.neighbours(u):
            j = index[w]
            if i != j:
                edges.add((min(i, j), max(i, j)))
    return InterchangeGraph(vertices, frozenset(edges))


def isolated_count(n: int) -> int:
    """Vertices admitting no interchange application at all."""
    check_arity(n, GRAPH_ARITY_LIMIT, "graph")
    return sum(
        1
        for a in enumerate_alternating(n)
        if not interchange_neighbours_exist(a)
    )


# ---------------------------------------------------------------------------
# Dihedral orbits of labeled shapes
# ---------------------------------------------------------------------------

def dihedral_orbits(n: int = 4) -> tuple[tuple[Tree, ...], ...]:
    """Orbit decomposition of the operation-labeled shapes of arity n
    under the eight symmetries of the square (leaf labels ignored)."""
    elements = dihedral_elements()
    seen: set[bytes] = set()
    orbits: list[tuple[Tree, ...]] = []
    for t in enumerate_shapes(n):
        key = canonical_key(strip_labels(t))
        if key in seen:
            continue
        orbit = {}
        for g in elements:
            image = strip_labels(g.apply(t))
            orbit[canonical_key(image)] = with_identity_labels(image)
        seen.update(orbit)
        orbits.append(tuple(orbit[k] for k in sorted(orbit)))
    return tuple(orbits)


def orbit_size_multiset(n: int = 4) -> tuple[int, ...]:
    return tuple(sorted(len(orbit) for orbit in dihedral_orbits(n)))


# ---------------------------------------------------------------------------
# Fibers against interchange closures
# ---------------------------------------------------------------------------

@dataclass
class FiberEquivalenceReport:
    """Whether interchange closures equal realization fibers at one arity."""

    ok: bool
    arity: int
    shapes: int
    nontrivial_classes: tuple[tuple[Tree, ...], ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_fiber_equivalence(n: int) -> FiberEquivalenceReport:
    """Check that interchange-only closures coincide with the fibers of the
    geometric realization, shape by shape."""
    check_arity(n, FIBER_CHECK_ARITY_LIMIT, "check")
    nontrivial: list[tuple[Tree, ...]] = []
    count = 0
    ok = True
    for t in enumerate_shapes(n):
        count += 1
        members = closure(t, families=INTERCHANGE_ONLY).members
        fib = frozenset(geometry.fiber(geometry.realize(t)))
        if members != fib:
            ok = False
        if len(members) > 1:
            nontrivial.append(tuple(sorted(members, key=canonical_key)))
    # One entry per shape-level collision: forget the leaf labelings.
    dedup = {
        frozenset(strip_labels(m) for m in c): c for c in nontrivial
    }
    return FiberEquivalenceReport(
        ok=ok,
        arity=n,
        shapes=count,
        nontrivial_classes=tuple(dedup.values()),
    )


def count_summary(n: int) -> dict[str, int]:
    """The counting rows reported by the command line tool; ValueError
    before any count when n is past the enumeration limit."""
    check_arity(n, ALTERNATING_ARITY_LIMIT)
    rows = {
        "shapes": shape_count(n),
        "assoc_classes": sum(1 for _ in enumerate_alternating(n)),
    }
    if n <= GRAPH_ARITY_LIMIT:
        rows["isolated"] = isolated_count(n)
    return rows
