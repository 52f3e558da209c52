import pytest

from medial import counts
from medial.assoc import binary_representatives, to_alternating
from medial.cli import FAIL, main
from medial.counts import (
    ALTERNATING_COUNTS,
    ISOLATED_COUNTS,
    SHAPE_COUNTS,
    count_summary,
    dihedral_orbits,
    interchange_graph,
    isolated_count,
    orbit_size_multiset,
    verify_fiber_equivalence,
)
from medial.rewrite import INTERCHANGE_ONLY, successors
from medial.trees import H, V, enumerate_shapes, shape_count, strip_labels


def test_graph_small_arities():
    g2 = interchange_graph(2)
    assert len(g2.vertices) == 2
    assert g2.edges == frozenset()
    g4 = interchange_graph(4)
    assert len(g4.vertices) == 22
    assert len(g4.isolated_vertices()) == 20
    # the single edge joins the two flat two-by-two vertices
    (edge,) = g4.edges
    ends = {g4.vertices[i] for i in edge}
    assert ends == {(H, (V, 0, 0), (V, 0, 0)), (V, (H, 0, 0), (H, 0, 0))}


def test_graph_has_no_loops():
    for n in range(2, 6):
        g = interchange_graph(n)
        assert all(i != j for i, j in g.edges)


def test_graph_edges_independent_of_vertex_order():
    g = interchange_graph(5)
    # recompute adjacency pairwise from the vertex set itself
    from medial.quotient import alt_successors

    edges = set()
    for i, v in enumerate(g.vertices):
        targets = {s for _, s in alt_successors(v)}
        for j, w in enumerate(g.vertices):
            if w in targets and i != j:
                edges.add((min(i, j), max(i, j)))
    assert edges == set(g.edges)


def test_graph_edges_match_binary_interchanges():
    # an edge is one interchange on some binary representative; this route
    # goes through binary rewriting only, not through the interned store
    for n in range(2, 8):
        g = interchange_graph(n)
        index = {v: i for i, v in enumerate(g.vertices)}
        edges = set()
        for i, v in enumerate(g.vertices):
            for rep in binary_representatives(v):
                for _, res in successors(rep, families=INTERCHANGE_ONLY):
                    j = index[strip_labels(to_alternating(res))]
                    if i != j:
                        edges.add((min(i, j), max(i, j)))
        assert edges == set(g.edges)


def test_isolated_counts_match_vendored():
    for n, want in ISOLATED_COUNTS.items():
        assert isolated_count(n) == want


def test_isolated_equals_degree_zero():
    for n in range(2, 7):
        g = interchange_graph(n)
        assert len(g.isolated_vertices()) == isolated_count(n)


def test_graph_limit():
    with pytest.raises(ValueError):
        interchange_graph(9)
    with pytest.raises(ValueError):
        isolated_count(99)


def test_dihedral_orbits_arity4():
    orbits = dihedral_orbits(4)
    assert len(orbits) == 9
    assert orbit_size_multiset(4) == (2, 2, 4, 4, 4, 4, 4, 8, 8)
    assert sum(len(o) for o in orbits) == shape_count(4) == 40
    assert all(8 % len(o) == 0 for o in orbits)
    # orbits partition the shapes
    seen = set()
    for orbit in orbits:
        for t in orbit:
            key = strip_labels(t)
            assert key not in seen
            seen.add(key)


def test_fiber_equivalence_small():
    r3 = verify_fiber_equivalence(3)
    assert r3.ok and r3.nontrivial_classes == ()
    r4 = verify_fiber_equivalence(4)
    assert r4.ok
    assert len(r4.nontrivial_classes) == 1
    (pair,) = r4.nontrivial_classes
    assert len(pair) == 2
    assert {strip_labels(t) for t in pair} == {
        (H, (V, 0, 0), (V, 0, 0)),
        (V, (H, 0, 0), (H, 0, 0)),
    }


def test_fiber_equivalence_limit():
    with pytest.raises(ValueError):
        verify_fiber_equivalence(7)


def test_shape_count_table():
    assert SHAPE_COUNTS == {n: shape_count(n) for n in range(1, 13)}
    for n in range(1, 8):
        assert sum(1 for _ in enumerate_shapes(n)) == SHAPE_COUNTS[n]


def test_count_shapes_row_is_checked_against_the_table(monkeypatch, capsys):
    # the row is computed by shape_count and checked against the vendored table
    monkeypatch.setattr(counts, "shape_count", lambda n: 41)
    assert main(["count", "--arity", "4"]) == FAIL
    assert "shapes               41  MISMATCH (expected 40)" in capsys.readouterr().out


def test_count_summary():
    rows = count_summary(4)
    assert rows == {"shapes": 40, "assoc_classes": 22, "isolated": 20}
    assert ALTERNATING_COUNTS[7] == 1806
