"""Unit tests for graph handling, generators, and dimension bounds.

Centralizer and Burnside literals were frozen from the dense-matrix
oracle in tests/oracles/dense_oracle.py.
"""

import itertools

import pytest

from dla_lab.graphs import (
    Graph,
    centralizer_paulis,
    dimension_bounds,
    kn_formulas,
    maxcut_generators,
    parse_graph_spec,
)
from dla_lab.closure import generate_dla, generate_dla_orbit_compressed, maxcut_keys
from dla_lab.paulis import PauliString, pauli_type, pauli_vector_to_dict


def test_graph_normalizes_edges():
    g = Graph(3, ((2, 0), (0, 1), (1, 0)))
    assert g.edges == frozenset({(0, 1), (0, 2)})


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 3),))


def test_families():
    assert Graph.cycle(4).edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
    assert len(Graph.complete(5).edges) == 10
    assert Graph.path(4).edges == frozenset({(0, 1), (1, 2), (2, 3)})
    with pytest.raises(ValueError):
        Graph.cycle(2)


def test_parse_graph_spec():
    assert parse_graph_spec("cycle:7") == Graph.cycle(7)
    assert parse_graph_spec("complete:4") == Graph.complete(4)
    assert parse_graph_spec("path:5") == Graph.path(5)
    with pytest.raises(ValueError):
        parse_graph_spec("cycle")
    with pytest.raises(ValueError):
        parse_graph_spec("torus:4")


def test_graph_file_round_trip(tmp_path):
    path = tmp_path / "triangle.edges"
    path.write_text("3\n# a comment\n0 1\n1 2\n\n0 2\n")
    g = parse_graph_spec(f"file:{path}")
    assert g.n == 3 and g.edges == frozenset({(0, 1), (0, 2), (1, 2)})


def test_maxcut_generators():
    gens = maxcut_generators(Graph.complete(3))
    assert len(gens) == 2
    field, cut = gens
    assert sorted(p.label() for p in field.support()) == ["IIX", "IXI", "XII"]
    assert all(c == 1 for _, c in field.terms())
    assert sorted(p.label() for p in cut.support()) == ["IZZ", "ZIZ", "ZZI"]
    with pytest.raises(ValueError):
        maxcut_generators(Graph(2, ()))


@pytest.mark.parametrize(
    "graph",
    [Graph.cycle(5), Graph.path(4), Graph.complete(5),
     Graph(7, frozenset((0, j) for j in range(1, 7)))],
    ids=["cycle5", "path4", "complete5", "star7"],
)
def test_maxcut_generators_publish_maxcut_keys(graph):
    """The same terms, in the same order, as the closure's one source."""
    published = [list(pauli_vector_to_dict(v).items()) for v in maxcut_generators(graph)]
    assert published == [list(d.items()) for d in maxcut_keys(graph)]


def test_dimension_bounds_cycle():
    """C_4: 55 dihedral orbits of P_4, minus the identity orbit."""
    b = dimension_bounds(Graph.cycle(4))
    assert b["aut_bound"] == 54
    assert b["center_bound"] == 2


def test_dimension_bounds_path():
    """P_3 automorphisms = {id, reversal}: (4^3 + 4^2)/2 - 1 orbits."""
    b = dimension_bounds(Graph.path(3))
    assert b["aut_bound"] == (4**3 + 4**2) // 2 - 1


def test_dimension_bounds_complete_closed_form():
    b = dimension_bounds(Graph.complete(30))
    # orbits of S_30 on strings = types (p,q,r): C(33,3); minus identity
    assert b["aut_bound"] == 5456 - 1


def test_dimension_bounds_generic_graph():
    star_plus = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2)))
    b = dimension_bounds(star_plus)
    assert b["aut_bound"] is not None and b["center_bound"] == 2


@pytest.mark.parametrize(
    "graph",
    [
        # a 5-ring plus the chord 0-2: raw dimension 296
        Graph(5, {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)}, "cycle"),
        Graph(4, {(0, 1), (2, 3)}, "complete"),
    ],
    ids=["chorded-ring-as-cycle", "two-edges-as-complete"],
)
def test_family_label_the_edges_contradict_is_rejected(graph):
    with pytest.raises(ValueError, match="contradict"):
        dimension_bounds(graph)
    with pytest.raises(ValueError, match="contradict"):
        generate_dla_orbit_compressed(graph)
    unlabelled = Graph(graph.n, graph.edges)
    raw = generate_dla(maxcut_generators(unlabelled))
    assert raw.dimension <= dimension_bounds(unlabelled)["aut_bound"]
    assert generate_dla_orbit_compressed(unlabelled).dimension == raw.dimension


def test_kn_formulas_parity_split():
    even = kn_formulas(6)
    assert even == {
        "n": 6,
        "binom_bound": 84,
        "yz_bound": 42,
        "dim": 38,
        "ideal_dim": 37,
        "center_dim": 1,
    }
    odd = kn_formulas(5)
    assert (odd["dim"], odd["ideal_dim"], odd["center_dim"]) == (24, 22, 2)
    assert kn_formulas(2)["dim"] == kn_formulas(2)["yz_bound"] == 4


def test_centralizer_cycle_four():
    """Only the identity and the all-X string commute with everything."""
    labels = sorted(p.label() for p in centralizer_paulis(Graph.cycle(4)))
    assert labels == ["IIII", "XXXX"]


def test_centralizer_disconnected_graph():
    """Two disjoint edges admit per-component all-X strings; with no edges
    (no cut Hamiltonian, but a centralizer) every string of I and X does."""
    g = Graph(4, ((0, 1), (2, 3)))
    labels = sorted(p.label() for p in centralizer_paulis(g))
    assert labels == ["IIII", "IIXX", "XXII", "XXXX"]
    labels = sorted(p.label() for p in centralizer_paulis(Graph(3, frozenset())))
    assert labels == sorted(map("".join, itertools.product("IX", repeat=3)))


def test_centralizer_elements_commute_by_construction():
    g = Graph.path(4)
    for p in centralizer_paulis(g):
        t = pauli_type(p)
        assert t.n_Y == 0 and t.n_Z == 0  # pure {I,X} strings
    with pytest.raises(ValueError):
        centralizer_paulis(Graph.cycle(8))
