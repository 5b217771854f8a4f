"""Unit tests for qubit-permutation groups and Pauli orbits.

Orbit and Burnside literals were frozen from the dense-matrix oracle in
tests/oracles/dense_oracle.py.
"""

import pytest

from dla_lab.graphs import Graph
from dla_lab.paulis import PauliString, PauliVector, pack_pauli, unpack_pauli
from dla_lab.symmetry import (
    AUT_VERTEX_CAP,
    GroupTooLarge,
    PackedOrbits,
    PermGroup,
    Permutation,
    graph_automorphisms,
    graph_group,
    orbit_count,
)


def test_permutation_compose_inverse():
    p = Permutation((1, 2, 0))  # j -> images[j]
    q = Permutation((2, 0, 1))
    assert p.compose(q).images == (0, 1, 2)
    assert q.compose(p).images == (0, 1, 2)
    assert Permutation.identity(4).images == (0, 1, 2, 3)


def test_compose_refuses_a_size_mismatch():
    """compose skips the bijection check, so it checks the sizes instead."""
    small, large = Permutation((1, 0)), Permutation((2, 0, 1))
    for a, b in ((small, large), (large, small)):
        with pytest.raises(ValueError, match="size mismatch"):
            a.compose(b)


def test_cycle_count():
    assert Permutation((1, 2, 0)).cycle_count() == 1
    assert Permutation((0, 1, 2)).cycle_count() == 3
    assert Permutation((1, 0, 3, 2)).cycle_count() == 2


def _order(group):
    return len(group.elements())


def test_group_orders():
    assert _order(PermGroup.trivial(5)) == 1
    assert _order(PermGroup.symmetric(4)) == 24
    assert _order(PermGroup.dihedral(3)) == 6
    assert _order(PermGroup.dihedral(8)) == 16
    assert _order(PermGroup.reversal(6)) == 2


def _orbit_labels(group, label):
    """The labels of the orbit through ``label``, from the packed map."""
    members = PackedOrbits(group).orbit(pack_pauli(PauliString.from_label(label)))[2]
    return [unpack_pauli(len(label), k).label() for k in members]


def test_dihedral_orbit_of_yz():
    """Orbit of Y0 Z1 under the n=3 ring symmetries: six strings."""
    assert sorted(_orbit_labels(PermGroup.dihedral(3), "YZI")) == [
        "IYZ",
        "IZY",
        "YIZ",
        "YZI",
        "ZIY",
        "ZYI",
    ]


def _relabel(perm, label):
    """Move the letter on qubit j to qubit perm.images[j], on the label."""
    out = ["I"] * len(label)
    for j, ch in enumerate(label):
        out[perm.images[j]] = ch
    return "".join(out)


_LABELS4 = ("XIII", "YZII", "ZXYI", "XYZX", "IIIY", "ZIZI", "IIII")
_STAR5 = Graph(5, {(0, 1), (0, 2), (0, 3), (0, 4)})


@pytest.mark.parametrize(
    "group, labels",
    [
        (PermGroup.dihedral(4), _LABELS4),
        (PermGroup.reversal(4), _LABELS4),
        (PermGroup.symmetric(4), _LABELS4),
        (graph_automorphisms(_STAR5), ("XIIII", "IXIII", "ZYIII", "IYZXI", "YIIZZ", "IIIII")),
    ],
    ids=["dihedral", "reversal", "symmetric", "star5"],
)
def test_packed_orbits_agree_with_string_actions(group, labels):
    orbits = PackedOrbits(group)
    for label in labels:
        p = PauliString.from_label(label)
        images = {_relabel(g, label) for g in group}
        rep, size, members = orbits.orbit(pack_pauli(p))
        assert sorted(images) == sorted(unpack_pauli(p.n, k).label() for k in members)
        assert list(members) == sorted(members)
        assert rep == min(members) and size == len(images)
        for key in members:
            assert orbits.orbit(key) == (rep, size, members)


def test_orbit_sum_coefficients():
    """The X orbit of the 3-ring expanded through its members: the three
    single-qubit strings, each with the orbit's coefficient."""
    orbits = PackedOrbits(PermGroup.dihedral(3))
    members = orbits.orbit(pack_pauli(PauliString.from_label("XII")))[2]
    v = PauliVector(3, {unpack_pauli(3, k): 1 for k in members})
    assert len(v) == 3
    assert all(c == 1 for _, c in v.terms())
    assert sorted(p.label() for p, _ in v.terms()) == ["IIX", "IXI", "XII"]


def test_burnside_orbit_count():
    """|P_4 / D_4| = 55, frozen from the oracle's Burnside count."""
    assert orbit_count(PermGroup.dihedral(4)) == 55
    assert orbit_count(PermGroup.trivial(2)) == 16


def test_graph_automorphisms_path():
    """The path graph has exactly identity + reversal."""
    group = graph_automorphisms(Graph.path(3))
    images = sorted(p.images for p in group.elements())
    assert images == [(0, 1, 2), (2, 1, 0)]
    assert group.elements()[0] == Permutation.identity(3)
    assert group.generators == [Permutation((2, 1, 0))]


def test_graph_automorphisms_cycle():
    assert _order(graph_automorphisms(Graph.cycle(4))) == 8
    assert _order(graph_automorphisms(Graph.complete(4))) == 24


def test_automorphism_search_cap():
    with pytest.raises(GroupTooLarge):
        graph_automorphisms(Graph.path(12))


def test_graph_group_names_a_family_group_or_searches():
    assert _order(graph_group(Graph.cycle(40))) == 80
    assert _order(graph_group(Graph.path(40))) == 2
    assert graph_group(Graph.complete(40)).generators  # S_40, never enumerated
    star = Graph(4, {(0, 1), (0, 2), (0, 3)})
    assert _order(graph_group(star)) == 6
    with pytest.raises(GroupTooLarge, match=f"n={AUT_VERTEX_CAP}"):
        graph_group(Graph(AUT_VERTEX_CAP + 1, {(0, 1)}))
