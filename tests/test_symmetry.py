"""Unit tests for qubit-permutation groups and Pauli orbits.

Orbit and Burnside literals were frozen from the dense-matrix oracle in
tests/oracles/dense_oracle.py.
"""

import pytest

from dla_lab.graphs import Graph
from dla_lab.paulis import PauliString, PauliVector
from dla_lab.paulis import pack_pauli
from dla_lab.symmetry import (
    AUT_VERTEX_CAP,
    GroupTooLarge,
    PackedOrbits,
    PermGroup,
    Permutation,
    apply_perm,
    compress,
    decompress,
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


def test_cycle_count():
    assert Permutation((1, 2, 0)).cycle_count() == 1
    assert Permutation((0, 1, 2)).cycle_count() == 3
    assert Permutation((1, 0, 3, 2)).cycle_count() == 2


def test_apply_perm_pushforward():
    """A permutation moves the letter on qubit j to qubit pi(j)."""
    p = PauliString.from_label("XYI")
    rot = Permutation((1, 2, 0))
    assert apply_perm(rot, p).label() == "IXY"


def test_group_orders():
    assert PermGroup.trivial(5).order() == 1
    assert PermGroup.symmetric(4).order() == 24
    assert PermGroup.dihedral(3).order() == 6
    assert PermGroup.dihedral(8).order() == 16
    assert PermGroup.reversal(6).order() == 2


def test_dihedral_orbit_of_yz():
    """Orbit of Y0 Z1 under the n=3 ring symmetries: six strings."""
    orbit = PackedOrbits(PermGroup.dihedral(3)).strings(PauliString.from_label("YZI"))
    assert sorted(p.label() for p in orbit) == [
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


@pytest.mark.parametrize(
    "group",
    [PermGroup.dihedral(4), PermGroup.reversal(4), PermGroup.symmetric(4)],
    ids=["dihedral", "reversal", "symmetric"],
)
def test_packed_orbits_agree_with_string_actions(group):
    orbits = PackedOrbits(group)
    for label in ("XIII", "YZII", "ZXYI", "XYZX", "IIIY", "ZIZI"):
        p = PauliString.from_label(label)
        images = {_relabel(g, label) for g in group}
        assert images == {apply_perm(g, p).label() for g in group}
        strings = orbits.strings(p)
        assert sorted(images) == sorted(q.label() for q in strings)
        rep, size, members = orbits.orbit(pack_pauli(p))
        assert members == tuple(pack_pauli(q) for q in strings)
        assert rep == min(members) and size == len(images)
        for key in members:
            assert orbits.orbit(key) == (rep, size, members)


def test_orbit_sum_coefficients():
    v = decompress({PauliString.from_label("XII"): 1}, PermGroup.dihedral(3), 3)
    assert len(v) == 3
    assert all(c == 1 for _, c in v.terms())


def test_burnside_orbit_count():
    """|P_4 / D_4| = 55, frozen from the oracle's Burnside count."""
    assert orbit_count(4, PermGroup.dihedral(4)) == 55
    assert orbit_count(2, PermGroup.trivial(2)) == 16


def test_compress_decompress_round_trip():
    group = PermGroup.dihedral(5)
    v = decompress({PauliString.from_label("YZIII"): 1}, group, 5) + decompress(
        {PauliString.from_label("XIIII"): 1}, group, 5
    ).scaled(-3)
    packed = compress(v, group)
    assert len(packed) == 2
    assert decompress(packed, group, 5) == v


def test_compress_rejects_non_invariant():
    group = PermGroup.dihedral(4)
    lopsided = PauliVector(4, {PauliString.from_label("YZII"): 1})
    with pytest.raises(ValueError):
        compress(lopsided, group)


def test_graph_automorphisms_path():
    """The path graph has exactly identity + reversal."""
    group = graph_automorphisms(Graph.path(3))
    images = sorted(p.images for p in group.elements())
    assert images == [(0, 1, 2), (2, 1, 0)]
    assert group.elements()[0] == Permutation.identity(3)
    assert group.generators == [Permutation((2, 1, 0))]


def test_graph_automorphisms_cycle():
    assert graph_automorphisms(Graph.cycle(4)).order() == 8
    assert graph_automorphisms(Graph.complete(4)).order() == 24


def test_automorphism_search_cap():
    with pytest.raises(GroupTooLarge):
        graph_automorphisms(Graph.path(12))


def test_graph_group_names_a_family_group_or_searches():
    assert graph_group(Graph.cycle(40)).order() == 80
    assert graph_group(Graph.path(40)).order() == 2
    assert graph_group(Graph.complete(40)).generators  # S_40, never enumerated
    star = Graph(4, {(0, 1), (0, 2), (0, 3)})
    assert graph_group(star).order() == 6
    with pytest.raises(GroupTooLarge, match=f"n={AUT_VERTEX_CAP}"):
        graph_group(Graph(AUT_VERTEX_CAP + 1, {(0, 1)}))
