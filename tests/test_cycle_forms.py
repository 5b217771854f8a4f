"""Ring-orbit vocabulary: folds, brackets, bases, and power identities."""

import math
import subprocess
import sys
from pathlib import Path

import pytest

from dla_lab import (
    PauliString,
    PauliVector,
    pauli_type,
    ab_power,
    ab_power_expansion_coeffs,
    canonical_basis,
    cut_orbit,
    cycle_basis,
    cycle_center,
    field_orbit,
    orbit_bracket,
    orbit_term,
    su2_basis,
)
from dla_lab.cycle_forms import (
    _folded_table,
    _pair_bracket,
    CycleOrbitSum,
    ab_power_coeffs,
    ab_power_trig_coeffs,
    ab_recursion_identity_ok,
    ab_recursion_identity_residual,
    alternating_eigen_residual,
    canonical_relation_residuals,
    su2_relation_residuals,
)


def test_orbit_validation():
    # keys are (kind index, offset) in the order X, XN1, ZXZ, YXY, YXZ
    for key in (
        (5, 0),  # no sixth kind
        (-1, 0),
        (0, 1),  # the single-X family carries no offset
        (2, -2),
        (2, 4),  # offset n-1 folds into the all-but-one family
    ):
        with pytest.raises(ValueError):
            CycleOrbitSum(5, {key: 1})
    with pytest.raises(ValueError):
        CycleOrbitSum(2, {})
    with pytest.raises(ValueError):
        orbit_term(2, "X")
    with pytest.raises(ValueError):
        orbit_term(2, "ZXZ", 0, 0)


def test_orbit_sum_repr_pins_kind_order_and_labels():
    assert repr(cycle_center(5)[0]) == (
        "CycleOrbitSum(n=5, -1*X + 1*ZXZ(1) + 1*ZXZ(3) + 1*YXY(1) + 1*YXY(3))"
    )
    assert repr(cycle_center(4)[0]) == (
        "CycleOrbitSum(n=4, -1*X + 1*XN1 + 1*ZXZ(1) + 1*YXY(1))"
    )
    assert [repr(c) for c in cycle_center(6)] == [
        "CycleOrbitSum(n=6, -1*X + 1*XN1 + 1*ZXZ(1) + 1*ZXZ(3) + 1*YXY(1)"
        " + 1*YXY(3))",
        "CycleOrbitSum(n=6, 1*ZXZ(0) + 1*ZXZ(2) + 1*ZXZ(4) + 1*YXY(0) + 1*YXY(2)"
        " + 1*YXY(4))",
    ]
    assert [repr(c) for c in cycle_center(7)] == [
        "CycleOrbitSum(n=7, -1*X + 1*ZXZ(1) + 1*ZXZ(3) + 1*ZXZ(5) + 1*YXY(1)"
        " + 1*YXY(3) + 1*YXY(5))",
        "CycleOrbitSum(n=7, 1*XN1 + 1*ZXZ(0) + 1*ZXZ(2) + 1*ZXZ(4) + 1*YXY(0)"
        " + 1*YXY(2) + 1*YXY(4))",
    ]
    assert repr(orbit_term(4, "YXZ", 2, 3)) == "CycleOrbitSum(n=4, 3*YXZ(2))"


def test_orbit_string_counts():
    n = 7
    assert len(orbit_term(n, "X").expand()) == n
    assert len(orbit_term(n, "XN1").expand()) == n
    for t in range(n - 1):
        assert len(orbit_term(n, "ZXZ", t).expand()) == n
        assert len(orbit_term(n, "YXY", t).expand()) == n
        # the asymmetric family keeps both orientations of each arc
        assert len(orbit_term(n, "YXZ", t).expand()) == 2 * n


def test_field_and_cut_orbits():
    n = 5
    f = field_orbit(n).expand()
    assert f == PauliVector(
        n, {PauliString.single(n, j, "X"): 1 for j in range(n)}
    )
    c = cut_orbit(n).expand()
    assert len(c) == n
    for p in c.support():
        t = pauli_type(p)
        assert (t.n_X, t.n_Y, t.n_Z) == (0, 0, 2)


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_boundary_folds(n):
    """Arcs of length n-1 close the ring: both endpoints land on one site.

    Z.Z and Y.Y collapse to the identity there, leaving X everywhere
    else; the asymmetric family cancels between its two orientations.
    """
    full = (1 << n) - 1
    all_but_one = PauliVector(
        n, {PauliString(n, full ^ (1 << j), 0): 1 for j in range(n)}
    )
    assert orbit_term(n, "ZXZ", n - 1).expand() == all_but_one
    assert orbit_term(n, "YXY", n - 1).expand() == all_but_one
    assert orbit_term(n, "YXZ", n - 1).is_zero()
    assert orbit_term(n, "XN1").expand() == all_but_one


def test_fold_is_identity_on_canonical_range():
    n = 6
    for kind in ("ZXZ", "YXY", "YXZ"):
        for t in range(n - 1):
            term = orbit_term(n, kind, t)
            assert term.coeff(kind, t) == 1


def test_orbit_sum_arithmetic():
    n = 5
    a = orbit_term(n, "ZXZ", 1, 3)
    b = orbit_term(n, "ZXZ", 1, -3)
    assert (a + b).is_zero()
    assert a - a == CycleOrbitSum.zero(n)
    assert a.scaled(2).coeff("ZXZ", 1) == 6
    assert (-a).coeff("ZXZ", 1) == -3
    assert a.max_abs() == 3
    with pytest.raises(ValueError):
        a + orbit_term(4, "ZXZ", 1)


@pytest.mark.parametrize("n", [3, 4, 6, 9])
def test_cycle_basis_size_and_disjoint_supports(n):
    basis = cycle_basis(n)
    assert len(basis) == 3 * n - 1
    seen = set()
    for b in basis:
        sup = set(b.expand().support())
        assert not (sup & seen)
        seen |= sup


def test_expansion_labels_are_pinned():
    """The eight strings of YXZ(1) on four qubits, written out by hand:
    Y X Z and Z X Y on each arc of three, rotated around the ring."""
    labels = {p.label(): c for p, c in orbit_term(4, "YXZ", 1).expand().terms()}
    assert labels == dict.fromkeys(
        ["YXZI", "IYXZ", "ZIYX", "XZIY", "ZXYI", "IZXY", "YIZX", "XYIZ"], 1
    )


@pytest.mark.parametrize("n", range(3, 13))
def test_basis_orbit_keys_span_the_ring_closure(n):
    from dla_lab import Graph, generate_dla_orbit_compressed
    from dla_lab.closure import span_ledger

    ledger = span_ledger(b.compressed() for b in cycle_basis(n))
    assert ledger == generate_dla_orbit_compressed(Graph.cycle(n)).ledger


@pytest.mark.parametrize("n", range(3, 10))
def test_compressed_is_the_dihedral_compression_of_the_expansion(n):
    from dla_lab.paulis import pack_pauli
    from dla_lab.symmetry import PackedOrbits, PermGroup

    orbits = PackedOrbits(PermGroup.dihedral(n))
    for b in [*cycle_basis(n), *cycle_center(n)]:
        expanded = {pack_pauli(p): c for p, c in b.expand().terms()}
        packed = {}
        for key, c in expanded.items():
            rep, _, members = orbits.orbit(key)
            # the expansion is invariant: every orbit member carries c
            assert [expanded.get(m) for m in members] == [c] * len(members)
            packed[rep] = c
        assert b.compressed() == packed


@pytest.mark.parametrize("n", range(3, 9))
def test_center_commutes_exactly(n):
    c1, c2 = cycle_center(n)
    for c in (c1, c2):
        assert not c.is_zero() or n % 2 == 0
        assert orbit_bracket(field_orbit(n), c).is_zero()
        assert orbit_bracket(cut_orbit(n), c).is_zero()
    # disjoint orbit supports make independence immediate
    sup1 = {o for o, _ in c1.terms()}
    sup2 = {o for o, _ in c2.terms()}
    assert not (sup1 & sup2)


def test_bracket_antisymmetry_and_bilinearity():
    n = 6
    a = orbit_term(n, "YXY", 2) + orbit_term(n, "X", coeff=3)
    b = orbit_term(n, "ZXZ", 0) - orbit_term(n, "YXZ", 1, 2)
    assert orbit_bracket(a, b) == -orbit_bracket(b, a)
    c = orbit_term(n, "XN1")
    lhs = orbit_bracket(a, b + c)
    assert lhs == orbit_bracket(a, b) + orbit_bracket(a, c)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_bracket_matches_expansion(n):
    """The orbit bracket is the Pauli commutator seen through expansion."""
    from dla_lab import commutator

    basis = cycle_basis(n)
    for a in basis:
        for b in basis:
            assert orbit_bracket(a, b).expand() == commutator(
                a.expand(), b.expand()
            )


def _endpoint_terms(v):
    """v's terms as (kind, offset, coeff) over the endpoint families:
    X is -YXY(-1) and XN1 is YXY(n-1)."""
    out = []
    for (i, offset), c in v.terms():
        if i == 0:
            out.append(("YXY", -1, -c))
        elif i == 1:
            out.append(("YXY", v.n - 1, c))
        else:
            out.append((("ZXZ", "YXY", "YXZ")[i - 2], offset, c))
    return out


def _pair_terms(a, b):
    """The bracket's terms in the order of the sum, each a folded
    ``orbit_term``."""
    n = a.n
    for kind1, s, c1 in _endpoint_terms(a):
        for kind2, t, c2 in _endpoint_terms(b):
            for coeff, kind, offset in _pair_bracket(kind1, s, kind2, t):
                yield orbit_term(n, kind, offset, coeff * c1 * c2)


def _reference_bracket(a, b):
    """Term-by-term bracket: one folded ``orbit_term`` per pair term."""
    acc = CycleOrbitSum.zero(a.n)
    for term in _pair_terms(a, b):
        acc.accumulate(term)
    return acc


def test_bracket_is_exactly_the_term_by_term_sum():
    """Integer, complex and float brackets equal the term-by-term sum
    with ``==``, not a tolerance: the folded table changes no addition.
    Sizes alternate, so a table shared across ring sizes fails here.
    Each mode meets itself and the next mode, which already reaches
    every entry of the table.  Last, YXZ(0)'s sum in [ca X + cz ZXZ(1),
    cb (ZXZ(0) + YXY(0))] cancels to exactly zero after two terms and the
    third refills it, for int, float and complex coefficients."""
    _folded_table.cache_clear()
    for n in (5, 11, 3, 8, 5):
        basis = cycle_basis(n)
        for a in basis:
            for b in basis:
                assert orbit_bracket(a, b) == _reference_bracket(a, b)
        ladders = [(t.h, t.u, t.v) for t in canonical_basis(n)]
        rotations = [(t.x, t.y, t.z) for t in su2_basis(n)]
        for modes in (ladders, rotations):
            for mode, following in zip(modes, modes[1:] + modes[:1]):
                for a in mode:
                    for b in mode + following:
                        assert orbit_bracket(a, b) == _reference_bracket(a, b)
    n = 5
    for ca, cz, cb in ((3, -5, 7), (0.1, 0.7, 1 / 3), (0.1 + 0.2j, -0.3j, 1 / 3 - 0.5j)):
        a = orbit_term(n, "X", coeff=ca) + orbit_term(n, "ZXZ", 1, cz)
        b = orbit_term(n, "ZXZ", 0, cb) + orbit_term(n, "YXY", 0, cb)
        addends = [t.coeff("YXZ", 0) for t in _pair_terms(a, b) if t.coeff("YXZ", 0)]
        assert len(addends) == 3
        assert addends[0] + addends[1] == 0 and addends[2] != 0
        got = orbit_bracket(a, b)
        assert got == _reference_bracket(a, b)
        assert got.coeff("YXZ", 0) == addends[2]
        assert type(got.coeff("YXZ", 0)) is type(ca)


def test_bracket_table_is_built_whole():
    """One entry per pair of the 3n-1 stored keys, on first use; each
    entry is (coeff, position) of a stored key, an int sign-carrying
    coefficient and a position in 0..3n-2."""
    _folded_table.cache_clear()
    for n in (3, 8):
        orbit_bracket(field_orbit(n), cut_orbit(n))
        table = _folded_table(n)
        assert len(table) == 3 * n - 1
        assert sum(map(len, table)) == (3 * n - 1) ** 2
        entries = [e for row in table for cell in row for e in cell]
        assert entries
        for coeff, pos in entries:
            assert type(coeff) is int and coeff in (-4, -2, 2, 4)
            assert type(pos) is int and 0 <= pos < 3 * n - 1


def test_bracket_table_is_antisymmetric_with_one_term_per_position():
    """Each rule is stated for one order of its pair and mirrored with a
    sign: cell (p, q) is cell (q, p) negated.  No cell names a position
    twice, so a bracket's output positions each take one addend per pair
    of terms, whatever order a cell lists them in."""
    for n in range(3, 41):
        table = _folded_table(n)
        for p, row in enumerate(table):
            for q, cell in enumerate(row):
                assert len({pos for _, pos in cell}) == len(cell)
                assert sorted(cell) == sorted((-c, pos) for c, pos in table[q][p])


_RETAINED = """
import gc, sys
sys.path.insert(0, {src!r})
from dla_lab.cycle_forms import _folded_table, cycle_basis, cycle_center, orbit_bracket
from dla_lab.symmetry import PackedOrbits

for n in range(3, 41):
    basis = cycle_basis(n)
    for b in basis:
        b.expand()
    for c in cycle_center(n):
        for b in basis:
            orbit_bracket(c, b)
gc.collect()
print(sum(isinstance(o, PackedOrbits) for o in gc.get_objects()),
      _folded_table.cache_info().currsize)
"""


def test_no_ring_size_outlives_the_next():
    """After rings 3..40 are expanded and bracketed, one orbit map and one
    bracket table are left: those of the last ring.  A fresh interpreter,
    so no other test's objects are counted."""
    src = str(Path(__file__).parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _RETAINED.format(src=src)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.stdout, proc.stderr) == ("1 1\n", "")


def test_power_rows_start_with_plain_commutator():
    rows = ab_power_coeffs(6, 3)
    assert rows[0] == [2, 0, 0, 0, 0]
    assert rows[1] == [0, 16, 0, 0, 0]
    assert rows[2] == [128, 0, 128, 0, 0]
    first = ab_power(6, 1)
    assert first == orbit_bracket(field_orbit(6), cut_orbit(6))


def test_power_expansion_coefficients_small_cases():
    assert ab_power_expansion_coeffs(3) == [64, 0]
    assert ab_power_expansion_coeffs(4) == [0, 128, 0]


@pytest.mark.parametrize("n", range(3, 13))
def test_power_recursion_identity_exact(n):
    assert ab_recursion_identity_ok(n)
    assert ab_recursion_identity_residual(n) < 1e-6


@pytest.mark.parametrize("n", [3, 5, 8, 10])
def test_power_trig_matches_recursion(n):
    """Closed-form rows agree with the integer recursion, relative to
    each row's largest entry (boundary entries cancel almost fully)."""
    for k in range(1, 9):
        exact = ab_power_coeffs(n, k)[k - 1]
        trig = ab_power_trig_coeffs(n, k)
        scale = max(max(abs(c) for c in exact), 1)
        for e, t in zip(exact, trig):
            assert abs(e - t) / scale < 1e-9


@pytest.mark.parametrize("n", [3, 4, 7])
def test_alternating_powers_are_minus_16_eigenvectors(n):
    a = field_orbit(n)
    b = cut_orbit(n)
    for k in (1, 2, 3):
        w = ab_power(n, k)
        assert orbit_bracket(a, orbit_bracket(a, w)) == w.scaled(-16)
        assert orbit_bracket(b, orbit_bracket(b, w)) == w.scaled(-16)


@pytest.mark.parametrize("n", [3, 4, 6, 10])
def test_canonical_relations(n):
    res = canonical_relation_residuals(n)
    assert set(res) == {
        "h-u-raise",
        "h-v-lower",
        "u-v-cartan",
        "h-h-zero",
        "u-u-zero",
        "v-v-zero",
        "cross-h-u",
        "cross-h-v",
        "cross-u-v",
    }
    assert res["h-h-zero"] == 0.0
    for value in res.values():
        assert value < 1e-12


@pytest.mark.parametrize("n", [3, 4, 6, 10])
def test_su2_relations(n):
    res = su2_relation_residuals(n)
    for value in res.values():
        assert value < 1e-12
    assert len(su2_basis(n)) == n - 1


@pytest.mark.parametrize("n", [3, 5, 8])
def test_mode_elements_are_alternating_eigenvectors(n):
    assert alternating_eigen_residual(n) < 1e-12


def test_canonical_and_su2_are_same_span_per_mode():
    """Each rotation triple is a fixed linear mix of its ladder triple:
    z = i h, x = i (u + v), y = v - u."""
    n = 5
    for can, rot in zip(canonical_basis(n), su2_basis(n)):
        assert can.k == rot.k
        assert (can.h.scaled(1j) - rot.z).max_abs() < 1e-12
        assert ((can.u + can.v).scaled(1j) - rot.x).max_abs() < 1e-12
        assert ((can.v - can.u) - rot.y).max_abs() < 1e-12
