"""Unit tests for the Pauli string/vector layer.

Phase and commutator literals were frozen from the dense-matrix oracle in
tests/oracles/dense_oracle.py.
"""

import random
from fractions import Fraction

import pytest

from dla_lab.paulis import (
    PauliString,
    PauliVector,
    anticommute,
    commutator,
    commutes,
    hs_inner,
    multiply,
    pauli_type,
    phase_exponent,
)
from dla_lab.spectral import HermitianVector


def test_label_round_trip():
    for label in ("I", "XYZ", "IXIZ", "YYXI", "ZIIIX"):
        assert PauliString.from_label(label).label() == label


def test_single_placement():
    p = PauliString.single(4, 2, "Y")
    assert p.label() == "IIYI"
    assert p.x_mask == 0b0100 and p.z_mask == 0b0100


def test_mask_validation():
    with pytest.raises(ValueError):
        PauliString(2, 0b100, 0)
    with pytest.raises(ValueError):
        PauliString(0, 0, 0)
    with pytest.raises(ValueError):
        PauliString.single(3, 3, "X")


def test_identity():
    assert PauliString(3, 0, 0) == PauliString.from_label("III")
    assert PauliString.from_label("IXI") != PauliString(3, 0, 0)


def test_pauli_type_counts():
    t = pauli_type(PauliString.from_label("XYZZI"))
    assert (t.n_I, t.n_X, t.n_Y, t.n_Z) == (1, 1, 1, 2)
    assert not t.yz_even
    assert pauli_type(PauliString.from_label("YZ")).yz_even


def test_single_qubit_products():
    """X*Y = iZ, Y*Z = iX, Z*X = iY, and squares are the identity."""
    x = PauliString.from_label("X")
    y = PauliString.from_label("Y")
    z = PauliString.from_label("Z")
    assert multiply(x, y) == (1, z)
    assert multiply(y, x) == (3, z)
    assert multiply(y, z) == (1, x)
    assert multiply(z, x) == (1, y)
    for p in (x, y, z):
        assert multiply(p, p) == (0, PauliString(1, 0, 0))


def test_phase_antisymmetry():
    """For anticommuting strings the two orders differ by i^2."""
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 6)
        x1, z1 = rng.getrandbits(n), rng.getrandbits(n)
        x2, z2 = rng.getrandbits(n), rng.getrandbits(n)
        e1 = phase_exponent(x1, z1, x2, z2)
        e2 = phase_exponent(x2, z2, x1, z1)
        if anticommute(x1, z1, x2, z2):
            assert (e1 - e2) % 4 == 2
        else:
            assert e1 == e2


def test_commutes_matches_anticommute():
    a = PauliString.from_label("XXI")
    b = PauliString.from_label("ZIZ")
    assert not commutes(a, b)  # single overlapping X/Z pair
    assert commutes(a, PauliString.from_label("IIZ"))


def test_commutator_single_pair():
    """[iX, iY] = -2 (iZ) on one qubit."""
    vx = PauliVector(1, {PauliString.from_label("X"): 1})
    vy = PauliVector(1, {PauliString.from_label("Y"): 1})
    out = commutator(vx, vy)
    assert out.entries == {PauliString.from_label("Z"): -2}
    assert commutator(vy, vx).entries == {PauliString.from_label("Z"): 2}


def test_commutator_bilinear_and_alternating():
    rng = random.Random(11)
    n = 3
    strings = [
        PauliString(n, rng.getrandbits(n), rng.getrandbits(n)) for _ in range(6)
    ]
    a = PauliVector(n, {strings[0]: 2, strings[1]: -1, strings[2]: 3})
    b = PauliVector(n, {strings[3]: 1, strings[4]: 5})
    c = PauliVector(n, {strings[5]: -2})
    assert commutator(a, a).is_zero()
    left = commutator(a + b, c)
    assert left == commutator(a, c) + commutator(b, c)
    assert commutator(a.scaled(7), b) == commutator(a, b).scaled(7)


def test_jacobi_identity_exact():
    rng = random.Random(23)
    n = 4
    for _ in range(25):
        vecs = []
        for _ in range(3):
            entries = {}
            for _ in range(3):
                p = PauliString(n, rng.getrandbits(n), rng.getrandbits(n))
                entries[p] = rng.randint(-4, 4)
            vecs.append(PauliVector(n, entries))
        a, b, c = vecs
        total = (
            commutator(a, commutator(b, c))
            + commutator(b, commutator(c, a))
            + commutator(c, commutator(a, b))
        )
        assert total.is_zero()


def test_vector_arithmetic():
    p = PauliString.from_label("XZ")
    q = PauliString.from_label("YI")
    v = PauliVector(2, {p: 3, q: -2})
    w = PauliVector(2, {p: -3})
    assert (v + w).entries == {q: -2}
    assert (v - v).is_zero()
    assert v.scaled(0).is_zero()
    assert (-v).coeff(p) == -3
    assert len(v) == 2 and v.coeff(PauliString.from_label("II")) == 0


def test_vector_accumulate_in_place_and_types_stay_apart():
    p = PauliString.from_label("XZ")
    q = PauliString.from_label("YI")
    v = PauliVector(2, {p: 3, q: -2})
    alias = v
    v.accumulate(PauliVector(2, {p: -3}))
    assert alias.entries == {q: -2}
    h = HermitianVector(2, {q: -2})
    assert h != v and v != h
    with pytest.raises(TypeError):
        v + h
    with pytest.raises(ValueError):
        v.accumulate(PauliVector(3, {PauliString.from_label("XXX"): 1}))


def test_vector_rejects_mixed_qubit_counts():
    with pytest.raises(ValueError):
        PauliVector(2, {PauliString.from_label("XXX"): 1})
    with pytest.raises(ValueError):
        commutator(
            PauliVector(1, {PauliString.from_label("X"): 1}),
            PauliVector(2, {PauliString.from_label("XX"): 1}),
        )


def test_hs_inner_orthogonality():
    """tr((iP)^dag (iQ)) = 2^n delta_PQ on strings."""
    p = PauliString.from_label("XYZ")
    q = PauliString.from_label("XYI")
    vp, vq = PauliVector(p.n, {p: 1}), PauliVector(q.n, {q: 1})
    assert hs_inner(vp, vp) == 8
    assert hs_inner(vp, vq) == 0
    v = PauliVector(3, {p: 2, q: Fraction(1, 2)})
    assert hs_inner(v, v) == 8 * (4 + Fraction(1, 4))
