"""Type-coordinate machinery for the all-to-all family."""

import math

import pytest

from dla_lab import (
    DECOMPOSITION_CONJECTURE,
    Graph,
    ad_cut,
    ad_field,
    commutator,
    fact_suite,
    generate_dla_orbit_compressed,
    kn_basis,
    kn_formulas,
    kn_ideal_basis,
    sym_term,
)
from dla_lab.closure import span_ledger
from dla_lab.complete_forms import SymOrbitSum


def test_type_validation():
    with pytest.raises(ValueError):
        SymOrbitSum(1, {})
    with pytest.raises(ValueError):
        sym_term(4, 3, 1, 1)  # counts exceed the vertex count
    with pytest.raises(ValueError):
        sym_term(4, -1, 0, 0)
    with pytest.raises(ValueError):
        sym_term(3, 1, 0, 0) + sym_term(4, 1, 0, 0)


def test_type_arithmetic():
    a = sym_term(5, 1, 1, 0, 2)
    assert (a - a).is_zero()
    assert a.scaled(3).coeff(1, 1, 0) == 6
    assert (-a).coeff(1, 1, 0) == -2
    b = a + sym_term(5, 0, 0, 2)
    assert sorted(k for k, _ in b.terms()) == [(0, 0, 2), (1, 1, 0)]


@pytest.mark.parametrize(
    "n, t",
    [
        (4, (1, 1, 0)),
        (4, (0, 0, 2)),
        (5, (1, 1, 1)),
        (6, (2, 1, 1)),
    ],
)
def test_expansion_counts_are_multinomial(n, t):
    p, q, r = t
    v = sym_term(n, p, q, r).expand()
    expected = math.factorial(n) // (
        math.factorial(p)
        * math.factorial(q)
        * math.factorial(r)
        * math.factorial(n - p - q - r)
    )
    assert len(v) == expected
    assert all(c == 1 for _, c in v.terms())


def test_expansion_cap():
    big = sym_term(9, 1, 0, 0)
    with pytest.raises(ValueError, match="capped"):
        big.expand()


@pytest.mark.parametrize("n", [4, 5])
def test_adjoint_maps_match_commutators(n):
    field = sym_term(n, 1, 0, 0).expand()
    cut = sym_term(n, 0, 0, 2).expand()
    probes = [
        sym_term(n, 0, 1, 1),
        sym_term(n, 1, 1, 1),
        sym_term(n, 0, 0, 2) + sym_term(n, 2, 1, 1, -3),
        sym_term(n, 1, 2, 0),
    ]
    for v in probes:
        assert ad_field(v).expand() == commutator(field, v.expand())
        assert ad_cut(v).expand() == commutator(cut, v.expand())


@pytest.mark.parametrize("n", range(2, 13))
def test_explicit_basis_length_matches_formula(n):
    assert len(kn_basis(n)) == kn_formulas(n)["dim"]
    assert len(kn_ideal_basis(n)) == kn_formulas(n)["ideal_dim"]


# each basis as a sorted list of its vectors' sorted (triple, coeff) items:
# 15 and 24 vectors for kn_basis, 14 and 22 for kn_ideal_basis
BASIS_PINS = {
    (kn_basis, 4): [
        [((0, 0, 2), 1)],
        [((0, 0, 4), -8), ((0, 2, 2), 4)],
        [((0, 1, 1), 1)],
        [((0, 1, 3), 1)],
        [((0, 2, 0), -8), ((0, 2, 2), -8), ((2, 0, 0), 8), ((2, 0, 2), 8)],
        [((0, 2, 0), 1)],
        [((0, 2, 2), -4), ((0, 4, 0), 8)],
        [((0, 3, 1), 1)],
        [((1, 0, 0), 1)],
        [((1, 0, 2), 1)],
        [((1, 1, 1), 1)],
        [((1, 2, 0), 1)],
        [((2, 0, 2), -4), ((2, 2, 0), 4)],
        [((2, 1, 1), 1)],
        [((3, 0, 0), 1)],
    ],
    (kn_basis, 5): [
        [((0, 0, 2), 1)],
        [((0, 0, 4), -8), ((0, 2, 2), 4)],
        [((0, 1, 1), 1)],
        [((0, 1, 3), 1)],
        [((0, 2, 0), -12), ((0, 2, 2), -8), ((2, 0, 0), 12), ((2, 0, 2), 8)],
        [((0, 2, 0), 1)],
        [((0, 2, 2), -4), ((0, 4, 0), 8)],
        [((0, 3, 1), 1)],
        [((1, 0, 0), 1)],
        [((1, 0, 2), 1)],
        [((1, 0, 4), 1)],
        [((1, 1, 1), 1)],
        [((1, 1, 3), 1)],
        [((1, 2, 0), -8), ((1, 2, 2), -8), ((3, 0, 0), 12), ((3, 0, 2), 12)],
        [((1, 2, 0), 1)],
        [((1, 2, 2), 1)],
        [((1, 3, 1), 1)],
        [((1, 4, 0), 1)],
        [((2, 0, 0), 1)],
        [((2, 0, 2), -4), ((2, 2, 0), 4)],
        [((2, 1, 1), 1)],
        [((2, 2, 0), -4), ((4, 0, 0), 8)],
        [((3, 0, 2), -4), ((3, 2, 0), 4)],
        [((3, 1, 1), 1)],
    ],
    (kn_ideal_basis, 4): [
        [((0, 0, 2), -4), ((0, 2, 0), 4)],
        [((0, 0, 4), -8), ((0, 2, 2), 4)],
        [((0, 1, 1), 1)],
        [((0, 1, 3), 1)],
        [((0, 2, 0), -8), ((0, 2, 2), -8), ((2, 0, 0), 8), ((2, 0, 2), 8)],
        [((0, 2, 2), -4), ((0, 4, 0), 8)],
        [((0, 3, 1), 1)],
        [((1, 0, 0), 6), ((1, 0, 2), 4)],
        [((1, 0, 2), -4), ((1, 2, 0), 4)],
        [((1, 0, 2), 2)],
        [((1, 1, 1), 1)],
        [((1, 2, 0), -4), ((3, 0, 0), 6)],
        [((2, 0, 2), -4), ((2, 2, 0), 4)],
        [((2, 1, 1), 1)],
    ],
    (kn_ideal_basis, 5): [
        [((0, 0, 2), -4), ((0, 2, 0), 4)],
        [((0, 0, 4), -8), ((0, 2, 2), 4)],
        [((0, 1, 1), 1)],
        [((0, 1, 3), 1)],
        [((0, 2, 0), -12), ((0, 2, 2), -8), ((2, 0, 0), 12), ((2, 0, 2), 8)],
        [((0, 2, 2), -4), ((0, 4, 0), 8)],
        [((0, 2, 2), -4), ((2, 0, 2), 4)],
        [((0, 3, 1), 1)],
        [((1, 0, 0), 8), ((1, 0, 2), 4)],
        [((1, 0, 2), -4), ((1, 2, 0), 4)],
        [((1, 0, 2), 4), ((1, 0, 4), 8)],
        [((1, 0, 4), -8), ((1, 2, 2), 4)],
        [((1, 1, 1), 1)],
        [((1, 1, 3), 1)],
        [((1, 2, 0), -8), ((1, 2, 2), -8), ((3, 0, 0), 12), ((3, 0, 2), 12)],
        [((1, 2, 2), -4), ((1, 4, 0), 8)],
        [((1, 3, 1), 1)],
        [((2, 0, 2), -4), ((2, 2, 0), 4)],
        [((2, 1, 1), 1)],
        [((2, 2, 0), -4), ((4, 0, 0), 8)],
        [((3, 0, 2), -4), ((3, 2, 0), 4)],
        [((3, 1, 1), 1)],
    ],
}


@pytest.mark.parametrize("build, n", list(BASIS_PINS))
def test_explicit_bases_pinned(build, n):
    got = sorted(sorted(v.to_dict().items()) for v in build(n))
    assert got == BASIS_PINS[build, n]


@pytest.mark.parametrize("n", range(3, 11))
def test_explicit_basis_spans_the_closure(n):
    report = generate_dla_orbit_compressed(Graph.complete(n))
    ours = span_ledger(v.to_dict() for v in kn_basis(n))
    assert ours.rank == report.dimension
    assert ours.canonical_rows() == report.ledger.canonical_rows()


@pytest.mark.parametrize("n", range(3, 9))
def test_fact_suite_all_hold(n):
    report = generate_dla_orbit_compressed(Graph.complete(n))
    spanners = [v.to_dict() for v in kn_ideal_basis(n)]
    results = fact_suite(report, (spanners, span_ledger(spanners)))
    assert results, "fact suite must not be empty"
    failed = [name for name, ok in results.items() if not ok]
    assert not failed
    assert "all-x-outside-span" in results
    assert "identity-outside-span" in results


def test_ideal_spanners_independent_in_type_coordinates():
    for n in (4, 7):
        vs = kn_ideal_basis(n)
        led = span_ledger(v.to_dict() for v in vs)
        assert led.rank == len(vs)


def test_decomposition_note_stays_flagged():
    assert "unverified" in DECOMPOSITION_CONJECTURE
