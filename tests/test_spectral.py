"""Moment formulas: purities, expectation, and variance assembly."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from dla_lab import (
    Graph,
    HermitianVector,
    PauliString,
    PauliVector,
    PurityPair,
    SpectralReport,
    cut_observable,
    cycle_basis,
    cycle_center,
    cycle_spectral_report,
    expectation,
    hs_inner,
    plus_state,
    purity,
    variance_from_components,
)
from dla_lab import spectral
from dla_lab.closure import maxcut_keys
from dla_lab.paulis import unpack_pauli


def test_plus_state_structure():
    n = 3
    rho = plus_state(n)
    assert len(rho) == 2**n
    for p, c in rho.terms():
        assert p.z_mask == 0, "only I/X strings may appear"
        assert c == Fraction(1, 2**n)
    # trace is the identity coefficient times 2^n
    assert rho.coeff(PauliString(n, 0, 0)) * 2**n == 1


def test_plus_state_guards():
    with pytest.raises(ValueError):
        plus_state(0)
    with pytest.raises(ValueError):
        plus_state(21)


def test_cut_observable_unit_frobenius_scale():
    g = Graph.cycle(6)
    obs = cut_observable(g)
    assert len(obs) == 6
    assert abs(hs_inner(obs, obs) - 2**6) < 1e-9
    with pytest.raises(ValueError, match="no edges; the cut Hamiltonian vanishes"):
        cut_observable(Graph(3, []))


@pytest.mark.parametrize(
    "graph",
    [*map(Graph.cycle, range(3, 9)), Graph.path(5),
     Graph(7, frozenset((0, j) for j in range(1, 7)))],
    ids=[*(f"cycle{n}" for n in range(3, 9)), "path5", "star7"],
)
def test_cut_observable_reads_the_cut_generator(graph):
    """The measurement's strings are ``maxcut_keys``'s cut terms, each with
    weight 1/sqrt|E|."""
    cut = maxcut_keys(graph)[1]
    c = 1.0 / math.sqrt(len(cut))
    assert dict(cut_observable(graph).terms()) == {
        unpack_pauli(graph.n, k): c for k in cut
    }


def test_hermitian_vector_basics():
    n = 2
    xi = PauliString.from_label("XI")
    ix = PauliString.from_label("IX")
    h = HermitianVector(n, {xi: Fraction(1, 2), ix: 0})
    assert len(h) == 1, "zero entries are dropped"
    assert h.coeff(ix) == 0
    assert h.scaled(4).coeff(xi) == 2
    assert hs_inner(h, h) == 1
    with pytest.raises(ValueError):
        HermitianVector(2, {PauliString.from_label("XXX"): 1})


def test_purity_of_empty_basis_is_zero():
    h = HermitianVector(2, {PauliString.from_label("ZZ"): 1})
    assert purity(h, []) == 0


def test_purity_is_exact_for_rational_inputs():
    n = 4
    whole = [b.expand() for b in cycle_basis(n)]
    x_orbit = HermitianVector(
        n,
        {PauliString.single(n, j, "X"): Fraction(1, 3) for j in range(n)},
    )
    value = purity(x_orbit, whole)
    assert value == Fraction(64, 9)
    assert value == hs_inner(x_orbit, x_orbit), "members project onto themselves"
    assert purity(x_orbit.scaled(3), whole) == 9 * value


def test_purity_gram_schmidt_fallback():
    """A non-orthogonal basis is refused, rational or float alike."""
    n = 3
    xii = PauliVector(n, {PauliString.from_label("XII"): 1})
    mixed = PauliVector(
        n,
        {
            PauliString.from_label("XII"): 1,
            PauliString.from_label("IXI"): 1,
        },
    )
    h = HermitianVector(n, {PauliString.from_label("IXI"): Fraction(1, 2)})
    with pytest.raises(ValueError, match="not pairwise orthogonal"):
        purity(h, [xii, mixed])
    # a float basis with the same defect is refused the same way
    fuzzy = PauliVector(
        n,
        {
            PauliString.from_label("XII"): 1.0,
            PauliString.from_label("IXI"): 1.0,
        },
    )
    with pytest.raises(ValueError, match="not pairwise orthogonal"):
        purity(h, [xii.scaled(1.0), fuzzy])


def test_expectation_of_orthogonal_observable_vanishes():
    n = 5
    center = [c.expand() for c in cycle_center(n)]
    rho = plus_state(n)
    outside = HermitianVector(n, {PauliString.from_label("YZIII"): 1})
    assert expectation(rho, outside, center) == 0


def _two_branch_pairing(rho, obs, basis):
    """The pairing rule as two branches: any float term in float, the rest
    as an exact Fraction."""
    terms = []
    for b in basis:
        num, num2, den = hs_inner(b, rho), hs_inner(b, obs), hs_inner(b, b)
        if num == 0 or num2 == 0:
            continue
        if any(isinstance(x, float) for x in (num, num2, den)):
            terms.append(num * num2 / den)
        else:
            terms.append(Fraction(num) * Fraction(num2) / Fraction(den))
    return spectral._accumulate(terms)


def _mixed_coeff(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice([-3, -2, -1, 1, 2, 3])
    if kind == 1:
        return Fraction(rng.choice([-5, -1, 1, 3, 7]), rng.choice([1, 2, 3, 7]))
    return rng.uniform(-2.0, 2.0)


def test_pairing_type_and_bits_follow_the_two_branch_rule():
    """Mixed exact and float inputs: the value, its type and its float bits
    equal the two-branch rule's.  Basis vectors mix int and float
    coefficients, and some of their float keys miss rho and O, so an exact
    numerator meets a float norm."""
    n = 3
    rng = random.Random(20240)
    labels = ["".join(t) for t in itertools.product("IXYZ", repeat=n)]
    for _ in range(1500):
        keys = rng.sample(labels, 12)
        # disjoint supports: every basis is exactly orthogonal
        basis = [
            PauliVector(n, {PauliString.from_label(k): _mixed_coeff(rng) for k in keys[i:i + 3]})
            for i in range(0, 12, 3)
        ]

        def state():
            picks = rng.sample(keys, rng.randrange(1, 9))
            return HermitianVector(n, {PauliString.from_label(k): _mixed_coeff(rng) for k in picks})

        rho, obs = state(), state()
        for got, want in (
            (expectation(rho, obs, basis), _two_branch_pairing(rho, obs, basis)),
            (purity(rho, basis), _two_branch_pairing(rho, rho, basis)),
        ):
            assert type(got) is type(want)
            assert got == want
            assert float(got).hex() == float(want).hex()


def test_variance_assembly():
    pairs = [PurityPair(0.25, 4.0), PurityPair(0.0, 4.0), PurityPair(0.25, 4.0)]
    assert variance_from_components(pairs) == pytest.approx(2.0 / 3.0)
    assert variance_from_components([]) == 0.0


def test_report_invariants():
    with pytest.raises(ValueError, match="nonnegative"):
        SpectralReport(
            n=3,
            purity_whole=PurityPair(1.0, 8.0),
            purity_center=PurityPair(0.25, 8.0 / 3),
            purity_per_component=(),
            expectation=0.0,
            variance=-1.0,
        )
    with pytest.raises(ValueError, match="exceed"):
        SpectralReport(
            n=3,
            purity_whole=PurityPair(0.1, 8.0),
            purity_center=PurityPair(0.5, 8.0 / 3),
            purity_per_component=(),
            expectation=0.0,
            variance=0.5,
        )


def test_cycle_report_small_spot_values():
    r3 = cycle_spectral_report(3)
    assert r3.purity_center.rho == pytest.approx(0.25)
    assert r3.purity_center.obs == pytest.approx(8.0 / 3.0)
    assert r3.expectation == pytest.approx(1.0 / math.sqrt(3))

    r4 = cycle_spectral_report(4)
    assert r4.purity_whole.rho == pytest.approx(0.5)
    assert r4.expectation == pytest.approx(0.0)
    assert r4.variance == pytest.approx(2.0 / 3.0)
    rhos = [p.rho for p in r4.purity_per_component]
    assert rhos == pytest.approx([0.25, 0.0, 0.25])

    r5 = cycle_spectral_report(5)
    assert r5.variance == pytest.approx(8.0 / 15.0)
    assert r5.expectation == pytest.approx(1.0 / math.sqrt(5))


def test_cycle_report_holds_at_every_float_size():
    """The n component purities 2^n/n of the observable can sum to an ulp
    above 2^n (first at n = 93); the invariant's slack is relative to the
    whole, so every size below the float limit gives a report."""
    for n in range(3, 1024):
        r = cycle_spectral_report(n)
        assert r.variance == pytest.approx(2 * (n - n % 2) / (3 * n), rel=1e-11)


@pytest.mark.parametrize("n", range(3, 9))
def test_cycle_report_cross_checks_run_at_small_sizes(n):
    r = cycle_spectral_report(n)
    assert r.cross_residual is not None
    assert r.cross_residual < 1e-9 * 2**n
    assert len(r.purity_per_component) == n - 1


def test_cycle_report_checks_each_basis_once(monkeypatch):
    """The recompute prepares each basis once: the whole algebra, the
    center pair and the n - 1 su(2) triples, 7 orthogonality checks at
    n = 6, shared by the state, the observable and the expectation."""
    calls = []
    checked = spectral._pairwise_orthogonal
    monkeypatch.setattr(
        spectral,
        "_pairwise_orthogonal",
        lambda basis, tol: calls.append(len(basis)) or checked(basis, tol),
    )
    cycle_spectral_report(6)
    assert len(calls) == 7


def test_cycle_report_judges_each_quantity_on_its_own_scale(monkeypatch):
    """A recomputed variance off by 1e-7 at n = 12 fails the default
    tolerance 1e-9, although the error is far below 1e-9 times 2^12, the
    scale of the measurement's purity."""
    recomputed = spectral._recomputed_forms

    def perturbed(n, tolerance):
        whole, center, comps, expect, var = recomputed(n, tolerance)
        return whole, center, comps, expect, var + 1e-7

    monkeypatch.setattr(spectral, "_recomputed_forms", perturbed)
    with pytest.raises(ArithmeticError, match="n=12"):
        cycle_spectral_report(12)


def test_cycle_report_closed_form_only_beyond_recompute_cap():
    r = cycle_spectral_report(20)
    assert r.cross_residual is None
    assert r.purity_whole.obs == 2**20
    assert r.variance == pytest.approx(2.0 * 20 / (3 * 20))


def test_cycle_report_rejects_tiny_rings():
    with pytest.raises(ValueError):
        cycle_spectral_report(2)
