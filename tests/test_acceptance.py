"""Acceptance gate: the package's eleven headline behaviors.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per numbered behavior.  Every quantitative claim is asserted at its
stated tolerance; checks described as exact use ``==`` on integers or
rationals, never float comparisons.
"""

import math
import random
import time
from heapq import heapify, heappop, heappush
from itertools import combinations

import pytest

from dla_lab import (
    Graph,
    PermGroup,
    ab_power,
    centralizer_paulis,
    commutator,
    cut_observable,
    cut_orbit,
    cycle_basis,
    cycle_center,
    dimension_bounds,
    expectation,
    field_orbit,
    generate_dla,
    generate_dla_orbit_compressed,
    kn_formulas,
    maxcut_generators,
    orbit_bracket,
    pauli_type,
    plus_state,
    purity,
    su2_basis,
    variance_from_components,
)
from dla_lab.closure import (
    center,
    center_dimension,
    ideal_dimension,
    pauli_vector_to_dict,
    span_ledger,
)
from dla_lab.complete_forms import SymOrbitSum
from dla_lab.cycle_forms import (
    ab_power_coeffs,
    ab_power_expansion_coeffs,
    ab_power_trig_coeffs,
    ab_recursion_identity_ok,
    ab_recursion_identity_residual,
    canonical_relation_residuals,
    su2_relation_residuals,
)
from dla_lab.paulis import pack_pauli
from dla_lab.spectral import PurityPair
from dla_lab.symmetry import PackedOrbits

CORPUS_SEED = 20240901
TOL = 1e-9


def _random_connected_graph(rng: random.Random, n: int, extras: int) -> Graph:
    """Random labeled tree (uniform, via its degree-sequence encoding)
    plus a few distinct non-tree edges."""
    if n == 2:
        edges = [(0, 1)]
    else:
        code = [rng.randrange(n) for _ in range(n - 2)]
        degree = [1] * n
        for v in code:
            degree[v] += 1
        leaves = [v for v in range(n) if degree[v] == 1]
        heapify(leaves)
        edges = []
        for v in code:
            edges.append((heappop(leaves), v))
            degree[v] -= 1
            if degree[v] == 1:
                heappush(leaves, v)
        edges.append((heappop(leaves), heappop(leaves)))
    chosen = {tuple(sorted(e)) for e in edges}
    rest = [e for e in combinations(range(n), 2) if e not in chosen]
    rng.shuffle(rest)
    chosen.update(rest[:extras])
    return Graph(n, sorted(chosen))


@pytest.fixture(scope="module")
def corpus():
    """Twenty seeded random connected graphs on 3..6 vertices, with their
    raw closures.  Shared by the parity/centralizer and bounds checks."""
    rng = random.Random(CORPUS_SEED)
    out = []
    for _ in range(20):
        n = rng.randint(3, 6)
        extras = rng.randint(0, 2)
        graph = _random_connected_graph(rng, n, extras)
        out.append((graph, generate_dla(maxcut_generators(graph))))
    return out


def test_criterion_01_cycle_dimension_and_degree():
    """Ring closures have dimension 3n-1 in both coordinate systems."""
    start = time.perf_counter()
    for n in range(3, 9):
        report = generate_dla(maxcut_generators(Graph.cycle(n)))
        assert report.dimension == 3 * n - 1
        assert report.degree == 2 * (n - 1)
    for n in range(3, 13):
        report = generate_dla_orbit_compressed(Graph.cycle(n))
        assert report.dimension == 3 * n - 1
        assert report.degree == 2 * (n - 1)
    assert time.perf_counter() - start < 120


def test_criterion_02_cycle_center_is_the_known_plane():
    """The computed center has dimension two and exactly contains both
    closed-form central elements (integer rank tests, no tolerance)."""
    for n in range(3, 9):
        report = generate_dla(maxcut_generators(Graph.cycle(n)))
        central = center(report)
        assert len(central) == 2
        ledger = span_ledger(pauli_vector_to_dict(v) for v in central)
        assert ledger.rank == 2
        for w in cycle_center(n):
            assert ledger.contains(pauli_vector_to_dict(w.expand()))


def test_criterion_03_complete_graph_dimension_formulas():
    """All-to-all closures match the cubic dimension polynomials, the
    center parity rule, and the ideal split, for 3 <= n <= 40."""
    start = time.perf_counter()
    for n in range(3, 41):
        report = generate_dla_orbit_compressed(Graph.complete(n))
        forms = kn_formulas(n)
        assert report.dimension == forms["dim"]
        assert center_dimension(report) == forms["center_dim"]
        assert ideal_dimension(report) == forms["ideal_dim"]
    assert time.perf_counter() - start < 60


def test_criterion_04_triangle_is_one_algebra_in_two_coordinates():
    """K_3 and C_3 are the same graph; the label, not the edges, picks the
    coordinates the generators fold to, and the two orbit-compressed
    closures expand to identical row spaces (exact canonical form equality)."""
    assert Graph.cycle(3) == Graph.complete(3)
    complete = generate_dla_orbit_compressed(Graph.complete(3))
    cyclic = generate_dla_orbit_compressed(Graph.cycle(3))
    assert (cyclic.coords, complete.coords) == ("group-orbit", "complete-orbit")
    assert (cyclic.dimension, cyclic.degree) == (complete.dimension, complete.degree) == (8, 4)
    dihedral = PackedOrbits(PermGroup.dihedral(3))
    lk = span_ledger(
        pauli_vector_to_dict(SymOrbitSum(3, d).expand())
        for d in complete.basis
    )
    lc = span_ledger(
        {k: c for rep, c in d.items() for k in dihedral.orbit(pack_pauli(rep))[2]}
        for d in cyclic.basis
    )
    assert lk.rank == lc.rank == 8
    assert lk.canonical_rows() == lc.canonical_rows()


def test_criterion_05_orbit_bracket_is_a_homomorphism():
    """Expanding an orbit bracket equals the commutator of expansions,
    exactly, over every basis pair for rings up to n = 8."""
    for n in range(3, 9):
        basis = cycle_basis(n)
        expanded = [b.expand() for b in basis]
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                assert orbit_bracket(a, b).expand() == commutator(
                    expanded[i], expanded[j]
                )


def test_criterion_06_mode_basis_bracket_relations():
    """All nine ladder-triple relation families and all rotation-triple
    relations hold below 1e-9 for n = 3..16; the bracket of two diagonal
    elements cancels exactly in orbit coordinates, not merely small."""
    start = time.perf_counter()
    for n in range(3, 17):
        canonical = canonical_relation_residuals(n)
        assert len(canonical) == 9
        assert canonical["h-h-zero"] == 0.0
        assert max(canonical.values()) < TOL, (n, canonical)
        rotations = su2_relation_residuals(n)
        assert max(rotations.values()) < TOL, (n, rotations)
    assert time.perf_counter() - start < 60


def test_criterion_07_purity_closed_forms():
    """Numerically recomputed purities of the plus state and the scaled
    cut observable match the closed forms to 1e-9 for n = 3..12."""
    for n in range(3, 13):
        parity = n % 2
        rho = plus_state(n)
        obs = cut_observable(Graph.cycle(n))
        whole = [b.expand() for b in cycle_basis(n)]
        assert abs(float(purity(rho, whole)) - n / 2 ** (n - 1)) < TOL
        assert abs(float(purity(obs, whole)) - 2**n) < TOL
        centre = [c.expand() for c in cycle_center(n)]
        assert abs(float(purity(rho, centre)) - parity / 2 ** (n - 1)) < TOL
        assert abs(float(purity(obs, centre)) - 2**n / n) < TOL
        for triple in su2_basis(n):
            comp = [triple.x.expand(), triple.y.expand(), triple.z.expand()]
            want_rho = (triple.k % 2) / 2 ** (n - 2)
            assert abs(float(purity(rho, comp)) - want_rho) < TOL
            assert abs(float(purity(obs, comp)) - 2**n / n) < TOL


def test_criterion_08_expectation_and_variance():
    """Loss expectation and variance agree between the closed forms and
    the per-component assembly to 1e-9 for n = 3..12, with the n = 4 and
    n = 5 spot values asserted literally."""
    results = {}
    for n in range(3, 13):
        parity = n % 2
        rho = plus_state(n)
        obs = cut_observable(Graph.cycle(n))
        centre = [c.expand() for c in cycle_center(n)]
        expect = float(expectation(rho, obs, centre))
        assert abs(expect - parity / math.sqrt(n)) < TOL
        pairs = []
        for triple in su2_basis(n):
            comp = [triple.x.expand(), triple.y.expand(), triple.z.expand()]
            pairs.append(
                PurityPair(float(purity(rho, comp)), float(purity(obs, comp)))
            )
        variance = variance_from_components(pairs)
        assert abs(variance - 2 * (n - parity) / (3 * n)) < TOL
        results[n] = (expect, variance)
    assert abs(results[4][1] - 2 / 3) < TOL
    assert abs(results[5][1] - 8 / 15) < TOL
    assert abs(results[5][0] - 1 / math.sqrt(5)) < TOL


def test_criterion_09_parity_and_centralizer(corpus):
    """On twenty random connected graphs (n <= 6): every closure basis
    element is supported on YZ-even strings only, never on the identity
    or the all-X string; the brute-force Pauli centralizer is exactly
    {identity, all-X}."""
    assert len(corpus) == 20
    assert {g.n for g, _ in corpus} == {3, 4, 5, 6}
    for graph, report in corpus:
        n = graph.n
        for vec in report.basis:
            for p in vec.support():
                assert pauli_type(p).yz_even, (graph, p.label())
                assert not (p.x_mask == 0 and p.z_mask == 0)
                assert not (p.x_mask == (1 << n) - 1 and p.z_mask == 0)
        labels = sorted(p.label() for p in centralizer_paulis(graph))
        assert labels == sorted(["I" * n, "X" * n])


def test_criterion_10_dimension_and_center_bounds(corpus):
    """Corpus closures respect the orbit-count dimension bound and the
    two-dimensional center cap.  On the all-to-all family the dimension
    sits strictly under the parity bound, itself strictly under the
    orbit-count bound, for every n = 4..40; at n = 3 the dimension and
    the parity bound provably coincide at 8, which is asserted exactly."""
    for graph, report in corpus:
        bounds = dimension_bounds(graph)
        assert report.dimension <= bounds["aut_bound"]
        assert center_dimension(report) <= 2
    for n in range(3, 41):
        forms = kn_formulas(n)
        if n == 3:
            assert forms["dim"] == forms["yz_bound"] == 8
        else:
            assert forms["dim"] < forms["yz_bound"]
        assert forms["yz_bound"] < forms["binom_bound"]


@pytest.mark.xfail(
    strict=True,
    reason="the strict dimension < parity-bound chain is provably an "
    "equality at n = 3 (both sides are 8); see the companion test for "
    "the exact boundary behavior",
)
def test_criterion_10_strict_bound_chain_as_stated():
    """Strict inequality dim < parity bound < orbit bound for n = 3..40,
    kept verbatim: it must keep failing at the n = 3 boundary."""
    for n in range(3, 41):
        forms = kn_formulas(n)
        assert forms["dim"] < forms["yz_bound"] < forms["binom_bound"]


def test_criterion_11_alternating_power_machinery():
    """Integer recursion vs trigonometric closed form to 1e-6 relative
    (n <= 20), the n-th power's expansion identity both exactly and to
    1e-6 through the trig forms (n <= 12), and the -16 double-bracket
    eigen-relation exactly."""
    for n in range(3, 21):
        for k in range(1, 11):
            exact = ab_power_coeffs(n, k)[k - 1]
            trig = ab_power_trig_coeffs(n, k)
            scale = max(max(abs(c) for c in exact), 1)
            for e, t in zip(exact, trig):
                assert abs(e - t) / scale < 1e-6, (n, k)
    for n in range(3, 13):
        assert ab_recursion_identity_ok(n)
        assert ab_recursion_identity_residual(n) < 1e-6
        assert len(ab_power_expansion_coeffs(n)) == n - 1
    for n in (3, 5, 8):
        a = field_orbit(n)
        b = cut_orbit(n)
        for k in (1, 2, 4):
            w = ab_power(n, k)
            assert orbit_bracket(a, orbit_bracket(a, w)) == w.scaled(-16)
            assert orbit_bracket(b, orbit_bracket(b, w)) == w.scaled(-16)
