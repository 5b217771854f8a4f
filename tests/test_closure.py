"""Unit tests for the exact ledger and the Lie-closure engine.

Dimension literals (P_3 = 9, P_4 = 16, C_3 = 8, C_4 = 11, C_5 = 14,
K_4 = 15) were frozen from the dense-matrix oracle in
tests/oracles/dense_oracle.py, which shares no code with the package.
"""

import json
import math
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from dla_lab.closure import (
    DlaReport,
    LinearLedger,
    ResourceBudgetError,
    center,
    center_dimension,
    commutator_ideal,
    generate_dla,
    generate_dla_orbit_compressed,
    ideal_dimension,
    nullspace_combos,
    span_ledger,
)
from dla_lab.graphs import Graph, maxcut_generators
from dla_lab.symmetry import GroupTooLarge, decompress, graph_group
from dla_lab.paulis import (
    PauliString,
    PauliVector,
    commutator,
    dict_to_pauli_vector,
    pack_pauli,
    pauli_vector_to_dict,
    unpack_pauli,
)


# ---------------------------------------------------------------------------
# ledger


def test_ledger_rank_and_membership():
    led = LinearLedger()
    assert led.insert({0: 1, 1: 2}) is not None
    assert led.insert({1: 1}) is not None
    assert led.insert({0: 3, 1: -5}) is None  # dependent
    assert led.rank == 2
    assert led.contains({0: 7})
    assert not led.contains({2: 1})


def test_ledger_fraction_inputs():
    led = LinearLedger()
    led.insert({0: Fraction(1, 3), 2: Fraction(5, 6)})
    assert led.contains({0: 2, 2: 5})
    assert not led.contains({0: 1, 2: 1})


def test_ledger_rejects_float_coefficients():
    """Truncating floats would let them decide ranks: 0.5 would count as
    zero and 1.5 as one."""
    with pytest.raises(TypeError, match="int or Fraction"):
        span_ledger([{0: 0.5}])
    with pytest.raises(TypeError, match="int or Fraction"):
        span_ledger([{0: 1.5, 1: 0.4}])
    with pytest.raises(TypeError, match="int or Fraction"):
        span_ledger([{0: 1}]).contains({0: 0.5, 1: 0.3})
    xi = PauliVector(2, {PauliString.from_label("XI"): 0.5})
    zz = PauliVector(2, {PauliString.from_label("ZZ"): 1})
    with pytest.raises(TypeError, match="int or Fraction"):
        generate_dla([xi, zz])


def test_ledger_stores_no_zero_entry():
    led = span_ledger([{0: 0, 1: 2, 2: Fraction(0)}, {0: Fraction(3, 1), 1: 0}])
    assert led.rows == [{1: 1}, {0: 1}]
    assert all(type(c) is int for row in led.rows for c in row.values())


def test_ledger_canonical_rows_match_for_equal_spans():
    """Two spanning sets of the same space give identical canonical rows."""
    a = LinearLedger()
    for row in ({0: 1, 1: 1}, {1: 2, 2: 2}, {0: 1, 2: -1}):
        a.insert(row)
    b = LinearLedger()
    for row in ({2: 4, 1: 4}, {0: 3, 1: 3}, {0: 5, 1: 2, 2: -3}):
        b.insert(row)
    rows_a = {tuple(sorted(r.items())) for r in a.canonical_rows()}
    rows_b = {tuple(sorted(r.items())) for r in b.canonical_rows()}
    assert a.rank == b.rank == 2
    assert rows_a == rows_b


def test_ledger_insertion_order_keeps_rank_and_canonical_rows():
    rows = [{0: 2, 1: 4, 3: 1}, {1: 1, 3: 5}, {0: 1, 3: -2}, {0: 1, 1: 2}]
    forward = span_ledger(dict(r) for r in rows)
    backward = span_ledger(dict(r) for r in rows[::-1])
    assert forward.rank == backward.rank == 3
    for led in (forward, backward):
        assert led.contains({0: 4, 1: 8, 3: 2})
    assert forward.canonical_rows() == backward.canonical_rows()
    assert forward == backward


def test_stored_rows_are_never_rewritten():
    """A later pivot is not eliminated from an earlier row; only
    ``reduced`` holds the fully reduced form."""
    led = LinearLedger()
    led.insert({0: 1, 1: 1})
    led.insert({1: 1})
    assert led.rows == [{0: 1, 1: 1}, {1: 1}]
    assert led.reduced().rows == [{1: 1}, {0: 1}]


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate_dla(maxcut_generators(Graph.cycle(6))),
        lambda: generate_dla_orbit_compressed(Graph.complete(8)),
        # g1-n5 of bench/graphs.json
        lambda: generate_dla(maxcut_generators(
            Graph(5, frozenset({(0, 2), (0, 3), (1, 3), (1, 4), (2, 3), (3, 4)}))
        )),
    ],
    ids=["raw-cycle6", "orbit-complete8", "raw-g1-n5"],
)
def test_report_rows_are_reduced_largest_pivot_first(make):
    led = make().ledger
    pivots = [min(row) for row in led.rows]
    assert pivots == led.pivots
    assert all(a > b for a, b in zip(pivots, pivots[1:]))
    pivot_set = set(pivots)
    for row, piv in zip(led.rows, pivots):
        assert row[piv] > 0
        assert math.gcd(*row.values()) == 1
        assert pivot_set & row.keys() == {piv}


def test_ledger_memory_budget():
    led = LinearLedger(memory_budget=3)
    led.insert({0: 1, 1: 1})
    with pytest.raises(ResourceBudgetError):
        led.insert({2: 1, 3: 1})


def test_nullspace_combos():
    """v0 + v1 - v2 = 0 is the only relation among the three rows."""
    combos = nullspace_combos([{0: 1, 1: 1}, {1: -1}, {0: 1}])
    assert len(combos) == 1
    combo = combos[0]
    # normalize sign via the first index present
    sign = 1 if combo.get(0, 0) > 0 else -1
    assert {k: sign * c for k, c in combo.items()} == {0: 1, 1: 1, 2: -1}


def test_nullspace_combos_independent_rows():
    assert nullspace_combos([{0: 1}, {1: 1}]) == []


def test_span_ledger():
    led = span_ledger([{0: 1, 1: 1}, {1: 1}])
    assert led.rank == 2 and led.contains({0: 5, 1: -3})


# ---------------------------------------------------------------------------
# pauli packing


def test_pack_unpack_round_trip():
    p = PauliString.from_label("XYIZ")
    assert unpack_pauli(4, pack_pauli(p)) == p
    v = PauliVector(4, {p: 3, PauliString.from_label("IIII"): -1})
    assert dict_to_pauli_vector(4, pauli_vector_to_dict(v)) == v


# ---------------------------------------------------------------------------
# closures against frozen oracle dimensions


@pytest.mark.parametrize(
    "graph, dim",
    [
        (Graph.path(3), 9),
        (Graph.path(4), 16),
        (Graph.cycle(3), 8),
        (Graph.cycle(4), 11),
        (Graph.cycle(5), 14),
        (Graph.complete(4), 15),
    ],
    ids=["P3", "P4", "C3", "C4", "C5", "K4"],
)
def test_raw_closure_dimensions(graph, dim):
    report = generate_dla(maxcut_generators(graph))
    assert report.dimension == dim
    assert len(report.basis) == dim
    assert report.generator_count == 2
    assert report.coords == "pauli"


def test_closure_degree_positive_and_stable():
    r1 = generate_dla(maxcut_generators(Graph.cycle(5)))
    r2 = generate_dla(maxcut_generators(Graph.cycle(5)))
    assert r1.degree == r2.degree > 0
    assert r1.dimension == r2.dimension


def test_closure_abelian_degree_zero():
    """Two commuting generators close immediately with degree 0."""
    a = PauliVector.single_term(PauliString.from_label("ZI"))
    b = PauliVector.single_term(PauliString.from_label("IZ"))
    report = generate_dla([a, b])
    assert report.dimension == 2 and report.degree == 0


def test_basis_is_published_on_first_access():
    """``basis`` is no constructor field; the first read publishes the
    closure ledger's rows once, spanning the closure's ledger."""
    assert "basis" not in {f.name for f in fields(DlaReport)}
    report = generate_dla(maxcut_generators(Graph.cycle(4)))
    assert "basis" not in vars(report)
    basis = report.basis
    assert report.basis is basis
    published = span_ledger([pauli_vector_to_dict(v) for v in basis])
    assert published.canonical_rows() == report.ledger.canonical_rows()


def test_closure_basis_spans_brackets():
    """Every pairwise bracket of basis elements stays inside the span."""
    report = generate_dla(maxcut_generators(Graph.cycle(4)))
    led = span_ledger([pauli_vector_to_dict(v) for v in report.basis])
    for a in report.basis:
        for b in report.basis:
            br = commutator(a, b)
            if not br.is_zero():
                assert led.contains(pauli_vector_to_dict(br))


def test_closure_budget_error_names_round():
    with pytest.raises(ResourceBudgetError, match="closure round"):
        generate_dla(maxcut_generators(Graph.cycle(8)), memory_budget=40)


def test_orbit_compressed_cycle_dimensions():
    for n in (3, 6, 11, 30):
        report = generate_dla_orbit_compressed(Graph.cycle(n))
        assert report.dimension == 3 * n - 1
        assert report.coords == "group-orbit"
        # representatives are Pauli strings mapped to integer weights
        rep, coeff = next(iter(report.basis[0].items()))
        assert isinstance(rep, PauliString) and coeff == 1


def test_orbit_compressed_complete_matches_raw():
    raw = generate_dla(maxcut_generators(Graph.complete(4)))
    packed = generate_dla_orbit_compressed(Graph.complete(4))
    assert packed.dimension == raw.dimension == 15
    assert packed.coords == "complete-orbit"


def _assert_orbit_closure_matches_raw(graph):
    """The decompressed orbit closure has the raw closure's canonical rows
    and degree."""
    raw = generate_dla(maxcut_generators(graph))
    packed = generate_dla_orbit_compressed(graph)
    group = graph_group(graph)
    expanded = span_ledger(
        pauli_vector_to_dict(decompress(d, group, graph.n)) for d in packed.basis
    )
    assert packed.dimension == raw.dimension
    assert packed.degree == raw.degree
    assert expanded.canonical_rows() == raw.ledger.canonical_rows()
    return packed


def test_cycle_orbit_closure_matches_raw_closure():
    """Dihedral orbits, for rings of 3 to 8 qubits."""
    for n in range(3, 9):
        packed = _assert_orbit_closure_matches_raw(Graph.cycle(n))
        assert packed.dimension == 3 * n - 1


def _corpus_graphs():
    """The seeded graphs of the benchmark's raw-graphs workload."""
    corpus = json.loads((Path(__file__).parent.parent / "bench" / "graphs.json").read_text())
    return [
        pytest.param(Graph(g["n"], map(tuple, g["edges"])), id=g["name"])
        for g in corpus["graphs"]
    ]


@pytest.mark.parametrize(
    "graph",
    [pytest.param(Graph.path(n), id=f"path-{n}") for n in range(2, 9)] + _corpus_graphs(),
)
def test_group_orbit_closure_matches_raw_closure(graph):
    """Reversal orbits for paths, searched automorphisms for the benchmark's
    seeded graphs."""
    _assert_orbit_closure_matches_raw(graph)


def test_orbit_compressed_rejects_edgeless_and_over_cap_graphs():
    with pytest.raises(ValueError, match="no edges"):
        generate_dla_orbit_compressed(Graph(4, ()))
    with pytest.raises(GroupTooLarge):
        generate_dla_orbit_compressed(Graph(11, {(j, j + 1) for j in range(10)}))


# ---------------------------------------------------------------------------
# center and commutator ideal


def test_center_of_cycle_closure():
    report = generate_dla(maxcut_generators(Graph.cycle(5)))
    basis = center(report)
    assert len(basis) == 2
    assert center_dimension(report) == 2
    gens = maxcut_generators(Graph.cycle(5))
    for v in basis:
        for g in gens:
            assert commutator(g, v).is_zero()


def test_dependent_generator_is_dropped_from_every_stage():
    """A repeated generator is not in B0, so the closure, the center and
    the ideal all act through the same two adjoint maps."""
    a, b = maxcut_generators(Graph.cycle(5))
    once = generate_dla([a, b])
    twice = generate_dla([a, b, a])
    assert twice.generator_count == once.generator_count == 2
    assert (twice.dimension, twice.degree) == (once.dimension, once.degree)
    assert center_dimension(twice) == center_dimension(once) == 2
    assert center(twice) == center(once)
    assert ideal_dimension(twice) == ideal_dimension(once)
    assert commutator_ideal(twice) == commutator_ideal(once)


def test_center_is_bounded_by_the_memory_budget():
    # the closure fits in 200 entries (132); the center's null-space
    # equations total 360 entries and must give up, naming its stage
    report = generate_dla(maxcut_generators(Graph.cycle(6)), memory_budget=200)
    assert report.ledger.entry_count == 132
    with pytest.raises(ResourceBudgetError, match="center stage"):
        center(report)


def test_center_fits_the_budget_of_the_center_rank():
    """On orbit complete:28 the center rank's ledger peaks at 41,003
    entries; the center basis fits in that budget too."""
    report = generate_dla_orbit_compressed(Graph.complete(28), memory_budget=41_003)
    assert center_dimension(report) == 1
    (z,) = center(report)
    assert all(not ad(z) for ad in report._adjoints)


def test_center_and_ideal_fit_where_the_closure_fits():
    """The center and ideal ledgers rank the closure's rows largest pivot
    first.  On g2-n5 (dimension 295) that center ledger peaks at 5,485
    entries; over the vectors as the closure first inserted them, before
    back-substitution reduced them, it needs 22,353, over this budget."""
    g2 = Graph(5, [(0, 2), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)])
    report = generate_dla(maxcut_generators(g2), memory_budget=10_000)
    assert report.dimension == 295
    assert center_dimension(report) == 1
    assert ideal_dimension(report) == 294


def test_reports_compare_by_span_rows():
    """Two runs of one graph give equal reports; a relabelled ring of the
    same dimension spans other strings and compares unequal."""
    ring = maxcut_generators(Graph.cycle(5))
    assert generate_dla(ring) == generate_dla(ring)
    relabelled = Graph(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
    other = generate_dla(maxcut_generators(relabelled))
    assert other.dimension == generate_dla(ring).dimension == 14
    assert generate_dla(ring) != other


def test_center_dimension_complete_parity():
    assert center_dimension(generate_dla_orbit_compressed(Graph.complete(4))) == 1
    assert center_dimension(generate_dla_orbit_compressed(Graph.complete(5))) == 2


def test_commutator_ideal_complements_center():
    for graph in (Graph.cycle(4), Graph.complete(4)):
        report = generate_dla(maxcut_generators(graph))
        ideal = commutator_ideal(report)
        assert len(ideal) == ideal_dimension(report)
        assert center_dimension(report) + len(ideal) == report.dimension


def test_ideal_elements_are_brackets_in_span():
    report = generate_dla(maxcut_generators(Graph.cycle(4)))
    led = span_ledger([pauli_vector_to_dict(v) for v in report.basis])
    for v in commutator_ideal(report):
        assert led.contains(pauli_vector_to_dict(v))
