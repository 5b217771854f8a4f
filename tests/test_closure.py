"""Unit tests for the exact ledger and the Lie-closure engine.

Dimension literals (P_3 = 9, P_4 = 16, C_3 = 8, C_4 = 11, C_5 = 14,
K_4 = 15) were frozen from the dense-matrix oracle in
tests/oracles/dense_oracle.py, which shares no code with the package.
"""

import inspect
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from dla_lab import closure
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
    in_ideal,
    maxcut_keys,
    nullspace_combos,
    span_ledger,
)
from dla_lab.graphs import Graph, maxcut_generators
from dla_lab.symmetry import GroupTooLarge, PackedOrbits, graph_group
from dla_lab.paulis import (
    PauliString,
    PauliVector,
    commutator,
    dict_to_pauli_vector,
    pack_pauli,
    pauli_bracket,
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
    a = PauliVector(2, {PauliString.from_label("ZI"): 1})
    b = PauliVector(2, {PauliString.from_label("IZ"): 1})
    report = generate_dla([a, b])
    assert report.dimension == 2 and report.degree == 0


def test_basis_is_published_on_first_access():
    """``basis`` is no constructor field; the first read publishes the
    closure ledger's rows once, spanning the closure's ledger."""
    assert "basis" not in inspect.signature(DlaReport).parameters
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
    """The orbit closure, each orbit expanded to its members, has the raw
    closure's canonical rows and degree."""
    raw = generate_dla(maxcut_generators(graph))
    packed = generate_dla_orbit_compressed(graph)
    orbits = PackedOrbits(graph_group(graph))
    expanded = span_ledger(
        {k: c for rep, c in d.items() for k in orbits.orbit(pack_pauli(rep))[2]}
        for d in packed.basis
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


def _whole_vector_bracket(n, orbits, u, v):
    """[S(u), S(v)] in orbit coordinates the long way: each representative
    of u against the full expansion of v, averaged back onto orbits."""
    expanded = {k: cb for kb, cb in v.items() for k in orbits.orbit(kb)[2]}
    acc = {}
    for ka, ca in u.items():
        raw = commutator(
            dict_to_pauli_vector(n, {ka: ca * orbits.orbit(ka)[1]}),
            dict_to_pauli_vector(n, expanded),
        )
        for p, c in raw.terms():
            rep = orbits.orbit(pack_pauli(p))[0]
            acc[rep] = acc.get(rep, 0) + c
    out = {}
    for rep, total in acc.items():
        q, r = divmod(total, orbits.orbit(rep)[1])
        assert r == 0
        if q:
            out[rep] = q
    return out


_MEMO_GRAPHS = [
    pytest.param(Graph.path(9), id="path-9"),
    pytest.param(Graph.cycle(12), id="cycle-12"),
    pytest.param(Graph(8, [(0, j) for j in range(1, 8)]), id="star-8"),
] + _corpus_graphs()


@pytest.mark.parametrize("graph", _MEMO_GRAPHS)
def test_memoised_orbit_adjoint_is_the_whole_vector_bracket(graph):
    """Each generator's adjoint, built from one memoised image per orbit
    key, gives the bracket of its generator with every basis row."""
    n = graph.n
    report = generate_dla_orbit_compressed(graph)
    orbits = PackedOrbits(graph_group(graph))
    keys = ([1 << (n + j) for j in range(n)], [(1 << j) | (1 << k) for j, k in graph.edges])
    gens = [dict.fromkeys({orbits.orbit(k)[0] for k in ks}, 1) for ks in keys]
    assert report.generator_count == len(gens)
    for u, ad in zip(gens, report._adjoints):
        for b in report.ledger.rows:
            assert ad(b) == _whole_vector_bracket(n, orbits, u, b)


@pytest.mark.parametrize("graph", _MEMO_GRAPHS)
def test_center_and_ideal_read_the_orbit_memo_only(graph, monkeypatch):
    """Every key of the reduced basis was imaged during the closure, so the
    center and ideal ranks make no Pauli kernel call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return pauli_bracket(*args, **kwargs)

    monkeypatch.setattr(closure, "pauli_bracket", counted)
    report = generate_dla_orbit_compressed(graph)
    assert calls
    calls.clear()
    center_dimension(report)
    ideal_dimension(report)
    assert calls == []


def test_orbit_memo_counts_against_the_memory_budget():
    """The closure ledger of orbit cycle:12 never holds more than 35
    entries, but a generator's memo of orbit images outgrows 40 and trips
    that budget first; the message names the memo and the round."""
    assert generate_dla_orbit_compressed(Graph.cycle(12), memory_budget=44).dimension == 35
    with pytest.raises(ResourceBudgetError) as exc:
        generate_dla_orbit_compressed(Graph.cycle(12), memory_budget=40)
    assert str(exc.value) == (
        "orbit image memo holds 41 entries, over the budget of 40; "
        "gave up in closure round 21 (frontier size 2)"
    )


def test_budget_error_in_the_reduction_names_the_reduction():
    """The closure of orbit K_6 ends with 59 entries, under a budget of 60,
    but its 67-entry reduced rows are over it: the rounds are over, so the
    message names the reduction, not a round."""
    with pytest.raises(ResourceBudgetError) as exc:
        generate_dla_orbit_compressed(Graph.complete(6), memory_budget=60)
    assert str(exc.value) == (
        "ledger holds 61 entries, over the budget of 60; "
        "gave up in the closure's reduction"
    )


def test_orbit_compressed_rejects_edgeless_and_over_cap_graphs():
    with pytest.raises(ValueError, match="no edges"):
        generate_dla_orbit_compressed(Graph(4, ()))
    with pytest.raises(GroupTooLarge):
        generate_dla_orbit_compressed(Graph(11, {(j, j + 1) for j in range(10)}))
    # no edges is reported first, even where the automorphism search is capped
    with pytest.raises(ValueError, match="no edges") as exc:
        generate_dla_orbit_compressed(Graph(11, ()))
    assert not isinstance(exc.value, GroupTooLarge)


def test_maxcut_keys_lists_the_field_then_the_sorted_edges():
    keys = maxcut_keys(Graph.cycle(4))
    assert keys == [{16: 1, 32: 1, 64: 1, 128: 1}, {3: 1, 9: 1, 6: 1, 12: 1}]
    assert [list(d) for d in keys] == [[16, 32, 64, 128], [3, 9, 6, 12]]


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
    # the closure of orbit complete:24 fits in 3,000 entries (2,739 at its
    # peak); the null space of the center's largest grade needs 3,045 and
    # must give up, naming its stage
    report = generate_dla_orbit_compressed(Graph.complete(24), memory_budget=3_000)
    assert report.ledger.entry_count == 2_662
    with pytest.raises(ResourceBudgetError, match="center stage"):
        center(report)


def test_center_fits_the_budget_of_the_center_rank():
    """On orbit complete:28 the center basis, solved one grade at a time,
    needs 4,743 entries, where one null space over every basis row needed
    40,899; it fits in 5,000, as the closure does.  The center rank needs
    16,832 (``test_center_rank_holds_one_grade_at_a_time``)."""
    report = generate_dla_orbit_compressed(Graph.complete(28), memory_budget=5_000)
    (z,) = center(report)
    assert all(not ad(z) for ad in report._adjoints)


def test_center_and_ideal_fit_where_the_closure_fits():
    """The center and ideal rank the images of the closure's rows in
    pivot coordinates.  On g2-n5 (dimension 295) the closure peaks at
    7,390 entries, and the center and ideal ledgers at 3,078 and 640."""
    g2 = Graph(5, [(0, 2), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)])
    report = generate_dla(maxcut_generators(g2), memory_budget=10_000)
    assert report.dimension == 295
    assert center_dimension(report) == 1
    assert ideal_dimension(report) == 294


def _case(graph, name, orbit=False):
    return pytest.param(graph, orbit, id=f"{'orbit' if orbit else 'raw'}-{name}")


def _report(graph, orbit):
    if orbit:
        return generate_dla_orbit_compressed(graph)
    return generate_dla(maxcut_generators(graph))


def _full_center_rank(report):
    """Rank of the stacked map b -> ([G_j, b])_j in the closure's own
    coordinates, keyed by (j, key)."""
    return span_ledger(
        {(j, k): c for j, ad in enumerate(report._adjoints) for k, c in ad(b).items()}
        for b in report.ledger.rows
    ).rank


def _full_ideal_ledger(report):
    """Ledger of the images [G_j, b] over every key: the reference for the
    pivot-coordinate ideal."""
    return span_ledger(ad(b) for ad in report._adjoints for b in report.ledger.rows)


def _packed(report, v):
    if report.coords == "pauli":
        return pauli_vector_to_dict(v)
    if report.coords == "group-orbit":
        return {pack_pauli(k): c for k, c in v.items()}
    return v


@pytest.mark.parametrize(
    "graph, orbit",
    [_case(Graph.path(n), f"path-{n}") for n in range(2, 9)]
    + [_case(Graph.cycle(n), f"cycle-{n}") for n in range(3, 9)]
    + [_case(Graph.complete(n), f"complete-{n}") for n in range(3, 8)]
    + [_case(*p.values, p.id) for p in _corpus_graphs()]
    + [_case(Graph.complete(n), f"complete-{n}", True) for n in range(4, 17)]
    + [_case(Graph.cycle(n), f"cycle-{n}", True) for n in range(3, 13)],
)
def test_pivot_coordinate_ranks_match_full_coordinates(graph, orbit):
    """The center and ideal ranks in pivot coordinates equal the ranks of
    the same images over every key; ideal membership and the ideal's basis
    agree with the ledger over every key."""
    report = _report(graph, orbit)
    full = _full_ideal_ledger(report)
    assert ideal_dimension(report) == full.rank
    assert center_dimension(report) == report.dimension - _full_center_rank(report)
    rows = report.ledger.rows
    for v in [ad(b) for ad in report._adjoints for b in rows] + rows:
        assert in_ideal(report, v) == full.contains(v)
    assert [_packed(report, v) for v in commutator_ideal(report)] == full.rows


@pytest.mark.parametrize(
    "graph, orbit, identity, all_x",
    [
        (Graph.complete(5), True, (0, 0, 0), (5, 0, 0)),
        (Graph.cycle(5), True, 0, 0b11111 << 5),
        (Graph.cycle(5), False, 0, 0b11111 << 5),
    ],
    ids=["type", "orbit", "raw"],
)
def test_in_ideal_rejects_vectors_outside_the_algebra(graph, orbit, identity, all_x):
    """The identity and all-X commute with everything and lie outside g;
    neither has a pivot key, so only the span guard keeps them out."""
    report = _report(graph, orbit)
    for key in (identity, all_x):
        assert not report.ledger.contains({key: 1})
        assert key not in report.ledger.pivots  # so it restricts to {}
        assert not in_ideal(report, {key: 1})


@pytest.mark.parametrize(
    "graph, orbit",
    [_case(*p.values, p.id, orbit) for p in _corpus_graphs() for orbit in (False, True)],
)
def test_generator_images_of_the_basis_lie_in_the_span(graph, orbit):
    """Every [G_j, b] lies in the closure's span: the fact that makes the
    pivot coordinates exact."""
    report = _report(graph, orbit)
    for ad in report._adjoints:
        for b in report.ledger.rows:
            assert report.ledger.contains(ad(b))


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


def _counted_ranks(monkeypatch) -> list:
    """The stage of every ``closure._rank_ledger`` call, in call order."""
    ranked = []
    real = closure._rank_ledger

    def counted(report, stage, vectors):
        ranked.append(stage)
        return real(report, stage, vectors)

    monkeypatch.setattr(closure, "_rank_ledger", counted)
    return ranked


def test_center_rank_holds_one_grade_at_a_time():
    """Orbit complete:28 ranks its center in four ledgers, one per grade of
    the pivots; the largest peaks at 16,832 entries, where one ledger over
    every row peaked at 40,899."""
    report = generate_dla_orbit_compressed(Graph.complete(28), memory_budget=16_832)
    assert center_dimension(report) == 1
    report = generate_dla_orbit_compressed(Graph.complete(28), memory_budget=16_831)
    with pytest.raises(ResourceBudgetError, match="16832 entries.*center stage"):
        center_dimension(report)


def _one_ledger_center_dimension(report):
    """dim(g) minus the rank of every row's stacked images in one ledger."""
    return report.dimension - span_ledger(closure._center_map(report, report.ledger.rows)).rank


def _star(n):
    return Graph(n, [(0, j) for j in range(1, n)])


@pytest.mark.parametrize(
    "graph, orbit",
    [_case(*p.values, p.id) for p in _corpus_graphs()]
    + [
        _case(Graph.complete(7), "complete-7"),
        _case(Graph.complete(16), "complete-16", True),
        _case(Graph.complete(24), "complete-24", True),
        _case(Graph.complete(28), "complete-28", True),
        _case(Graph.cycle(12), "cycle-12", True),
        _case(Graph.cycle(24), "cycle-24", True),
        _case(Graph.path(9), "path-9", True),
        _case(_star(7), "star-7", True),
    ],
)
def test_center_ranked_by_grade_equals_one_ledger(graph, orbit, monkeypatch):
    """The MaxCut generators are each of one grade, so the center is ranked
    in one ledger per grade of the pivots, then the ideal in one, and the
    center's ranks add up to the rank of one ledger over every row."""
    report = _report(graph, orbit)
    assert report._graded
    ranked = _counted_ranks(monkeypatch)
    assert center_dimension(report) == _one_ledger_center_dimension(report)
    grades = len({closure._grade(report.n, k) for k in report.ledger.pivots})
    assert ranked == ["center"] * grades + ["ideal"]
    assert grades > 1


def _pauli_sum(n, *labels):
    return PauliVector(n, {PauliString.from_label(label): 1 for label in labels})


@pytest.mark.parametrize(
    "gens",
    [
        [("XI", "YI"), ("ZZ",)],
        [("XI", "ZZ"), ("IZ",)],
        [("XII", "ZZI"), ("IXI", "IZZ"), ("IIY",)],
        [("XY",), ("ZI", "IX"), ("YY",)],
    ],
    ids=lambda gens: "+".join(gens[0]),
)
def test_center_of_a_mixed_generator_is_ranked_in_one_ledger(gens, monkeypatch):
    """A generator that mixes grades gives one group: the stacked map is
    ranked in one ledger, as before the grading, then the ideal in one."""
    n = len(gens[0][0])
    report = generate_dla([_pauli_sum(n, *labels) for labels in gens])
    assert not report._graded
    ranked = _counted_ranks(monkeypatch)
    assert center_dimension(report) == _one_ledger_center_dimension(report)
    assert ranked == ["center", "ideal"]


@pytest.mark.parametrize(
    "graph, orbit, flip",
    [
        (Graph.cycle(5), False, lambda k: k ^ (1 << 5)),  # one more X
        (Graph.complete(6), True, lambda k: (k[0] + 1, *k[1:])),
    ],
    ids=["raw", "type"],
)
def test_a_basis_row_that_mixes_grades_raises(graph, orbit, flip, monkeypatch):
    """Every key of a row must share its pivot's grade, or the per-grade
    ranks would not add up."""
    report = _report(graph, orbit)
    row, pivot = report.ledger.rows[0], report.ledger.pivots[0]
    monkeypatch.setitem(row, flip(pivot), 1)
    with pytest.raises(ArithmeticError, match="mixes grades"):
        center_dimension(report)


def test_letter_counts_and_the_grading_of_the_bracket():
    """Packed and type keys decode to (#X, #Y, #Z); the bracket of
    anticommuting strings of grades (a, b) and (c, d) has grade
    (a + c, b + d + 1)."""
    assert closure.letter_counts(4, pack_pauli(PauliString.from_label("XYZI"))) == (1, 1, 1)
    assert closure.letter_counts(4, (2, 1, 0)) == (2, 1, 0)
    rng = random.Random(5)
    n, seen = 5, 0
    for _ in range(2_000):
        u, v = rng.getrandbits(2 * n), rng.getrandbits(2 * n)
        out = pauli_bracket(n, {u: 1}, {v: 1})
        if not out:  # commuting strings
            continue
        (w,) = out
        (a, b), (c, d) = closure._grade(n, u), closure._grade(n, v)
        assert closure._grade(n, w) == ((a + c) % 2, (b + d + 1) % 2)
        seen += 1
    assert seen > 500


def test_center_and_ideal_are_ranked_once_per_report(monkeypatch):
    """A report ranks its center and then its [g, g] the first time any
    reader asks for either, and keeps both; every later post-closure stage
    reads them."""
    from dla_lab.complete_forms import fact_suite, kn_ideal_basis

    ranked = _counted_ranks(monkeypatch)
    report = generate_dla_orbit_compressed(Graph.complete(6))
    spanners = [v.to_dict() for v in kn_ideal_basis(6)]
    assert center_dimension(report) == 1
    assert ideal_dimension(report) == 37
    assert all(in_ideal(report, v) for v in spanners)
    assert all(fact_suite(report, (spanners, span_ledger(spanners))).values())
    assert len(commutator_ideal(report)) == 37
    assert center_dimension(report) + ideal_dimension(report) == report.dimension
    assert ranked == ["center"] * 4 + ["ideal"]  # one center ledger per grade

    ranked.clear()
    report = generate_dla(maxcut_generators(Graph.cycle(5)))
    assert len(commutator_ideal(report)) == 12  # ranks both, center first
    assert (center_dimension(report), ideal_dimension(report)) == (2, 12)
    assert ranked == ["center"] * 4 + ["ideal"]


def test_a_broken_split_raises_and_is_not_kept(monkeypatch):
    """With [g, g] ranked one row short, the split raises and keeps
    nothing: every reader ranks the center and the ideal again, and fails
    again."""
    real = closure._rank_ledger
    ranked = []

    def short(report, stage, vectors):
        ranked.append(stage)
        led = real(report, stage, vectors)
        return span_ledger(led.rows[1:]) if stage == "ideal" else led

    report = generate_dla(maxcut_generators(Graph.cycle(5)))
    monkeypatch.setattr(closure, "_rank_ledger", short)
    for read in (center_dimension, ideal_dimension, commutator_ideal):
        with pytest.raises(ArithmeticError, match=r"must split the algebra: 2 \+ 11 != 14"):
            read(report)
    with pytest.raises(ArithmeticError, match="must split"):
        in_ideal(report, report.ledger.rows[0])
    assert ranked == (["center"] * 4 + ["ideal"]) * 4
    monkeypatch.setattr(closure, "_rank_ledger", real)
    assert (center_dimension(report), ideal_dimension(report)) == (2, 12)


def test_ideal_elements_are_brackets_in_span():
    report = generate_dla(maxcut_generators(Graph.cycle(4)))
    led = span_ledger([pauli_vector_to_dict(v) for v in report.basis])
    for v in commutator_ideal(report):
        assert led.contains(pauli_vector_to_dict(v))
