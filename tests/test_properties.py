"""Property tests of the raw and orbit closures over small connected graphs.

Hypothesis draws connected graphs on at most five vertices: a random
spanning tree plus random extra edges.  Runs are derandomized and the
example counts bounded, so every run checks the same graphs in a few
seconds.  Dimensions for n <= 4 are checked against the dense-matrix oracle
in tests/oracles/dense_oracle.py, which shares no code with the package.
The bracket kernel and the ledger's elimination are checked against plain
term-by-term references written here.
"""

import contextlib
import importlib.util
import io
import json
import tempfile
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dla_lab.cli import main, render_json
from dla_lab.closure import (
    LinearLedger,
    center_dimension,
    generate_dla,
    generate_dla_orbit_compressed,
    ideal_dimension,
    nullspace_combos,
    span_ledger,
)
from dla_lab.graphs import Graph, dimension_bounds, maxcut_generators
from dla_lab.paulis import (
    commutes,
    multiply,
    pack_pauli,
    pauli_bracket,
    unpack_pauli,
)

_spec = importlib.util.spec_from_file_location(
    "dense_oracle", Path(__file__).parent / "oracles" / "dense_oracle.py"
)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

BOUNDED = settings(derandomize=True, database=None, deadline=None)


@st.composite
def connected_graphs(draw, max_n=5):
    n = draw(st.integers(2, max_n))
    # vertex j joins the tree through an earlier vertex
    tree = {(draw(st.integers(0, j - 1)), j) for j in range(1, n)}
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    extra = draw(st.sets(st.sampled_from(pairs)))
    return Graph(n, frozenset(tree | extra))


@settings(BOUNDED, max_examples=25)
@given(connected_graphs())
def test_center_and_ideal_split_within_the_bounds(graph):
    report = generate_dla(maxcut_generators(graph))
    cdim = center_dimension(report)
    assert cdim + ideal_dimension(report) == report.dimension
    assert cdim <= 2
    assert report.dimension <= dimension_bounds(graph)["aut_bound"]


@settings(BOUNDED, max_examples=25)
@given(connected_graphs())
def test_orbit_closure_agrees_with_raw_closure(graph):
    raw = generate_dla(maxcut_generators(graph))
    packed = generate_dla_orbit_compressed(graph)
    assert (packed.dimension, packed.degree) == (raw.dimension, raw.degree)
    assert center_dimension(packed) == center_dimension(raw)
    assert ideal_dimension(packed) == ideal_dimension(raw)


@settings(BOUNDED, max_examples=25)
@given(connected_graphs(max_n=4))
def test_dimension_matches_dense_oracle(graph):
    report = generate_dla(maxcut_generators(graph))
    assert report.dimension == oracle.lie_closure_dim(graph.n, sorted(graph.edges))


@settings(BOUNDED, max_examples=10)
@given(connected_graphs())
def test_compute_json_rerenders_byte_identical(graph):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.txt"
        path.write_text(
            f"{graph.n}\n" + "".join(f"{j} {k}\n" for j, k in sorted(graph.edges))
        )
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["compute", "--graph", f"file:{path}"]) == 0
    text = out.getvalue().rstrip("\n")
    assert render_json(json.loads(text)) == text


@settings(BOUNDED, max_examples=40)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 5), st.integers(-3, 3), max_size=4),
        min_size=1,
        max_size=5,
    ),
    st.randoms(use_true_random=False),
)
def test_canonical_rows_do_not_depend_on_insertion_order(vectors, rng):
    orders = []
    for _ in range(2):
        shuffled = list(vectors)
        rng.shuffle(shuffled)
        orders.append(span_ledger(shuffled))
    a, b = orders
    assert a.canonical_rows() == b.canonical_rows()
    assert a.reduced().rank == a.rank == b.rank


@settings(BOUNDED, max_examples=60)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 5), st.integers(-3, 3), max_size=4),
        max_size=7,
    )
)
def test_nullspace_combos_are_a_basis_of_the_relations(vectors):
    combos = nullspace_combos(vectors)
    for combo in combos:
        total = {}
        for i, c in combo.items():
            for k, v in vectors[i].items():
                total[k] = total.get(k, 0) + c * v
        assert not any(total.values())
    assert len(combos) == len(vectors) - span_ledger(vectors).rank
    assert span_ledger(combos).rank == len(combos)


COEFFS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    st.floats(-2, 2, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
)


@st.composite
def packed_pauli_dicts(draw):
    n = draw(st.integers(1, 7))
    keys = st.integers(0, 4**n - 1)
    u = draw(st.dictionaries(keys, COEFFS, max_size=8))
    v = draw(st.dictionaries(keys, COEFFS, max_size=8))
    return n, u, v


def _reference_bracket(n, u, v):
    """Term by term: [iP, iQ] = -2 i^e (i R) for P·Q = i^e R, via multiply."""
    acc = {}
    for ku, cu in u.items():
        p = unpack_pauli(n, ku)
        for kv, cv in v.items():
            q = unpack_pauli(n, kv)
            if commutes(p, q):
                continue
            e, r = multiply(p, q)
            key = pack_pauli(r)
            s = acc.get(key, 0) + (2 if e == 3 else -2) * cu * cv
            if s == 0:
                acc.pop(key, None)
            else:
                acc[key] = s
    return acc


@settings(BOUNDED, max_examples=200)
@given(packed_pauli_dicts())
def test_bracket_kernel_is_the_term_by_term_sum(case):
    n, u, v = case
    expected = _reference_bracket(n, u, v)
    assert list(pauli_bracket(n, u, v).items()) == list(expected.items())


@settings(BOUNDED, max_examples=200)
@given(packed_pauli_dicts(), st.data())
def test_bracket_at_keys_is_the_filtered_bracket(case, data):
    """Pairing each key with u's terms gives the full bracket filtered to
    the keys, whether the keys are fewer or more than the terms of v."""
    n, u, v = case
    full = pauli_bracket(n, u, v)
    hits = data.draw(st.sets(st.sampled_from(sorted(full)))) if full else set()
    keys = hits | data.draw(st.sets(st.integers(0, 4**n - 1), max_size=8))
    at = data.draw(st.sampled_from([keys, dict.fromkeys(keys, 0)]))
    restricted = pauli_bracket(n, u, v, at=at)
    assert restricted == {k: c for k, c in full.items() if k in keys}


def test_bracket_at_keys_adds_in_the_order_of_u():
    """Float sums round, so the order of the terms matters: on key 1 the
    terms are -2e16, +2e16 and -2.0 in u's order, which sum to -2.0, while
    the reverse order sums to zero."""
    u, v = {4: 1e16, 5: 1e16, 6: 1.0}, {4: 1, 5: 1, 7: 1}
    assert pauli_bracket(2, u, v)[1] == -2.0
    assert pauli_bracket(2, u, v, at={1}) == {1: -2.0}


def _reference_rows(vectors):
    """Plain Fraction elimination against every earlier pivot, ascending;
    each residual made primitive with a positive pivot (None if zero)."""
    rows, out = {}, []
    for vec in vectors:
        w = {k: Fraction(c) for k, c in vec.items() if c}
        for p in sorted(rows):
            f = Fraction(w.get(p, 0), rows[p][p])
            for k, c in rows[p].items():
                w[k] = w.get(k, 0) - f * c
            w = {k: c for k, c in w.items() if c}
        if not w:
            out.append(None)
            continue
        pivot = min(w)
        m = lcm(*(c.denominator for c in w.values()))
        ints = {k: int(c * m) for k, c in w.items()}
        g = gcd(*ints.values()) * (1 if ints[pivot] > 0 else -1)
        rows[pivot] = {k: c // g for k, c in ints.items()}
        out.append(rows[pivot])
    return out


@settings(BOUNDED, max_examples=80)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 7), st.integers(-3, 3), max_size=5),
        max_size=8,
    )
)
# a step on pivot 0 cancels key 2, the step on pivot 1 creates it again,
# and the step on pivot 2 fills in key 3
@example([{0: 1, 2: 1}, {1: 1, 2: 1}, {2: 1, 3: 1}, {0: 1, 1: 1, 2: 1}])
def test_ledger_rows_are_the_fraction_elimination(vectors):
    led = LinearLedger()
    for vec, expected in zip(vectors, _reference_rows(vectors)):
        assert led.contains(vec) == (expected is None)
        assert led.insert(vec) == expected
    for i, row in enumerate(led.rows):
        assert not set(row) & set(led.pivots[:i])
