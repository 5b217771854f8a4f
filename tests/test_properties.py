"""Property tests of the raw and orbit closures over small connected graphs.

Hypothesis draws connected graphs on at most five vertices: a random
spanning tree plus random extra edges.  Runs are derandomized and the
example counts bounded, so every run checks the same graphs in a few
seconds.  Dimensions for n <= 4 are checked against the dense-matrix oracle
in tests/oracles/dense_oracle.py, which shares no code with the package.
"""

import contextlib
import importlib.util
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from dla_lab.cli import main, render_json
from dla_lab.closure import (
    center_dimension,
    generate_dla,
    generate_dla_orbit_compressed,
    ideal_dimension,
    span_ledger,
)
from dla_lab.graphs import Graph, dimension_bounds, maxcut_generators

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
