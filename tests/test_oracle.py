"""The dense-matrix oracle against the package on generic graphs.

``tests/oracles/dense_oracle.py`` shares no code with the package and
ranks over two primes that must agree, so its closure dimensions can be
pinned here and compared with ``generate_dla``.  The two graphs have no
symmetry to lean on and nested commutators whose entries span many orders
of magnitude, where a float rank with an absolute tolerance undercounts.
"""

import importlib.util
from pathlib import Path

import pytest

from dla_lab.closure import generate_dla
from dla_lab.graphs import Graph, maxcut_generators

_spec = importlib.util.spec_from_file_location(
    "dense_oracle", Path(__file__).parent / "oracles" / "dense_oracle.py"
)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

GENERIC = [
    (5, [(0, 1), (0, 2), (1, 2), (0, 4), (1, 3), (1, 4)], 295),
    (6, [(0, 1), (2, 4), (0, 2), (3, 4), (0, 5)], 568),
]


@pytest.mark.parametrize("n, edges, dim", GENERIC)
def test_oracle_dimension_matches_closure(n, edges, dim):
    assert oracle.lie_closure_dim(n, edges) == dim
    report = generate_dla(maxcut_generators(Graph(n, frozenset(edges))))
    assert report.dimension == dim
