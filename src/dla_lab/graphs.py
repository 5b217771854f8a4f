"""Graphs, their generators (``closure.maxcut_keys`` published as
PauliVectors), and cheap dimension bounds."""

from __future__ import annotations

from collections import namedtuple
from math import comb
from pathlib import Path

from .closure import maxcut_keys
from .paulis import PauliString, PauliVector, ValueTuple, anticommute, dict_to_pauli_vector
from .symmetry import GroupTooLarge, graph_group, orbit_count

# The brute-force centralizer search is refused beyond this many vertices.
CENTRALIZER_VERTEX_CAP = 6


class Graph(ValueTuple, namedtuple("Graph", "n edges family", defaults=(None,))):
    """Simple undirected graph on vertices 0..n-1; ``family`` is a label
    that equality and hashing ignore."""

    __slots__ = ()

    def __new__(cls, n: int, edges: frozenset, family: str | None = None):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        norm = set()
        for e in edges:
            j, k = e
            if j == k:
                raise ValueError(f"self-loop at vertex {j}")
            if not (0 <= j < n and 0 <= k < n):
                raise ValueError(f"edge {e} out of range for n={n}")
            norm.add((min(j, k), max(j, k)))
        return tuple.__new__(cls, (n, frozenset(norm), family))

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self[:2] == other[:2]

    def __hash__(self):
        return hash(self[:2])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return cls(n, frozenset((j, (j + 1) % n) for j in range(n)), "cycle")

    @classmethod
    def complete(cls, n: int) -> "Graph":
        if n < 2:
            raise ValueError("complete graph needs n >= 2")
        return cls(
            n, frozenset((j, k) for j in range(n) for k in range(j + 1, n)),
            "complete",
        )

    @classmethod
    def path(cls, n: int) -> "Graph":
        if n < 2:
            raise ValueError("path needs n >= 2")
        return cls(n, frozenset((j, j + 1) for j in range(n - 1)), "path")

    @classmethod
    def from_file(cls, path) -> "Graph":
        """Parse a graph file: first line n, then one "j k" edge per line."""
        lines = [
            ln.strip()
            for ln in Path(path).read_text().splitlines()
            if ln.strip() and not ln.strip().startswith("#")
        ]
        if not lines:
            raise ValueError(f"{path}: empty graph file")
        try:
            n = int(lines[0])
        except ValueError:
            raise ValueError(f"{path}: first line must be the vertex count")
        edges = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise ValueError(f"{path}: bad edge line {ln!r}")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise ValueError(f"{path}: bad edge line {ln!r}")
        try:
            return cls(n, frozenset(edges))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}")


def parse_graph_spec(spec: str) -> Graph:
    """Parse "cycle:N", "complete:N", "path:N", or "file:PATH"."""
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise ValueError(f"graph spec {spec!r} needs the form kind:arg")
    if kind == "file":
        return Graph.from_file(arg)
    try:
        n = int(arg)
    except ValueError:
        raise ValueError(f"graph spec {spec!r}: {arg!r} is not an integer")
    if kind == "cycle":
        return Graph.cycle(n)
    if kind == "complete":
        return Graph.complete(n)
    if kind == "path":
        return Graph.path(n)
    raise ValueError(f"unknown graph kind {kind!r}")


def maxcut_generators(graph: Graph) -> list[PauliVector]:
    """The two circuit generators of ``closure.maxcut_keys``, as PauliVectors."""
    return [dict_to_pauli_vector(graph.n, d) for d in maxcut_keys(graph)]


def dimension_bounds(graph: Graph) -> dict:
    """Cheap upper bounds on the closure dimension.

    aut_bound counts the non-identity Pauli strings up to the graph's group
    (``symmetry.graph_group``, by Burnside); the closure basis can be chosen
    invariant, so its dimension never exceeds the number of orbits.  K_n
    uses the closed form, since S_n is not enumerated; aut_bound is None
    when the automorphism search is over its cap.  center_bound reflects
    that these two-generator closures never carry more than a
    two-dimensional center.
    """
    n = graph.n
    try:
        group = graph_group(graph)
    except GroupTooLarge:
        return {"aut_bound": None, "center_bound": 2}
    if graph.family == "complete":
        # orbits of strings under S_n = Pauli-type counts (p, q, r)
        aut = kn_formulas(n)["binom_bound"] - 1
    else:
        aut = orbit_count(group) - 1
    return {"aut_bound": aut, "center_bound": 2}


def kn_formulas(n: int) -> dict:
    """Closed-form dimension data for the complete graph on n vertices."""
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    # Pauli-type counts (p, q, r) with p + q + r <= n: choose 3
    # separators among n + 3 slots
    binom_bound = comb(n + 3, 3)
    yz_bound = sum((2 * s + 1) * (n - 2 * s + 1) for s in range(n // 2 + 1)) - 2
    if n % 2 == 0:
        dim = (n**3 + 6 * n**2 + 2 * n + 12) // 12
        ideal = (n**3 + 6 * n**2 + 2 * n) // 12
        center = 1
    else:
        dim = (n**3 + 6 * n**2 - n + 18) // 12
        ideal = (n**3 + 6 * n**2 - n - 6) // 12
        center = 2
    return {
        "n": n,
        "binom_bound": binom_bound,
        "yz_bound": yz_bound,
        "dim": dim,
        "ideal_dim": ideal,
        "center_dim": center,
    }


def centralizer_paulis(graph: Graph) -> list[PauliString]:
    """All Pauli strings commuting with every X_j and every edge Z_j Z_k.

    Brute force over all 4^n strings, so refuses n > CENTRALIZER_VERTEX_CAP.
    """
    n = graph.n
    if n > CENTRALIZER_VERTEX_CAP:
        raise ValueError(
            f"centralizer brute force capped at n={CENTRALIZER_VERTEX_CAP}"
        )
    checks = [(1 << j, 0) for j in range(n)]
    checks += [(0, (1 << j) | (1 << k)) for j, k in sorted(graph.edges)]
    found = []
    for x in range(1 << n):
        for z in range(1 << n):
            if all(not anticommute(x, z, xb, zb) for xb, zb in checks):
                found.append(PauliString(n, x, z))
    return found
