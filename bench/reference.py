"""Independent exact reference for the raw-graphs workload.

Shares no code with ``src/``.  The two MaxCut generators of a graph are
written as integer matrices, ``A = sum_j X_j`` and ``B = sum_(j,k) Z_j Z_k``.
A nested commutator of k generators is ``i^k`` times the real nested
commutator of A and B, so the real Lie algebra splits into an odd part
(``i`` times real symmetric matrices) and an even part (real antisymmetric
matrices), and its dimension is the sum of the ranks of the two parts.
Every rank is taken modulo two large primes and both must agree; a rank
modulo p never exceeds the rank over the rationals, and agreement over two
unrelated primes rules out an accidental drop in practice.

Usage::

    python3 bench/reference.py --check          # recompute, compare to graphs.json
    python3 bench/reference.py --check g1-n5    # the same for one stored graph
    python3 bench/reference.py --write          # draw the corpus, rewrite graphs.json
    python3 bench/reference.py --edges 5 "0-1 0-2 1-2 0-4 1-3 1-4"
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

import numpy as np

#: both below 2**25, so a row of products (each < 2**50) sums without
#: overflowing int64 for up to 2**13 rows
PRIMES = (33554393, 33554383)

CORPUS_PATH = Path(__file__).resolve().parent / "graphs.json"
CORPUS_SEED = 271828
#: (vertices, non-tree edges) of each corpus graph.  Six-vertex graphs with
#: extra edges take the package 10 s to minutes each, so they stay out of
#: the corpus (see the README's reference figures).
CORPUS_SHAPES = ((5, 1), (5, 2), (5, 2), (6, 0))
#: the corpus graph that raw-graphs also runs under a seeded relabelling
RELABEL_SOURCE = "g1-n5"


def generator_matrices(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """The field term sum X_j and the cut term sum Z_j Z_k as int64 matrices."""
    dim = 1 << n
    a = np.zeros((dim, dim), dtype=np.int64)
    for b in range(dim):
        for j in range(n):
            a[b ^ (1 << j), b] += 1
    diag = np.zeros(dim, dtype=np.int64)
    for b in range(dim):
        diag[b] = sum(
            1 if ((b >> j) ^ (b >> k)) & 1 == 0 else -1 for j, k in edges
        )
    return a, np.diag(diag)


class ModSpan:
    """Row-reduced span of int64 vectors modulo a prime."""

    def __init__(self, p: int, width: int):
        self.p = p
        self.rows = np.zeros((0, width), dtype=np.int64)
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, vec: np.ndarray):
        """Add vec to the span; return its reduced copy, or None if dependent."""
        p = self.p
        w = vec % p
        if self.pivots:
            w = (w - (w[self.pivots] @ self.rows) % p) % p
        nz = np.flatnonzero(w)
        if nz.size == 0:
            return None
        piv = int(nz[0])
        w = (w * pow(int(w[piv]), -1, p)) % p
        if self.pivots:
            self.rows -= np.outer(self.rows[:, piv], w) % p
            self.rows %= p
        self.rows = np.vstack([self.rows, w])
        self.pivots.append(piv)
        return w


def _bracket(g: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    return (g @ x - x @ g) % p


class _Triangle:
    """Symmetric (odd class) and antisymmetric (even class) matrices are
    fixed by their upper triangle, so spans store only that half."""

    def __init__(self, size: int):
        self.size = size
        self.upper = {1: np.triu_indices(size, 0), 0: np.triu_indices(size, 1)}

    def pack(self, x: np.ndarray, cls: int) -> np.ndarray:
        return x[self.upper[cls]]

    def unpack(self, v: np.ndarray, cls: int, p: int) -> np.ndarray:
        rows, cols = self.upper[cls]
        x = np.zeros((self.size, self.size), dtype=np.int64)
        x[rows, cols] = v
        x[cols, rows] = v if cls == 1 else (-v) % p
        return x


def closure_modp(n: int, edges, p: int) -> dict:
    """dim, degree, center and ideal dimensions of the closure, modulo p."""
    tri = _Triangle(1 << n)
    gens = [m % p for m in generator_matrices(n, edges)]
    # parity class 1: odd nesting depth (i * symmetric); 0: even depth
    spans = {cls: ModSpan(p, len(tri.upper[cls][0])) for cls in (1, 0)}
    frontier = []
    for g in gens:
        w = spans[1].insert(tri.pack(g, 1))
        if w is not None:
            frontier.append((tri.unpack(w, 1, p), 1))
    degree = 0
    round_no = 0
    while frontier:
        round_no += 1
        new = []
        for g in gens:
            for x, cls in frontier:
                w = spans[1 - cls].insert(tri.pack(_bracket(g, x, p), 1 - cls))
                if w is not None:
                    new.append((tri.unpack(w, 1 - cls, p), 1 - cls))
        if new:
            degree = round_no
        frontier = new
    dim = spans[0].rank + spans[1].rank
    adjoint_rank = 0
    ideal_rank = 0
    for cls, span in spans.items():
        width = len(tri.upper[1 - cls][0])
        stacked = ModSpan(p, 2 * width)
        images = ModSpan(p, width)
        for row in span.rows:
            x = tri.unpack(row, cls, p)
            ax, bx = (tri.pack(_bracket(g, x, p), 1 - cls) for g in gens)
            stacked.insert(np.concatenate([ax, bx]))
            images.insert(ax)
            images.insert(bx)
        adjoint_rank += stacked.rank
        ideal_rank += images.rank
    return {
        "dim": dim,
        "degree": degree,
        "center_dim": dim - adjoint_rank,
        "ideal_dim": ideal_rank,
    }


def reference_values(n: int, edges) -> dict:
    """Closure data that two primes agree on; raises if they do not."""
    results = [closure_modp(n, edges, p) for p in PRIMES]
    if results[0] != results[1]:
        raise ArithmeticError(
            f"ranks disagree between primes {PRIMES}: {results[0]} vs {results[1]}"
        )
    return results[0]


def random_connected_graph(rng: random.Random, n: int, extras: int) -> list:
    """Random spanning tree by attachment in a shuffled vertex order, plus
    ``extras`` distinct non-tree edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    rest = [(j, k) for j in range(n) for k in range(j + 1, n) if (j, k) not in edges]
    rng.shuffle(rest)
    edges.update(rest[:extras])
    return sorted(edges)


def corpus_graphs(seed: int = CORPUS_SEED, shapes=CORPUS_SHAPES) -> list[dict]:
    rng = random.Random(seed)
    return [
        {"name": f"g{i}-n{n}", "n": n, "edges": random_connected_graph(rng, n, extras)}
        for i, (n, extras) in enumerate(shapes)
    ]


def parse_edges(text: str) -> list:
    return [tuple(int(v) for v in tok.split("-")) for tok in text.split()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", nargs="*", metavar="NAME",
                      help="recompute the stored graphs (all, or those named) and compare")
    mode.add_argument("--write", action="store_true", help="draw the corpus and rewrite graphs.json")
    mode.add_argument("--edges", nargs=2, metavar=("N", "EDGES"), help='one graph: N "0-1 1-2 ..."')
    args = parser.parse_args(argv)
    if args.edges:
        print(json.dumps(reference_values(int(args.edges[0]), parse_edges(args.edges[1]))))
        return 0
    if args.write:
        stored = {"command": "python3 bench/reference.py --check", "corpus_seed": CORPUS_SEED,
                  "shapes": CORPUS_SHAPES, "relabel": RELABEL_SOURCE, "graphs": corpus_graphs()}
    else:
        stored = json.loads(CORPUS_PATH.read_text())
        stored["graphs"] = [g for g in stored["graphs"] if not args.check or g["name"] in args.check]
    bad = []
    fresh = []
    for g in stored["graphs"]:
        values = reference_values(g["n"], g["edges"])
        fresh.append({"name": g["name"], "n": g["n"], "edges": [list(e) for e in g["edges"]], **values})
        if fresh[-1] != g:
            bad.append(g["name"])
        print(json.dumps(fresh[-1]), file=sys.stderr)
    if args.write:
        stored["graphs"] = fresh
        CORPUS_PATH.write_text(json.dumps(stored, indent=1) + "\n")
        return 0
    if bad or not fresh:
        print(f"stored values differ for {bad}" if bad else "no such graph", file=sys.stderr)
        return 1
    print(f"{len(fresh)} stored graphs reproduce")
    return 0


if __name__ == "__main__":
    sys.exit(main())
