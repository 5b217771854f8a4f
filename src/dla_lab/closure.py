"""Lie-algebra closure: basis generation, center, and commutator ideal.

The closure loop starts from a maximal linearly independent subset B0 of
the given generators.  Round k brackets every element of B0 (outer loop,
given order) against every element added in round k-1 (inner loop,
insertion order) and inserts the independent results; the loop stops at
the first round that adds nothing.  The reported ``degree`` is the number
of productive rounds, so an abelian generator set has degree 0.  Bracketing
only against the generators is enough to span the closure: by the Jacobi
identity, [[A,B],C] lies in the span of brackets of A and B with earlier
elements, so deeper brackets never escape the generator-driven stream.

All rank decisions are exact.  ``LinearLedger`` keeps a sparse row-echelon
form over the integers (fraction-free elimination, rows rescaled to
primitive vectors with positive pivot).  During the closure a row is
stored once and never rewritten: rank and membership need nothing more.
After the last round the engine reduces the rows once, largest pivot
first, into the fully reduced form, which is canonical for the row space
(two spans are equal iff their reduced rows are) and stays sparse even
when the algebra is nearly the whole ambient space.

The same engine runs in three coordinate systems:

* raw Pauli coordinates (keys are packed ``(x_mask << n) | z_mask`` ints),
  bracketed by the package's one Pauli kernel, ``paulis.pauli_bracket``;
* group-orbit coordinates for any graph but K_n (keys are the packed
  canonical representatives of orbits under the graph's group,
  ``symmetry.graph_group``, from the one orbit map
  ``symmetry.PackedOrbits``), bracketed by the same kernel on a
  representative against a whole orbit, then folded back to orbits;
* type coordinates ``(p, q, r)`` for complete graphs, via the two
  generators' closed-form adjoint maps.

Every generator acts only through its adjoint map ``v -> [G_j, v]``: the
engine takes (vector, adjoint map) pairs, and the closure rounds, the
center and the commutator ideal all apply the maps of B0 to basis
elements.  The basis is kept once, as the report ledger's reduced rows,
largest pivot first; ``DlaReport.basis`` publishes them in the caller's
types on first access.

The center and the ideal are ranked in the basis's pivot coordinates: an
image [G_j, b] lies in the algebra, and the reduced rows are triangular at
their pivot keys, so an image restricted to the d pivot keys loses nothing.
Raw images are evaluated at the pivots only (``pauli_bracket``'s ``at``).
The center's basis is ``nullspace_combos`` of the stacked restricted
images, and every stage runs under the closure's memory budget.
``ideal_ledger`` keeps [g, g] in the closure's own coordinates, for
membership tests of arbitrary vectors.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from fractions import Fraction
from functools import cached_property, partial
from math import gcd, lcm

from .paulis import (
    PauliVector,
    dict_to_pauli_vector,
    pauli_bracket,
    pauli_vector_to_dict,
    unpack_pauli,
)
from .symmetry import PackedOrbits, graph_group

DEFAULT_MEMORY_BUDGET = 10**8


class ResourceBudgetError(RuntimeError):
    """Raised when a computation would exceed the configured entry budget."""


def _check_budget(holder: str, count: int, budget: int | None) -> None:
    if budget is not None and count > budget:
        raise ResourceBudgetError(
            f"{holder} {count} entries, over the budget of {budget}"
        )


def _add_term(acc: dict, key, c) -> None:
    """acc[key] += c, dropping the key when the sum is zero."""
    s = acc.get(key, 0) + c
    if s == 0:
        acc.pop(key, None)
    else:
        acc[key] = s


def _to_int_row(vec) -> dict:
    """Copy an int/Fraction sparse vector as ints over the lcm of its
    denominators, zeros dropped; any other coefficient is a TypeError."""
    out = {}
    m = 0  # lcm of the denominators once a non-int is seen
    for k, c in vec.items():
        if type(c) is not int:  # isinstance(c, Fraction) goes through ABCMeta
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"ledger coefficient {c!r} is no int or Fraction")
            m = lcm(m or 1, c.denominator)
        if c:
            out[k] = c
    return {k: int(c * m) for k, c in out.items()} if m else out


def _primitive(row: dict, pivot) -> dict:
    """The row over its content, pivot coefficient positive.

    Always a new dict, built key by key, so a row whose table grew and
    shrank during elimination is not stored with its spare slots.
    """
    g = 0
    for c in row.values():
        g = gcd(g, c)
        if g == 1:
            break
    if row[pivot] < 0:
        g = -g
    return {k: c // g for k, c in row.items()}


class LinearLedger:
    """Sparse exact-integer row echelon form with rank queries.

    Rows are pairwise independent; inserting a dependent vector is a no-op
    reported by returning ``None``; ``rank`` equals the row count.  The
    pivot of a row is its smallest key under the global ordering.  A row
    is stored once and never rewritten: the inserted vector with every
    earlier pivot eliminated, primitive with a positive pivot.  Rank and
    membership need no more; ``reduced`` gives the canonical form of the
    span, and two ledgers are equal iff their row spaces are.
    """

    def __init__(self, memory_budget: int | None = None):
        self.rows: list[dict] = []
        self.pivots: list = []
        self._pivot_row: dict = {}
        self.entry_count = 0
        self.memory_budget = memory_budget

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearLedger)
            and self.canonical_rows() == other.canonical_rows()
        )

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _forward_reduce(self, vec) -> dict:
        """Eliminate every existing pivot from a copy of vec (exact).

        Fraction-free (Bareiss-style): when the pivot coefficient b does
        not divide c, the step is w <- (b/g)*w - (c/g)*row with
        g = gcd(b, c).  Pivots are positive, so the result is a positive
        multiple of the rational residual; the caller divides out the
        content once at the end.  The heap holds pivot keys only: they
        come out ascending, and a row adds only keys above its pivot, so
        an eliminated pivot never returns.
        """
        w = _to_int_row(vec)
        pivot_row = self._pivot_row
        heap = [k for k in w if k in pivot_row]
        heapq.heapify(heap)
        rows = self.rows
        while heap:
            k = heapq.heappop(heap)
            c = w.get(k)
            if c is None:
                continue
            row = rows[pivot_row[k]]
            b = row[k]
            q, rem = divmod(c, b)
            if rem:
                g = gcd(b, c)
                s = b // g
                q = c // g
                for kk in w:
                    w[kk] *= s
            for kk, cc in row.items():
                cur = w.get(kk, 0) - q * cc
                if cur == 0:
                    w.pop(kk, None)
                else:
                    if kk not in w and kk in pivot_row:
                        heapq.heappush(heap, kk)
                    w[kk] = cur
        return w

    def contains(self, vec) -> bool:
        """Exact membership of vec in the current row space."""
        return not self._forward_reduce(vec)

    def _store(self, w: dict) -> dict:
        """Append a nonzero residual of _forward_reduce as a primitive row."""
        pivot = min(w)
        w = _primitive(w, pivot)
        self._pivot_row[pivot] = len(self.rows)
        self.rows.append(w)
        self.pivots.append(pivot)
        self.entry_count += len(w)
        _check_budget("ledger holds", self.entry_count, self.memory_budget)
        return w

    def insert(self, vec) -> dict | None:
        """Add vec to the span.

        Returns the stored row, which callers must not mutate, or None if
        vec was already in the span.
        """
        w = self._forward_reduce(vec)
        return self._store(w) if w else None

    def reduced(self) -> LinearLedger:
        """The span's reduced row echelon form, in a new ledger under the
        same memory budget, rows largest pivot first.

        The rows go in largest pivot first, so each is reduced against
        every larger pivot and no earlier row holds its smaller pivot key:
        the stored rows are the span's canonical primitive reduced rows.
        A closure's reduced rows are its basis: any basis gives the same
        ranks, and of the orders measured, largest pivot first ranks the
        center and the ideal fastest.
        """
        out = LinearLedger(self.memory_budget)
        order = sorted(range(self.rank), key=self.pivots.__getitem__, reverse=True)
        for rid in order:
            out._store(out._forward_reduce(self.rows[rid]))
        return out

    def canonical_rows(self) -> list[dict]:
        """Reduced rows in pivot order; equal row spaces give equal lists."""
        return self.reduced().rows[::-1]


def span_ledger(vectors, memory_budget: int | None = None) -> LinearLedger:
    """Ledger spanning the given sparse vectors."""
    led = LinearLedger(memory_budget)
    for v in vectors:
        led.insert(v)
    return led


def nullspace_combos(vectors, memory_budget: int | None = None) -> list[dict]:
    """Combinations c with sum_i c[i]*vectors[i] == 0, as {index: coeff}.

    Solved on the transposed system, one equation {-i: coeff} per key, so
    the pivots fall on the last vectors first.  A ledger ranks and reduces
    the equations; each free unknown gives one combination by
    back-substitution, primitive and positive on its own index.  The budget
    counts the equations' entries as they are stored, and the ledger's.
    """
    eqs: dict = {}
    count = n = 0
    for n, v in enumerate(vectors, 1):
        for k, c in v.items():
            eqs.setdefault(k, {})[1 - n] = c
        count += len(v)
        _check_budget("null-space equations hold", count, memory_budget)
    led = span_ledger(eqs.values(), memory_budget).reduced()
    combos = {i: {i: 1} for i in range(n)}  # free unknown -> its solution
    for piv, row in zip(led.pivots, led.rows):
        del combos[-piv]
        for k, c in row.items():
            if k != piv:
                combos[-k][-piv] = Fraction(-c, row[piv])
    return [_primitive(_to_int_row(c), f) for f, c in combos.items()]


# ---------------------------------------------------------------------------
# coordinate systems


def _group_orbit_bracket(n: int, orbits: PackedOrbits):
    """Bracket of two group-invariant vectors in orbit coordinates.

    [S(O_a), S(O_b)] is invariant, so it is determined by bracketing one
    representative of O_a against the full expansion of O_b and averaging
    back: the coefficient on orbit O equals |O_a|/|O| times the sum of the
    raw product coefficients landing in O.  The raw products come from the
    Pauli kernel, one call per representative against the whole expansion
    of v.  Exact integer output.
    """

    def bracket(u: dict, v: dict) -> dict:
        expanded: dict[int, int] = {}
        for kb, cb in v.items():
            expanded.update(dict.fromkeys(orbits.orbit(kb)[2], cb))
        acc: dict[int, int] = {}
        for ka, ca in u.items():
            raw = pauli_bracket(n, {ka: ca * orbits.orbit(ka)[1]}, expanded)
            for key, c in raw.items():
                rep = orbits.orbit(key)[0]
                acc[rep] = acc.get(rep, 0) + c
        out = {}
        for rep, total in acc.items():
            if total == 0:
                continue
            q, r = divmod(total, orbits.orbit(rep)[1])
            if r:
                raise ArithmeticError("orbit bracket must stay integral")
            out[rep] = q
        return out

    return bracket


def ad_field_type(n: int, v: dict) -> dict:
    """Adjoint action of the transverse-field orbit on type coordinates."""
    out: dict[tuple[int, int, int], object] = {}
    for (p, q, r), c in v.items():
        if r >= 1:
            _add_term(out, (p, q + 1, r - 1), 2 * (q + 1) * c)
        if q >= 1:
            _add_term(out, (p, q - 1, r + 1), -2 * (r + 1) * c)
    return out


def ad_cut_type(n: int, v: dict) -> dict:
    """Adjoint action of the all-pairs ZZ orbit on type coordinates."""
    out: dict[tuple[int, int, int], object] = {}
    for (p, q, r), c in v.items():
        m = n - p - q - r
        if q >= 1 and r >= 1:
            _add_term(out, (p + 1, q - 1, r - 1), 2 * (m + 1) * (p + 1) * c)
        if q >= 1 and m >= 1:
            _add_term(out, (p + 1, q - 1, r + 1), 2 * (p + 1) * (r + 1) * c)
        if p >= 1 and r >= 1:
            _add_term(out, (p - 1, q + 1, r - 1), -2 * (m + 1) * (q + 1) * c)
        if p >= 1 and m >= 1:
            _add_term(out, (p - 1, q + 1, r + 1), -2 * (q + 1) * (r + 1) * c)
    return out


# ---------------------------------------------------------------------------
# reports and the engine


class DlaReport:
    """Closure output: dimension, degree, basis and bookkeeping.

    ``ledger`` is the closure's span in packed coordinates, fully reduced,
    and the one copy of its basis; ``basis`` publishes its rows, largest
    pivot first, on first access: PauliVectors for raw runs,
    ``{PauliString: int}`` orbit-representative dicts for group-orbit runs,
    and ``{(p, q, r): int}`` dicts for complete-graph type coordinates.
    ``generator_count`` is the number of independent generators used (the
    size of B0); the center and ideal stages act through their adjoint maps
    ``v -> [G_j, v]`` under the ledger's memory budget.  Reports are equal
    when their ledgers span the same space.
    """

    def __init__(self, dimension: int, degree: int, generator_count: int, n: int,
                 coords: str, ledger: LinearLedger = None, _adjoints: list = None):
        self.dimension = dimension
        self.degree = degree
        self.generator_count = generator_count
        self.n = n
        self.coords = coords
        self.ledger = ledger
        self._adjoints = _adjoints

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = (
            (r.dimension, r.degree, r.generator_count, r.n, r.coords, r.ledger)
            for r in (self, other)
        )
        return mine == theirs

    def __repr__(self):
        return (
            f"DlaReport(dimension={self.dimension!r}, degree={self.degree!r}, "
            f"generator_count={self.generator_count!r}, n={self.n!r}, "
            f"coords={self.coords!r})"
        )

    @cached_property
    def basis(self) -> list:
        return [_publish(self, d) for d in self.ledger.rows]


def _closure_engine(n: int, coords: str, generators, memory_budget) -> DlaReport:
    """Close (vector, adjoint map) pairs, ``ad(v) == [vector, v]``."""
    ledger = LinearLedger(memory_budget)
    adjoints = []
    frontier = []
    round_no = 0
    try:
        for gd, ad in generators:
            row = ledger.insert(gd)
            if row is not None:
                adjoints.append(ad)
                frontier.append(row)
        while frontier:
            round_no += 1
            new = []
            for ad in adjoints:
                for f in frontier:
                    row = ledger.insert(ad(f))
                    if row is not None:
                        new.append(row)
            frontier = new
        ledger = ledger.reduced()
    except ResourceBudgetError as exc:
        raise ResourceBudgetError(
            f"{exc}; gave up in closure round {round_no} "
            f"(frontier size {len(frontier)})"
        ) from None
    return DlaReport(
        dimension=ledger.rank,
        degree=max(round_no - 1, 0),  # every round but the last added
        generator_count=len(adjoints),
        n=n,
        coords=coords,
        ledger=ledger,
        _adjoints=adjoints,
    )


def generate_dla(
    generators: list[PauliVector],
    memory_budget: int | None = DEFAULT_MEMORY_BUDGET,
) -> DlaReport:
    """Closure of skew-Hermitian Pauli vectors in raw Pauli coordinates."""
    if not generators:
        raise ValueError("at least one generator is required")
    n = generators[0].n
    for g in generators:
        if g.n != n:
            raise ValueError("generators must share a qubit count")
    gen_dicts = [pauli_vector_to_dict(g) for g in generators]
    pairs = [(d, partial(pauli_bracket, n, d)) for d in gen_dicts]
    return _closure_engine(n, "pauli", pairs, memory_budget)


def generate_dla_orbit_compressed(
    graph, memory_budget: int | None = DEFAULT_MEMORY_BUDGET
) -> DlaReport:
    """A graph's closure in orbit coordinates of ``symmetry.graph_group``, K_n's
    in type coordinates (S_n cannot be enumerated).  The generators have one
    coordinate per vertex orbit and per edge orbit, each with coefficient 1."""
    if not graph.edges:
        raise ValueError("graph has no edges; the cut Hamiltonian vanishes")
    n = graph.n
    group = graph_group(graph)  # checks a family label against the edges
    if graph.family == "complete":
        pairs = [
            ({(1, 0, 0): 1}, partial(ad_field_type, n)),
            ({(0, 0, 2): 1}, partial(ad_cut_type, n)),
        ]
        return _closure_engine(n, "complete-orbit", pairs, memory_budget)
    orbits = PackedOrbits(group)
    bracket = _group_orbit_bracket(n, orbits)
    x_keys = [1 << (n + j) for j in range(n)]
    zz_keys = [(1 << j) | (1 << k) for j, k in graph.edges]
    gens = [dict.fromkeys(sorted({orbits.orbit(k)[0] for k in ks}), 1)
            for ks in (x_keys, zz_keys)]
    pairs = [(d, partial(bracket, d)) for d in gens]
    return _closure_engine(n, "group-orbit", pairs, memory_budget)


def _combine_basis(rows: list[dict], combo: dict) -> dict:
    acc: dict = {}
    for i, c in combo.items():
        for k, cc in rows[i].items():
            _add_term(acc, k, c * cc)
    return acc


def _publish(report: DlaReport, d: dict):
    if report.coords == "pauli":
        return dict_to_pauli_vector(report.n, d)
    if report.coords == "group-orbit":
        return {unpack_pauli(report.n, k): c for k, c in d.items()}
    return dict(d)


def _pivot_image(report: DlaReport, ad, b: dict, block: int = 0) -> dict:
    """[G_j, b] in the basis's pivot coordinates: its coefficient on the
    m-th smallest pivot key goes to key ``block * dim + m``.  The keys keep
    the order of the pivots they stand for: in the reverse order the
    elimination fills in, and orbit complete:28's center rank took 16
    times as long.

    The reduced rows are triangular at their pivot keys, so restricting to
    those keys is one-to-one on the algebra; every image of a basis row
    lies in the algebra, since the closure reduced each generator image of
    its rows into the ledger.  Ranks and null spaces of the images are
    therefore the same as in full coordinates.  A raw image is evaluated at
    the pivots only; orbit and type images are filtered as they are read.
    """
    index = report.ledger._pivot_row  # pivot key -> row, largest pivot first
    top = (block + 1) * report.dimension - 1
    image = ad(b, at=index) if report.coords == "pauli" else ad(b)
    out = {}
    for k, c in image.items():
        i = index.get(k)
        if i is not None:
            out[top - i] = c
    return out


def _center_map(report: DlaReport, rows: list[dict]):
    """Rows of the stacked adjoint map b -> ([G_j, b])_j in pivot
    coordinates, one per basis row, generator j in block j."""
    for b in rows:
        w = {}
        for j, ad in enumerate(report._adjoints):
            w.update(_pivot_image(report, ad, b, j))
        yield w


@contextmanager
def _stage(name: str):
    """Name the stage in a budget error raised inside the block."""
    try:
        yield
    except ResourceBudgetError as exc:
        raise ResourceBudgetError(f"{exc}; gave up in the {name} stage") from None


def _rank_ledger(report: DlaReport, stage: str, vectors) -> LinearLedger:
    """Echelon ledger of the vectors under the report's memory budget; a
    budget error names the stage."""
    with _stage(stage):
        return span_ledger(vectors, report.ledger.memory_budget)


def center(report: DlaReport) -> list:
    """Basis of the center: elements of the span killed by every generator.

    An element commuting with all generators commutes with the whole
    closure (Jacobi identity), so the center is the null space of the
    stacked maps v -> [G_j, v] restricted to the basis span, solved by
    :func:`nullspace_combos` under the report's memory budget.  Exact.
    """
    rows = report.ledger.rows
    with _stage("center"):
        combos = nullspace_combos(
            _center_map(report, rows), report.ledger.memory_budget
        )
    return [_publish(report, _combine_basis(rows, c)) for c in combos]


def center_dimension(report: DlaReport) -> int:
    """dim of the center via the rank of the stacked adjoint map."""
    stacked = _center_map(report, report.ledger.rows)
    return report.dimension - _rank_ledger(report, "center", stacked).rank


def ideal_ledger(report: DlaReport) -> LinearLedger:
    """Ledger spanning [g, g] = span{[G_j, b] : b in basis}, in the
    closure's own coordinates, for membership tests.

    For a generated algebra this bracket stream spans the full ideal: by
    Jacobi induction any [u, v] with u, v in the closure reduces to brackets
    of generators with closure elements.  Each call builds a fresh ledger;
    a caller that needs both the rank and membership tests builds it once.
    """
    brackets = (ad(b) for ad in report._adjoints for b in report.ledger.rows)
    return _rank_ledger(report, "ideal", brackets)


def commutator_ideal(report: DlaReport) -> list:
    """Independent spanning set of [g, g]: the rows of its ledger.

    Raises ArithmeticError unless the exact splitting
    dim(center) + dim(ideal) == dim(g) holds.
    """
    led = ideal_ledger(report)
    check_split(report, center_dimension(report), led.rank)
    return [_publish(report, row) for row in led.rows]


def ideal_dimension(report: DlaReport) -> int:
    """dim of [g, g]: the rank of the images [G_j, b] in pivot coordinates."""
    rows = report.ledger.rows
    images = (_pivot_image(report, ad, b) for ad in report._adjoints for b in rows)
    return _rank_ledger(report, "ideal", images).rank


def check_split(report: DlaReport, center_dim: int, ideal_dim: int) -> None:
    """Raise ArithmeticError unless dim(center) + dim([g, g]) == dim(g),
    which holds exactly for every compact Lie algebra."""
    if center_dim + ideal_dim != report.dimension:
        raise ArithmeticError(
            "center and commutator ideal must split the algebra: "
            f"{center_dim} + {ideal_dim} != {report.dimension}"
        )
