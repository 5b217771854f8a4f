"""Closed forms for the ring algebra: orbit basis, center, alternating
powers, and the spectral bases.

Every element here is a sum of translation orbits of Pauli strings on a
ring of n qubits (n >= 3).  Five orbit families appear:

* ``X``        the n single-qubit X strings;
* ``XN1``      the n strings that are X on all but one qubit;
* ``ZXZ(t)``   Z_j X..X Z_{j+t+1}: Z endpoints bracketing t X's, summed
               over the n rotations (t in 0..n-2);
* ``YXY(t)``   the same shape with Y endpoints;
* ``YXZ(t)``   mixed endpoints, both orientations: 2n strings.

Offsets outside 0..n-2 fold back into this vocabulary: YXY(-1) = -X and
YXY(n-1) = ZXZ(n-1) = XN1, while YXZ vanishes at both walls; reflecting
an offset past the far wall (t -> 2n - t - 2) swaps YXY with ZXZ and
flips the sign of YXZ.  ``orbit_term`` and the folded structure-constant
table behind ``orbit_bracket`` apply these reductions, so stored sums only
ever hold canonical offsets.  The table is built whole, for the last ring
size only (every per-size cache keeps one size), one row and column per
stored key, each entry carrying its whole sign and its output position.
``_stored_keys`` is the one orbit list: the table and ``cycle_basis`` read it.

A ``CycleOrbitSum`` is the package's shared sparse vector
(:class:`~dla_lab.paulis.SparseVector`) keyed by ``(kind index, offset)``
int tuples, the index taken in the order X, XN1, ZXZ, YXY, YXZ (X and XN1
carry offset 0), so ``terms()`` is the sorted item list.  ``orbit_term``
and ``coeff`` take kind names.  Coefficients are duck-typed: ints and
Fractions for structural work, floats or complex for the trigonometric
bases.  Builders grow their sums in place with ``accumulate``.

Each ring orbit is an orbit of the ring's dihedral group, so the orbit
map the closure itself uses, ``graph_group(Graph.cycle(n)).orbits``,
names and lists it: ``compressed`` keys a sum by packed canonical
representatives, the coordinates of the orbit-compressed ring closure,
and ``expand`` lists each orbit's members from the same map.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import lru_cache

from .graphs import Graph
from .paulis import PauliVector, SparseVector, ValueTuple, dict_to_pauli_vector
from .symmetry import graph_group

_KINDS = ("X", "XN1", "ZXZ", "YXY", "YXZ")
_KIND_INDEX = {k: i for i, k in enumerate(_KINDS)}
_ring = lru_cache(maxsize=1)(Graph.cycle)  # graph_group then matches the ring by identity


def _fold(n: int, kind: str, offset: int):
    """Reduce (kind, offset) to the canonical vocabulary.

    Returns (sign, key) or None when the term vanishes.  kind must be one
    of ZXZ / YXY / YXZ; X and XN1 are already canonical.
    """
    k = offset % (2 * n)
    sign = 1
    if k >= n:
        k = 2 * n - k - 2
        if kind == "YXZ":
            sign = -sign
        else:
            kind = "ZXZ" if kind == "YXY" else "YXY"
        if k == -1:
            if kind == "YXZ":
                return None
            return (-sign, (0, 0))  # X
    if k == n - 1:
        if kind == "YXZ":
            return None
        return (sign, (1, 0))  # XN1
    return (sign, (_KIND_INDEX[kind], k))


class CycleOrbitSum(SparseVector):
    """Sparse sum of ring orbits with duck-typed coefficients."""

    __slots__ = ()

    def __init__(self, n: int, coeffs: dict | None = None):
        if n < 3:
            raise ValueError("ring sums need n >= 3")
        super().__init__(n, coeffs)

    def _check_key(self, key: tuple[int, int]) -> None:
        i, offset = key
        if i not in range(len(_KINDS)):
            raise ValueError(f"unknown orbit kind index {i!r}")
        if i < 2:
            if offset != 0:
                raise ValueError(f"{_KINDS[i]} carries no offset")
        elif offset not in range(self.n - 1):
            raise ValueError(f"{self._label(key)} is not canonical for n={self.n}")

    def _label(self, key: tuple[int, int]) -> str:
        i, offset = key
        return _KINDS[i] if i < 2 else f"{_KINDS[i]}({offset})"

    def terms(self) -> list:
        return sorted(self._coeffs.items())

    def coeff(self, kind: str, offset: int = 0):
        return self._coeffs.get((_KIND_INDEX[kind], offset), 0)

    def compressed(self) -> dict:
        """The sum in the ring closure's own coordinates: the packed
        canonical representative of each orbit -> its coefficient."""
        orbits = graph_group(_ring(self.n)).orbits
        return {orbits.orbit(_orbit_member(self.n, key))[0]: c for key, c in self.terms()}

    def expand(self) -> PauliVector:
        """Expansion into raw Pauli strings, one unit per orbit member."""
        orbits = graph_group(_ring(self.n)).orbits
        members = {k: c for rep, c in self.compressed().items() for k in orbits.orbit(rep)[2]}
        return dict_to_pauli_vector(self.n, members)


def orbit_term(n: int, kind: str, offset: int = 0, coeff=1) -> CycleOrbitSum:
    """A single orbit with any integer offset, folded to canonical form."""
    if coeff == 0:
        return CycleOrbitSum.zero(n)
    if kind in ("X", "XN1"):
        return CycleOrbitSum(n, {(_KIND_INDEX[kind], 0): coeff})
    folded = _fold(n, kind, offset)
    if folded is None:
        return CycleOrbitSum.zero(n)
    sign, key = folded
    return CycleOrbitSum(n, {key: sign * coeff})


def _orbit_member(n: int, key: tuple[int, int]) -> int:
    """The packed key of the member of orbit ``key`` that starts at qubit 0.

    X is X_0 and XN1 is X on qubits 1..n-1; the endpoint families put
    their ends on qubits 0 and t+1 (Y on qubit 0 for YXZ) and X between.
    """
    i, t = key
    if i < 2:
        return (1 if i == 0 else (1 << n) - 2) << n
    ends = 1 | 1 << (t + 1)
    mid = (1 << (t + 1)) - 2
    x = (mid, mid | ends, mid | 1)[i - 2]
    return x << n | ends


# ---------------------------------------------------------------------------
# bracket table


def _pair_bracket(kind1: str, s: int, kind2: str, t: int) -> list:
    """Structure constants of one orbit pair, as (coeff, kind, offset), stated
    with the left kind first in ``_KINDS``: [B, A] = -[A, B] gives the rest."""
    if _KIND_INDEX[kind1] > _KIND_INDEX[kind2]:
        return [(-c, kind, offset) for c, kind, offset in _pair_bracket(kind2, t, kind1, s)]
    if kind1 == "ZXZ" and kind2 == "ZXZ":
        return [(2, "YXZ", s - t - 1)]
    if kind1 == "ZXZ" and kind2 == "YXY":
        return [(2, "YXZ", s + t + 1)]
    if kind1 == "ZXZ" and kind2 == "YXZ":
        return [(4, "ZXZ", t + s + 1), (-4, "YXY", t - s - 1)]
    if kind1 == "YXY" and kind2 == "YXY":
        return [(-2, "YXZ", s - t - 1)]
    if kind1 == "YXY" and kind2 == "YXZ":
        return [(4, "ZXZ", t - s - 1), (-4, "YXY", t + s + 1)]
    return []  # [YXZ, YXZ] vanishes


def _position(key: tuple[int, int]) -> int:
    """Where a canonical key sits among the 3n - 1: (i, t) at 3t + i."""
    i, t = key
    return 3 * t + i


@lru_cache(maxsize=1)
def _stored_keys(n: int) -> list:
    """The 3n - 1 canonical keys, by ``_position``."""
    return [(0, 0), (1, 0)] + [(i, t) for t in range(n - 1) for i in (2, 3, 4)]


@lru_cache(maxsize=1)
def _folded_table(n: int) -> list:
    """The folded structure constants of ring size n, built whole.

    Row p1, column p2 lists the terms of the bracket of the stored keys at
    positions p1 and p2, where key (i, t) sits at 3t + i: one (coeff,
    position) entry per non-vanishing term of ``_pair_bracket`` after
    ``_fold``, the position being that of the folded output key.
    Each coeff carries the whole sign: the structure constant's, the
    fold's and, since X enters as YXY(-1) = -X, one -1 per X factor;
    XN1 enters as YXY(n-1).
    """
    ends = [((-1, "YXY", -1), (1, "YXY", n - 1))[i] if i < 2 else (1, _KINDS[i], t)
            for i, t in _stored_keys(n)]
    return [
        [
            tuple(
                (s1 * s2 * folded[0] * coeff, _position(folded[1]))
                for coeff, kind, offset in _pair_bracket(kind1, t1, kind2, t2)
                if (folded := _fold(n, kind, offset)) is not None
            )
            for s2, kind2, t2 in ends
        ]
        for s1, kind1, t1 in ends
    ]


def orbit_bracket(a: CycleOrbitSum, b: CycleOrbitSum) -> CycleOrbitSum:
    """Commutator of two ring-orbit sums, exact in the coefficients.

    Each output coefficient receives ``coeff * c1 * c2`` for every pair
    term in turn, the additions ``orbit_term`` and ``accumulate`` would
    make; the table's signs are exact flips.  The sums accumulate by key
    position, from 0, and zeros are dropped once, at the end: a sum that
    cancels on the way goes on from a zero where the term-by-term sum
    restarts from 0, and adding a nonzero c to either gives c.  So every
    coefficient equals the term-by-term sum's, a float one bit for bit and
    a complex one up to the sign of a zero part.
    """
    if a.n != b.n:
        raise ValueError("mismatched ring sizes")
    n = a.n
    table = _folded_table(n)
    rhs = [(3 * t + i, c) for (i, t), c in b.terms()]
    acc = [0] * (3 * n - 1)
    for (i, t), c1 in a.terms():
        row = table[3 * t + i]
        for p2, c2 in rhs:
            for coeff, pos in row[p2]:
                acc[pos] += coeff * c1 * c2
    keys = _stored_keys(n)
    return a._new({keys[pos]: c for pos, c in enumerate(acc) if c})


def field_orbit(n: int) -> CycleOrbitSum:
    """The transverse-field generator: the X orbit."""
    return orbit_term(n, "X")


def cut_orbit(n: int) -> CycleOrbitSum:
    """The ring-cut generator: nearest-neighbour ZZ, i.e. ZXZ(0)."""
    return orbit_term(n, "ZXZ", 0)


def cycle_basis(n: int) -> list[CycleOrbitSum]:
    """The 3n-1 orbit sums spanning the ring closure.

    X and XN1, then ZXZ(t), YXY(t), YXZ(t) for t = 0..n-2: ``_stored_keys``.
    """
    return [CycleOrbitSum(n, {key: 1}) for key in _stored_keys(n)]


def cycle_center(n: int) -> tuple[CycleOrbitSum, CycleOrbitSum]:
    """The two central elements of the ring closure, exact integers.

    For offset parity 1, then 0: -X (parity 1 only), plus XN1 when n - 1
    has that parity, plus ZXZ(t) + YXY(t) for every offset t of that
    parity.  Both commute with the two generators (hence everything);
    they have disjoint orbit supports, so they are independent and
    orthogonal.
    """
    center = []
    for parity in (1, 0):
        c = orbit_term(n, "X", coeff=-parity)
        if (n - 1) % 2 == parity:
            c.accumulate(orbit_term(n, "XN1"))
        for t in range(parity, n - 1, 2):
            c.accumulate(orbit_term(n, "ZXZ", t))
            c.accumulate(orbit_term(n, "YXY", t))
        center.append(c)
    return tuple(center)


# ---------------------------------------------------------------------------
# alternating powers of the two generators


def ab_power_coeffs(n: int, kmax: int) -> list[list[int]]:
    """Integer coefficient rows c[k][j] of the alternating powers.

    Row k (1-based) holds the YXZ(j) coefficients of the k-th alternating
    power for j = 0..n-2.  The first power is the plain commutator of the
    two generators, 2*YXZ(0); applying ad_field . ad_cut advances k by
    one and acts on YXZ coordinates as 8 times the sum of the two
    neighbour shifts, with walls at j = -1 and j = n-1 absorbing.
    """
    width = n - 1
    rows = []
    row = [0] * width
    row[0] = 2
    rows.append(row)
    for _ in range(kmax - 1):
        prev = rows[-1]
        nxt = [0] * width
        for j in range(width):
            left = prev[j - 1] if j - 1 >= 0 else 0
            right = prev[j + 1] if j + 1 < width else 0
            nxt[j] = 8 * (left + right)
        rows.append(nxt)
    return rows


def ab_power(n: int, k: int) -> CycleOrbitSum:
    """The k-th alternating power as an exact orbit sum."""
    if k < 1:
        raise ValueError("alternating powers start at k = 1")
    row = ab_power_coeffs(n, k)[k - 1]
    acc = CycleOrbitSum.zero(n)
    for j, c in enumerate(row):
        if c:
            acc.accumulate(orbit_term(n, "YXZ", j, c))
    return acc


def ab_power_trig_coeffs(n: int, k: int) -> list[float]:
    """Trigonometric closed form of the same coefficient row (floats).

    Agreement with the exact recursion is meaningful relative to the
    row's largest coefficient: the boundary entries are exponentially
    smaller than the row maximum, so their absolute error is set by the
    cancellation in this sum, not by their own size.
    """
    out = []
    scale = 2 ** (4 * k - 2) / n
    for j in range(n - 1):
        total = math.fsum(
            math.sin((j + 1) * jp * math.pi / n)
            * math.sin(jp * math.pi / n)
            * math.cos(jp * math.pi / n) ** (k - 1)
            for jp in range(1, n)
        )
        out.append(scale * total)
    return out


def ab_power_expansion_coeffs(n: int) -> list[int]:
    """Exact integers a_1..a_{n-1} with the n-th alternating power equal
    to sum_k a_k times the k-th.

    They come from the characteristic polynomial of the shift map on the
    n-1 YXZ coordinates (8 times the neighbour-sum matrix): with
    d_0 = 1, d_1 = x, d_m = x*d_{m-1} - 64*d_{m-2}, the polynomial is
    d_{n-1} and a_k is minus its x^{k-1} coefficient.
    """
    d_prev = [1]
    d_cur = [0, 1]
    for _ in range(n - 2):
        nxt = [0] + d_cur
        for i, c in enumerate(d_prev):
            nxt[i] -= 64 * c
        d_prev, d_cur = d_cur, nxt
    poly = d_cur
    if len(poly) != n or poly[-1] != 1:
        raise ArithmeticError("characteristic polynomial must be monic of degree n-1")
    return [-poly[k - 1] for k in range(1, n)]


def ab_recursion_identity_ok(n: int) -> bool:
    """Exact check: the n-th alternating power equals its expansion."""
    rows = ab_power_coeffs(n, n)
    coeffs = ab_power_expansion_coeffs(n)
    width = n - 1
    for j in range(width):
        lhs = rows[n - 1][j]
        rhs = sum(coeffs[k - 1] * rows[k - 1][j] for k in range(1, n))
        if lhs != rhs:
            return False
    return True


def ab_recursion_identity_residual(n: int) -> float:
    """Float residual of the same identity via the trig forms, relative
    to the largest coefficient of the n-th power."""
    target = ab_power_trig_coeffs(n, n)
    coeffs = ab_power_expansion_coeffs(n)
    parts = [ab_power_trig_coeffs(n, k) for k in range(1, n)]
    scale = max(max(abs(c) for c in target), 1.0)
    worst = 0.0
    for j in range(n - 1):
        rhs = sum(coeffs[k - 1] * parts[k - 1][j] for k in range(1, n))
        worst = max(worst, abs(target[j] - rhs) / scale)
    return worst


# ---------------------------------------------------------------------------
# spectral bases


class CanonicalTriple(ValueTuple, namedtuple("CanonicalTriple", "k h u v")):
    """Raising/lowering triple for one mode: [h,u]=2u, [h,v]=-2v, [u,v]=h."""

    __slots__ = ()


class Su2Triple(ValueTuple, namedtuple("Su2Triple", "k x y z")):
    """Real rotation triple for one mode, pairwise cyclic brackets."""

    __slots__ = ()


def canonical_basis(n: int) -> list[CanonicalTriple]:
    """The n-1 raising/lowering triples of the ring closure (complex)."""
    out = []
    for k in range(1, n):
        h = CycleOrbitSum.zero(n)
        for j in range(1, n):
            c = -1j / (2 * n) * math.sin(k * j * math.pi / n)
            h.accumulate(orbit_term(n, "YXZ", j - 1, c))
        u = CycleOrbitSum.zero(n)
        v = CycleOrbitSum.zero(n)
        for j in range(n):
            cu_y = -cmath.exp(-1j * k * (j + 1) * math.pi / n) / (4 * n)
            cu_z = -cmath.exp(1j * k * j * math.pi / n) / (4 * n)
            u.accumulate(orbit_term(n, "YXY", j - 1, cu_y))
            u.accumulate(orbit_term(n, "ZXZ", j, cu_z))
            cv_y = cmath.exp(1j * k * (j + 1) * math.pi / n) / (4 * n)
            cv_z = cmath.exp(-1j * k * j * math.pi / n) / (4 * n)
            v.accumulate(orbit_term(n, "YXY", j - 1, cv_y))
            v.accumulate(orbit_term(n, "ZXZ", j, cv_z))
        out.append(CanonicalTriple(k, h, u, v))
    return out


def su2_basis(n: int) -> list[Su2Triple]:
    """The n-1 real rotation triples spanning the commutator ideal."""
    out = []
    for k in range(1, n):
        z = CycleOrbitSum.zero(n)
        for j in range(1, n):
            c = math.sin(k * j * math.pi / n) / (2 * n)
            z.accumulate(orbit_term(n, "YXZ", j - 1, c))
        x = CycleOrbitSum.zero(n)
        y = CycleOrbitSum.zero(n)
        for j in range(n):
            cx_y = -math.sin(k * (j + 1) * math.pi / n) / (2 * n)
            cx_z = math.sin(k * j * math.pi / n) / (2 * n)
            x.accumulate(orbit_term(n, "YXY", j - 1, cx_y))
            x.accumulate(orbit_term(n, "ZXZ", j, cx_z))
            cy_y = math.cos(k * (j + 1) * math.pi / n) / (2 * n)
            cy_z = math.cos(k * j * math.pi / n) / (2 * n)
            y.accumulate(orbit_term(n, "YXY", j - 1, cy_y))
            y.accumulate(orbit_term(n, "ZXZ", j, cy_z))
        out.append(Su2Triple(k, x, y, z))
    return out


def canonical_relation_residuals(n: int) -> dict[str, float]:
    """Worst-case residuals of the raising/lowering bracket relations.

    Nine families: the three in-mode relations and the six cross-mode or
    same-type brackets that must vanish.  Residuals are max-abs orbit
    coefficients of the difference.
    """
    triples = canonical_basis(n)
    worst = dict.fromkeys((
        "h-u-raise", "h-v-lower", "u-v-cartan", "h-h-zero", "u-u-zero",
        "v-v-zero", "cross-h-u", "cross-h-v", "cross-u-v",
    ), 0.0)

    def note(name, vec):
        worst[name] = max(worst[name], vec.max_abs())

    for a in triples:
        for b in triples:
            if a.k == b.k:
                note("h-u-raise", orbit_bracket(a.h, b.u) - b.u.scaled(2))
                note("h-v-lower", orbit_bracket(a.h, b.v) + b.v.scaled(2))
                note("u-v-cartan", orbit_bracket(a.u, b.v) - a.h)
            else:
                note("cross-h-u", orbit_bracket(a.h, b.u))
                note("cross-h-v", orbit_bracket(a.h, b.v))
                note("cross-u-v", orbit_bracket(a.u, b.v))
            note("h-h-zero", orbit_bracket(a.h, b.h))
            note("u-u-zero", orbit_bracket(a.u, b.u))
            note("v-v-zero", orbit_bracket(a.v, b.v))
    return worst


def su2_relation_residuals(n: int) -> dict[str, float]:
    """Worst-case residuals of the cyclic rotation-triple relations."""
    worst = dict.fromkeys(("x-y", "y-z", "z-x", "cross-mode"), 0.0)

    def note(name, vec):
        worst[name] = max(worst[name], vec.max_abs())

    triples = su2_basis(n)
    for a in triples:
        note("x-y", orbit_bracket(a.x, a.y) - a.z.scaled(2))
        note("y-z", orbit_bracket(a.y, a.z) - a.x.scaled(2))
        note("z-x", orbit_bracket(a.z, a.x) - a.y.scaled(2))
        for b in triples:
            if a.k == b.k:
                continue
            for u in (a.x, a.y, a.z):
                for v in (b.x, b.y, b.z):
                    note("cross-mode", orbit_bracket(u, v))
    return worst


def alternating_eigen_residual(n: int) -> float:
    """Residual of the mode elements being eigenvectors of the
    alternating map, with eigenvalue 16 cos(k pi / n)."""
    a = field_orbit(n)
    b = cut_orbit(n)
    worst = 0.0
    for t in canonical_basis(n):
        image = orbit_bracket(a, orbit_bracket(b, t.h))
        lam = 16 * math.cos(t.k * math.pi / n)
        worst = max(worst, (image - t.h.scaled(lam)).max_abs())
    return worst
