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
flips the sign of YXZ.  ``orbit_term`` and the per-ring-size folded
structure-constant table behind ``orbit_bracket`` apply these
reductions, so stored sums only ever hold canonical offsets.

A ``CycleOrbitSum`` is the package's shared sparse vector
(:class:`~dla_lab.paulis.SparseVector`) keyed by ``(kind index, offset)``
int tuples, the index taken in the order X, XN1, ZXZ, YXY, YXZ (X and XN1
carry offset 0), so ``terms()`` is the sorted item list.  ``orbit_term``
and ``coeff`` take kind names.  Coefficients are duck-typed: ints and
Fractions for structural work, floats or complex for the trigonometric
bases.  Builders grow their sums in place with ``accumulate``.

Each ring orbit is an orbit of the dihedral group, so the one orbit map
``symmetry.PackedOrbits`` of ``PermGroup.dihedral(n)`` names and lists it:
``compressed`` keys a sum by packed canonical representatives, the
coordinates of the orbit-compressed ring closure, and ``expand`` lists
each orbit's members from the same map.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import cache

from .paulis import PauliVector, SparseVector, ValueTuple, dict_to_pauli_vector
from .symmetry import PackedOrbits, PermGroup

_KINDS = ("X", "XN1", "ZXZ", "YXY", "YXZ")
_KIND_INDEX = {k: i for i, k in enumerate(_KINDS)}


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
        orbits = _ring_orbits(self.n)
        return {orbits.orbit(_orbit_member(self.n, key))[0]: c for key, c in self.terms()}

    def expand(self) -> PauliVector:
        """Expansion into raw Pauli strings, one unit per orbit member."""
        orbits = _ring_orbits(self.n)
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


@cache
def _ring_orbits(n: int) -> PackedOrbits:
    """The orbit map of ring size n: a ring orbit is a dihedral orbit."""
    return PackedOrbits(PermGroup.dihedral(n))


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

# ``_folded_table(n)`` holds the closed-form structure constants of
# ``_pair_bracket`` with ``_fold`` applied, one table per ring size n.


def _pair_bracket(n: int, kind1: str, s: int, kind2: str, t: int) -> list:
    """Structure constants of one orbit pair, as (coeff, kind, offset)."""
    if kind1 == "YXY" and kind2 == "YXY":
        return [(-2, "YXZ", s - t - 1)]
    if kind1 == "YXY" and kind2 == "ZXZ":
        return [(-2, "YXZ", s + t + 1)]
    if kind1 == "ZXZ" and kind2 == "YXY":
        return [(2, "YXZ", s + t + 1)]
    if kind1 == "ZXZ" and kind2 == "ZXZ":
        return [(2, "YXZ", s - t - 1)]
    if kind1 == "YXY" and kind2 == "YXZ":
        return [(4, "ZXZ", t - s - 1), (-4, "YXY", t + s + 1)]
    if kind1 == "ZXZ" and kind2 == "YXZ":
        return [(4, "ZXZ", t + s + 1), (-4, "YXY", t - s - 1)]
    if kind1 == "YXZ" and kind2 == "YXY":
        return [(4, "YXY", t + s + 1), (-4, "ZXZ", s - t - 1)]
    if kind1 == "YXZ" and kind2 == "ZXZ":
        return [(4, "YXY", s - t - 1), (-4, "ZXZ", t + s + 1)]
    return []  # [YXZ, YXZ] vanishes


def _as_endpoint_terms(v: CycleOrbitSum) -> list:
    """Rewrite a sum over {X, XN1} into endpoint families for bracketing."""
    n = v.n
    out = []
    for (i, offset), c in v.terms():
        if i == 0:  # X
            out.append(("YXY", -1, -c))
        elif i == 1:  # XN1
            out.append(("YXY", n - 1, c))
        else:
            out.append((_KINDS[i], offset, c))
    return out


@cache
def _folded_table(n: int) -> dict:
    """The folded structure constants of ring size n, filled on first use.

    Maps (kind1, s, kind2, t) to a tuple of (coeff, sign, key) entries,
    one per non-vanishing term of ``_pair_bracket`` after ``_fold``.
    """
    return {}


def _folded_pair(n: int, kind1: str, s: int, kind2: str, t: int) -> tuple:
    """Fill and return one entry of ``_folded_table(n)``."""
    entries = []
    for coeff, kind, offset in _pair_bracket(n, kind1, s, kind2, t):
        folded = _fold(n, kind, offset)
        if folded is not None:
            entries.append((coeff, *folded))
    _folded_table(n)[kind1, s, kind2, t] = entries = tuple(entries)
    return entries


def orbit_bracket(a: CycleOrbitSum, b: CycleOrbitSum) -> CycleOrbitSum:
    """Commutator of two ring-orbit sums, exact in the coefficients.

    Each output coefficient receives ``sign * (coeff * c1 * c2)`` for
    every pair term in turn, the additions ``orbit_term`` and
    ``accumulate`` would make, so float and complex results are
    bit-for-bit those of the term-by-term sum.
    """
    if a.n != b.n:
        raise ValueError("mismatched ring sizes")
    n = a.n
    pairs = _folded_table(n)
    rhs = _as_endpoint_terms(b)
    acc = {}
    for kind1, s, c1 in _as_endpoint_terms(a):
        for kind2, t, c2 in rhs:
            entries = pairs.get((kind1, s, kind2, t))
            if entries is None:
                entries = _folded_pair(n, kind1, s, kind2, t)
            for coeff, sign, key in entries:
                c = coeff * c1 * c2
                if c == 0:
                    continue
                total = acc.get(key, 0) + sign * c
                if total == 0:
                    acc.pop(key, None)
                else:
                    acc[key] = total
    return CycleOrbitSum(n, acc)


def field_orbit(n: int) -> CycleOrbitSum:
    """The transverse-field generator: the X orbit."""
    return orbit_term(n, "X")


def cut_orbit(n: int) -> CycleOrbitSum:
    """The ring-cut generator: nearest-neighbour ZZ, i.e. ZXZ(0)."""
    return orbit_term(n, "ZXZ", 0)


def cycle_basis(n: int) -> list[CycleOrbitSum]:
    """The 3n-1 orbit sums spanning the ring closure.

    X and XN1, then ZXZ(t), YXY(t), YXZ(t) for t = 0..n-2.
    """
    out = [orbit_term(n, "X"), orbit_term(n, "XN1")]
    for t in range(n - 1):
        out.append(orbit_term(n, "ZXZ", t))
        out.append(orbit_term(n, "YXY", t))
        out.append(orbit_term(n, "YXZ", t))
    return out


def cycle_center(n: int) -> tuple[CycleOrbitSum, CycleOrbitSum]:
    """The two central elements of the ring closure, exact integers.

    Both commute with the two generators (hence everything); they have
    disjoint orbit supports, so they are independent and orthogonal.
    """
    if n % 2 == 1:
        c1 = orbit_term(n, "X", coeff=-1)
        for t in range(1, (n - 1) // 2 + 1):
            c1.accumulate(orbit_term(n, "ZXZ", 2 * t - 1))
            c1.accumulate(orbit_term(n, "YXY", 2 * t - 1))
        c2 = orbit_term(n, "XN1")
        for t in range((n - 3) // 2 + 1):
            c2.accumulate(orbit_term(n, "ZXZ", 2 * t))
            c2.accumulate(orbit_term(n, "YXY", 2 * t))
    else:
        c1 = orbit_term(n, "XN1") - orbit_term(n, "X")
        for t in range(1, (n - 2) // 2 + 1):
            c1.accumulate(orbit_term(n, "ZXZ", 2 * t - 1))
            c1.accumulate(orbit_term(n, "YXY", 2 * t - 1))
        c2 = CycleOrbitSum.zero(n)
        for t in range((n - 2) // 2 + 1):
            c2.accumulate(orbit_term(n, "ZXZ", 2 * t))
            c2.accumulate(orbit_term(n, "YXY", 2 * t))
    return c1, c2


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
    worst = {
        "h-u-raise": 0.0,
        "h-v-lower": 0.0,
        "u-v-cartan": 0.0,
        "h-h-zero": 0.0,
        "u-u-zero": 0.0,
        "v-v-zero": 0.0,
        "cross-h-u": 0.0,
        "cross-h-v": 0.0,
        "cross-u-v": 0.0,
    }
    for a in triples:
        for b in triples:
            if a.k == b.k:
                worst["h-u-raise"] = max(
                    worst["h-u-raise"],
                    (orbit_bracket(a.h, b.u) - b.u.scaled(2)).max_abs(),
                )
                worst["h-v-lower"] = max(
                    worst["h-v-lower"],
                    (orbit_bracket(a.h, b.v) + b.v.scaled(2)).max_abs(),
                )
                worst["u-v-cartan"] = max(
                    worst["u-v-cartan"],
                    (orbit_bracket(a.u, b.v) - a.h).max_abs(),
                )
            else:
                worst["cross-h-u"] = max(
                    worst["cross-h-u"], orbit_bracket(a.h, b.u).max_abs()
                )
                worst["cross-h-v"] = max(
                    worst["cross-h-v"], orbit_bracket(a.h, b.v).max_abs()
                )
                worst["cross-u-v"] = max(
                    worst["cross-u-v"], orbit_bracket(a.u, b.v).max_abs()
                )
            worst["h-h-zero"] = max(
                worst["h-h-zero"], orbit_bracket(a.h, b.h).max_abs()
            )
            worst["u-u-zero"] = max(
                worst["u-u-zero"], orbit_bracket(a.u, b.u).max_abs()
            )
            worst["v-v-zero"] = max(
                worst["v-v-zero"], orbit_bracket(a.v, b.v).max_abs()
            )
    return worst


def su2_relation_residuals(n: int) -> dict[str, float]:
    """Worst-case residuals of the cyclic rotation-triple relations."""
    worst = {"x-y": 0.0, "y-z": 0.0, "z-x": 0.0, "cross-mode": 0.0}
    triples = su2_basis(n)
    for a in triples:
        worst["x-y"] = max(
            worst["x-y"], (orbit_bracket(a.x, a.y) - a.z.scaled(2)).max_abs()
        )
        worst["y-z"] = max(
            worst["y-z"], (orbit_bracket(a.y, a.z) - a.x.scaled(2)).max_abs()
        )
        worst["z-x"] = max(
            worst["z-x"], (orbit_bracket(a.z, a.x) - a.y.scaled(2)).max_abs()
        )
        for b in triples:
            if a.k == b.k:
                continue
            for u in (a.x, a.y, a.z):
                for v in (b.x, b.y, b.z):
                    worst["cross-mode"] = max(
                        worst["cross-mode"], orbit_bracket(u, v).max_abs()
                    )
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
