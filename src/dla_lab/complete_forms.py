"""Closed forms for the complete-graph (all-to-all) algebra.

Everything all-to-all lives in type coordinates: the symmetric group on
the qubits acts on Pauli strings, and an orbit is fixed by the triple
(p, q, r) counting X, Y and Z tensor factors (the rest identity).  A
``SymOrbitSum`` is the shared sparse vector
(:class:`~dla_lab.paulis.SparseVector`) over those triples; expanding one
back to Pauli strings assigns unit weight to every placement.

The two circuit generators act on type coordinates by the closed-form
adjoint maps ``ad_field`` (the X orbit, preserving p and q+r) and
``ad_cut`` (the all-pairs ZZ orbit), shared with the closure engine.

``kn_basis`` and ``kn_ideal_basis`` build explicit bases of the closure
and of its commutator ideal out of index families of triples plus
adjoint images of some of them; ``fact_suite`` re-derives the membership
statements behind those constructions directly against a computed
closure span.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .closure import (
    DlaReport,
    LinearLedger,
    ad_cut_type,
    ad_field_type,
    generate_dla_orbit_compressed,
    ideal_ledger,
    span_ledger,
)
from .graphs import Graph
from .paulis import PauliString, PauliVector, SparseVector

EXPANSION_VERTEX_CAP = 8

DECOMPOSITION_CONJECTURE = (
    "the commutator ideal may decompose as a direct sum of su(floor((j+1)/2)+1)"
    " blocks; unverified"
)


class SymOrbitSum(SparseVector):
    """Sparse sum of symmetric-group orbits, keyed by (p, q, r)."""

    __slots__ = ()

    def __init__(self, n: int, coeffs: dict | None = None):
        if n < 2:
            raise ValueError("type coordinates need n >= 2")
        super().__init__(n, coeffs)

    def _check_key(self, key: tuple[int, int, int]) -> None:
        p, q, r = key
        if p < 0 or q < 0 or r < 0 or p + q + r > self.n:
            raise ValueError(f"type {key} out of range for n={self.n}")

    def terms(self) -> list:
        return sorted(self._coeffs.items())

    def coeff(self, p: int, q: int, r: int):
        return self._coeffs.get((p, q, r), 0)

    def to_dict(self) -> dict:
        return dict(self._coeffs)

    def expand(self) -> PauliVector:
        """All placements of each triple, unit weight per string.

        Exponential in n; capped at EXPANSION_VERTEX_CAP vertices.
        """
        n = self.n
        if n > EXPANSION_VERTEX_CAP:
            raise ValueError(
                f"type expansion capped at n={EXPANSION_VERTEX_CAP}"
            )
        acc = PauliVector(n)
        for (p, q, r), c in self.terms():
            strings = _type_strings(n, p, q, r)
            acc.accumulate(PauliVector(n, dict.fromkeys(strings, c)))
        return acc


def _type_strings(n: int, p: int, q: int, r: int) -> list[PauliString]:
    out = []
    everyone = range(n)
    for xs in combinations(everyone, p):
        taken = set(xs)
        rest1 = [i for i in everyone if i not in taken]
        for ys in combinations(rest1, q):
            taken2 = taken | set(ys)
            rest2 = [i for i in rest1 if i not in taken2]
            for zs in combinations(rest2, r):
                x_mask = 0
                z_mask = 0
                for i in xs:
                    x_mask |= 1 << i
                for i in ys:
                    x_mask |= 1 << i
                    z_mask |= 1 << i
                for i in zs:
                    z_mask |= 1 << i
                out.append(PauliString(n, x_mask, z_mask))
    return out


def sym_term(n: int, p: int, q: int, r: int, coeff=1) -> SymOrbitSum:
    return SymOrbitSum(n, {(p, q, r): coeff})


def ad_field(v: SymOrbitSum) -> SymOrbitSum:
    """Bracket with the single-X orbit, in type coordinates."""
    return SymOrbitSum(v.n, ad_field_type(v.n, v.to_dict()))


def ad_cut(v: SymOrbitSum) -> SymOrbitSum:
    """Bracket with the all-pairs ZZ orbit, in type coordinates."""
    return SymOrbitSum(v.n, ad_cut_type(v.n, v.to_dict()))


def _types_in_range(n: int) -> list[tuple[int, int, int]]:
    return [
        (p, q, r)
        for p in range(n + 1)
        for q in range(n + 1 - p)
        for r in range(n + 1 - p - q)
    ]


def kn_basis(n: int) -> list[SymOrbitSum]:
    """Explicit basis of the all-to-all closure in type coordinates.

    Built from families of bare triples plus adjoint images of two of the
    families; the even and odd vertex counts use different families.  The
    list length always equals the closed-form dimension.
    """
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    types = _types_in_range(n)
    out = []
    if n % 2 == 0:
        j1 = [
            t
            for t in types
            if t[0] % 2 == 0 and t[1] % 2 == 1 and t[2] % 2 == 1
            and t != (0, 1, 1)
        ]
        j2 = [
            t
            for t in types
            if t[1] == 1 and t[0] % 2 == 1 and t[2] % 2 == 1
        ]
        j3 = [
            t
            for t in types
            if t[0] % 2 == 1 and t[1] % 2 == 1 and t[2] % 2 == 1
            and t[1] >= 3
        ]
        j4 = [
            t
            for t in types
            if t[0] % 2 == 1 and t[1] % 2 == 0 and t[2] % 2 == 0
        ]
        j5 = [(0, 1, 1), (0, 2, 0), (0, 0, 2)]
        for t in j1 + j2 + j3 + j4 + j5:
            out.append(sym_term(n, *t))
        for t in j1:
            out.append(ad_field(sym_term(n, *t)))
        for t in j2:
            out.append(ad_cut(sym_term(n, *t)))
    else:
        q_bare = [t for t in types if t[1] % 2 == 1 and t[2] % 2 == 1]
        q_bare += [
            t
            for t in types
            if t[0] == 1 and t[1] % 2 == 0 and t[2] % 2 == 0
        ]
        q_bare += [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
        u1 = [
            t
            for t in types
            if t[1] % 2 == 1 and t[2] % 2 == 1 and t[0] != 1
            and t != (0, 1, 1)
        ]
        u2 = [
            t
            for t in types
            if t[1] == 1 and t[2] % 2 == 1 and t[0] >= 1
            and t != (1, 1, n - 2)
        ]
        for t in q_bare:
            out.append(sym_term(n, *t))
        for t in u1:
            out.append(ad_field(sym_term(n, *t)))
        for t in u2:
            out.append(ad_cut(sym_term(n, *t)))
    return out


def kn_ideal_basis(n: int) -> list[SymOrbitSum]:
    """Explicit spanning set of the commutator ideal, provably independent.

    The K family is every in-range triple with both q and r odd; the L
    family adjoins their images under ad_field together with the ad_cut
    images of the (p, 1, r) triples with r odd.
    """
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    types = _types_in_range(n)
    k_family = [t for t in types if t[1] % 2 == 1 and t[2] % 2 == 1]
    cut_sources = [t for t in types if t[1] == 1 and t[2] % 2 == 1]
    out = [sym_term(n, *t) for t in k_family]
    out += [ad_field(sym_term(n, *t)) for t in k_family]
    out += [ad_cut(sym_term(n, *t)) for t in cut_sources]
    return out


def fact_suite(
    n: int,
    report: DlaReport | None = None,
    ideal: LinearLedger | None = None,
    spanners: tuple[list[dict], LinearLedger] | None = None,
) -> dict[str, bool]:
    """Re-derive the membership facts behind the explicit bases.

    Each entry tests a family of triples for membership in the computed
    closure span (or its commutator ideal) and reports whether every
    member passed; the two negative controls must stay outside.  ``ideal``
    (the report's commutator-ideal ledger) and ``spanners`` (the packed
    ``kn_ideal_basis(n)`` and its ledger) are built here when not given.
    """
    if report is None:
        report = generate_dla_orbit_compressed(Graph.complete(n))
    span = report.ledger
    if ideal is None:
        ideal = ideal_ledger(report)
    if spanners is None:
        vectors = [v.to_dict() for v in kn_ideal_basis(n)]
        spanners = vectors, span_ledger(vectors)
    types = _types_in_range(n)
    results = {}

    mixed = [t for t in types if t[1] % 2 == 1 and t[2] % 2 == 1]
    results["odd-yz-pairs-in-span"] = all(
        span.contains({t: 1}) for t in mixed
    )
    chains = [
        t for t in mixed if t[0] <= 1 and t[1] == 1
    ]  # (0,1,r) and (1,1,r), r odd
    results["y-and-xy-chains-in-ideal"] = all(
        ideal.contains({t: 1}) for t in chains
    )
    x_even_z = [t for t in types if t[0] == 1 and t[1] == 0 and t[2] % 2 == 0]
    results["x-with-even-z-in-span"] = all(
        span.contains({t: 1}) for t in x_even_z
    )
    if n % 2 == 0:
        fam = [
            t
            for t in types
            if t[0] % 2 == 1 and t[1] % 2 == 0 and t[2] % 2 == 0
        ]
        results["odd-x-even-rest-in-span"] = all(
            span.contains({t: 1}) for t in fam
        )
    else:
        fam = [
            t
            for t in types
            if t[0] == 1 and t[1] % 2 == 0 and t[2] % 2 == 0
        ]
        results["x-with-even-pairs-in-span"] = all(
            span.contains({t: 1}) for t in fam
        )
        results["squares-in-span"] = span.contains(
            {(2, 0, 0): 1}
        ) and span.contains({(0, 2, 0): 1})

    vectors, led = spanners
    results["ideal-spanners-independent"] = led.rank == len(vectors)
    results["ideal-spanners-inside-ideal"] = all(
        ideal.contains(v) for v in vectors
    )

    results["all-x-outside-span"] = not span.contains({(n, 0, 0): 1})
    results["identity-outside-span"] = not span.contains({(0, 0, 0): 1})
    return results
