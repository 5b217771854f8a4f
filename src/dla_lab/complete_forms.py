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

Every closed form here is stated over two parity families of triples:
those with q and r both odd, and those with q and r both even.
``kn_basis`` and ``kn_ideal_basis`` build explicit bases of the closure
and of its commutator ideal from filters of the two families, as bare
triples and as adjoint images; ``fact_suite`` re-derives the membership
statements behind those constructions, over the same filters, directly
against a computed closure span.
"""

from __future__ import annotations

from itertools import combinations

from .closure import DlaReport, LinearLedger, ad_cut_type, ad_field_type, in_ideal
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


def _yz_parity_families(n: int) -> tuple[list, list]:
    """The in-range triples (p, q, r) with q and r both odd, and those with
    q and r both even, each in (p, q, r) order."""
    odd, even = [], []
    for p in range(n + 1):
        for q in range(n + 1 - p):
            for r in range(q % 2, n + 1 - p - q, 2):
                (odd if q % 2 else even).append((p, q, r))
    return odd, even


def _assemble(n: int, bare: list, field_sources: list, cut_sources: list) -> list:
    """The bare triples, then the ad_field images of ``field_sources``,
    then the ad_cut images of ``cut_sources``."""
    out = [sym_term(n, *t) for t in bare]
    out += [ad_field(sym_term(n, *t)) for t in field_sources]
    out += [ad_cut(sym_term(n, *t)) for t in cut_sources]
    return out


def kn_basis(n: int) -> list[SymOrbitSum]:
    """Explicit basis of the all-to-all closure in type coordinates.

    Bare triples: every triple with q and r both odd, the triples with q
    and r both even and p odd (even n) or p = 1 (odd n), and the squares
    (0, 2, 0), (0, 0, 2), plus (2, 0, 0) for odd n.  Then the ad_field
    and ad_cut images of two sub-families of the odd class, which differ
    with the parity of n.  The list length always equals the closed-form
    dimension.
    """
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    odd, even = _yz_parity_families(n)
    if n % 2 == 0:
        bare = odd + [t for t in even if t[0] % 2 == 1]
        bare += [(0, 2, 0), (0, 0, 2)]
        field_sources = [t for t in odd if t[0] % 2 == 0 and t != (0, 1, 1)]
        cut_sources = [t for t in odd if t[1] == 1 and t[0] % 2 == 1]
    else:
        bare = odd + [t for t in even if t[0] == 1]
        bare += [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
        field_sources = [t for t in odd if t[0] != 1 and t != (0, 1, 1)]
        cut_sources = [
            t for t in odd if t[1] == 1 and t[0] >= 1 and t != (1, 1, n - 2)
        ]
    return _assemble(n, bare, field_sources, cut_sources)


def kn_ideal_basis(n: int) -> list[SymOrbitSum]:
    """Explicit spanning set of the commutator ideal, provably independent.

    The K family is every in-range triple with both q and r odd; the L
    family adjoins their images under ad_field together with the ad_cut
    images of the (p, 1, r) triples with r odd.
    """
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    odd, _ = _yz_parity_families(n)
    return _assemble(n, odd, odd, [t for t in odd if t[1] == 1])


def fact_suite(
    report: DlaReport, spanners: tuple[list[dict], LinearLedger]
) -> dict[str, bool]:
    """Re-derive the membership facts behind the explicit bases.

    Each entry tests a family of triples, a filter of the same two parity
    families the bases are built from, for membership in the computed
    closure span of K_n (or its commutator ideal) and reports whether
    every member passed; the two negative controls must stay outside.
    Ideal membership goes through ``in_ideal``, which reads the [g, g] the
    report ranks once and checks against its center; ``spanners`` is the
    packed ``kn_ideal_basis(n)`` with its ledger.
    """
    n = report.n
    span = report.ledger
    odd, even = _yz_parity_families(n)
    results = {}

    results["odd-yz-pairs-in-span"] = all(span.contains({t: 1}) for t in odd)
    # (0, 1, r) and (1, 1, r), r odd
    chains = [t for t in odd if t[0] <= 1 and t[1] == 1]
    results["y-and-xy-chains-in-ideal"] = all(
        in_ideal(report, {t: 1}) for t in chains
    )
    x_even_z = [t for t in even if t[0] == 1 and t[1] == 0]
    results["x-with-even-z-in-span"] = all(
        span.contains({t: 1}) for t in x_even_z
    )
    if n % 2 == 0:
        fam = [t for t in even if t[0] % 2 == 1]
        results["odd-x-even-rest-in-span"] = all(
            span.contains({t: 1}) for t in fam
        )
    else:
        fam = [t for t in even if t[0] == 1]
        results["x-with-even-pairs-in-span"] = all(
            span.contains({t: 1}) for t in fam
        )
        results["squares-in-span"] = span.contains(
            {(2, 0, 0): 1}
        ) and span.contains({(0, 2, 0): 1})

    vectors, led = spanners
    results["ideal-spanners-independent"] = led.rank == len(vectors)
    results["ideal-spanners-inside-ideal"] = all(
        in_ideal(report, v) for v in vectors
    )

    results["all-x-outside-span"] = not span.contains({(n, 0, 0): 1})
    results["identity-outside-span"] = not span.contains({(0, 0, 0): 1})
    return results
