"""Qubit-permutation symmetries: group actions on Pauli strings, orbits,
Burnside counting, and brute-force graph automorphism groups.

A permutation here acts on qubit *positions*: ``images[j]`` is where qubit
``j`` is sent, so the operator sitting on qubit ``j`` moves to qubit
``images[j]``.  Acting on a Pauli string permutes both masks identically,
hence preserves the letter counts (the type) of the string.
"""

from __future__ import annotations

from dataclasses import dataclass

from .paulis import PauliString, PauliVector

# Explicit group enumeration is refused beyond this many elements (10!).
ENUMERATION_CAP = 3_628_800


@dataclass(frozen=True, slots=True)
class Permutation:
    """A bijection of [0, n); images[j] is the image of j."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("not a bijection")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self * other)(j) = self(other(j))."""
        return Permutation(tuple(self.images[i] for i in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for j, i in enumerate(self.images):
            inv[i] = j
        return Permutation(tuple(inv))

    def cycle_count(self) -> int:
        seen = [False] * self.n
        cycles = 0
        for start in range(self.n):
            if not seen[start]:
                cycles += 1
                j = start
                while not seen[j]:
                    seen[j] = True
                    j = self.images[j]
        return cycles


def apply_perm(perm: Permutation, p: PauliString) -> PauliString:
    """Push a Pauli string forward: qubit j's letter moves to perm.images[j]."""
    if perm.n != p.n:
        raise ValueError(f"sizes differ: {perm.n} != {p.n}")
    x = z = 0
    xm, zm = p.x_mask, p.z_mask
    for j, i in enumerate(perm.images):
        x |= ((xm >> j) & 1) << i
        z |= ((zm >> j) & 1) << i
    return PauliString(p.n, x, z)


def apply_perm_vector(perm: Permutation, v: PauliVector) -> PauliVector:
    return PauliVector(v.n, {apply_perm(perm, p): c for p, c in v.terms()})


class GroupTooLarge(ValueError):
    """Raised when explicit enumeration would exceed the configured cap."""


class PermGroup:
    """Permutation group given by generators; elements enumerated lazily.

    Enumeration is by breadth-first closure over the generators and is
    refused above ``cap`` elements so that nobody accidentally asks for
    all of S_40.
    """

    def __init__(self, n: int, generators: list[Permutation], cap: int = ENUMERATION_CAP):
        self.n = n
        ident = Permutation.identity(n)
        gens = [g for g in generators if g.images != ident.images]
        for g in gens:
            if g.n != n:
                raise ValueError("generator size mismatch")
        self.generators = gens
        self.cap = cap
        self._elements: list[Permutation] | None = None

    @classmethod
    def trivial(cls, n: int) -> "PermGroup":
        return cls(n, [])

    @classmethod
    def symmetric(cls, n: int) -> "PermGroup":
        if n < 2:
            return cls.trivial(n)
        swap = Permutation((1, 0) + tuple(range(2, n)))
        cyc = Permutation(tuple((j + 1) % n for j in range(n)))
        return cls(n, [swap, cyc])

    @classmethod
    def dihedral(cls, n: int) -> "PermGroup":
        """Rotations and reflections of qubits arranged on a ring."""
        rot = Permutation(tuple((j + 1) % n for j in range(n)))
        refl = Permutation(tuple((-j) % n for j in range(n)))
        return cls(n, [rot, refl])

    @classmethod
    def reversal(cls, n: int) -> "PermGroup":
        """{identity, j -> n-1-j}, the automorphisms of a path."""
        return cls(n, [Permutation(tuple(n - 1 - j for j in range(n)))])

    @classmethod
    def from_elements(cls, n: int, elements: list[Permutation]) -> "PermGroup":
        g = cls(n, list(elements))
        ident = Permutation.identity(n)
        elems = list(elements)
        if ident not in elems:
            elems = [ident] + elems
        g._elements = elems
        return g

    def elements(self) -> list[Permutation]:
        """All group elements (identity first, then BFS discovery order)."""
        if self._elements is None:
            ident = Permutation.identity(self.n)
            seen = {ident.images}
            order = [ident]
            frontier = [ident]
            while frontier:
                nxt = []
                for e in frontier:
                    for g in self.generators:
                        h = g.compose(e)
                        if h.images not in seen:
                            if len(seen) >= self.cap:
                                raise GroupTooLarge(
                                    f"group exceeds enumeration cap {self.cap}"
                                )
                            seen.add(h.images)
                            order.append(h)
                            nxt.append(h)
                frontier = nxt
            self._elements = order
        return self._elements

    def order(self) -> int:
        return len(self.elements())

    def __iter__(self):
        return iter(self.elements())


@dataclass(frozen=True, slots=True)
class Orbit:
    """An orbit of Pauli strings: canonical representative and its size.

    The representative is the lexicographic minimum of (x_mask, z_mask)
    over the group images, giving deterministic deduplication.
    """

    representative: PauliString
    size: int


def orbit_strings(p: PauliString, group: PermGroup) -> list[PauliString]:
    """Distinct images of p under the group, sorted by (x_mask, z_mask)."""
    images = {apply_perm(g, p) for g in group}
    return sorted(images, key=PauliString.key)


def orbit_of(p: PauliString, group: PermGroup) -> Orbit:
    strings = orbit_strings(p, group)
    return Orbit(strings[0], len(strings))


def orbit_sum(p: PauliString, group: PermGroup) -> PauliVector:
    """Sum of the distinct images of i*p, each with coefficient 1.

    Group multiplicity is divided out: each distinct string appears once
    regardless of its stabilizer, which keeps ring and complete-graph
    orbit objects on the same normalization.
    """
    return PauliVector(p.n, {q: 1 for q in orbit_strings(p, group)})


def orbit_count(n: int, group: PermGroup) -> int:
    """Number of Pauli-string orbits, by Burnside's lemma.

    Averages 4^(number of index cycles) over the group; exact integer.
    """
    elements = group.elements()
    total = sum(4 ** g.cycle_count() for g in elements)
    count, rem = divmod(total, len(elements))
    if rem:
        raise ArithmeticError("Burnside average must be an integer")
    return count


def compress(v: PauliVector, group: PermGroup) -> dict[PauliString, object]:
    """Orbit coordinates of a group-invariant vector.

    Returns {canonical representative -> coefficient}.  Raises if v is not
    constant on some orbit (i.e. not group-invariant), since compression
    would silently lose information there.
    """
    out: dict[PauliString, object] = {}
    remaining = dict(v.terms())
    while remaining:
        p, c = next(iter(remaining.items()))
        strings = orbit_strings(p, group)
        for q in strings:
            if remaining.pop(q, None) != c:
                raise ValueError("vector is not invariant under the group")
        out[strings[0]] = c
    return out


def decompress(
    compressed: dict[PauliString, object], group: PermGroup, n: int
) -> PauliVector:
    """Inverse of :func:`compress`: expand each orbit back to strings."""
    entries: dict[PauliString, object] = {}
    for rep, c in compressed.items():
        for q in orbit_strings(rep, group):
            entries[q] = c
    return PauliVector(n, entries)


def graph_automorphisms(graph, cap: int = 10) -> PermGroup:
    """Automorphism group of a graph, by backtracking over vertex maps.

    `graph` needs attributes ``n`` and ``edges`` (set of sorted pairs).
    Candidate images are pruned by degree and by adjacency consistency
    with already-assigned vertices.  Brute force only: refuses n > cap.
    """
    n = graph.n
    if n > cap:
        raise GroupTooLarge(f"automorphism search capped at n={cap}")
    adj = [set() for _ in range(n)]
    for j, k in graph.edges:
        adj[j].add(k)
        adj[k].add(j)
    degree = [len(a) for a in adj]

    auts: list[Permutation] = []
    assignment = [-1] * n
    used = [False] * n

    def extend(j: int):
        if j == n:
            auts.append(Permutation(tuple(assignment)))
            return
        for img in range(n):
            if used[img] or degree[img] != degree[j]:
                continue
            ok = True
            for k in range(j):
                if (k in adj[j]) != (assignment[k] in adj[img]):
                    ok = False
                    break
            if ok:
                assignment[j] = img
                used[img] = True
                extend(j + 1)
                used[img] = False
                assignment[j] = -1

    extend(0)
    return PermGroup.from_elements(n, auts)
