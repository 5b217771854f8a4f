"""Qubit-permutation symmetries: group actions on Pauli strings, orbits,
Burnside counting, and brute-force graph automorphism groups.

A permutation here acts on qubit *positions*: ``images[j]`` is where qubit
``j`` is sent, so the operator sitting on qubit ``j`` moves to qubit
``images[j]``.  Acting on a Pauli string permutes both masks identically,
hence preserves the letter counts (the type) of the string.

``PackedOrbits`` is the one orbit map: built from any ``PermGroup``, it
canonicalises packed ``(x_mask << n) | z_mask`` keys.  The orbit-compressed
closure, ``PackedOrbits.strings`` and ``compress``/``decompress`` all go
through it, and ``apply_perm`` shares its bit-permuting routine.
``graph_group`` alone picks the group of a graph.
"""

from __future__ import annotations

from collections import namedtuple

from .paulis import PauliString, PauliVector, ValueTuple, pack_pauli, unpack_pauli

# Explicit group enumeration is refused beyond this many elements (10!).
ENUMERATION_CAP = 3_628_800

# The brute-force automorphism search is refused beyond this many vertices.
AUT_VERTEX_CAP = 10


class Permutation(ValueTuple, namedtuple("Permutation", "images")):
    """A bijection of [0, n); images[j] is the image of j."""

    __slots__ = ()

    def __new__(cls, images: tuple[int, ...]):
        if sorted(images) != list(range(len(images))):
            raise ValueError("not a bijection")
        return tuple.__new__(cls, (images,))

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self * other)(j) = self(other(j))."""
        return Permutation(tuple(self.images[i] for i in other.images))

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


def _bit_images(perm: Permutation) -> list[int]:
    """Image, as a one-bit mask, of each bit of a packed ``(x << n) | z`` key."""
    n = perm.n
    return [1 << i for i in perm.images] + [1 << (n + i) for i in perm.images]


def _set_bits(key: int) -> list[int]:
    """Positions of the set bits of key, lowest first."""
    out = []
    while key:
        low = key & -key
        out.append(low.bit_length() - 1)
        key ^= low
    return out


def _permute_bits(bits: list[int], positions: list[int]) -> int:
    """The key whose set bits are the images of ``positions``.

    The one bit-permuting routine.  The images are distinct bits, so their
    sum is their OR.
    """
    return sum(map(bits.__getitem__, positions))


def apply_perm(perm: Permutation, p: PauliString) -> PauliString:
    """Push a Pauli string forward: qubit j's letter moves to perm.images[j]."""
    if perm.n != p.n:
        raise ValueError(f"sizes differ: {perm.n} != {p.n}")
    key = _permute_bits(_bit_images(perm), _set_bits(pack_pauli(p)))
    return unpack_pauli(p.n, key)


class GroupTooLarge(ValueError):
    """Raised when explicit enumeration would exceed the configured cap."""


class PermGroup:
    """Permutation group given by generators; elements enumerated lazily.

    Enumeration is by breadth-first closure over the generators and is
    refused above ``ENUMERATION_CAP`` elements so that nobody accidentally
    asks for all of S_40.
    """

    def __init__(self, n: int, generators: list[Permutation]):
        self.n = n
        ident = Permutation.identity(n)
        gens = [g for g in generators if g.images != ident.images]
        for g in gens:
            if g.n != n:
                raise ValueError("generator size mismatch")
        self.generators = gens
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
                            if len(seen) >= ENUMERATION_CAP:
                                raise GroupTooLarge(
                                    f"group exceeds enumeration cap {ENUMERATION_CAP}"
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


class PackedOrbits:
    """Orbits of packed Pauli keys ``(x_mask << n) | z_mask`` under a group.

    Holds, per group element, the image of each of the 2n key bits; a key
    is mapped through its set bits only, found once for all elements.  Every
    orbit met is cached under each of its members.
    """

    def __init__(self, group: PermGroup):
        self.n = group.n
        self._tables = [_bit_images(g) for g in group]
        self._cache: dict[int, tuple[int, int, tuple[int, ...]]] = {}

    def orbit(self, key: int) -> tuple[int, int, tuple[int, ...]]:
        """(representative, size, sorted members) of the orbit through key.

        The representative is the smallest member, which is the
        lexicographic minimum of (x_mask, z_mask) over the orbit.
        """
        got = self._cache.get(key)
        if got is None:
            positions = _set_bits(key)
            members = sorted({_permute_bits(t, positions) for t in self._tables})
            got = (members[0], len(members), tuple(members))
            self._cache.update(dict.fromkeys(members, got))
        return got

    def strings(self, p: PauliString) -> list[PauliString]:
        """Distinct images of p, sorted by (x_mask, z_mask)."""
        if p.n != self.n:
            raise ValueError(f"sizes differ: {self.n} != {p.n}")
        return [unpack_pauli(self.n, k) for k in self.orbit(pack_pauli(p))[2]]


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
    orbits = PackedOrbits(group)
    out: dict[PauliString, object] = {}
    remaining = dict(v.terms())
    while remaining:
        p, c = next(iter(remaining.items()))
        strings = orbits.strings(p)
        for q in strings:
            if remaining.pop(q, None) != c:
                raise ValueError("vector is not invariant under the group")
        out[strings[0]] = c
    return out


def decompress(
    compressed: dict[PauliString, object], group: PermGroup, n: int
) -> PauliVector:
    """Inverse of :func:`compress`: expand each orbit back to strings."""
    orbits = PackedOrbits(group)
    entries: dict[PauliString, object] = {}
    for rep, c in compressed.items():
        for q in orbits.strings(rep):
            entries[q] = c
    return PauliVector(n, entries)


def graph_automorphisms(graph) -> PermGroup:
    """Automorphism group of a graph, by backtracking over vertex maps.

    `graph` needs attributes ``n`` and ``edges`` (set of sorted pairs).
    Candidate images are pruned by degree and by adjacency consistency
    with already-assigned vertices.  Brute force only: refuses
    n > AUT_VERTEX_CAP.
    """
    n = graph.n
    if n > AUT_VERTEX_CAP:
        raise GroupTooLarge(f"automorphism search capped at n={AUT_VERTEX_CAP}")
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
    # images are tried in increasing order, so the identity is found first
    group = PermGroup(n, auts)
    group._elements = auts
    return group


def graph_group(graph) -> PermGroup:
    """The group of a graph (``n``, ``edges``, ``family``): its family's, if
    that maps the edges onto themselves (ValueError if not), else the
    automorphisms found under ``AUT_VERTEX_CAP``.  S_n is never enumerated."""
    named = {"cycle": PermGroup.dihedral, "path": PermGroup.reversal,
             "complete": PermGroup.symmetric}.get(graph.family)
    if named is None:
        return graph_automorphisms(graph)
    group = named(graph.n)
    for g in group.generators:
        im = g.images
        if {tuple(sorted((im[j], im[k]))) for j, k in graph.edges} != graph.edges:
            raise ValueError(f"the edges contradict the {graph.family!r} label")
    return group
