"""Qubit-permutation symmetries: group actions on Pauli strings, orbits,
Burnside counting, and brute-force graph automorphism groups.

A permutation here acts on qubit *positions*: ``images[j]`` is where qubit
``j`` is sent, so the operator sitting on qubit ``j`` moves to qubit
``images[j]``.  Acting on a Pauli string permutes both masks identically,
hence preserves the letter counts (the type) of the string.

``PackedOrbits`` is the one orbit map, built once per group, on first use,
as ``PermGroup.orbits``: it canonicalises packed ``(x_mask << n) | z_mask``
keys from one column per key bit, the bit's images under every element.
The orbit-compressed closure and the ring orbits of ``cycle_forms`` read
it from ``graph_group``, which alone picks a graph's group, keeping one.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache

from .paulis import ValueTuple

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
        """self after other: (self * other)(j) = self(other(j)).

        A product of two bijections of [0, n) is one, so only the sizes
        are checked, not the images."""
        if len(self.images) != len(other.images):
            raise ValueError("permutation size mismatch")
        return tuple.__new__(Permutation, (tuple(self.images[i] for i in other.images),))

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


def _set_bits(key: int) -> list[int]:
    """Positions of the set bits of key, lowest first."""
    out = []
    while key:
        low = key & -key
        out.append(low.bit_length() - 1)
        key ^= low
    return out


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

    def __iter__(self):
        return iter(self.elements())

    @cached_property
    def orbits(self) -> "PackedOrbits":
        """The group's orbit map, built on first use and kept with it."""
        return PackedOrbits(self)


class PackedOrbits:
    """Orbits of packed Pauli keys ``(x_mask << n) | z_mask`` under a group.

    Holds one column per key bit: the tuple of that bit's images, as
    one-bit masks, under every group element (z bits first, then x bits).
    A key's images are the elementwise sums of the columns of its set
    bits; the images of distinct bits are distinct bits, so each sum is
    an OR.  Every orbit met is cached under each of its members.
    """

    def __init__(self, group: PermGroup):
        n = group.n
        elements = group.elements()
        self._columns = [
            tuple(1 << (shift + g.images[j]) for g in elements)
            for shift in (0, n)
            for j in range(n)
        ]
        self._cache: dict[int, tuple[int, int, tuple[int, ...]]] = {}

    def orbit(self, key: int) -> tuple[int, int, tuple[int, ...]]:
        """(representative, size, sorted members) of the orbit through key.

        The representative is the smallest member, which is the
        lexicographic minimum of (x_mask, z_mask) over the orbit.  Key 0,
        the identity, is its own orbit.
        """
        got = self._cache.get(key)
        if got is None:
            columns = map(self._columns.__getitem__, _set_bits(key))
            members = sorted(set(map(sum, zip(*columns)))) or [0]
            got = (members[0], len(members), tuple(members))
            self._cache.update(dict.fromkeys(members, got))
        return got


def orbit_count(group: PermGroup) -> int:
    """Number of Pauli-string orbits, by Burnside's lemma.

    Averages 4^(number of index cycles) over the group; exact integer.
    """
    elements = group.elements()
    total = sum(4 ** g.cycle_count() for g in elements)
    count, rem = divmod(total, len(elements))
    if rem:
        raise ArithmeticError("Burnside average must be an integer")
    return count


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
    automorphisms found under ``AUT_VERTEX_CAP``.  S_n is never enumerated.

    The last group built is kept and handed out again for the same graph,
    so the closure, the bounds and the ring vocabulary of one graph share
    one enumeration and one orbit map, and no more than one outlives them."""
    return _graph_group(graph, graph.family)


@lru_cache(maxsize=1)  # family is a key of its own: graphs equal up to the label
def _graph_group(graph, family: str | None) -> PermGroup:
    named = {"cycle": PermGroup.dihedral, "path": PermGroup.reversal,
             "complete": PermGroup.symmetric}.get(family)
    if named is None:
        return graph_automorphisms(graph)
    group = named(graph.n)
    for g in group.generators:
        im = g.images
        if {tuple(sorted((im[j], im[k]))) for j, k in graph.edges} != graph.edges:
            raise ValueError(f"the edges contradict the {family!r} label")
    return group
