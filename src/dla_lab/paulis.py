"""Exact arithmetic on n-qubit Pauli strings and skew-Hermitian Pauli sums.

Encoding
--------
A Pauli string is stored as a pair of bit masks ``(x_mask, z_mask)``:
bit ``j`` of ``x_mask`` is set iff qubit ``j`` carries ``X`` or ``Y``, and
bit ``j`` of ``z_mask`` iff it carries ``Z`` or ``Y``.  Qubit 0 is the
least significant bit.  Per qubit the encoding is

    (0, 0) -> I    (1, 0) -> X    (1, 1) -> Y    (0, 1) -> Z

and the operator represented by the masks is ``W(x, z) = i^{x.z} X^x Z^z``
with ``x.z`` the overlap popcount, so every ``W(x, z)`` is Hermitian.

Coefficient convention
----------------------
Algebra elements are kept skew-Hermitian: a :class:`PauliVector` maps each
string ``P`` to the *real* coefficient of ``i*P``.  With that convention
the commutator of two terms is again a real multiple of ``i*(product)``,
so Lie-algebra computations stay in exact integer/rational arithmetic;
the structure constants arising here are always even integers.

Display convention: qubit 0 is the leftmost character of a label.

Shared pieces
-------------
:class:`SparseVector` is the one sparse-vector core: every vector type in
the package (Pauli, Hermitian, ring-orbit and type coordinates) is a
subclass that only fixes its keys.  :func:`pauli_bracket` is the one Pauli
bracket kernel, on dicts keyed by packed ``(x_mask << n) | z_mask`` ints;
:func:`commutator` and both closure engines call it.  It tests a pair with
one popcount and computes the phase inline (the symplectic rule of Aaronson
& Gottesman, 2004); :func:`phase_exponent` is its test oracle.  Given keys
``at``, it pairs each key with u's terms and returns only the bracket's
terms on those keys.  Both loops take each u-term's setup from ``_terms``.
"""

from __future__ import annotations

from collections import namedtuple

_CHAR_OF_BITS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_BITS_OF_CHAR = {c: b for b, c in _CHAR_OF_BITS.items()}


def phase_exponent(x1: int, z1: int, x2: int, z2: int) -> int:
    """Exponent e with W(x1,z1)·W(x2,z2) = i^e · W(x1^x2, z1^z2), mod 4."""
    x3 = x1 ^ x2
    z3 = z1 ^ z2
    e = (
        (x1 & z1).bit_count()
        + (x2 & z2).bit_count()
        + 2 * (z1 & x2).bit_count()
        - (x3 & z3).bit_count()
    )
    return e % 4


def anticommute(x1: int, z1: int, x2: int, z2: int) -> bool:
    """True iff the two Pauli strings anticommute (symplectic form is odd)."""
    return ((x1 & z2).bit_count() + (z1 & x2).bit_count()) % 2 == 1


class ValueTuple(tuple):
    """Base of the package's immutable value classes, each a named tuple.

    An instance equals only instances of its own class, never a plain
    tuple, and hashes as its field tuple.
    """

    __slots__ = ()
    __hash__ = tuple.__hash__  # C-level, so hot dict keys stay cheap

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)


class PauliString(ValueTuple, namedtuple("PauliString", "n x_mask z_mask")):
    """Bit-packed n-qubit Pauli word.

    Attributes
    ----------
    n : int
        Number of qubits (>= 1).
    x_mask, z_mask : int
        Symplectic masks; bits at positions >= n must be zero.
    """

    __slots__ = ()

    def __new__(cls, n: int, x_mask: int, z_mask: int):
        if n < 1:
            raise ValueError("need at least one qubit")
        top = 1 << n
        if not (0 <= x_mask < top and 0 <= z_mask < top):
            raise ValueError("mask bits above position n-1 must be zero")
        return tuple.__new__(cls, (n, x_mask, z_mask))

    @classmethod
    def single(cls, n: int, j: int, kind: str) -> "PauliString":
        """The string with `kind` in {X, Y, Z} on qubit j and I elsewhere."""
        if not 0 <= j < n:
            raise ValueError(f"qubit index {j} out of range for n={n}")
        xb, zb = _BITS_OF_CHAR[kind]
        return cls(n, xb << j, zb << j)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse a label like "XIZY"; qubit 0 is the leftmost character."""
        x = z = 0
        for j, ch in enumerate(label):
            xb, zb = _BITS_OF_CHAR[ch]
            x |= xb << j
            z |= zb << j
        return cls(len(label), x, z)

    def label(self) -> str:
        return "".join(
            _CHAR_OF_BITS[((self.x_mask >> j) & 1, (self.z_mask >> j) & 1)]
            for j in range(self.n)
        )

    def __repr__(self):  # keep reprs short in test output
        return f"PauliString({self.label()!r})"


class PauliType(ValueTuple, namedtuple("PauliType", "n_I n_X n_Y n_Z")):
    """Letter counts (n_I, n_X, n_Y, n_Z) of a Pauli string."""

    __slots__ = ()

    @property
    def yz_even(self) -> bool:
        return (self.n_Y + self.n_Z) % 2 == 0


def pauli_type(p: PauliString) -> PauliType:
    n_y = (p.x_mask & p.z_mask).bit_count()
    n_x = p.x_mask.bit_count() - n_y
    n_z = p.z_mask.bit_count() - n_y
    return PauliType(p.n - n_x - n_y - n_z, n_x, n_y, n_z)


def multiply(a: PauliString, b: PauliString) -> tuple[int, PauliString]:
    """Product a·b = i^e · c.  Returns (e mod 4, c)."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} != {b.n}")
    e = phase_exponent(a.x_mask, a.z_mask, b.x_mask, b.z_mask)
    return e, PauliString(a.n, a.x_mask ^ b.x_mask, a.z_mask ^ b.z_mask)


def commutes(a: PauliString, b: PauliString) -> bool:
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} != {b.n}")
    return not anticommute(a.x_mask, a.z_mask, b.x_mask, b.z_mask)


class SparseVector:
    """Sparse vector: a size ``n`` and a zero-dropping ``{key: coeff}`` dict.

    The shared core of every coordinate system in the package.  Subclasses
    fix what differs: key validation (``_check_key``), the order of
    ``terms()``, key labels in reprs, and their own conversions.
    Coefficients are duck-typed (int, Fraction, float, complex); only
    coefficients equal to zero are dropped.  Instances are immutable by
    convention: operators return new vectors, and ``accumulate`` is the one
    in-place update, for builders that own the vector they grow.  Vectors
    of different concrete types never compare equal.
    """

    __slots__ = ("n", "_coeffs")

    def __init__(self, n: int, coeffs: dict | None = None):
        self.n = n
        clean = {}
        for key, c in (coeffs or {}).items():
            self._check_key(key)
            if c != 0:
                clean[key] = c
        self._coeffs = clean

    def _check_key(self, key) -> None:
        """Raise ValueError for a key outside this coordinate system."""

    def _label(self, key) -> str:
        return str(key)

    def _new(self, coeffs: dict):
        """Same type and size around a dict of valid keys and nonzero coeffs."""
        v = object.__new__(type(self))
        v.n = self.n
        v._coeffs = coeffs
        return v

    @classmethod
    def zero(cls, n: int):
        return cls(n)

    def terms(self):
        return self._coeffs.items()

    def support(self):
        return self._coeffs.keys()

    def coeff(self, key):
        return self._coeffs.get(key, 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def max_abs(self):
        return max((abs(c) for c in self._coeffs.values()), default=0)

    def __len__(self):
        return len(self._coeffs)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.n == other.n
            and self._coeffs == other._coeffs
        )

    def accumulate(self, other: "SparseVector") -> None:
        """In-place ``self += other``, adding other's terms in its order."""
        if type(other) is not type(self):
            raise TypeError(
                f"cannot add {type(other).__name__} to {type(self).__name__}"
            )
        if self.n != other.n:
            raise ValueError(f"sizes differ: {self.n} != {other.n}")
        acc = self._coeffs
        for key, c in other._coeffs.items():
            s = acc.get(key, 0) + c
            if s == 0:
                acc.pop(key, None)
            else:
                acc[key] = s

    def __add__(self, other):
        out = self._new(dict(self._coeffs))
        out.accumulate(other)
        return out

    def __neg__(self):
        return self._new({k: -c for k, c in self._coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, factor):
        return self._new(
            {k: p for k, c in self._coeffs.items() if (p := c * factor) != 0}
        )

    def __repr__(self):
        body = " + ".join(f"{c!r}*{self._label(k)}" for k, c in self.terms())
        return f"{type(self).__name__}(n={self.n}, {body or 0})"


class PauliVector(SparseVector):
    """Sparse real-coefficient vector over {i*P : P Pauli string}.

    The stored mapping is ``P -> c_P`` for the operator ``sum_P c_P (i P)``;
    coefficients are exact (int / Fraction) in all structural computations.
    Float coefficients are tolerated for the spectral routines that expand
    trigonometric basis elements, but nothing here ever mixes the two in
    one vector.  ``terms()`` keeps insertion order.
    """

    __slots__ = ()

    def _check_key(self, p: PauliString) -> None:
        if p.n != self.n:
            raise ValueError("entry qubit count mismatch")

    def _label(self, p: PauliString) -> str:
        return "i" + p.label()

    @property
    def entries(self) -> dict[PauliString, object]:
        return dict(self._coeffs)


def pack_pauli(p: PauliString) -> int:
    """The string as one int, ``(x_mask << n) | z_mask``."""
    return (p.x_mask << p.n) | p.z_mask


def unpack_pauli(n: int, key: int) -> PauliString:
    return PauliString(n, key >> n, key & ((1 << n) - 1))


def pauli_vector_to_dict(v: PauliVector) -> dict:
    return {pack_pauli(p): c for p, c in v.terms()}


def dict_to_pauli_vector(n: int, d: dict) -> PauliVector:
    return PauliVector(n, {unpack_pauli(n, k): c for k, c in d.items()})


def pauli_bracket(n: int, u: dict, v: dict, at=None) -> dict:
    """[u, v] of skew-Hermitian vectors given as packed-key dicts; exact.

    For anticommuting strings P, Q with P·Q = i^e R the bracket of the
    terms is [iP, iQ] = -2 i^e R = (+2 if e == 3 else -2) * (i R);
    commuting pairs contribute nothing.  The pair test is one popcount of
    ``su & kv``, u's key swapped to ``(z << n) | x``; e is computed inline
    (odd, so ``e & 2`` tells 3 from 1).  Zero sums are dropped as they
    occur.

    With ``at`` (a set or dict of keys) only the bracket's terms on those
    keys are returned: each key k is paired with every term ku of u,
    looking up ``v[k ^ ku]``.  Each sum runs in u's order as in the full
    loop, so the result equals the full bracket filtered to ``at`` for any
    coefficient type.  That pays when the keys are fewer than v's terms.
    """
    if at is not None:
        return _bracket_at(n, u, v, at)
    acc: dict[int, object] = {}
    for ku, su, z1, w1, plus, minus in _terms(n, u):
        for kv, cv in v.items():
            if not (su & kv).bit_count() & 1:
                continue
            k3 = ku ^ kv
            x2 = kv >> n
            e = w1 + (x2 & kv).bit_count() + 2 * (z1 & x2).bit_count()
            e -= ((k3 >> n) & k3).bit_count()
            s = acc.get(k3, 0) + (plus if e & 2 else minus) * cv
            if s == 0:
                acc.pop(k3, None)
            else:
                acc[k3] = s
    return acc


def _terms(n: int, u: dict) -> list:
    """Each u-term's (key, swapped key ``(z << n) | x``, z mask, #Y, +2c,
    -2c): the setup both bracket loops share.  #Y counts ``x & key``, as
    x has no bit at n or above."""
    mask = (1 << n) - 1
    return [(ku, (ku & mask) << n | ku >> n, ku & mask, (ku >> n & ku).bit_count(),
             2 * cu, -2 * cu) for ku, cu in u.items()]


def _bracket_at(n: int, u: dict, v: dict, at) -> dict:
    """The terms of ``pauli_bracket(n, u, v)`` on the keys of ``at``."""
    terms = _terms(n, u)
    out: dict[int, object] = {}
    for k3 in at:
        w3 = ((k3 >> n) & k3).bit_count()
        s = 0
        for ku, su, z1, w1, plus, minus in terms:
            kv = k3 ^ ku
            cv = v.get(kv)
            if cv is None or not (su & kv).bit_count() & 1:
                continue
            x2 = kv >> n
            e = w1 + (x2 & kv).bit_count() + 2 * (z1 & x2).bit_count() - w3
            s = s + (plus if e & 2 else minus) * cv
        if s != 0:
            out[k3] = s
    return out


def commutator(a: PauliVector, b: PauliVector) -> PauliVector:
    """[a, b] for skew-Hermitian vectors; exact, closes within the type."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} != {b.n}")
    n = a.n
    packed = pauli_bracket(n, pauli_vector_to_dict(a), pauli_vector_to_dict(b))
    return a._new({unpack_pauli(n, k): c for k, c in packed.items()})


def hs_inner(a: SparseVector, b: SparseVector):
    """Hilbert-Schmidt inner product tr(A^dag B) = 2^n * sum_P a_P b_P.

    Real, symmetric and positive definite on the skew-Hermitian vectors
    (tr((iP)^dag (iQ)) = tr(P Q) = 2^n delta_{PQ}).  The same coefficient
    formula also gives tr(A B) for two Hermitian coefficient vectors.
    """
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} != {b.n}")
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    total = 0
    for p, c in small._coeffs.items():
        d = big._coeffs.get(p)
        if d is not None:
            total += c * d
    return (1 << a.n) * total
