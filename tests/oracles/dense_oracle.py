"""Independent dense-matrix oracle used to freeze expected values in the tests.

Everything here is computed from scratch with numpy (dense 2^n x 2^n
matrices) and deliberately shares no code with the package under test.
Closure dimensions are ranked over the integers mod two primes, never by a
float tolerance; a rank mod p can only undercount the rational rank, so the
two must agree or the oracle raises.  Run it directly to print the values that the
test suite pins as literals:

    python tests/oracles/dense_oracle.py
"""

import itertools

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_string(label):
    """Dense matrix for a Pauli label, qubit 0 = leftmost character."""
    out = np.array([[1.0 + 0j]])
    for ch in label:
        out = np.kron(out, PAULI[ch])
    return out


def single(n, j, kind):
    return kron_string("".join(kind if i == j else "I" for i in range(n)))


def generators(n, edges):
    a = sum(single(n, j, "X") for j in range(n))
    b = sum(single(n, j, "Z") @ single(n, k, "Z") for j, k in edges)
    return 1j * a, 1j * b


#: the two largest primes below 2^25: residues below them multiply to under
#: 2^50, so int64 sums of up to 2^13 such products cannot overflow
PRIMES = (33_554_393, 33_554_383)

INT_X = np.array([[0, 1], [1, 0]], dtype=np.int64)
INT_Z = np.array([[1, 0], [0, -1]], dtype=np.int64)


def int_generators(n, edges):
    """sum_j X_j and sum_edges Z_j Z_k as integer matrices (qubit 0 leftmost)."""

    def kron_all(factors):
        out = np.ones((1, 1), dtype=np.int64)
        for f in factors:
            out = np.kron(out, f)
        return out

    eye = np.eye(2, dtype=np.int64)
    a = sum(kron_all(INT_X if i == j else eye for i in range(n)) for j in range(n))
    b = sum(
        kron_all(INT_Z if i in (j, k) else eye for i in range(n)) for j, k in edges
    )
    return a, b


class _ModPSpan:
    """Fully reduced echelon rows mod a prime; exact membership and rank."""

    def __init__(self, width, prime):
        self._store = np.zeros((16, width), dtype=np.int64)
        self.pivots = []
        self.prime = prime

    def insert(self, v):
        """Add v (int64 residues) to the span; True iff it was independent."""
        prime = self.prime
        rank = len(self.pivots)
        rows = self._store[:rank]
        if rank:
            # einsum sums row by row, far faster than int64 matmul here
            v = (v - np.einsum("i,ij->j", v[self.pivots], rows)) % prime
        nonzero = np.flatnonzero(v)
        if nonzero.size == 0:
            return False
        piv = int(nonzero[0])
        v = v * pow(int(v[piv]), prime - 2, prime) % prime
        hit = np.flatnonzero(rows[:, piv])
        if hit.size:
            rows[hit] = (rows[hit] - np.outer(rows[hit, piv], v)) % prime
        if rank == len(self._store):
            self._store = np.vstack([self._store, np.zeros_like(self._store)])
        self._store[rank] = v
        self.pivots.append(piv)
        return True


def lie_closure_dim(n, edges):
    """Dimension of the real Lie algebra generated by i*sum X and i*sum ZZ.

    The closure is ranked mod each of PRIMES.  A rank mod p never exceeds
    the rational rank r, and falls below it only when p divides every
    r x r minor, so the two ranks must agree; ValueError if they do not.
    """
    dims = {_closure_dim_mod(n, edges, prime) for prime in PRIMES}
    if len(dims) != 1:
        raise ValueError(f"closure ranks differ across primes: {sorted(dims)}")
    return dims.pop()


def _closure_dim_mod(n, edges, prime):
    """Closure dimension mod one prime: a lower bound on the true one.

    Every nested commutator of the generators is i^k M with M a real
    integer matrix, so it is tracked as (k mod 2, M mod prime), the sign
    of i^2 folded into M.  The real span splits into the k-even (real) and
    k-odd (imaginary) parts, each ranked mod the prime.
    """
    gens = [(1, m % prime) for m in int_generators(n, edges)]
    spans = [_ModPSpan(4**n, prime), _ModPSpan(4**n, prime)]

    def insert(elem):
        k, m = elem
        return spans[k].insert(m.reshape(-1))

    frontier = [g for g in gens if insert(g)]
    while frontier:
        new = []
        for kg, g in gens:
            for kh, h in frontier:
                c = (g @ h - h @ g) % prime
                k = kg + kh
                if k >= 2:
                    k -= 2
                    c = (-c) % prime
                if insert((k, c)):
                    new.append((k, c))
        frontier = new
    return len(spans[0].pivots) + len(spans[1].pivots)


def centralizer_labels(n, edges):
    """All Pauli labels commuting with every X_j and every edge ZZ term."""
    found = []
    for combo in itertools.product("IXYZ", repeat=n):
        m = kron_string("".join(combo))
        ok = True
        for j in range(n):
            g = single(n, j, "X")
            if np.linalg.norm(m @ g - g @ m) > 1e-9:
                ok = False
                break
        if ok:
            for j, k in edges:
                g = single(n, j, "Z") @ single(n, k, "Z")
                if np.linalg.norm(m @ g - g @ m) > 1e-9:
                    ok = False
                    break
        if ok:
            found.append("".join(combo))
    return found


def dihedral_images(n, label):
    """Distinct images of a Pauli label under rotations + reflections of Z_n."""
    images = set()
    for s in range(n):
        for flip in (False, True):
            out = ["I"] * n
            for j, ch in enumerate(label):
                pos = (-j + s) % n if flip else (j + s) % n
                out[pos] = ch
            images.add("".join(out))
    return sorted(images)


def path_automorphisms(n):
    """Brute-force automorphisms of the path 0-1-...-(n-1)."""
    edges = {(j, j + 1) for j in range(n - 1)}
    auts = []
    for perm in itertools.permutations(range(n)):
        mapped = {tuple(sorted((perm[j], perm[k]))) for j, k in edges}
        if mapped == edges:
            auts.append(perm)
    return auts


def burnside_pauli_orbits(perms):
    """Number of Pauli-string orbits under a list of permutations."""
    total = 0
    for perm in perms:
        seen = [False] * len(perm)
        cycles = 0
        for start in range(len(perm)):
            if not seen[start]:
                cycles += 1
                j = start
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        total += 4**cycles
    return total // len(perms)


def dihedral_perms(n):
    perms = []
    for s in range(n):
        perms.append(tuple((j + s) % n for j in range(n)))
        perms.append(tuple((-j + s) % n for j in range(n)))
    return perms


def char_poly_coeffs(n):
    """Integer char poly of the (n-1)x(n-1) tridiagonal matrix 8*T(1,0,1)."""
    m = n - 1
    mat = np.zeros((m, m))
    for j in range(m - 1):
        mat[j, j + 1] = mat[j + 1, j] = 8.0
    coeffs = np.poly(mat)  # leading 1, float
    return [round(c) for c in coeffs]


def main():
    cycle = lambda n: [(j, (j + 1) % n) for j in range(n)]
    path = lambda n: [(j, j + 1) for j in range(n - 1)]
    complete = lambda n: [
        (j, k) for j in range(n) for k in range(j + 1, n)
    ]

    print("closure dims:")
    print("  P_3 :", lie_closure_dim(3, path(3)))
    print("  P_4 :", lie_closure_dim(4, path(4)))
    print("  C_3 :", lie_closure_dim(3, cycle(3)))
    print("  C_4 :", lie_closure_dim(4, cycle(4)))
    print("  C_5 :", lie_closure_dim(5, cycle(5)))
    print("  K_4 :", lie_closure_dim(4, complete(4)))

    print("centralizers:")
    print("  C_4            :", centralizer_labels(4, cycle(4)))
    print("  disjoint edges :", centralizer_labels(4, [(0, 1), (2, 3)]))

    print("dihedral orbit of Y0Z1, n=3:", dihedral_images(3, "YZI"))

    print("path automorphisms, n=3:", path_automorphisms(3))

    print("Burnside |P_4/D_4|:", burnside_pauli_orbits(dihedral_perms(4)))

    print("X-orbit self inner product, C_3:")
    a, _ = generators(3, cycle(3))
    print("  tr(a^dag a) =", np.trace(a.conj().T @ a).real)

    print("char poly of 8*T for n=3 (a_k = -coeff):", char_poly_coeffs(3))
    print("char poly of 8*T for n=4:", char_poly_coeffs(4))


if __name__ == "__main__":
    main()
