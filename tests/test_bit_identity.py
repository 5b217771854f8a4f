"""Bit-for-bit guard on the closed-form sums and their residuals.

Each case renders every coefficient (or residual maximum) exactly, floats
through ``float.hex`` so a last-bit change or the sign of a zero shows,
and compares the SHA-256 of that listing with a digest recorded from the
code as it stood before the sums were rebuilt from term lists.  The JSON
payloads round floats to 12 digits, so they cannot catch such a change.
A deliberate change of any coefficient must re-record the digest here.
"""

import hashlib
from fractions import Fraction

import pytest

from dla_lab.complete_forms import kn_basis
from dla_lab.cycle_forms import (
    ab_power,
    alternating_eigen_residual,
    canonical_basis,
    canonical_relation_residuals,
    cycle_center,
    su2_basis,
    su2_relation_residuals,
)

SIZES = (3, 4, 5, 8, 10, 13)
EXPAND_SIZES = (3, 4, 5, 8)  # SymOrbitSum.expand is capped at 8 vertices


def _exact(c) -> str:
    """A coefficient with every bit shown: floats by ``float.hex``."""
    if type(c) is float:
        return c.hex()
    if type(c) is complex:
        return f"({c.real.hex()},{c.imag.hex()})"
    if type(c) in (int, Fraction):
        return repr(c)
    raise TypeError(f"unexpected coefficient {c!r}")


def _sum_lines(vec) -> list[str]:
    return [f"{key!r}={_exact(c)}" for key, c in vec.terms()]


def _triples(n, basis, fields) -> list[str]:
    return [
        f"{t.k}.{name}:{line}"
        for t in basis(n)
        for name in fields
        for line in _sum_lines(getattr(t, name))
    ]


def _listing(case: str, n: int) -> list[str]:
    if case == "canonical_basis":
        return _triples(n, canonical_basis, "huv")
    if case == "su2_basis":
        return _triples(n, su2_basis, "xyz")
    if case == "cycle_center":
        return [f"{i}:{line}" for i, c in enumerate(cycle_center(n)) for line in _sum_lines(c)]
    if case == "ab_power":
        return [f"{k}:{line}" for k in range(1, n + 1) for line in _sum_lines(ab_power(n, k))]
    if case == "canonical_relation_residuals":
        return [f"{name}={_exact(r)}" for name, r in canonical_relation_residuals(n).items()]
    if case == "su2_relation_residuals":
        return [f"{name}={_exact(r)}" for name, r in su2_relation_residuals(n).items()]
    if case == "alternating_eigen_residual":
        return [_exact(alternating_eigen_residual(n))]
    if case == "SymOrbitSum.expand":
        # the multi-type basis elements: term order across types shows
        return [
            f"{i}:{p.label()}={_exact(c)}"
            for i, v in enumerate(kn_basis(n))
            if len(v) > 1
            for p, c in v.expand().terms()
        ]
    raise KeyError(case)


def _digest(case: str, sizes) -> str:
    h = hashlib.sha256()
    for n in sizes:
        h.update(f"n={n}\n".encode())
        for line in _listing(case, n):
            h.update(line.encode() + b"\n")
    return h.hexdigest()


PINNED = {
    "canonical_basis": "e93de0765f63f4dae2ecfeb6e95ec2f311a834e081c760802301044b2c56e730",
    "su2_basis": "43e3074a4db65a9f4bbe01ac1dc9abffab19267b74e844c9b4db8cddded2c631",
    "cycle_center": "bd69e94bd93b7907d838ece9b303c3f714bd7215a955d5f943713a76c93eafd4",
    "ab_power": "d65208f46d16f03912ccd031e1c0ed2c6071e87159db6e4666bdbd7fee2453a2",
    "canonical_relation_residuals": "395d93a79fc52e89d8d60cbcf00734a1091d0aab6f15cd2d0461f98b09c402b2",
    "su2_relation_residuals": "a798d54e968c8fc672741da9124dab526f15d1c5931b35fdaf8eb27c038287b3",
    "alternating_eigen_residual": "46d1d35d7a7bee1a8108311bc0754254909d5210ebb6e2c47d11d13cd0710dff",
    "SymOrbitSum.expand": "db83e168309344dfe8cbf5eaa56c84d26687a2273ff07f54d02f8205959e37da",
}


@pytest.mark.parametrize("case", PINNED)
def test_sums_and_residuals_are_bit_identical(case):
    sizes = EXPAND_SIZES if case == "SymOrbitSum.expand" else SIZES
    assert _digest(case, sizes) == PINNED[case]
