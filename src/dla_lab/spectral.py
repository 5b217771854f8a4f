"""Purities, loss expectation, and loss variance for QAOA-MaxCut circuits.

Under the unitary 2-design assumption the moments of the loss function
``l(rho, O; theta) = tr(U rho U^dag O)`` are controlled by how the initial
state ``rho`` and the measurement ``O`` project onto the dynamical Lie
algebra ``g = c + g_1 + ... + g_k`` (center plus simple components):

* the expectation is the Hilbert-Schmidt pairing of the two projections
  onto the center, and
* the variance is ``sum_j P_j(rho) P_j(O) / dim(g_j)`` where ``P_j`` is
  the squared Frobenius norm of the projection onto component ``g_j``
  (the "purity" of the operator in that component).

Everything here is computed in Pauli-coefficient space: an operator is a
sparse real combination of Pauli strings, two strings are Hilbert-Schmidt
orthogonal unless equal, and ``tr(P^2) = 2^n``.  No ``2^n x 2^n`` matrix
is ever materialized, so the only size limit is the ``2^n``-term support
of the plus state itself.

For the cycle graph the module provides the closed forms for all of the
above, together with an independent numerical recomputation over the
explicit expanded bases (center, su(2) components) at small ``n``.

Convention note: algebra elements (:class:`~dla_lab.paulis.PauliVector`)
store the real coefficient of ``i*P`` while Hermitian operators
(:class:`HermitianVector`) store the coefficient of ``P``.  Purities and
center pairings only ever use squared moduli or products of two such
overlaps, in which the relative phase ``i`` cancels, so both kinds of
overlap reduce to the same real coefficient dot product.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction

from .closure import maxcut_keys
from .cycle_forms import cycle_basis, cycle_center, su2_basis
from .graphs import Graph
from .paulis import PauliString, PauliVector, SparseVector, ValueTuple, hs_inner, unpack_pauli

#: largest n for which ``plus_state`` will build its 2^n-term support
PLUS_STATE_VERTEX_CAP = 20

#: largest n for which ``cycle_spectral_report`` recomputes the closed
#: forms numerically from expanded bases (cost grows like n * 2^n)
RECOMPUTE_VERTEX_CAP = 12


class HermitianVector(SparseVector):
    """Sparse Hermitian operator ``sum_P c_P P`` with real coefficients.

    Same keys as :class:`~dla_lab.paulis.PauliVector` but with the
    Hermitian sign convention (coefficient of ``P``, not of ``i*P``).
    """

    __slots__ = ()

    _check_key = PauliVector._check_key

    def _label(self, p: PauliString) -> str:
        return p.label()


def plus_state(n: int) -> HermitianVector:
    """Density matrix of ``|+><+|^(tensor n)`` as a Pauli combination.

    The all-ones matrix divided by ``2^n``, i.e. coefficient ``1/2^n`` on
    each of the ``2^n`` strings made of I and X only.  Exact rationals.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    if n > PLUS_STATE_VERTEX_CAP:
        raise ValueError(
            f"plus_state support has 2^{n} terms; capped at n <= "
            f"{PLUS_STATE_VERTEX_CAP}"
        )
    c = Fraction(1, 1 << n)
    return HermitianVector(
        n, {PauliString(n, x, 0): c for x in range(1 << n)}
    )


def cut_observable(graph: Graph) -> HermitianVector:
    """Normalized MaxCut measurement ``(1/sqrt|E|) sum_edges Z_j Z_k``.

    Its strings are the cut generator's, ``closure.maxcut_keys(graph)[1]``,
    which raises ValueError for a graph without edges.  The normalization
    gives squared Frobenius norm exactly ``2^n`` (up to float rounding):
    ``|E|`` orthogonal strings of weight ``1/sqrt|E|``.
    """
    cut = maxcut_keys(graph)[1]
    c = 1.0 / math.sqrt(len(cut))
    return HermitianVector(graph.n, {unpack_pauli(graph.n, k): c for k in cut})


def _pairwise_orthogonal(basis: list[PauliVector], tolerance: float) -> bool:
    norms = [float(hs_inner(b, b)) for b in basis]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            ip = float(hs_inner(basis[i], basis[j]))
            if abs(ip) > tolerance * math.sqrt(norms[i] * norms[j]):
                return False
    return True


def _prepare_basis(
    basis: list[PauliVector], tolerance: float
) -> list[PauliVector]:
    basis = [b for b in basis if not b.is_zero()]
    if len(basis) > 1 and not _pairwise_orthogonal(basis, tolerance):
        raise ValueError("basis is not pairwise orthogonal")
    return basis


def _accumulate(values) -> object:
    """Sum keeping exact rationals exact, floats via fsum."""
    exact = Fraction(0)
    floats = []
    for v in values:
        if isinstance(v, float):
            floats.append(v)
        else:
            exact += Fraction(v)
    if floats:
        return float(exact) + math.fsum(floats)
    return exact if exact.denominator != 1 else int(exact)


def purity(
    h: HermitianVector, basis: list[PauliVector], tolerance: float = 1e-9
) -> object:
    """Squared Frobenius norm of the projection of ``h`` onto span(basis).

    Computed entirely in coefficient space as
    ``sum_j <B_j, H>^2 / <B_j, B_j>`` over an orthogonal basis, which is
    :func:`expectation` of ``h`` paired with itself.  Zero vectors are
    dropped, and a basis that is not pairwise orthogonal within
    ``tolerance`` raises ValueError.  Returns an exact rational when
    every input coefficient is exact, a float otherwise.
    """
    return expectation(h, h, basis, tolerance)


def expectation(
    rho: HermitianVector,
    obs: HermitianVector,
    center_basis: list[PauliVector],
    tolerance: float = 1e-9,
) -> object:
    """Pairing ``<Proj_c rho, Proj_c obs>`` of center projections.

    This is the 2-design expectation of the loss function when the center
    basis spans the center of the DLA.  Same orthogonality handling and
    exactness rules as :func:`purity`.
    """
    return _pairing(rho, obs, _prepare_basis(center_basis, tolerance))


def _pairing(rho: HermitianVector, obs: HermitianVector, basis) -> object:
    """``sum_j <B_j, rho> <B_j, obs> / <B_j, B_j>`` over a prepared basis."""
    contributions = []
    for b in basis:
        num = hs_inner(b, rho)
        num2 = hs_inner(b, obs)
        den = hs_inner(b, b)
        if num == 0 or num2 == 0:
            continue
        if (
            isinstance(num, float)
            or isinstance(num2, float)
            or isinstance(den, float)
        ):
            contributions.append(num * num2 / den)
        else:
            contributions.append(Fraction(num) * Fraction(num2) / Fraction(den))
    return _accumulate(contributions)


PurityPair = namedtuple("PurityPair", "rho obs")
PurityPair.__doc__ = "Purities of the initial state and of the measurement in one subspace."


def variance_from_components(
    per_component: list[PurityPair] | tuple[PurityPair, ...],
) -> float:
    """Assemble the loss variance from per-component purities.

    Each su(2) component has dimension 3, so the 2-design variance is
    ``sum_k P_k(rho) * P_k(O) / 3``.
    """
    return math.fsum(float(p.rho) * float(p.obs) / 3.0 for p in per_component)


_REPORT_FIELDS = (
    "n purity_whole purity_center purity_per_component expectation variance cross_residual"
)


class SpectralReport(ValueTuple, namedtuple("SpectralReport", _REPORT_FIELDS, defaults=(None,))):
    """Loss-function moments of QAOA-MaxCut on the cycle graph.

    ``purity_per_component[k-1]`` is the pair for the k-th su(2) component
    (k = 1..n-1).  ``cross_residual`` is the largest absolute difference
    between the closed forms and the numerical recomputation over the
    expanded bases (None when the recomputation was skipped for size).
    """

    __slots__ = ()

    def __new__(
        cls,
        n: int,
        purity_whole: PurityPair,
        purity_center: PurityPair,
        purity_per_component: tuple[PurityPair, ...],
        expectation: float,
        variance: float,
        cross_residual: float | None = None,
    ):
        if variance < 0:
            raise ValueError("variance must be nonnegative")
        for part in ("rho", "obs"):
            inside = getattr(purity_center, part) + math.fsum(
                getattr(p, part) for p in purity_per_component
            )
            whole = getattr(purity_whole, part)
            # relative slack: the sum of n terms 2^n/n may land an ulp above 2^n
            if inside > whole + 1e-9 * max(1.0, whole):
                raise ValueError(
                    f"component purities of {part} exceed the whole-algebra "
                    f"purity: {inside} > {whole}"
                )
        return tuple.__new__(cls, (
            n, purity_whole, purity_center, purity_per_component,
            expectation, variance, cross_residual,
        ))


def _closed_forms(n: int):
    parity = n % 2
    whole = PurityPair(n / 2.0 ** (n - 1), float(2**n))
    center = PurityPair(parity / 2.0 ** (n - 1), 2.0**n / n)
    comps = tuple(
        PurityPair((k % 2) / 2.0 ** (n - 2), 2.0**n / n) for k in range(1, n)
    )
    expect = parity / math.sqrt(n)
    var = 2.0 * (n - parity) / (3.0 * n)
    return whole, center, comps, expect, var


def _recomputed_forms(n: int, tolerance: float):
    rho = plus_state(n)
    obs = cut_observable(Graph.cycle(n))
    # each basis is expanded and checked for orthogonality once; failing
    # the check means the tolerance is below round-off, not a bad input
    def prepared(elements) -> list[PauliVector]:
        basis = [e.expand() for e in elements]
        if not _pairwise_orthogonal(basis, tolerance):
            raise ArithmeticError(
                f"the n={n} closed-form bases are not pairwise orthogonal "
                f"within tolerance {tolerance!r}"
            )
        return basis

    def purities(basis) -> PurityPair:
        return PurityPair(
            float(_pairing(rho, rho, basis)), float(_pairing(obs, obs, basis))
        )

    center_basis = prepared(cycle_center(n))
    comps = tuple(purities(prepared((t.x, t.y, t.z))) for t in su2_basis(n))
    expect = float(_pairing(rho, obs, center_basis))
    var = variance_from_components(comps)
    whole = purities(prepared(cycle_basis(n)))
    return whole, purities(center_basis), comps, expect, var


def _within(value: float, reference: float, tolerance: float) -> bool:
    """The one float-check rule: ``|value - reference| <= tolerance *
    max(1, |reference|)``, so each quantity is judged on its own scale."""
    return abs(value - reference) <= tolerance * max(1.0, abs(reference))


def cycle_spectral_report(n: int, tolerance: float = 1e-9) -> SpectralReport:
    """Closed-form loss moments for the n-cycle, cross-checked at small n.

    For ``n <= RECOMPUTE_VERTEX_CAP`` every value is recomputed from the
    expanded explicit bases (whole-algebra orbit basis, center pair, su(2)
    triples) and the largest deviation from the closed forms is recorded;
    a value off its closed form by more than ``tolerance`` on that form's
    scale (``_within``) raises ArithmeticError.  Beyond the
    cap the closed forms are reported alone.  The measurement's purity is
    2^n, so n must stay below the float exponent range (ValueError).
    """
    if n < 3:
        raise ValueError("cycle graphs need n >= 3")
    if n >= sys.float_info.max_exp:
        raise ValueError(
            f"the cycle loss moments need n < {sys.float_info.max_exp}: "
            f"the measurement's purity 2^n overflows a float (got n = {n})"
        )
    whole, center, comps, expect, var = _closed_forms(n)
    residual = None
    if n <= RECOMPUTE_VERTEX_CAP:
        r_whole, r_center, r_comps, r_expect, r_var = _recomputed_forms(
            n, tolerance
        )
        pairs = [*zip(whole, r_whole), *zip(center, r_center), (expect, r_expect), (var, r_var)]
        for closed, got in zip(comps, r_comps):
            pairs += zip(closed, got)
        residual = max(abs(closed - got) for closed, got in pairs)
        if not all(_within(got, closed, tolerance) for closed, got in pairs):
            raise ArithmeticError(
                f"closed-form/recomputed spectral mismatch at n={n}: "
                f"max residual {residual:.3e}"
            )
    return SpectralReport(
        n=n,
        purity_whole=whole,
        purity_center=center,
        purity_per_component=comps,
        expectation=expect,
        variance=var,
        cross_residual=residual,
    )
