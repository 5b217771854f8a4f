"""Dynamical Lie algebras of QAOA-MaxCut circuits.

Exact symbolic computation of the Lie closure generated by the QAOA
mixer and MaxCut cost Hamiltonians for arbitrary graphs — dimension,
closure degree, center, and commutator ideal — together with explicit
closed-form bases for the cycle and complete graph families and the
resulting loss-function purity/variance statistics.

The layers, bottom up:

``paulis``
    Bit-packed Pauli strings, the shared sparse-vector core, the Pauli
    bracket kernel, inner products.
``symmetry``
    Qubit-permutation groups, a graph's group, the one packed-key orbit
    map built from any group's per-bit image columns, Burnside counts.
``closure``
    The closure engine over an exact sparse integer ledger, in raw Pauli
    or symmetry-orbit coordinates; center and commutator-ideal ranks.
``graphs``
    Graph construction/parsing, MaxCut generators, dimension bounds.
``cycle_forms`` / ``complete_forms``
    Closed-form bases and identities for the two named families.
``spectral``
    Purities of the initial state and cut observable; loss expectation
    and variance under the 2-design assumption.
``cli``
    The ``dla-lab`` command-line front end.

``import dla_lab`` loads no layer: each exported name imports its module
on first access (PEP 562), so a command loads only the layers it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: module -> the names the package exports from it
_EXPORTS = {
    "closure": """DEFAULT_MEMORY_BUDGET DlaReport LinearLedger ResourceBudgetError
        center center_dimension commutator_ideal generate_dla
        generate_dla_orbit_compressed ideal_dimension in_ideal
        nullspace_combos span_ledger""",
    "complete_forms": """DECOMPOSITION_CONJECTURE SymOrbitSum ad_cut ad_field
        fact_suite kn_basis kn_ideal_basis sym_term""",
    "cycle_forms": """CycleOrbitSum ab_power ab_power_expansion_coeffs
        canonical_basis cut_orbit cycle_basis cycle_center field_orbit
        orbit_bracket orbit_term su2_basis""",
    "graphs": """Graph centralizer_paulis dimension_bounds kn_formulas
        maxcut_generators parse_graph_spec""",
    "paulis": "PauliString PauliVector commutator commutes hs_inner multiply pauli_type",
    "spectral": """HermitianVector PurityPair SpectralReport cut_observable
        cycle_spectral_report expectation plus_state purity
        variance_from_components""",
    "symmetry": "PermGroup Permutation graph_automorphisms",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import an exported name's module on first access, and keep the name."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
