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
    map built from any group, Burnside counts, orbit compression.
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
"""

from .closure import (
    DEFAULT_MEMORY_BUDGET,
    DlaReport,
    LinearLedger,
    ResourceBudgetError,
    center,
    center_dimension,
    commutator_ideal,
    generate_dla,
    generate_dla_orbit_compressed,
    ideal_dimension,
    ideal_ledger,
    nullspace_combos,
    span_ledger,
)
from .complete_forms import (
    DECOMPOSITION_CONJECTURE,
    SymOrbitSum,
    ad_cut,
    ad_field,
    fact_suite,
    kn_basis,
    kn_ideal_basis,
    sym_term,
)
from .cycle_forms import (
    CycleOrbitSum,
    ab_power,
    ab_power_expansion_coeffs,
    canonical_basis,
    cut_orbit,
    cycle_basis,
    cycle_center,
    field_orbit,
    orbit_bracket,
    orbit_term,
    su2_basis,
)
from .graphs import (
    Graph,
    centralizer_paulis,
    dimension_bounds,
    kn_formulas,
    maxcut_generators,
    parse_graph_spec,
)
from .paulis import (
    PauliString,
    PauliVector,
    commutator,
    commutes,
    hs_inner,
    multiply,
    pauli_type,
)
from .spectral import (
    HermitianVector,
    PurityPair,
    SpectralReport,
    cut_observable,
    cycle_spectral_report,
    expectation,
    plus_state,
    purity,
    variance_from_components,
)
from .symmetry import PermGroup, Permutation, graph_automorphisms

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "DECOMPOSITION_CONJECTURE",
    "CycleOrbitSum",
    "DlaReport",
    "Graph",
    "HermitianVector",
    "LinearLedger",
    "PauliString",
    "PauliVector",
    "PermGroup",
    "Permutation",
    "PurityPair",
    "ResourceBudgetError",
    "SpectralReport",
    "SymOrbitSum",
    "ab_power",
    "ab_power_expansion_coeffs",
    "ad_cut",
    "ad_field",
    "canonical_basis",
    "center",
    "center_dimension",
    "centralizer_paulis",
    "commutator",
    "commutator_ideal",
    "commutes",
    "cut_observable",
    "cut_orbit",
    "cycle_basis",
    "cycle_center",
    "cycle_spectral_report",
    "dimension_bounds",
    "expectation",
    "fact_suite",
    "field_orbit",
    "generate_dla",
    "generate_dla_orbit_compressed",
    "graph_automorphisms",
    "hs_inner",
    "ideal_dimension",
    "ideal_ledger",
    "kn_basis",
    "kn_formulas",
    "kn_ideal_basis",
    "maxcut_generators",
    "multiply",
    "nullspace_combos",
    "orbit_bracket",
    "orbit_term",
    "parse_graph_spec",
    "pauli_type",
    "plus_state",
    "purity",
    "span_ledger",
    "su2_basis",
    "sym_term",
    "variance_from_components",
]
