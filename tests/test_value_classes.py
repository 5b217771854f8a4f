"""The package's immutable value classes keep their value semantics.

Each one equals only instances of its own class (never a plain tuple),
hashes as its field tuple, so set and frozenset orders (and every payload
built from them) do not depend on how the class is written, refuses
assignment, validates its constructor and has a ``Name(field=value)``
repr.  ``DlaReport`` is mutable and unhashable, and publishes its basis
once, on first access.
"""

import inspect

import pytest

from dla_lab.closure import DlaReport, generate_dla
from dla_lab.cycle_forms import CanonicalTriple, Su2Triple, su2_basis
from dla_lab.graphs import Graph, maxcut_generators
from dla_lab.paulis import PauliString, PauliType, pauli_type
from dla_lab.spectral import PurityPair, SpectralReport, cycle_spectral_report
from dla_lab.symmetry import Permutation


def _report(**change):
    fields = dict(
        n=3,
        purity_whole=PurityPair(1.0, 8.0),
        purity_center=PurityPair(0.25, 2.0),
        purity_per_component=(PurityPair(0.5, 2.0), PurityPair(0.0, 2.0)),
        expectation=0.5,
        variance=0.25,
    )
    fields.update(change)
    return SpectralReport(**fields)


# value, its field tuple, an equal value, a different value of the class
VALUES = {
    "PauliString": (
        PauliString(2, 1, 2),
        (2, 1, 2),
        PauliString.from_label("XZ"),
        PauliString(2, 1, 0),
    ),
    "PauliType": (
        PauliType(1, 1, 0, 0),
        (1, 1, 0, 0),
        pauli_type(PauliString.from_label("XI")),
        PauliType(0, 2, 0, 0),
    ),
    "Permutation": (
        Permutation((1, 0, 2)),
        ((1, 0, 2),),
        Permutation.identity(3).compose(Permutation((1, 0, 2))),
        Permutation((0, 1, 2)),
    ),
    "Graph": (
        Graph.path(3),
        (3, frozenset({(0, 1), (1, 2)})),
        Graph(3, frozenset({(1, 0), (2, 1)})),
        Graph.cycle(3),
    ),
    "CanonicalTriple": (
        CanonicalTriple(1, "h", "u", "v"),
        (1, "h", "u", "v"),
        CanonicalTriple(1, "h", "u", "v"),
        CanonicalTriple(2, "h", "u", "v"),
    ),
    "Su2Triple": (
        Su2Triple(1, "x", "y", "z"),
        (1, "x", "y", "z"),
        Su2Triple(k=1, x="x", y="y", z="z"),
        Su2Triple(1, "x", "y", "w"),
    ),
    "SpectralReport": (
        _report(),
        (
            3, PurityPair(1.0, 8.0), PurityPair(0.25, 2.0),
            (PurityPair(0.5, 2.0), PurityPair(0.0, 2.0)), 0.5, 0.25, None,
        ),
        _report(cross_residual=None),
        _report(cross_residual=0.0),
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_equality_is_by_class_and_fields(name):
    value, fields, same, other = VALUES[name]
    assert type(value).__name__ == name
    assert value == same and not value != same
    assert value != other and not value == other
    assert value != fields and not value == fields
    assert fields != value
    assert value != object()


@pytest.mark.parametrize("name", VALUES)
def test_hash_is_the_field_tuple_hash(name):
    value, fields, same, _ = VALUES[name]
    assert hash(value) == hash(fields) == hash(same)
    assert len({value, same}) == 1


def test_hash_of_a_pauli_string_is_its_field_tuple():
    for n, x, z in [(1, 0, 0), (3, 5, 6), (7, 127, 1)]:
        assert hash(PauliString(n, x, z)) == hash((n, x, z))


@pytest.mark.parametrize("name", VALUES)
def test_assignment_raises(name):
    value = VALUES[name][0]
    first = next(iter(inspect.signature(type(value)).parameters))
    with pytest.raises(AttributeError):
        setattr(value, first, 0)
    with pytest.raises(AttributeError):
        value.extra = 0
    with pytest.raises(AttributeError):
        delattr(value, first)


def test_reprs():
    assert repr(PauliString(3, 1, 6)) == "PauliString('XZZ')"
    assert repr(PauliType(1, 2, 0, 0)) == "PauliType(n_I=1, n_X=2, n_Y=0, n_Z=0)"
    assert repr(Permutation((1, 0))) == "Permutation(images=(1, 0))"
    assert repr(Graph(2, frozenset({(1, 0)}), "path")) == (
        "Graph(n=2, edges=frozenset({(0, 1)}), family='path')"
    )
    assert repr(CanonicalTriple(1, 2, 3, 4)) == "CanonicalTriple(k=1, h=2, u=3, v=4)"
    assert repr(Su2Triple(1, 2, 3, 4)) == "Su2Triple(k=1, x=2, y=3, z=4)"
    assert repr(_report()) == (
        "SpectralReport(n=3, purity_whole=PurityPair(rho=1.0, obs=8.0), "
        "purity_center=PurityPair(rho=0.25, obs=2.0), "
        "purity_per_component=(PurityPair(rho=0.5, obs=2.0), "
        "PurityPair(rho=0.0, obs=2.0)), expectation=0.5, variance=0.25, "
        "cross_residual=None)"
    )
    report = generate_dla(maxcut_generators(Graph.cycle(3)))
    assert repr(report) == (
        "DlaReport(dimension=8, degree=4, generator_count=2, n=3, coords='pauli')"
    )


def test_constructor_validation():
    with pytest.raises(ValueError, match="need at least one qubit"):
        PauliString(0, 0, 0)
    with pytest.raises(ValueError, match="mask bits above position n-1"):
        PauliString(2, 4, 0)
    with pytest.raises(ValueError, match="mask bits above position n-1"):
        PauliString(2, 0, -1)
    with pytest.raises(ValueError, match="not a bijection"):
        Permutation((0, 0))
    with pytest.raises(ValueError, match="at least one vertex"):
        Graph(0, frozenset())
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError, match=r"edge \(0, 3\) out of range for n=3"):
        Graph(3, frozenset({(0, 3)}))
    with pytest.raises(ValueError, match="variance must be nonnegative"):
        _report(variance=-1.0)
    with pytest.raises(ValueError, match="component purities of obs exceed"):
        _report(purity_center=PurityPair(0.25, 5.0))
    with pytest.raises(TypeError):
        PauliString(2, 1)


def test_constructor_signatures_and_defaults():
    assert list(inspect.signature(PauliString).parameters) == ["n", "x_mask", "z_mask"]
    assert PauliString(n=2, x_mask=1, z_mask=0) == PauliString(2, 1, 0)
    assert Graph(2, frozenset({(0, 1)})).family is None
    assert list(inspect.signature(Graph).parameters) == ["n", "edges", "family"]
    assert _report().cross_residual is None
    assert list(inspect.signature(SpectralReport).parameters)[-1] == "cross_residual"
    assert list(inspect.signature(DlaReport).parameters) == [
        "dimension", "degree", "generator_count", "n", "coords", "ledger", "_adjoints",
        "_graded",
    ]


def test_graph_ignores_its_family_label():
    labelled = Graph.cycle(4)
    plain = Graph(4, labelled.edges)
    assert labelled == plain and hash(labelled) == hash(plain)
    assert labelled.family == "cycle" and plain.family is None
    assert len({labelled, plain}) == 1


def test_graph_normalizes_its_edges():
    assert Graph(3, frozenset({(2, 0), (1, 2)})).edges == frozenset({(0, 2), (1, 2)})


def test_purity_pair_is_a_plain_named_tuple():
    pair = PurityPair(rho=0.5, obs=2.0)
    assert pair == (0.5, 2.0) and hash(pair) == hash((0.5, 2.0))
    assert pair.rho == 0.5 and pair.obs == 2.0


def test_spectral_report_and_triples_from_the_library():
    report = cycle_spectral_report(4)
    assert report == cycle_spectral_report(4)
    assert hash(report) == hash(
        (4, report.purity_whole, report.purity_center, report.purity_per_component,
         report.expectation, report.variance, report.cross_residual)
    )
    assert report.purity_per_component == tuple(report.purity_per_component)
    triple = su2_basis(4)[0]
    assert triple == su2_basis(4)[0] and triple.k == 1
    with pytest.raises(TypeError):  # its ring sums are unhashable
        hash(triple)


def test_dla_report_is_mutable_unhashable_and_publishes_once():
    report = generate_dla(maxcut_generators(Graph.cycle(3)))
    again = generate_dla(maxcut_generators(Graph.cycle(3)))
    assert report == again and not report != again
    with pytest.raises(TypeError):
        hash(report)
    assert "basis" not in vars(report)
    basis = report.basis
    assert report.basis is basis and vars(report)["basis"] is basis
    other = generate_dla(maxcut_generators(Graph.path(3)))
    assert report != other
    report.degree = 99
    assert report != again


def test_a_report_never_equals_another_type():
    report = generate_dla(maxcut_generators(Graph.cycle(3)))
    assert report.__eq__("x") is NotImplemented
    assert (report == "x") is False and report != "x"
