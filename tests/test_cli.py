"""Command-line surface: payload shapes, formats, and exit codes."""

import argparse
import ast
import inspect
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from dla_lab import cli, closure, complete_forms, cycle_forms, spectral, symmetry
from dla_lab.cli import _basis_parity_ok, build_parser, main, render_json
from dla_lab.closure import DlaReport, generate_dla, span_ledger
from dla_lab.graphs import Graph, kn_formulas
from dla_lab.paulis import PauliString, PauliVector, commutator
from dla_lab.symmetry import PermGroup


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_cycle_json(capsys):
    code, out, err = run(capsys, "compute", "--graph", "cycle:6")
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["schema"] == "dla-lab/1"
    assert payload["dim"] == 17
    assert payload["degree"] == 10
    assert payload["center_dim"] == 2
    assert payload["ideal_dim"] == 15
    assert payload["yz_even_ok"] is True


def test_compute_complete_orbit_compressed(capsys):
    code, out, _ = run(
        capsys, "compute", "--graph", "complete:5", "--orbit-compress"
    )
    assert code == 0
    assert json.loads(out)["dim"] == 24


def test_compute_path_graph(capsys):
    code, out, _ = run(capsys, "compute", "--graph", "path:3")
    assert code == 0
    assert json.loads(out)["dim"] == 9


def test_compute_graph_from_file(capsys, tmp_path):
    spec = tmp_path / "triangle.graph"
    spec.write_text("3\n# a triangle\n0 1\n1 2\n0 2\n")
    code, out, _ = run(capsys, "compute", "--graph", f"file:{spec}")
    assert code == 0
    assert json.loads(out)["dim"] == 8


@pytest.mark.parametrize(
    "body, message",
    [
        ("3\n0 1\n1 x\n", "bad edge line '1 x'"),
        ("3\n0 1\n0 5\n", "edge (0, 5) out of range for n=3"),
        ("3\n0 1\n1 1\n", "self-loop at vertex 1"),
        ("", "empty graph file"),
        ("three\n0 1\n", "first line must be the vertex count"),
        ("3\n0 1 2\n", "bad edge line '0 1 2'"),
        ("3\n0\n", "bad edge line '0'"),
    ],
    ids=[
        "non-integer", "out-of-range", "self-loop", "empty", "no-vertex-count",
        "three-fields", "one-field",
    ],
)
def test_graph_file_errors_name_the_file(capsys, tmp_path, body, message):
    spec = tmp_path / "bad.graph"
    spec.write_text(body)
    code, out, err = run(capsys, "compute", "--graph", f"file:{spec}")
    assert code == 2
    assert out == ""
    assert err == f"error: {spec}: {message}\n"


def test_orbit_compression_over_the_cap_is_a_usage_error(capsys, tmp_path):
    spec = tmp_path / "path11.graph"
    spec.write_text("11\n" + "".join(f"{j} {j + 1}\n" for j in range(10)))
    code, out, err = run(
        capsys, "compute", "--graph", f"file:{spec}", "--orbit-compress"
    )
    assert code == 2
    assert out == ""
    assert "capped at n=10" in err


def test_the_triangle_payload_does_not_depend_on_its_label(capsys):
    """cycle:3 and complete:3 are one graph in two coordinate systems."""
    payloads = []
    for spec in ("cycle:3", "complete:3"):
        code, out, err = run(capsys, "compute", "--graph", spec, "--orbit-compress")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload.pop("graph") == spec
        del payload["runtime_ms"]
        payloads.append(payload)
    assert payloads[0] == payloads[1]
    assert payloads[0]["dim"] == 8


def test_orbit_compressed_path_payload_matches_raw(capsys):
    payloads = []
    for extra in ((), ("--orbit-compress",)):
        code, out, _ = run(capsys, "compute", "--graph", "path:6", *extra)
        assert code == 0
        payload = json.loads(out)
        del payload["runtime_ms"]
        payloads.append(payload)
    assert payloads[0] == payloads[1]
    assert payloads[0]["dim"] == 36


def _raw_closure(*labels):
    return generate_dla(
        [PauliVector(len(s), {PauliString.from_label(s): 1}) for s in labels]
    )


def _type_report(n, key):
    return DlaReport(
        dimension=1,
        degree=0,
        generator_count=1,
        n=n,
        coords="complete-orbit",
        ledger=span_ledger([{key: 1}]),
    )


def test_parity_flag_on_packed_keys():
    assert _basis_parity_ok(_raw_closure("XI", "ZZ"))
    assert not _basis_parity_ok(_raw_closure("ZI", "XI"))  # YZ-odd
    assert not _basis_parity_ok(_raw_closure("II"))  # identity
    assert not _basis_parity_ok(_raw_closure("XX"))  # all-X


def test_parity_flag_on_type_keys():
    assert _basis_parity_ok(_type_report(2, (0, 0, 2)))
    assert not _basis_parity_ok(_type_report(2, (0, 1, 0)))  # YZ-odd
    assert not _basis_parity_ok(_type_report(2, (0, 0, 0)))  # identity
    assert not _basis_parity_ok(_type_report(2, (2, 0, 0)))  # all-X


def test_verify_cycle_passes(capsys):
    code, out, _ = run(capsys, "verify-cycle", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    names = {c["name"] for c in payload["checks"]}
    assert "dimension-3n-minus-1" in names
    assert all(c["status"] == "ok" for c in payload["checks"])


def test_a_failing_ring_check_exits_one(capsys, monkeypatch):
    """A residual over tolerance fails its own row only; the whole payload
    is still printed, with ``ok`` false, and the exit code is 1."""
    monkeypatch.setattr(cycle_forms, "alternating_eigen_residual", lambda n: 1.0)
    code, out, err = run(capsys, "verify-cycle", "--n", "5")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["ok"] is False
    failures = [
        (c["name"], c["residual"]) for c in payload["checks"] if c["status"] == "fail"
    ]
    assert failures == [("alternating-power-eigenvalue", 1.0)]
    assert len(payload["checks"]) == 11


def test_verify_complete_passes_off_the_boundary(capsys, monkeypatch):
    """The ideal spanners are built once, for the CLI check and the fact
    suite together."""
    calls = []
    original = complete_forms.kn_ideal_basis

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(complete_forms, "kn_ideal_basis", counted)
    code, out, _ = run(capsys, "verify-complete", "--n", "4")
    assert code == 0
    assert json.loads(out)["ok"] is True
    assert calls == [4]


def test_verify_complete_reports_the_tight_boundary_case(capsys):
    """At three vertices the dimension meets the parity bound exactly,
    so the strict-inequality check honestly fails."""
    code, out, _ = run(capsys, "verify-complete", "--n", "3")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    failures = [
        c["name"] for c in payload["checks"] if c["status"] == "fail"
    ]
    assert failures == ["dimension-below-parity-bound"]


def test_verify_complete_reports_the_two_vertex_boundary_case(capsys):
    """At two vertices the dimension also meets the parity bound (4 = 4),
    and only the strict-inequality check fails."""
    code, out, _ = run(capsys, "verify-complete", "--n", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    failures = [
        c["name"] for c in payload["checks"] if c["status"] == "fail"
    ]
    assert failures == ["dimension-below-parity-bound"]


def test_a_wrong_power_expansion_fails_its_check(capsys, monkeypatch):
    real = cycle_forms.ab_power_expansion_coeffs
    monkeypatch.setattr(
        cycle_forms, "ab_power_expansion_coeffs", lambda n: [real(n)[0] + 1, *real(n)[1:]]
    )
    assert cycle_forms.ab_recursion_identity_ok(5) is False
    code, out, err = run(capsys, "verify-cycle", "--n", "5")
    assert (code, err) == (1, "")
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks if c["status"] == "fail"] == ["power-recursion-identity"]


def _table_check(capsys, n):
    code, out, err = run(capsys, "verify-cycle", "--n", str(n))
    check = next(c for c in json.loads(out)["checks"] if c["name"] == "bracket-table-homomorphism")
    return code, err, check["status"], check["residual"]


def _mutated_table(monkeypatch, n, p1, p2, term, entry):
    """Serve ring size n a copy of its bracket table with one term of one
    cell replaced."""
    table = [list(row) for row in cycle_forms._folded_table(n)]
    cell = list(table[p1][p2])
    cell[term] = entry
    table[p1][p2] = tuple(cell)
    monkeypatch.setattr(cycle_forms, "_folded_table", lambda size: table)


def test_a_wrong_bracket_table_fails_its_check_at_n_10(capsys, monkeypatch):
    """At n = 10 the ring's table is checked against the closure's orbit
    adjoint, so one doubled structure constant fails the check."""
    p1, p2 = next(
        (p1, p2)
        for p1, row in enumerate(cycle_forms._folded_table(10))
        for p2, cell in enumerate(row)
        if cell
    )
    coeff, pos = cycle_forms._folded_table(10)[p1][p2][0]
    _mutated_table(monkeypatch, 10, p1, p2, 0, (2 * coeff, pos))
    code, err, status, residual = _table_check(capsys, 10)
    assert (code, err, status) == (1, "", "fail")
    assert residual > 0


def _raw_table_residual(n):
    """The largest coefficient of table bracket minus Pauli commutator over
    every pair of expanded basis orbits: the check's raw-string form."""
    basis = cycle_forms.cycle_basis(n)
    expanded = [b.expand() for b in basis]
    worst = 0
    for a, ea in zip(basis, expanded):
        for b, eb in zip(basis, expanded):
            diff = cycle_forms.orbit_bracket(a, b).expand() - commutator(ea, eb)
            worst = max(worst, diff.max_abs())
    return float(worst)


@pytest.mark.parametrize("n", range(3, 9))
def test_the_orbit_table_check_reads_the_raw_residual(capsys, monkeypatch, n):
    """Both sides of the check are dihedral-invariant, so its orbit residual
    equals the raw-string residual, with the table intact and under seeded
    single-term mutations: a scaled coefficient or a moved output."""
    assert _table_check(capsys, n) == (0, "", "ok", 0.0)
    rng = random.Random(n)
    cells = [
        (p1, p2)
        for p1, row in enumerate(cycle_forms._folded_table(n))
        for p2, cell in enumerate(row)
        if cell
    ]
    for _ in range(4):
        p1, p2 = rng.choice(cells)
        cell = cycle_forms._folded_table(n)[p1][p2]
        term = rng.randrange(len(cell))
        coeff, pos = cell[term]
        if rng.random() < 0.5:
            entry = (coeff * rng.choice((0, -1, 2, 3)), pos)
        else:
            entry = (coeff, rng.choice([p for p in range(3 * n - 1) if p != pos]))
        with monkeypatch.context() as m:
            _mutated_table(m, n, p1, p2, term, entry)
            code, err, status, residual = _table_check(capsys, n)
            assert (code, err, status) == (1, "", "fail")
            assert residual == _raw_table_residual(n) > 0


def test_variance_cycle_four(capsys):
    code, out, _ = run(capsys, "variance", "--family", "cycle", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["expectation"] == 0.0
    assert payload["variance"] == pytest.approx(2.0 / 3.0, abs=1e-11)
    assert payload["per_component_purities"] == [
        [0.25, 4.0],
        [0.0, 4.0],
        [0.25, 4.0],
    ]


def test_variance_cycle_five(capsys):
    code, out, _ = run(capsys, "variance", "--family", "cycle", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["expectation"] == pytest.approx(
        1.0 / math.sqrt(5), abs=1e-11
    )
    assert payload["variance"] == pytest.approx(8.0 / 15.0, abs=1e-11)


def test_variance_stops_where_the_purity_overflows_a_float(capsys):
    code, out, err = run(capsys, "variance", "--family", "cycle", "--n", "1024")
    assert (code, out) == (2, "")
    assert "n < 1024" in err
    code, out, _ = run(capsys, "variance", "--family", "cycle", "--n", "1023")
    assert code == 0
    payload = json.loads(out)
    assert payload["expectation"] == pytest.approx(1 / math.sqrt(1023), rel=1e-11)
    assert payload["variance"] == pytest.approx(2 * 1022 / (3 * 1023), rel=1e-11)
    purities = payload["per_component_purities"]
    assert len(purities) == 1022
    assert purities[0] == pytest.approx([2.0**-1021, 2.0**1023 / 1023], rel=1e-11)
    assert purities[1] == pytest.approx([0.0, 2.0**1023 / 1023], rel=1e-11)


def test_variance_where_the_purities_sum_an_ulp_above_the_whole(capsys):
    code, out, err = run(capsys, "variance", "--family", "cycle", "--n", "93")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["expectation"] == pytest.approx(1 / math.sqrt(93), rel=1e-11)
    assert payload["variance"] == pytest.approx(2 * 92 / (3 * 93), rel=1e-11)


def test_variance_rejects_other_families(capsys):
    code, _, err = run(capsys, "variance", "--family", "complete", "--n", "4")
    assert code == 2
    assert "cycle" in err


def test_bounds_complete_graph(capsys):
    code, out, _ = run(capsys, "bounds", "--graph", "complete:6")
    assert code == 0
    payload = json.loads(out)
    assert payload["binom_bound"] == 84
    assert payload["yz_bound"] == 42
    assert payload["dim_formula"] == 38


def test_bounds_over_the_automorphism_cap(capsys, tmp_path):
    """An 11-vertex path is over the search's vertex cap: no aut_bound."""
    spec = tmp_path / "path11.graph"
    spec.write_text("11\n" + "".join(f"{j} {j + 1}\n" for j in range(10)))
    code, out, err = run(capsys, "bounds", "--graph", f"file:{spec}")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["aut_bound"] is None and payload["center_bound"] == 2


def test_sweep_csv_shape(capsys):
    code, out, _ = run(
        capsys,
        "sweep",
        "--family",
        "cycle",
        "--min",
        "3",
        "--max",
        "7",
        "--output",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "n,dim,degree,center_dim,ideal_dim,aut_bound,yz_even_ok,runtime_ms"
    )
    assert len(lines) == 1 + 5
    dims = [int(line.split(",")[1]) for line in lines[1:]]
    assert dims == [3 * n - 1 for n in range(3, 8)]


def test_csv_is_sweep_only(capsys, monkeypatch):
    """csv is rejected while parsing, before any closure runs."""

    def no_closure(*args, **kwargs):
        raise AssertionError("a closure ran before csv was rejected")

    monkeypatch.setattr(cli, "generate_dla", no_closure)
    monkeypatch.setattr(cli, "generate_dla_orbit_compressed", no_closure)
    for argv in (
        ("compute", "--graph", "cycle:4"),
        ("compute", "--graph", "complete:40", "--orbit-compress"),
        ("verify-cycle", "--n", "12"),
        ("verify-complete", "--n", "4"),
        ("variance", "--family", "cycle", "--n", "4"),
        ("bounds", "--graph", "cycle:4"),
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output", "csv"])
        assert exc.value.code == 2
        assert "csv" in capsys.readouterr().err


def test_memory_budget_exit_code(capsys):
    # the second generator overflows the budget, before round 1
    code, _, err = run(
        capsys, "compute", "--graph", "cycle:8", "--memory-budget", "10"
    )
    assert code == 3
    assert "budget" in err
    assert "gave up in closure round 0" in err


def test_memory_budget_bounds_the_center_stage(capsys):
    # the closure ledger stays under 5000 entries; the center ledger does not
    code, out, err = run(
        capsys, "compute", "--graph", "complete:24", "--orbit-compress",
        "--memory-budget", "5000",
    )
    assert code == 3
    assert out == ""
    assert "center stage" in err


def test_center_and_ideal_fit_the_closure_budget_of_raw_complete_7(capsys):
    """The closure of raw complete:7 peaks at 11,697 entries; its center
    and ideal, ranked in pivot coordinates, need 239 and 73."""
    code, out, err = run(
        capsys, "compute", "--graph", "complete:7", "--memory-budget", "12000"
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    forms = kn_formulas(7)
    assert [payload[k] for k in ("dim", "center_dim", "ideal_dim")] == [
        forms["dim"], forms["center_dim"], forms["ideal_dim"]
    ]


def _skew_ideal_rank(monkeypatch, skew):
    """Pass every [g, g] ledger that closure ranks through skew(report, ledger)."""
    real = closure._rank_ledger

    def skewed(report, stage, vectors):
        led = real(report, stage, vectors)
        return skew(report, led) if stage == "ideal" else led

    monkeypatch.setattr(closure, "_rank_ledger", skewed)


def _one_row_more(report, led):
    led.insert({report.dimension: 1})  # a key outside the pivot coordinates
    return led


@pytest.mark.parametrize(
    "argv, numbers",
    [
        (("compute", "--graph", "cycle:5"), "2 + 13 != 14"),
        (("compute", "--graph", "complete:6", "--orbit-compress"), "1 + 38 != 38"),
        (("sweep", "--family", "cycle", "--min", "3", "--max", "4"), "2 + 7 != 8"),
        (("verify-cycle", "--n", "5"), "2 + 13 != 14"),
    ],
)
def test_a_broken_center_ideal_split_fails_verification(capsys, monkeypatch, argv, numbers):
    """compute, sweep and verify-cycle check dim(center) + dim([g, g]) ==
    dim(g), through closure: here its [g, g] ledger gets one row too many."""
    _skew_ideal_rank(monkeypatch, _one_row_more)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (
        "verification failure: center and commutator ideal must split the "
        f"algebra: {numbers}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [("verify-complete", "--n", "6"), ("compute", "--graph", "complete:6", "--orbit-compress")],
    ids=["verify-complete", "compute"],
)
def test_a_split_broken_by_a_short_ideal_fails_every_command(capsys, monkeypatch, argv):
    """With closure's [g, g] ranked one row short, verify-complete prints no
    payload, as compute does: the report checks its own split."""
    _skew_ideal_rank(monkeypatch, lambda report, led: span_ledger(led.rows[1:]))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (
        "verification failure: center and commutator ideal must split the "
        "algebra: 1 + 36 != 38\n"
    )


def test_a_sweep_row_enumerates_its_group_once(capsys, monkeypatch):
    """The closure and the bounds of one ring share its dihedral group:
    one enumeration per size."""
    symmetry.graph_group(Graph.path(2))  # no ring's group left over from another test
    enumerated = []
    real = PermGroup.elements

    def counted(group):
        if group._elements is None:
            enumerated.append(group.n)
        return real(group)

    monkeypatch.setattr(PermGroup, "elements", counted)
    code, _, err = run(capsys, "sweep", "--family", "cycle", "--min", "3", "--max", "6")
    assert (code, err) == (0, "")
    assert enumerated == [3, 4, 5, 6]


_COUNT_RING_BUILDS = """
import contextlib, io, sys
sys.path.insert(0, {src!r})
from dla_lab import cli, symmetry

enumerated, built = [], []
elements, init = symmetry.PermGroup.elements, symmetry.PackedOrbits.__init__


def counted_elements(group):
    if group._elements is None:
        enumerated.append(group.n)
    return elements(group)


def counted_init(orbits, group):
    built.append(group.n)
    init(orbits, group)


symmetry.PermGroup.elements = counted_elements
symmetry.PackedOrbits.__init__ = counted_init
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify-cycle", "--n", "8"])
print(code, enumerated, built)
"""


def test_verify_cycle_builds_one_dihedral_group_and_one_orbit_map():
    """The closure and the ring vocabulary read one group and its one orbit
    map.  A fresh interpreter, so no group that another test left in
    ``graph_group`` hides a second build."""
    src = str(Path(__file__).parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_RING_BUILDS.format(src=src)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.stdout, proc.stderr) == ("0 [8] [8]\n", "")


@pytest.mark.parametrize(
    "n, tol, relations, residual",
    [("6", "1e-16", "fail", 1.42108547152e-14), ("12", "1e-15", "ok", 2.72848410532e-12)],
)
def test_a_failed_spectral_check_still_reports_its_residual(capsys, n, tol, relations, residual):
    """Below round-off the spectral recompute fails; verify-cycle reruns it
    without a bound only to record the residual, and goes on to exit 1."""
    code, out, err = run(capsys, "verify-cycle", "--n", n, "--tolerance", tol)
    assert (code, err) == (1, "")
    checks = {c["name"]: (c["status"], c["residual"]) for c in json.loads(out)["checks"]}
    assert checks["spectral-closed-forms"] == ("fail", residual)
    assert checks["canonical-bracket-relations"][0] == relations
    assert checks["su2-bracket-relations"][0] == relations


@pytest.mark.parametrize(
    "argv, message",
    [
        # each family floor is stated once, by the call that builds the size
        ("variance --family cycle --n 2", "cycle needs n >= 3"),
        ("verify-complete --n 1", "complete graph needs n >= 2"),
        ("sweep --family cycle --min 2 --max 4", "cycle needs n >= 3"),
        ("verify-cycle --n 2", "cycle needs n >= 3"),
        ("sweep --family complete --min 1 --max 3", "complete graph needs n >= 2"),
        ("sweep --family cycle --min 5 --max 4", "sweep needs --min <= --max"),
        ("sweep --family path --min 3 --max 4", "sweep supports --family cycle or complete"),
        ("compute --graph cycle:x", "graph spec 'cycle:x': 'x' is not an integer"),
    ],
)
def test_input_errors_exit_two_with_their_message(capsys, argv, message):
    assert run(capsys, *argv.split()) == (2, "", f"error: {message}\n")


def test_verify_cycle_checks_the_moments_range_before_its_closure(capsys, monkeypatch):
    """Past the float range of the loss moments, verify-cycle exits 2 with
    spectral's message before the ring's closure and relation checks run."""
    monkeypatch.setattr(
        cli, "generate_dla_orbit_compressed", lambda *a: pytest.fail("the closure ran")
    )
    message = (
        "the cycle loss moments need n < 1024: the measurement's purity 2^n "
        "overflows a float (got n = 1024)"
    )
    assert run(capsys, "verify-cycle", "--n", "1024") == (2, "", f"error: {message}\n")


def test_verify_cycle_builds_no_ring_past_the_moments_range(capsys, monkeypatch):
    """The float-range exit comes before any ring is built: a ring of
    millions of vertices took seconds and gigabytes only to be dropped."""
    build = Graph.cycle

    def guarded(n):
        if n > 1023:
            pytest.fail(f"built a {n}-vertex ring")
        return build(n)

    monkeypatch.setattr(Graph, "cycle", staticmethod(guarded))
    code, out, err = run(capsys, "verify-cycle", "--n", "3000000")
    assert (code, out) == (2, "")
    assert err.startswith("error: the cycle loss moments need n < 1024")


def test_the_ring_floor_reads_the_same_from_both_cycle_commands(capsys):
    """verify-cycle and variance both take the floor from Graph.cycle."""
    verify = run(capsys, "verify-cycle", "--n", "2")
    variance = run(capsys, "variance", "--family", "cycle", "--n", "2")
    assert verify == variance == (2, "", "error: cycle needs n >= 3\n")


def test_verify_cycle_leaves_the_recompute_cap_to_spectral(capsys, monkeypatch):
    """Past spectral's cap the report is the closed forms alone, so the
    check is skipped with no residual and no recompute is attempted."""
    def refuse(n, tolerance):
        raise AssertionError(f"recomputed at n={n}")

    monkeypatch.setattr(spectral, "_recomputed_forms", refuse)
    code, out, err = run(capsys, "verify-cycle", "--n", "13")
    assert (code, err) == (0, "")
    checks = {c["name"]: (c["status"], c["residual"]) for c in json.loads(out)["checks"]}
    assert checks["spectral-closed-forms"] == ("skip", None)


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    ["compute --graph cycle:6", "sweep --family cycle --min 3 --max 40"],
    ids=["compute", "sweep"],
)
def test_a_closed_stdout_exits_141_in_silence(argv, unbuffered):
    """A reader that has gone (``| head -1``) is no usage error: the write
    fails inside ``main``, which exits 128 + SIGPIPE with nothing on stderr.
    The pipe's read end is closed before the child starts."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dla_lab.cli", *argv.split()],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_variance_below_round_off_is_a_verification_failure(capsys):
    """A tolerance tighter than float round-off fails the recompute's
    orthogonality check: exit 1, naming n and the tolerance."""
    code, out, err = run(
        capsys, "variance", "--family", "cycle", "--n", "6", "--tolerance", "1e-16"
    )
    assert (code, out) == (1, "")
    assert err.startswith("verification failure: ")
    assert "n=6" in err and "1e-16" in err


@pytest.mark.parametrize("tol", ["1e-9", "1e-12", "1e-14"])
def test_verify_cycle_and_variance_agree_on_the_spectral_check(capsys, tol):
    """Both commands judge the recompute by one rule, so at every size
    with a recompute they pass or fail it together."""
    for n in map(str, range(3, 13)):
        code, _, _ = run(capsys, "variance", "--family", "cycle", "--n", n, "--tolerance", tol)
        _, out, _ = run(capsys, "verify-cycle", "--n", n, "--tolerance", tol)
        checks = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
        assert (code == 0) == (checks["spectral-closed-forms"] == "ok"), n

def test_bad_graph_spec(capsys):
    code, _, err = run(capsys, "compute", "--graph", "blob:9")
    assert code == 2
    assert "graph" in err.lower()


def test_unknown_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_json_rendering_is_stable_and_rational_aware(capsys):
    assert render_json({"x": Fraction(3, 4)}) == '{\n  "x": "3/4"\n}'
    code, out, _ = run(capsys, "variance", "--family", "cycle", "--n", "6")
    assert code == 0
    assert render_json(json.loads(out)) == out.rstrip("\n")


def _subparsers():
    action = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def _unread_options(parser: argparse.ArgumentParser, *sources: str) -> set[str]:
    """The option dests of ``parser`` that no source reads as ``args.<dest>``."""
    read = {
        node.attr
        for source in sources
        for node in ast.walk(ast.parse(textwrap.dedent(source)))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }
    return {a.dest for a in parser._actions if a.dest != "help"} - read


def test_every_option_is_read_by_its_command():
    """No dead options: each subcommand's option dests are all read as
    ``args.<dest>``, by the handler its subparser carries or by ``main``,
    which emits every payload in ``args.output``."""
    shared = inspect.getsource(main)
    for name, sub in _subparsers().items():
        handler = sub.get_default("run")
        assert handler is not None, f"{name} carries no handler"
        assert _unread_options(sub, inspect.getsource(handler), shared) == set(), name


def test_an_unread_option_is_caught():
    parser = argparse.ArgumentParser()
    parser.add_argument("--a")
    parser.add_argument("--b")
    handler = "def cmd(args):\n    return {'a': args.a, 'b': b}\n"
    assert _unread_options(parser, handler) == {"b"}


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--graph", "cycle:4", "--tolerance", "1e-6"),
        ("sweep", "--family", "cycle", "--min", "3", "--max", "3",
         "--tolerance", "1e-6"),
        ("bounds", "--graph", "cycle:4", "--tolerance", "1e-6"),
        ("bounds", "--graph", "cycle:4", "--memory-budget", "100"),
        ("variance", "--family", "cycle", "--n", "4", "--memory-budget", "100"),
    ],
)
def test_options_a_command_ignores_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_kept_options_still_parse(capsys):
    code, out, _ = run(
        capsys, "verify-complete", "--n", "4", "--tolerance", "1e-6",
        "--memory-budget", "100000", "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-6
    code, out, _ = run(
        capsys, "variance", "--family", "cycle", "--n", "4",
        "--tolerance", "1e-6", "--output", "text",
    )
    assert code == 0
    assert "variance" in out


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ("verify-cycle", "--n", "4"),
        ("verify-complete", "--n", "4"),
        ("variance", "--family", "cycle", "--n", "4"),
    ],
)
def test_tolerance_must_be_finite(capsys, argv, value):
    """NaN passes no comparison and inf passes every one, and neither
    is valid JSON in the payload, so both are usage errors."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tolerance", value])
    assert exc.value.code == 2
    assert "--tolerance: must be a finite positive number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, option",
    [
        (("compute", "--graph", "cycle:4", "--memory-budget", "1e3"), "--memory-budget"),
        (("verify-cycle", "--n", "4", "--tolerance", "abc"), "--tolerance"),
    ],
)
def test_unparsable_numbers_name_the_option(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: must be a" in err
    assert "_positive" not in err
