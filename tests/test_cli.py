"""Command-line surface: payload shapes, formats, and exit codes."""

import argparse
import ast
import inspect
import json
import math
import textwrap
from fractions import Fraction

import pytest

from dla_lab import cli, complete_forms
from dla_lab.cli import _DISPATCH, _basis_parity_ok, build_parser, main, render_json
from dla_lab.closure import DlaReport, generate_dla, span_ledger
from dla_lab.graphs import kn_formulas
from dla_lab.paulis import PauliString, PauliVector


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
    ],
    ids=["non-integer", "out-of-range", "self-loop"],
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


def test_verify_cycle_rejects_tiny_ring(capsys):
    code, _, err = run(capsys, "verify-cycle", "--n", "2")
    assert code == 2
    assert "n >= 3" in err


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


@pytest.mark.parametrize(
    "argv, numbers",
    [
        (("compute", "--graph", "cycle:5"), "2 + 13 != 14"),
        (("compute", "--graph", "complete:6", "--orbit-compress"), "1 + 38 != 38"),
        (("sweep", "--family", "cycle", "--min", "3", "--max", "4"), "2 + 7 != 8"),
    ],
)
def test_a_broken_center_ideal_split_fails_verification(capsys, monkeypatch, argv, numbers):
    """compute and sweep check dim(center) + dim([g, g]) == dim(g)."""
    real = cli.ideal_dimension
    monkeypatch.setattr(cli, "ideal_dimension", lambda report: real(report) + 1)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (
        "verification failure: center and commutator ideal must split the "
        f"algebra: {numbers}\n"
    )


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


def test_every_option_is_read_by_its_command():
    """No dead options: each subcommand's option dests are all read as
    ``args.<dest>`` by its handler."""
    subparsers = _subparsers()
    assert set(subparsers) == set(_DISPATCH)
    for name, sub in subparsers.items():
        tree = ast.parse(textwrap.dedent(inspect.getsource(_DISPATCH[name])))
        read = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        }
        dests = {a.dest for a in sub._actions if a.dest != "help"}
        assert dests <= read, (name, dests - read)


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
