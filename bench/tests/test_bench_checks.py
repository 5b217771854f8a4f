"""Tests of the benchmark itself: its output checkers, its independent
reference and its span arithmetic.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _cli(*args) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "dla_lab.cli", *args], capture_output=True, text=True, env=ENV, cwd=ROOT
    )
    return proc.returncode, proc.stdout


def _compute_payload(graph: str, n: int, dim: int, center: int, **extra) -> str:
    row = {
        "schema": "dla-lab/1", "command": "compute", "graph": graph, "n": n,
        "dim": dim, "degree": 7, "center_dim": center, "ideal_dim": dim - center,
        "aut_bound": 10 * dim, "yz_even_ok": True, "runtime_ms": 5,
    }
    row.update(extra)
    return json.dumps(row)


# ---------------------------------------------------------------------------
# closed forms


def test_kn_closed_form_matches_the_paper_values():
    assert workloads.kn_closed_form(40) == {"dim": 6141, "center_dim": 1, "ideal_dim": 6140}
    assert workloads.kn_closed_form(3) == {"dim": 8, "center_dim": 2, "ideal_dim": 6}
    assert workloads.kn_closed_form(4)["dim"] == 15


def test_cycle_variance_closed_form_small_case():
    form = workloads.cycle_variance_closed_form(4)
    assert form["expectation"] == 0.0
    assert form["variance"] == pytest.approx(2 / 3)
    assert form["per_component_purities"] == [[0.25, 4.0], [0.0, 4.0], [0.25, 4.0]]


# ---------------------------------------------------------------------------
# checkers reject tampered payloads


def test_compute_checker_rejects_wrong_dim_and_exit_code():
    check = workloads.compute_checker("complete:6", 6, workloads.kn_closed_form(6))
    good = _compute_payload("complete:6", 6, 38, 1)
    assert workloads.kn_closed_form(6)["dim"] == 38
    assert check(0, good) == []
    assert check(0, _compute_payload("complete:6", 6, 37, 1))
    assert check(1, good)
    assert check(0, "not json")


def test_compute_checker_enforces_closure_properties():
    check = workloads.compute_checker("file:g", 5, {"dim": 30})
    assert check(0, _compute_payload("file:g", 5, 30, 1)) == []
    assert check(0, _compute_payload("file:g", 5, 30, 1, ideal_dim=28))
    assert check(0, _compute_payload("file:g", 5, 30, 3, ideal_dim=27))
    assert check(0, _compute_payload("file:g", 5, 30, 1, aut_bound=29))
    assert check(0, _compute_payload("file:g", 5, 30, 1, yz_even_ok=False))


def test_verify_checker_rejects_a_fail_line_and_exit_code():
    check = workloads.verify_checker("verify-cycle", 5, ("ok", "skip"))
    checks = [{"name": "a", "status": "ok", "residual": 0.0}, {"name": "b", "status": "skip", "residual": None}]
    payload = {"schema": "dla-lab/1", "command": "verify-cycle", "n": 5, "checks": checks, "ok": True}
    assert check(0, json.dumps(payload)) == []
    checks[0]["status"] = "fail"
    assert check(0, json.dumps(payload))
    checks[0]["status"] = "ok"
    assert check(1, json.dumps(payload))
    strict = workloads.verify_checker("verify-cycle", 5, ("ok",))
    assert strict(0, json.dumps(payload))


def test_variance_checker_rejects_a_wrong_purity():
    form = workloads.cycle_variance_closed_form(5)
    payload = {"schema": "dla-lab/1", "command": "variance", "family": "cycle", "n": 5, **form}
    check = workloads.variance_checker(5)
    assert check(0, json.dumps(payload)) == []
    payload["per_component_purities"][1] = [0.125, 6.4]
    assert check(0, json.dumps(payload))
    payload["per_component_purities"] = payload["per_component_purities"][:-1]
    assert check(0, json.dumps(payload))


def test_sweep_checker_rejects_a_wrong_row():
    rows = [
        {"n": n, **workloads.cycle_closed_form(n), "aut_bound": 100, "yz_even_ok": True, "runtime_ms": 0}
        for n in range(3, 6)
    ]
    payload = {"schema": "dla-lab/1", "command": "sweep", "family": "cycle", "rows": rows}
    check = workloads.sweep_checker(3, 5)
    assert check(0, json.dumps(payload)) == []
    rows[1]["degree"] += 1
    assert check(0, json.dumps(payload))
    assert workloads.sweep_checker(3, 6)(0, json.dumps(payload))


def test_budget_probe_checker_wants_exit_3():
    check = workloads.exit_code_checker(3)
    assert check(3, "") == []
    assert check(0, "{}")


def test_checkers_accept_real_output_of_small_commands():
    assert workloads.compute_checker("cycle:5", 5, workloads.cycle_closed_form(5))(*_cli("compute", "--graph", "cycle:5")) == []
    code, out = _cli("compute", "--graph", "complete:5", "--orbit-compress")
    assert workloads.compute_checker("complete:5", 5, workloads.kn_closed_form(5))(code, out) == []


# ---------------------------------------------------------------------------
# workloads


def test_workloads_are_deterministic_per_seed(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 7, tmp_path)
        b = workloads.build(name, 7, tmp_path)
        assert [op.args for op in a] == [op.args for op in b]
        assert sum(op.known_fault for op in a) == (1 if name == "complete-orbit" else 0)


def test_relabelled_copy_is_isomorphic():
    corpus = workloads.load_corpus()
    g = next(g for g in corpus["graphs"] if g["name"] == corpus["relabel"])
    edges = workloads.relabelled(g["n"], g["edges"], random.Random(3))
    degrees = lambda es: sorted(sum(v in e for e in es) for v in range(g["n"]))  # noqa: E731
    assert len(edges) == len(g["edges"]) and degrees(edges) == degrees(g["edges"])


# ---------------------------------------------------------------------------
# independent reference


def test_reference_primes_are_prime():
    for p in reference.PRIMES:
        assert p < 2**25 and all(p % f for f in range(2, int(p**0.5) + 1))


def test_reference_matches_closed_forms_on_small_graphs():
    assert reference.reference_values(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]) == {
        "dim": 14, "degree": 8, "center_dim": 2, "ideal_dim": 12,
    }
    k4 = [(j, k) for j in range(4) for k in range(j + 1, 4)]
    values = reference.reference_values(4, k4)
    assert {k: values[k] for k in ("dim", "center_dim", "ideal_dim")} == workloads.kn_closed_form(4)


def test_reference_command_reproduces_the_smallest_stored_graph():
    corpus = workloads.load_corpus()
    smallest = min(corpus["graphs"], key=lambda g: (g["n"], g["dim"]))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "reference.py"), "--check", smallest["name"]],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# spans and per-layer metrics


def _trace(spans, counters=None):
    names = sorted({s[0] for s in spans})
    return {
        "names": names,
        "spans": [[names.index(n), a, b, p] for n, a, b, p in spans],
        "counters": counters or {"ledger_independent": 0, "ledger_entries_peak": 0},
        "import_s": 0.5,
    }


def test_self_time_subtracts_children_and_totals_skip_nested_members():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("closure.generate_dla", 1.0, 5.0, 0),
        ("closure.LinearLedger.insert", 1.5, 2.5, 1),
        ("closure.LinearLedger.insert", 3.0, 3.5, 1),
        ("cycle_forms.ab_recursion_identity_ok", 6.0, 8.0, 0),
        ("cycle_forms.ab_power_coeffs", 6.5, 7.0, 4),
    ]
    m = tracing.layer_metrics([_trace(spans, {"ledger_independent": 1, "ledger_entries_peak": 9})])
    assert m["closure.generate_s"] == pytest.approx(4.0)
    assert m["closure.bracket_s"] == pytest.approx(2.5)
    assert m["closure.ledger_insert_s"] == pytest.approx(1.5)
    assert m["closure.ledger_inserts"] == 2
    assert m["closure.ledger_yield"] == pytest.approx(0.5)
    assert m["closure.ledger_entries_peak"] == 9
    assert m["cycle_forms.power_s"] == pytest.approx(2.0)
    assert m["cli.self_s"] == pytest.approx(4.0)
    assert m["cli.import_s"] == pytest.approx(0.5)
    assert set(m) == set(tracing.metric_units())


def test_traced_command_records_ledger_spans(tmp_path):
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracing.py"), str(out), "--", "compute", "--graph", "cycle:5"],
        capture_output=True, text=True, env=ENV, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert workloads.compute_checker("cycle:5", 5, workloads.cycle_closed_form(5))(0, proc.stdout) == []
    m = tracing.layer_metrics([json.loads(out.read_text())])
    assert m["closure.ledger_independent"] == 14 + (14 - 2) + 12  # closure, adjoint, ideal ranks
    assert m["closure.ledger_inserts"] >= m["closure.ledger_independent"]
    assert m["closure.generate_s"] > 0 and m["symmetry.self_s"] > 0


# ---------------------------------------------------------------------------
# the harness


def test_harness_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cycle-family", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
