"""Command-line front end for the DLA computations.

Commands
--------
compute
    Run the Lie-closure on one graph and report dimension, degree,
    center/ideal dimensions, the automorphism orbit bound, and the
    parity sanity flag.
verify-cycle / verify-complete
    Run the full closed-form verification suite for the cycle or
    complete family at one size; one line per check.
variance
    Loss-function expectation, variance, and per-component purities
    (cycle family only — no other family here has a proven component
    decomposition).
bounds
    Dimension bounds from graph symmetry without running the closure.
sweep
    compute over a range of sizes for one family, optionally as CSV.

Output is JSON by default (schema field ``dla-lab/1``), with floats
pre-rounded to 12 significant digits and exact rationals rendered as
``"p/q"`` strings so that reports are byte-stable: re-parsing a report
and re-emitting it reproduces the exact bytes.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
import time
from fractions import Fraction

from .closure import (
    DEFAULT_MEMORY_BUDGET,
    DlaReport,
    ResourceBudgetError,
    center_dimension,
    check_split,
    generate_dla,
    generate_dla_orbit_compressed,
    ideal_dimension,
    ideal_ledger,
    span_ledger,
)
from .graphs import Graph, dimension_bounds, kn_formulas, maxcut_generators, parse_graph_spec

SCHEMA_VERSION = "dla-lab/1"
DEFAULT_TOLERANCE = 1e-9

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

#: largest n at which verify-cycle expands orbits to raw Pauli strings
#: for the bracket-table cross-check (cost ~ (3n)^2 * 2n)
EXPANSION_CHECK_CAP = 8


class UsageError(ValueError):
    """Bad command input detected after argument parsing."""


# ---------------------------------------------------------------------------
# report formatting


def _jsonable(value):
    """Normalize a report value for byte-stable JSON emission."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


def render_json(payload: dict) -> str:
    """Serialize a report; stable key order, 12-significant-digit floats."""
    return json.dumps(_jsonable(payload), indent=2)


def _render_text(payload: dict) -> str:
    lines = []
    for key, value in _jsonable(payload).items():
        if key == "checks":
            for chk in value:
                res = chk.get("residual")
                res_s = "-" if res is None else f"{res:.3e}" if isinstance(res, float) else str(res)
                lines.append(f"  {chk['name']:<34} {chk['status']:<4} residual={res_s}")
        elif key == "rows":
            for row in value:
                lines.append("  " + "  ".join(f"{k}={v}" for k, v in row.items()))
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines)


def _render_csv(rows: list[dict]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(_jsonable(row))
    return buf.getvalue().rstrip("\n")


def _emit(payload: dict, output: str) -> None:
    if output == "json":
        print(render_json(payload))
    elif output == "text":
        print(_render_text(payload))
    else:  # csv, which only sweep offers
        print(_render_csv(payload["rows"]))


# ---------------------------------------------------------------------------
# shared computation pieces


def _basis_parity_ok(report: DlaReport) -> bool:
    """Every basis element YZ-even, with identity and all-X excluded.

    Reads the keys of the closure ledger's rows: every basis of a span
    touches the same keys.  Type keys ``(p, q, r)`` count X, Y and Z;
    packed keys ``(x_mask << n) | z_mask`` have one z bit per Y or Z.
    Both checks are invariant under qubit permutations, so testing orbit
    representatives is equivalent to testing every string.
    """
    n = report.n
    keys = (key for row in report.ledger.rows for key in row)
    if report.coords == "complete-orbit":
        return all(
            (q + r) % 2 == 0 and (p, q, r) not in ((0, 0, 0), (n, 0, 0))
            for p, q, r in keys
        )
    mask = (1 << n) - 1
    return all(
        (key & mask).bit_count() % 2 == 0 and key not in (0, mask << n)
        for key in keys
    )


def _compute_row(graph, orbit_compress: bool, memory_budget: int) -> dict:
    start = time.perf_counter()
    if orbit_compress:
        report = generate_dla_orbit_compressed(graph, memory_budget)
    else:
        report = generate_dla(maxcut_generators(graph), memory_budget)
    cdim = center_dimension(report)
    idim = ideal_dimension(report)
    check_split(report, cdim, idim)
    runtime_ms = int(round((time.perf_counter() - start) * 1000))
    bounds = dimension_bounds(graph)
    return {
        "n": graph.n,
        "dim": report.dimension,
        "degree": report.degree,
        "center_dim": cdim,
        "ideal_dim": idim,
        "aut_bound": bounds["aut_bound"],
        "yz_even_ok": _basis_parity_ok(report),
        "runtime_ms": runtime_ms,
    }


class _CheckList:
    """Accumulates named pass/fail/skip checks for the verify commands."""

    def __init__(self):
        self.checks: list[dict] = []

    def add(self, name: str, ok: bool, residual: float | None) -> None:
        self.checks.append(
            {
                "name": name,
                "status": "ok" if ok else "fail",
                "residual": residual,
            }
        )

    def skip(self, name: str) -> None:
        self.checks.append({"name": name, "status": "skip", "residual": None})

    @property
    def all_ok(self) -> bool:
        return all(c["status"] != "fail" for c in self.checks)


# ---------------------------------------------------------------------------
# commands


def cmd_compute(args: argparse.Namespace) -> int:
    graph = parse_graph_spec(args.graph)
    row = _compute_row(graph, args.orbit_compress, args.memory_budget)
    payload = {"schema": SCHEMA_VERSION, "command": "compute", "graph": args.graph}
    payload.update(row)
    _emit(payload, args.output)
    return EXIT_OK


def cmd_verify_cycle(args: argparse.Namespace) -> int:
    from .cycle_forms import (
        ab_power_coeffs,
        ab_power_trig_coeffs,
        ab_recursion_identity_ok,
        ab_recursion_identity_residual,
        alternating_eigen_residual,
        canonical_relation_residuals,
        cycle_basis,
        cycle_center,
        orbit_bracket,
        su2_relation_residuals,
    )
    from .paulis import commutator
    from .spectral import RECOMPUTE_VERTEX_CAP, cycle_spectral_report

    n = args.n
    if n < 3:
        raise UsageError("n >= 3 required for the cycle family")
    tol = args.tolerance
    checks = _CheckList()

    report = generate_dla_orbit_compressed(Graph.cycle(n), args.memory_budget)
    checks.add(
        "dimension-3n-minus-1",
        report.dimension == 3 * n - 1,
        float(abs(report.dimension - (3 * n - 1))),
    )
    cdim = center_dimension(report)
    checks.add("center-dimension-2", cdim == 2, float(abs(cdim - 2)))

    basis = cycle_basis(n)
    c1, c2 = cycle_center(n)
    center_res = max(
        orbit_bracket(c, b).max_abs() for c in (c1, c2) for b in basis
    )
    checks.add("center-commutes", center_res == 0, float(center_res))

    # the explicit orbit basis spans the same space as the closure: the
    # dimensions agree (first check) and every closure orbit key is one of
    # the basis orbits, each basis element being a single orbit
    orbit_keys = {key for b in basis for key in b.compressed()}
    stray = sum(1 for row in report.ledger.rows for key in row if key not in orbit_keys)
    checks.add("closure-span-in-orbit-basis", stray == 0, float(stray))

    if n <= EXPANSION_CHECK_CAP:
        expanded = [b.expand() for b in basis]
        worst = 0
        for a, ea in zip(basis, expanded):
            for b, eb in zip(basis, expanded):
                diff = orbit_bracket(a, b).expand() - commutator(ea, eb)
                worst = max(worst, diff.max_abs())
        checks.add("bracket-table-homomorphism", worst == 0, float(worst))
    else:
        checks.skip("bracket-table-homomorphism")

    res = max(canonical_relation_residuals(n).values())
    checks.add("canonical-bracket-relations", res < tol, res)
    res = max(su2_relation_residuals(n).values())
    checks.add("su2-bracket-relations", res < tol, res)
    res = alternating_eigen_residual(n)
    checks.add("alternating-power-eigenvalue", res < tol, res)

    checks.add(
        "power-recursion-identity",
        ab_recursion_identity_ok(n),
        ab_recursion_identity_residual(n),
    )
    rows = ab_power_coeffs(n, n - 1)
    trig_res = 0.0
    for k in range(1, n):
        row = rows[k - 1]
        trig = ab_power_trig_coeffs(n, k)
        scale = max(abs(c) for c in row)
        trig_res = max(
            trig_res,
            max(abs(a - b) for a, b in zip(row, trig)) / scale,
        )
    checks.add("power-trig-closed-form", trig_res < tol, trig_res)

    if n <= RECOMPUTE_VERTEX_CAP:
        spectral = cycle_spectral_report(n, tolerance=math.inf)
        checks.add(
            "spectral-closed-forms",
            spectral.cross_residual < tol,
            spectral.cross_residual,
        )
    else:
        checks.skip("spectral-closed-forms")

    payload = {
        "schema": SCHEMA_VERSION,
        "command": "verify-cycle",
        "n": n,
        "tolerance": tol,
        "checks": checks.checks,
        "ok": checks.all_ok,
    }
    _emit(payload, args.output)
    return EXIT_OK if checks.all_ok else EXIT_VERIFY


def cmd_verify_complete(args: argparse.Namespace) -> int:
    from .complete_forms import DECOMPOSITION_CONJECTURE, fact_suite, kn_basis, kn_ideal_basis

    n = args.n
    if n < 2:
        raise UsageError("n >= 2 required for the complete family")
    checks = _CheckList()

    report = generate_dla_orbit_compressed(Graph.complete(n), args.memory_budget)
    forms = kn_formulas(n)
    checks.add(
        "dimension-formula",
        report.dimension == forms["dim"],
        float(abs(report.dimension - forms["dim"])),
    )
    cdim = center_dimension(report)
    checks.add(
        "center-dimension-formula",
        cdim == forms["center_dim"],
        float(abs(cdim - forms["center_dim"])),
    )
    ideal = ideal_ledger(report)
    idim = ideal.rank
    checks.add(
        "ideal-dimension-formula",
        idim == forms["ideal_dim"],
        float(abs(idim - forms["ideal_dim"])),
    )

    basis = kn_basis(n)
    ledger = span_ledger([v.to_dict() for v in basis], args.memory_budget)
    outside = sum(
        0 if report.ledger.contains(v.to_dict()) else 1 for v in basis
    )
    ok = (
        len(basis) == forms["dim"]
        and ledger.rank == forms["dim"]
        and outside == 0
    )
    checks.add(
        "explicit-basis-spans-closure",
        ok,
        float(abs(len(basis) - forms["dim"]) + abs(ledger.rank - forms["dim"]) + outside),
    )

    spanners = [v.to_dict() for v in kn_ideal_basis(n)]
    ledger = span_ledger(spanners, args.memory_budget)
    ok = len(spanners) == forms["ideal_dim"] == ledger.rank
    checks.add(
        "ideal-spanning-set-dimension",
        ok,
        float(abs(len(spanners) - forms["ideal_dim"]) + abs(ledger.rank - forms["ideal_dim"])),
    )

    for name, ok in fact_suite(report, ideal, (spanners, ledger)).items():
        checks.add(name, ok, None if ok else 1.0)

    checks.add(
        "dimension-below-parity-bound",
        forms["dim"] < forms["yz_bound"] < forms["binom_bound"],
        float(max(0, forms["dim"] - forms["yz_bound"] + 1)),
    )

    payload = {
        "schema": SCHEMA_VERSION,
        "command": "verify-complete",
        "n": n,
        "tolerance": args.tolerance,
        "checks": checks.checks,
        "ok": checks.all_ok,
        "note": DECOMPOSITION_CONJECTURE,
    }
    _emit(payload, args.output)
    return EXIT_OK if checks.all_ok else EXIT_VERIFY


def cmd_variance(args: argparse.Namespace) -> int:
    from .spectral import cycle_spectral_report

    if args.family != "cycle":
        raise UsageError(
            f"variance needs --family cycle: only the cycle family has a "
            f"proven decomposition into components (got {args.family!r})"
        )
    n = args.n
    if n < 3:
        raise UsageError("n >= 3 required for the cycle family")
    report = cycle_spectral_report(n, args.tolerance)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "variance",
        "family": args.family,
        "n": n,
        "expectation": report.expectation,
        "variance": report.variance,
        "per_component_purities": [
            [p.rho, p.obs] for p in report.purity_per_component
        ],
    }
    _emit(payload, args.output)
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    graph = parse_graph_spec(args.graph)
    bounds = dimension_bounds(graph)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "bounds",
        "graph": args.graph,
        "n": graph.n,
        "aut_bound": bounds["aut_bound"],
        "center_bound": bounds["center_bound"],
    }
    if graph.family == "complete":
        forms = kn_formulas(graph.n)
        payload["binom_bound"] = forms["binom_bound"]
        payload["yz_bound"] = forms["yz_bound"]
        payload["dim_formula"] = forms["dim"]
    _emit(payload, args.output)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.family not in ("cycle", "complete"):
        raise UsageError("sweep supports --family cycle or complete")
    floor = 3 if args.family == "cycle" else 2
    lo, hi = args.min, args.max
    if lo < floor or hi < lo:
        raise UsageError(
            f"sweep needs --min and --max with {floor} <= min <= max"
        )
    rows = []
    for n in range(lo, hi + 1):
        graph = parse_graph_spec(f"{args.family}:{n}")
        rows.append(_compute_row(graph, True, args.memory_budget))
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "sweep",
        "family": args.family,
        "rows": rows,
    }
    _emit(payload, args.output)
    return EXIT_OK


_DISPATCH = {
    "compute": cmd_compute,
    "verify-cycle": cmd_verify_cycle,
    "verify-complete": cmd_verify_complete,
    "variance": cmd_variance,
    "bounds": cmd_bounds,
    "sweep": cmd_sweep,
}


# ---------------------------------------------------------------------------
# argument parsing


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive number")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dla-lab",
        description=(
            "Dynamical Lie algebras of QAOA-MaxCut circuits: closure "
            "computations, closed-form verification, and loss statistics."
        ),
    )
    # each subcommand takes only the options its cmd_* reads
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--memory-budget",
        type=_positive_int,
        default=DEFAULT_MEMORY_BUDGET,
        metavar="ENTRIES",
        help="abort once a closure, center or ideal ledger holds this many "
        "entries (default %(default)s)",
    )
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument(
        "--tolerance",
        type=_positive_float,
        default=DEFAULT_TOLERANCE,
        metavar="EPS",
        help="numeric comparison tolerance (default %(default)s)",
    )
    output, sweep_output = (argparse.ArgumentParser(add_help=False) for _ in range(2))
    output.add_argument(
        "--output",
        choices=("json", "text"),
        default="json",
        help="report format (default json)",
    )
    sweep_output.add_argument(
        "--output",
        choices=("json", "csv", "text"),
        default="json",
        help="report format; csv writes one line per size (default json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "compute",
        parents=[budget, output],
        help="closure dimensions and bounds for one graph",
    )
    p.add_argument(
        "--graph",
        required=True,
        help="cycle:N | complete:N | path:N | file:PATH",
    )
    p.add_argument(
        "--orbit-compress",
        action="store_true",
        help="run in orbit coordinates of the graph's symmetry group",
    )

    for name, blurb in (
        ("verify-cycle", "verify every cycle-family closed form at size n"),
        ("verify-complete", "verify every complete-family closed form at size n"),
    ):
        p = sub.add_parser(name, parents=[budget, tolerance, output], help=blurb)
        p.add_argument("--n", type=int, required=True, help="number of vertices")

    p = sub.add_parser(
        "variance",
        parents=[tolerance, output],
        help="loss expectation/variance and component purities",
    )
    p.add_argument("--family", required=True, help="graph family (cycle)")
    p.add_argument("--n", type=int, required=True, help="number of vertices")

    p = sub.add_parser(
        "bounds",
        parents=[output],
        help="symmetry dimension bounds without running the closure",
    )
    p.add_argument(
        "--graph",
        required=True,
        help="cycle:N | complete:N | path:N | file:PATH",
    )

    p = sub.add_parser(
        "sweep",
        parents=[budget, sweep_output],
        help="orbit-compressed compute over a range of sizes",
    )
    p.add_argument("--family", required=True, help="cycle or complete")
    p.add_argument("--min", type=int, required=True, help="smallest size")
    p.add_argument("--max", type=int, required=True, help="largest size")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ArithmeticError as exc:  # a broken exact invariant
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
