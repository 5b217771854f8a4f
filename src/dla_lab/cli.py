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

Each ``cmd_*`` handler returns only its payload body.  ``main`` alone
adds the ``schema``/``command`` header, emits the payload in the chosen
format and sets the exit code: 0 success, 1 verification failure (a
payload whose ``ok`` is false, or a broken exact invariant), 2 usage or
parse error, 3 resource budget exceeded, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time
from fractions import Fraction

from .closure import (
    DEFAULT_MEMORY_BUDGET,
    DlaReport,
    ResourceBudgetError,
    center_dimension,
    generate_dla,
    generate_dla_orbit_compressed,
    ideal_dimension,
    letter_counts,
    span_ledger,
)
from .graphs import Graph, dimension_bounds, kn_formulas, maxcut_generators, parse_graph_spec

SCHEMA_VERSION = "dla-lab/1"
DEFAULT_TOLERANCE = 1e-9

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, silent: the reader closed stdout

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
    sys.stdout.flush()  # a closed stdout fails here, inside main


# ---------------------------------------------------------------------------
# shared computation pieces


def _basis_parity_ok(report: DlaReport) -> bool:
    """Every basis element YZ-even, with identity and all-X excluded.

    Reads the letter counts of the keys of the closure ledger's rows:
    every basis of a span touches the same keys.  Both checks are
    invariant under qubit permutations, so testing orbit representatives
    is equivalent to testing every string.
    """
    n = report.n
    excluded = ((0, 0, 0), (n, 0, 0))  # the identity and all-X
    counts = (letter_counts(n, key) for row in report.ledger.rows for key in row)
    return all(
        (ny + nz) % 2 == 0 and (nx, ny, nz) not in excluded for nx, ny, nz in counts
    )


def _compute_row(graph, orbit_compress: bool, memory_budget: int) -> dict:
    start = time.perf_counter()
    if orbit_compress:
        report = generate_dla_orbit_compressed(graph, memory_budget)
    else:
        report = generate_dla(maxcut_generators(graph), memory_budget)
    cdim = center_dimension(report)
    idim = ideal_dimension(report)  # raises ArithmeticError on a broken split
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


def _check(name: str, ok: bool | None, residual: float | None = None) -> dict:
    """One verify check record; ``ok=None`` marks a skipped check."""
    status = "skip" if ok is None else "ok" if ok else "fail"
    return {"name": name, "status": status, "residual": residual}


def _count_check(name: str, got: int, want: int) -> dict:
    """An exact count that must equal its closed form; residual |got - want|."""
    return _check(name, got == want, float(abs(got - want)))


def _verify_fields(n: int, tolerance: float, checks: list[dict]) -> dict:
    """The fields every verify payload shares; ``ok`` unless a check failed."""
    return {
        "n": n,
        "tolerance": tolerance,
        "checks": checks,
        "ok": all(c["status"] != "fail" for c in checks),
    }


# ---------------------------------------------------------------------------
# commands: each returns its payload body, the keys after the header


def cmd_compute(args: argparse.Namespace) -> dict:
    graph = parse_graph_spec(args.graph)
    return {
        "graph": args.graph,
        **_compute_row(graph, args.orbit_compress, args.memory_budget),
    }


def cmd_verify_cycle(args: argparse.Namespace) -> dict:
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
    from .spectral import cycle_spectral_report

    n = args.n
    tol = args.tolerance

    report = generate_dla_orbit_compressed(Graph.cycle(n), args.memory_budget)
    checks = [
        _count_check("dimension-3n-minus-1", report.dimension, 3 * n - 1),
        _count_check("center-dimension-2", center_dimension(report), 2),
    ]

    basis = cycle_basis(n)
    c1, c2 = cycle_center(n)
    center_res = max(
        orbit_bracket(c, b).max_abs() for c in (c1, c2) for b in basis
    )
    checks.append(_check("center-commutes", center_res == 0, float(center_res)))

    # the explicit orbit basis spans the same space as the closure: the
    # dimensions agree (first check) and every closure orbit key is one of
    # the basis orbits, each basis element being a single orbit
    orbit_keys = {key for b in basis for key in b.compressed()}
    stray = sum(1 for row in report.ledger.rows for key in row if key not in orbit_keys)
    checks.append(_check("closure-span-in-orbit-basis", stray == 0, float(stray)))

    if n <= EXPANSION_CHECK_CAP:
        expanded = [b.expand() for b in basis]
        worst = 0
        for a, ea in zip(basis, expanded):
            for b, eb in zip(basis, expanded):
                diff = orbit_bracket(a, b).expand() - commutator(ea, eb)
                worst = max(worst, diff.max_abs())
        checks.append(_check("bracket-table-homomorphism", worst == 0, float(worst)))
    else:
        checks.append(_check("bracket-table-homomorphism", None))

    for name, res in (
        ("canonical-bracket-relations", max(canonical_relation_residuals(n).values())),
        ("su2-bracket-relations", max(su2_relation_residuals(n).values())),
        ("alternating-power-eigenvalue", alternating_eigen_residual(n)),
    ):
        checks.append(_check(name, res < tol, res))

    checks.append(_check(
        "power-recursion-identity",
        ab_recursion_identity_ok(n),
        ab_recursion_identity_residual(n),
    ))
    trig_res = max(
        max(abs(a - b) for a, b in zip(row, ab_power_trig_coeffs(n, k)))
        / max(map(abs, row))
        for k, row in enumerate(ab_power_coeffs(n, n - 1), 1)
    )
    checks.append(_check("power-trig-closed-form", trig_res < tol, trig_res))

    # pass/fail is variance's call, and whether to recompute is spectral's;
    # a failed report is run again without a bound only to show its residual
    try:
        spectral, ok = cycle_spectral_report(n, tol), True
    except ArithmeticError:
        spectral, ok = cycle_spectral_report(n, math.inf), False
    residual = spectral.cross_residual
    checks.append(_check("spectral-closed-forms", None if residual is None else ok, residual))

    return _verify_fields(n, tol, checks)


def cmd_verify_complete(args: argparse.Namespace) -> dict:
    from .complete_forms import DECOMPOSITION_CONJECTURE, fact_suite, kn_basis, kn_ideal_basis

    n = args.n
    report = generate_dla_orbit_compressed(Graph.complete(n), args.memory_budget)
    forms = kn_formulas(n)
    checks = [
        _count_check("dimension-formula", report.dimension, forms["dim"]),
        _count_check("center-dimension-formula", center_dimension(report), forms["center_dim"]),
        _count_check("ideal-dimension-formula", ideal_dimension(report), forms["ideal_dim"]),
    ]

    basis = kn_basis(n)
    ledger = span_ledger([v.to_dict() for v in basis], args.memory_budget)
    outside = sum(not report.ledger.contains(v.to_dict()) for v in basis)
    ok = len(basis) == forms["dim"] == ledger.rank and outside == 0
    checks.append(_check(
        "explicit-basis-spans-closure",
        ok,
        float(abs(len(basis) - forms["dim"]) + abs(ledger.rank - forms["dim"]) + outside),
    ))

    spanners = [v.to_dict() for v in kn_ideal_basis(n)]
    ledger = span_ledger(spanners, args.memory_budget)
    ok = len(spanners) == forms["ideal_dim"] == ledger.rank
    checks.append(_check(
        "ideal-spanning-set-dimension",
        ok,
        float(abs(len(spanners) - forms["ideal_dim"]) + abs(ledger.rank - forms["ideal_dim"])),
    ))

    for name, ok in fact_suite(report, (spanners, ledger)).items():
        checks.append(_check(name, ok, None if ok else 1.0))

    checks.append(_check(
        "dimension-below-parity-bound",
        forms["dim"] < forms["yz_bound"] < forms["binom_bound"],
        float(max(0, forms["dim"] - forms["yz_bound"] + 1)),
    ))

    return {
        **_verify_fields(n, args.tolerance, checks),
        "note": DECOMPOSITION_CONJECTURE,
    }


def cmd_variance(args: argparse.Namespace) -> dict:
    from .spectral import cycle_spectral_report

    if args.family != "cycle":
        raise UsageError(
            f"variance needs --family cycle: only the cycle family has a "
            f"proven decomposition into components (got {args.family!r})"
        )
    n = args.n
    report = cycle_spectral_report(n, args.tolerance)
    return {
        "family": args.family,
        "n": n,
        "expectation": report.expectation,
        "variance": report.variance,
        "per_component_purities": [
            [p.rho, p.obs] for p in report.purity_per_component
        ],
    }


def cmd_bounds(args: argparse.Namespace) -> dict:
    graph = parse_graph_spec(args.graph)
    bounds = dimension_bounds(graph)
    body = {
        "graph": args.graph,
        "n": graph.n,
        "aut_bound": bounds["aut_bound"],
        "center_bound": bounds["center_bound"],
    }
    if graph.family == "complete":
        forms = kn_formulas(graph.n)
        body["binom_bound"] = forms["binom_bound"]
        body["yz_bound"] = forms["yz_bound"]
        body["dim_formula"] = forms["dim"]
    return body


def cmd_sweep(args: argparse.Namespace) -> dict:
    if args.family not in ("cycle", "complete"):
        raise UsageError("sweep supports --family cycle or complete")
    if args.max < args.min:
        raise UsageError("sweep needs --min <= --max")
    rows = []
    for n in range(args.min, args.max + 1):
        graph = parse_graph_spec(f"{args.family}:{n}")
        rows.append(_compute_row(graph, True, args.memory_budget))
    return {"family": args.family, "rows": rows}


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
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:  # False for nan
        raise argparse.ArgumentTypeError("must be a finite positive number")
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
        help="abort once a closure, center or ideal ledger, or an orbit-image "
        "memo, holds this many entries (default %(default)s)",
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
        body = _DISPATCH[args.command](args)
        payload = {"schema": SCHEMA_VERSION, "command": args.command, **body}
        _emit(payload, args.output)
    except BrokenPipeError:  # an OSError; devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ArithmeticError as exc:  # a broken exact invariant
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_VERIFY if payload.get("ok") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
