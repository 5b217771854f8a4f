"""The benchmark's workloads: which dla-lab commands they run, and how
every output is checked.

Expected values never come from earlier output of the program.  They are
the paper's closed forms, evaluated here, properties every closure must
have, or the independent reference of ``reference.py`` (stored in
``graphs.json``).  ``runtime_ms`` is never looked at.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
FLOAT_TOL = 1e-9

#: (exit code, stdout) -> problems found; an empty list means the output is right
Checker = Callable[[int, str], list]


@dataclass(frozen=True)
class Op:
    """One dla-lab command of a workload round."""

    label: str
    args: tuple
    check: Checker
    #: a rejection of this operation counts as a failed operation (a known
    #: fault in the program) instead of making the run incorrect
    known_fault: bool = False


# ---------------------------------------------------------------------------
# closed forms, evaluated independently of the package


def kn_closed_form(n: int) -> dict:
    """The paper's K_n dimension and center; the ideal is the rest."""
    if n % 2 == 0:
        dim, center = (n**3 + 6 * n**2 + 2 * n + 12) // 12, 1
    else:
        dim, center = (n**3 + 6 * n**2 - n + 18) // 12, 2
    return {"dim": dim, "center_dim": center, "ideal_dim": dim - center}


def cycle_closed_form(n: int) -> dict:
    return {"dim": 3 * n - 1, "degree": 2 * (n - 1), "center_dim": 2, "ideal_dim": 3 * n - 3}


def cycle_variance_closed_form(n: int) -> dict:
    return {
        "expectation": (n % 2) / math.sqrt(n),
        "variance": 2 * (n - n % 2) / (3 * n),
        "per_component_purities": [
            [(k % 2) / 2 ** (n - 2), 2**n / n] for k in range(1, n)
        ],
    }


# ---------------------------------------------------------------------------
# checkers


def _parse(code: int, out: str, want_code: int = 0):
    """(payload, problems) for a JSON report that should exit with want_code."""
    if code != want_code:
        return None, [f"exit code {code}, expected {want_code}"]
    try:
        payload = json.loads(out)
    except ValueError:
        return None, ["output is not one JSON report"]
    if not isinstance(payload, dict) or payload.get("schema") != "dla-lab/1":
        return None, ["report lacks schema dla-lab/1"]
    return payload, []


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and math.isclose(a, b, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)


def row_problems(row: dict, expected: dict) -> list:
    """A compute row against expected fields and the split every closure obeys."""
    problems = [
        f"{key} = {row.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if row.get(key) != value
    ]
    dim, center, ideal = row.get("dim"), row.get("center_dim"), row.get("ideal_dim")
    if not all(isinstance(v, int) for v in (dim, center, ideal)):
        return problems + ["dim, center_dim or ideal_dim missing"]
    if center + ideal != dim:
        problems.append(f"center {center} + ideal {ideal} != dim {dim}")
    if center > 2:
        problems.append(f"center {center} above the two-generator bound 2")
    bound = row.get("aut_bound")
    if bound is not None and dim > bound:
        problems.append(f"dim {dim} above aut_bound {bound}")
    if row.get("yz_even_ok") is not True:
        problems.append("yz_even_ok is not true")
    return problems


def compute_checker(graph: str, n: int, expected: dict) -> Checker:
    def check(code: int, out: str) -> list:
        payload, problems = _parse(code, out)
        if payload is None:
            return problems
        want = {"command": "compute", "graph": graph, "n": n, **expected}
        return row_problems(payload, want)

    return check


def exit_code_checker(want_code: int) -> Checker:
    def check(code: int, out: str) -> list:
        return [] if code == want_code else [f"exit code {code}, expected {want_code}"]

    return check


def verify_checker(command: str, n: int, allowed: tuple) -> Checker:
    def check(code: int, out: str) -> list:
        payload, problems = _parse(code, out)
        if payload is None:
            return problems
        if payload.get("command") != command or payload.get("n") != n:
            problems.append("report is for another command or size")
        checks = payload.get("checks") or []
        if not checks:
            problems.append("no checks reported")
        problems += [
            f"check {c.get('name')} is {c.get('status')!r}"
            for c in checks
            if c.get("status") not in allowed
        ]
        if payload.get("ok") is not True:
            problems.append("ok is not true")
        return problems

    return check


def variance_checker(n: int) -> Checker:
    want = cycle_variance_closed_form(n)

    def check(code: int, out: str) -> list:
        payload, problems = _parse(code, out)
        if payload is None:
            return problems
        if payload.get("family") != "cycle" or payload.get("n") != n:
            problems.append("report is for another family or size")
        for key in ("expectation", "variance"):
            if not _close(payload.get(key), want[key]):
                problems.append(f"{key} = {payload.get(key)!r}, expected {want[key]!r}")
        pairs = payload.get("per_component_purities") or []
        if len(pairs) != n - 1:
            problems.append(f"{len(pairs)} component purities, expected {n - 1}")
        for k, (got, exp) in enumerate(zip(pairs, want["per_component_purities"]), 1):
            if len(got) != 2 or not all(_close(g, e) for g, e in zip(got, exp)):
                problems.append(f"component {k} purity {got!r}, expected {exp!r}")
        return problems

    return check


def sweep_checker(lo: int, hi: int) -> Checker:
    def check(code: int, out: str) -> list:
        payload, problems = _parse(code, out)
        if payload is None:
            return problems
        rows = payload.get("rows") or []
        if [r.get("n") for r in rows] != list(range(lo, hi + 1)):
            return problems + [f"rows do not cover n = {lo}..{hi}"]
        for row in rows:
            problems += [f"n={row['n']}: {p}" for p in row_problems(row, cycle_closed_form(row["n"]))]
        return problems

    return check


# ---------------------------------------------------------------------------
# workloads


def load_corpus() -> dict:
    return json.loads((BENCH_DIR / "graphs.json").read_text())


def write_graph_file(path: Path, n: int, edges) -> str:
    path.write_text(f"{n}\n" + "".join(f"{a} {b}\n" for a, b in edges))
    return f"file:{path}"


def relabelled(n: int, edges, rng: random.Random) -> list:
    """The same graph under a random vertex permutation, edges shuffled."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[a], perm[b]) for a, b in edges]
    rng.shuffle(out)
    return out


def complete_orbit(rng: random.Random, workdir: Path) -> list:
    ops = []
    for n in (16, 28):
        spec = f"complete:{n}"
        ops.append(Op(
            f"compute {spec} --orbit-compress",
            ("compute", "--graph", spec, "--orbit-compress"),
            compute_checker(spec, n, kn_closed_form(n)),
        ))
    for n in (20, 15):
        ops.append(Op(
            f"verify-complete --n {n}",
            ("verify-complete", "--n", str(n)),
            verify_checker("verify-complete", n, ("ok",)),
        ))
    # --memory-budget must bound every stage; today the center and ideal
    # ledgers ignore it, so this exits 0 instead of 3
    ops.append(Op(
        "compute complete:24 --orbit-compress --memory-budget 5000",
        ("compute", "--graph", "complete:24", "--orbit-compress", "--memory-budget", "5000"),
        exit_code_checker(3),
        known_fault=True,
    ))
    return ops


def raw_graphs(rng: random.Random, workdir: Path) -> list:
    corpus = load_corpus()
    ops = []
    for g in corpus["graphs"]:
        spec = write_graph_file(workdir / f"{g['name']}.txt", g["n"], g["edges"])
        expected = {k: g[k] for k in ("dim", "degree", "center_dim", "ideal_dim")}
        ops.append(Op(f"compute {g['name']}", ("compute", "--graph", spec),
                      compute_checker(spec, g["n"], expected)))
    # an isomorphic copy must give the same dim, degree, center and ideal
    source = next(g for g in corpus["graphs"] if g["name"] == corpus["relabel"])
    spec = write_graph_file(
        workdir / f"{source['name']}-relabelled.txt",
        source["n"],
        relabelled(source["n"], source["edges"], rng),
    )
    expected = {k: source[k] for k in ("dim", "degree", "center_dim", "ideal_dim")}
    ops.append(Op(f"compute {source['name']} relabelled", ("compute", "--graph", spec),
                  compute_checker(spec, source["n"], expected)))
    n = 7
    spec = f"complete:{n}"
    ops.append(Op(f"compute {spec}", ("compute", "--graph", spec),
                  compute_checker(spec, n, kn_closed_form(n))))
    n = 12
    ops.append(Op(f"compute cycle:{n}", ("compute", "--graph", f"cycle:{n}"),
                  compute_checker(f"cycle:{n}", n, cycle_closed_form(n))))
    return ops


def cycle_family(rng: random.Random, workdir: Path) -> list:
    ops = [
        Op(f"verify-cycle --n {n}", ("verify-cycle", "--n", str(n)),
           verify_checker("verify-cycle", n, ("ok", "skip")))
        for n in (10, 8)
    ]
    ops.append(Op("variance --family cycle --n 12",
                  ("variance", "--family", "cycle", "--n", "12"), variance_checker(12)))
    ops.append(Op("sweep --family cycle --min 3 --max 40",
                  ("sweep", "--family", "cycle", "--min", "3", "--max", "40"),
                  sweep_checker(3, 40)))
    return ops


WORKLOADS = {
    "complete-orbit": complete_orbit,
    "raw-graphs": raw_graphs,
    "cycle-family": cycle_family,
}


def build(name: str, seed: int, workdir: Path) -> list:
    """The operations of one round, in an order drawn from the seed."""
    rng = random.Random(seed)
    ops = WORKLOADS[name](rng, workdir)
    rng.shuffle(ops)
    return ops
