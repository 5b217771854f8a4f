"""Per-layer tracing of dla-lab commands, from outside the package.

Run as a child process, with the package importable::

    PYTHONPATH=src python3 bench/tracing.py OUT.json -- compute --graph cycle:6

The child times ``import dla_lab.cli``, wraps the public functions and
methods named in ``TARGETS`` (nothing in the package changes), runs
``dla_lab.cli.main`` on the arguments, writes its spans and counters to
OUT.json and exits with the command's exit code.  A span is
``[name, start, end, parent]``; spans live in memory until the command ends.

``layer_metrics`` turns the written traces of a workload into the
per-layer metrics.  A span's self time is its duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

#: every traced boundary, as ``module.function`` or ``module.Class.method``
#: relative to the ``dla_lab`` package
TARGETS = (
    "cli.main",
    "closure.generate_dla",
    "closure.generate_dla_orbit_compressed",
    "closure.center_dimension",
    "closure.ideal_dimension",
    "closure.LinearLedger.insert",
    "closure.LinearLedger.contains",
    "complete_forms.kn_basis",
    "complete_forms.kn_ideal_basis",
    "complete_forms.fact_suite",
    "cycle_forms.orbit_bracket",
    "cycle_forms.canonical_relation_residuals",
    "cycle_forms.su2_relation_residuals",
    "cycle_forms.alternating_eigen_residual",
    "cycle_forms.ab_power",
    "cycle_forms.ab_power_coeffs",
    "cycle_forms.ab_power_trig_coeffs",
    "cycle_forms.ab_power_expansion_coeffs",
    "cycle_forms.ab_recursion_identity_ok",
    "cycle_forms.ab_recursion_identity_residual",
    "cycle_forms.CycleOrbitSum.expand",
    "spectral.cycle_spectral_report",
    "spectral.purity",
    "paulis.commutator",
    "graphs.dimension_bounds",
    "symmetry.orbit_count",
    "symmetry.graph_automorphisms",
)

_GENERATE = ("closure.generate_dla", "closure.generate_dla_orbit_compressed")
_INSERT = ("closure.LinearLedger.insert",)
_RESIDUALS = (
    "cycle_forms.canonical_relation_residuals",
    "cycle_forms.su2_relation_residuals",
    "cycle_forms.alternating_eigen_residual",
)
_POWER = tuple(t for t in TARGETS if t.startswith("cycle_forms.ab_"))

#: per-layer metric -> (unit, how, span names).  "total" sums the spans of
#: the group that no other span of the group encloses, "self" sums self
#: times, "calls" counts spans.
SPAN_METRICS = {
    "closure.generate_s": ("s", "total", _GENERATE),
    "closure.center_s": ("s", "total", ("closure.center_dimension",)),
    "closure.ideal_s": ("s", "total", ("closure.ideal_dimension",)),
    # the closure stage minus its ledger inserts: the bracket kernels
    "closure.bracket_s": ("s", "self", _GENERATE),
    "closure.ledger_insert_s": ("s", "self", _INSERT),
    "closure.ledger_inserts": ("count", "calls", _INSERT),
    "closure.ledger_contains_s": ("s", "self", ("closure.LinearLedger.contains",)),
    "closure.ledger_contains": ("count", "calls", ("closure.LinearLedger.contains",)),
    "complete_forms.basis_s": (
        "s", "total", ("complete_forms.kn_basis", "complete_forms.kn_ideal_basis"),
    ),
    "complete_forms.fact_suite_s": ("s", "total", ("complete_forms.fact_suite",)),
    "cycle_forms.orbit_bracket_s": ("s", "self", ("cycle_forms.orbit_bracket",)),
    "cycle_forms.orbit_bracket_calls": ("count", "calls", ("cycle_forms.orbit_bracket",)),
    "cycle_forms.residuals_s": ("s", "total", _RESIDUALS),
    "cycle_forms.power_s": ("s", "total", _POWER),
    "cycle_forms.expand_s": ("s", "total", ("cycle_forms.CycleOrbitSum.expand",)),
    "spectral.report_s": ("s", "total", ("spectral.cycle_spectral_report",)),
    "spectral.purity_calls": ("count", "calls", ("spectral.purity",)),
    "paulis.commutator_s": ("s", "total", ("paulis.commutator",)),
    "paulis.commutator_calls": ("count", "calls", ("paulis.commutator",)),
    "graphs.bounds_s": ("s", "total", ("graphs.dimension_bounds",)),
    "symmetry.self_s": (
        "s", "self", ("symmetry.orbit_count", "symmetry.graph_automorphisms"),
    ),
    "cli.self_s": ("s", "self", ("cli.main",)),
}

#: per-layer metrics that come from counters rather than span sums
OTHER_METRICS = {
    "closure.ledger_independent": "count",
    "closure.ledger_yield": "ratio",
    "closure.ledger_entries_peak": "count",
    "cli.import_s": "s",
}


class Tracer:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters = {"ledger_independent": 0, "ledger_entries_peak": 0}

    def wrap(self, name: str, fn, hook=None):
        """fn wrapped so that each call records a span named `name`.

        hook(args, result) runs inside the span, to update counters.
        """
        code = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([code, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def _count_insert(self, args, result):
        if result is not None:
            self.counters["ledger_independent"] += 1
        entries = args[0].entry_count
        if entries > self.counters["ledger_entries_peak"]:
            self.counters["ledger_entries_peak"] = entries

    def install(self) -> None:
        """Wrap every target, and rebind each name that imported it."""
        for target in TARGETS:
            module_name, _, attr = target.partition(".")
            module = importlib.import_module(f"dla_lab.{module_name}")
            hook = self._count_insert if target in _INSERT else None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(target, cls.__dict__[meth], hook))
                continue
            original = getattr(module, attr)
            traced = self.wrap(target, original, hook)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "dla_lab" or name.startswith("dla_lab.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def dump(self, path: str, **extra) -> None:
        payload = {
            "names": self.names,
            "spans": self.spans,
            "counters": self.counters,
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _span_sums(trace: dict) -> dict:
    """Per span name: [calls, total time not enclosed by the same group, self time].

    Groups are the span-name sets of SPAN_METRICS; "not enclosed" is
    decided per group.
    """
    names = trace["names"]
    spans = trace["spans"]
    group_of = {}
    for metric, (_, _, members) in SPAN_METRICS.items():
        for member in members:
            group_of.setdefault(member, set()).add(metric)
    child_time = [0.0] * len(spans)
    for code, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    enclosing: list[frozenset] = [frozenset()] * len(spans)
    sums = {name: [0, 0.0, 0.0] for name in names}
    for i, (code, start, end, parent) in enumerate(spans):
        name = names[code]
        groups = frozenset(group_of.get(name, ()))
        above = enclosing[parent] if parent >= 0 else frozenset()
        enclosing[i] = above | groups if not groups <= above else above
        entry = sums[name]
        entry[0] += 1
        if not groups & above:
            entry[1] += end - start
        entry[2] += end - start - child_time[i]
    return sums


def layer_metrics(traces: list[dict]) -> dict:
    """Per-layer metrics summed over the traces of one workload round."""
    values = {metric: 0.0 if unit == "s" else 0 for metric, (unit, _, _) in SPAN_METRICS.items()}
    independent = 0
    peak = 0
    import_s = 0.0
    for trace in traces:
        sums = _span_sums(trace)
        for metric, (_, how, members) in SPAN_METRICS.items():
            for member in members:
                calls, total, self_time = sums.get(member, (0, 0.0, 0.0))
                values[metric] += {"calls": calls, "total": total, "self": self_time}[how]
        independent += trace["counters"]["ledger_independent"]
        peak = max(peak, trace["counters"]["ledger_entries_peak"])
        import_s += trace["import_s"]
    inserts = values["closure.ledger_inserts"]
    values["closure.ledger_independent"] = independent
    values["closure.ledger_yield"] = independent / inserts if inserts else 0.0
    values["closure.ledger_entries_peak"] = peak
    values["cli.import_s"] = import_s
    return values


def metric_units() -> dict:
    units = {metric: unit for metric, (unit, _, _) in SPAN_METRICS.items()}
    units.update(OTHER_METRICS)
    return units


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py OUT.json -- <dla-lab arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    start = time.perf_counter()
    cli = importlib.import_module("dla_lab.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = cli.main(cli_args)
        sys.stdout.flush()
    finally:
        tracer.dump(out_path, argv=cli_args, exit=code, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
