"""Each command imports only the modules it runs.

Every command is a fresh process, so what it imports is paid on every
run.  A child interpreter records the modules that ``import dla_lab`` or
one ``cli.main`` call adds to the interpreter's own set.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"

#: modules no closure command may load: the family layers, and the standard
#: library modules they or a value-class generator would pull in
HEAVY = {
    "dataclasses",
    "inspect",
    "csv",
    "dla_lab.cycle_forms",
    "dla_lab.spectral",
    "dla_lab.complete_forms",
}

CHILD = """
import json, sys
sys.path.insert(0, {src!r})
before = set(sys.modules)
{body}
print()
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def added_modules(body: str) -> set:
    """Modules that running `body` in a fresh interpreter adds."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(src=str(SRC), body=body)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def command_modules(*argv) -> set:
    return added_modules(f"from dla_lab import cli\ncli.main({list(argv)!r})")


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--graph", "cycle:4"),
        ("compute", "--graph", "complete:4", "--orbit-compress"),
        ("sweep", "--family", "cycle", "--min", "3", "--max", "4"),
        ("bounds", "--graph", "cycle:3"),
    ],
    ids=lambda argv: argv[0],
)
def test_closure_commands_load_no_family_module(argv):
    added = command_modules(*argv)
    assert "dla_lab.closure" in added
    assert added & HEAVY == set()


def test_verify_cycle_loads_its_families_only():
    added = command_modules("verify-cycle", "--n", "3")
    assert {"dla_lab.cycle_forms", "dla_lab.spectral"} <= added
    assert "dla_lab.complete_forms" not in added


def test_verify_complete_loads_complete_forms():
    assert "dla_lab.complete_forms" in command_modules("verify-complete", "--n", "4")


def test_csv_is_loaded_by_the_csv_output_only():
    added = command_modules(
        "sweep", "--family", "cycle", "--min", "3", "--max", "3", "--output", "csv"
    )
    assert "csv" in added


def test_bare_import_loads_no_submodule():
    added = added_modules("import dla_lab")
    assert "dla_lab" in added
    assert {m for m in added if m.startswith("dla_lab.")} == set()


def test_every_export_resolves_and_is_kept():
    """Each ``__all__`` name resolves, is kept in the package globals once
    resolved, and is listed by ``dir``; unknown names raise AttributeError."""
    import dla_lab

    for name in dla_lab.__all__:
        value = getattr(dla_lab, name)
        assert vars(dla_lab)[name] is value
    assert set(dla_lab.__all__) <= set(dir(dla_lab))
    assert dla_lab.Graph is sys.modules["dla_lab.graphs"].Graph
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dla_lab.no_such_name
    star = {}
    exec("from dla_lab import *", star)
    assert set(dla_lab.__all__) <= set(star)
