"""Each ``dla_lab`` module imports only the layers below it.

The order is the one the package docstring lists, bottom up:
paulis < symmetry < closure < graphs < cycle_forms, complete_forms <
spectral < cli.  The two closed-form modules share a layer and do not
import each other.  The package ``__init__`` re-exports every layer and is
not a layer itself.  An import is any ``from .x``, ``from . import x``,
``import dla_lab.x`` or ``from dla_lab.x``, at any depth in the module.
"""

import ast
from pathlib import Path

import pytest

LAYERS = [
    ("paulis",),
    ("symmetry",),
    ("closure",),
    ("graphs",),
    ("cycle_forms", "complete_forms"),
    ("spectral",),
    ("cli",),
]
RANK = {name: rank for rank, names in enumerate(LAYERS) for name in names}
PACKAGE = Path(__file__).parent.parent / "src" / "dla_lab"
SOURCES = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]


def _imported_modules(tree):
    """Package modules a module's source imports, with line numbers."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "dla_lab" and rest:
                    yield node.lineno, rest.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                head, _, rest = (node.module or "").partition(".")
                if head != "dla_lab":
                    continue
            elif node.level == 1:
                rest = node.module or ""
            else:
                continue
            if rest:
                yield node.lineno, rest.split(".")[0]
            else:
                for alias in node.names:
                    yield node.lineno, alias.name


def test_every_module_has_a_layer():
    assert sorted(RANK) == sorted(path.stem for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_lower_layers(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    upward = sorted(
        (lineno, name)
        for lineno, name in _imported_modules(tree)
        if RANK.get(name, len(LAYERS)) >= RANK[path.stem]
    )
    assert upward == [], f"{path.stem} imports its own or a higher layer: {upward}"


def test_an_upward_import_is_caught():
    tree = ast.parse("from .graphs import Graph\nimport dla_lab.cli\n")
    assert sorted(name for _, name in _imported_modules(tree)) == ["cli", "graphs"]
