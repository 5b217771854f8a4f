"""Only the closure module reads ``DlaReport``'s private fields.

Every other module goes through the report's public surface (``basis``,
``ledger``, the dimensions and the rank functions of ``closure``), so the
report's internals can change in one place.  A read is an attribute, or a
string constant as passed to ``getattr``, named like a ``_``-prefixed field.
"""

import ast
import inspect
from pathlib import Path

import pytest

from dla_lab.closure import DlaReport

#: the ``_``-prefixed constructor parameters, and every ``_``-prefixed
#: attribute ``DlaReport.__init__`` sets
PRIVATE = {
    name
    for name in [*inspect.signature(DlaReport).parameters, *vars(DlaReport(0, 0, 0, 1, "pauli"))]
    if name.startswith("_")
}
SOURCES = [
    path
    for path in sorted((Path(__file__).parent.parent / "src" / "dla_lab").glob("*.py"))
    if path.name != "closure.py"
]


def _read_name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def test_report_has_private_fields():
    assert PRIVATE, "no private field left to guard"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_report_field_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = sorted(
        (node.lineno, _read_name(node))
        for node in ast.walk(tree)
        if _read_name(node) in PRIVATE
    )
    assert reads == [], f"{path.name} reads private DlaReport fields: {reads}"
