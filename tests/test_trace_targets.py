"""Every name the benchmark tracer wraps still resolves.

``bench/tracing.py`` wraps the package's functions by name, from outside:
a module attribute for ``module.function`` and an entry of the class's own
``__dict__`` for ``module.Class.method``.  A rename or a method moved to a
base class would silently drop that layer from the traces.  The tracer
file is loaded by path and nothing is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).parent.parent / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("target", tracing.TARGETS)
def test_trace_target_resolves(target):
    module_name, _, attr = target.partition(".")
    module = importlib.import_module(f"dla_lab.{module_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(module, cls_name)).get(meth))
    else:
        assert callable(getattr(module, attr, None))
