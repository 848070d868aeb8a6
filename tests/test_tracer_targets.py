"""Every attribute that perfbench's tracer patches exists in the package.

The tracer (perfbench/tracing.py) wraps module attributes by name while
a traced benchmark run is active, so deleting or renaming one of them
breaks `perfbench/run.py --trace 1` without failing any other test.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(modname, attr) for modname, attr, _ in module.TARGETS]


@pytest.mark.parametrize("modname, attr", _targets(), ids=lambda v: v)
def test_tracer_target_resolves(modname, attr):
    module = importlib.import_module(modname)
    assert callable(getattr(module, attr, None)), f"{modname}.{attr} is gone"
