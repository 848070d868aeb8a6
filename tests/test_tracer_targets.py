"""Every attribute that perfbench's tracer patches exists and is called.

The tracer (perfbench/tracing.py) wraps module attributes by name while
a traced benchmark run is active, so deleting or renaming one of them
breaks `perfbench/run.py --trace 1` without failing any other test, and
a refactor that stops calling a wrapped name through its module reads 0
in that layer's metrics.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

import otsource.io
import otsource.solver
from otsource.assembly import BoundaryData
from otsource.prox import SourceModel

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")

# CG no longer runs in the DR loop: the projection solve is exact
NOT_CALLED = {"assembly.cg_solve"}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return [(modname, attr) for modname, attr, _ in _tracing().TARGETS]


@pytest.mark.parametrize("modname, attr", _targets(), ids=lambda v: v)
def test_tracer_target_resolves(modname, attr):
    module = importlib.import_module(modname)
    assert callable(getattr(module, attr, None)), f"{modname}.{attr} is gone"


def test_traced_operation_records_every_layer(tmp_path):
    # one benchmark operation at a small size: load two CSV densities,
    # an l2huber solve, write the outputs; every name is looked up
    # through its module, as perfbench does
    tracing = _tracing()
    grid = np.zeros((4, 4))
    grid[1:3, 1:3] = 1.0
    paths = []
    for name, values in (("a.csv", grid), ("b.csv", 2 * grid)):
        np.savetxt(tmp_path / name, values, delimiter=",")
        paths.append(str(tmp_path / name))
    config = otsource.solver.SolverConfig(
        nt=2, max_iters=5, source=SourceModel("l2huber", beta=0.1))
    tracer = tracing.Tracer()
    tracer.op = 0
    with tracer.installed():
        bdata = BoundaryData(*(otsource.io.load_density(p, 4) for p in paths))
        result = otsource.solver.solve(bdata, config)
        otsource.io.write_outputs(result, str(tmp_path / "out"))
    recorded = {span[tracing.NAME] for span in tracer.spans}
    expected = {name for _, _, name in tracing.TARGETS if name} - NOT_CALLED
    assert expected - recorded == set()
