"""A run loads no SciPy subpackage.

The projection applies its 1-D transforms as dense products rather
than through scipy.fft, partly because scipy.fft costs about 7 MB of
resident memory (assembly.SparseSystem), and its divergence and
gradient as index arrays on the grid (mesh.step_edges) rather than as
scipy.sparse matrices, which cost about 21 MB.  scipy.linalg and
scipy.sparse.linalg are as heavy, and nothing in a run needs them.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

HEAVY = ("scipy.fft", "scipy.linalg", "scipy.sparse")

RUN = textwrap.dedent(
    """
    import os, sys
    import numpy as np
    from otsource.assembly import BoundaryData
    from otsource.io import load_density, write_outputs
    from otsource.solver import SolverConfig, solve

    out = sys.argv[1]
    path = os.path.join(out, "a.csv")
    np.savetxt(path, np.arange(16.0).reshape(4, 4), delimiter=",")
    ua = load_density(path, 4)
    result = solve(BoundaryData(ua, ua[::-1].copy()), SolverConfig(nt=2, max_iters=5))
    write_outputs(result, os.path.join(out, "run"))
    print(" ".join(sorted(sys.modules)))
    """
)


def test_run_loads_no_heavy_scipy_subpackage(tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", RUN, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    modules = done.stdout.split()
    assert "otsource.solver" in modules and "scipy.sparse" not in modules
    assert os.path.isfile(tmp_path / "run" / "manifest.txt")
    loaded = [m for m in modules if any(m == h or m.startswith(h + ".") for h in HEAVY)]
    assert loaded == []
