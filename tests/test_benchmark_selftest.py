"""The benchmark's own smoke self-test passes against this checkout's src/.

perfbench/selftest.py checks that every workload prints each metric of
BENCHMARK.json with its unit, that capped operations count as failed
and that oracle4 meets its reference energy.  A change to src/ that
breaks a result line or the reference check fails here.  It runs in a
copy of perfbench/ under tmp_path, which imports src/ through a
symlink, so its outputs (perfbench/out/) land there and not in the
repository.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def test_benchmark_selftest_passes(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
