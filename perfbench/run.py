"""End-to-end and per-layer benchmark of the geodesic solver.

Run from the repository root:

    python3 perfbench/run.py --workload oracle4 --seed 1 --seconds 30 --trace 0

One operation is what a user of the library does: load two CSV
endpoint densities with io.load_density, solve to the workload's
relative fixed-point tolerance with solver.solve and write the outputs
with io.write_outputs into a fresh directory under perfbench/out/.
Operations run back to back in this single-threaded process (a closed
loop with one client) for about --seconds, at least one, and every
operation is checked.  The last line of standard output is one
JSON object: with --trace 0 it carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run, whose
operations alternate with untraced ones so that the tracing overhead
is measured in the same process.

The workloads are the acceptance-sized cases with their geometry
fixed.  --seed is recorded with every result but leaves the inputs
unchanged: the oracle4 bump pair is always drawn with seed 42, because
the reference energies are pinned to these inputs and because other
bump seeds change the iteration count itself (249 to 462 iterations
over seeds 1-5), which would make iters_to_tol and every time measure
the input instead of the code.
"""

import os

# a single-threaded process, as the workloads specify; this must happen
# before NumPy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# criterion 1's bound on the mass-balance defect, relative to total mass
MASS_RTOL = 1e-9
# The references carry nine significant digits.  One DR iteration more
# or less moves the final energy by 3.5e-6 or more, relative, on every
# workload, so the bound admits summation-order rounding and nothing else.
ENERGY_RTOL = 1e-7
# solves capped at one iteration that run before every operation; their
# set-up times join the operation's own, so set-up is a median of
# several samples spread over the run even when it holds one operation
SETUP_PROBES = 4


@dataclass(frozen=True)
class Workload:
    """One acceptance-sized solve: endpoints, model and stopping rule."""

    name: str
    nx: int
    endpoints: object  # nx -> (ga, gb), cell grids indexed [x, y]
    nt: int
    beta: float
    gamma: float
    fp_tol: float
    max_iters: int
    reference_energy: float  # final energy at commit 0b3eed8


def bump_pair(nx=4, cut=0.02, seed=42):
    """Seeded random smooth bump and a seeded random translate of it.

    The endpoints have genuine vacuum and bulk motion; the masses are
    equalized.  This is the criterion-3 recipe of the acceptance gate.
    """
    rng = np.random.default_rng(seed)
    c = (np.arange(nx) + 0.5) / nx
    x, y = np.meshgrid(c, c, indexing="ij")
    cax, cay = rng.uniform(0.2, 0.35), rng.uniform(0.35, 0.65)
    dx, dy = rng.uniform(0.3, 0.45), rng.uniform(-0.15, 0.15)
    wa = rng.uniform(0.12, 0.18)
    ga = np.exp(-((x - cax) ** 2 + (y - cay) ** 2) / (2 * wa * wa))
    gb = np.exp(-((x - cax - dx) ** 2 + (y - cay - dy) ** 2) / (2 * wa * wa))
    ga[ga < cut] = 0.0
    gb[gb < cut] = 0.0
    gb *= ga.sum() / gb.sum()
    return ga, gb


def block_pair(nx, rows, cols):
    """The same block at intensity 1, then 2: a pure change of mass."""
    ga = np.zeros((nx, nx))
    ga[rows, cols] = 1.0
    return ga, 2.0 * ga


WORKLOADS = {
    w.name: w
    for w in (
        # tiny arrays: per-call overhead dominates (Huber dual bisection,
        # kernel Newton loop); 376 iterations
        Workload("oracle4", 4, bump_pair, nt=4, beta=0.1, gamma=1.0,
                 fp_tol=1e-3, max_iters=1150, reference_energy=4.14200295e-03),
        # the paraboloid kernel is the largest layer, CG second; 249 iterations
        Workload("squares32", 32, lambda nx: block_pair(nx, slice(8, 24), slice(8, 24)),
                 nt=8, beta=0.1, gamma=1.0, fp_tol=3e-3, max_iters=750,
                 reference_energy=4.34838094e-02),
        # the CG projection dominates, the Huber prox barely runs; largest
        # set-up and memory; 127 iterations
        Workload("strip64", 64, lambda nx: block_pair(nx, slice(16, 48), slice(30, 34)),
                 nt=4, beta=1e-3, gamma=0.002, fp_tol=1e-1, max_iters=380,
                 reference_energy=9.70386598e-04),
    )
}

END_TO_END_UNITS = {
    "time_to_tol_s": "s",
    "iters_to_tol": "count",
    "iter_ms_p50": "ms",
    "iter_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_program():
    """Import the package from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, SRC)
    try:
        import otsource
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import otsource from {SRC}: {exc}")
    if not os.path.abspath(otsource.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: otsource resolved to {otsource.__file__}, not {SRC}")
    return otsource


def environment(otsource):
    """What produced a result: kernel backend, versions, cores, commit."""
    import scipy

    commit = None
    # only ask git inside a repository, so it never searches parent dirs
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "kernel_backend": otsource._kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


def write_endpoints(workload, directory):
    """Write the endpoints as CSV matrices (row = y, column = x)."""
    paths = []
    for tag, grid in zip("ab", workload.endpoints(workload.nx)):
        path = os.path.join(directory, f"{tag}.csv")
        with open(path, "w", newline="\n") as fh:
            for row in grid.T:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        paths.append(path)
    return paths


def solver_config(otsource, workload, max_iters):
    from otsource.prox import SourceModel

    return otsource.solver.SolverConfig(
        nt=workload.nt, delta=1.0, gamma=workload.gamma, alpha=1.8,
        max_iters=max_iters, fp_tol=workload.fp_tol,
        source=SourceModel("l2huber", beta=workload.beta), bc="neumann",
    )


def expected_files(nt):
    names = ["manifest.txt", "trace.csv", "profiles.csv"]
    for k in range(nt + 1):
        names += [f"frame_{k:03d}.pgm", f"density_{k:03d}.csv",
                  f"source_{k:03d}.pgm", f"source_{k:03d}.csv"]
    for k in range(nt):
        names += [f"momentum_{k:03d}.pgm", f"momentum_{k:03d}.csv"]
    return names


def check(workload, bdata, result, outdir):
    """Reasons the operation's result is wrong; empty when it is right."""
    stats = result.stats
    mesh = result.mesh
    failures = []
    if not result.converged:
        failures.append(f"tolerance not reached in {len(stats)} iterations")
    mass = max(mesh.slice_load(bdata.ua).sum(), mesh.slice_load(bdata.ub).sum())
    defect = max(s.mass_balance_defect for s in stats)
    if not defect <= MASS_RTOL * mass:
        failures.append(f"mass-balance defect {defect:.3e} exceeds "
                        f"{MASS_RTOL:g} of total mass {mass:.6g}")
    if not all(np.isfinite([s.energy, s.transport_energy, s.source_energy]).all()
               for s in stats):
        failures.append("non-finite energy in the trace")
    final, ref = stats[-1].energy, workload.reference_energy
    if not abs(final - ref) <= ENERGY_RTOL * abs(ref):
        failures.append(f"final energy {final:.9e} differs from reference {ref:.9e}")
    missing = [n for n in expected_files(mesh.nt)
               if not os.path.isfile(os.path.join(outdir, n))
               or os.path.getsize(os.path.join(outdir, n)) == 0]
    if missing:
        failures.append(f"{len(missing)} output files missing, e.g. {missing[0]}")
    else:
        with open(os.path.join(outdir, "trace.csv")) as fh:
            lines = sum(1 for _ in fh)
        if lines != len(stats) + 1:
            failures.append(f"trace.csv has {lines} lines for {len(stats)} iterations")
    return failures


def run_operation(otsource, workload, inputs, outdir, op_id):
    """Load, solve and write once; never raises for a failed operation."""
    from otsource.assembly import BoundaryData
    from otsource.exceptions import NonConvergence, RootFindFailure

    ot_io, solver = otsource.io, otsource.solver
    nx = workload.nx
    record = {"op": op_id, "iterations": None, "failures": [], "intervals": [],
              "setup_s": None, "loop_s": None, "bytes_written": 0}
    stamps = []
    result = None
    start = time.perf_counter()
    try:
        bdata = BoundaryData(ot_io.load_density(inputs[0], nx),
                             ot_io.load_density(inputs[1], nx))
        config = solver_config(otsource, workload, workload.max_iters)
        solve_start = time.perf_counter()
        result = solver.solve(bdata, config,
                              progress=lambda s: stamps.append(time.perf_counter()))
        solve_s = time.perf_counter() - solve_start
        ot_io.write_outputs(result, outdir)
    except (NonConvergence, RootFindFailure) as exc:
        record["failures"].append(f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # keep the loop running; report the traceback
        traceback.print_exc(file=sys.stderr)
        record["failures"].append(f"{type(exc).__name__}: {exc}")
    record["seconds"] = time.perf_counter() - start
    record["intervals"] = np.diff(stamps).tolist()
    if result is not None and not record["failures"]:
        record["iterations"] = len(result.stats)
        record["setup_s"] = solve_s - result.wall_seconds
        record["loop_s"] = result.wall_seconds
        record["energy"] = result.stats[-1].energy
        record["bytes_written"] = sum(
            os.path.getsize(os.path.join(outdir, n)) for n in os.listdir(outdir))
        record["failures"] = check(workload, bdata, result, outdir)
    for reason in record["failures"]:
        print(f"perfbench: {workload.name} operation {op_id} failed: {reason}",
              file=sys.stderr)
    shutil.rmtree(outdir, ignore_errors=True)
    return record


def setup_probe(otsource, workload, bdata):
    """Set-up seconds of one solve capped at one iteration."""
    start = time.perf_counter()
    result = otsource.solver.solve(bdata, solver_config(otsource, workload, 1))
    return time.perf_counter() - start - result.wall_seconds


def closed_loop(seconds, step):
    """Call step(0), step(1), ... back to back within `seconds`, at least once.

    The next step starts only if, at the mean pace so far, it ends in
    time, so a run lasts about `seconds` or one step, whichever is
    longer, and a long workload is never cut to a partial sample.
    """
    start = time.perf_counter()
    n = 0
    while n == 0 or (time.perf_counter() - start) * (n + 1) / n <= seconds:
        step(n)
        n += 1


def end_to_end_metrics(ops, setup_samples):
    """End-to-end metrics of one untraced run.

    time_to_tol_s is the mean over the run's operations, not the median.
    On a shared 2-vCPU virtual machine the speed switches between a fast
    and a slow phase every few seconds (identical oracle4 solves took
    1.0 to 1.7 s within one run), so a run holds a mix of the two; a
    median over such a mix jumps to whichever phase holds the majority,
    while a mean moves in proportion to the mix.  The iteration
    percentiles pool every interval of the run.
    """
    done = [op for op in ops if op["iterations"] is not None]
    intervals_ms = [1e3 * t for op in done for t in op["intervals"]]
    values = {
        "time_to_tol_s": statistics.mean(op["seconds"] for op in ops),
        "iters_to_tol": statistics.median_low(op["iterations"] for op in done) if done else None,
        "iter_ms_p50": float(np.percentile(intervals_ms, 50)) if intervals_ms else None,
        "iter_ms_p90": float(np.percentile(intervals_ms, 90)) if intervals_ms else None,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "time_to_tol_s": f"mean of {len(ops)} operations",
        "iters_to_tol": f"median of {len(done)} operations",
        "iter_ms_p50": f"median of {len(intervals_ms)} iteration intervals",
        "iter_ms_p90": f"90th percentile of {len(intervals_ms)} iteration intervals",
        "setup_s": f"median of {len(setup_samples)} solves, "
                   f"{len(setup_samples) - len(done)} of them capped at one iteration",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}, samples


def measure(otsource, workload, seconds, trace, workdir):
    """Run one workload; returns (metrics, sample notes, ops, tracer)."""
    from otsource.assembly import BoundaryData

    inputs = write_endpoints(workload, workdir)
    bdata = BoundaryData(otsource.io.load_density(inputs[0], workload.nx),
                         otsource.io.load_density(inputs[1], workload.nx))
    setup_probe(otsource, workload, bdata)  # warm-up, not counted

    def operation(op_id):
        return run_operation(otsource, workload, inputs,
                             os.path.join(workdir, f"op{op_id}"), op_id)

    if not trace:
        ops, setup_samples = [], []

        def step(i):
            setup_samples.extend(
                setup_probe(otsource, workload, bdata) for _ in range(SETUP_PROBES))
            ops.append(operation(i))

        closed_loop(seconds, step)
        setup_samples += [op["setup_s"] for op in ops if op["setup_s"] is not None]
        metrics, samples = end_to_end_metrics(ops, setup_samples)
        return metrics, samples, ops, None

    from tracing import Tracer, layer_metrics

    # untraced and traced operations alternate, so that the overhead
    # ratio compares operations that ran under the same host conditions
    tracer = Tracer()
    untraced, traced = [], []

    def step(i):
        untraced.append(operation(2 * i))
        tracer.op = 2 * i + 1
        with tracer.installed():
            traced.append(operation(tracer.op))

    closed_loop(seconds, step)
    done = [op for op in traced if op["loop_s"] is not None]
    metrics = layer_metrics(tracer.spans, done) if done else {}
    metrics["trace.overhead_ratio"] = (
        statistics.mean(op["seconds"] for op in traced)
        / statistics.mean(op["seconds"] for op in untraced), "ratio")
    samples = {"trace.overhead_ratio":
               f"mean time_to_tol_s of {len(traced)} traced operations over "
               f"that of {len(untraced)} untraced ones, alternating"}
    return metrics, samples, untraced + traced, tracer


def main(argv=None, workloads=WORKLOADS):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    otsource = load_program()
    workload = workloads[args.workload]
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        metrics, samples, ops, tracer = measure(
            otsource, workload, args.seconds, bool(args.trace), workdir)

    failed = sum(1 for op in ops if op["failures"])
    env = environment(otsource)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env,
        "attempted": len(ops), "failed": failed, "fail_ratio": failed / len(ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "operations": ops,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    if tracer is not None:
        tracer.write_csv(os.path.join(OUT, f"spans-{tag}.csv"))

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(ops)} operations, {failed} failed, fail_ratio {failed / len(ops):g}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = f"  ({samples[name]})" if name in samples else ""
        print(f"  {name:38s} {value!r:>24} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
