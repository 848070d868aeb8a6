"""Span tracing around the solver's layers, installed from outside.

The tracer replaces module attributes of the package with timing
wrappers for the lifetime of a `with Tracer.installed():` block and
restores the originals on exit.  Only names that the package looks up
at call time are wrapped, so no file under src/ needs to know about
tracing.  Spans live in memory and are written once, at the end.
"""

import contextlib
import functools
import importlib
import time

# (module, attribute, span name): the module is the one whose global the
# caller reads, which is why most entries patch otsource.solver, the
# module that imports these names directly.  huber gets no span of its
# own: it runs about 50 times per source prox on small arrays, where a
# span would cost as much as the call, so it only counts itself into
# the enclosing prox.prox_source span.
TARGETS = (
    ("otsource.solver", "solve", "solver.solve"),
    ("otsource.solver", "SpaceTimeMesh", "mesh.build"),
    ("otsource.solver", "assemble_system", "assembly.assemble_system"),
    ("otsource.solver", "project_continuity", "assembly.project_continuity"),
    ("otsource.assembly", "cg_solve", "assembly.cg_solve"),
    ("otsource.solver", "prox_transport", "prox.prox_transport"),
    ("otsource._kernels", "project_paraboloid", "kernels.project_paraboloid"),
    ("otsource.solver", "prox_source_l2huber", "prox.prox_source"),
    ("otsource.prox", "huber", None),
    ("otsource.solver", "transport_energy", "diagnostics.transport_energy"),
    ("otsource.solver", "source_energy", "diagnostics.source_energy"),
    ("otsource.io", "load_density", "io.load_density"),
    ("otsource.io", "write_outputs", "io.write_outputs"),
)

# span fields, kept as lists so the wrapper can fill them in place
NAME, START, END, PARENT, OP, COUNT, FAILED = range(7)

# the paraboloid kernel reads three float64 inputs and writes three
# float64 outputs per point
KERNEL_BYTES_PER_POINT = 48


class Tracer:
    """In-memory span recorder.

    Each span is [name, start, end, parent index, operation id, count,
    failed].  count is the number of CG iterations for cg_solve, the
    number of points for the kernel, the number of huber evaluations
    for prox.prox_source and 0 elsewhere.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def count_into_parent(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer._stack:
                tracer.spans[tracer._stack[-1]][COUNT] += 1
            return fn(*args, **kwargs)

        return counted

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.op, 0, False]
            if name == "assembly.cg_solve":
                kwargs["callback"] = _counting(span, kwargs.get("callback"))
            elif name == "kernels.project_paraboloid":
                span[COUNT] = len(args[0])
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for modname, attr, name in TARGETS:
                module = importlib.import_module(modname)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original) if name
                        else self.count_into_parent(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write("index,name,start,end,parent,op,count,failed\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},"
                         f"{s[OP]},{s[COUNT]},{int(s[FAILED])}\n")


def _counting(span, callback):
    def count(x):
        span[COUNT] += 1
        if callback is not None:
            callback(x)

    return count


def layer_metrics(spans, ops):
    """Per-layer metrics of the traced operations.

    ops are the traced operation records; each carries the solver's own
    DR-loop wall time ("loop_s", which is GeodesicResult.wall_seconds).
    Times are seconds per operation; each *_share divides the same span
    total by the summed DR-loop time.
    """
    n_ops = len(ops)
    loop_s = sum(op["loop_s"] for op in ops)
    total = {}
    calls = {}
    counts = {}
    failures = {}
    for s in spans:
        name = s[NAME]
        total[name] = total.get(name, 0.0) + (s[END] - s[START])
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + s[COUNT]
        failures[name] = failures.get(name, 0) + int(s[FAILED])

    # solver self time: the DR loop minus the layer calls it makes;
    # mesh build and assembly run before the loop's clock starts
    solve_ids = {i for i, s in enumerate(spans) if s[NAME] == "solver.solve"}
    outside_loop = ("mesh.build", "assembly.assemble_system")
    children = sum(
        s[END] - s[START]
        for s in spans
        if s[PARENT] in solve_ids and s[NAME] not in outside_loop
    )

    def per_op(name):
        return total.get(name, 0.0) / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    timed = {name: per_op(name) for name in (
        "assembly.cg_solve", "assembly.project_continuity",
        "kernels.project_paraboloid", "prox.prox_transport", "prox.prox_source",
        "diagnostics.transport_energy", "diagnostics.source_energy",
        "mesh.build", "assembly.assemble_system",
        "io.load_density", "io.write_outputs",
    )}
    timed["solver.self"] = (loop_s - children) / n_ops
    out = {}
    for name, seconds in timed.items():
        out[f"{name}_s"] = (seconds, "s")
        out[f"{name}_share"] = (ratio(seconds * n_ops, loop_s), "ratio")
    points = counts.get("kernels.project_paraboloid", 0)
    out.update({
        "solver.dr_loop_s": (loop_s / n_ops, "s"),
        "assembly.cg_iters_per_solve": (
            ratio(counts.get("assembly.cg_solve", 0), calls.get("assembly.cg_solve", 0)),
            "count",
        ),
        "assembly.cg_failures": (failures.get("assembly.cg_solve", 0), "count"),
        "kernels.points_per_s": (
            ratio(points, total.get("kernels.project_paraboloid", 0.0)), "1/s"
        ),
        "kernels.bytes_computed": (KERNEL_BYTES_PER_POINT * points / n_ops, "B"),
        "prox.huber_evals_per_call": (
            ratio(counts.get("prox.prox_source", 0), calls.get("prox.prox_source", 0)),
            "count",
        ),
        "io.bytes_written": (sum(op["bytes_written"] for op in ops) / n_ops, "B"),
    })
    return out
