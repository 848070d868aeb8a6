"""Command line front end.

Usage:
    otsource --a left.pgm --b right.pgm --nx 64 --nt 32 --delta 1 --out run1/

Exit codes: 0 on convergence, 2 when the iteration cap was reached (the
outputs are still written), 1 on usage or input errors.  Options may
also come from a key=value file passed with --config; explicit flags
win over the file, the file wins over built-in defaults.
"""

import argparse
import sys

from . import __version__
from .assembly import BoundaryData
from .exceptions import NonConvergence, RootFindFailure
from .io import RunManifest, file_sha256, load_density, write_outputs
from .prox import SOURCE_KINDS, SourceModel
from .solver import SolverConfig, solve

DEFAULTS = {
    "nx": 64,
    "nt": 32,
    "delta": 1.0,
    "gamma": 1.0,
    "alpha": 1.8,
    "iters": 5000,
    "fp_tol": 1e-5,
    "source": "l2huber",
    "beta": 0.1,
    "bc": "neumann",
    "cg_tol": 1e-9,
    "scale": None,
    "out": None,
    "log_every": 0,
}

_FLOAT_KEYS = ("delta", "gamma", "alpha", "fp_tol", "beta", "cg_tol", "scale")
_INT_KEYS = ("nx", "nt", "iters", "log_every")


def build_parser():
    p = argparse.ArgumentParser(
        prog="otsource",
        description="Geodesics of an unbalanced transport distance between two densities.",
    )
    p.add_argument("--a", help="left endpoint density (PGM or CSV)")
    p.add_argument("--b", help="right endpoint density (PGM or CSV)")
    p.add_argument("--nx", type=int, help="spatial cells per axis")
    p.add_argument("--nt", type=int, help="time intervals")
    p.add_argument("--delta", type=float, help="source penalty scale")
    p.add_argument("--gamma", type=float, help="proximal step size")
    p.add_argument("--alpha", type=float, help="relaxation in (0, 2)")
    p.add_argument("--iters", type=int, help="iteration cap")
    p.add_argument("--fp-tol", dest="fp_tol", type=float, help="relative fixed-point tolerance")
    p.add_argument("--source", choices=SOURCE_KINDS, help="source model")
    p.add_argument("--beta", type=float, help="Huber threshold")
    p.add_argument("--bc", choices=("neumann", "periodic"), help="spatial boundaries")
    p.add_argument("--cg-tol", dest="cg_tol", type=float, help="inner linear solver tolerance")
    p.add_argument("--scale", type=float, help="input value scale (default: maxval to 1.0)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--config", help="key=value option file")
    p.add_argument("--log-every", dest="log_every", type=int, help="progress print stride")
    return p


def _read_config_file(path):
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in DEFAULTS and key not in ("a", "b"):
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            values[key] = value.strip()
    for key in _FLOAT_KEYS:
        if key in values:
            values[key] = float(values[key])
    for key in _INT_KEYS:
        if key in values:
            values[key] = int(values[key])
    return values


def _merge_options(args):
    merged = dict(DEFAULTS)
    merged["a"] = None
    merged["b"] = None
    if args.config:
        merged.update(_read_config_file(args.config))
    for key in list(merged):
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def run_cli(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        opts = _merge_options(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not opts["a"] or not opts["b"]:
        print("error: --a and --b input densities are required", file=sys.stderr)
        return 1
    if not 0.0 < opts["alpha"] < 2.0:
        print(f"error: alpha must lie in (0, 2), got {opts['alpha']}", file=sys.stderr)
        return 1
    if opts["source"] == "l1l1":
        print(
            "warning: the l1l1 source model is exploratory; time profiles "
            "lose the disintegration property",
            file=sys.stderr,
        )

    try:
        ua = load_density(opts["a"], opts["nx"], scale=opts["scale"])
        ub = load_density(opts["b"], opts["nx"], scale=opts["scale"])
        bdata = BoundaryData(ua, ub)
        config = SolverConfig(
            nt=opts["nt"],
            delta=opts["delta"],
            gamma=opts["gamma"],
            alpha=opts["alpha"],
            max_iters=opts["iters"],
            fp_tol=opts["fp_tol"],
            cg_tol=opts["cg_tol"],
            source=SourceModel(kind=opts["source"], beta=opts["beta"]),
            bc=opts["bc"],
        )
    except (OSError, ValueError) as exc:  # the io input errors subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1

    stride = opts["log_every"]

    def progress(entry):
        if stride and entry.iteration % stride == 0:
            print(
                f"iter {entry.iteration:6d}  residual {entry.fixed_point_residual:.6e}  "
                f"energy {entry.energy:.9e}",
                file=sys.stderr,
            )

    try:
        result = solve(bdata, config, progress=progress)
    except NonConvergence as exc:
        print(f"error: inner solver failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RootFindFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if opts["out"]:
        manifest = RunManifest()
        manifest.add("version", f"otsource-{__version__}")
        for key in sorted(DEFAULTS):
            manifest.add(key, opts[key])
        manifest.add("a", opts["a"])
        manifest.add("b", opts["b"])
        manifest.add("sha256_a", file_sha256(opts["a"]))
        manifest.add("sha256_b", file_sha256(opts["b"]))
        try:
            write_outputs(result, opts["out"], manifest=manifest)
        except OSError as exc:
            print(f"error: writing outputs failed: {exc}", file=sys.stderr)
            return 1

    last = result.stats[-1]
    print(
        f"{'converged' if result.converged else 'iteration cap reached'} "
        f"after {last.iteration} iterations: energy {last.energy:.9e} "
        f"(transport {last.transport_energy:.3e}, source {last.source_energy:.3e})"
    )
    return 0 if result.converged else 2


def main():
    sys.exit(run_cli())
