"""Command line front end.

Usage:
    otsource --a left.pgm --b right.pgm --nx 64 --nt 32 --delta 1 --out run1/

The parser is the one table of options.  Solver defaults are read from
SolverConfig and SourceModel; the command line adds only its own: nx=64,
no input scale, no output directory and no progress printing.  Options
may also come from a key=value file passed with --config, whose keys
may be spelled with - or _.  Its lines become --key=value flags that go
through the same parser ahead of the command line, so explicit flags
win over the file, and the file wins over the defaults.

Exit codes: 0 on convergence, 2 when the iteration cap was reached (the
outputs are still written), 1 on usage or input errors.
"""

import argparse
import sys

from .assembly import BoundaryData
from .diagnostics import energy_breakdown
from .exceptions import NonConvergence, RootFindFailure
from .io import file_sha256, load_density, write_outputs
from .mesh import BOUNDARY_CONDITIONS
from .prox import SOURCE_KINDS, SourceModel
from .solver import SolverConfig, solve


def _stride(text):
    """The type of --log-every: an integer of at least 0, 0 for no prints."""
    try:
        stride = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if stride < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {stride}")
    return stride


def build_parser(exit_on_error=True):
    config = SolverConfig()
    p = argparse.ArgumentParser(
        prog="otsource",
        description="Geodesics of an unbalanced transport distance between two densities.",
        exit_on_error=exit_on_error,
    )
    p.add_argument("--a", help="left endpoint density (PGM or CSV)")
    p.add_argument("--b", help="right endpoint density (PGM or CSV)")
    p.add_argument("--nx", type=int, default=64, help="spatial cells per axis")
    p.add_argument("--nt", type=int, default=config.nt, help="time intervals")
    p.add_argument("--delta", type=float, default=config.delta, help="source penalty scale")
    p.add_argument("--gamma", type=float, default=config.gamma, help="proximal step size")
    p.add_argument("--alpha", type=float, default=config.alpha, help="relaxation in (0, 2)")
    p.add_argument("--iters", type=int, default=config.max_iters, help="iteration cap")
    p.add_argument("--fp-tol", dest="fp_tol", type=float, default=config.fp_tol,
                   help="relative fixed-point tolerance")
    p.add_argument("--source", choices=SOURCE_KINDS, default=config.source.kind,
                   help="source model")
    p.add_argument("--beta", type=float, default=config.source.beta, help="Huber threshold")
    p.add_argument("--bc", choices=BOUNDARY_CONDITIONS, default=config.bc,
                   help="spatial boundaries")
    p.add_argument("--scale", type=float, help="input value scale (default: maxval to 1.0)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--config", help="key=value option file")
    p.add_argument("--log-every", dest="log_every", type=_stride, default=0,
                   help="progress print stride")
    return p


def _config_flags(path):
    """The --key=value flags of a key=value option file.

    A key must be one of the parser's destinations, spelled out, and not
    config itself.  Each flag is parsed on its own, so a bad key or
    value raises a ValueError that names the file and line.
    """
    parser = build_parser(exit_on_error=False)
    known = vars(parser.parse_args([]))
    flags = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            dest = key.replace("-", "_")
            if dest not in known or dest == "config":
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            flag = f"--{dest.replace('_', '-')}={value}"
            try:
                parser.parse_args([flag])
            except argparse.ArgumentError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            flags.append(flag)
    return flags


def run_cli(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(_config_flags(args.config) + argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a capped run
        return 1 if exc.code else 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not args.a or not args.b:
        print("error: --a and --b input densities are required", file=sys.stderr)
        return 1
    if args.source == "l1l1":
        print(
            "warning: the l1l1 source model is exploratory; time profiles "
            "lose the disintegration property",
            file=sys.stderr,
        )

    try:
        ua = load_density(args.a, args.nx, scale=args.scale)
        ub = load_density(args.b, args.nx, scale=args.scale)
        bdata = BoundaryData(ua, ub)
        config = SolverConfig(
            nt=args.nt,
            delta=args.delta,
            gamma=args.gamma,
            alpha=args.alpha,
            max_iters=args.iters,
            fp_tol=args.fp_tol,
            source=SourceModel(kind=args.source, beta=args.beta),
            bc=args.bc,
        )
    except (OSError, ValueError) as exc:  # the io input errors subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1

    stride = args.log_every

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
        print(f"error: the iteration diverged: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RootFindFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.out:
        # write_outputs records the settings; add what the result cannot know
        manifest = {"a": args.a, "b": args.b,
                    "sha256_a": file_sha256(args.a), "sha256_b": file_sha256(args.b),
                    "scale": args.scale, "log_every": args.log_every}
        try:
            write_outputs(result, args.out, manifest=manifest)
        except OSError as exc:
            print(f"error: writing outputs failed: {exc}", file=sys.stderr)
            return 1

    last = result.stats[-1]
    # the trace energy and the image defect are read on the prox image,
    # not on the returned state, which may hold negative density or
    # momentum over vacuum; give both points, as the manifest does
    breakdown = energy_breakdown(result.state, config.source, config.delta, result.mesh)
    print(
        f"{'converged' if result.converged else 'iteration cap reached'} "
        f"after {last.iteration} iterations: energy {last.energy:.9e} "
        f"(transport {last.transport_energy:.3e}, source {last.source_energy:.3e}), "
        f"image defect {result.image_defect:.3e}, "
        f"state energy {breakdown.total:.9e}, "
        f"infeasible volume {breakdown.infeasible_volume:.3e}"
    )
    return 0 if result.converged else 2


def main():
    sys.exit(run_cli())
