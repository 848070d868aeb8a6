"""Density input, run outputs and the manifest.

Input rasters are grayscale PGM (P2 ascii or P5 binary, maxval up to
65535) or plain CSV matrices with comma-separated columns.  Row r,
column c of the matrix maps to the spatial cell with x index c and
y index r; every cell value is copied to its two triangles.  Rasters
are resampled to the solver grid by exact area-weighted averaging, so
block means are reproduced when the sizes divide.  PGM values are
scaled so maxval becomes 1.0 unless an explicit scale is given; CSV
values pass through unscaled by default.  Densities are never
renormalized.  CSV text is read by np.loadtxt ('#' starts a comment,
blank lines are skipped) and written by np.savetxt; the PGM header is
matched by one regular expression.

Outputs are deterministic: floats carry 17 significant digits, lines
end with a bare newline, and rerunning identical inputs reproduces the
CSV files byte for byte at a fixed number of BLAS threads.  Under
another thread count the projection's dense matrix products
(assembly.SpectralPreconditioner) round differently, and the last bits
of the iterates and the CSVs can change.
"""

import dataclasses
import hashlib
import os
import re
import warnings

import numpy as np
import scipy

from .diagnostics import time_profiles, transport_energy
from .exceptions import EmptyImage, NegativeValue, UnsupportedFormat

PGM_MAXVAL_LIMIT = 65535
FRAME_MAXVAL = 65535

# magic, then width, height and maxval, each after whitespace or
# '#' comments; a P5 payload starts after exactly one whitespace byte.
# Nine digits bound every field far above any raster and keep int()
# clear of its digit limit.
_PGM_HEADER = re.compile(rb"P([25])" + rb"(?:\s|#[^\n]*\n)+(\d{1,9})" * 3 + rb"\s")


def _fmt(x):
    return format(float(x), ".17g")


def _savetxt(path, rows, **layout):
    """np.savetxt into a file whose lines end with a bare newline on every platform."""
    with open(path, "w", newline="\n") as fh:
        np.savetxt(fh, rows, **layout)


def load_density(path, nx, scale=None):
    """Load a density file and resample it to the nx * nx cell grid.

    Returns one value per spatial triangle in the documented order:
    cell (i, j) owns triangles 2*(j*nx+i) and 2*(j*nx+i)+1.  Negative
    inputs raise NegativeValue and NaN or inf CSV cells UnsupportedFormat;
    the file type is detected from content.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] in (b"P2", b"P5"):
        pixels, maxval = _parse_pgm(blob)
        if scale is None:
            scale = 1.0 / maxval
    else:
        pixels = _parse_csv(blob, path)
        if scale is None:
            scale = 1.0
    if pixels.size == 0:
        raise EmptyImage(f"{path}: no pixels")
    if np.any(pixels < 0):
        raise NegativeValue(f"{path}: densities must be nonnegative")
    cells = _resample(pixels.astype(float) * scale, nx)
    return np.repeat(cells.ravel(), 2)


def read_pgm(path):
    """Read a PGM file; returns (pixels, maxval) with pixels[row, col]."""
    with open(path, "rb") as fh:
        return _parse_pgm(fh.read())


def write_pgm(path, pixels, maxval=FRAME_MAXVAL):
    """Write an ascii (P2) PGM; pixels are integers in [0, maxval]."""
    pixels = np.asarray(pixels)
    header = f"P2\n{pixels.shape[1]} {pixels.shape[0]}\n{maxval}"
    _savetxt(path, pixels, fmt="%d", header=header, comments="")


def _parse_pgm(blob):
    header = _PGM_HEADER.match(blob)
    if header is None:
        raise UnsupportedFormat("not a P2/P5 PGM stream, or a bad or truncated header")
    binary = header[1] == b"5"
    width, height, maxval = (int(t) for t in header.groups()[1:])
    pos = header.end()
    if width <= 0 or height <= 0:
        raise EmptyImage("raster with zero extent")
    if not 0 < maxval <= PGM_MAXVAL_LIMIT:
        raise UnsupportedFormat(f"maxval {maxval} outside (0, {PGM_MAXVAL_LIMIT}]")
    if binary:
        wide = maxval > 255
        count = width * height
        dtype = np.dtype(">u2" if wide else np.uint8)
        payload = blob[pos : pos + count * dtype.itemsize]
        if len(payload) != count * dtype.itemsize:
            raise UnsupportedFormat("truncated P5 payload")
        data = np.frombuffer(payload, dtype=dtype)
        pixels = data.astype(np.int64)
    else:
        try:
            pixels = np.array(blob[pos:].split(), dtype=np.int64)
        except ValueError as exc:
            raise UnsupportedFormat(f"bad P2 payload: {exc}") from exc
        if pixels.size != width * height:
            raise UnsupportedFormat(
                f"P2 payload has {pixels.size} samples, header says {width * height}"
            )
    if np.any(pixels > maxval):
        raise UnsupportedFormat("sample exceeds maxval")
    return pixels.reshape(height, width), maxval


def _parse_csv(blob, path):
    try:
        lines = blob.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise UnsupportedFormat(f"{path}: neither PGM nor text CSV") from exc
    try:
        with warnings.catch_warnings():
            # input without data rows: load_density rejects the empty array
            warnings.simplefilter("ignore", UserWarning)
            pixels = np.loadtxt(lines, delimiter=",", comments="#", ndmin=2)
    except ValueError as exc:
        raise UnsupportedFormat(f"{path}: bad CSV: {exc}") from exc
    if not np.all(np.isfinite(pixels)):
        raise UnsupportedFormat(f"{path}: non-finite value in CSV")
    return pixels


def _resample(pixels, nx):
    """Exact area-weighted resampling onto the nx * nx cell grid."""
    if nx < 2:
        raise ValueError(f"nx must be at least 2, got {nx}")

    def overlaps(n_from):
        # entry [a, p]: length of the overlap of target cell a with pixel p
        edges_t = np.linspace(0.0, 1.0, nx + 1)
        edges_p = np.linspace(0.0, 1.0, n_from + 1)
        lo = np.maximum(edges_t[:-1, None], edges_p[None, :-1])
        hi = np.minimum(edges_t[1:, None], edges_p[None, 1:])
        return np.maximum(hi - lo, 0.0)

    wy = overlaps(pixels.shape[0])
    wx = overlaps(pixels.shape[1])
    cell_area = (1.0 / nx) ** 2
    return (wy @ pixels @ wx.T) / cell_area


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


class RunManifest:
    """Ordered key=value record of one run, written before any frame."""

    def __init__(self):
        self.entries = []

    def add(self, key, value):
        self.entries.append((str(key), str(value)))

    def write(self, path):
        with open(path, "w", newline="\n") as fh:
            for key, value in self.entries:
                fh.write(f"{key}={value}\n")


def _cells_from_p0(values, nx):
    """Average the two triangle values of every cell into an nx * nx grid."""
    cells = 0.5 * (values[0::2] + values[1::2])
    return cells.reshape(nx, nx)


def _density_frames(result):
    """Per-time-node cell grids; the end nodes show the boundary data."""
    mesh = result.mesh
    nx, nt = mesh.nx, mesh.nt
    # a prism's three tetrahedra have equal volumes
    slabs = mesh.prisms(result.state.rho).mean(axis=2)
    frames = [_cells_from_p0(result.bdata.ua, nx)]
    for k in range(1, nt):
        frames.append(_cells_from_p0(0.5 * (slabs[k - 1] + slabs[k]), nx))
    frames.append(_cells_from_p0(result.bdata.ub, nx))
    return frames


def _momentum_frames(result):
    mesh = result.mesh
    slabs = mesh.prisms(result.state.m).mean(axis=2)
    mag = np.hypot(slabs[..., 0], slabs[..., 1])
    return [_cells_from_p0(mag[k], mesh.nx) for k in range(mesh.nt)]


def _source_frames(result):
    """Nodal z rendered per cell by averaging the four cell corners."""
    mesh = result.mesh
    nx = mesh.nx
    zs = result.state.z.reshape(mesh.nt + 1, mesh.nsp)
    frames = []
    for k in range(mesh.nt + 1):
        if mesh.bc == "periodic":
            grid = zs[k].reshape(nx, nx)
            ext = np.pad(grid, ((0, 1), (0, 1)), mode="wrap")
        else:
            ext = zs[k].reshape(nx + 1, nx + 1)
        cells = 0.25 * (ext[:-1, :-1] + ext[1:, :-1] + ext[:-1, 1:] + ext[1:, 1:])
        frames.append(cells)
    return frames


def _write_csv_grid(path, grid):
    _savetxt(path, grid, fmt="%.17g", delimiter=",")


def _quantize(frames, norm):
    out = []
    for grid in frames:
        scaled = np.clip(grid / norm, 0.0, 1.0) if norm > 0 else np.zeros_like(grid)
        out.append(np.rint(scaled * FRAME_MAXVAL).astype(np.int64))
    return out


def write_outputs(result, outdir, manifest=None):
    """Write manifest, iteration trace, time profiles and frames.

    Frames follow the time nodes: frame_000 reproduces the resampled
    input density u_A (up to PGM quantization) and the last frame u_B;
    interior nodes average the adjacent slabs.  Momentum frames are per
    slab.  Every PGM family is normalized by one per-run constant that
    is recorded in the manifest, and each frame also gets a raw CSV for
    quantitative use.  The manifest is written first so that partially
    written runs remain attributable; on a write failure it is rewritten
    with partial=true before the error propagates.  The manifest also
    records the infeasible volume of the returned state, as
    diagnostics.transport_energy counts it, so a run that stops at the
    cap with negative density or momentum over vacuum says so.
    """
    os.makedirs(outdir, exist_ok=True)
    mesh = result.mesh

    rho_frames = _density_frames(result)
    mom_frames = _momentum_frames(result)
    src_frames = _source_frames(result)
    norm_rho = max((float(np.max(f)) for f in rho_frames), default=0.0)
    norm_mom = max((float(np.max(f)) for f in mom_frames), default=0.0)
    norm_src = max((float(np.max(np.abs(f))) for f in src_frames), default=0.0)

    if manifest is None:
        manifest = RunManifest()
    manifest.add("nx", mesh.nx)
    manifest.add("nt", mesh.nt)
    manifest.add("bc", mesh.bc)
    manifest.add("iterations", len(result.stats))
    manifest.add("converged", str(result.converged).lower())
    manifest.add("infeasible_volume", _fmt(transport_energy(result.state, mesh)[1]))
    manifest.add("wall_seconds", _fmt(result.wall_seconds))
    manifest.add("frame_norm_rho", _fmt(norm_rho))
    manifest.add("frame_norm_mom", _fmt(norm_mom))
    manifest.add("frame_norm_src", _fmt(norm_src))
    manifest.add("numpy", np.__version__)
    manifest.add("scipy", scipy.__version__)
    manifest_path = os.path.join(outdir, "manifest.txt")
    manifest.write(manifest_path)

    try:
        trace = [(s.iteration, s.fixed_point_residual, s.energy, s.transport_energy,
                  s.source_energy, s.mass_balance_defect) for s in result.stats]
        _savetxt(os.path.join(outdir, "trace.csv"), trace, fmt="%d" + ",%.17g" * 5,
                 header="iter,residual,energy,transport,source,mass_defect", comments="")

        profiles = [dataclasses.astuple(row) for row in time_profiles(result.state, mesh)]
        _savetxt(os.path.join(outdir, "profiles.csv"), profiles, fmt="%.17g", delimiter=",",
                 header="# node mass = mean of the adjacent slab masses; "
                        "end nodes use their single slab\nt,mass,src_abs,src_pos,src_neg",
                 comments="")

        families = (
            ("frame", "density", rho_frames, _quantize(rho_frames, norm_rho)),
            ("momentum", "momentum", mom_frames, _quantize(mom_frames, norm_mom)),
            ("source", "source", src_frames,
             _quantize([np.abs(f) for f in src_frames], norm_src)),
        )
        for pgm, csv, frames, quantized in families:
            for k, (grid, quant) in enumerate(zip(frames, quantized)):
                write_pgm(os.path.join(outdir, f"{pgm}_{k:03d}.pgm"), quant)
                _write_csv_grid(os.path.join(outdir, f"{csv}_{k:03d}.csv"), grid)
    except OSError:
        manifest.add("partial", "true")
        manifest.write(manifest_path)
        raise
