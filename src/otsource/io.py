"""Density input, run outputs and the manifest.

Input rasters are grayscale PGM (P2 ascii or P5 binary, maxval up to
65535) or plain CSV matrices with comma-separated columns.  Row r,
column c of the matrix maps to the spatial cell with x index c and
y index r; every cell value is copied to its two triangles.  Rasters
are resampled to the solver grid by exact area-weighted averaging, so
block means are reproduced when the sizes divide.  PGM values are
scaled so maxval becomes 1.0 unless an explicit scale is given; CSV
values pass through unscaled by default.  Densities are never
renormalized.

Outputs are deterministic: floats carry 17 significant digits, lines
end with a bare newline, and rerunning identical inputs reproduces the
CSV files byte for byte at a fixed number of BLAS threads.  Under
another thread count the projection's dense matrix products
(assembly.SpectralPreconditioner) round differently, and the last bits
of the iterates and the CSVs can change.
"""

import hashlib
import os

import numpy as np
import scipy

from .diagnostics import time_profiles, transport_energy
from .exceptions import EmptyImage, NegativeValue, UnsupportedFormat

PGM_MAXVAL_LIMIT = 65535
FRAME_MAXVAL = 65535


def _fmt(x):
    return format(float(x), ".17g")


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
    lines = [f"P2\n{pixels.shape[1]} {pixels.shape[0]}\n{maxval}\n"]
    for row in pixels:
        lines.append(" ".join(str(int(v)) for v in row) + "\n")
    with open(path, "w", newline="\n") as fh:
        fh.writelines(lines)


def _parse_pgm(blob):
    if blob[:2] not in (b"P2", b"P5"):
        raise UnsupportedFormat("not a P2/P5 PGM stream")
    binary = blob[:2] == b"P5"

    # header: magic, width, height, maxval, with '#' comments allowed
    tokens = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(blob):
            raise UnsupportedFormat("truncated PGM header")
        ch = blob[pos : pos + 1]
        if ch == b"#":
            while pos < len(blob) and blob[pos : pos + 1] not in (b"\n", b""):
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(blob) and not blob[pos : pos + 1].isspace():
                pos += 1
            tokens.append(blob[start:pos])
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise UnsupportedFormat(f"bad PGM header: {exc}") from exc
    if width <= 0 or height <= 0:
        raise EmptyImage("raster with zero extent")
    if not 0 < maxval <= PGM_MAXVAL_LIMIT:
        raise UnsupportedFormat(f"maxval {maxval} outside (0, {PGM_MAXVAL_LIMIT}]")
    if binary:
        pos += 1  # single whitespace after maxval
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
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UnsupportedFormat(f"{path}: neither PGM nor text CSV") from exc
    rows = []
    width = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError as exc:
            raise UnsupportedFormat(f"{path}: bad CSV row {line!r}") from exc
        if not all(np.isfinite(row)):
            raise UnsupportedFormat(f"{path}: non-finite value in CSV row {line!r}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise UnsupportedFormat(f"{path}: ragged CSV rows")
        rows.append(row)
    if not rows:
        raise EmptyImage(f"{path}: empty CSV")
    return np.array(rows)


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
    with open(path, "w", newline="\n") as fh:
        for row in grid:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


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
        with open(os.path.join(outdir, "trace.csv"), "w", newline="\n") as fh:
            fh.write("iter,residual,energy,transport,source,mass_defect\n")
            for s in result.stats:
                fh.write(
                    f"{s.iteration},{_fmt(s.fixed_point_residual)},"
                    f"{_fmt(s.energy)},{_fmt(s.transport_energy)},"
                    f"{_fmt(s.source_energy)},{_fmt(s.mass_balance_defect)}\n"
                )

        with open(os.path.join(outdir, "profiles.csv"), "w", newline="\n") as fh:
            fh.write("# node mass = mean of the adjacent slab masses; "
                     "end nodes use their single slab\n")
            fh.write("t,mass,src_abs,src_pos,src_neg\n")
            for row in time_profiles(result.state, mesh):
                fh.write(
                    f"{_fmt(row.t)},{_fmt(row.mass)},{_fmt(row.src_abs)},"
                    f"{_fmt(row.src_pos)},{_fmt(row.src_neg)}\n"
                )

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
