"""Input parsing, resampling, and output-file behavior."""

import dataclasses
import hashlib
import os

import numpy as np
import pytest
import scipy

import otsource
from otsource import io
from otsource.assembly import BoundaryData
from otsource.diagnostics import energy_breakdown
from otsource.exceptions import EmptyImage, NegativeValue, UnsupportedFormat
from otsource.io import (
    file_sha256,
    load_density,
    read_pgm,
    write_outputs,
    write_pgm,
)
from otsource.mesh import State
from otsource.prox import SourceModel
from otsource.solver import SolverConfig, solve


def _write(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return str(path)


# ---------------------------------------------------------------- CSV input


def test_csv_values_map_row_to_y_col_to_x(tmp_path):
    # row r is the y index, column c the x index; cell (x=i, y=j) owns
    # triangles 2*(j*nx+i) and 2*(j*nx+i)+1
    path = _write(tmp_path / "m.csv", "1,2\n3,4\n")
    tris = load_density(path, 2)
    cells = tris[0::2]
    assert np.array_equal(tris[0::2], tris[1::2])
    assert cells[0 * 2 + 0] == 1.0  # x=0, y=0
    assert cells[0 * 2 + 1] == 2.0  # x=1, y=0
    assert cells[1 * 2 + 0] == 3.0  # x=0, y=1
    assert cells[1 * 2 + 1] == 4.0  # x=1, y=1


def test_csv_passes_values_unscaled_by_default(tmp_path):
    path = _write(tmp_path / "m.csv", "0.5,0.25\n0,2.5\n")
    tris = load_density(path, 2)
    assert tris.max() == 2.5 and tris.min() == 0.0


def test_csv_scale_override(tmp_path):
    path = _write(tmp_path / "m.csv", "1,2\n3,4\n")
    tris = load_density(path, 2, scale=10.0)
    assert tris.max() == 40.0


def test_csv_comments_and_blank_lines_skipped(tmp_path):
    path = _write(tmp_path / "m.csv", "# header\n\n1,2\n\n3,4\n")
    assert load_density(path, 2).size == 8


def test_csv_ragged_rows_rejected(tmp_path):
    path = _write(tmp_path / "m.csv", "1,2\n3\n")
    with pytest.raises(UnsupportedFormat):
        load_density(path, 2)


def test_csv_negative_rejected(tmp_path):
    path = _write(tmp_path / "m.csv", "1,-2\n3,4\n")
    with pytest.raises(NegativeValue):
        load_density(path, 2)


def test_csv_non_finite_rejected(tmp_path):
    # NaN passes a "< 0" check, so it needs its own
    for cell in ("nan", "inf", "-inf", "NaN"):
        path = _write(tmp_path / "m.csv", f"1,{cell}\n3,4\n")
        with pytest.raises(UnsupportedFormat, match="non-finite"):
            load_density(path, 2)


def test_empty_csv_rejected(tmp_path):
    path = _write(tmp_path / "m.csv", "# nothing\n")
    with pytest.raises(EmptyImage):
        load_density(path, 2)


def test_csv_round_trips_bit_for_bit(tmp_path):
    # the frame CSV writer and load_density's CSV reader; 0.1 + 0.2
    # needs all 17 significant digits
    grid = np.array([[1 / 3, -0.0, 5e-324], [1e300, -2.5, 0.1 + 0.2]])
    path = tmp_path / "g.csv"
    io._write_csv_grid(str(path), grid)
    back = io._parse_csv(path.read_bytes(), str(path))
    assert back.dtype == grid.dtype and back.tobytes() == grid.tobytes()


def test_binary_garbage_rejected(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"\xff\xfe\x00garbage")
    with pytest.raises(UnsupportedFormat):
        load_density(str(path), 2)


# ---------------------------------------------------------------- PGM input


def test_p2_scales_maxval_to_one(tmp_path):
    path = _write(tmp_path / "m.pgm", "P2\n2 2\n100\n100 50\n0 25\n")
    tris = load_density(path, 2)
    cells = tris[0::2]
    assert cells[0] == 1.0 and cells[1] == 0.5 and cells[2] == 0.0 and cells[3] == 0.25


def test_p2_header_comments(tmp_path):
    path = _write(tmp_path / "m.pgm", "P2\n# a comment\n2 # inline\n2\n10\n1 2 3 4\n")
    pixels, maxval = read_pgm(path)
    assert maxval == 10
    assert np.array_equal(pixels, [[1, 2], [3, 4]])


def test_pgm_header_comments_between_every_token(tmp_path):
    path = _write(tmp_path / "m.pgm",
                  "P2# right after the magic\n2\n# w\n2 # h\n#\n10\n1 2 3 4\n")
    pixels, maxval = read_pgm(path)
    assert maxval == 10
    assert np.array_equal(pixels, [[1, 2], [3, 4]])


def test_p5_payload_after_exactly_one_whitespace_byte(tmp_path):
    # every sample is a whitespace byte, so skipping more than one
    # would shift the payload
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5 # c\n2 2\n255\n" + bytes([10, 32, 13, 9]))
    pixels, maxval = read_pgm(str(path))
    assert maxval == 255
    assert np.array_equal(pixels, [[10, 32], [13, 9]])


def test_p5_binary_8bit(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([255, 128, 0, 64]))
    pixels, maxval = read_pgm(str(path))
    assert maxval == 255
    assert np.array_equal(pixels, [[255, 128], [0, 64]])


def test_p5_binary_16bit_big_endian(tmp_path):
    samples = np.array([65535, 1, 256, 0], dtype=">u2")
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + samples.tobytes())
    pixels, maxval = read_pgm(str(path))
    assert maxval == 65535
    assert np.array_equal(pixels, [[65535, 1], [256, 0]])


def test_pgm_maxval_out_of_range(tmp_path):
    path = _write(tmp_path / "m.pgm", "P2\n1 1\n70000\n1\n")
    with pytest.raises(UnsupportedFormat):
        read_pgm(path)


def test_pgm_sample_exceeding_maxval(tmp_path):
    path = _write(tmp_path / "m.pgm", "P2\n1 1\n10\n11\n")
    with pytest.raises(UnsupportedFormat):
        read_pgm(path)


def test_pgm_truncated_payload(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n2 2\n255\n\x01\x02")
    with pytest.raises(UnsupportedFormat):
        read_pgm(str(path))


def test_pgm_wrong_sample_count_p2(tmp_path):
    path = _write(tmp_path / "m.pgm", "P2\n2 2\n9\n1 2 3\n")
    with pytest.raises(UnsupportedFormat):
        read_pgm(path)


def test_pgm_zero_extent(tmp_path):
    path = _write(tmp_path / "m.pgm", "P2\n0 2\n9\n")
    with pytest.raises(EmptyImage):
        read_pgm(path)


def test_write_read_pgm_round_trip(tmp_path):
    grid = np.arange(12).reshape(3, 4) * 5000
    path = str(tmp_path / "m.pgm")
    write_pgm(path, grid, maxval=65535)
    pixels, maxval = read_pgm(path)
    assert maxval == 65535
    assert np.array_equal(pixels, grid)


# --------------------------------------------------------------- resampling


def test_downsampling_reproduces_block_means(tmp_path):
    rng = np.random.default_rng(7)
    pix = rng.integers(0, 101, size=(8, 8))
    body = "\n".join(",".join(str(v) for v in row) for row in pix)
    path = _write(tmp_path / "m.csv", body + "\n")
    tris = load_density(path, 4)
    cells = tris[0::2].reshape(4, 4)
    blocks = pix.reshape(4, 2, 4, 2).mean(axis=(1, 3))
    assert np.allclose(cells, blocks, atol=1e-12)


def test_upsampling_constant_preserved(tmp_path):
    path = _write(tmp_path / "m.csv", "3,3\n3,3\n")
    tris = load_density(path, 8)
    assert np.allclose(tris, 3.0)


def test_resampling_preserves_mean_for_coprime_sizes(tmp_path):
    rng = np.random.default_rng(11)
    pix = rng.random((3, 5))
    body = "\n".join(",".join(format(v, ".17g") for v in row) for row in pix)
    path = _write(tmp_path / "m.csv", body + "\n")
    tris = load_density(path, 4)
    cells = tris[0::2]
    assert np.isclose(cells.mean(), pix.mean(), atol=1e-12)


# ------------------------------------------------------------- run outputs


@pytest.fixture(scope="module")
def tiny_result():
    nx, nt = 4, 2
    ua = np.full(2 * nx * nx, 0.5)
    ub = np.full(2 * nx * nx, 0.5)
    ub[: nx * nx] = 1.0
    cfg = SolverConfig(
        nt=nt, source=SourceModel("l2l2"), max_iters=40, fp_tol=0.0
    )
    return solve(BoundaryData(ua, ub), cfg)


def _tree_digest(root):
    digest = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            digest[name] = hashlib.sha256(fh.read()).hexdigest()
    return digest


def test_outputs_are_byte_deterministic(tiny_result, tmp_path):
    write_outputs(tiny_result, str(tmp_path / "one"))
    write_outputs(tiny_result, str(tmp_path / "two"))
    assert _tree_digest(tmp_path / "one") == _tree_digest(tmp_path / "two")


def test_output_file_inventory(tiny_result, tmp_path):
    out = tmp_path / "run"
    write_outputs(tiny_result, str(out))
    names = set(os.listdir(out))
    nt = tiny_result.mesh.nt
    assert "manifest.txt" in names
    assert "trace.csv" in names
    assert "profiles.csv" in names
    for k in range(nt + 1):
        assert f"frame_{k:03d}.pgm" in names
        assert f"density_{k:03d}.csv" in names
        assert f"source_{k:03d}.pgm" in names
        assert f"source_{k:03d}.csv" in names
    for k in range(nt):
        assert f"momentum_{k:03d}.pgm" in names
        assert f"momentum_{k:03d}.csv" in names


def test_first_density_frame_is_left_endpoint(tiny_result, tmp_path):
    out = tmp_path / "run"
    write_outputs(tiny_result, str(out))
    nx = tiny_result.mesh.nx
    grid = np.loadtxt(out / "density_000.csv", delimiter=",")
    ua = tiny_result.bdata.ua
    cells = 0.5 * (ua[0::2] + ua[1::2]).reshape(nx, nx)
    assert np.allclose(grid, cells, atol=1e-15)


def test_frame_pgm_matches_csv_up_to_quantization(tiny_result, tmp_path):
    out = tmp_path / "run"
    write_outputs(tiny_result, str(out))
    norm = None
    with open(out / "manifest.txt") as fh:
        for line in fh:
            if line.startswith("frame_norm_rho="):
                norm = float(line.split("=", 1)[1])
    assert norm is not None and norm > 0
    pixels, maxval = read_pgm(str(out / "frame_000.pgm"))
    grid = np.loadtxt(out / "density_000.csv", delimiter=",")
    assert np.max(np.abs(pixels / maxval * norm - grid)) <= norm / maxval


def test_trace_has_one_row_per_iteration(tiny_result, tmp_path):
    out = tmp_path / "run"
    write_outputs(tiny_result, str(out))
    with open(out / "trace.csv") as fh:
        rows = [line for line in fh if line.strip()]
    assert len(rows) == 1 + len(tiny_result.stats)


def test_profiles_has_one_row_per_time_node(tiny_result, tmp_path):
    out = tmp_path / "run"
    write_outputs(tiny_result, str(out))
    data = np.loadtxt(out / "profiles.csv", delimiter=",", skiprows=2)
    assert data.shape[0] == tiny_result.mesh.nt + 1
    assert np.isclose(data[0, 0], 0.0) and np.isclose(data[-1, 0], 1.0)


def test_manifest_records_mesh_and_convergence(tiny_result, tmp_path):
    out = tmp_path / "run"
    write_outputs(tiny_result, str(out), manifest={"custom": "kept"})
    text = (out / "manifest.txt").read_text()
    assert text.startswith("custom=kept\n")
    assert f"nx={tiny_result.mesh.nx}\n" in text
    assert f"nt={tiny_result.mesh.nt}\n" in text
    assert "converged=" in text and "wall_seconds=" in text
    assert f"numpy={np.__version__}\n" in text and f"scipy={scipy.__version__}\n" in text
    # the returned state of this run is feasible
    assert "\ninfeasible_volume=0\n" in text
    # the line reads the returned state: negative density in two
    # elements is their volume
    rho = tiny_result.state.rho.copy()
    rho[[0, 5]] = -1.0
    bad = dataclasses.replace(
        tiny_result, state=State(rho, tiny_result.state.m, tiny_result.state.z)
    )
    write_outputs(bad, str(tmp_path / "bad"))
    text = (tmp_path / "bad" / "manifest.txt").read_text()
    expected = 2 * tiny_result.mesh.tet_volume
    assert f"\ninfeasible_volume={format(expected, '.17g')}\n" in text


def test_manifest_states_each_setting_once_from_the_config(tiny_result, tmp_path):
    write_outputs(tiny_result, str(tmp_path))
    lines = [line.split("=", 1) for line in (tmp_path / "manifest.txt").read_text().splitlines()]
    keys = [key for key, _ in lines]
    assert len(keys) == len(set(keys))
    entries = dict(lines)
    config = tiny_result.config
    assert entries["version"] == f"otsource-{otsource.__version__}"
    assert entries["nx"] == str(tiny_result.mesh.nx)
    # every SolverConfig field, the source model as its kind and beta
    settings = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    settings.update(source=config.source.kind, beta=config.source.beta)
    assert len(settings) == 9
    for key, value in settings.items():
        assert entries[key] == str(value), key


def test_manifest_energies_match_direct_calls(tiny_result, tmp_path):
    # the last trace energy and the continuity defect, read on the prox
    # image, next to the energy and infeasible volume of the returned state
    write_outputs(tiny_result, str(tmp_path))
    lines = [line.split("=", 1) for line in (tmp_path / "manifest.txt").read_text().splitlines()]
    keys = [key for key, _ in lines]
    entries = dict(lines)
    config = tiny_result.config
    breakdown = energy_breakdown(tiny_result.state, config.source, config.delta,
                                 tiny_result.mesh)
    for key in ("energy", "state_energy", "infeasible_volume", "image_defect"):
        assert keys.count(key) == 1, key
    assert float(entries["energy"]) == tiny_result.stats[-1].energy
    assert float(entries["image_defect"]) == tiny_result.image_defect
    assert float(entries["state_energy"]) == breakdown.total
    assert float(entries["infeasible_volume"]) == breakdown.infeasible_volume


def test_write_error_marks_manifest_partial(tiny_result, tmp_path):
    # a directory in the place of trace.csv makes the first data write fail
    (tmp_path / "trace.csv").mkdir()
    with pytest.raises(OSError):
        write_outputs(tiny_result, str(tmp_path))
    text = (tmp_path / "manifest.txt").read_text()
    assert text.endswith("\npartial=true\n")
    assert text.count("partial=") == 1


def test_file_sha256_matches_hashlib(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(b"some bytes")
    assert file_sha256(str(path)) == hashlib.sha256(b"some bytes").hexdigest()
