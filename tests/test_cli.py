"""Command line behavior: exit codes, option precedence, outputs."""

import os
import subprocess
import sys

import numpy as np
import pytest

import otsource
from otsource import _kernels, cli
from otsource.assembly import BoundaryData
from otsource.cli import run_cli
from otsource.exceptions import NonConvergence, RootFindFailure
from otsource.io import file_sha256, load_density, read_pgm, write_outputs
from otsource.prox import SourceModel
from otsource.solver import SolverConfig, solve


def _csv(path, grid):
    with open(path, "w", newline="\n") as fh:
        for row in grid:
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")
    return str(path)


@pytest.fixture()
def flat_pair(tmp_path):
    grid = np.full((4, 4), 0.5)
    a = _csv(tmp_path / "a.csv", grid)
    b = _csv(tmp_path / "b.csv", grid)
    return a, b


@pytest.fixture()
def moving_pair(tmp_path):
    ga = np.zeros((4, 4))
    gb = np.zeros((4, 4))
    ga[1, 1] = 1.0
    gb[2, 2] = 2.0
    a = _csv(tmp_path / "a.csv", ga)
    b = _csv(tmp_path / "b.csv", gb)
    return a, b


BASE = ["--nx", "4", "--nt", "2", "--iters", "30"]


# ---------------------------------------------------------------- exit codes


def test_missing_inputs_exit_1(capsys):
    assert run_cli([]) == 1
    assert "--a and --b" in capsys.readouterr().err


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    # argparse exits 2 on a usage error, the code of a capped run
    assert run_cli(["--nx", "abc"]) == 1
    assert "--nx" in capsys.readouterr().err
    assert run_cli(["--turbo"]) == 1
    assert "--turbo" in capsys.readouterr().err
    assert run_cli(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_process_exit_status_of_usage_errors():
    src = os.path.dirname(os.path.dirname(otsource.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    main = "from otsource.cli import main; main()"
    for argv, status in ((["--nx", "abc"], 1), (["--turbo"], 1), (["--help"], 0)):
        proc = subprocess.run([sys.executable, "-c", main, *argv], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == status, proc.stderr


def test_bad_alpha_message_and_exit_1(flat_pair, capsys):
    a, b = flat_pair
    code = run_cli(["--a", a, "--b", b, "--alpha", "2.0", *BASE])
    assert code == 1
    assert "alpha must lie in (0, 2)" in capsys.readouterr().err


def test_inf_delta_exit_1(moving_pair, capsys):
    a, b = moving_pair
    code = run_cli(["--a", a, "--b", b, *BASE, "--delta", "inf"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: delta must be finite")
    assert "iter" not in captured.out


def test_negative_log_every_exit_1(flat_pair, tmp_path, capsys):
    # a negative stride would print every iteration (it % -1 == 0)
    a, b = flat_pair
    assert run_cli(["--a", a, "--b", b, *BASE, "--log-every", "-1"]) == 1
    captured = capsys.readouterr()
    assert "--log-every: must be a nonnegative integer, got -1" in captured.err
    assert "residual" not in captured.err and not captured.out  # no run, no progress
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"a={a}\nb={b}\nlog-every=-3\n")
    assert run_cli(["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:3: ") and "got -3" in err
    assert run_cli(["--a", a, "--b", b, *BASE, "--log-every", "x"]) == 1
    assert "--log-every: invalid int value: 'x'" in capsys.readouterr().err


def test_missing_file_exit_1(tmp_path, capsys):
    a = _csv(tmp_path / "a.csv", np.ones((2, 2)))
    code = run_cli(["--a", a, "--b", str(tmp_path / "nope.csv"), *BASE])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_negative_density_exit_1(tmp_path, capsys):
    a = _csv(tmp_path / "a.csv", np.ones((2, 2)))
    b = _csv(tmp_path / "b.csv", [[1.0, -1.0], [1.0, 1.0]])
    code = run_cli(["--a", a, "--b", b, *BASE])
    assert code == 1
    assert "nonnegative" in capsys.readouterr().err


def test_non_finite_density_exit_1(tmp_path, capsys):
    a = _csv(tmp_path / "a.csv", np.ones((2, 2)))
    b = _csv(tmp_path / "b.csv", [[1.0, np.nan], [1.0, 1.0]])
    code = run_cli(["--a", a, "--b", b, *BASE])
    assert code == 1
    assert "non-finite" in capsys.readouterr().err


def test_source_none_unequal_masses_exit_1(moving_pair, capsys):
    a, b = moving_pair
    code = run_cli(["--a", a, "--b", b, *BASE, "--source", "none"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and "equal mass" in captured.err
    assert "iter" not in captured.out


def test_kernel_root_find_failure_exit_1(moving_pair, monkeypatch, capsys):
    def failing(a, bx, by):
        raise RootFindFailure("paraboloid projection received non-finite input")

    monkeypatch.setattr(_kernels, "project_paraboloid", failing)
    a, b = moving_pair
    code = run_cli(["--a", a, "--b", b, *BASE])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: paraboloid projection")


def test_diverging_iteration_exit_1(moving_pair, monkeypatch, capsys):
    # the one NonConvergence solve raises: a non-finite DR residual
    def diverging(bdata, config, progress=None):
        raise NonConvergence("DR fixed-point residual is not finite at iteration 7",
                             7, np.nan)

    monkeypatch.setattr(cli, "solve", diverging)
    a, b = moving_pair
    code = run_cli(["--a", a, "--b", b, *BASE])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the iteration diverged: DR fixed-point residual")
    assert "inner solver" not in err


def test_identical_endpoints_converge_exit_0(flat_pair, capsys):
    a, b = flat_pair
    code = run_cli(["--a", a, "--b", b, *BASE, "--source", "l2huber"])
    out = capsys.readouterr().out
    assert code == 0
    assert "converged" in out


def test_noise_momentum_over_vacuum_is_not_infeasible(tmp_path, capsys):
    # identical checkerboards converge at once with |m| of the order of
    # 1e-17 everywhere; that is vacuum, not momentum through it
    a = _csv(tmp_path / "a.csv", [[0.0, 1.0], [1.0, 0.0]])
    out = tmp_path / "run"
    code = run_cli(["--a", a, "--b", a, "--nx", "4", "--nt", "2", "--out", str(out)])
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == 0
    assert summary.endswith("infeasible volume 0.000e+00")
    assert "infeasible_volume=0\n" in (out / "manifest.txt").read_text()


def test_iteration_cap_exit_2(moving_pair, capsys):
    a, b = moving_pair
    code = run_cli(
        ["--a", a, "--b", b, "--nx", "4", "--nt", "2", "--iters", "3",
         "--fp-tol", "1e-12"]
    )
    assert code == 2
    assert "iteration cap reached" in capsys.readouterr().out


def test_l1l1_warns_on_stderr(flat_pair, capsys):
    a, b = flat_pair
    code = run_cli(["--a", a, "--b", b, *BASE, "--source", "l1l1"])
    err = capsys.readouterr().err
    assert code == 0
    assert "l1l1" in err and "warning" in err


# ------------------------------------------------------------ option merges


def test_config_file_supplies_options(flat_pair, tmp_path, capsys):
    a, b = flat_pair
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"a={a}\nb={b}\nnx=4\nnt=2\niters=25\n# comment\n")
    assert run_cli(["--config", str(cfg)]) == 0
    capsys.readouterr()


def test_flags_override_config_file(moving_pair, tmp_path, capsys):
    a, b = moving_pair
    out = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    # keys may be spelled with - or _
    cfg.write_text(f"a={a}\nb={b}\nnx=4\nnt=2\niters=40\nfp-tol=1e-12\nlog_every=7\n")
    run_cli(["--config", str(cfg), "--nt", "3", "--iters", "5",
             "--out", str(out)])
    capsys.readouterr()
    text = (out / "manifest.txt").read_text()
    assert "\nnt=3\n" in text and "\nmax_iters=5\n" in text
    assert "\nfp_tol=1e-12\n" in text and "\nlog_every=7\n" in text


def test_unknown_config_key_exit_1(flat_pair, tmp_path, capsys):
    a, b = flat_pair
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"a={a}\nb={b}\nturbo=yes\n")
    assert run_cli(["--config", str(cfg)]) == 1
    assert "turbo" in capsys.readouterr().err


@pytest.mark.parametrize("line,message", [
    ("nx=abc", "invalid int value: 'abc'"),
    ("del=2", "unknown option 'del'"),  # no abbreviations in the file
    ("config=other.cfg", "unknown option 'config'"),
    ("nx 4", "expected key=value"),
])
def test_bad_config_line_exit_1(flat_pair, tmp_path, capsys, line, message):
    a, b = flat_pair
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"a={a}\nb={b}\n{line}\n")
    assert run_cli(["--config", str(cfg)]) == 1
    # the error names the file and the line, then what is wrong there
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:3: ") and message in err


def test_defaults_cover_every_flag():
    # the parser is the one table of options: each run option has a
    # default there, so a run with no flags records all of them
    defaults = vars(cli.build_parser().parse_args([]))
    for key in ("nx", "nt", "delta", "gamma", "alpha", "iters", "fp_tol",
                "source", "beta", "bc", "scale", "out", "log_every"):
        assert key in defaults


def test_defaults_match_library_defaults():
    # every solver flag reads its default from SolverConfig and
    # SourceModel; the command line sets only nx, scale, out, log_every
    config, source = SolverConfig(), SourceModel()
    assert source == config.source
    library = {"nt": config.nt, "delta": config.delta, "gamma": config.gamma,
               "alpha": config.alpha, "iters": config.max_iters,
               "fp_tol": config.fp_tol, "bc": config.bc,
               "source": source.kind, "beta": source.beta}
    own = {"nx": 64, "scale": None, "out": None, "log_every": 0}
    inputs = {"a": None, "b": None, "config": None}
    assert vars(cli.build_parser().parse_args([])) == {**library, **own, **inputs}


# ---------------------------------------------------------------- outputs


def test_outputs_written_and_manifest_hashes(moving_pair, tmp_path, capsys):
    a, b = moving_pair
    out = tmp_path / "run"
    code = run_cli(["--a", a, "--b", b, *BASE, "--out", str(out)])
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert code in (0, 2)
    names = set(os.listdir(out))
    assert {"manifest.txt", "trace.csv", "profiles.csv"} <= names
    assert "frame_000.pgm" in names and "frame_002.pgm" in names
    entries = dict(
        line.strip().split("=", 1)
        for line in (out / "manifest.txt").read_text().splitlines()
    )
    assert entries["sha256_a"] == file_sha256(a)
    assert entries["sha256_b"] == file_sha256(b)
    assert entries["version"].startswith("otsource-")
    # the summary line reports the trace energy and image defect and the
    # returned state's energy and infeasible volume, the values the
    # manifest records
    assert f"energy {float(entries['energy']):.9e} " in summary
    assert f"image defect {float(entries['image_defect']):.3e}, " in summary
    assert f"state energy {float(entries['state_energy']):.9e}, " in summary
    volume = float(entries["infeasible_volume"])
    assert summary.endswith(f"infeasible volume {volume:.3e}")


def test_manifest_states_each_key_once(moving_pair, tmp_path, capsys):
    # the command line adds only its inputs to the record write_outputs
    # makes, which states nx, nt, bc and every other setting once
    a, b = moving_pair
    out = tmp_path / "run"
    run_cli(["--a", a, "--b", b, *BASE, "--out", str(out)])
    capsys.readouterr()
    keys = [line.split("=", 1)[0]
            for line in (out / "manifest.txt").read_text().splitlines()]
    assert len(keys) == len(set(keys))
    bare = tmp_path / "bare"
    ua, ub = load_density(a, 4), load_density(b, 4)
    write_outputs(solve(BoundaryData(ua, ub), SolverConfig(nt=2, max_iters=2)), str(bare))
    library = [line.split("=", 1)[0]
               for line in (bare / "manifest.txt").read_text().splitlines()]
    own = ["a", "b", "sha256_a", "sha256_b", "scale", "log_every"]
    assert keys == own + library


def test_first_frame_shows_left_endpoint(moving_pair, tmp_path, capsys):
    a, b = moving_pair
    out = tmp_path / "run"
    run_cli(["--a", a, "--b", b, *BASE, "--out", str(out)])
    capsys.readouterr()
    pixels, maxval = read_pgm(str(out / "frame_000.pgm"))
    # input has a single bright cell at row 1, col 1
    assert pixels.shape == (4, 4)
    peak = np.unravel_index(np.argmax(pixels), pixels.shape)
    assert peak == (1, 1)
    norm = float(
        dict(
            line.split("=", 1)
            for line in (out / "manifest.txt").read_text().splitlines()
        )["frame_norm_rho"]
    )
    assert abs(pixels[1, 1] / maxval * norm - 1.0) <= norm / maxval + 1e-12


def test_scale_flag_applies_to_csv(tmp_path, capsys):
    ga = np.ones((2, 2))
    a = _csv(tmp_path / "a.csv", ga)
    b = _csv(tmp_path / "b.csv", ga)
    out = tmp_path / "run"
    code = run_cli(["--a", a, "--b", b, "--nx", "2", "--nt", "2",
                    "--iters", "10", "--scale", "3.0", "--out", str(out)])
    capsys.readouterr()
    assert code in (0, 2)
    grid = np.loadtxt(out / "density_000.csv", delimiter=",")
    assert np.allclose(grid, 3.0)


def test_pgm_input_end_to_end(tmp_path, capsys):
    pgm = tmp_path / "a.pgm"
    pgm.write_text("P2\n4 4\n100\n" + ("100 " * 16).strip() + "\n")
    out = tmp_path / "run"
    code = run_cli(["--a", str(pgm), "--b", str(pgm), *BASE, "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    grid = np.loadtxt(out / "density_000.csv", delimiter=",")
    assert np.allclose(grid, 1.0)  # maxval scaled to one


def test_log_every_prints_progress(moving_pair, capsys):
    a, b = moving_pair
    run_cli(["--a", a, "--b", b, "--nx", "4", "--nt", "2", "--iters", "6",
             "--log-every", "2"])
    err = capsys.readouterr().err
    assert "iter" in err and "residual" in err
