import tracemalloc

import numpy as np
import pytest

from otsource import assembly as assembly_module
from otsource import solver as solver_module
from otsource.assembly import (
    BoundaryData,
    assemble_system,
    boundary_vector,
    continuity_defect,
    project_continuity,
)
from otsource.diagnostics import energy_breakdown, source_energy, time_profiles, transport_energy
from otsource.exceptions import NonConvergence
from otsource.io import _frames
from otsource.mesh import SpaceTimeMesh, State
from otsource.prox import SourceModel
from otsource.solver import (
    SolverConfig,
    dr_step,
    initialize,
    solve,
    weighted_norm,
)


def _random_bdata(nx, seed=0, lo=0.2, hi=1.0):
    rng = np.random.default_rng(seed)
    n = 2 * nx * nx
    return BoundaryData(rng.uniform(lo, hi, n), rng.uniform(lo, hi, n))


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(delta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(gamma=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(alpha=2.0)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.0)
    for value in (0, 2.5, np.nan, np.inf, "3"):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(max_iters=value)
    assert SolverConfig(max_iters=np.int64(3)).max_iters == 3
    for value in (1, 4.5, 4.0, "4"):
        with pytest.raises(ValueError, match="nt"):
            SolverConfig(nt=value)
    assert SolverConfig(nt=np.int64(3)).nt == 3
    for value in (-1e-3, np.nan, np.inf):
        with pytest.raises(ValueError, match="fp_tol"):
            SolverConfig(fp_tol=value)
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="delta"):
            SolverConfig(delta=value)
        with pytest.raises(ValueError, match="gamma"):
            SolverConfig(gamma=value)
        with pytest.raises(ValueError, match="beta"):
            SourceModel("l2huber", beta=value)


def test_config_accepts_source_kind_string():
    cfg = SolverConfig(source="l2l2")
    assert isinstance(cfg.source, SourceModel)
    assert cfg.source.kind == "l2l2"


def test_weighted_norm_matches_manual_sum():
    mesh = SpaceTimeMesh(3, 2)
    rng = np.random.default_rng(5)
    rho = rng.standard_normal(mesh.n_tets)
    m = rng.standard_normal((mesh.n_tets, 2))
    z = rng.standard_normal(mesh.n_dofs)
    delta = 0.7
    expected = np.sqrt(
        mesh.tet_volume * float(np.sum(rho**2))
        + mesh.tet_volume * float(np.sum(m[:, 0] ** 2 + m[:, 1] ** 2))
        + float(mesh.lumped_mass() @ z**2) / delta
    )
    assert weighted_norm(rho, m, z, mesh, delta) == pytest.approx(
        expected, rel=1e-14
    )


# ------------------------------------------------------------ initialize


def test_initialize_matching_endpoints():
    mesh = SpaceTimeMesh(4, 3)
    bdata = _random_bdata(4, seed=1)
    bdata = BoundaryData(bdata.ua, bdata.ua.copy())
    state = initialize(mesh, bdata)
    assert np.all(state.m == 0.0)
    assert np.all(state.z == 0.0)
    # density is constant along time: every slab repeats the endpoint
    per_slab = state.rho.reshape(mesh.nt, -1)
    assert np.allclose(per_slab, per_slab[0], atol=0.0)


def test_initialize_unit_mass_creation():
    # endpoints 0 -> 1 put exactly one unit of created mass into z
    nx = 4
    mesh = SpaceTimeMesh(nx, 3)
    n = 2 * nx * nx
    bdata = BoundaryData(np.zeros(n), np.ones(n))
    state = initialize(mesh, bdata)
    assert float(mesh.lumped_mass() @ state.z) == pytest.approx(1.0, rel=1e-12)
    # the lumped projection of a constant is that constant
    assert np.allclose(state.z, 1.0, atol=1e-12)
    assert source_energy(state.z, SourceModel("l2l2"), 1.0, mesh) == pytest.approx(
        1.0, rel=1e-12
    )


def test_initialize_blends_at_slab_midpoints():
    nx = 2
    mesh = SpaceTimeMesh(nx, 2)
    n = 2 * nx * nx
    bdata = BoundaryData(np.zeros(n), np.ones(n))
    state = initialize(mesh, bdata)
    per_slab = state.rho.reshape(mesh.nt, -1)
    assert np.allclose(per_slab[0], 0.25, atol=1e-14)
    assert np.allclose(per_slab[1], 0.75, atol=1e-14)


# --------------------------------------------------------------- dr_step


def test_dr_step_zero_state_is_fixed_point():
    nx = 3
    mesh = SpaceTimeMesh(nx, 2)
    system = assemble_system(mesh, 1.0)
    n = 2 * nx * nx
    bdata = BoundaryData(np.zeros(n), np.zeros(n))
    cfg = SolverConfig(nt=2, source=SourceModel("l2huber", beta=0.1))
    aux = State(
        np.zeros(mesh.n_tets), np.zeros((mesh.n_tets, 2)), np.zeros(mesh.n_dofs)
    )
    aux2, feasible, image, residual, _ = dr_step(aux, boundary_vector(mesh, bdata), system, cfg)
    assert residual == 0.0
    for out in (aux2, feasible, image):
        assert np.all(out.rho == 0.0)
        assert np.all(out.m == 0.0)
        assert np.all(out.z == 0.0)


def test_dr_step_stationary_pair_is_fixed_point():
    # matching endpoints: the constant-in-time blend with m = z = 0 is
    # feasible and every prox fixes it, so the step must return it
    nx = 3
    mesh = SpaceTimeMesh(nx, 2)
    system = assemble_system(mesh, 1.0)
    bdata = _random_bdata(nx, seed=2)
    bdata = BoundaryData(bdata.ua, bdata.ua.copy())
    cfg = SolverConfig(nt=2, source=SourceModel("none"))
    aux = initialize(mesh, bdata)
    aux2, feasible, image, residual, _ = dr_step(aux, boundary_vector(mesh, bdata), system, cfg)
    assert residual <= 1e-10
    assert np.allclose(aux2.rho, aux.rho, atol=1e-10)
    assert np.allclose(feasible.rho, aux.rho, atol=1e-10)


def test_dr_step_feasible_iterate_satisfies_continuity():
    nx = 3
    mesh = SpaceTimeMesh(nx, 2)
    system = assemble_system(mesh, 1.0)
    bdata = _random_bdata(nx, seed=3)
    cfg = SolverConfig(nt=2, source=SourceModel("l2l2"))
    aux = initialize(mesh, bdata)
    for _ in range(3):
        aux, feasible, image, residual, _ = dr_step(aux, boundary_vector(mesh, bdata), system, cfg)
        defect = continuity_defect(feasible, boundary_vector(mesh, bdata), mesh)
        assert np.linalg.norm(defect) <= 1e-8


def test_dr_step_update_algebra():
    # aux' - aux = alpha * (image - feasible) on every block
    nx = 3
    mesh = SpaceTimeMesh(nx, 2)
    system = assemble_system(mesh, 1.0)
    bdata = _random_bdata(nx, seed=4)
    alpha = 1.3
    cfg = SolverConfig(nt=2, alpha=alpha, source=SourceModel("l2l2"))
    aux = initialize(mesh, bdata)
    aux2, feasible, image, _, _ = dr_step(aux, boundary_vector(mesh, bdata), system, cfg)
    assert np.allclose(aux2.rho - aux.rho, alpha * (image.rho - feasible.rho))
    assert np.allclose(aux2.m - aux.m, alpha * (image.m - feasible.m))
    assert np.allclose(aux2.z - aux.z, alpha * (image.z - feasible.z))


def test_dr_step_residual_is_weighted_distance():
    nx = 3
    mesh = SpaceTimeMesh(nx, 2)
    delta = 2.5
    system = assemble_system(mesh, delta)
    bdata = _random_bdata(nx, seed=5)
    cfg = SolverConfig(nt=2, delta=delta, source=SourceModel("l2l2"))
    aux = initialize(mesh, bdata)
    _, feasible, image, residual, _ = dr_step(aux, boundary_vector(mesh, bdata), system, cfg)
    expected = weighted_norm(
        image.rho - feasible.rho,
        image.m - feasible.m,
        image.z - feasible.z,
        mesh,
        delta,
    )
    assert residual == pytest.approx(expected, rel=1e-14)


def test_dr_step_returns_projection_potential():
    # phi solves the projection system of the step's input,
    # A phi = -defect(state_aux)
    nx = 3
    mesh = SpaceTimeMesh(nx, 2)
    system = assemble_system(mesh, 1.0)
    bdata = _random_bdata(nx, seed=15)
    b = boundary_vector(mesh, bdata)
    cfg = SolverConfig(nt=2, source=SourceModel("l2l2"))
    aux = initialize(mesh, bdata)
    _, _, _, _, phi = dr_step(aux, b, system, cfg)
    rhs = -continuity_defect(aux, b, mesh)
    assert np.linalg.norm(rhs) > 0.0
    assert phi.shape == (mesh.n_dofs,)
    assert np.linalg.norm(system.matrix @ phi - rhs) <= 1e-10 * np.linalg.norm(rhs)


# ----------------------------------------------------------------- solve


def test_solve_rejects_non_square_grid():
    with pytest.raises(ValueError):
        solve(BoundaryData(np.ones(7), np.ones(7)), SolverConfig(nt=2))


def test_solve_stationary_endpoints_converges_immediately():
    nx = 4
    bdata = _random_bdata(nx, seed=6)
    bdata = BoundaryData(bdata.ua, bdata.ua.copy())
    cfg = SolverConfig(nt=3, source=SourceModel("l2huber", beta=0.1))
    result = solve(bdata, cfg)
    assert result.converged
    assert result.stats[-1].energy <= 1e-6
    state = result.state
    assert np.linalg.norm(state.m) <= 1e-4
    assert np.linalg.norm(state.z) <= 1e-4


def test_solve_source_none_pins_z():
    nx = 4
    bdata = _random_bdata(nx, seed=7)
    # equalize the masses so a zero-source solution exists
    ub = bdata.ub * (np.sum(bdata.ua) / np.sum(bdata.ub))
    cfg = SolverConfig(nt=3, max_iters=40, fp_tol=0.0, source=SourceModel("none"))
    result = solve(BoundaryData(bdata.ua, ub), cfg)
    # the prox image pins z = 0; the feasible iterate carries the
    # projection's equal-mass z which must stay small
    assert not result.converged
    assert len(result.stats) == 40
    assert result.stats[-1].mass_balance_defect <= 1e-9


def test_solve_source_none_rejects_unequal_masses():
    # no z = 0 path joins endpoints of different mass; without the check
    # such a run reaches the cap with the residual flat at its first value
    nx = 4
    bdata = _random_bdata(nx, seed=7)
    cfg = SolverConfig(nt=3, max_iters=40, fp_tol=0.0, source=SourceModel("none"))
    seen = []
    with pytest.raises(ValueError, match="equal mass"):
        solve(bdata, cfg, progress=seen.append)
    assert seen == []
    # a relative gap of 1e-12 is rounding, not a different mass
    ub = bdata.ub * (np.sum(bdata.ua) / np.sum(bdata.ub)) * (1.0 + 1e-12)
    cfg = SolverConfig(nt=3, max_iters=2, fp_tol=0.0, source=SourceModel("none"))
    assert len(solve(BoundaryData(bdata.ua, ub), cfg).stats) == 2


def test_solve_stops_on_non_finite_residual(monkeypatch):
    # a prox that returns NaN makes the residual NaN at once; the loop
    # must stop there instead of running to the cap
    def nan_prox(z, gamma):
        return np.full_like(z, np.nan)

    monkeypatch.setattr(solver_module, "prox_source_l2l2", nan_prox)
    cfg = SolverConfig(nt=3, max_iters=50, source=SourceModel("l2l2"))
    seen = []
    with pytest.raises(NonConvergence, match="not finite at iteration 1") as info:
        solve(_random_bdata(4, seed=8), cfg, progress=seen.append)
    assert info.value.iterations == 1
    assert seen == []


def test_solve_evaluates_transport_energy_once_per_iteration(monkeypatch):
    calls = []

    def counted(state, mesh):
        calls.append(state)
        return transport_energy(state, mesh)

    monkeypatch.setattr(solver_module, "transport_energy", counted)
    cfg = SolverConfig(nt=3, max_iters=7, fp_tol=0.0, source=SourceModel("l2huber"))
    result = solve(_random_bdata(4, seed=16), cfg)
    assert len(result.stats) == 7
    assert len(calls) == 7


def test_solve_projections_are_exact(monkeypatch):
    # every projection solves its potential system to rounding, and no
    # CG iteration runs inside solve
    residuals = []

    def recorded(state, b, system):
        out, phi = project_continuity(state, b, system)
        rhs = -continuity_defect(state, b, system.mesh)
        resid = np.linalg.norm(system.matrix @ phi - rhs)
        residuals.append(resid / np.linalg.norm(rhs))
        return out, phi

    def no_cg(*args, **kwargs):
        raise AssertionError("cg_solve called inside solve")

    monkeypatch.setattr(solver_module, "project_continuity", recorded)
    monkeypatch.setattr(assembly_module, "cg_solve", no_cg)
    cfg = SolverConfig(nt=3, max_iters=5, fp_tol=0.0, source=SourceModel("l2l2"))
    solve(_random_bdata(4, seed=17), cfg)
    # the initial projection, then one per iteration
    assert len(residuals) == 6
    assert max(residuals) <= 1e-10


def test_image_defect_is_the_last_prox_images():
    # the result's image_defect is the continuity defect of the prox
    # image of the last iteration, relative to |b|; the returned state
    # meets the constraint to rounding
    nx, nt, iters = 4, 3, 6
    bdata = _random_bdata(nx, seed=18)
    cfg = SolverConfig(nt=nt, max_iters=iters, fp_tol=0.0, source=SourceModel("l2huber"))
    result = solve(bdata, cfg)
    mesh = SpaceTimeMesh(nx, nt, cfg.bc)
    system = assemble_system(mesh, cfg.delta)
    b = boundary_vector(mesh, bdata)
    aux, _ = project_continuity(initialize(mesh, bdata), b, system)
    for _ in range(iters):
        aux, _, image, _, _ = dr_step(aux, b, system, cfg)
    expected = np.linalg.norm(continuity_defect(image, b, mesh)) / np.linalg.norm(b)
    assert result.image_defect == expected
    assert result.image_defect > 1e-8
    state_defect = np.linalg.norm(continuity_defect(result.state, b, mesh))
    assert state_defect <= 1e-10 * np.linalg.norm(b)


def test_empty_endpoints_give_zero_image_defect():
    # with both endpoints empty, |b| = 0 and the defect is absolute
    n = 2 * 3 * 3
    cfg = SolverConfig(nt=2, max_iters=3, source=SourceModel("l2huber", beta=0.1))
    assert solve(BoundaryData(np.zeros(n), np.zeros(n)), cfg).image_defect == 0.0


def test_solve_trace_is_complete_and_finite():
    nx = 4
    bdata = _random_bdata(nx, seed=8)
    cfg = SolverConfig(nt=3, max_iters=30, fp_tol=0.0, source=SourceModel("l2l2"))
    result = solve(bdata, cfg)
    assert len(result.stats) == 30
    assert [s.iteration for s in result.stats] == list(range(1, 31))
    for s in result.stats:
        assert np.isfinite(s.fixed_point_residual)
        assert np.isfinite(s.energy)
        assert s.energy == pytest.approx(
            s.transport_energy + s.source_energy, rel=1e-12, abs=1e-15
        )
        assert np.isfinite(s.mass_balance_defect)
    assert result.wall_seconds >= 0.0
    assert result.config is cfg
    assert not result.converged


def test_solve_mass_balance_on_every_iterate():
    # the identity with constant test function holds at machine scale
    # for every feasible iterate, not only at the end
    nx = 4
    bdata = _random_bdata(nx, seed=9)
    total_mass = 0.5 * (np.mean(bdata.ua) + np.mean(bdata.ub))
    for kind in ("l2l2", "l2huber"):
        cfg = SolverConfig(
            nt=3, max_iters=25, fp_tol=0.0, source=SourceModel(kind, beta=0.1)
        )
        result = solve(bdata, cfg)
        worst = max(s.mass_balance_defect for s in result.stats)
        assert worst <= 1e-9 * total_mass


def test_solve_fp_tol_is_relative():
    nx = 4
    bdata = _random_bdata(nx, seed=10)
    cfg = SolverConfig(nt=3, max_iters=500, fp_tol=0.3, source=SourceModel("l2l2"))
    result = solve(bdata, cfg)
    assert result.converged
    r0 = result.stats[0].fixed_point_residual
    assert result.stats[-1].fixed_point_residual <= 0.3 * r0
    assert len(result.stats) < 500


def test_solve_is_deterministic():
    nx = 4
    bdata = _random_bdata(nx, seed=11)
    cfg = SolverConfig(nt=3, max_iters=20, fp_tol=0.0, source=SourceModel("l2huber"))
    a = solve(bdata, cfg)
    b = solve(bdata, cfg)
    ra = [s.fixed_point_residual for s in a.stats]
    rb = [s.fixed_point_residual for s in b.stats]
    assert ra == rb
    assert np.array_equal(a.state.rho, b.state.rho)
    assert np.array_equal(a.state.m, b.state.m)
    assert np.array_equal(a.state.z, b.state.z)


def test_solve_progress_callback_sees_every_entry():
    nx = 3
    bdata = _random_bdata(nx, seed=12)
    cfg = SolverConfig(nt=2, max_iters=10, fp_tol=0.0, source=SourceModel("l2l2"))
    seen = []
    result = solve(bdata, cfg, progress=seen.append)
    assert seen == result.stats


def test_solve_energy_decreases_from_initialization():
    # the blend start pays full source cost everywhere; a few dozen
    # iterations must already improve on it
    nx = 4
    bdata = _random_bdata(nx, seed=13)
    cfg = SolverConfig(nt=3, max_iters=60, fp_tol=0.0, source=SourceModel("l2l2"))
    result = solve(bdata, cfg)
    mesh = result.mesh
    init = initialize(mesh, BoundaryData(bdata.ua, bdata.ub))
    e0, _ = transport_energy(init, mesh)
    e0 += source_energy(init.z, cfg.source, cfg.delta, mesh)
    assert result.stats[-1].energy < e0


def test_solve_periodic_runs():
    nx = 4
    bdata = _random_bdata(nx, seed=14)
    cfg = SolverConfig(nt=2, max_iters=15, fp_tol=0.0, bc="periodic",
                       source=SourceModel("l2l2"))
    result = solve(bdata, cfg)
    assert len(result.stats) == 15
    assert result.stats[-1].mass_balance_defect <= 1e-9


def test_solve_peak_traced_memory():
    # the DR loop keeps one live copy of each point: the previous step's
    # projected point and prox image are dropped before the next step,
    # and the transport prox and its kernel make no full-size copies
    # beyond their outputs.  This traced solve peaked at 46.4
    # element-sized arrays before that and at 35.9 after it.
    nx = 16
    grid = np.zeros((nx, nx))
    grid[4:12, 4:12] = 1.0
    bdata = BoundaryData(_cell_tris(grid), _cell_tris(2.0 * grid))
    cfg = SolverConfig(nt=4, max_iters=20, fp_tol=0.0, bc="neumann",
                       source=SourceModel("l2huber"))
    solve(bdata, cfg)  # warm-up: imports and lazy module state
    tracemalloc.start()
    try:
        result = solve(bdata, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.stats) == 20
    n = 8 * result.mesh.n_tets
    assert peak <= 40 * n, f"traced peak {peak / n:.1f} element arrays"


# ------------------------------------------------------- singular sources


def _cell_tris(grid):
    """Triangle values of a cell grid indexed [x, y]."""
    return np.repeat(grid.T.ravel(), 2)


@pytest.mark.parametrize("case", ["point source", "line source", "point sink"])
def test_linear_growth_source_concentrates_on_singular_features(case):
    # the paper's claim: the L2-in-time, linear-growth-in-space penalty
    # lets a singular source sit where mass appears or vanishes, while
    # the squared-L2 penalty spreads it over the domain.  A 2x2 blob is
    # transported in both cases; the feature's cells change mass.
    nx = 8
    ga = np.zeros((nx, nx))
    ga[1:3, 1:3] = 1.0
    gb = ga.copy()
    if case == "point source":
        gb[5, 5] = 1.0
        feature = (slice(5, 7), slice(5, 7))  # node rows (y), columns (x)
    elif case == "line source":
        gb[5, 2:7] = 1.0
        feature = (slice(2, 8), slice(5, 7))
    else:
        ga[5, 5] = 1.0
        feature = (slice(5, 7), slice(5, 7))
    bdata = BoundaryData(_cell_tris(ga), _cell_tris(gb))

    def share_on_feature(source):
        cfg = SolverConfig(nt=4, max_iters=300, fp_tol=0.0, source=source)
        result = solve(bdata, cfg)
        mesh = result.mesh
        zs = np.abs(result.state.z).reshape(mesh.nt + 1, nx + 1, nx + 1)
        # trapezoid weights in time over the interior slices
        weighted = (mesh.time_weights()[:, None, None] * zs)[1:-1]
        return float(weighted[:, feature[0], feature[1]].sum() / weighted.sum())

    assert share_on_feature(SourceModel("l2huber", beta=1e-3)) >= 0.9
    assert share_on_feature(SourceModel("l2l2")) <= 0.5


def _symmetry_run(ga, gb, kind, bc):
    bdata = BoundaryData(np.repeat(ga.ravel(), 2), np.repeat(gb.ravel(), 2))
    return solve(bdata, SolverConfig(nt=4, max_iters=60, fp_tol=0.0, source=kind, bc=bc))


@pytest.mark.parametrize("bc", ["neumann", "periodic"])
@pytest.mark.parametrize("kind", ["none", "l2l2", "l1l1", "l2huber"])
def test_exact_symmetries(kind, bc):
    # the discrete problem is invariant under swapping x and y and under
    # the point reflection (t, x, y) -> (1 - t, 1 - x, 1 - y), which
    # rotates the endpoints by 180 degrees and swaps them; the grids are
    # indexed [y, x] like load_density's
    rng = np.random.default_rng(11)
    a, b = rng.random((6, 6)), rng.random((6, 6))
    if kind == "none":
        b *= a.sum() / b.sum()
    base = _symmetry_run(a, b, kind, bc)
    fields = ("energy", "transport_energy", "source_energy", "fixed_point_residual")

    def traces(result):
        out = np.array([[getattr(s, f) for s in result.stats] for f in fields])
        scale = np.abs(out).max(axis=1, keepdims=True)
        # the source energy of "none" is zero throughout
        return out / np.where(scale > 0, scale, 1.0)

    def returned(result, reflected):
        # the returned state's profiles per time node, over their largest
        # value, and its energy breakdown; the point reflection runs time
        # backwards and flips the source's sign, which swaps the
        # profiles' positive and negative parts
        rows = [
            (p.mass, p.src_abs) + ((p.src_neg, p.src_pos) if reflected else (p.src_pos, p.src_neg))
            for p in time_profiles(result.state, result.mesh)
        ]
        profiles = np.array(rows[::-1] if reflected else rows)
        config = result.config
        energies = energy_breakdown(result.state, config.source, config.delta, result.mesh)
        return profiles / np.abs(profiles).max(), energies

    def frames(result, reflected):
        # io._frames' density, |m| and z, indexed [frame, y, x], mapped
        # back onto the base run's: the swap transposes each frame, the
        # point reflection reverses time, rotates by 180 degrees and
        # negates z
        density, speed, z = _frames(result)
        if reflected:
            return density[::-1, ::-1, ::-1], speed[::-1, ::-1, ::-1], -z[::-1, ::-1, ::-1]
        return tuple(f.transpose(0, 2, 1) for f in (density, speed, z))

    base_profiles, base_energies = returned(base, False)
    base_frames = _frames(base)
    for other, reflected in (
        (_symmetry_run(a.T, b.T, kind, bc), False),
        (_symmetry_run(b[::-1, ::-1], a[::-1, ::-1], kind, bc), True),
    ):
        assert len(other.stats) == len(base.stats) == 60
        assert np.max(np.abs(traces(other) - traces(base))) <= 1e-12
        assert abs(other.image_defect - base.image_defect) <= 1e-12
        profiles, energies = returned(other, reflected)
        # each family over its largest value (measured at most 8.9e-14
        # for density and |m|, 3.6e-12 for the small z of "none")
        for mapped, want in zip(frames(other, reflected), base_frames):
            assert np.max(np.abs(mapped - want)) <= 1e-11 * np.abs(want).max()
        assert np.max(np.abs(profiles - base_profiles)) <= 1e-12
        assert abs(energies.source - base_energies.source) <= 1e-12 * base_energies.source
        assert abs(energies.infeasible_volume - base_energies.infeasible_volume) <= 1e-12
        # the transport action divides by densities barely above the
        # vacuum threshold, which amplifies the two runs' rounding
        # differences (measured at most 5.6e-11 relative)
        assert energies.transport == pytest.approx(base_energies.transport, rel=1e-9)
