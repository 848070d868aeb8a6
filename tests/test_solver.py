import numpy as np
import pytest

from otsource.assembly import BoundaryData, assemble_system, continuity_defect
from otsource.diagnostics import source_energy, transport_energy
from otsource.mesh import State, build_mesh
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
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)


def test_config_accepts_source_kind_string():
    cfg = SolverConfig(source="l2l2")
    assert isinstance(cfg.source, SourceModel)
    assert cfg.source.kind == "l2l2"


def test_weighted_norm_matches_manual_sum():
    mesh = build_mesh(3, 2)
    rng = np.random.default_rng(5)
    rho = rng.standard_normal(mesh.n_tets)
    m = rng.standard_normal((mesh.n_tets, 2))
    z = rng.standard_normal(mesh.n_dofs)
    delta = 0.7
    expected = np.sqrt(
        float(mesh.volumes @ rho**2)
        + float(mesh.volumes @ (m[:, 0] ** 2 + m[:, 1] ** 2))
        + float(mesh.lumped_mass() @ z**2) / delta
    )
    assert weighted_norm(rho, m, z, mesh, delta) == pytest.approx(
        expected, rel=1e-14
    )


# ------------------------------------------------------------ initialize


def test_initialize_matching_endpoints():
    mesh = build_mesh(4, 3)
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
    mesh = build_mesh(nx, 3)
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
    mesh = build_mesh(nx, 2)
    n = 2 * nx * nx
    bdata = BoundaryData(np.zeros(n), np.ones(n))
    state = initialize(mesh, bdata)
    per_slab = state.rho.reshape(mesh.nt, -1)
    assert np.allclose(per_slab[0], 0.25, atol=1e-14)
    assert np.allclose(per_slab[1], 0.75, atol=1e-14)


# --------------------------------------------------------------- dr_step


def test_dr_step_zero_state_is_fixed_point():
    nx = 3
    mesh = build_mesh(nx, 2)
    system = assemble_system(mesh, 1.0)
    n = 2 * nx * nx
    bdata = BoundaryData(np.zeros(n), np.zeros(n))
    cfg = SolverConfig(nt=2, source=SourceModel("l2huber", beta=0.1))
    aux = State(
        np.zeros(mesh.n_tets), np.zeros((mesh.n_tets, 2)), np.zeros(mesh.n_dofs)
    )
    aux2, feasible, image, residual = dr_step(aux, bdata, system, cfg)
    assert residual == 0.0
    for out in (aux2, feasible, image):
        assert np.all(out.rho == 0.0)
        assert np.all(out.m == 0.0)
        assert np.all(out.z == 0.0)


def test_dr_step_stationary_pair_is_fixed_point():
    # matching endpoints: the constant-in-time blend with m = z = 0 is
    # feasible and every prox fixes it, so the step must return it
    nx = 3
    mesh = build_mesh(nx, 2)
    system = assemble_system(mesh, 1.0)
    bdata = _random_bdata(nx, seed=2)
    bdata = BoundaryData(bdata.ua, bdata.ua.copy())
    cfg = SolverConfig(nt=2, source=SourceModel("none"))
    aux = initialize(mesh, bdata)
    aux2, feasible, image, residual = dr_step(aux, bdata, system, cfg)
    assert residual <= 1e-10
    assert np.allclose(aux2.rho, aux.rho, atol=1e-10)
    assert np.allclose(feasible.rho, aux.rho, atol=1e-10)


def test_dr_step_feasible_iterate_satisfies_continuity():
    nx = 3
    mesh = build_mesh(nx, 2)
    system = assemble_system(mesh, 1.0)
    bdata = _random_bdata(nx, seed=3)
    cfg = SolverConfig(nt=2, source=SourceModel("l2l2"))
    aux = initialize(mesh, bdata)
    for _ in range(3):
        aux, feasible, image, residual = dr_step(aux, bdata, system, cfg)
        defect = continuity_defect(feasible, bdata, mesh)
        assert np.linalg.norm(defect) <= 1e-8


def test_dr_step_update_algebra():
    # aux' - aux = alpha * (image - feasible) on every block
    nx = 3
    mesh = build_mesh(nx, 2)
    system = assemble_system(mesh, 1.0)
    bdata = _random_bdata(nx, seed=4)
    alpha = 1.3
    cfg = SolverConfig(nt=2, alpha=alpha, source=SourceModel("l2l2"))
    aux = initialize(mesh, bdata)
    aux2, feasible, image, _ = dr_step(aux, bdata, system, cfg)
    assert np.allclose(aux2.rho - aux.rho, alpha * (image.rho - feasible.rho))
    assert np.allclose(aux2.m - aux.m, alpha * (image.m - feasible.m))
    assert np.allclose(aux2.z - aux.z, alpha * (image.z - feasible.z))


def test_dr_step_residual_is_weighted_distance():
    nx = 3
    mesh = build_mesh(nx, 2)
    delta = 2.5
    system = assemble_system(mesh, delta)
    bdata = _random_bdata(nx, seed=5)
    cfg = SolverConfig(nt=2, delta=delta, source=SourceModel("l2l2"))
    aux = initialize(mesh, bdata)
    _, feasible, image, residual = dr_step(aux, bdata, system, cfg)
    expected = weighted_norm(
        image.rho - feasible.rho,
        image.m - feasible.m,
        image.z - feasible.z,
        mesh,
        delta,
    )
    assert residual == pytest.approx(expected, rel=1e-14)


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
