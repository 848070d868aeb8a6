import numpy as np
import pytest

from otsource.assembly import (
    BoundaryData,
    assemble_system,
    boundary_vector,
    continuity_defect,
    project_continuity,
)
from otsource.diagnostics import mass_balance_defect
from otsource.mesh import SpaceTimeMesh, State
from otsource.solver import weighted_norm


def _setup(nx=3, nt=2, delta=1.0, seed=0, bc="neumann"):
    mesh = SpaceTimeMesh(nx, nt, bc=bc)
    system = assemble_system(mesh, delta)
    rng = np.random.default_rng(seed)
    n = 2 * nx * nx
    bdata = BoundaryData(rng.uniform(0.2, 1.0, n), rng.uniform(0.2, 1.0, n))
    state = State(
        rng.standard_normal(mesh.n_tets),
        rng.standard_normal((mesh.n_tets, 2)),
        rng.standard_normal(mesh.n_dofs),
    )
    return mesh, system, bdata, state


def test_output_is_feasible():
    mesh, system, bdata, state = _setup()
    out, _ = project_continuity(state, boundary_vector(mesh, bdata), system)
    defect = continuity_defect(out, boundary_vector(mesh, bdata), mesh)
    assert np.linalg.norm(defect) < 1e-9


def test_mass_row_machine_exact():
    # the constant test function row is corrected exactly, not just to
    # the linear-solver tolerance
    for delta in (0.3, 1.0, 5.0):
        mesh, system, bdata, state = _setup(delta=delta, seed=4)
        out, _ = project_continuity(state, boundary_vector(mesh, bdata), system)
        assert mass_balance_defect(out, bdata, mesh) < 1e-13


def test_idempotent():
    mesh, system, bdata, state = _setup(seed=1)
    once, _ = project_continuity(state, boundary_vector(mesh, bdata), system)
    twice, _ = project_continuity(once, boundary_vector(mesh, bdata), system)
    gap = weighted_norm(
        twice.rho - once.rho, twice.m - once.m, twice.z - once.z, mesh, system.delta
    )
    assert gap < 1e-9


def test_feasible_point_is_fixed():
    mesh, system, bdata, state = _setup(seed=2)
    feas, _ = project_continuity(state, boundary_vector(mesh, bdata), system)
    again, _ = project_continuity(feas, boundary_vector(mesh, bdata), system)
    assert np.max(np.abs(again.rho - feas.rho)) < 1e-9
    assert np.max(np.abs(again.z - feas.z)) < 1e-9


def test_orthogonality():
    # input - output must be orthogonal to the feasible set: test against
    # an independently projected second point
    mesh, system, bdata, state = _setup(seed=3)
    out, _ = project_continuity(state, boundary_vector(mesh, bdata), system)
    rng = np.random.default_rng(33)
    other = State(
        rng.standard_normal(mesh.n_tets),
        rng.standard_normal((mesh.n_tets, 2)),
        rng.standard_normal(mesh.n_dofs),
    )
    w, _ = project_continuity(other, boundary_vector(mesh, bdata), system)
    vol, ell = mesh.tet_volume, mesh.lumped_mass()
    ip = float(np.sum(vol * (state.rho - out.rho) * (w.rho - out.rho)))
    ip += float(np.sum(vol * ((state.m - out.m) * (w.m - out.m)).sum(axis=1)))
    ip += float(np.sum(ell * (state.z - out.z) * (w.z - out.z))) / system.delta
    scale = weighted_norm(
        state.rho - out.rho, state.m - out.m, state.z - out.z, mesh, system.delta
    ) * weighted_norm(w.rho - out.rho, w.m - out.m, w.z - out.z, mesh, system.delta)
    assert abs(ip) < 1e-8 * max(scale, 1.0)


def test_nonexpansive():
    mesh, system, bdata, _ = _setup(seed=5)
    rng = np.random.default_rng(55)
    for _ in range(5):
        s1 = State(
            rng.standard_normal(mesh.n_tets),
            rng.standard_normal((mesh.n_tets, 2)),
            rng.standard_normal(mesh.n_dofs),
        )
        s2 = State(
            rng.standard_normal(mesh.n_tets),
            rng.standard_normal((mesh.n_tets, 2)),
            rng.standard_normal(mesh.n_dofs),
        )
        p1, _ = project_continuity(s1, boundary_vector(mesh, bdata), system)
        p2, _ = project_continuity(s2, boundary_vector(mesh, bdata), system)
        din = weighted_norm(
            s1.rho - s2.rho, s1.m - s2.m, s1.z - s2.z, mesh, system.delta
        )
        dout = weighted_norm(
            p1.rho - p2.rho, p1.m - p2.m, p1.z - p2.z, mesh, system.delta
        )
        assert dout <= din * (1.0 + 1e-9)


def test_periodic_projection_feasible():
    mesh, system, bdata, state = _setup(bc="periodic", seed=6)
    out, _ = project_continuity(state, boundary_vector(mesh, bdata), system)
    assert np.linalg.norm(continuity_defect(out, boundary_vector(mesh, bdata), mesh)) < 1e-9
    assert mass_balance_defect(out, bdata, mesh) < 1e-13


@pytest.mark.parametrize("bc", ["neumann", "periodic"])
@pytest.mark.parametrize("nx, nt", [(3, 2), (8, 5)])
def test_returned_potential_solves_projection_system(bc, nx, nt):
    # the second output is the potential of the update, the solution of
    # A phi = -continuity_defect(state)
    mesh, system, bdata, state = _setup(nx=nx, nt=nt, delta=0.7, seed=7, bc=bc)
    b = boundary_vector(mesh, bdata)
    _, phi = project_continuity(state, b, system)
    rhs = -continuity_defect(state, b, mesh)
    assert phi.shape == (mesh.n_dofs,)
    assert np.linalg.norm(system.matrix @ phi - rhs) <= 1e-10 * np.linalg.norm(rhs)
