import numpy as np
import pytest
import scipy.sparse.linalg as spla

from otsource.assembly import (
    BoundaryData,
    assemble_system,
    boundary_vector,
    cg_solve,
    continuity_defect,
)
from otsource.exceptions import NonConvergence
from otsource.mesh import State, build_mesh


def _zero_state(mesh):
    return State(
        np.zeros(mesh.n_tets), np.zeros((mesh.n_tets, 2)), np.zeros(mesh.n_dofs)
    )


def _rhs(mesh, state, bdata):
    """Right-hand side of the projection system: minus the defect."""
    return -continuity_defect(state, bdata, mesh)


def _zero_bdata(mesh):
    n = 2 * mesh.nx * mesh.nx
    return BoundaryData(np.zeros(n), np.zeros(n))


class TestSystem:
    def test_symmetry_exact(self):
        system = assemble_system(build_mesh(2, 2), 1.0)
        diff = (system.matrix - system.matrix.T).tocoo()
        assert max(np.abs(diff.data), default=0.0) == 0.0

    def test_positive_definite_small(self):
        system = assemble_system(build_mesh(2, 2), 1.0)
        eigs = np.linalg.eigvalsh(system.matrix.toarray())
        assert eigs.min() > 0

    def test_constant_vector_hits_mass_term(self):
        mesh = build_mesh(3, 2)
        for delta in (0.5, 1.0, 4.0):
            system = assemble_system(mesh, delta)
            out = system.matrix @ np.ones(mesh.n_dofs)
            assert np.allclose(out, 0.5 * delta * mesh.lumped_mass(), atol=1e-14)
            quad = np.ones(mesh.n_dofs) @ out
            assert abs(quad - 0.5 * delta) < 1e-13

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            assemble_system(build_mesh(2, 2), 0.0)


class TestRhs:
    def test_zero_everything(self):
        mesh = build_mesh(2, 2)
        rhs = _rhs(mesh, _zero_state(mesh), _zero_bdata(mesh))
        assert np.array_equal(rhs, np.zeros(mesh.n_dofs))

    def test_unit_density_pairs_with_time_gradient(self):
        # rho = 1, m = 0, z = 0, no boundary data: rhs_i = -int d_t psi_i;
        # dotting with nodal values of t gives -int d_t t = -1
        mesh = build_mesh(3, 3)
        state = _zero_state(mesh)
        state.rho[:] = 1.0
        rhs = _rhs(mesh, state, _zero_bdata(mesh))
        t = mesh.vertices[:, 0]
        assert abs(t @ rhs - (-1.0)) < 1e-13

    def test_unit_terminal_density(self):
        mesh = build_mesh(2, 2)
        n = 2 * mesh.nx * mesh.nx
        bdata = BoundaryData(np.zeros(n), np.ones(n))
        rhs = _rhs(mesh, _zero_state(mesh), bdata)
        last = mesh.slice_dofs(mesh.nt)
        assert abs(rhs[last].sum() - 1.0) < 1e-13
        mask = np.ones(mesh.n_dofs, dtype=bool)
        mask[last] = False
        assert np.array_equal(rhs[mask], np.zeros(mask.sum()))

    def test_boundary_vector_masses(self):
        mesh = build_mesh(3, 2)
        n = 2 * mesh.nx * mesh.nx
        bdata = BoundaryData(np.full(n, 0.7), np.full(n, 1.1))
        bvec = boundary_vector(mesh, bdata)
        assert abs(bvec.sum() - (1.1 - 0.7)) < 1e-13


class TestCg:
    def test_zero_rhs(self):
        system = assemble_system(build_mesh(2, 2), 1.0)
        phi = cg_solve(system, np.zeros(system.matrix.shape[0]))
        assert np.array_equal(phi, np.zeros_like(phi))

    def test_recovers_manufactured_solution(self):
        mesh = build_mesh(2, 2)
        system = assemble_system(mesh, 1.0)
        rng = np.random.default_rng(0)
        w = rng.standard_normal(mesh.n_dofs)
        rhs = system.matrix @ w
        phi = cg_solve(system, rhs, tol=1e-12)
        assert np.linalg.norm(phi - w) < 1e-8

    def test_constant_solution_for_mass_rhs(self):
        mesh = build_mesh(2, 2)
        for delta in (1.0, 2.5):
            system = assemble_system(mesh, delta)
            rhs = mesh.lumped_mass()
            phi = cg_solve(system, rhs, tol=1e-12)
            direct = spla.spsolve(system.matrix.tocsc(), rhs)
            assert np.allclose(phi, direct, atol=1e-9)
            assert np.allclose(phi, 2.0 / delta, atol=1e-9)

    def test_nonconvergence_raises(self):
        mesh = build_mesh(3, 3)
        system = assemble_system(mesh, 1e-6)
        rng = np.random.default_rng(1)
        rhs = rng.standard_normal(mesh.n_dofs)
        with pytest.raises(NonConvergence) as info:
            cg_solve(system, rhs, tol=1e-14, maxit=2)
        assert info.value.iterations == 2

    def test_a_norm_error_monotone(self):
        mesh = build_mesh(2, 3)
        system = assemble_system(mesh, 1.0)
        rng = np.random.default_rng(2)
        rhs = rng.standard_normal(mesh.n_dofs)
        exact = spla.spsolve(system.matrix.tocsc(), rhs)
        errs = []

        def watch(xk):
            e = xk - exact
            errs.append(float(e @ (system.matrix @ e)))

        cg_solve(system, rhs, tol=1e-12, callback=watch)
        errs = np.array(errs)
        assert len(errs) > 3
        assert np.all(np.diff(errs) <= 1e-12 * errs[0])


@pytest.mark.parametrize("bc", ["neumann", "periodic"])
def test_cold_cg_iterations_bounded(bc):
    # the acceptance gate's time budget rests on the spectral
    # preconditioner keeping a cold solve to a few iterations at the
    # gate's mesh sizes, over the gate's range of delta
    rng = np.random.default_rng(4)
    for nx, nt, delta in ((32, 8, 0.01), (32, 8, 1.0), (32, 8, 10.0), (64, 4, 1.0)):
        system = assemble_system(build_mesh(nx, nt, bc), delta)
        rhs = rng.standard_normal(system.matrix.shape[0])
        iters = []
        phi = cg_solve(system, rhs, tol=1e-9, callback=iters.append)
        assert np.linalg.norm(system.matrix @ phi - rhs) <= 1e-9 * np.linalg.norm(rhs)
        assert len(iters) <= 20, (nx, nt, delta, len(iters))


def test_preconditioner_inverts_periodic_system():
    # with periodic boundaries the tensor-product model is the assembled
    # operator itself, so the preconditioner is its exact inverse
    mesh = build_mesh(5, 3, "periodic")
    system = assemble_system(mesh, 0.7)
    w = np.random.default_rng(5).standard_normal(mesh.n_dofs)
    assert np.allclose(system.precond(system.matrix @ w), w, atol=1e-12)


class TestDefect:
    def test_zero_state_defect_is_boundary(self):
        mesh = build_mesh(2, 2)
        n = 2 * mesh.nx * mesh.nx
        bdata = BoundaryData(np.zeros(n), np.ones(n))
        defect = continuity_defect(_zero_state(mesh), bdata, mesh)
        assert abs(defect.sum() + 1.0) < 1e-13  # -(uB mass)


class TestBoundaryData:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BoundaryData(np.array([-1.0, 0.0]), np.array([0.0, 0.0]))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                BoundaryData(np.array([bad, 0.0]), np.array([0.0, 0.0]))
            with pytest.raises(ValueError, match="finite"):
                BoundaryData(np.array([0.0, 0.0]), np.array([0.0, bad]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            BoundaryData(np.zeros(8), np.zeros(6))
