import numpy as np
import pytest
import scipy.sparse.linalg as spla

from otsource.assembly import (
    BoundaryData,
    SparseSystem,
    _edge_correction,
    _model_inverse_on_edges,
    assemble_system,
    boundary_vector,
    cg_solve,
    continuity_defect,
    edge_nodes,
)
from otsource.exceptions import NonConvergence
from otsource.mesh import SpaceTimeMesh, State
from otsource.solver import SolverConfig, solve


def _zero_state(mesh):
    return State(
        np.zeros(mesh.n_tets), np.zeros((mesh.n_tets, 2)), np.zeros(mesh.n_dofs)
    )


def _rhs(mesh, state, bdata):
    """Right-hand side of the projection system: minus the defect."""
    return -continuity_defect(state, boundary_vector(mesh, bdata), mesh)


def _zero_bdata(mesh):
    n = 2 * mesh.nx * mesh.nx
    return BoundaryData(np.zeros(n), np.zeros(n))


class TestSystem:
    def test_symmetry_exact(self):
        system = assemble_system(SpaceTimeMesh(2, 2), 1.0)
        diff = (system.matrix - system.matrix.T).tocoo()
        assert max(np.abs(diff.data), default=0.0) == 0.0

    def test_positive_definite_small(self):
        system = assemble_system(SpaceTimeMesh(2, 2), 1.0)
        eigs = np.linalg.eigvalsh(system.matrix.toarray())
        assert eigs.min() > 0

    def test_constant_vector_hits_mass_term(self):
        mesh = SpaceTimeMesh(3, 2)
        for delta in (0.5, 1.0, 4.0):
            system = assemble_system(mesh, delta)
            out = system.matrix @ np.ones(mesh.n_dofs)
            assert np.allclose(out, 0.5 * delta * mesh.lumped_mass(), atol=1e-14)
            quad = np.ones(mesh.n_dofs) @ out
            assert abs(quad - 0.5 * delta) < 1e-13

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            assemble_system(SpaceTimeMesh(2, 2), 0.0)

    def test_non_finite_delta_rejected(self):
        # an infinite delta passes a bare delta > 0 test and fills the
        # capacitance matrix with NaN
        for bad in (np.inf, np.nan, -np.inf):
            for build in (assemble_system, SparseSystem):
                with pytest.raises(ValueError, match=f"finite and positive, got {bad}"):
                    build(SpaceTimeMesh(3, 2), bad)


class TestRhs:
    def test_zero_everything(self):
        mesh = SpaceTimeMesh(2, 2)
        rhs = _rhs(mesh, _zero_state(mesh), _zero_bdata(mesh))
        assert np.array_equal(rhs, np.zeros(mesh.n_dofs))

    def test_unit_density_pairs_with_time_gradient(self):
        # rho = 1, m = 0, z = 0, no boundary data: rhs_i = -int d_t psi_i;
        # dotting with nodal values of t gives -int d_t t = -1
        mesh = SpaceTimeMesh(3, 3)
        state = _zero_state(mesh)
        state.rho[:] = 1.0
        rhs = _rhs(mesh, state, _zero_bdata(mesh))
        # node k*(nx+1)^2 + j*(nx+1) + i sits at time k*ht
        t = np.repeat(np.arange(mesh.nt + 1) * mesh.ht, mesh.nsp)
        assert abs(t @ rhs - (-1.0)) < 1e-13

    def test_unit_terminal_density(self):
        mesh = SpaceTimeMesh(2, 2)
        n = 2 * mesh.nx * mesh.nx
        bdata = BoundaryData(np.zeros(n), np.ones(n))
        rhs = _rhs(mesh, _zero_state(mesh), bdata)
        last = slice(mesh.nt * mesh.nsp, None)
        assert abs(rhs[last].sum() - 1.0) < 1e-13
        mask = np.ones(mesh.n_dofs, dtype=bool)
        mask[last] = False
        assert np.array_equal(rhs[mask], np.zeros(mask.sum()))

    def test_boundary_vector_masses(self):
        mesh = SpaceTimeMesh(3, 2)
        n = 2 * mesh.nx * mesh.nx
        bdata = BoundaryData(np.full(n, 0.7), np.full(n, 1.1))
        bvec = boundary_vector(mesh, bdata)
        assert abs(bvec.sum() - (1.1 - 0.7)) < 1e-13


class TestCg:
    def test_zero_rhs(self):
        system = assemble_system(SpaceTimeMesh(2, 2), 1.0)
        phi = cg_solve(system, np.zeros(system.matrix.shape[0]))
        assert np.array_equal(phi, np.zeros_like(phi))

    def test_result_shares_no_memory_with_rhs(self):
        # SciPy's cg hands back its own b when b = 0; writing into the
        # returned potential must not change the caller's right-hand side
        mesh = SpaceTimeMesh(3, 2)
        system = assemble_system(mesh, 1.0)
        rng = np.random.default_rng(4)
        for rhs in (np.zeros(mesh.n_dofs), rng.standard_normal(mesh.n_dofs)):
            phi = cg_solve(system, rhs)
            assert not np.shares_memory(phi, rhs)

    def test_recovers_manufactured_solution(self):
        mesh = SpaceTimeMesh(2, 2)
        system = assemble_system(mesh, 1.0)
        rng = np.random.default_rng(0)
        w = rng.standard_normal(mesh.n_dofs)
        rhs = system.matrix @ w
        phi = cg_solve(system, rhs, tol=1e-12)
        assert np.linalg.norm(phi - w) < 1e-8

    def test_constant_solution_for_mass_rhs(self):
        mesh = SpaceTimeMesh(2, 2)
        for delta in (1.0, 2.5):
            system = assemble_system(mesh, delta)
            rhs = mesh.lumped_mass()
            phi = cg_solve(system, rhs, tol=1e-12)
            direct = spla.spsolve(system.matrix.tocsc(), rhs)
            assert np.allclose(phi, direct, atol=1e-9)
            assert np.allclose(phi, 2.0 / delta, atol=1e-9)

    def test_nonconvergence_raises(self):
        mesh = SpaceTimeMesh(3, 3)
        system = assemble_system(mesh, 1e-6)
        rng = np.random.default_rng(1)
        rhs = rng.standard_normal(mesh.n_dofs)
        with pytest.raises(NonConvergence) as info:
            cg_solve(system, rhs, tol=1e-14, maxit=2)
        assert info.value.iterations == 2

    def test_converges_on_last_allowed_iteration(self):
        mesh = SpaceTimeMesh(3, 3)
        system = assemble_system(mesh, 1.0)
        rhs = np.random.default_rng(6).standard_normal(mesh.n_dofs)
        iters = []
        full = cg_solve(system, rhs, tol=1e-10, callback=iters.append)
        capped = cg_solve(system, rhs, tol=1e-10, maxit=len(iters))
        assert np.array_equal(capped, full)

    def test_a_norm_error_monotone(self):
        mesh = SpaceTimeMesh(2, 3)
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
    # P is a good model of A: preconditioned by P^(-1), CG solves cold
    # in a few iterations at the gate's mesh sizes, over the gate's range
    # of delta
    rng = np.random.default_rng(4)
    for nx, nt, delta in ((32, 8, 0.01), (32, 8, 1.0), (32, 8, 10.0), (64, 4, 1.0)):
        system = assemble_system(SpaceTimeMesh(nx, nt, bc), delta)
        rhs = rng.standard_normal(system.matrix.shape[0])
        iters = []
        phi = cg_solve(system, rhs, tol=1e-9, callback=iters.append)
        assert np.linalg.norm(system.matrix @ phi - rhs) <= 1e-9 * np.linalg.norm(rhs)
        assert len(iters) <= 20, (nx, nt, delta, len(iters))


def test_model_inverse_inverts_periodic_system():
    # with periodic boundaries the tensor-product model is the assembled
    # operator itself, so model_inverse is its exact inverse
    mesh = SpaceTimeMesh(5, 3, "periodic")
    system = assemble_system(mesh, 0.7)
    w = np.random.default_rng(5).standard_normal(mesh.n_dofs)
    assert np.allclose(system.model_inverse(system.matrix @ w), w, atol=1e-12)


def _dense_model_inverse(system):
    """P^(-1) one column at a time, from the spectral application."""
    return np.column_stack([system.model_inverse(e) for e in np.eye(system.mesh.n_dofs)])


@pytest.mark.parametrize("bc", ["neumann", "periodic"])
@pytest.mark.parametrize("nx", [2, 3, 5, 32])
def test_exact_solve_residual(bc, nx):
    rng = np.random.default_rng(nx)
    for nt in (2, 3, 8):
        mesh = SpaceTimeMesh(nx, nt, bc)
        for delta in (0.01, 1.0, 10.0):
            system = assemble_system(mesh, delta)
            f = rng.standard_normal(mesh.n_dofs)
            x = system.solve(f)
            resid = np.linalg.norm(system.matrix @ x - f)
            assert resid <= 1e-10 * np.linalg.norm(f), (nt, delta, resid)


@pytest.mark.parametrize("bc", ["neumann", "periodic"])
def test_edge_nodes_are_the_support_of_the_model_defect(bc):
    # A - P vanishes outside the rows and columns of edge_nodes, and is
    # nonzero in every one of those rows; _edge_correction is its block
    for nx, nt, delta in ((2, 2, 1.0), (3, 2, 0.7), (3, 3, 5.0), (5, 3, 0.05)):
        mesh = SpaceTimeMesh(nx, nt, bc)
        system = assemble_system(mesh, delta)
        defect = system.matrix.toarray() - np.linalg.inv(_dense_model_inverse(system))
        scale = np.abs(system.matrix).max()
        support = np.flatnonzero(np.abs(defect).max(axis=1) > 1e-10 * scale)
        edges = edge_nodes(mesh)
        assert np.array_equal(np.sort(edges), support), (nx, nt)
        outside = np.ones(mesh.n_dofs, dtype=bool)
        outside[edges] = False
        assert np.abs(defect[outside]).max() <= 1e-10 * scale
        if bc == "periodic":
            assert edges.size == 0
            continue
        assert edges.size == 4 * (nt + 1) + 8 * (nx - 1)
        block, cols, vals = _edge_correction(system)
        assert cols.shape == vals.shape == (edges.size, 4)
        table = np.zeros_like(block)
        np.add.at(table, (np.arange(edges.size)[:, None], cols), vals)
        assert np.array_equal(table, block)
        expected = defect[np.ix_(edges, edges)]
        assert np.allclose(block, expected, rtol=0.0, atol=1e-10 * scale)


def _tensor_product_edge_weights(system):
    """P's weight per grid edge, laid out like mesh.edge_weights().

    The 1-D stiffness 1/h along the edge times the 1-D lumped masses
    across it; no edge leaves the last node of the time axis or of a
    Neumann side.
    """
    mesh = system.mesh
    mt, ms = system.masses
    st, ss = np.full(mt.size, 1.0 / mesh.ht), np.full(ms.size, 1.0 / mesh.hx)
    st[-1] = 0.0
    if mesh.bc == "neumann":
        ss[-1] = 0.0
    along_t = st[:, None, None] * ms[None, :, None] * ms[None, None, :]
    along_x = mt[:, None, None] * ms[None, :, None] * ss[None, None, :]
    along_y = mt[:, None, None] * ss[None, :, None] * ms[None, None, :]
    return np.concatenate([along_t.ravel(), along_x.ravel(), along_y.ravel()])


@pytest.mark.parametrize("bc", ["neumann", "periodic"])
def test_edge_weights_are_the_model_weights_outside_the_edge_nodes(bc):
    # A and P are weighted graph Laplacians on the grid edges plus a
    # diagonal mass, and their weights agree on every grid edge without
    # both ends in edge_nodes (with periodic boundaries, on every edge):
    # that is why C = (A - P)_EE is the whole correction
    for nx, nt in ((2, 2), (3, 4), (5, 3), (8, 6)):
        mesh = SpaceTimeMesh(nx, nt, bc)
        system = assemble_system(mesh, 1.0)
        a, p = mesh.edge_weights(), _tensor_product_edge_weights(system)
        assert a.shape == p.shape == (3 * mesh.n_dofs,)
        in_e = np.zeros(mesh.n_dofs, dtype=bool)
        in_e[system.edges] = True
        start, end = np.arange(3 * mesh.n_dofs) % mesh.n_dofs, mesh.step_edges()[2] % mesh.n_dofs
        outside = ~(in_e[start] & in_e[end])
        assert np.abs(a[outside] - p[outside]).max() <= 1e-14 * a.max(), (nx, nt)
        if bc == "periodic":
            assert outside.all()
        else:
            # the weights do differ on edges inside E
            assert np.abs(a[~outside] - p[~outside]).max() > 1e-3 * a.max()


def test_closed_form_model_inverse_on_edges():
    for nx, nt, delta in ((2, 2, 1.0), (3, 4, 0.3), (6, 3, 10.0)):
        mesh = SpaceTimeMesh(nx, nt)
        system = assemble_system(mesh, delta)
        edges = edge_nodes(mesh)
        columns = np.column_stack(
            [system.model_inverse(np.eye(mesh.n_dofs)[e]) for e in edges]
        )[edges]
        w = _model_inverse_on_edges(system)
        assert np.allclose(w, columns, rtol=0.0, atol=1e-12 * np.abs(columns).max())


class TestDefect:
    def test_zero_state_defect_is_boundary(self):
        mesh = SpaceTimeMesh(2, 2)
        n = 2 * mesh.nx * mesh.nx
        bdata = BoundaryData(np.zeros(n), np.ones(n))
        defect = continuity_defect(_zero_state(mesh), boundary_vector(mesh, bdata), mesh)
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

    def test_boundary_vector_rejects_wrong_length(self):
        # a 2x2 mesh has 8 spatial triangles
        with pytest.raises(ValueError, match="triangle values"):
            boundary_vector(SpaceTimeMesh(2, 2), BoundaryData(np.zeros(6), np.zeros(6)))


@pytest.mark.parametrize("bc", ["neumann", "periodic"])
@pytest.mark.parametrize("nx,nt", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (5, 3)])
def test_continuity_defect_matches_element_assembly(bc, nx, nt):
    # reference: each element's pairing of (rho, m) with the hat-function
    # gradients from the inverse of its edge matrix, as for an
    # unstructured mesh, scattered to the dofs
    mesh = SpaceTimeMesh(nx, nt, bc=bc)
    rng = np.random.default_rng(nx * 10 + nt)
    state = State(
        rng.standard_normal(mesh.n_tets),
        rng.standard_normal((mesh.n_tets, 2)),
        rng.standard_normal(mesh.n_dofs),
    )
    n = 2 * nx * nx
    b = boundary_vector(mesh, BoundaryData(rng.random(n), rng.random(n)))
    # node k*(nx+1)^2 + j*(nx+1) + i sits at (k*ht, i*hx, j*hx)
    k, j, i = np.unravel_index(mesh.tets, (nt + 1, nx + 1, nx + 1))
    coords = np.stack([k * mesh.ht, i * mesh.hx, j * mesh.hx], axis=-1)
    edges = coords[:, 1:] - coords[:, :1]
    inv = np.linalg.inv(edges)
    basis = np.concatenate([-inv.sum(axis=2, keepdims=True), inv], axis=2)
    vol = np.abs(np.linalg.det(edges)) / 6.0
    flux = np.column_stack([state.rho, state.m])
    local = vol[:, None] * np.einsum("ecv,ec->ev", basis, flux)
    expect = mesh.lumped_mass() * state.z - b
    np.add.at(expect, mesh.tet_dofs, local)
    got = continuity_defect(state, b, mesh)
    assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


def test_solve_builds_step_edges_once(monkeypatch):
    calls = []
    build = SpaceTimeMesh._build_step_edges

    def counting(mesh):
        calls.append(mesh)
        return build(mesh)

    monkeypatch.setattr(SpaceTimeMesh, "_build_step_edges", counting)
    rng = np.random.default_rng(5)
    bdata = BoundaryData(rng.uniform(0.2, 1.0, 32), rng.uniform(0.2, 1.0, 32))
    result = solve(bdata, SolverConfig(nt=3, max_iters=20, fp_tol=0.0))
    assert len(result.stats) == 20
    assert len(calls) == 1
    assert calls[0] is result.mesh
