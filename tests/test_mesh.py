import numpy as np
import pytest
import scipy.sparse as sp

from otsource.diagnostics import source_energy
from otsource.mesh import SpaceTimeMesh
from otsource.prox import SourceModel


def _node_coords(mesh):
    """(t, x, y) of every geometric node, from the documented numbering.

    Node k*(nx+1)^2 + j*(nx+1) + i sits at (k*ht, i*hx, j*hx).
    """
    n = mesh.nx + 1
    k, j, i = np.unravel_index(np.arange((mesh.nt + 1) * n * n), (mesh.nt + 1, n, n))
    return np.column_stack([k * mesh.ht, i * mesh.hx, j * mesh.hx])


def _gradient(mesh, phi):
    """Per-element (t, x, y) gradient of a P1 field, shape (n_tets, 3).

    Read through mesh.gradient, which the projection applies to the
    potential.
    """
    grad_t, grad_m = mesh.gradient(phi)
    return np.column_stack([grad_t, grad_m])


def _csr_divergence(mesh):
    """The divergence as CSR matrices (bt, bm) built from the vertex table.

    Each element's Kuhn path steps once along each axis, by stride
    (nx+1)^2 in t, 1 in x and nx+1 in y; column e of bt (and columns
    2e, 2e+1 of bm) hold -1/h at the dof before that step and +1/h at
    the dof after it.  Their transposes are the gradient.
    """
    npt = mesh.nx + 1
    steps = np.diff(mesh.tets, axis=1)
    ends_t, ends_x, ends_y = (
        np.take_along_axis(
            mesh.tet_dofs, np.argmax(steps == stride, axis=1)[:, None] + [0, 1], axis=1
        )
        for stride in (npt * npt, 1, npt)
    )

    def differences(ends, h):
        n = ends.shape[0]
        data = np.tile([-1.0 / h, 1.0 / h], n)
        shape = (mesh.n_dofs, n)
        return sp.csc_matrix((data, ends.ravel(), np.arange(0, 2 * n + 1, 2)), shape=shape)

    ends_m = np.stack([ends_x, ends_y], axis=1).reshape(-1, 2)
    return differences(ends_t, mesh.ht).tocsr(), differences(ends_m, mesh.hx).tocsr()


def test_counts_small():
    mesh = SpaceTimeMesh(2, 2)
    assert mesh.n_tets == 48
    assert mesh.n_dofs == 27
    assert mesh.nsp == 9


def test_counts_rectangular():
    mesh = SpaceTimeMesh(4, 3)
    assert mesh.n_tets == 6 * 16 * 3
    assert mesh.n_dofs == 25 * 4


def test_counts_periodic():
    mesh = SpaceTimeMesh(2, 2, bc="periodic")
    assert mesh.n_tets == 48
    assert mesh.nsp == 4
    assert mesh.n_dofs == 4 * 3


def test_volumes_positive_and_sum_to_one():
    for bc in ("neumann", "periodic"):
        mesh = SpaceTimeMesh(3, 2, bc=bc)
        assert mesh.tet_volume > 0
        assert abs(mesh.tet_volume * mesh.n_tets - 1.0) < 1e-13


def test_bad_args_rejected():
    with pytest.raises(ValueError):
        SpaceTimeMesh(1, 2)
    with pytest.raises(ValueError):
        SpaceTimeMesh(2, 0)
    with pytest.raises(ValueError):
        SpaceTimeMesh(2, 2, bc="dirichlet")


def test_non_integral_sizes_rejected():
    # 4.5 time intervals would build 4 slabs of width 1/4.5, which stop
    # at t = 0.889; a float nx used to fail inside NumPy instead
    with pytest.raises(ValueError, match="nt must be an integer, got 4.5"):
        SpaceTimeMesh(4, 4.5)
    with pytest.raises(ValueError, match="nx must be an integer, got 4.0"):
        SpaceTimeMesh(4.0, 4)
    mesh = SpaceTimeMesh(np.int64(4), np.int32(3))
    assert (mesh.nx, mesh.nt) == (4, 3)
    assert type(mesh.nx) is int and type(mesh.nt) is int
    assert mesh.hx == 0.25 and mesh.ht == 1.0 / 3.0


def _facet_counts(mesh):
    counts = {}
    for tet in mesh.tets:
        for skip in range(4):
            facet = tuple(sorted(v for i, v in enumerate(tet) if i != skip))
            counts[facet] = counts.get(facet, 0) + 1
    return counts


def test_facet_conformity():
    # every triangular facet is shared by exactly two tets or lies on the
    # boundary of the space-time box; no hanging facets
    mesh = SpaceTimeMesh(3, 2)
    verts = _node_coords(mesh)
    for facet, cnt in _facet_counts(mesh).items():
        assert cnt in (1, 2)
        if cnt == 1:
            pts = verts[list(facet)]
            on_box = False
            for axis, lo, hi in ((0, 0.0, 1.0), (1, 0.0, 1.0), (2, 0.0, 1.0)):
                if np.allclose(pts[:, axis], lo) or np.allclose(pts[:, axis], hi):
                    on_box = True
            assert on_box, f"interior facet {facet} owned by one tet"


@pytest.mark.parametrize("nx, nt", [(2, 2), (5, 3)])
def test_tets_follow_the_kuhn_paths(nx, nt):
    # reference: the three paths through each prism, vertex by vertex,
    # in the documented element order
    mesh = SpaceTimeMesh(nx, nt)
    pslice = (nx + 1) ** 2
    expect = []
    for k in range(nt):
        for tri in mesh.spatial_tris:
            a, b, c = sorted(int(v) + k * pslice for v in tri)
            a1, b1, c1 = a + pslice, b + pslice, c + pslice
            expect += [(a, b, c, c1), (a, b, b1, c1), (a, a1, b1, c1)]
    assert mesh.tets.dtype == np.int64
    assert np.array_equal(mesh.tets, expect)


def test_facet_conformity_periodic_geometry_unchanged():
    # periodic identification only remaps dofs; the geometric mesh is identical
    a = SpaceTimeMesh(2, 2)
    b = SpaceTimeMesh(2, 2, bc="periodic")
    assert np.array_equal(a.tets, b.tets)


def test_gradient_exact_for_affine():
    mesh = SpaceTimeMesh(3, 3)
    t, x, y = _node_coords(mesh).T
    phi = 0.7 - 1.3 * t + 0.4 * x + 2.2 * y
    gt, gx, gy = _gradient(mesh, phi).T
    assert np.allclose(gt, -1.3, atol=1e-13)
    assert np.allclose(gx, 0.4, atol=1e-13)
    assert np.allclose(gy, 2.2, atol=1e-13)


OPERATOR_MESHES = [
    (bc, nx, nt) for bc in ("neumann", "periodic") for nx in (2, 3, 5) for nt in (2, 3)
]


def _element_basis(mesh):
    """Hat-function gradients and volumes as for an unstructured mesh.

    From the inverse and the determinant of each element's edge matrix:
    basis[e, c, v] is the c-component of the gradient of the hat at
    vertex v of element e, vol[e] its volume.
    """
    coords = _node_coords(mesh)[mesh.tets]
    edges = coords[:, 1:] - coords[:, :1]
    inv = np.linalg.inv(edges)
    basis = np.concatenate([-inv.sum(axis=2, keepdims=True), inv], axis=2)
    return basis, np.abs(np.linalg.det(edges)) / 6.0


@pytest.mark.parametrize("bc", ["neumann", "periodic"])
def test_gradient_matches_inverse_jacobian(bc):
    mesh = SpaceTimeMesh(3, 2, bc=bc)
    basis, vol = _element_basis(mesh)
    phi = np.random.default_rng(3).standard_normal(mesh.n_dofs)
    expect = np.einsum("ecv,ev->ec", basis, phi[mesh.tet_dofs])
    assert np.allclose(_gradient(mesh, phi), expect, rtol=0.0, atol=1e-12)
    edge_t, edge_m, ahead = mesh.step_edges()
    assert edge_t.shape == (mesh.n_tets,) and edge_m.shape == (mesh.n_tets, 2)
    assert ahead.shape == (3 * mesh.n_dofs,)
    assert edge_t.dtype == edge_m.dtype == ahead.dtype == np.intp
    assert mesh.tet_volume == pytest.approx(mesh.hx**2 * mesh.ht / 6, rel=1e-15, abs=0)
    assert np.allclose(vol, mesh.tet_volume, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("bc,nx,nt", OPERATOR_MESHES)
def test_gradient_p1_matches_inverse_jacobian(bc, nx, nt):
    mesh = SpaceTimeMesh(nx, nt, bc=bc)
    basis, _ = _element_basis(mesh)
    phi = np.random.default_rng(nx * 10 + nt).standard_normal(mesh.n_dofs)
    expect = np.einsum("ecv,ev->ec", basis, phi[mesh.tet_dofs])
    assert np.allclose(_gradient(mesh, phi), expect, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("bc,nx,nt", OPERATOR_MESHES)
def test_stiffness_matches_element_assembly(bc, nx, nt):
    # reference: the sum over elements of vol grad(hat_i) . grad(hat_j)
    mesh = SpaceTimeMesh(nx, nt, bc=bc)
    basis, vol = _element_basis(mesh)
    local = vol[:, None, None] * np.einsum("eci,ecj->eij", basis, basis)
    dofs = mesh.tet_dofs
    expect = np.zeros((mesh.n_dofs, mesh.n_dofs))
    np.add.at(expect, (dofs[:, :, None], dofs[:, None, :]), local)
    got = mesh.stiffness_matrix().toarray()
    assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


def test_gradient_of_time_coordinate():
    mesh = SpaceTimeMesh(2, 4)
    g = _gradient(mesh, _node_coords(mesh)[:, 0])
    assert np.allclose(g[:, 0], 1.0, atol=1e-14)
    assert np.allclose(g[:, 1:], 0.0, atol=1e-14)


def test_slice_weights_partition():
    mesh = SpaceTimeMesh(2, 2)
    w = mesh.slice_weights
    assert abs(w.sum() - 1.0) < 1e-13
    # center vertex of the 2x2 grid touches triangles covering area 3/4
    assert abs(w[4] - 0.25) < 1e-13


def _lumped_p1_area_weights(nx):
    # independent 2-d oracle: each triangle contributes area/3 to its corners
    w = np.zeros((nx + 1) * (nx + 1))
    area = 0.5 / (nx * nx)
    for j in range(nx):
        for i in range(nx):
            v00 = j * (nx + 1) + i
            v10 = v00 + 1
            v01 = v00 + (nx + 1)
            v11 = v01 + 1
            for tri in ((v00, v10, v11), (v00, v11, v01)):
                for v in tri:
                    w[v] += area / 3.0
    return w


def test_slice_weights_match_independent_assembly():
    mesh = SpaceTimeMesh(4, 2)
    expect = _lumped_p1_area_weights(4)
    assert np.allclose(mesh.slice_weights, expect, atol=1e-14)


def test_slice_weights_are_one_read_only_array():
    mesh = SpaceTimeMesh(3, 2)
    w = mesh.slice_weights
    with pytest.raises(ValueError):
        w[0] = 1.0


def test_slice_load_constant_density():
    mesh = SpaceTimeMesh(3, 2)
    dens = np.ones(2 * 9)
    load = mesh.slice_load(dens)
    assert abs(load.sum() - 1.0) < 1e-13


def test_time_weights_trapezoid():
    mesh = SpaceTimeMesh(2, 4)
    tw = mesh.time_weights()
    assert tw.shape == (5,)
    assert abs(tw.sum() - 1.0) < 1e-14
    assert np.allclose(tw, [0.125, 0.25, 0.25, 0.25, 0.125])


def test_lumped_mass_is_row_sum():
    # ell_i = <hat_i, 1> in the exact L2 pairing, which the l2l2 source
    # energy evaluates: <u, v> = (E(u + v) - E(u - v)) / 4 at delta = 1
    mesh = SpaceTimeMesh(2, 3)
    ell = mesh.lumped_mass()
    one = np.ones(mesh.n_dofs)

    def energy(u):
        return source_energy(u, SourceModel("l2l2"), 1.0, mesh)

    rows = [(energy(e + one) - energy(e - one)) / 4.0 for e in np.eye(mesh.n_dofs)]
    assert np.allclose(ell, rows, rtol=0.0, atol=1e-14)
    # and it integrates affine fields exactly
    t, x, y = _node_coords(mesh).T
    assert abs(ell.sum() - 1.0) < 1e-13
    assert abs(ell @ t - 0.5) < 1e-13
    assert abs(ell @ x - 0.5) < 1e-13
    assert abs(ell @ (1.0 + 2.0 * t - 3.0 * x + y) - 1.0) < 1e-13


def test_stiffness_annihilates_constants():
    for bc in ("neumann", "periodic"):
        mesh = SpaceTimeMesh(3, 2, bc=bc)
        K = mesh.stiffness_matrix()
        r = K @ np.ones(mesh.n_dofs)
        assert np.max(np.abs(r)) < 1e-14
        # exactly symmetric as assembled, with no symmetrization step
        assert (K != K.T).nnz == 0


def test_neumann_tet_dofs_share_tets():
    # with Neumann boundaries every vertex is its own dof: the dof table
    # is the vertex table, shared rather than rebuilt
    mesh = SpaceTimeMesh(3, 2)
    assert np.array_equal(mesh.tet_dofs, mesh.tets)
    assert mesh.tet_dofs is mesh.tets
    periodic = SpaceTimeMesh(3, 2, bc="periodic")
    assert not np.shares_memory(periodic.tet_dofs, periodic.tets)
    assert periodic.tet_dofs.max() < periodic.n_dofs


@pytest.mark.parametrize("bc,nx,nt", OPERATOR_MESHES)
def test_divergence_operators_are_adjoint_to_the_gradient(bc, nx, nt):
    mesh = SpaceTimeMesh(nx, nt, bc=bc)
    rng = np.random.default_rng(nx * 10 + nt)
    phi = rng.standard_normal(mesh.n_dofs)
    rho = rng.standard_normal(mesh.n_tets)
    m = rng.standard_normal((mesh.n_tets, 2))
    v = mesh.tet_volume
    lhs = phi @ mesh.divergence(rho, m)
    g_t, g_m = mesh.gradient(phi)
    rhs = v * (g_t @ rho + np.sum(g_m * m))
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))


@pytest.mark.parametrize("bc,nx,nt", OPERATOR_MESHES + [("neumann", 8, 4), ("periodic", 8, 4)])
def test_operators_match_the_csr_divergence(bc, nx, nt):
    # the gradient is the same arithmetic as the CSR transposes, bit for
    # bit; the divergence sums in another order, to rounding level
    mesh = SpaceTimeMesh(nx, nt, bc=bc)
    bt, bm = _csr_divergence(mesh)
    rng = np.random.default_rng(nx * 10 + nt)
    phi = rng.standard_normal(mesh.n_dofs)
    g_t, g_m = mesh.gradient(phi)
    assert np.array_equal(g_t, bt.T @ phi)
    assert np.array_equal(g_m, (bm.T @ phi).reshape(-1, 2))
    rho = rng.standard_normal(mesh.n_tets)
    m = rng.standard_normal((mesh.n_tets, 2))
    v = mesh.tet_volume
    expect = bt @ (v * rho) + bm @ (v * m.ravel())
    got = mesh.divergence(rho, m)
    assert np.max(np.abs(got - expect)) <= 1e-15 * np.max(np.abs(expect))


@pytest.mark.parametrize("bc", ["neumann", "periodic"])
def test_prisms_order_matches_tets(bc):
    # the layout prisms states, checked against the vertex table alone:
    # view[k, t, p] lies between time slices k and k+1 over triangle t
    mesh = SpaceTimeMesh(3, 4, bc=bc)
    pslice = (mesh.nx + 1) ** 2
    ntris = mesh.spatial_tris.shape[0]
    e = np.arange(mesh.n_tets)
    view = mesh.prisms(e)
    assert view.shape == (mesh.nt, ntris, 3)
    assert np.shares_memory(view, e)
    verts = mesh.tets[view]
    slab = np.arange(mesh.nt)[:, None, None]
    assert np.all(verts.min(axis=-1) // pslice == slab)
    assert np.all(verts.max(axis=-1) // pslice == slab + 1)
    # the spatial vertices are those of the triangle, each one present
    match = (verts % pslice)[..., :, None] == mesh.spatial_tris[None, :, None, None, :]
    assert match.any(axis=-1).all()
    assert match.any(axis=-2).all()
    # trailing axes are kept: the momentum's components
    m = np.zeros((mesh.n_tets, 2))
    assert mesh.prisms(m).shape == (mesh.nt, ntris, 3, 2)
