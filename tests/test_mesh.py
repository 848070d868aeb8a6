import numpy as np
import pytest

from otsource.diagnostics import source_energy
from otsource.mesh import SpaceTimeMesh, build_mesh, gradient_p1, spatial_slice_weights
from otsource.prox import SourceModel


def test_counts_small():
    mesh = build_mesh(2, 2)
    assert mesh.n_tets == 48
    assert mesh.n_dofs == 27
    assert mesh.nsp == 9


def test_counts_rectangular():
    mesh = build_mesh(4, 3)
    assert mesh.n_tets == 6 * 16 * 3
    assert mesh.n_dofs == 25 * 4


def test_counts_periodic():
    mesh = build_mesh(2, 2, bc="periodic")
    assert mesh.n_tets == 48
    assert mesh.nsp == 4
    assert mesh.n_dofs == 4 * 3


def test_volumes_positive_and_sum_to_one():
    for bc in ("neumann", "periodic"):
        mesh = build_mesh(3, 2, bc=bc)
        assert np.all(mesh.volumes > 0)
        assert abs(mesh.volumes.sum() - 1.0) < 1e-13


def test_bad_args_rejected():
    with pytest.raises(ValueError):
        build_mesh(1, 2)
    with pytest.raises(ValueError):
        build_mesh(2, 0)
    with pytest.raises(ValueError):
        build_mesh(2, 2, bc="dirichlet")


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
    mesh = build_mesh(3, 2)
    verts = mesh.vertices
    for facet, cnt in _facet_counts(mesh).items():
        assert cnt in (1, 2)
        if cnt == 1:
            pts = verts[list(facet)]
            on_box = False
            for axis, lo, hi in ((0, 0.0, 1.0), (1, 0.0, 1.0), (2, 0.0, 1.0)):
                if np.allclose(pts[:, axis], lo) or np.allclose(pts[:, axis], hi):
                    on_box = True
            assert on_box, f"interior facet {facet} owned by one tet"


def test_facet_conformity_periodic_geometry_unchanged():
    # periodic identification only remaps dofs; the geometric mesh is identical
    a = build_mesh(2, 2)
    b = build_mesh(2, 2, bc="periodic")
    assert np.array_equal(a.tets, b.tets)
    assert np.allclose(a.vertices, b.vertices)


def test_gradient_exact_for_affine():
    mesh = build_mesh(3, 3)
    t, x, y = mesh.vertices[:, 0], mesh.vertices[:, 1], mesh.vertices[:, 2]
    phi = 0.7 - 1.3 * t + 0.4 * x + 2.2 * y
    gt, gx, gy = gradient_p1(mesh, phi).T
    assert np.allclose(gt, -1.3, atol=1e-13)
    assert np.allclose(gx, 0.4, atol=1e-13)
    assert np.allclose(gy, 2.2, atol=1e-13)


def test_gradient_of_time_coordinate():
    mesh = build_mesh(2, 4)
    g = gradient_p1(mesh, mesh.vertices[:, 0])
    assert np.allclose(g[:, 0], 1.0, atol=1e-14)
    assert np.allclose(g[:, 1:], 0.0, atol=1e-14)


def test_slice_weights_partition():
    mesh = build_mesh(2, 2)
    w = spatial_slice_weights(mesh, 0)
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
    mesh = build_mesh(4, 2)
    expect = _lumped_p1_area_weights(4)
    for k in (0, 1, 2):
        assert np.allclose(spatial_slice_weights(mesh, k), expect, atol=1e-14)


def test_slice_load_constant_density():
    mesh = build_mesh(3, 2)
    dens = np.ones(2 * 9)
    load = mesh.slice_load(dens)
    assert abs(load.sum() - 1.0) < 1e-13


def test_time_weights_trapezoid():
    mesh = build_mesh(2, 4)
    tw = mesh.time_weights()
    assert tw.shape == (5,)
    assert abs(tw.sum() - 1.0) < 1e-14
    assert np.allclose(tw, [0.125, 0.25, 0.25, 0.25, 0.125])


def test_lumped_mass_is_row_sum():
    # ell_i = <hat_i, 1> in the exact L2 pairing, which the l2l2 source
    # energy evaluates: <u, v> = (E(u + v) - E(u - v)) / 4 at delta = 1
    mesh = build_mesh(2, 3)
    ell = mesh.lumped_mass()
    one = np.ones(mesh.n_dofs)

    def energy(u):
        return source_energy(u, SourceModel("l2l2"), 1.0, mesh)

    rows = [(energy(e + one) - energy(e - one)) / 4.0 for e in np.eye(mesh.n_dofs)]
    assert np.allclose(ell, rows, rtol=0.0, atol=1e-14)
    # and it integrates affine fields exactly
    t, x, y = mesh.vertices[:, 0], mesh.vertices[:, 1], mesh.vertices[:, 2]
    assert abs(ell.sum() - 1.0) < 1e-13
    assert abs(ell @ t - 0.5) < 1e-13
    assert abs(ell @ x - 0.5) < 1e-13
    assert abs(ell @ (1.0 + 2.0 * t - 3.0 * x + y) - 1.0) < 1e-13


def test_stiffness_annihilates_constants():
    for bc in ("neumann", "periodic"):
        mesh = build_mesh(3, 2, bc=bc)
        K = mesh.stiffness_matrix()
        r = K @ np.ones(mesh.n_dofs)
        assert np.max(np.abs(r)) < 1e-14


def test_slice_dofs_shape_and_range():
    mesh = build_mesh(3, 2)
    for k in range(3):
        d = mesh.slice_dofs(k)
        assert d.shape == (mesh.nsp,)
        assert d.min() >= 0 and d.max() < mesh.n_dofs
    # slices tile the dof set
    stacked = np.concatenate([mesh.slice_dofs(k) for k in range(3)])
    assert len(np.unique(stacked)) == mesh.n_dofs
