"""Space-time finite elements on the cylinder [0,1] x (0,1)^2.

Coordinates are ordered (t, x, y).  The spatial unit square is divided
into nx*nx cells and each cell into two triangles by the diagonal that
leaves the cell corner with the smallest (x, y).  Extruding a triangle
over one time interval gives a prism, which is split into three
tetrahedra by the Kuhn rule keyed on global vertex indices; because the
diagonal chosen on every quadrilateral prism face depends only on the
indices of the shared edge, the resulting tetrahedral mesh is
conforming.

Two element spaces are used throughout:

* P0 fields carry one value per tetrahedron (densities, momentum),
* P1 fields carry one value per vertex degree of freedom (potentials,
  source intensities).

With Neumann boundaries every grid vertex is a degree of freedom.  With
periodic boundaries, vertices on opposite sides of the square are
identified: the geometric grid keeps (nx+1)^2 points per time slice but
only nx^2 of them are independent.

Vertex indexing is time major: vertex (k, i, j) of the geometric grid,
with i the x index and j the y index, has global number
k*(nx+1)^2 + j*(nx+1) + i.  Degrees of freedom follow the same layout
with the per-slice count reduced under identification, so the slice of
a P1 field at time node k is the contiguous block [k*nsp, (k+1)*nsp).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

BOUNDARY_CONDITIONS = ("neumann", "periodic")

# P0 fields are plain float arrays of length mesh.n_tets, P1 fields of
# length mesh.n_dofs.  No wrapper class: shapes are part of the API.


@dataclass
class State:
    """One point of the optimization space.

    rho : (n_tets,) density, piecewise constant per tetrahedron
    m   : (n_tets, 2) spatial momentum, piecewise constant
    z   : (n_dofs,) source intensity, continuous piecewise linear
    """

    rho: np.ndarray
    m: np.ndarray
    z: np.ndarray

    def copy(self):
        return State(self.rho.copy(), self.m.copy(), self.z.copy())


class SpaceTimeMesh:
    """Conforming tetrahedral mesh of [0,1] x (0,1)^2.

    Parameters
    ----------
    nx : int
        Number of cells per spatial axis, at least 2.
    nt : int
        Number of time intervals, at least 2.
    bc : str
        Spatial boundary treatment, "neumann" or "periodic".

    Attributes
    ----------
    vertices : (n_verts_geom, 3) float
        Geometric vertex coordinates (t, x, y).
    tets : (n_tets, 4) int
        Geometric vertex numbers of each tetrahedron, oriented so the
        signed volume is positive.
    tet_dofs : (n_tets, 4) int
        Degree-of-freedom numbers of the tetrahedron vertices.
    volumes : (n_tets,) float
        Tetrahedron volumes (all positive).
    basis_grad : (n_tets, 3, 4) float
        Constant gradients of the four P1 hat functions per element,
        components ordered (t, x, y).
    tet_slab : (n_tets,) int
        Time interval each tetrahedron belongs to.
    tet_tri : (n_tets,) int
        Spatial triangle each tetrahedron projects onto.
    spatial_tris : (2*nx*nx, 3) int
        Per-slice spatial triangles (slice-local geometric numbering);
        cell (i, j) owns triangles 2*(j*nx+i) and 2*(j*nx+i)+1.
    tri_sdofs : (2*nx*nx, 3) int
        Spatial degrees of freedom of each spatial triangle.
    """

    def __init__(self, nx, nt, bc="neumann"):
        if nx < 2:
            raise ValueError(f"nx must be at least 2, got {nx}")
        if nt < 2:
            raise ValueError(f"nt must be at least 2, got {nt}")
        if bc not in BOUNDARY_CONDITIONS:
            raise ValueError(f"bc must be one of {BOUNDARY_CONDITIONS}, got {bc!r}")
        self.nx = int(nx)
        self.nt = int(nt)
        self.bc = bc
        self.hx = 1.0 / nx
        self.ht = 1.0 / nt

        npt = nx + 1
        pslice = npt * npt
        kk, jj, ii = np.meshgrid(
            np.arange(nt + 1), np.arange(npt), np.arange(npt), indexing="ij"
        )
        self.vertices = np.column_stack(
            [
                kk.ravel() * self.ht,
                ii.ravel() * self.hx,
                jj.ravel() * self.hx,
            ]
        )

        # spatial triangulation; the split diagonal runs from the cell
        # corner (i, j) to (i+1, j+1), the lexicographically smallest
        # corner having the smallest slice-local index
        ci, cj = np.meshgrid(np.arange(nx), np.arange(nx), indexing="xy")
        ci = ci.ravel()
        cj = cj.ravel()
        v00 = cj * npt + ci
        v10 = v00 + 1
        v01 = v00 + npt
        v11 = v01 + 1
        ntris = 2 * nx * nx
        tris = np.empty((ntris, 3), dtype=np.int64)
        tris[0::2] = np.column_stack([v00, v10, v11])
        tris[1::2] = np.column_stack([v00, v11, v01])
        self.spatial_tris = tris
        self.tri_area = 0.5 * self.hx * self.hx

        # prism split: sort the base triangle by global (equivalently
        # slice-local) index, copy it to the two bounding slices and cut
        # along the path a -> b -> c -> top
        srt = np.sort(tris, axis=1)
        a, b, c = srt[:, 0], srt[:, 1], srt[:, 2]
        base = (np.arange(nt, dtype=np.int64) * pslice)[:, None]
        tets = np.empty((nt, ntris, 3, 4), dtype=np.int64)
        tets[:, :, 0, 0] = a + base
        tets[:, :, 0, 1] = b + base
        tets[:, :, 0, 2] = c + base
        tets[:, :, 0, 3] = c + base + pslice
        tets[:, :, 1, 0] = a + base
        tets[:, :, 1, 1] = b + base
        tets[:, :, 1, 2] = b + base + pslice
        tets[:, :, 1, 3] = c + base + pslice
        tets[:, :, 2, 0] = a + base
        tets[:, :, 2, 1] = a + base + pslice
        tets[:, :, 2, 2] = b + base + pslice
        tets[:, :, 2, 3] = c + base + pslice
        self.tets = tets.reshape(-1, 4)
        self.n_tets = self.tets.shape[0]

        self.tet_slab = np.repeat(np.arange(nt), 3 * ntris)
        self.tet_tri = np.tile(np.repeat(np.arange(ntris), 3), nt)

        # orientation fix, then element geometry
        coords = self.vertices[self.tets]
        edges = coords[:, 1:] - coords[:, :1]
        det = np.linalg.det(edges)
        flip = det < 0
        if np.any(flip):
            self.tets[flip, 2], self.tets[flip, 3] = (
                self.tets[flip, 3].copy(),
                self.tets[flip, 2].copy(),
            )
            coords = self.vertices[self.tets]
            edges = coords[:, 1:] - coords[:, :1]
            det = np.linalg.det(edges)
        self.volumes = det / 6.0

        inv = np.linalg.inv(edges)
        grad = np.empty((self.n_tets, 3, 4))
        grad[:, :, 1:] = inv
        grad[:, :, 0] = -inv.sum(axis=2)
        self.basis_grad = grad

        # degrees of freedom
        if bc == "neumann":
            self.nsp = pslice
            sdof = np.arange(pslice, dtype=np.int64)
        else:
            self.nsp = nx * nx
            gi, gj = np.meshgrid(np.arange(npt), np.arange(npt), indexing="xy")
            sdof = ((gj.ravel() % nx) * nx + (gi.ravel() % nx)).astype(np.int64)
        self._sdof = sdof
        self.n_dofs = self.nsp * (nt + 1)
        slab_of_vert, local = np.divmod(self.tets, pslice)
        self.tet_dofs = slab_of_vert * self.nsp + sdof[local]
        self.tri_sdofs = sdof[tris]

        self._slice_w = np.bincount(
            self.tri_sdofs.ravel(),
            weights=np.full(3 * ntris, self.tri_area / 3.0),
            minlength=self.nsp,
        )

        self._grad_mats = None
        self._stiffness = None
        self._lumped = None

    # -- assembled operators -------------------------------------------------

    def gradient_matrices(self):
        """Sparse maps from P1 dof vectors to per-tet gradient components.

        Returns (Gt, Gx, Gy), each of shape (n_tets, n_dofs), so that
        Gc @ phi is the c-component of the elementwise gradient.
        """
        if self._grad_mats is None:
            rows = np.repeat(np.arange(self.n_tets), 4)
            cols = self.tet_dofs.ravel()
            mats = []
            for comp in range(3):
                g = sp.coo_matrix(
                    (self.basis_grad[:, comp, :].ravel(), (rows, cols)),
                    shape=(self.n_tets, self.n_dofs),
                )
                mats.append(g.tocsr())
            self._grad_mats = tuple(mats)
        return self._grad_mats

    def stiffness_matrix(self):
        """P1 stiffness matrix for the full space-time gradient."""
        if self._stiffness is None:
            gt, gx, gy = self.gradient_matrices()
            k = None
            for g in (gt, gx, gy):
                part = g.T @ g.multiply(self.volumes[:, None])
                k = part if k is None else k + part
            self._stiffness = 0.5 * (k + k.T)
        return self._stiffness

    def lumped_mass(self):
        """Integral of each hat function, the nodal weights ell.

        Exact: a hat function integrates to a quarter of the volume of
        every tetrahedron that carries it.
        """
        if self._lumped is None:
            self._lumped = np.bincount(
                self.tet_dofs.ravel(),
                weights=np.repeat(self.volumes / 4.0, 4),
                minlength=self.n_dofs,
            )
        return self._lumped

    # -- slice helpers --------------------------------------------------------

    def slice_dofs(self, k):
        """Degree-of-freedom numbers of time slice k, contiguous."""
        self._check_slice(k)
        return np.arange(k * self.nsp, (k + 1) * self.nsp)

    def slice_load(self, density):
        """Integrals of the spatial hat functions against a P0 density.

        density has one value per spatial triangle; the result has one
        value per spatial degree of freedom and sums to the total mass
        of the density.
        """
        density = np.asarray(density, dtype=float)
        if density.shape != (self.spatial_tris.shape[0],):
            raise ValueError(
                f"expected {self.spatial_tris.shape[0]} triangle values, "
                f"got shape {density.shape}"
            )
        return np.bincount(
            self.tri_sdofs.ravel(),
            weights=np.repeat(density * (self.tri_area / 3.0), 3),
            minlength=self.nsp,
        )

    def time_weights(self):
        """Lumped quadrature weights over the time nodes (trapezoid)."""
        w = np.full(self.nt + 1, self.ht)
        w[0] = 0.5 * self.ht
        w[-1] = 0.5 * self.ht
        return w

    def _check_slice(self, k):
        if not 0 <= k <= self.nt:
            raise ValueError(f"slice index {k} outside [0, {self.nt}]")


def build_mesh(nx, nt, bc="neumann"):
    """Construct a SpaceTimeMesh; see the class for conventions."""
    return SpaceTimeMesh(nx, nt, bc)


def gradient_p1(mesh, phi):
    """Per-element gradient of a P1 field, shape (n_tets, 3).

    Exact for the interpolant: affine fields reproduce their constant
    gradient on every element.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (mesh.n_dofs,):
        raise ValueError(f"expected {mesh.n_dofs} nodal values, got {phi.shape}")
    gt, gx, gy = mesh.gradient_matrices()
    return np.column_stack([gt @ phi, gx @ phi, gy @ phi])


def spatial_slice_weights(mesh, k):
    """Nodal quadrature weights of time slice k.

    The weights integrate spatial P1 functions exactly:
    sum_i w_i psi_i = integral of psi over the unit square.
    """
    mesh._check_slice(k)
    return mesh._slice_w.copy()
