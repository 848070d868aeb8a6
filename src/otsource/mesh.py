"""Space-time finite elements on the cylinder [0,1] x (0,1)^2.

Coordinates are ordered (t, x, y).  The spatial unit square is divided
into nx*nx cells and each cell into two triangles by the diagonal that
leaves the cell corner with the smallest (x, y).  Extruding a triangle
over one time interval gives a prism, which is split into three
tetrahedra by the Kuhn rule keyed on global vertex indices; because the
diagonal chosen on every quadrilateral prism face depends only on the
indices of the shared edge, the resulting tetrahedral mesh is
conforming.  The element geometry is closed form: every tetrahedron has
the same volume, tet_volume = hx^2 ht / 6, and the path through its
four vertices steps once along each axis, so each gradient component of
a P1 field is one difference of two nodal values over the grid spacing.

The mesh assembles these differences once, as the two sparse
divergence operators of divergence_operators in the layout of State:
Bt acts on a P0 field and Bm on the (n_tets, 2) momentum raveled in
place.  Their transposes, kept as views of the same arrays, are the
gradient, and the mesh holds no other copy of it: the stiffness matrix
is v (Bt Bt^T + Bm Bm^T) with v the element volume.

Tetrahedra are numbered slab by slab, triangle by triangle: element
e = (k * ntris + t) * 3 + p is Kuhn piece p of the prism over spatial
triangle t in time slab k.  prisms(p0) views a P0 field in that
(nt, ntris, 3) layout; code that needs an element's slab or triangle
reads it from that view.

Two element spaces are used throughout:

* P0 fields carry one value per tetrahedron (densities, momentum),
* P1 fields carry one value per vertex degree of freedom (potentials,
  source intensities).

With Neumann boundaries every grid vertex is a degree of freedom.  With
periodic boundaries, vertices on opposite sides of the square are
identified: the geometric grid keeps (nx+1)^2 points per time slice but
only nx^2 of them are independent.

Vertex indexing is time major: vertex (k, i, j) of the geometric grid,
with i the x index and j the y index, sits at (k*ht, i*hx, j*hx) and
has global number k*(nx+1)^2 + j*(nx+1) + i.  Degrees of freedom
follow the same layout with the per-slice count reduced under
identification, so the slice of a P1 field at time node k is the
contiguous block [k*nsp, (k+1)*nsp).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# spatial boundary treatments; the first is the default of SpaceTimeMesh
# and of SolverConfig
BOUNDARY_CONDITIONS = ("neumann", "periodic")

# Kuhn paths through the prism over a base triangle with sorted corners
# a < b < c: entry [p, i] = (corner, dt) says that vertex i of piece p is
# corner a, b or c of the base in time slice k + dt of slab k.
KUHN_PATHS = np.array([
    [(0, 0), (1, 0), (2, 0), (2, 1)],  # a -> b -> c -> c'
    [(0, 0), (1, 0), (1, 1), (2, 1)],  # a -> b -> b' -> c'
    [(0, 0), (0, 1), (1, 1), (2, 1)],  # a -> a' -> b' -> c'
])
KUHN_PATHS.flags.writeable = False

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


class SpaceTimeMesh:
    """Conforming tetrahedral mesh of [0,1] x (0,1)^2.

    The P1 gradient is assembled once, on first use, as
    divergence_operators; stiffness_matrix and the projection read it.
    The element volume is one scalar, and an element's time slab and
    spatial triangle are axes of prisms, not stored index arrays.

    Parameters
    ----------
    nx : int
        Number of cells per spatial axis, at least 2.
    nt : int
        Number of time intervals, at least 2.
    bc : str
        Spatial boundary treatment, one of BOUNDARY_CONDITIONS: "neumann"
        (the default) or "periodic".

    Attributes
    ----------
    tets : (n_tets, 4) int
        Geometric vertex numbers of each tetrahedron in Kuhn path order:
        consecutive vertices differ by one grid step along one axis,
        stride 1 for x, nx+1 for y and (nx+1)^2 for t.  The orientation
        (the sign of the volume spanned) is not fixed.
    tet_dofs : (n_tets, 4) int
        Degree-of-freedom numbers of the tetrahedron vertices.  With
        Neumann boundaries every vertex is its own dof and this is the
        tets array itself, shared, not a copy: treat both as read-only.
    tet_volume : float
        The volume hx^2 ht / 6 shared by every tetrahedron.
    spatial_tris : (2*nx*nx, 3) int
        Per-slice spatial triangles (slice-local geometric numbering);
        cell (i, j) owns triangles 2*(j*nx+i) and 2*(j*nx+i)+1.
    tri_sdofs : (2*nx*nx, 3) int
        Spatial degrees of freedom of each spatial triangle.
    slice_weights : (nsp,) float, read-only
        Nodal quadrature weights of a time slice, the same on every
        slice: sum_i w_i psi_i is the integral of a spatial P1 function
        psi over the unit square.
    """

    def __init__(self, nx, nt, bc=BOUNDARY_CONDITIONS[0]):
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
        # slice-local) index and cut along the three Kuhn paths
        corner, dt = KUHN_PATHS[..., 0], KUHN_PATHS[..., 1]
        slab = np.arange(nt, dtype=np.int64)[:, None, None, None]
        srt = np.sort(tris, axis=1)
        self.tets = (srt[:, corner] + (slab + dt) * pslice).reshape(-1, 4)
        self.n_tets = self.tets.shape[0]

        # each prism of volume tri_area * ht splits into three tetrahedra
        # of equal volume
        self.tet_volume = self.tri_area * self.ht / 3.0

        # degrees of freedom
        if bc == "neumann":
            self.nsp = pslice
            sdof = np.arange(pslice, dtype=np.int64)
            self.tet_dofs = self.tets
        else:
            self.nsp = nx * nx
            gi, gj = np.meshgrid(np.arange(npt), np.arange(npt), indexing="xy")
            sdof = ((gj.ravel() % nx) * nx + (gi.ravel() % nx)).astype(np.int64)
            slab_of_vert, local = np.divmod(self.tets, pslice)
            self.tet_dofs = slab_of_vert * self.nsp + sdof[local]
        self.n_dofs = self.nsp * (nt + 1)
        self.tri_sdofs = sdof[tris]

        self.slice_weights = self.slice_load(np.ones(ntris))
        self.slice_weights.flags.writeable = False

        self._divergence = None
        self._lumped = None

    # -- assembled operators -------------------------------------------------

    def divergence_operators(self):
        """Sparse divergence and gradient in the layout of State, built once.

        Returns (bt, bm, grad_t, grad_m).  bt, of shape (n_dofs, n_tets),
        and bm, of shape (n_dofs, 2 n_tets), are CSR; the columns of bm
        interleave the x and y components, so bm acts on m.ravel() of
        an (n_tets, 2) momentum.  grad_t = bt.T and grad_m = bm.T are
        transposed views of the same arrays: grad_t @ phi is the time
        component of the elementwise gradient and
        (grad_m @ phi).reshape(n_tets, 2) the spatial one.  Together
        they hold 6 n_tets nonzeros, two per gradient component of each
        tetrahedron: -1/h at the dof before its step along that axis and
        +1/h at the dof after.  This is the mesh's one assembled
        gradient; stiffness_matrix is built from it.
        """
        if self._divergence is None:
            self._divergence = self._build_divergence_operators()
        return self._divergence

    def _build_divergence_operators(self):
        # the Kuhn path of every tetrahedron steps once along each axis,
        # by stride (nx+1)^2 in t, 1 in x and nx+1 in y; ends are the dofs
        # before and after that step
        npt = self.nx + 1
        steps = np.diff(self.tets, axis=1)
        ends_t, ends_x, ends_y = (
            np.take_along_axis(
                self.tet_dofs,
                np.argmax(steps == stride, axis=1)[:, None] + [0, 1],
                axis=1,
            )
            for stride in (npt * npt, 1, npt)
        )
        bt = _step_differences(ends_t, self.ht, self.n_dofs).tocsr()
        ends_m = np.stack([ends_x, ends_y], axis=1).reshape(-1, 2)
        bm = _step_differences(ends_m, self.hx, self.n_dofs).tocsr()
        return bt, bm, bt.T, bm.T

    def stiffness_matrix(self):
        """P1 stiffness matrix for the full space-time gradient, CSR.

        v (Bt Bt^T + Bm Bm^T) with v the element volume and Bt, Bm the
        divergence_operators; built on every call (SparseSystem.matrix
        keeps its own copy).  Exactly symmetric as assembled: each
        entry of one product sums identical terms (1/h^2 on the
        diagonal, -1/h^2 off it), so (i, j) and (j, i) round alike in
        any summation order.
        """
        bt, bm, grad_t, grad_m = self.divergence_operators()
        return self.tet_volume * (bt @ grad_t + bm @ grad_m)

    def lumped_mass(self):
        """Integral of each hat function, the nodal weights ell.

        Exact: a hat function integrates to a quarter of the volume of
        every tetrahedron that carries it.
        """
        if self._lumped is None:
            self._lumped = np.bincount(
                self.tet_dofs.ravel(),
                weights=np.full(4 * self.n_tets, self.tet_volume / 4.0),
                minlength=self.n_dofs,
            )
        return self._lumped

    def prisms(self, p0):
        """The (nt, ntris, 3, ...) view of a P0 field.

        Index [k, t, p] is tetrahedron e = (k * ntris + t) * 3 + p, Kuhn
        piece p of the prism over spatial triangle t in time slab k;
        trailing axes, such as the momentum's two components, are kept.
        A reshape, so writing to the view writes to p0.
        """
        return p0.reshape(self.nt, self.spatial_tris.shape[0], 3, *p0.shape[1:])

    # -- slice helpers --------------------------------------------------------

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


def _step_differences(ends, h, n_dofs):
    """Transpose of the map from P1 values to the steps' differences.

    A CSC matrix of shape (n_dofs, len(ends)) whose column e holds -1/h
    at dof ends[e, 0] and +1/h at dof ends[e, 1].
    """
    n = ends.shape[0]
    return sp.csc_matrix(
        (np.tile([-1.0 / h, 1.0 / h], n), ends.ravel(), np.arange(0, 2 * n + 1, 2)),
        shape=(n_dofs, n),
    )
