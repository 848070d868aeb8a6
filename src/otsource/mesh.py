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

The projection's divergence B = D S and its adjoint, the gradient,
are index arrays (step_edges): S picks, per element and axis, the grid
edge its step runs along, and D differences the ends of each grid edge
over the spacing.  A run builds no sparse matrix.

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

import numbers
from dataclasses import dataclass

import numpy as np

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

    gradient, divergence and edge_weights read the step_edges, built on
    first use.  The element volume is one scalar, and an element's time
    slab and spatial triangle are axes of prisms, not stored index arrays.

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
        for name, value in (("nx", nx), ("nt", nt)):
            # a float count would build int(value) cells of width 1/value,
            # a mesh that stops short of the unit interval
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 2:
                raise ValueError(f"{name} must be at least 2, got {value}")
        if bc not in BOUNDARY_CONDITIONS:
            raise ValueError(f"bc must be one of {BOUNDARY_CONDITIONS}, got {bc!r}")
        self.nx = nx = int(nx)
        self.nt = nt = int(nt)
        self.bc = bc
        self.hx = 1.0 / nx
        self.ht = 1.0 / nt

        npt = nx + 1
        pslice = npt * npt

        # spatial triangulation; the split diagonal runs from the cell
        # corner (i, j) to (i+1, j+1), the lexicographically smallest
        # corner having the smallest slice-local index
        cj, ci = np.divmod(np.arange(nx * nx), nx)
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

        self._inv_h = 1.0 / np.array([self.ht, self.hx, self.hx])
        self._steps = None
        self._lumped = None

    # -- the projection's operators ------------------------------------------

    def step_edges(self):
        """S and D as index arrays (edge_t, edge_m, ahead), built once.

        Grid edges along t, x and y are numbered by the dof they start
        at plus 0, n_dofs and 2 n_dofs.  edge_t and edge_m name each
        element's steps in the layouts of rho and m; edge ahead[i]
        starts where edge i ends.
        """
        if self._steps is None:
            self._steps = self._build_step_edges()
        return self._steps

    def _build_step_edges(self):
        # the step along t leaves the path's last vertex at dt = 0, a -> b
        # its last at corner a, b -> c its last at b; a -> b runs along x
        # in a cell's first triangle (00, 10, 11), along y in (00, 01, 11)
        corner, dt = KUHN_PATHS[..., 0], KUHN_PATHS[..., 1]
        at_t, at_ab, at_bc = (s.sum(axis=1) - 1 for s in (dt == 0, corner == 0, corner <= 1))
        dofs = self.tet_dofs.reshape(self.nt, -1, 2, 3, 4)
        tri, piece = np.ogrid[:2, :3]

        def starts(at, axis):
            edges = dofs[:, :, tri, piece, at].ravel() + axis * self.n_dofs
            return edges.astype(np.intp, copy=False)

        edge_m = np.column_stack([starts([at_ab, at_bc], 1), starts([at_bc, at_ab], 2)])
        # cyclic: on a periodic axis that is the identification, and on
        # the others no step starts at the last node
        ns = self.nx + 1 if self.bc == "neumann" else self.nx
        grid = np.arange(3 * self.n_dofs, dtype=np.intp).reshape(3, self.nt + 1, ns, ns)
        ahead = np.concatenate([np.roll(g, -1, axis).ravel() for g, axis in zip(grid, (0, 2, 1))])
        return starts(at_t, 0), edge_m, ahead

    def gradient(self, phi):
        """B^T phi: the (t, x, y) gradient in the layouts of rho and m.

        The differences of phi / h along the grid edges (D), read at
        the step_edges (S); (n_tets,) and (n_tets, 2) arrays.
        """
        edge_t, edge_m, ahead = self.step_edges()
        u = np.multiply.outer(self._inv_h, phi).ravel()
        d = u[ahead] - u
        return d[edge_t], d[edge_m]

    def divergence(self, rho, m):
        """B (v rho, v m): the flux paired with every hat's gradient.

        The flux summed onto its step_edges (S^T), times v / h (v the
        element volume), then the adjoint differences (D^T).
        """
        edge_t, edge_m, ahead = self.step_edges()
        n = self.n_dofs
        f = np.bincount(edge_m.ravel(), m.ravel(), minlength=3 * n)
        f[:n] = np.bincount(edge_t, rho, minlength=n)
        f.reshape(3, n)[...] *= (self.tet_volume * self._inv_h)[:, None]
        return (np.bincount(ahead, f, minlength=3 * n) - f).reshape(3, n).sum(axis=0)

    def edge_weights(self):
        """v c / h^2 per grid edge, laid out like divergence's flux.

        c counts the elements whose Kuhn path steps along the edge, 0 on
        the cyclic edges past a Neumann side or a time end.
        """
        edge_t, edge_m, _ = self.step_edges()
        counts = np.bincount(edge_m.ravel(), minlength=3 * self.n_dofs).reshape(3, -1)
        counts[0] += np.bincount(edge_t, minlength=self.n_dofs)
        return (counts * (self.tet_volume * self._inv_h**2)[:, None]).ravel()

    def stiffness_matrix(self):
        """P1 space-time stiffness matrix D^T diag(edge_weights()) D, CSR.

        D differences the two ends of each grid edge.  Built on every
        call; exactly symmetric, as D holds only -1 and +1.
        """
        import scipy.sparse as sp  # here: a run builds no sparse matrix

        _, _, ahead = self.step_edges()
        n, edges = self.n_dofs, np.arange(3 * self.n_dofs)
        ends = (np.r_[edges, edges], np.r_[edges, ahead] % n)
        d = sp.csr_matrix((np.repeat([-1.0, 1.0], 3 * n), ends), shape=(3 * n, n))
        return (d.T @ sp.diags(self.edge_weights()) @ d).tocsr()

    def lumped_mass(self):
        """Integral of each hat function, the nodal weights ell.

        Exact: a hat function integrates to a quarter of the volume of
        every tetrahedron that carries it.
        """
        if self._lumped is None:
            count = np.bincount(self.tet_dofs.ravel(), minlength=self.n_dofs)
            self._lumped = count * (self.tet_volume / 4.0)
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
        ntris = self.spatial_tris.shape[0]
        if density.shape != (ntris,):
            raise ValueError(f"expected {ntris} triangle values, got shape {density.shape}")
        weights = np.repeat(density * (self.tri_area / 3.0), 3)
        return np.bincount(self.tri_sdofs.ravel(), weights, minlength=self.nsp)

    def time_weights(self):
        """Lumped quadrature weights over the time nodes (trapezoid)."""
        w = np.full(self.nt + 1, self.ht)
        w[[0, -1]] = 0.5 * self.ht
        return w

