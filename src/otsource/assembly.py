"""Weak continuity constraint: assembly and projection.

A state (rho, m, z) satisfies the discrete continuity equation when

    II( rho d_t psi + m . grad psi + z psi ) dx dt
        = I psi(1) u_B dx - I psi(0) u_A dx          for all P1 psi,

with no-flux (or periodic) spatial boundaries built into the test
space.  The zero-order pairing (z, psi) is evaluated with the vertex
quadrature rule, i.e. the diagonal of nodal integrals ell_i = I hat_i:
the discrete weighted norm is then a plain weighted l2 norm of the
coefficients with weights (vol, vol, ell/delta), and the slicewise
source proximal maps are exact in the same geometry the projection
uses.  (With the consistent mass pairing instead, the two proximal
operators of the splitting live in different inner products and its
fixed-point residual stalls at the quadrature gap.)

Projecting a state onto the constraint set in that norm reduces to one
SPD solve

    ( 1/2 K + delta/2 diag(ell) ) phi = -defect(state)

followed by the explicit updates rho += grad_t phi / 2,
m += grad_xy phi / 2, z += delta phi / 2.  K is the space-time
stiffness matrix, exact for P1 integrands.

On the structured mesh that system is close to a tensor product P of
1-D P1 operators, K a 7-point stencil and ell a product of 1-D lumped
masses.  P is inverted exactly in the DCT-I basis in time and, in
space, the DCT-I basis for Neumann or the Fourier basis for periodic
boundaries.  With periodic boundaries P is the system itself; with
Neumann boundaries the two differ only on the edge nodes of the
space-time box, and a capacitance matrix on those nodes, built once per
system, turns two applications of P^(-1) into the exact solve.  No
iteration runs inside the projection.  cg_solve, preconditioned by
P^(-1), remains for checks against the assembled matrix.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .exceptions import NonConvergence
from .mesh import State


@dataclass
class BoundaryData:
    """Endpoint densities, one finite nonnegative value per spatial triangle."""

    ua: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        self.ua = np.asarray(self.ua, dtype=float)
        self.ub = np.asarray(self.ub, dtype=float)
        if self.ua.shape != self.ub.shape or self.ua.ndim != 1:
            raise ValueError("endpoint densities must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(self.ua)) and np.all(np.isfinite(self.ub))):
            raise ValueError("endpoint densities must be finite (no NaN or inf)")
        if np.any(self.ua < 0) or np.any(self.ub < 0):
            raise ValueError("endpoint densities must be nonnegative")


class SparseSystem:
    """The projection operator A = 1/2 K + delta/2 diag(ell), solved exactly.

    precond applies the inverse of the tensor-product model P of A (see
    SpectralPreconditioner).  A and P differ only on the edge nodes
    (see edge_nodes), so by the capacitance-matrix method of Buzbee,
    Dorr, George and Golub (SIAM J. Numer. Anal. 8, 1971) the exact
    inverse of A is P^(-1) corrected by one small dense matrix, built
    here once from W = (P^(-1))_EE (_model_inverse_on_edges) and
    C = (A - P)_EE (_edge_correction).  matrix, the assembled sparse A,
    is only built when read.
    """

    def __init__(self, mesh, delta):
        self.mesh = mesh
        self.delta = float(delta)
        self.precond = SpectralPreconditioner(mesh, delta)
        self.edges = edge_nodes(mesh)
        if self.edges.size:
            w = _model_inverse_on_edges(mesh, self.precond, self.edges)
            c = _edge_correction(mesh, delta, self.edges)
            # (I + C W)^(-1) C, the map from y_E to w in solve
            eye = np.eye(self.edges.size)
            self._capacitance = np.linalg.solve(eye + c @ w, c.toarray())

    @cached_property
    def matrix(self):
        """The assembled CSR matrix of A, built on first use."""
        a = 0.5 * self.mesh.stiffness_matrix()
        return (a + (0.5 * self.delta) * sp.diags(self.mesh.lumped_mass())).tocsr()

    def solve(self, f):
        """The solution x of A x = f, exact up to rounding.

        With y = P^(-1) f, U the columns of the identity at the edge
        nodes E, W = (P^(-1))_EE and C = (A - P)_EE, Woodbury's
        identity gives x = y - P^(-1) U w with w = (I + C W)^(-1) C y_E.
        """
        y = self.precond(f)
        if self.edges.size:
            u = np.zeros_like(y)
            u[self.edges] = self._capacitance @ y[self.edges]
            y -= self.precond(u)
        return y


def assemble_system(mesh, delta):
    """Build the projection operator 1/2 K + delta/2 diag(ell) for the mesh.

    The result is symmetric by construction (the defect max|A - A^T| is
    exactly zero) and positive definite for delta > 0.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return SparseSystem(mesh, delta)


def edge_nodes(mesh):
    """Nodes where the projection operator departs from its model.

    These are the nodes on the edges of the space-time box where a
    Neumann side of the square meets another side or an end of the time
    interval, that is, where two of the three grid indices sit at an
    end.  With periodic boundaries there are none.  The order is the
    perimeter of the first time slice, the perimeter of the last, then
    the four corners of each inner slice.
    """
    side = _side_points(mesh.nx)
    blocks = [
        (times[:, None] * mesh.nsp + side[points][None, :]).ravel()
        for times, points in _edge_blocks(mesh)
    ]
    return np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int64)


def _side_points(n):
    """Spatial dofs of the points on the four sides of the Neumann square.

    Sides 0 and 1 are y = 0 and y = 1 (free index x), sides 2 and 3 are
    x = 0 and x = 1 (free index y), each with its n+1 points in order,
    so every corner appears twice.
    """
    ns = n + 1
    x = np.arange(ns)
    return np.concatenate([x, n * ns + x, x * ns, x * ns + n])


def _edge_blocks(mesh):
    """The edge nodes as products (time indices) x (side points).

    The perimeter at both time ends, then the corners at the inner time
    nodes; side points index the list of _side_points, taking each
    corner from side 0 or 1.
    """
    if mesh.bc == "periodic":
        return []
    n, ns, nt = mesh.nx, mesh.nx + 1, mesh.nt
    perimeter = np.r_[0 : 2 * ns, 2 * ns + 1 : 3 * ns - 1, 3 * ns + 1 : 4 * ns - 1]
    corners = np.array([0, n, ns, ns + n])
    return [(np.array([0, nt]), perimeter), (np.arange(1, nt), corners)]


def _model_inverse_on_edges(mesh, precond, edges):
    """W = (P^(-1))_EE in closed form, in edge_nodes' order.

    W[e, f] = s_e s_f sum_a qt[k_e, a] qt[k_f, a] g[a, p_e, p_f], with
    s the diagonal scaling of P^(-1), k the time index and p the side
    point of a node and g the spatial part (_model_inverse_on_sides).
    It is built block by block of edge_nodes' products, so no array of
    size |E|^2 (nt+1) appears.
    """
    g = _model_inverse_on_sides(precond, mesh.nx)
    qt = precond.qt
    blocks = _edge_blocks(mesh)
    w = np.block(
        [
            [
                np.tensordot(qt[kr][:, None] * qt[kc][None], g[:, pr][:, :, pc], 1)
                .transpose(0, 2, 1, 3)
                .reshape(kr.size * pr.size, kc.size * pc.size)
                for kc, pc in blocks
            ]
            for kr, pr in blocks
        ]
    )
    scale = precond.scale[edges]
    return scale[:, None] * w * scale[None, :]


def _model_inverse_on_sides(precond, n):
    """Spatial part of P^(-1) between the points of the square's sides.

    Returns g of shape (nt+1, 4(n+1), 4(n+1)), indexed like
    _side_points, with g[a, p, q] = sum_bc qs[j_p, b] qs[i_p, c]
    qs[j_q, b] qs[i_q, c] / D[a, b, c] for the time eigenvalue a.  One
    index of each point sits at an end, so each block of two sides is a
    product qs X qs^T: diagonal X for parallel sides, a scaled D for
    perpendicular ones (D is symmetric in b and c).
    """
    qs, dinv = precond.qs, precond.inv_eig
    ns = n + 1
    qe = qs[[0, -1]]
    # parallel[f, g, a] pairs the side at end f with the side at end g
    # of the same orientation
    d = np.tensordot(qe[:, None, :] * qe[None, :, :], dinv, axes=([2], [1]))
    parallel = (qs * d[..., None, :]) @ qs.T
    # across[f, g, a] pairs (y = end f, x free) with (x = end g, y free)
    across = qs @ (qe[None, :, None, :, None] * dinv * qe[:, None, None, None]) @ qs.T
    nt1 = dinv.shape[0]
    same = parallel.transpose(2, 0, 3, 1, 4).reshape(nt1, 2 * ns, 2 * ns)
    cross = across.transpose(2, 0, 3, 1, 4).reshape(nt1, 2 * ns, 2 * ns)
    return np.block([[same, cross], [cross.transpose(0, 2, 1), same]])


def _edge_correction(mesh, delta, edges):
    """C = (A - P)_EE as a sparse matrix.

    Both operators are weighted graph Laplacians on the grid edges plus
    a diagonal mass: A's edge weights are the vol/h^2 of every
    tetrahedron whose Kuhn path steps along that edge, P's are the
    tensor-product stencil's, 1/h along the edge times the lumped
    masses across it.  Inside E, C collects the difference on the grid
    edges with both ends in E and the difference of the masses.
    """
    n, nt = mesh.nx, mesh.nt
    ns = n + 1
    ne = edges.size
    loc = np.full(mesh.n_dofs, -1)
    loc[edges] = np.arange(ne)

    # A: the Kuhn steps with both ends in E, among the tetrahedra over
    # the spatial triangles that touch the sides of the square
    on_side = np.zeros(mesh.nsp, dtype=bool)
    on_side[_side_points(n)] = True
    touch = on_side[mesh.tri_sdofs].any(axis=1)
    near = np.flatnonzero(np.broadcast_to(touch[None, :, None], (nt, touch.size, 3)))
    ends = loc[mesh.tet_dofs[near]]
    tet, step = np.nonzero((ends[:, :-1] >= 0) & (ends[:, 1:] >= 0))
    along_t = np.diff(mesh.tets[near], axis=1)[tet, step] == mesh.nsp
    vol = mesh.tet_volume
    us, vs = [ends[tet, step]], [ends[tet, step + 1]]
    ws = [np.where(along_t, vol / mesh.ht**2, vol / mesh.hx**2)]

    # P: the stencil's grid edges with both ends in E
    mt = mesh.time_weights()
    mx = np.full(ns, mesh.hx)
    mx[[0, -1]] *= 0.5
    k, j, i = np.unravel_index(edges, (nt + 1, ns, ns))
    for stride, coord, top, weight in (
        (mesh.nsp, k, nt, mx[j] * mx[i] / mesh.ht),
        (ns, j, n, mt[k] * mx[i] / mesh.hx),
        (1, i, n, mt[k] * mx[j] / mesh.hx),
    ):
        inner = coord < top
        nb = np.full(ne, -1)
        nb[inner] = loc[edges[inner] + stride]
        keep = nb >= 0
        us.append(np.flatnonzero(keep))
        vs.append(nb[keep])
        ws.append(-weight[keep])

    u, v, w = np.concatenate(us), np.concatenate(vs), 0.5 * np.concatenate(ws)
    mass = 0.5 * delta * (mesh.lumped_mass()[edges] - mt[k] * mx[j] * mx[i])
    ids = np.arange(ne)
    return sp.csr_matrix(
        (
            np.concatenate([w, w, -w, -w, mass]),
            (np.concatenate([u, v, u, v, ids]), np.concatenate([u, v, v, u, ids])),
        ),
        shape=(ne, ne),
    )


def _axis_basis(n, h, periodic):
    """1-D P1 stiffness against lumped mass on n uniform intervals.

    Returns (lam, q, mass): mass is the lumped mass per node, and
    q diag(lam) q^T is the eigendecomposition of mass^(-1/2) K
    mass^(-1/2), whose orthonormal eigenvectors are the DCT-I basis
    (Neumann ends) or the real Fourier basis (periodic).
    """
    nodes = n if periodic else n + 1
    mass = np.full(nodes, h)
    eye = np.eye(nodes)
    if periodic:
        k = 2.0 * eye - np.roll(eye, 1, axis=1) - np.roll(eye, -1, axis=1)
    else:
        k = 2.0 * eye - np.eye(nodes, k=1) - np.eye(nodes, k=-1)
        mass[[0, -1]] = 0.5 * h
        k[0, 0] = k[-1, -1] = 1.0
    s = mass**-0.5
    lam, q = np.linalg.eigh(s[:, None] * (k / h) * s[None, :])
    return lam, q, mass


class SpectralPreconditioner:
    """Inverse of the tensor-product model of 1/2 K + delta/2 diag(ell).

    With Mt, Mx, My the 1-D lumped masses and Kt, Kx, Ky the 1-D P1
    stiffness matrices, the model operator is

        P = 1/2 (Kt x My x Mx + Mt x Ky x Mx + Mt x My x Kx)
            + delta/2 Mt x My x Mx,

    which equals the assembled operator except in the rows and columns
    of the edge nodes (edge_nodes); with periodic boundaries it is
    exact.  With M = Mt x My x Mx and Q = Qt x Qy x Qx the 1-D
    eigenbases of _axis_basis, P^(-1) = M^(-1/2) Q D^(-1) Q^T M^(-1/2),
    where D = 1/2 (lam_t + lam_y + lam_x) + delta/2.  P is symmetric
    positive definite, so as a CG preconditioner it keeps CG's
    guarantees.

    The 1-D transforms are applied as dense matrix products along each
    axis: at axis lengths up to 129 nodes that is faster than
    scipy.fft's transforms, and it does not load scipy.fft (about 7 MB
    of resident memory).
    """

    def __init__(self, mesh, delta):
        lam_t, self.qt, mass_t = _axis_basis(mesh.nt, mesh.ht, False)
        lam_s, self.qs, mass_s = _axis_basis(mesh.nx, mesh.hx, mesh.bc == "periodic")
        self.shape = (mass_t.size, mass_s.size, mass_s.size)
        self.scale = (
            mass_t[:, None, None] * mass_s[None, :, None] * mass_s[None, None, :]
        ).ravel() ** -0.5
        self.inv_eig = 1.0 / (
            0.5 * (lam_t[:, None, None] + lam_s[None, :, None] + lam_s[None, None, :])
            + 0.5 * delta
        )

    def __call__(self, r):
        nt1 = self.shape[0]
        u = (self.scale * r).reshape(nt1, -1)
        u = (self.qt.T @ u).reshape(self.shape)
        u = self.inv_eig * (self.qs.T @ u @ self.qs)
        u = (self.qs @ u @ self.qs.T).reshape(nt1, -1)
        return self.scale * (self.qt @ u).ravel()


def boundary_vector(mesh, bdata):
    """Pairings of the hat functions with the endpoint data.

    Entry i holds I psi_i(1) u_B - I psi_i(0) u_A; only the first and
    last time slices are populated.
    """
    v = np.zeros(mesh.n_dofs)
    v[: mesh.nsp] = -mesh.slice_load(bdata.ua)
    v[-mesh.nsp :] = mesh.slice_load(bdata.ub)
    return v


def continuity_defect(state, b, mesh):
    """Residual of the weak continuity equation against every hat function.

    b is the boundary_vector of the endpoint data.  With v the common
    element volume and bt, bm the mesh's divergence_operators, the
    residual is bt (v rho) + bm (v m) + ell z - b, where bm reads the
    (n_tets, 2) momentum raveled in place.
    """
    bt, bm, _, _ = mesh.divergence_operators()
    vol = mesh.tet_volume
    r = bt @ (vol * state.rho)
    r += bm @ (vol * state.m.ravel())
    r += mesh.lumped_mass() * state.z
    r -= b
    return r


def cg_solve(system, rhs, tol=1e-9, maxit=None, callback=None):
    """Conjugate gradients from zero, preconditioned by system.precond.

    Stops when |A x - rhs| <= tol * |rhs|; raises NonConvergence past
    maxit (default 10 * sqrt(n) + 500).  The projection does not use
    it: SparseSystem.solve is exact.  It is kept as an independent
    check of the assembled matrix and of the preconditioner.
    """
    a = system.matrix
    precond = system.precond
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.size
    if maxit is None:
        maxit = int(10.0 * np.sqrt(n)) + 500
    bnorm = float(np.sqrt(rhs @ rhs))
    if bnorm == 0.0:
        return np.zeros(n)
    x = np.zeros(n)
    r = rhs.copy()
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    for _ in range(maxit):
        ap = a @ p
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        if callback is not None:
            callback(x)
        res = float(np.sqrt(r @ r))
        if res <= tol * bnorm:
            return x
        z = precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NonConvergence(
        "conjugate gradients stalled; check delta and mesh resolution",
        maxit,
        res / bnorm,
    )


def project_continuity(state, b, system, return_phi=False):
    """Orthogonal projection onto the continuity constraint set.

    b is the boundary_vector of the endpoint data, built once per solve.
    Solves the SPD potential system exactly (SparseSystem.solve), then
    applies the explicit update with the transposed views of the mesh's
    divergence_operators, which give the time and the spatial gradient
    of phi in the layouts of rho and m.  The output tested against psi = 1
    reproduces the mass balance identity exactly: after the linear
    solve, z is shifted by the constant that zeroes this row, a
    correction at rounding level that keeps the reported mass defect
    at rounding level on every projected iterate.  With return_phi the
    potential phi is returned too.
    """
    mesh = system.mesh
    phi = system.solve(-continuity_defect(state, b, mesh))
    _, _, grad_t, grad_m = mesh.divergence_operators()
    rho = state.rho + 0.5 * (grad_t @ phi)
    m = state.m + 0.5 * (grad_m @ phi).reshape(-1, 2)
    z = state.z + (0.5 * system.delta) * phi

    lum = mesh.lumped_mass()
    z += (float(np.sum(b)) - float(lum @ z)) / float(lum.sum())

    out = State(rho, m, z)
    if return_phi:
        return out, phi
    return out

