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

On the structured mesh that system is close to a tensor product of
1-D P1 operators, K a 7-point stencil and ell a product of 1-D lumped
masses.  The exact inverse of that model, in the DCT-I basis in time
and, in space, the DCT-I basis for Neumann or the Fourier basis for
periodic boundaries, preconditions the CG solve.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import NonConvergence
from .mesh import State, gradient_p1


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


@dataclass
class SparseSystem:
    """Assembled projection operator together with its preconditioner.

    precond maps a residual to the solution of the tensor-product model
    of the operator (see SpectralPreconditioner).
    """

    matrix: object
    precond: object
    delta: float
    mesh: object


def assemble_system(mesh, delta):
    """Build 1/2 K + delta/2 diag(ell) for the given mesh.

    The result is symmetric by construction (the defect max|A - A^T| is
    exactly zero) and positive definite for delta > 0.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    a = 0.5 * mesh.stiffness_matrix() + (0.5 * delta) * sp.diags(mesh.lumped_mass())
    return SparseSystem(
        matrix=a.tocsr(),
        precond=SpectralPreconditioner(mesh, delta),
        delta=float(delta),
        mesh=mesh,
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

    which equals the assembled operator except in the rows of nodes
    where a Neumann side of the square meets another side or an end
    of the time interval; with periodic boundaries it is exact.  With
    M = Mt x My x Mx and Q = Qt x Qy x Qx the 1-D eigenbases of
    _axis_basis, P^(-1) = M^(-1/2) Q D^(-1) Q^T M^(-1/2), where
    D = 1/2 (lam_t + lam_y + lam_x) + delta/2.  P is symmetric positive
    definite, so CG keeps its guarantees.

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
    _check_bdata(mesh, bdata)
    v = np.zeros(mesh.n_dofs)
    v[: mesh.nsp] = -mesh.slice_load(bdata.ua)
    v[-mesh.nsp :] = mesh.slice_load(bdata.ub)
    return v


def continuity_defect(state, b, mesh):
    """Residual of the weak continuity equation against every hat function.

    b is the boundary_vector of the endpoint data.
    """
    gt, gx, gy = mesh.gradient_matrices()
    vol = mesh.volumes
    r = gt.T @ (vol * state.rho)
    r += gx.T @ (vol * state.m[:, 0])
    r += gy.T @ (vol * state.m[:, 1])
    r += mesh.lumped_mass() * state.z
    r -= b
    return r


def cg_solve(system, rhs, tol=1e-9, maxit=None, x0=None, callback=None):
    """Conjugate gradients preconditioned by system.precond.

    Stops when |A x - rhs| <= tol * |rhs|; raises NonConvergence past
    maxit (default 10 * sqrt(n) + 500).  x0 warm-starts the iteration,
    which the outer solver exploits because consecutive projections
    change slowly.
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
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    r = rhs - a @ x
    res = float(np.sqrt(r @ r))
    if res <= tol * bnorm:
        return x
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


def project_continuity(state, b, system, tol=1e-9, phi0=None, return_phi=False):
    """Orthogonal projection onto the continuity constraint set.

    b is the boundary_vector of the endpoint data, built once per solve.
    Solves the SPD potential system, then applies the explicit update.
    The output tested against psi = 1 reproduces the mass balance
    identity exactly: after the linear solve, z is shifted by the
    constant that zeroes this row, a correction within solver tolerance
    that keeps the reported mass defect at rounding level on every
    projected iterate.
    """
    mesh = system.mesh
    rhs = -continuity_defect(state, b, mesh)
    phi = cg_solve(system, rhs, tol=tol, x0=phi0)
    g = gradient_p1(mesh, phi)
    rho = state.rho + 0.5 * g[:, 0]
    m = state.m + 0.5 * g[:, 1:]
    z = state.z + (0.5 * system.delta) * phi

    lum = mesh.lumped_mass()
    z += (float(np.sum(b)) - float(lum @ z)) / float(lum.sum())

    out = State(rho, m, z)
    if return_phi:
        return out, phi
    return out


def _check_bdata(mesh, bdata):
    want = mesh.spatial_tris.shape[0]
    if bdata.ua.shape != (want,):
        raise ValueError(
            f"boundary data has {bdata.ua.shape[0]} triangle values, mesh needs {want}"
        )
