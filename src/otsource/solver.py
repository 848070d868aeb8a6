"""Douglas-Rachford splitting for the geodesic problem.

The path energy is F1(rho, m, z) = transport + source penalty and the
constraint F2 is the indicator of the discrete continuity equation.
One iteration maps the auxiliary point (p, z) through

    (q, w)  = proj_CE (p, z)
    (p, z) <- (p, z) + alpha * ( prox_{gamma F1}( 2 (q, w) - (p, z) ) - (q, w) )

and converges for every gamma > 0 and alpha in (0, 2).  (q, w) is the
feasible iterate: mass diagnostics and the returned solution are read
from it, while the energy trace is evaluated on the F1 prox image,
whose (rho, m) pairs carry the exact cone structure of the transport
integrand and therefore give a stable value near vacuum.  Each
quantity is computed once per iteration: one projection, one prox,
one transport and one source energy.  The projection solves its
potential system exactly, by a spectral solve with a capacitance
correction (assembly.SparseSystem), with no inner iteration.  The
fixed-point residual is the weighted-norm distance between the two
proximal points, |prox_{gamma F1}(2q - p) - q|, which vanishes at a
solution; iteration stops when it falls below fp_tol times its first
value plus a floating-point floor of 1e-10 times the iterate norm
(so a start that is already optimal terminates at once instead of
chasing kernel noise below machine resolution).

The source model "none" pins z = 0 inside F1 (its proximal map is the
zero map), which recovers classical transport between endpoints of
equal mass without changing the projection system.
"""

import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import assemble_system, boundary_vector, continuity_defect, project_continuity
from .diagnostics import source_energy, transport_energy
from .exceptions import NonConvergence
from .mesh import BOUNDARY_CONDITIONS, SpaceTimeMesh, State
from .prox import (
    SourceModel,
    prox_source_l1l1,
    prox_source_l2huber,
    prox_source_l2l2,
    prox_transport,
)


@dataclass
class SolverConfig:
    """Run parameters; defaults follow the reference tuning."""

    nt: int = 32
    delta: float = 1.0
    gamma: float = 1.0
    alpha: float = 1.8
    max_iters: int = 5000
    fp_tol: float = 1e-5
    source: SourceModel = field(default_factory=SourceModel)
    bc: str = BOUNDARY_CONDITIONS[0]

    def __post_init__(self):
        if not (isinstance(self.nt, numbers.Integral) and self.nt >= 2):
            raise ValueError(f"nt must be an integer >= 2, got {self.nt!r}")
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be finite and positive, got {self.delta}")
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        if not (isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not (np.isfinite(self.fp_tol) and self.fp_tol >= 0):
            raise ValueError(f"fp_tol must be finite and nonnegative, got {self.fp_tol}")
        if isinstance(self.source, str):
            self.source = SourceModel(kind=self.source)


@dataclass
class IterationStats:
    """Per-iteration trace.

    Energies are evaluated on the F1 prox image, the mass-balance
    defect on the projected (feasible) iterate.
    """

    iteration: int
    fixed_point_residual: float
    energy: float
    transport_energy: float
    source_energy: float
    mass_balance_defect: float


@dataclass
class GeodesicResult:
    state: State
    stats: list
    config: SolverConfig
    wall_seconds: float
    converged: bool
    # the continuity defect of the last prox image over |b|
    image_defect: float
    mesh: SpaceTimeMesh
    bdata: object


def weighted_norm(rho, m, z, mesh, delta):
    """Norm with weights (1, 1, 1/delta), the same one the projection uses.

    All three blocks are diagonally weighted l2 norms: the element
    volume, one constant, for the P0 fields and nodal integrals for the
    P1 source.  Each block is one dot product.
    """
    mr = m.ravel()
    sq = mesh.tet_volume * (float(rho @ rho) + float(mr @ mr))
    sq += float(mesh.lumped_mass() @ (z * z)) / delta
    return np.sqrt(sq)


def initialize(mesh, bdata):
    """Linear blend of the endpoints with a constant-in-time source guess.

    Densities interpolate u_A -> u_B at slab midpoints, the momentum
    starts at zero and z carries the lumped P1 projection of u_B - u_A
    on every slice, which reproduces the endpoint mass difference
    exactly.  The triple is made feasible by one projection inside
    solve(); on matching endpoints z starts at zero.
    """
    tmid = ((np.arange(mesh.nt) + 0.5) * mesh.ht)[:, None]
    rho = np.empty(mesh.n_tets)
    mesh.prisms(rho)[...] = ((1.0 - tmid) * bdata.ua + tmid * bdata.ub)[:, :, None]
    m = np.zeros((mesh.n_tets, 2))
    zslice = mesh.slice_load(bdata.ub - bdata.ua) / mesh.slice_weights
    z = np.tile(zslice, mesh.nt + 1)
    return State(rho, m, z)


def _prox_f1(state, config, mesh):
    """Joint proximal map of transport and source terms (they separate)."""
    rho, m = prox_transport(state.rho, state.m, config.gamma)
    kind = config.source.kind
    if kind == "none":
        z = np.zeros_like(state.z)
    elif kind == "l2l2":
        z = prox_source_l2l2(state.z, config.gamma)
    elif kind == "l1l1":
        z = prox_source_l1l1(state.z, config.gamma)
    else:
        z = prox_source_l2huber(
            state.z,
            config.gamma,
            config.source.beta,
            mesh.slice_weights,
        )
    return State(rho, m, z)


def dr_step(state_aux, b, system, config):
    """One Douglas-Rachford iteration.

    b is the boundary_vector of the endpoint data.  Returns
    (state_aux_next, feasible, prox_image, residual, phi): feasible is
    the projected iterate, prox_image the output of the F1 prox at the
    reflected point, residual the weighted-norm distance between the
    two and phi the projection potential, the solution of
    A phi = -defect(state_aux) (a dual variable of the constraint).
    """
    mesh = system.mesh
    q, phi = project_continuity(state_aux, b, system)
    reflected = State(
        2.0 * q.rho - state_aux.rho,
        2.0 * q.m - state_aux.m,
        2.0 * q.z - state_aux.z,
    )
    y = _prox_f1(reflected, config, mesh)
    drho, dm, dz = y.rho - q.rho, y.m - q.m, y.z - q.z
    residual = weighted_norm(drho, dm, dz, mesh, config.delta)
    state_next = State(
        state_aux.rho + config.alpha * drho,
        state_aux.m + config.alpha * dm,
        state_aux.z + config.alpha * dz,
    )
    return state_next, q, y, residual, phi


def solve(bdata, config, progress=None):
    """Run the splitting scheme to convergence or the iteration cap.

    bdata supplies the endpoint densities (their length fixes nx), and
    config everything else.  The result carries the last feasible
    iterate and the full iteration trace; converged=False means the cap
    was hit, which is reported, not raised.  progress, when given, is
    called with each IterationStats.  A non-finite fixed-point residual
    raises NonConvergence at the iteration that produced it.  The source
    model "none" with endpoint masses that differ by more than 1e-9 of
    the larger one has no solution and raises ValueError before the
    first iteration.
    """
    ntris = np.asarray(bdata.ua).shape[0]
    nx = int(round(np.sqrt(ntris / 2)))
    if 2 * nx * nx != ntris:
        raise ValueError(f"{ntris} triangle values do not form an nx*nx grid")
    if config.source.kind == "none":
        # every triangle has area 1/ntris
        mass_a = float(np.sum(bdata.ua)) / ntris
        mass_b = float(np.sum(bdata.ub)) / ntris
        if abs(mass_a - mass_b) > 1e-9 * max(mass_a, mass_b):
            raise ValueError(
                f"source model 'none' needs endpoints of equal mass, got "
                f"{mass_a:.9g} and {mass_b:.9g}; use a model that creates mass"
            )
    mesh = SpaceTimeMesh(nx, config.nt, config.bc)
    system = assemble_system(mesh, config.delta)

    t0 = time.perf_counter()
    # constants of the constraint and the mass-balance identity, built
    # once for the whole loop
    b = boundary_vector(mesh, bdata)
    endpoint_mass = float(np.sum(b))
    nodal = mesh.lumped_mass()
    aux, _ = project_continuity(initialize(mesh, bdata), b, system)
    stats = []
    converged = False
    threshold = None
    for it in range(1, config.max_iters + 1):
        # the last step's projected point and prox image have been read;
        # dropped here, they free their arrays before the next step
        # allocates, instead of living through it as a tuple assignment
        # would keep them
        feasible = image = None
        aux, feasible, image, residual, _ = dr_step(aux, b, system, config)
        if not np.isfinite(residual):
            raise NonConvergence(
                f"DR fixed-point residual is not finite at iteration {it}", it, residual
            )
        # the energy trace reads the prox image: it lives in the domain
        # of the transport integrand, so the trace does not inherit the
        # near-vacuum density ratios that make the projected iterate's
        # value jump by percents between consecutive iterations
        transport, _ = transport_energy(image, mesh)
        source = source_energy(image.z, config.source, config.delta, mesh)
        entry = IterationStats(
            iteration=it,
            fixed_point_residual=residual,
            energy=transport + source,
            transport_energy=transport,
            source_energy=source,
            mass_balance_defect=abs(endpoint_mass - float(nodal @ feasible.z)),
        )
        stats.append(entry)
        if progress is not None:
            progress(entry)
        if threshold is None:
            # relative to the first residual, with a floating-point
            # floor at the iterate scale: when the start is already a
            # solution the first residual is pure kernel noise and a
            # purely relative test could never fire
            scale = weighted_norm(
                feasible.rho, feasible.m, feasible.z, mesh, config.delta
            )
            threshold = config.fp_tol * residual
            if config.fp_tol > 0.0:
                threshold += 1e-10 * scale
        if residual <= threshold:
            converged = True
            break
    # relative to the boundary data, or absolute when both endpoints are empty
    image_defect = float(np.linalg.norm(continuity_defect(image, b, mesh)))
    image_defect /= float(np.linalg.norm(b)) or 1.0
    return GeodesicResult(
        state=feasible,
        stats=stats,
        config=config,
        wall_seconds=time.perf_counter() - t0,
        converged=converged,
        image_defect=image_defect,
        mesh=mesh,
        bdata=bdata,
    )
