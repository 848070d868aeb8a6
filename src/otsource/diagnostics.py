"""Energies, mass accounting and residual checks.

The transport action integrates |m|^2 / rho with the convention that a
vanishing pair (rho, m) = (0, 0) contributes nothing and that negative
density or momentum over vacuum is infeasible.  Iterates of the
splitting scheme may carry small negative densities from the linear
projection, so the evaluation works with scale-relative thresholds and
reports the total volume of infeasible elements instead of returning
infinities (infeasible elements are excluded from the sum).
"""

import math
from dataclasses import dataclass

import numpy as np

from .assembly import boundary_vector
from .mesh import spatial_slice_weights
from .prox import huber


@dataclass
class EnergyBreakdown:
    transport: float
    source: float
    total: float
    infeasible_volume: float


@dataclass
class TimeProfile:
    """Mass and source line integrals at one time node."""

    t: float
    mass: float
    src_abs: float
    src_pos: float
    src_neg: float


def transport_energy(state, mesh):
    """Integral of the transport action, with an infeasibility tally.

    Returns (energy, infeasible_volume).  Thresholds scale with the
    iterate: eps_rho = 1e-12 * max rho and likewise for momentum, so
    projection noise around zero is read as vacuum, not infeasibility.
    """
    rho = state.rho
    m2 = state.m[:, 0] ** 2 + state.m[:, 1] ** 2
    eps_rho = 1e-12 * max(float(rho.max(initial=0.0)), 0.0)
    eps_m2 = (1e-12 * math.sqrt(float(m2.max(initial=0.0)))) ** 2
    moving = rho > eps_rho
    still = ~moving & (rho >= -eps_rho) & (m2 <= eps_m2)
    bad = ~moving & ~still
    energy = float(np.sum(mesh.volumes[moving] * m2[moving] / rho[moving]))
    return energy, float(np.sum(mesh.volumes[bad]))


def source_energy(z, model, delta, mesh):
    """Source part of the path energy for the given model.

    The squared-L2 model integrates z^2 exactly over every tetrahedron
    and divides by delta.  The linear-growth models evaluate, per time
    node k, the slice cost S_k = sum_i w_i r(z_ki) with the spatial
    slice weights and return the lumped-in-time integral of S_k^2
    divided by delta (trapezoid weights, so a constant slice cost
    integrates to exactly its square).
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if model.kind == "none":
        return 0.0
    z = np.asarray(z, dtype=float)
    if model.kind == "l2l2":
        # I_e z^2 = vol_e / 20 * (sum_v z_v^2 + (sum_v z_v)^2) on a
        # tetrahedron e with vertex values z_v
        ze = z[mesh.tet_dofs]
        per_tet = np.sum(ze * ze, axis=1) + np.sum(ze, axis=1) ** 2
        return float(mesh.volumes @ per_tet) / (20.0 * delta)
    w = spatial_slice_weights(mesh, 0)
    zs = z.reshape(mesh.nt + 1, mesh.nsp)
    if model.kind == "l1l1":
        slice_cost = np.abs(zs) @ w
    else:
        slice_cost = huber(zs, model.beta) @ w
    return float(mesh.time_weights() @ (slice_cost * slice_cost)) / delta


def energy_breakdown(state, model, delta, mesh):
    """Transport + source energies of an iterate.

    total = transport + source holds whenever infeasible_volume = 0;
    infeasible elements are excluded from (not folded into) the sum.
    """
    transport, bad_vol = transport_energy(state, mesh)
    source = source_energy(state.z, model, delta, mesh)
    return EnergyBreakdown(
        transport=transport,
        source=source,
        total=transport + source,
        infeasible_volume=bad_vol,
    )


def time_profiles(state, mesh):
    """Mass and source intensity per time node.

    Node masses average the two adjacent slab masses (a slab mass is
    sum vol * rho / ht, the time average of the spatial mass over the
    slab); the end nodes take their single adjacent slab.  Source
    columns integrate |z|, max(z, 0) and max(-z, 0) with the slice
    weights, so src_abs = src_pos + src_neg exactly.
    """
    nt = mesh.nt
    slab_mass = np.bincount(
        mesh.tet_slab, weights=mesh.volumes * state.rho, minlength=nt
    ) / mesh.ht
    node_mass = np.empty(nt + 1)
    node_mass[0] = slab_mass[0]
    node_mass[-1] = slab_mass[-1]
    node_mass[1:-1] = 0.5 * (slab_mass[:-1] + slab_mass[1:])

    w = spatial_slice_weights(mesh, 0)
    zs = np.asarray(state.z, dtype=float).reshape(nt + 1, mesh.nsp)
    pos = np.maximum(zs, 0.0) @ w
    neg = np.maximum(-zs, 0.0) @ w
    return [
        TimeProfile(
            t=k * mesh.ht,
            mass=float(node_mass[k]),
            src_abs=float(pos[k] + neg[k]),
            src_pos=float(pos[k]),
            src_neg=float(neg[k]),
        )
        for k in range(nt + 1)
    ]


def mass_balance_defect(state, bdata, mesh):
    """|(mass of u_B - mass of u_A) - II z| with the discrete pairings.

    This is the psi = 1 row of the continuity defect: the transport
    terms drop out because constants have no gradient.
    """
    total_z = float(mesh.lumped_mass() @ state.z)
    bmass = float(np.sum(boundary_vector(mesh, bdata)))
    return abs(bmass - total_z)
