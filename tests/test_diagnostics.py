import math

import numpy as np
import pytest

from otsource.assembly import BoundaryData, boundary_vector
from otsource.diagnostics import (
    energy_breakdown,
    mass_balance_defect,
    source_energy,
    time_profiles,
    transport_energy,
)
from otsource.mesh import State, build_mesh, spatial_slice_weights
from otsource.prox import SourceModel, huber


def _const_state(mesh, rho=1.0, mx=0.0, my=0.0, z=0.0):
    return State(
        np.full(mesh.n_tets, float(rho)),
        np.column_stack(
            [np.full(mesh.n_tets, float(mx)), np.full(mesh.n_tets, float(my))]
        ),
        np.full(mesh.n_dofs, float(z)),
    )


# ---------------------------------------------------------------- action
# the pointwise rule for |m|^2 / rho, read through transport_energy: the
# first element carries the case, the others a unit pair (rho, m) =
# (1, (1, 0)) that fixes the iterate's scale


def _one_element_case(mesh, rho, m):
    """(energy of element 0, infeasible volume) of the case."""
    state = _const_state(mesh, rho=1.0, mx=1.0)
    state.rho[0] = rho
    state.m[0] = m
    energy, bad = transport_energy(state, mesh)
    return energy - float(np.sum(mesh.volumes[1:])), bad


def test_action_density_zero_at_vacuum():
    mesh = build_mesh(2, 2)
    energy, bad = _one_element_case(mesh, 0.0, (0.0, 0.0))
    assert energy == 0.0
    assert bad == 0.0


def test_action_density_ratio_when_mass_positive():
    mesh = build_mesh(2, 2)
    energy, bad = _one_element_case(mesh, 2.0, (3.0, 4.0))
    assert energy == pytest.approx(12.5 * mesh.volumes[0], rel=1e-12)
    assert bad == 0.0


def test_action_density_infeasible_momentum_through_vacuum():
    mesh = build_mesh(2, 2)
    for m in ((1.0, 0.0), (0.0, 1e-3)):
        energy, bad = _one_element_case(mesh, 0.0, m)
        assert bad == pytest.approx(mesh.volumes[0], rel=1e-12)
        assert energy == 0.0


def test_action_density_infeasible_negative_mass():
    mesh = build_mesh(2, 2)
    energy, bad = _one_element_case(mesh, -1.0, (0.0, 0.0))
    assert bad == pytest.approx(mesh.volumes[0], rel=1e-12)
    assert energy == 0.0


def test_action_density_tolerances_read_noise_as_vacuum():
    # noise is measured against the iterate's own scale: 1e-13 is below
    # 1e-12 * max rho at unit scale, but real mass at scale 1e-6
    mesh = build_mesh(2, 2)
    energy, bad = _one_element_case(mesh, -1e-13, (1e-13, 0.0))
    assert (energy, bad) == (0.0, 0.0)
    state = _const_state(mesh, rho=1e-6)
    state.rho[0] = -1e-13
    _, bad = transport_energy(state, mesh)
    assert bad == pytest.approx(mesh.volumes[0], rel=1e-12)


# ------------------------------------------------------------- transport


def test_transport_energy_unit_momentum():
    mesh = build_mesh(4, 3)
    energy, bad = transport_energy(_const_state(mesh, rho=1.0, mx=1.0), mesh)
    assert energy == pytest.approx(1.0, rel=1e-12)
    assert bad == 0.0


def test_transport_energy_diagonal_momentum():
    mesh = build_mesh(4, 3)
    energy, bad = transport_energy(_const_state(mesh, rho=1.0, mx=1.0, my=1.0), mesh)
    assert energy == pytest.approx(2.0, rel=1e-12)
    assert bad == 0.0


def test_transport_energy_scales_inversely_with_mass():
    mesh = build_mesh(3, 2)
    energy, _ = transport_energy(_const_state(mesh, rho=4.0, mx=1.0), mesh)
    assert energy == pytest.approx(0.25, rel=1e-12)


def test_transport_energy_tallies_infeasible_volume():
    mesh = build_mesh(2, 2)
    state = _const_state(mesh, rho=1.0, mx=1.0)
    state.rho[:3] = 0.0  # momentum crosses vacuum on three tets
    energy, bad = transport_energy(state, mesh)
    assert bad == pytest.approx(float(np.sum(mesh.volumes[:3])), rel=1e-12)
    assert energy == pytest.approx(float(np.sum(mesh.volumes[3:])), rel=1e-12)


def test_transport_energy_projection_noise_is_vacuum():
    mesh = build_mesh(2, 2)
    state = _const_state(mesh, rho=1.0, mx=1.0)
    state.rho[0] = -1e-14  # far below 1e-12 * max rho
    state.m[0] = (1e-14, 0.0)
    energy, bad = transport_energy(state, mesh)
    assert bad == 0.0
    assert np.isfinite(energy)


# ---------------------------------------------------------------- source


def test_source_energy_none_is_zero():
    mesh = build_mesh(3, 2)
    assert source_energy(np.ones(mesh.n_dofs), SourceModel("none"), 1.0, mesh) == 0.0


def test_source_energy_l2l2_constant():
    mesh = build_mesh(4, 4)
    z = np.full(mesh.n_dofs, 2.0)
    val = source_energy(z, SourceModel("l2l2"), 1.0, mesh)
    assert val == pytest.approx(4.0, rel=1e-12)
    assert source_energy(z, SourceModel("l2l2"), 2.0, mesh) == pytest.approx(
        2.0, rel=1e-12
    )


def test_source_energy_l2l2_integrates_quadratics():
    # exact integrals over [0,1]^3 of products of nodal-affine fields,
    # read from the energy by polarization: <u, v> = (E(u+v) - E(u-v)) / 4
    mesh = build_mesh(3, 3)

    def energy(s):
        return source_energy(s, SourceModel("l2l2"), 1.0, mesh)

    def inner(u, v):
        return (energy(u + v) - energy(u - v)) / 4.0

    t, x, y = mesh.vertices[:, 0], mesh.vertices[:, 1], mesh.vertices[:, 2]
    one = np.ones(mesh.n_dofs)
    assert abs(inner(one, one) - 1.0) < 1e-13
    assert abs(inner(t, one) - 0.5) < 1e-13
    assert abs(inner(t, t) - 1.0 / 3.0) < 1e-13
    assert abs(inner(t, x) - 0.25) < 1e-13
    assert abs(inner(x, y) - 0.25) < 1e-13
    assert abs(source_energy(x, SourceModel("l2l2"), 2.0, mesh) - 1.0 / 6.0) < 1e-13


def test_source_energy_huber_constant_linear_branch():
    # constant z = c > beta: every slice costs (c - beta/2) * area, the
    # lumped time quadrature integrates the constant square exactly
    mesh = build_mesh(4, 3)
    c, beta = 1.0, 0.1
    z = np.full(mesh.n_dofs, c)
    val = source_energy(z, SourceModel("l2huber", beta=beta), 1.0, mesh)
    assert val == pytest.approx((c - beta / 2) ** 2, rel=1e-12)


def test_source_energy_huber_constant_quadratic_branch():
    mesh = build_mesh(3, 2)
    c, beta = 0.05, 0.2
    z = np.full(mesh.n_dofs, c)
    val = source_energy(z, SourceModel("l2huber", beta=beta), 1.0, mesh)
    assert val == pytest.approx((c * c / (2 * beta)) ** 2, rel=1e-12)


def test_source_energy_l1l1_constant():
    mesh = build_mesh(4, 3)
    z = np.full(mesh.n_dofs, -3.0)
    val = source_energy(z, SourceModel("l1l1"), 1.0, mesh)
    assert val == pytest.approx(9.0, rel=1e-12)


def test_source_energy_huber_approaches_absolute_value():
    # |r_beta(s) - |s|| <= beta/2, so the slice costs converge as beta -> 0
    mesh = build_mesh(4, 3)
    rng = np.random.default_rng(7)
    z = rng.uniform(-2.0, 2.0, mesh.n_dofs)
    l1 = source_energy(z, SourceModel("l1l1"), 1.0, mesh)
    for beta in (1e-2, 1e-4):
        hub = source_energy(z, SourceModel("l2huber", beta=beta), 1.0, mesh)
        # S_k differs by at most beta/2 * area, S_k^2 by ~ beta * max S_k
        assert abs(hub - l1) <= beta * (2 * math.sqrt(l1) + beta)
    assert abs(hub - l1) < abs(
        source_energy(z, SourceModel("l2huber", beta=1e-2), 1.0, mesh) - l1
    )


def test_source_energy_rejects_nonpositive_delta():
    mesh = build_mesh(2, 2)
    with pytest.raises(ValueError):
        source_energy(np.zeros(mesh.n_dofs), SourceModel("l2l2"), 0.0, mesh)


def test_huber_slice_cost_matches_manual_sum():
    mesh = build_mesh(3, 2)
    rng = np.random.default_rng(3)
    z = rng.uniform(-1.0, 1.0, mesh.n_dofs)
    beta, delta = 0.3, 1.7
    w = spatial_slice_weights(mesh, 0)
    zs = z.reshape(mesh.nt + 1, mesh.nsp)
    costs = np.array([float(huber(row, beta) @ w) for row in zs])
    expected = float(mesh.time_weights() @ (costs * costs)) / delta
    val = source_energy(z, SourceModel("l2huber", beta=beta), delta, mesh)
    assert val == pytest.approx(expected, rel=1e-13)


# ------------------------------------------------------------- breakdown


def test_energy_breakdown_sums_parts():
    mesh = build_mesh(3, 2)
    state = _const_state(mesh, rho=1.0, mx=1.0, z=2.0)
    br = energy_breakdown(state, SourceModel("l2l2"), 1.0, mesh)
    assert br.transport == pytest.approx(1.0, rel=1e-12)
    assert br.source == pytest.approx(4.0, rel=1e-12)
    assert br.total == pytest.approx(br.transport + br.source, rel=1e-15)
    assert br.infeasible_volume == 0.0


# -------------------------------------------------------------- profiles


def test_time_profiles_constant_density_and_source():
    mesh = build_mesh(4, 4)
    state = _const_state(mesh, rho=2.0, z=1.0)
    profiles = time_profiles(state, mesh)
    assert len(profiles) == mesh.nt + 1
    assert [p.t for p in profiles] == pytest.approx(
        [k * mesh.ht for k in range(mesh.nt + 1)]
    )
    for p in profiles:
        assert p.mass == pytest.approx(2.0, rel=1e-12)
        assert p.src_abs == pytest.approx(1.0, rel=1e-12)
        assert p.src_pos == pytest.approx(1.0, rel=1e-12)
        assert p.src_neg == 0.0


def test_time_profiles_negative_source_splits_sign():
    mesh = build_mesh(3, 2)
    state = _const_state(mesh, rho=0.0, z=-3.0)
    for p in time_profiles(state, mesh):
        assert p.src_pos == 0.0
        assert p.src_neg == pytest.approx(3.0, rel=1e-12)
        assert p.src_abs == pytest.approx(p.src_pos + p.src_neg, abs=0.0)


def test_time_profiles_node_mass_averages_slabs():
    mesh = build_mesh(2, 3)
    state = _const_state(mesh, rho=0.0)
    # give each time slab its own constant density
    slab_rho = np.array([1.0, 2.0, 4.0])
    state.rho[:] = slab_rho[mesh.tet_slab]
    masses = [p.mass for p in time_profiles(state, mesh)]
    assert masses == pytest.approx([1.0, 1.5, 3.0, 4.0], rel=1e-12)


def test_time_profiles_linear_growth_matches_blend():
    # rho growing linearly in time: node masses reproduce slab midpoints
    mesh = build_mesh(3, 4)
    state = _const_state(mesh, rho=0.0)
    mids = (np.arange(mesh.nt) + 0.5) * mesh.ht
    state.rho[:] = 1.0 + mids[mesh.tet_slab]
    masses = np.array([p.mass for p in time_profiles(state, mesh)])
    nodes = np.arange(mesh.nt + 1) * mesh.ht
    expected = 1.0 + nodes
    expected[0] = 1.0 + mids[0]
    expected[-1] = 1.0 + mids[-1]
    assert masses == pytest.approx(expected, rel=1e-12)


# ----------------------------------------------------------- mass defect


def test_mass_balance_defect_zero_state_measures_endpoint_gap():
    mesh = build_mesh(3, 2)
    n = 2 * 3 * 3
    bdata = BoundaryData(np.zeros(n), np.ones(n))
    state = _const_state(mesh, rho=0.0)
    # z = 0: the defect is the full unit of created mass
    assert mass_balance_defect(state, bdata, mesh) == pytest.approx(1.0, rel=1e-12)


def test_mass_balance_defect_constant_source_closes_gap():
    mesh = build_mesh(3, 2)
    n = 2 * 3 * 3
    bdata = BoundaryData(np.zeros(n), np.ones(n))
    state = _const_state(mesh, rho=0.0, z=1.0)
    # integral of z over space-time is exactly the created mass
    assert mass_balance_defect(state, bdata, mesh) <= 1e-12


def test_mass_balance_defect_is_psi_one_row():
    mesh = build_mesh(3, 2)
    rng = np.random.default_rng(11)
    n = 2 * 3 * 3
    bdata = BoundaryData(rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n))
    state = State(
        rng.standard_normal(mesh.n_tets),
        rng.standard_normal((mesh.n_tets, 2)),
        rng.standard_normal(mesh.n_dofs),
    )
    expected = abs(
        float(np.sum(boundary_vector(mesh, bdata)))
        - float(mesh.lumped_mass() @ state.z)
    )
    assert mass_balance_defect(state, bdata, mesh) == pytest.approx(expected, abs=1e-15)
