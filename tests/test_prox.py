import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from otsource._kernels import project_paraboloid
from otsource.diagnostics import source_energy
from otsource.exceptions import RootFindFailure
from otsource.mesh import SpaceTimeMesh
from otsource.prox import (
    SourceModel,
    huber,
    prox_source_l1l1,
    prox_source_l2huber,
    prox_source_l2l2,
    prox_transport,
)


class TestHuber:
    def test_values(self):
        assert huber(0.0, 0.1) == 0.0
        assert abs(huber(0.05, 0.1) - 0.0125) < 1e-15
        assert abs(huber(1.0, 0.1) - 0.95) < 1e-15
        assert abs(huber(-1.0, 0.1) - 0.95) < 1e-15

    def test_continuity_at_threshold(self):
        beta = 0.3
        eps = 1e-9
        assert abs(huber(beta - eps, beta) - huber(beta + eps, beta)) < 1e-8


def _project_point(a, b):
    """Project one point (a, (bx, by)) through the batch kernel."""
    oa, obx, oby = project_paraboloid(
        np.array([a]), np.array([b[0]]), np.array([b[1]])
    )
    return float(oa[0]), (float(obx[0]), float(oby[0]))


class TestParaboloidProjection:
    def test_apex_from_above(self):
        out_a, out_b = _project_point(1.0, (0.0, 0.0))
        assert abs(out_a) <= 1e-12
        assert out_b == (0.0, 0.0)

    def test_known_multiplier(self):
        # independent oracle: root of (a-l)(1+l/2)^2 + |b|^2/4 in l
        a, b = 0.0, (2.0, 0.0)
        lam = brentq(lambda l: (a - l) * (1 + l / 2) ** 2 + 1.0, 0.0, 2.0,
                     xtol=1e-14)
        out_a, out_b = _project_point(a, b)
        assert abs(out_a - (a - lam)) < 1e-10
        assert abs(out_b[0] - b[0] / (1 + lam / 2)) < 1e-10

    def test_optimality_vs_grid(self):
        # projection beats every feasible candidate on a fine grid
        a, b = 0.7, (1.3, -0.4)
        out_a, out_b = _project_point(a, b)
        best = (out_a - a) ** 2 + (out_b[0] - b[0]) ** 2 + (out_b[1] - b[1]) ** 2
        for bx in np.linspace(-2.5, 2.5, 81):
            for by in np.linspace(-2.5, 2.5, 81):
                aa = -0.25 * (bx * bx + by * by)
                d = (aa - a) ** 2 + (bx - b[0]) ** 2 + (by - b[1]) ** 2
                assert d >= best - 1e-9

    def test_nonexpansive_bulk(self):
        rng = np.random.default_rng(3)
        n = 10000
        x = rng.uniform(-5, 5, (n, 3))
        y = rng.uniform(-5, 5, (n, 3))
        px = np.column_stack(project_paraboloid(x[:, 0], x[:, 1], x[:, 2]))
        py = np.column_stack(project_paraboloid(y[:, 0], y[:, 1], y[:, 2]))
        din = np.linalg.norm(x - y, axis=1)
        dout = np.linalg.norm(px - py, axis=1)
        assert np.all(dout <= din + 1e-12)


class TestTransportProx:
    def test_moreau_identity_bulk(self):
        # x = prox(x) + gamma * proj(x / gamma) must hold to machine precision
        rng = np.random.default_rng(5)
        n = 10000
        rho = rng.uniform(-3, 3, n)
        m = rng.uniform(-3, 3, (n, 2))
        for gamma in (0.25, 1.0, 4.0):
            pr, pm = prox_transport(rho, m, gamma)
            ka, kbx, kby = project_paraboloid(rho / gamma, m[:, 0] / gamma,
                                              m[:, 1] / gamma)
            assert np.max(np.abs(pr + gamma * ka - rho)) <= 1e-12
            assert np.max(np.abs(pm[:, 0] + gamma * kbx - m[:, 0])) <= 1e-12
            assert np.max(np.abs(pm[:, 1] + gamma * kby - m[:, 1])) <= 1e-12

    @pytest.mark.parametrize("gamma", [0.002, 0.7, 1.0])
    def test_is_the_moreau_formula_bit_for_bit(self, gamma):
        # prox_transport builds rho - gamma a* and m - gamma b* in the
        # kernel's outputs; that must round exactly like the formula,
        # signed zeros included, and leave the inputs alone
        rng = np.random.default_rng(9)
        n = 3000
        rho = rng.uniform(-3, 3, n)
        m = rng.uniform(-3, 3, (n, 2))
        rho[:20] = 0.0
        rho[20:40] = -0.0
        m[:30] = 0.0
        m[30:40] = -0.0
        rho0, m0 = rho.copy(), m.copy()
        pa, pbx, pby = project_paraboloid(rho / gamma, m[:, 0] / gamma,
                                          m[:, 1] / gamma)
        pr, pm = prox_transport(rho, m, gamma)
        assert pr.tobytes() == (rho - gamma * pa).tobytes()
        assert pm.tobytes() == (m - gamma * np.column_stack([pbx, pby])).tobytes()
        assert rho.tobytes() == rho0.tobytes() and m.tobytes() == m0.tobytes()

    def test_output_density_nonnegative(self):
        rng = np.random.default_rng(8)
        rho = rng.uniform(-2, 2, 500)
        m = rng.uniform(-2, 2, (500, 2))
        pr, _ = prox_transport(rho, m, 0.7)
        assert np.min(pr) >= -1e-13

    def test_prox_by_scalar_minimization(self):
        # direct numeric check of the prox definition on a handful of points:
        # minimize |m|^2/rho + (1/(2 g)) |(rho,m)-(r0,m0)|^2 over the domain
        g = 0.8
        for r0, m0 in ((1.0, 0.6), (0.2, -1.1), (-0.5, 0.9)):
            pr, pm = prox_transport(np.array([r0]), np.array([[m0, 0.0]]), g)

            def val(t):
                rho, mx = t
                if rho <= 1e-9:
                    return 1e9 if abs(mx) > 1e-12 else (
                        (rho - r0) ** 2 + (mx - m0) ** 2) / (2 * g)
                return mx * mx / rho + ((rho - r0) ** 2 + (mx - m0) ** 2) / (2 * g)

            from scipy.optimize import minimize

            best = min(
                minimize(val, x0, method="Nelder-Mead",
                         options={"xatol": 1e-10, "fatol": 1e-14}).fun
                for x0 in ([max(r0, 0.1), m0], [0.5, 0.0], [1.0, 0.5])
            )
            assert val([pr[0], pm[0, 0]]) <= best + 1e-6

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            prox_transport(np.ones(2), np.zeros((2, 2)), 0.0)


class TestSourceProxes:
    def test_l2l2_closed_form_grid(self):
        z = np.linspace(-40, 40, 1000)
        for g in (0.1, 1.0, 7.5):
            assert np.array_equal(prox_source_l2l2(z, g), z / (1.0 + g))

    def test_l1l1_closed_form_grid(self):
        z = np.linspace(-40, 40, 1000)
        for g in (0.1, 1.0, 7.5):
            out = prox_source_l1l1(z, g)
            expect = np.where(np.abs(z) <= g / 2, 0.0, z - 0.5 * g * np.sign(z))
            assert np.allclose(out, expect, atol=1e-15)

    def test_l1l1_kills_small_values(self):
        assert prox_source_l1l1(np.array([0.4]), 1.0)[0] == 0.0

    def test_huber_single_node(self):
        # w=1, beta=0.1, gamma=1, z=5: minimize (s-.05)^2 + (s-5)^2/2 -> 1.7
        out = prox_source_l2huber(np.array([5.0]), 1.0, 0.1, np.array([1.0]))
        assert abs(out[0] - 1.7) < 1e-7

    def test_huber_single_node_golden_section(self):
        z, g, beta, w = 3.3, 0.6, 0.25, 0.8

        def obj(s):
            return g * (w * huber(s, beta)) ** 2 + 0.5 * w * (s - z) ** 2

        ref = minimize_scalar(obj, bounds=(-1, 10), method="bounded",
                              options={"xatol": 1e-12}).x
        out = prox_source_l2huber(np.array([z]), g, beta, np.array([w]))
        assert abs(out[0] - ref) < 1e-6

    def test_huber_slice_against_numeric_minimizer(self):
        rng = np.random.default_rng(17)
        n = 6
        w = rng.uniform(0.5, 1.5, n)
        z = rng.uniform(-2, 4, n)
        g, beta = 0.9, 0.15
        out = prox_source_l2huber(z, g, beta, w)

        def obj(s):
            tot = w @ huber(s, beta)
            return g * tot * tot + 0.5 * w @ ((s - z) ** 2)

        from scipy.optimize import minimize

        ref = minimize(obj, z, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000})
        assert obj(out) <= ref.fun + 1e-9

    def test_huber_gamma_zero_is_identity(self):
        z = np.array([1.0, -2.0, 3.0, 0.5])
        out = prox_source_l2huber(z, 0.0, 0.1, np.ones(2))
        assert np.array_equal(out, z)

    def test_huber_multislice_decouples(self):
        w = np.array([0.3, 0.7])
        z = np.array([1.0, -1.0, 4.0, 2.0])  # two slices of two nodes
        both = prox_source_l2huber(z, 1.2, 0.1, w)
        first = prox_source_l2huber(z[:2], 1.2, 0.1, w)
        second = prox_source_l2huber(z[2:], 1.2, 0.1, w)
        assert np.allclose(both, np.concatenate([first, second]), atol=1e-12)

    def test_huber_shape_mismatch(self):
        with pytest.raises(ValueError):
            prox_source_l2huber(np.ones(5), 1.0, 0.1, np.ones(2))

    def test_huber_single_node_linear_regime(self):
        # far past the threshold the node stays linear, so the dual root
        # is mu = 2 gamma (z - beta/2) / (1 + 2 gamma) in closed form
        z, g, beta = 100.0, 50.0, 0.1
        out = prox_source_l2huber(np.array([z]), g, beta, np.array([1.0]))
        expect = z - 2.0 * g * (z - 0.5 * beta) / (1.0 + 2.0 * g)
        assert abs(out[0] - expect) <= 1e-13 * z

    def test_huber_zero_slices_stay_zero(self):
        w = np.array([0.2, 0.5, 0.3])
        z = np.array([0.0, 0.0, 0.0, 3.0, -0.01, 0.7, 0.0, 0.0, 0.0])
        out = prox_source_l2huber(z, 2.0, 0.1, w)
        assert np.array_equal(out[:3], np.zeros(3))
        assert np.array_equal(out[6:], np.zeros(3))
        assert np.all(np.abs(out[3:6]) < np.abs(z[3:6]))

    def test_huber_all_linear_slices(self):
        # every node stays past its breakpoint at the root: the slice
        # cost is affine in mu and the root is 2 gamma (Lsum - beta W/2)
        # / (1 + 2 gamma W), with no quadratic node left for the cubic
        rng = np.random.default_rng(3)
        w = rng.uniform(0.1, 1.0, 7) / 7
        zs = rng.choice([-1.0, 1.0], (4, 7)) * rng.uniform(50.0, 80.0, (4, 7))
        g, beta = 0.05, 0.1
        out = prox_source_l2huber(zs.ravel(), g, beta, w).reshape(zs.shape)
        az = np.abs(zs)
        mu = 2.0 * g * ((az - 0.5 * beta) @ w) / (1.0 + 2.0 * g * w.sum())
        assert np.all(az > beta + mu[:, None])
        expect = zs - mu[:, None] * np.sign(zs)
        assert np.max(np.abs(out - expect)) <= 1e-13 * np.max(az)

    def test_huber_tied_magnitudes(self):
        # nodes of equal |z| cross their breakpoint together, so one pass
        # moves all of them out of the linear set; equal |z| give equal
        # |s| and the result matches the bisection reference
        w = np.full(6, 1.0 / 6.0)
        for level in (0.1, 0.15, 0.3, 2.0):
            zs = level * np.array([[1.0, -1.0, 1.0, 1.0, -1.0, 1.0],
                                   [1.0, -1.0, 0.5, 0.5, -0.5, 0.0]])
            out = prox_source_l2huber(zs.ravel(), 1.5, 0.1, w).reshape(zs.shape)
            assert np.all(np.abs(out[0]) == np.abs(out[0, 0]))
            assert np.all(np.abs(out[1, 2:5]) == np.abs(out[1, 2]))
            assert np.array_equal(np.sign(out), np.sign(zs))
            ref = _bisection_slices_argmin(zs, w, 1.5, 0.1)
            assert np.max(np.abs(out - ref)) <= 1e-13 * level

    def test_huber_passes_bounded_by_linear_nodes(self, monkeypatch):
        # each pass solves one cubic per slice and drops at least one node
        # from the linear set, so it takes at most #{|z| > beta} + 1 passes
        from otsource import _kernels

        rng = np.random.default_rng(8)
        passes = []
        original = _kernels.largest_cubic_root

        def counted(m, r):
            passes[-1] += 1
            return original(m, r)

        monkeypatch.setattr(_kernels, "largest_cubic_root", counted)
        for _ in range(200):
            nodes = int(rng.integers(1, 30))
            w = rng.uniform(0.1, 1.0, nodes) / nodes
            z = 10.0 ** rng.uniform(-2, 1) * rng.standard_normal(nodes)
            gamma, beta = 10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-3, 0)
            passes.append(0)
            prox_source_l2huber(z, gamma, beta, w)
            assert 1 <= passes[-1] <= np.count_nonzero(np.abs(z) > beta) + 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_huber_non_finite_raises(self, bad):
        z = np.ones(6)
        z[4] = bad
        with pytest.raises(RootFindFailure, match="non-finite"):
            prox_source_l2huber(z, 1.0, 0.1, np.full(3, 1.0 / 3.0))


def _bisection_slices_argmin(zs, w, gamma, beta):
    """Reference slice prox: bisection on the dual root of every slice.

    The dual f(mu) = mu - 2 gamma T(s(mu)) is increasing with
    f(0) <= 0 <= f(2 gamma T(z)); halving that bracket until its width
    is 1e-15 * max(1, 2 gamma T(z)) pins the root without the regime
    sets and the cubic that the solver's active-set iteration uses.
    """

    def shrink(mu):
        mu_c = mu[:, None]
        quad = np.abs(zs) <= beta + mu_c
        return np.where(quad, zs / (1.0 + mu_c / beta), zs - mu_c * np.sign(zs))

    hi = 2.0 * gamma * (huber(zs, beta) @ w)
    lo = np.zeros(zs.shape[0])
    tol = 1e-15 * np.maximum(1.0, hi)
    for _ in range(2000):
        if np.all(hi - lo <= tol):
            break
        mid = 0.5 * (lo + hi)
        up = mid - 2.0 * gamma * (huber(shrink(mid), beta) @ w) > 0.0
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    assert np.all(hi - lo <= tol)
    return shrink(0.5 * (lo + hi))


def test_huber_prox_matches_bisection():
    # random multi-slice inputs over the scales the solver meets and
    # beyond: every case agrees with the bisection root to 1e-10 of the
    # input scale
    rng = np.random.default_rng(41)
    for _ in range(300):
        nslices = int(rng.integers(1, 6))
        nodes = int(rng.choice([1, 3, 25, 289]))
        scale = 10.0 ** rng.uniform(-6, 3)
        gamma = 10.0 ** rng.uniform(-4, 2)
        beta = 10.0 ** rng.uniform(-4, 1)
        zs = scale * rng.standard_normal((nslices, nodes))
        zs *= rng.uniform(0.0, 1.0, (nslices, 1))
        w = rng.uniform(0.1, 1.0, nodes) / nodes
        out = prox_source_l2huber(zs.ravel(), gamma, beta, w)
        ref = _bisection_slices_argmin(zs, w, gamma, beta)
        gap = np.max(np.abs(out.reshape(zs.shape) - ref))
        assert gap <= 1e-10 * np.max(np.abs(zs)), (scale, gamma, beta, gap)


def test_l2huber_prox_minimizes_reported_energy_plus_distance():
    """The solver's l2huber prox output y of z minimizes

        gamma * source_energy(s) + 1/(2 delta) * sum_i ell_i (s_i - z_i)^2,

    the reported source energy plus the solver metric.  The slicewise
    prox assumes ell = tau_k * w_i (trapezoid time weight times spatial
    slice weight), which holds exactly on a periodic mesh, so that is
    the mesh used here.  On a Neumann mesh ell differs from tau_k * w_i
    on the first and last slices, by up to all of ell at a corner node,
    and with the same data random perturbations of y lower this
    objective by 3.6e-5 relative: that gap is open, ROADMAP item 4.
    """
    mesh = SpaceTimeMesh(4, 3, bc="periodic")
    w = mesh.slice_weights
    ell = mesh.lumped_mass()
    assert np.allclose(ell, np.kron(mesh.time_weights(), w), rtol=1e-14, atol=0.0)
    rng = np.random.default_rng(21)
    gamma, delta, beta = 0.8, 1.7, 0.1
    model = SourceModel("l2huber", beta=beta)
    z = rng.uniform(-1.0, 2.0, mesh.n_dofs)
    y = prox_source_l2huber(z, gamma, beta, w)

    def objective(s):
        distance = float(ell @ (s - z) ** 2) / (2.0 * delta)
        return gamma * source_energy(s, model, delta, mesh) + distance

    best = objective(y)
    for scale in (1e-1, 1e-2, 1e-4, 1e-6):
        for _ in range(40):
            d = scale * rng.standard_normal(mesh.n_dofs)
            assert objective(y + d) >= best * (1.0 - 1e-13), scale


class TestSourceModel:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            SourceModel("l2")
        with pytest.raises(ValueError):
            SourceModel("l2huber", beta=0.0)

    def test_defaults(self):
        model = SourceModel()
        assert model.kind == "l2huber"
        assert model.beta == 0.1
