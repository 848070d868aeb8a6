import numpy as np
import pytest

from otsource._kernels import largest_cubic_root, project_paraboloid
from otsource.exceptions import RootFindFailure


def newton_projection(a, bx, by, tol=1e-15, maxit=200):
    """Independent oracle: the multiplier by safeguarded Newton steps.

    The cubic (a - lam) (1 + lam/2)^2 + |b|^2 / 4 has exactly one root
    in [0, a + |b|^2/4 + 1]; Newton steps that leave the shrinking
    bracket fall back to bisection, and the bracket endpoint with
    nonpositive value is returned.
    """
    a = np.asarray(a, dtype=float)
    bx = np.asarray(bx, dtype=float)
    by = np.asarray(by, dtype=float)
    q = bx * bx + by * by
    out_a, out_bx, out_by = a.copy(), bx.copy(), by.copy()
    idx = np.nonzero(a + 0.25 * q > 0.0)[0]
    av = a[idx]
    qv = q[idx]

    lo = np.zeros(idx.size)
    hi = av + 0.25 * qv + 1.0  # value there is provably negative
    lam = 0.5 * hi
    for _ in range(maxit):
        s = 1.0 + 0.5 * lam
        f = (av - lam) * s * s + 0.25 * qv
        pos = f > 0.0
        lo = np.where(pos, lam, lo)
        hi = np.where(pos, hi, lam)
        if np.all(hi - lo <= tol * (1.0 + hi)):
            break
        fp = s * (av - 1.0 - 1.5 * lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = lam - f / fp
        good = np.isfinite(newton) & (newton > lo) & (newton < hi)
        lam = np.where(good, newton, 0.5 * (lo + hi))

    scale = 1.0 / (1.0 + 0.5 * hi)
    out_a[idx] = av - hi
    out_bx[idx] = bx[idx] * scale
    out_by[idx] = by[idx] * scale
    return out_a, out_bx, out_by


def _random_points(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-3.0, 3.0, n)
    bx = rng.uniform(-4.0, 4.0, n)
    by = rng.uniform(-4.0, 4.0, n)
    return a, bx, by


EDGE_A = np.array([0.0, 1e-300, 1e12, -1e12, 0.0, 4.0])
EDGE_BX = np.array([0.0, 0.0, 1e6, 1.0, 1e-200, -2.0])
EDGE_BY = np.array([0.0, 0.0, -1e6, 1.0, 0.0, 2.0])


def _multiscale_points(seed):
    """Random points at scales 1e-6 to 1e6, plus the edge cases.

    A quarter of each scale gets a strongly negative a, which from scale
    10 up puts the cubic in its three-real-root regime.
    """
    rng = np.random.default_rng(seed)
    parts = [(EDGE_A, EDGE_BX, EDGE_BY)]
    for scale in 10.0 ** np.arange(-6, 7):
        a, bx, by = rng.uniform(-scale, scale, (3, 2000))
        a[:500] = -3.0 * np.abs(a[:500])
        parts.append((a, bx, by))
    return (np.concatenate(p) for p in zip(*parts))


def _slack(a, bx, by):
    return a + 0.25 * (bx * bx + by * by)


def test_matches_newton_oracle():
    a, bx, by = _multiscale_points(7)
    # the multiplier grows with the input scale, so the achievable
    # agreement in the density output degrades proportionally
    scale = np.maximum(1.0, np.abs(a) + 0.25 * (bx * bx + by * by))
    for r, c in zip(newton_projection(a, bx, by), project_paraboloid(a, bx, by)):
        assert np.max(np.abs(r - c) / scale) <= 1e-12


def test_output_never_leaves_the_set():
    a, bx, by = _multiscale_points(9)
    assert np.max(_slack(*project_paraboloid(a, bx, by))) <= 0.0


def test_reference_feasible_and_idempotent():
    a, bx, by = _random_points(2000, 11)
    oa, obx, oby = project_paraboloid(a, bx, by)
    assert np.max(_slack(oa, obx, oby)) <= 1e-12
    ra, rbx, rby = project_paraboloid(oa, obx, oby)
    assert np.max(np.abs(ra - oa)) <= 1e-12
    assert np.max(np.abs(rbx - obx)) <= 1e-12
    assert np.max(np.abs(rby - oby)) <= 1e-12


def test_reference_fixes_interior_points():
    a = np.array([-2.0, -1.0, -0.5])
    bx = np.array([0.5, 1.0, 0.0])
    by = np.array([-0.5, 1.0, 0.0])
    assert np.all(a + 0.25 * (bx * bx + by * by) <= 0)
    oa, obx, oby = project_paraboloid(a, bx, by)
    assert np.allclose(oa, a, atol=1e-14)
    assert np.allclose(obx, bx, atol=1e-14)
    assert np.allclose(oby, by, atol=1e-14)


def test_reference_raises_on_nonfinite():
    with pytest.raises(RootFindFailure):
        project_paraboloid(np.array([np.nan]), np.array([0.0]), np.array([0.0]))
    with pytest.raises(RootFindFailure):
        project_paraboloid(np.array([0.0]), np.array([np.inf]), np.array([0.0]))


def test_reference_shape_validation():
    with pytest.raises(ValueError):
        project_paraboloid(np.zeros(3), np.zeros(2), np.zeros(3))


def _has_three_real_roots(a, bx, by):
    # the kernel's discriminant, negative where the trigonometric form
    # of the root is taken
    m = (a + 2.0) / 6.0
    r = 0.125 * (bx * bx + by * by)
    return r * (m**3 + 0.25 * r) < 0.0


def test_mixed_branches_equal_separate_calls():
    rng = np.random.default_rng(11)
    a = rng.uniform(-30.0, 3.0, 4000)
    bx = rng.uniform(-8.0, 8.0, 4000)
    by = rng.uniform(-8.0, 8.0, 4000)
    active = a + 0.25 * (bx * bx + by * by) > 0.0
    three = _has_three_real_roots(a, bx, by) & active
    cardano = ~three
    assert three.sum() > 100 and (cardano & active).sum() > 100
    mixed = project_paraboloid(a, bx, by)
    for out, part_three, part_cardano in zip(
        mixed,
        project_paraboloid(a[three], bx[three], by[three]),
        project_paraboloid(a[cardano], bx[cardano], by[cardano]),
    ):
        assert np.array_equal(out[three], part_three)
        assert np.array_equal(out[cardano], part_cardano)


def _inside_points(n, seed):
    rng = np.random.default_rng(seed)
    bx, by = rng.uniform(-4.0, 4.0, (2, n))
    return -0.25 * (bx * bx + by * by) - rng.uniform(0.0, 2.0, n), bx, by


@pytest.mark.parametrize("points", [_inside_points(500, 2), _random_points(500, 3)],
                         ids=["all inside K", "mixed"])
def test_outputs_are_fresh_arrays_and_inputs_unchanged(points):
    before = [x.copy() for x in points]
    out = project_paraboloid(*points)
    for o in out:
        for x in points:
            assert not np.shares_memory(o, x)
    for x, x0 in zip(points, before):
        assert x.tobytes() == x0.tobytes()
    inside = _slack(*before) <= 0.0
    assert inside.any()
    for o, x0 in zip(out, before):
        assert o[inside].tobytes() == x0[inside].tobytes()


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_largest_cubic_root_against_companion_roots(sign):
    # m >= 0 takes Cardano's branch only; m < 0 with small r has three
    # real roots and takes the trigonometric one for some of them
    rng = np.random.default_rng(5)
    m = sign * 10.0 ** rng.uniform(-3.0, 2.0, 300)
    r = 10.0 ** rng.uniform(-6.0, 3.0, 300) * np.abs(m) ** 3
    s = largest_cubic_root(m, r)
    for mi, ri, si in zip(m, r, s):
        roots = np.roots([1.0, -3.0 * mi, 0.0, -ri])
        expect = np.max(roots[np.abs(roots.imag) <= 1e-7 * np.abs(roots)].real)
        assert abs(si - expect) <= 1e-8 * max(abs(expect), abs(mi))
