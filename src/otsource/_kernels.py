"""Projection kernel of the transport prox.

Projects batches of points (a, b) in R x R^2 onto the convex set
    K = { (a, b) : a + |b|^2 / 4 <= 0 }.
Feasible points pass through unchanged.  For the rest, the nearest
boundary point is

    b* = b / s,   a* = a - lam,   s = 1 + lam/2,

where the multiplier lam >= 0 makes (a - lam) s^2 + |b|^2 / 4 vanish.
In s that is the cubic s^3 - p s^2 - r = 0 with p = (a + 2)/2 and
r = |b|^2 / 8, whose largest root is the one positive root; it is taken
in closed form by largest_cubic_root, polished by one Newton step in
lam, and a* is finally clamped onto the boundary so the output never
violates K.  The Huber source prox in prox.py solves the same cubic.
"""

import numpy as np

from .exceptions import RootFindFailure

BACKEND = "numpy-cubic"


def project_paraboloid(a, bx, by):
    """Batch projection onto K; returns new arrays (a*, bx*, by*)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    bx = np.ascontiguousarray(bx, dtype=np.float64)
    by = np.ascontiguousarray(by, dtype=np.float64)
    if not (a.shape == bx.shape == by.shape) or a.ndim != 1:
        raise ValueError("expected matching one-dimensional arrays")

    q = bx * bx + by * by
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(q))):
        raise RootFindFailure("non-finite input to paraboloid projection")

    idx = np.nonzero(a + 0.25 * q > 0.0)[0]
    if idx.size == 0:
        return a.copy(), bx.copy(), by.copy()

    av = a[idx]
    qv = q[idx]
    del q
    s = largest_cubic_root((av + 2.0) / 6.0, 0.125 * qv)

    # one Newton step on (a - lam) s^2 + |b|^2/4 = 0 polishes the root
    lam = 2.0 * (s - 1.0)
    f = (av - lam) * s * s + 0.25 * qv
    lam = lam - f / (s * (av - 1.0 - 1.5 * lam))

    scale = 1.0 / (1.0 + 0.5 * lam)
    pbx = bx[idx] * scale
    pby = by[idx] * scale
    # the clamp absorbs the last rounding error: a* + |b*|^2/4 <= 0 exactly
    pa = np.minimum(av - lam, -0.25 * (pbx * pbx + pby * pby))

    # the full-size outputs are made last, once q and the root's
    # temporaries are gone, so the kernel's peak holds none of them
    del av, qv, s, f, lam, scale
    out_a, out_bx, out_by = a.copy(), bx.copy(), by.copy()
    out_a[idx] = pa
    out_bx[idx] = pbx
    out_by[idx] = pby
    return out_a, out_bx, out_by


def largest_cubic_root(m, r):
    """Largest real root of s^3 - 3 m s^2 - r = 0, elementwise, for r >= 0.

    Cardano's formula is evaluated everywhere and the trigonometric
    form, with its arccos and cos, only where the cubic has three real
    roots (which needs m < 0), overwriting those; each entry gets the
    value of its own branch, so a batch equals the concatenation of its
    parts.  m = r = 0 gives NaN.
    """
    m3 = m * m * m
    u = m3 + 0.5 * r
    disc = r * (m3 + 0.25 * r)
    with np.errstate(divide="ignore", invalid="ignore"):
        # disc >= 0 implies u >= r/4 >= 0, so this sum never cancels
        t1 = np.cbrt(u + np.sqrt(np.maximum(disc, 0.0)))
        s = t1 + m * m / t1 + m
        # disc < 0 means three real roots and p < 0; the largest root
        # belongs to the smallest angle
        three = np.nonzero(disc < 0.0)[0]
        if three.size:
            m_three = m[three]
            phi = np.arccos(np.clip(u[three] / -m3[three], -1.0, 1.0))
            s[three] = m_three - 2.0 * m_three * np.cos(phi / 3.0)
    return s
