"""Proximal operators of the splitting scheme.

The path energy splits into a transport part, handled per tetrahedron
through a projection onto the paraboloid set

    K = { (a, b) : a + |b|^2 / 4 <= 0 },

and a source part, handled per time slice.  The transport integrand is
positively one-homogeneous, so its proximal map follows from the Moreau
identity
    prox_{g F}(x) = x - g * proj_K(x / g).

Three source penalties are supported.  In the solver metric, which
weighs node i of z by ell_i / delta (ell the integrals of the hat
functions), the squared-L2 shrinkage z/(1+g) is the prox of
(1/(2 delta)) sum_i ell_i z_i^2 and the soft threshold at g/2 that of
(1/(2 delta)) sum_i ell_i |z_i|.  Neither is the functional that
diagnostics.source_energy reports for its model (ROADMAP item 4).  The
default model applies the squared L2-in-time norm of a Huber cost of
the slice, which has no closed form and is minimized exactly by a dual
bisection per slice; the slices decouple because the prox weighs
penalty and distance of slice k by the same trapezoid time weight,
which equals the metric wherever ell_i = tau_k w_i (every slice with
periodic boundaries, the interior slices with Neumann ones).
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .exceptions import NonConvergence

SOURCE_KINDS = ("none", "l2l2", "l1l1", "l2huber")


@dataclass
class SourceModel:
    """Choice of source penalty.

    kind : one of "none", "l2l2", "l1l1", "l2huber"
    beta : Huber threshold, used only by "l2huber"
    """

    kind: str = "l2huber"
    beta: float = 0.1

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ValueError(f"source kind must be one of {SOURCE_KINDS}, got {self.kind!r}")
        if self.kind == "l2huber" and not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")


def huber(s, beta):
    """Linear-growth cost: s^2/(2 beta) below the threshold, |s| - beta/2 above."""
    s = np.asarray(s, dtype=float)
    out = np.where(
        np.abs(s) <= beta, s * s / (2.0 * beta), np.abs(s) - 0.5 * beta
    )
    return out if out.ndim else float(out)


def prox_transport(rho, m, gamma):
    """Proximal map of the transport energy, elementwise over tetrahedra.

    Input and output are (n,) density values and (n, 2) momenta.  The
    map never leaves (rho, m) with rho < -gamma * small: outputs with
    rho > 0 get |m|^2 <= 4 rho-feasible structure through the projection.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    rho = np.asarray(rho, dtype=float)
    m = np.asarray(m, dtype=float)
    pa, pbx, pby = _kernels.project_paraboloid(
        rho / gamma, m[:, 0] / gamma, m[:, 1] / gamma
    )
    out_rho = rho - gamma * pa
    out_m = m - gamma * np.column_stack([pbx, pby])
    return out_rho, out_m


def prox_source_l2l2(z, gamma):
    """Pointwise shrinkage z / (1 + gamma) of the squared-L2 penalty."""
    if not gamma >= 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    return np.asarray(z, dtype=float) / (1.0 + gamma)


def prox_source_l1l1(z, gamma):
    """Soft threshold at gamma / 2."""
    if not gamma >= 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.maximum(np.abs(z) - 0.5 * gamma, 0.0)


def prox_source_l2huber(z, gamma, beta, slice_weights, grad_tol_factor=1e-15, maxit=2000):
    """Slicewise proximal map of the squared Huber-integral penalty.

    For each time slice s solves

        min_s  gamma * (sum_i w_i r_beta(s_i))^2
               + 1/2 * sum_i w_i (s_i - z_i)^2

    where w are the spatial slice quadrature weights; the common 1/delta
    factor of penalty and metric cancels, so delta is not an argument.
    z is a P1 field whose slices are contiguous blocks of
    len(slice_weights) values.  Raises NonConvergence when a slice
    exceeds the iteration cap, which usually signals a step size gamma
    too aggressive for the data scale.
    """
    if not gamma >= 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    z = np.asarray(z, dtype=float)
    w = np.asarray(slice_weights, dtype=float)
    if z.size % w.size:
        raise ValueError(
            f"field of size {z.size} does not split into slices of {w.size}"
        )
    if gamma == 0.0:
        return z.copy()
    nslices = z.size // w.size
    zs = z.reshape(nslices, w.size)
    out = _huber_slices_argmin(zs, w, gamma, beta, grad_tol_factor, maxit)
    return out.reshape(z.shape)


def _huber_slices_argmin(zs, w, gamma, beta, grad_tol_factor, maxit):
    """Exact slice minimizers through the scalar dual of the slice total.

    Writing T(s) = sum_i w_i r_beta(s_i), the slice objective
    gamma T^2 + 1/2 sum_i w_i (s_i - z_i)^2 couples its nodes only
    through the scalar T, and gamma T^2 = max_{mu >= 0} (mu T -
    mu^2 / (4 gamma)).  Swapping min and max decouples the nodes: at
    fixed mu each node solves min_s mu r_beta(s) + 1/2 (s - z)^2, the
    Huber shrinkage s(mu) = z / (1 + mu/beta) where |z| <= beta + mu
    and z - mu sign(z) beyond.  The dual optimum is the root of
    f(mu) = mu - 2 gamma T(s(mu)), which is increasing with
    f(0) <= 0 <= f(2 gamma T(z)), so bisection on that bracket solves
    every slice in the same vector pass; the result is exact up to the
    bracket width.  grad_tol_factor sets the relative bracket-width
    target and maxit caps the bisection steps.
    """
    zs = np.asarray(zs, dtype=float)
    nslices, _ = zs.shape

    def shrink(mu):
        mu_c = mu[:, None]
        quad = np.abs(zs) <= beta + mu_c
        return np.where(quad, zs / (1.0 + mu_c / beta), zs - mu_c * np.sign(zs))

    def slice_total(s):
        return huber(s, beta) @ w

    hi = 2.0 * gamma * slice_total(zs)
    lo = np.zeros(nslices)
    tol = grad_tol_factor * np.maximum(1.0, hi)
    for _ in range(maxit):
        if np.all(hi - lo <= tol):
            break
        mid = 0.5 * (lo + hi)
        up = mid - 2.0 * gamma * slice_total(shrink(mid)) > 0.0
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    if np.any(hi - lo > tol):
        raise NonConvergence(
            "dual bisection for the Huber source prox hit its iteration cap",
            maxit,
            float(np.max(hi - lo)),
        )
    return shrink(0.5 * (lo + hi))
