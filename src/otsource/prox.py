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
the slice.  Its prox reduces to the root of one increasing scalar dual
per slice, found exactly by a few closed-form cubic solves (see
_huber_slices_argmin); the slices decouple because the prox weighs
penalty and distance of slice k by the same trapezoid time weight,
which equals the metric wherever ell_i = tau_k w_i (every slice with
periodic boundaries, the interior slices with Neumann ones).
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .exceptions import RootFindFailure

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
        if self.kind == "l2huber" and not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")


def huber(s, beta):
    """Linear-growth cost: s^2/(2 beta) below the threshold, |s| - beta/2 above."""
    s = np.asarray(s, dtype=float)
    out = np.where(
        np.abs(s) <= beta, s * s / (2.0 * beta), np.abs(s) - 0.5 * beta
    )
    return out if out.ndim else float(out)


def prox_transport(rho, m, gamma):
    """Proximal map of the transport energy, elementwise over tetrahedra.

    Input and output are (n,) density values and (n, 2) momenta.  With
    (a*, b*) the projection of (rho, m) / gamma onto K and lam >= 0 its
    multiplier, the output is rho = gamma lam >= 0 and m = rho b*/2, up
    to rounding, so |m|^2 / rho = rho |b*|^2 / 4 is finite and vacuum
    carries no momentum.  Inputs already in gamma K, those with
    rho + |m|^2 / (4 gamma) <= 0, map to (0, 0) up to rounding.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    rho = np.asarray(rho, dtype=float)
    m = np.asarray(m, dtype=float)
    pa, pbx, pby = _kernels.project_paraboloid(
        rho / gamma, m[:, 0] / gamma, m[:, 1] / gamma
    )
    # rho - gamma a* and m - gamma b*, built in place: negating the
    # product is exact, so rho + (-gamma a*) rounds like rho - gamma a*
    pa *= -gamma
    pa += rho
    out_m = np.empty_like(m)
    out_m[:, 0] = pbx
    out_m[:, 1] = pby
    out_m *= -gamma
    out_m += m
    return pa, out_m


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


def prox_source_l2huber(z, gamma, beta, slice_weights):
    """Slicewise proximal map of the squared Huber-integral penalty.

    For each time slice s solves

        min_s  gamma * (sum_i w_i r_beta(s_i))^2
               + 1/2 * sum_i w_i (s_i - z_i)^2

    where w are the spatial slice quadrature weights; the common 1/delta
    factor of penalty and metric cancels, so delta is not an argument.
    z is a P1 field whose slices are contiguous blocks of
    len(slice_weights) values.  Raises RootFindFailure when z holds a
    NaN or an infinity.
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
    if not np.all(np.isfinite(z)):
        raise RootFindFailure("non-finite input to the Huber source prox")
    zs = z.reshape(z.size // w.size, w.size)
    return _huber_slices_argmin(zs, w, gamma, beta).reshape(z.shape)


def _huber_slices_argmin(zs, w, gamma, beta):
    """Exact slice minimizers through the scalar dual of the slice total.

    Writing T(s) = sum_i w_i r_beta(s_i), the slice objective
    gamma T^2 + 1/2 sum_i w_i (s_i - z_i)^2 couples its nodes only
    through the scalar T, and gamma T^2 = max_{mu >= 0} (mu T -
    mu^2 / (4 gamma)).  Swapping min and max decouples the nodes: at
    fixed mu each node solves min_s mu r_beta(s) + 1/2 (s - z)^2, the
    Huber shrinkage s(mu) = z / (1 + mu/beta) where |z| <= beta + mu
    and z - mu sign(z) beyond.  The dual optimum is the root of
    f(mu) = mu - 2 gamma T(s(mu)), which is increasing with f(0) <= 0.

    With the set L of linear-regime nodes held fixed, the dual
    F_L(mu) = mu - 2 gamma T_L(mu) vanishes where x = beta + mu solves
    the transport kernel's cubic x^3 - p x^2 - r = 0, with

        p = beta + c,   c = 2 gamma (Lsum - beta W/2) / (1 + 2 gamma W),
        r = gamma beta Q / (1 + 2 gamma W),

    W and Lsum the sums of w and w |z| over L, Q that of w z^2 over the
    rest.  L holds only nodes with |z| > beta, so p >= beta > 0, r >= 0
    and Cardano's branch applies; mu = x - beta is taken as c + r/x^2,
    which is exactly c when r = 0 (and 0 when gamma = 0).

    Starting from mu = 0, each pass takes L = {|z| > beta + mu} and sets
    mu to the root of F_L, until L repeats.  A node of L past its
    breakpoint costs less in the linear regime than in the quadratic
    one, so F_L >= f above the mu that L was taken at, where the two
    agree and are <= 0: the new mu lies between that mu and the root of
    f (the max only guards rounding), mu never decreases and L only
    shrinks.  Once L repeats it is the regime set at mu, so f(mu) =
    F_L(mu) = 0 exactly, after at most #{|z| > beta} + 1 passes.
    """
    az = np.abs(zs)
    excess = az - 0.5 * beta
    z2 = zs * zs
    mu = np.zeros(zs.shape[0])
    lin = az > beta
    while True:
        scale = 1.0 / (1.0 + 2.0 * gamma * (lin @ w))
        c = 2.0 * gamma * scale * (np.where(lin, excess, 0.0) @ w)
        r = gamma * beta * scale * (np.where(lin, 0.0, z2) @ w)
        x = _kernels.largest_cubic_root((beta + c) / 3.0, r)
        mu = np.maximum(c + r / (x * x), mu)
        lin_next = az > beta + mu[:, None]
        if np.array_equal(lin_next, lin):
            break
        lin = lin_next
    mu_c = mu[:, None]
    return np.where(lin, zs - mu_c * np.sign(zs), zs / (1.0 + mu_c / beta))
