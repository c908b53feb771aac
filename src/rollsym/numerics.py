"""The numerical kernels shared by the geometry layers: one central
difference, one numerical rank with its spectral gap, and the batched
matrix exponential and running products of the rolling integrator.

The finite-difference bracket oracle (`brackets.bracket_fd`, through the
chart differential in `rolling`) deliberately keeps its own stencil, so
that it never shares code with the structured path it checks.
"""

from __future__ import annotations

import math

import numpy as np

from .spaces import GeometryError


def central_diff(sample, h, order=2):
    """Derivative at 0 of t -> sample(t) by the central difference of
    order 2 or 4 with step h.  Array values are differenced as a whole,
    tuple values slot by slot (the result is then a tuple)."""
    if order not in (2, 4):
        raise GeometryError(f"central differences have order 2 or 4, not {order!r}")
    values = [sample(t) for t in ((2 * h, h, -h, -2 * h) if order == 4 else (h, -h))]
    if isinstance(values[0], tuple):
        return tuple(_weigh(slot, h) for slot in zip(*values))
    return _weigh(values, h)


def _weigh(f, h):
    if len(f) == 4:
        return (-f[0] + 8 * f[1] - 8 * f[2] + f[3]) / (12 * h)
    return (f[0] - f[1]) / (2 * h)


def numerical_rank(mat, tol):
    """(rank, singular values, gap) of a matrix: the rank counts singular
    values above tol times the largest, and the gap is the ratio across
    that cut (inf when nothing lies below it, or for the zero matrix)."""
    sv = np.linalg.svd(np.asarray(mat), compute_uv=False)
    if sv[0] == 0.0:
        return 0, sv, math.inf
    rank = int(np.sum(sv > tol * sv[0]))
    gap = math.inf
    if 0 < rank < len(sv) and sv[rank] > 0:
        gap = sv[rank - 1] / sv[rank]
    return rank, sv, gap


# Taylor polynomials are evaluated on matrices scaled to 1-norm at most this
EXPM_THETA = 0.5
UNIT_ROUNDOFF = 2.0**-53


def expm1_stack(a):
    """exp(a) - I for every matrix of a stack (..., m, m), in one pass of
    batched products: scaling and squaring of the Taylor polynomial whose
    first omitted term, at the largest 1-norm theta, lies below the unit
    round-off of the result (about theta).

    The identity is left out, so that the exponential of a small generator
    keeps all its digits; rounding exp(a) itself would make the same error at
    every step of a constant generator, and a product of n steps would drift
    by n round-offs."""
    a = np.asarray(a, dtype=float)
    norm = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    if not math.isfinite(norm):
        raise GeometryError("matrix exponential of a non-finite matrix")
    squarings = max(0, math.ceil(math.log2(norm / EXPM_THETA))) if norm > 0 else 0
    a = a / 2.0**squarings
    theta = norm / 2.0**squarings
    degree, omitted = 1, theta * theta / 2  # omitted = theta^(degree + 1) / (degree + 1)!
    while omitted > UNIT_ROUNDOFF * theta:
        degree += 1
        omitted *= theta / (degree + 1)
    eye = np.eye(a.shape[-1])
    out = a / degree if degree > 1 else a
    for k in range(degree - 1, 0, -1):  # Horner: a (I + a/2 (I + a/3 (... (I + a/degree))))
        out = a @ (out + eye)
        if k > 1:
            out /= k
    for _ in range(squarings):  # (I + d)^2 = I + (2d + d d)
        out = 2 * out + out @ out
    return out


def running_products(d):
    """Running products of the stack of matrices I + d[i], returned without
    the identity: P[i] with I + P[i] = (I + d[0]) (I + d[1]) ... (I + d[i]),
    by a doubling scan of log2(len) batched products."""
    out = np.array(d, dtype=float)
    k = 1
    while k < len(out):
        out[k:] = out[:-k] + out[k:] + out[:-k] @ out[k:]
        k *= 2
    return out
