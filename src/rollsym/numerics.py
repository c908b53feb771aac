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


def stencil_offsets(h, order=2):
    """The times at which central_diff takes its samples, in its order."""
    if order not in (2, 4):
        raise GeometryError(f"central differences have order 2 or 4, not {order!r}")
    return (2 * h, h, -h, -2 * h) if order == 4 else (h, -h)


def central_diff(values, h):
    """Derivative at 0 by the central difference with step h, from the
    samples at stencil_offsets(h, order) in that order: two samples give
    order 2, four give order 4; the samples are numbers or arrays alike."""
    if len(values) == 4:
        return (-values[0] + 8 * values[1] - 8 * values[2] + values[3]) / (12 * h)
    if len(values) == 2:
        return (values[0] - values[1]) / (2 * h)
    raise GeometryError(f"central differences take 2 or 4 samples, not {len(values)}")


# rows shorter than this share of the longest row of the first layer are
# round-off, which numerical_rank drops before it equilibrates the layers.
# Every derivative of a depth-3 flag is a closed form, and in `growth` over
# seeds 0-199 at n = 2, 3, 4 the rows that vanish analytically come out
# exactly 0 or below 9e-16 of the generators' length, the shortest genuine
# ones at 0.63 of it.
ROW_FLOOR = 1e-10


def numerical_rank(mat, tol, layers=None):
    """(rank, singular values, gap) of a matrix: the rank counts singular
    values above tol times the largest, and the gap is the ratio across
    that cut (inf when nothing lies below it, or for the zero matrix).

    With `layers`, the row counts of consecutive blocks of rows, the rows
    are equilibrated first.  Rows shorter than ROW_FLOOR times the longest
    row of the first block are dropped, so that rows which vanish up to
    round-off are not scaled up into noise of unit length; then every block
    is divided by its longest remaining row.  Scaling a block changes no
    rank, but blocks of very different lengths would spread the singular
    values across the cut.  The singular values returned are those of the
    equilibrated rows."""
    mat = np.asarray(mat, dtype=float)
    if layers is not None:
        norms = np.linalg.norm(mat, axis=1)
        kept = norms > ROW_FLOOR * norms[: layers[0]].max(initial=0.0)
        scale = np.zeros(len(mat))
        for block in np.split(np.arange(len(mat)), np.cumsum(layers)[:-1]):
            longest = norms[block][kept[block]].max(initial=0.0)
            if longest > 0.0:
                scale[block] = np.where(kept[block], 1.0 / longest, 0.0)
        mat = scale[:, None] * mat
    sv = np.linalg.svd(mat, compute_uv=False)
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

