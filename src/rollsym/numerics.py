"""The two numerical kernels shared by the geometry layers: one central
difference and one numerical rank with its spectral gap.

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
