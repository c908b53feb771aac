"""The numerical kernels shared by the geometry layers: one central
difference, one numerical rank with its gap and cut margin, one
round-off rule for curvatures that agree, and the default grid step of a
roll.

The finite-difference bracket oracle (`brackets.bracket_fd` with its chart
differential) deliberately keeps its own stencil, so that it never shares
code with the structured path it checks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GeometryError

DEFAULT_STEP = 1e-3  # the default grid step of a roll, and of the run's `step` tolerance


def stencil_offsets(h):
    """The times at which central_diff takes its samples, in its order."""
    return (2 * h, h, -h, -2 * h)


def central_diff(values, h):
    """Derivative at 0 by the fourth-order central difference with step h,
    from the four samples at stencil_offsets(h) in that order; the samples
    are numbers or arrays alike."""
    if len(values) != 4:
        raise GeometryError(f"central differences take 4 samples, not {len(values)}")
    return (-values[0] + 8 * values[1] - 8 * values[2] + values[3]) / (12 * h)


RANK_TOL = 1e-8  # the default relative rank cut, and of the run's `rank` tolerance
CURVATURE_ROUNDOFF = 1e-12


def within_roundoff(diff, *terms):
    """Whether diff, the difference of curvature terms (numbers or arrays), is
    their round-off: at most CURVATURE_ROUNDOFF of the largest, at every scale."""
    return np.abs(diff).max() <= CURVATURE_ROUNDOFF * max(np.abs(t).max() for t in terms)


# rows no longer than this share of their own layer's longest row are
# round-off, which equilibrate drops before it scales the layer.  In `growth`
# over seeds 0-199 at n = 2, 3, 4, the rows of a depth-3 flag (closed forms
# all) that vanish analytically come out exactly 0 or below 5e-16 of their
# layer's longest, and the genuine ones as long as it to round-off.
ROW_FLOOR = 1e-10


def equilibrate(rows):
    """One layer of the rank rule: rows no longer than ROW_FLOOR times the
    layer's longest row are round-off and become 0 (not noise of unit
    length), and the rest are divided by the longest, since layers of very
    different lengths would spread the singular values across the cut."""
    norms = np.sqrt(np.add.reduce(rows * rows, axis=1))  # np.linalg.norm's, without its checks
    longest = norms.max(initial=0.0)
    kept = norms > ROW_FLOOR * longest
    return (kept / longest if longest else np.zeros(len(rows)))[:, None] * rows


def numerical_rank(mat, tol):
    """(rank, singular values, gap) of a matrix: the rank counts singular
    values above tol times the largest, and the gap is the ratio across
    that cut (inf when nothing lies below it, or for the zero matrix).
    Layered rows pass through equilibrate first, one layer at a time."""
    mat = np.asarray(mat, dtype=float)
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[0] == 0.0:
        return 0, sv, math.inf
    rank = int(np.count_nonzero(sv > tol * sv[0]))
    gap = math.inf
    if 0 < rank < len(sv) and sv[rank] > 0:
        gap = float(sv[rank - 1]) / float(sv[rank])  # inf, unwarned, past the float range
    return rank, sv, gap


def cut_margin(sv, tol):
    """The smallest factor by which a nonzero singular value of sv (largest
    first) clears the rank cut tol times the largest, on either side, inf
    when sv is all zero: a rank decision is ambiguous when this is small."""
    sv = np.asarray(sv, dtype=float)
    if sv[0] == 0.0:
        return math.inf
    cut, s = tol * sv[0], sv[sv != 0.0]
    return float(np.where(s > cut, s / cut, cut / s).min())
