"""Bivectors, the wedge/so identification, and the rolling curvature.

Bivectors at a point are identified with skew endomorphisms of the tangent
space through (X ^ Y)Z = g(Z, Y)X - g(Z, X)Y.  Matrices are expressed in
the deterministic orthonormal frame of the base point, and the basis of
so(n) is ordered lexicographically: (0,1), (0,2), ..., (n-2, n-1).

The rolling curvature of a contact configuration q = (x, x_hat; A) is the
map  xi -> A R(xi) - R_hat(A xi) A  on bivectors (A xi denotes the
pushforward bivector); it measures the curvature mismatch seen through the
contact isometry and vanishes identically when both curvatures agree.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .numerics import numerical_rank
from .spaces import GeometryError

SKEW_TOL = 1e-9


@cache
def so_pairs(n):
    """Index pairs (i, j), i < j, in the global lexicographic order."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@cache
def _so_index(n):
    """so_pairs(n) as the two index arrays of the upper triangle."""
    return np.triu_indices(n, 1)


def so_dim(n):
    return n * (n - 1) // 2


def skew_to_vector(mat):
    """Coordinates of skew matrices (..., n, n) in the lexicographic basis."""
    mat = np.asarray(mat)
    i, j = _so_index(mat.shape[-1])
    return mat[..., i, j]


def vector_to_skew(vec, n):
    """Skew matrices (..., n, n) from coordinates (..., n(n-1)/2), of the
    coordinates' dtype."""
    vec = np.asarray(vec)
    i, j = _so_index(n)
    mat = np.zeros(vec.shape[:-1] + (n, n), vec.dtype)
    mat[..., i, j] = vec
    mat[..., j, i] = -vec
    return mat


def skew_part(mat):
    return 0.5 * (mat - np.swapaxes(mat, -1, -2))


def check_skew(mat, tol=SKEW_TOL, what="matrix"):
    res = np.abs(mat + np.swapaxes(mat, -1, -2)).max()
    if res > tol:
        raise GeometryError(f"{what} is not skew-symmetric (residual {res:.3e})")
    return mat


def wedge_matrix(a, b):
    """Matrix of a ^ b in an orthonormal frame, given frame coefficients;
    stacks of coefficients (..., n) broadcast to stacks of matrices."""
    a, b = np.asarray(a), np.asarray(b)
    return a[..., :, None] * b[..., None, :] - b[..., :, None] * a[..., None, :]


# -- rolling curvature --------------------------------------------------------
#
# These take a rolling state q (see rolling.RollingState) and work on the
# deterministic-frame matrix representations.


def rolling_curvature(q, xi):
    """Matrix (in the deterministic frames) of the map T_x M -> T_xhat Mhat
    given by A R(xi) - R_hat(A xi) A for a bivector xi at x, given as a
    skew matrix."""
    xi_mat = check_skew(np.asarray(xi, dtype=float), what="bivector matrix")
    A = q.isometry
    r = q.pair.space.curvature_matrix_apply(q.x, xi_mat)
    r_hat = q.pair.space_hat.curvature_matrix_apply(q.x_hat, A @ xi_mat @ A.T)
    return A @ r - r_hat @ A


def _bivector_operator(n, apply):
    """Matrix, in the lexicographic basis of bivectors, of a map taking
    skew n x n matrices to skew matrices."""
    basis = vector_to_skew(np.eye(so_dim(n)), n)
    return skew_to_vector(np.array([apply(e) for e in basis])).T


def rolling_curvature_operator(q):
    """Matrix of the so-valued rolling curvature xi -> R(xi) - A^{-1}
    R_hat(A xi) A on Lambda^2, in the lexicographic basis; size n(n-1)/2."""
    m, mh, A = q.pair.space, q.pair.space_hat, q.isometry

    def so_form(xi):
        return m.curvature_matrix_apply(q.x, xi) - A.T @ mh.curvature_matrix_apply(
            q.x_hat, A @ xi @ A.T) @ A

    return _bivector_operator(q.pair.dim, so_form)


# operators whose largest singular value sits at or below this count as zero
# maps: matched curvatures produce exactly those, up to round-off
ZERO_OPERATOR_FLOOR = 1e-12


def operator_invertible(op, tol=1e-8):
    """Invertibility of an operator on bivectors from one SVD.

    Returns (verdict, condition_number, singular_values); the verdict is
    true when the smallest singular value exceeds tol times the largest,
    and false for a zero map (see ZERO_OPERATOR_FLOOR).
    """
    rank, sv, _ = numerical_rank(op, tol)
    if sv[0] <= ZERO_OPERATOR_FLOOR:
        return False, math.inf, sv
    cond = sv[0] / sv[-1] if sv[-1] > 0 else math.inf
    return rank == len(sv), cond, sv

