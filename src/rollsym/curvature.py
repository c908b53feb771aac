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

from .numerics import RANK_TOL, numerical_rank, within_roundoff
from .errors import GeometryError

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


def check_skew(mat):
    res = np.abs(mat + np.swapaxes(mat, -1, -2)).max(initial=0.0)
    if not res <= SKEW_TOL:  # NaN fails too
        raise GeometryError(f"bivector matrix is not skew-symmetric (residual {res:.3e})")
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


def curvature_term(q, plane, plane_hat):
    """A R(plane) - R_hat(plane_hat) A at the stack q, for skew matrices
    (..., n, n) in the deterministic frames at x and x_hat, the stack axes
    first: the one place that forms this term.  The rolling curvature takes
    plane_hat = A plane A^T; the bracket and symmetry equations pass their
    own pair of planes.  Where the term is round-off of its two parts
    (numerics.within_roundoff, the rule that reads kappa = 0), it is exactly 0."""
    ndim = max(np.ndim(plane), np.ndim(plane_hat))
    A = q.expand(q.isometry, ndim)
    r = A @ q.pair.space.curvature_matrix_apply(q.expand(q.x, ndim - 1), plane)
    r_hat = q.pair.space_hat.curvature_matrix_apply(q.expand(q.x_hat, ndim - 1), plane_hat) @ A
    term = r - r_hat  # zeroed by np.zeros_like, since 0.0 * term would write -0.0
    return np.zeros_like(term) if within_roundoff(term, r, r_hat) else term


def rolling_curvature(q, xi):
    """Matrix (in the deterministic frames) of the map T_x M -> T_xhat Mhat
    given by A R(xi) - R_hat(A xi) A for a bivector xi at x, given as a
    skew matrix, or for a stack of them (the stack axes of q first)."""
    xi_mat = check_skew(np.asarray(xi, dtype=float))
    A = q.expand(q.isometry, xi_mat.ndim)
    return curvature_term(q, xi_mat, A @ xi_mat @ A.mT)


def rolling_curvature_operator(q):
    """Matrix of the so-valued rolling curvature xi -> A^{-1} Rol_q(xi) on
    Lambda^2, in the lexicographic basis; size n(n-1)/2."""
    n = q.pair.dim
    basis = vector_to_skew(np.eye(so_dim(n)), n)
    return skew_to_vector(q.isometry.T @ rolling_curvature(q, basis)).T


def operator_invertible(op, tol=RANK_TOL):
    """Invertibility of an operator on bivectors from one SVD.

    Returns (verdict, condition_number, singular_values); the verdict is
    true when the smallest singular value exceeds tol times the largest, so
    it is false for the zero map, whose condition number is inf.
    """
    rank, sv, _ = numerical_rank(op, tol)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else math.inf
    return rank == len(sv), cond, sv
