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


def so_dim(n):
    return n * (n - 1) // 2


def skew_to_vector(mat):
    n = mat.shape[0]
    return np.array([mat[i, j] for i, j in so_pairs(n)])


def vector_to_skew(vec, n):
    mat = np.zeros((n, n))
    for (i, j), c in zip(so_pairs(n), vec):
        mat[i, j] = c
        mat[j, i] = -c
    return mat


def skew_part(mat):
    return 0.5 * (mat - mat.T)


def check_skew(mat, tol=SKEW_TOL, what="matrix"):
    res = np.abs(mat + mat.T).max()
    if res > tol:
        raise GeometryError(f"{what} is not skew-symmetric (residual {res:.3e})")
    return mat


def wedge_matrix(a, b):
    """Matrix of a ^ b in an orthonormal frame, given frame coefficients."""
    return np.outer(a, b) - np.outer(b, a)


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
    cols = []
    for i, j in so_pairs(n):
        e = np.zeros((n, n))
        e[i, j] = 1.0
        e[j, i] = -1.0
        cols.append(skew_to_vector(apply(e)))
    return np.array(cols).T


def rolling_curvature_operator(q):
    """Matrix of the so-valued rolling curvature xi -> R(xi) - A^{-1}
    R_hat(A xi) A on Lambda^2, in the lexicographic basis; size n(n-1)/2."""
    m, mh, A = q.pair.space, q.pair.space_hat, q.isometry

    def so_form(xi):
        return m.curvature_matrix_apply(q.x, xi) - A.T @ mh.curvature_matrix_apply(
            q.x_hat, A @ xi @ A.T) @ A

    return _bivector_operator(q.pair.dim, so_form)


def operator_invertible(op, tol=1e-8, floor=1e-12):
    """Invertibility of an operator on bivectors from one SVD.

    Returns (verdict, condition_number, singular_values); the verdict is
    true when the smallest singular value exceeds tol times the largest.
    Operators whose largest singular value sits below the absolute floor
    count as zero maps (matched curvatures produce exactly those, up to
    round-off).
    """
    rank, sv, _ = numerical_rank(op, tol)
    if sv[0] <= floor:
        return False, math.inf, sv
    cond = sv[0] / sv[-1] if sv[-1] > 0 else math.inf
    return rank == len(sv), cond, sv


def rolling_curvature_invertible(q, tol=1e-8, floor=1e-12):
    """Invertibility verdict (verdict, condition_number) for the so-valued
    rolling curvature; see `operator_invertible`."""
    if tol <= 0:
        raise GeometryError("tolerance must be positive")
    return operator_invertible(rolling_curvature_operator(q), tol, floor)[:2]
