import numpy as np
import pytest

from rollsym import Euclidean, GeometryError, Hyperbolic, Sphere, WarpFunction, Warped
from rollsym.curvature import (
    operator_invertible,
    rolling_curvature,
    rolling_curvature_operator,
    skew_to_vector,
    so_pairs,
    vector_to_skew,
    wedge_matrix,
)
from rollsym.rolling import RollingPair

RNG = np.random.default_rng(77)


def invertibility(q):
    """(verdict, condition number) of the so-valued rolling curvature at q,
    as `rol` reports them."""
    return operator_invertible(rolling_curvature_operator(q))[:2]


def test_so_vector_round_trip():
    n = 4
    vec = RNG.standard_normal(len(so_pairs(n)))
    mat = vector_to_skew(vec, n)
    assert np.allclose(mat + mat.T, 0.0)
    assert np.allclose(skew_to_vector(mat), vec)
    # a stack converts row by row, in the lexicographic order of so_pairs
    stack = RNG.standard_normal((3, len(so_pairs(n))))
    mats = vector_to_skew(stack, n)
    for row, m in zip(stack, mats):
        for (i, j), c in zip(so_pairs(n), row):
            assert m[i, j] == c and m[j, i] == -c
    assert np.array_equal(skew_to_vector(mats), stack)


def test_so_pairs_is_built_once_per_n():
    assert so_pairs(5) is so_pairs(5)
    assert so_pairs(3) == ((0, 1), (0, 2), (1, 2))


def test_wedge_action_definition():
    # (X ^ Y)Z = g(Z, Y)X - g(Z, X)Y: the frame matrix of X ^ Y applied to Z
    e1, e2, e3 = np.eye(3)
    assert np.allclose(wedge_matrix(e1, e2) @ e2, e1)
    assert np.allclose(wedge_matrix(e1, e2) @ e3, 0.0)
    assert np.allclose(wedge_matrix(e1, e1) @ e2, 0.0)


def test_bivector_requires_skew():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    q = pair.state([0.0, 0.0, 1.0], [0.0, 0.0], np.eye(2))
    with pytest.raises(GeometryError):
        rolling_curvature(q, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_curvature_op_on_bivectors():
    m = Sphere(3, 1.0)
    x = m.point(m.random_point(RNG))
    vec = RNG.standard_normal(3)
    out = m.curvature_matrix_apply(x, vector_to_skew(vec, 3))
    assert np.allclose(skew_to_vector(out), vec)  # unit sphere: identity on bivectors


def test_first_bianchi_cyclic_sum():
    for m in (Sphere(3, 1.0), Hyperbolic(3, 2.0),
              Warped((-1.2, 1.2), WarpFunction("cosh"), Sphere(2, 1.0))):
        x = m.random_point(RNG)
        X = m.random_tangent(RNG, x)
        Y = m.random_tangent(RNG, x)
        Z = m.random_tangent(RNG, x)
        total = (
            m.curvature_vector_apply(x, X, Y, Z)
            + m.curvature_vector_apply(x, Y, Z, X)
            + m.curvature_vector_apply(x, Z, X, Y)
        )
        assert np.linalg.norm(total) < 1e-9


# -- rolling curvature -----------------------------------------------------------------


def test_rolling_curvature_vanishes_for_equal_curvatures():
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 1.0))
    q = pair.random_state(RNG)
    for _ in range(5):
        xi = np.zeros((2, 2))
        xi[0, 1] = RNG.standard_normal()
        xi[1, 0] = -xi[0, 1]
        assert np.abs(rolling_curvature(q, xi)).max() < 1e-12


def test_rolling_curvature_sphere_on_plane_is_pushforward():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    q = pair.random_state(RNG)
    xi = wedge_matrix(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    out = rolling_curvature(q, xi)
    assert np.allclose(out, q.isometry @ xi, atol=1e-12)
    assert np.abs(rolling_curvature(q, np.zeros((2, 2)))).max() == 0.0


def test_rolling_curvature_so_is_skew():
    pair = RollingPair(Sphere(2, 1.0), Hyperbolic(2, 1.0))
    q = pair.random_state(RNG)
    xi = wedge_matrix(RNG.standard_normal(2), RNG.standard_normal(2))
    so_form = q.isometry.T @ rolling_curvature(q, xi)
    assert np.abs(so_form + so_form.T).max() < 1e-9
    # consistency: the operator on bivectors is the so form in the lexicographic basis
    op_form = vector_to_skew(rolling_curvature_operator(q) @ skew_to_vector(xi), 2)
    assert np.allclose(rolling_curvature(q, xi), q.isometry @ op_form, atol=1e-12)


def brute_operator(q):
    """Componentwise oracle for the bivector-space matrix."""
    n = q.pair.dim
    pairs = so_pairs(n)
    cols = []
    for i, j in pairs:
        e = np.zeros((n, n))
        e[i, j] = 1.0
        e[j, i] = -1.0
        so_mat = q.isometry.T @ rolling_curvature(q, e)
        cols.append([so_mat[a, b] for a, b in pairs])
    return np.array(cols).T


@pytest.mark.parametrize(
    "space,space_hat,expected",
    [
        (Sphere(3, 1.0), Euclidean(3), 1.0),
        (Sphere(2, 1.0), Sphere(2, 3.0), 8.0 / 9.0),
        (Sphere(2, 1.0), Sphere(2, 1.0), 0.0),
        (Hyperbolic(2, 1.0), Sphere(2, 1.0), -2.0),
    ],
)
def test_operator_is_mismatch_times_identity(space, space_hat, expected):
    pair = RollingPair(space, space_hat)
    q = pair.random_state(RNG)
    op = rolling_curvature_operator(q)
    d2 = len(so_pairs(pair.dim))
    assert np.allclose(op, expected * np.eye(d2), atol=1e-9)
    assert np.allclose(op, brute_operator(q), atol=1e-12)


def test_invertibility_constant_curvature():
    pair = RollingPair(Sphere(3, 1.0), Euclidean(3))
    q = pair.random_state(RNG)
    verdict, cond = invertibility(q)
    assert verdict and cond == pytest.approx(1.0, abs=1e-9)

    equal = RollingPair(Sphere(2, 2.0), Sphere(2, 2.0))
    q0 = equal.random_state(RNG)
    verdict0, _ = invertibility(q0)
    assert not verdict0

    # a nonzero operator with a singular value below tol times the largest
    verdict_s, cond_s, sv_s = operator_invertible(np.diag([1.0, 1e-12]))
    assert not verdict_s and cond_s == pytest.approx(1e12) and list(sv_s) == [1.0, 1e-12]


def space_curvature_invertible(m, x):
    """The curvature operator of m at x on bivectors: the rolling curvature
    against a flat second factor, whose own curvature term vanishes."""
    pair = RollingPair(m, Euclidean(m.dim))
    return invertibility(pair.state(x, np.zeros(m.dim), np.eye(m.dim)))


def test_space_curvature_invertibility():
    # the classification hypotheses need the base curvature operator
    # invertible as well: true away from flat factors
    rng = np.random.default_rng(3)
    sphere = Sphere(3, 2.0)
    ok, cond = space_curvature_invertible(sphere, sphere.random_point(rng))
    assert ok and cond == pytest.approx(1.0, abs=1e-9)
    hyp = Hyperbolic(2, 1.0)
    ok_h, _ = space_curvature_invertible(hyp, hyp.random_point(rng))
    assert ok_h
    flat = Euclidean(3)
    ok_f, _ = space_curvature_invertible(flat, flat.random_point(rng))
    assert not ok_f


def test_invertibility_warped_against_flat():
    # n = 2: only the radial plane exists and carries -f''/f = -1 != 0
    warped2 = Warped((-1.2, 1.2), WarpFunction("cosh"), Sphere(1, 1.0))
    pair2 = RollingPair(warped2, Euclidean(2))
    q2 = pair2.random_state(RNG)
    verdict2, _ = invertibility(q2)
    assert verdict2

    # n = 3 at s != 0: fiber planes carry (1 - sinh^2)/cosh^2, nonzero away
    # from sinh(s) = 1; svd oracle confirms
    warped3 = Warped((-1.2, 1.2), WarpFunction("cosh"), Sphere(2, 1.0))
    pair3 = RollingPair(warped3, Euclidean(3))
    rng = np.random.default_rng(5)
    x = np.concatenate(([0.4], Sphere(2, 1.0).random_point(rng)))
    q3 = pair3.state(x, pair3.space_hat.random_point(rng), np.eye(3))
    verdict3, _ = invertibility(q3)
    sv = np.linalg.svd(rolling_curvature_operator(q3), compute_uv=False)
    assert verdict3 and sv[-1] > 1e-8 * sv[0]


def test_rolling_curvature_dimension_mismatch():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    q = pair.random_state(RNG)
    with pytest.raises((GeometryError, ValueError)):
        rolling_curvature(q, np.zeros((3, 3)))
