import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rollsym import Euclidean, GeometryError, Hyperbolic, Sphere, WarpFunction, Warped
from rollsym.curvature import (
    check_skew,
    operator_invertible,
    rolling_curvature,
    rolling_curvature_operator,
    skew_to_vector,
    so_dim,
    so_pairs,
    vector_to_skew,
    wedge_matrix,
)
from rollsym.numerics import central_diff, stencil_offsets
from rollsym.rolling import RollingPair, det_transport_matrix
from rollsym.symmetry import inner_symmetry_residual

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


def test_check_skew_rejects_nan():
    # NaN > tol is false, so a residual test written that way let NaN through
    nan = np.array([[0.0, np.nan], [-1.0, 0.0]])
    with pytest.raises(GeometryError, match="nan"):
        check_skew(nan)
    with pytest.raises(GeometryError):
        check_skew(np.full((2, 3, 3), np.nan))


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


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["cos", "cosh", "exp", "affine"]),
       st.sampled_from([Sphere(1, 1.0), Sphere(2, 1.0), Hyperbolic(2, 2.0), Euclidean(2)]),
       st.integers(0, 2**32 - 1))
def test_warped_curvature_derivative_matches_a_stencil(name, fiber, seed):
    # (nabla_X R)(xi) against an order-4 stencil of the curvature operator
    # along the geodesic of X, pulled back to x by parallel transport
    m = Warped((-1.2, 1.2), WarpFunction(name, 1.0, 0.3), fiber)
    rng = np.random.default_rng(seed)
    x, c = m.random_point(rng), rng.standard_normal(m.dim)
    xi = vector_to_skew(rng.standard_normal(so_dim(m.dim)), m.dim)
    frame, h = m.frame(x), 1e-3

    def pulled_back(t):
        xt, fwd, _ = det_transport_matrix(m, x[None], frame[None], (c @ frame)[None], np.array([t]))
        return fwd[0].T @ m.curvature_matrix_apply(xt[0], fwd[0] @ xi @ fwd[0].T) @ fwd[0]

    want = central_diff([pulled_back(t) for t in stencil_offsets(h, 4)], h)
    got = m.curvature_derivative_apply(x, c, xi)
    assert np.abs(got - want).max() <= 1e-8 * max(1.0, float(np.abs(want).max()))
    assert np.abs(got + got.T).max() <= 1e-15 * max(1.0, float(np.abs(got).max()))
    sphere = Sphere(m.dim, 1.0)  # a space form's curvature operator is parallel
    assert not sphere.curvature_derivative_apply(sphere.random_point(rng), c, xi).any()


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


def reference_operator(q):
    """The operator as it was built one basis bivector at a time,
    R(xi) - A^T R_hat(A xi A^T) A, kept as the stacked operator's reference."""
    m, mh, A, n = q.pair.space, q.pair.space_hat, q.isometry, q.pair.dim
    cols = [m.curvature_matrix_apply(q.x, e) - A.T @ mh.curvature_matrix_apply(
        q.x_hat, A @ e @ A.T) @ A for e in vector_to_skew(np.eye(so_dim(n)), n)]
    return skew_to_vector(np.array(cols)).T


def warped_factors(n):
    """Warped n-manifolds, one warp of each family with omega = 1/r on
    [-1.2 r, 1.2 r], over a fiber of radius r: a circle (n = 2) or a
    2-dimensional space form (n = 3), which matches the warp when it is a
    sphere under cos or a hyperbolic plane under cosh."""

    def build(name, r, form):
        fiber = form(n - 1) if form is Euclidean else form(n - 1, r)
        b = 0.5 / r if name == "affine" else 0.0
        return Warped((-1.2 * r, 1.2 * r), WarpFunction(name, 1.0, b, 1.0 / r), fiber)

    forms = st.just(Sphere) if n == 2 else st.sampled_from([Sphere, Hyperbolic, Euclidean])
    return st.builds(build, st.sampled_from(["cos", "cosh", "exp", "affine"]),
                     st.floats(0.3, 3.0), forms)


def catalog_factors(n):
    radius = st.floats(0.3, 3.0)
    return st.one_of(st.builds(Sphere, st.just(n), radius), st.builds(Hyperbolic, st.just(n), radius),
                     st.just(Euclidean(n)), warped_factors(n))


CURVATURE_PAIRS = st.integers(2, 3).flatmap(
    lambda n: st.builds(RollingPair, catalog_factors(n), catalog_factors(n)))


@settings(max_examples=60, deadline=None)
@given(CURVATURE_PAIRS, st.integers(0, 2**32 - 1))
def test_curvature_term_callers_match_their_references(pair, seed):
    # the stacked operator against the per-basis loop, and the stacked inner
    # residual against the per-plane maximum; round-off is relative to the
    # largest curvature entry, since matched factors give an operator of
    # round-off alone
    rng = np.random.default_rng(seed)
    q = pair.random_state(rng)
    n, A = pair.dim, q.isometry
    basis = vector_to_skew(np.eye(so_dim(n)), n)
    scale = max(np.abs(pair.space.curvature_matrix_apply(q.x, basis)).max(),
                np.abs(pair.space_hat.curvature_matrix_apply(q.x_hat, A @ basis @ A.T)).max())
    assert np.abs(rolling_curvature_operator(q) - reference_operator(q)).max() <= 1e-14 * scale

    z = pair.space.random_tangent(rng, q.x)
    zc = q.coords(z)
    per_plane = max(float(np.linalg.norm(rolling_curvature(q, wedge_matrix(e, zc))))
                    for e in np.eye(n))
    scale *= max(1.0, float(np.abs(zc).max()))
    assert abs(inner_symmetry_residual(z, q) - per_plane) <= 1e-14 * scale


def test_rolling_curvature_dimension_mismatch():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    q = pair.random_state(RNG)
    with pytest.raises((GeometryError, ValueError)):
        rolling_curvature(q, np.zeros((3, 3)))
