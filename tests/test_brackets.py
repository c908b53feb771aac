import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rollsym import Euclidean, GeometryError, Hyperbolic, Sphere, WarpFunction, Warped
from rollsym.curvature import wedge_matrix
from rollsym.brackets import (
    NESTED_FD_STEP,
    FieldData,
    StructuredField,
    bracket_fd,
    bracket_field,
    bracket_structured,
    controllability_verdict,
    curvature_mismatch,
    flag_ranks,
    frame_field_derivative,
    rolling_generators,
    stencil_data_derivative,
)
from rollsym.numerics import numerical_rank
from rollsym.rolling import RollingPair, TangentOfQ, q_dim, random_rotation, rolling_lift
from rollsym.symmetry import killing_catalog

RNG = np.random.default_rng(31)
FIELD_FD_STEP = 1e-3  # the stencil step of a test field without closed-form derivatives

PAIRS = {
    "spheres_1_3": lambda: RollingPair(Sphere(2, 3.0), Sphere(2, 1.0)),  # mismatch -8/9
    "sphere_plane": lambda: RollingPair(Sphere(2, 1.0), Euclidean(2)),   # mismatch +1
    "hyp_sphere": lambda: RollingPair(Hyperbolic(2, 1.0), Sphere(2, 1.0)),  # mismatch -2
}


def frame_stencil(m, x, v, h=1e-4):
    """Covariant derivatives of the deterministic frame fields along v at x,
    as an (n, amb) array: an order-4 central difference of m.frame along the
    geodesic of v, every sample transported back to x."""

    def sample(t):
        xt, vt = m.geodesic_flow(x, v, t)
        return m.transport_along_geodesic(xt, vt, -t, m.frame(xt))

    s = [sample(t) for t in (2 * h, h, -h, -2 * h)]
    return (-s[0] + 8 * s[1] - 8 * s[2] + s[3]) / (12 * h)


def frame_bracket(pair, q, i, j):
    """[E_i, E_j] at the contact point from a stencil of the frame."""
    n = pair.dim
    d_j = frame_stencil(pair.space, q.x, q.from_coords(np.eye(n)[i]))[j]
    d_i = frame_stencil(pair.space, q.x, q.from_coords(np.eye(n)[j]))[i]
    return d_j - d_i


def generator(i):
    """The rolling lift of the i-th frame vector, as a stack of one field:
    row i of rolling_generators(), with row i of its derivatives."""
    gens, row = rolling_generators(), slice(i, i + 1)

    def derivative(q, xi):
        d = gens.derivative(q, xi)
        return FieldData(d.T[:, row], d.T_hat[:, row], d.U[:, row])

    return StructuredField(lambda q: gens.value(q)[row], derivative)


def stencil_field(value, h=FIELD_FD_STEP):
    """The structured field of a value closure, differentiated by stencils of
    step h."""
    return StructuredField(value, lambda q, xi: stencil_data_derivative(value, q, xi, h))


def patch_everywhere(mp, fn, new):
    """Replace fn by new under every name that any rollsym module binds it
    to (a from-import copies a function into the importing module)."""
    bindings = [(mod, key) for name, mod in list(sys.modules.items())
                if name.split(".")[0] == "rollsym"
                for key, value in list(vars(mod).items()) if value is fn]
    assert bindings, fn
    for mod, key in bindings:
        mp.setattr(mod, key, new)


CONNECTION_FORMS = st.one_of(
    st.builds(Sphere, st.integers(2, 4), st.floats(0.3, 3.0)),
    st.builds(Hyperbolic, st.integers(2, 4), st.floats(0.3, 3.0)),
    st.builds(Euclidean, st.integers(2, 4)),
    st.builds(lambda name, fiber: Warped((-1.2, 1.2), WarpFunction(name), fiber),
              st.sampled_from(["cos", "cosh"]), st.sampled_from([Sphere(1, 1.0), Sphere(2, 1.0)])),
)


def _least_kept_length(m, x):
    """The smallest length a kept projected basis vector keeps after
    Gram-Schmidt: the smallest diagonal entry of the Cholesky factor that
    connection_form inverts."""
    rows, kept = (b[0] for b in m.frames(x[None], kept=True))
    basis = m.project(x, np.eye(m.amb_dim)[kept])
    return float(np.abs(m.inner_at(x, basis, rows)).min())


def test_connection_form_is_exactly_skew_where_a_basis_vector_nearly_cancels():
    # at this point the fourth projected basis vector keeps 0.0016 of its
    # length, and the inverse Cholesky factor amplifies round-off in the
    # symmetric part of the form to about 1e-11; the returned form is skew
    m = Hyperbolic(4, 0.5217)
    rng = np.random.default_rng(2396)
    x = m.random_point(rng)
    v = m.random_tangent(rng, x, unit=True)
    assert _least_kept_length(m, x) < 2e-3
    omega = m.connection_form(x, v)
    assert np.abs(omega).max() > 0.1
    assert np.array_equal(omega + omega.T, np.zeros((4, 4)))


@settings(max_examples=60, deadline=None)
@given(CONNECTION_FORMS, st.integers(0, 2**32 - 1))
def test_connection_form_is_skew_and_matches_a_frame_stencil(m, seed):
    rng = np.random.default_rng(seed)
    x = m.random_point(rng)
    v = m.random_tangent(rng, x, unit=True)
    omega = m.connection_form(x, v)
    expected = frame_stencil(m, x, v)
    fr = m.frame(x)
    # far out on a hyperboloid the frame's ambient coordinates grow like the
    # cosh of the distance, and the stencil's round-off with them
    scale = max(1.0, float(np.abs(expected).max()), float(np.abs(fr).max()))
    assert np.abs(omega + omega.T).max() <= 1e-11 * scale**2
    assert np.abs(omega @ fr - expected).max() <= 1e-8 * scale
    assert np.array_equal(frame_field_derivative(m, x, v), omega @ fr)
    # linear in v: the forms along the frame vectors, in one stacked call
    along_frame = m.connection_form(x, fr)
    assert np.abs(np.tensordot(m.frame_coords(x, fr, v), along_frame, 1) - omega).max() \
        <= 1e-12 * scale


def expected_generator_bracket(pair, q, i, j):
    n = pair.dim
    w = frame_bracket(pair, q, i, j)
    kappa = curvature_mismatch(pair)
    return TangentOfQ(q, w, q.apply(w), kappa * wedge_matrix(np.eye(n)[i], np.eye(n)[j]))


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_generator_bracket_identity_structured_and_fd(name):
    pair = PAIRS[name]()
    q = pair.random_state(RNG)
    g0, g1 = generator(0), generator(1)
    expected = expected_generator_bracket(pair, q, 0, 1).coords()
    got = bracket_structured(g0, g1, q).coords()[0]
    assert np.abs(got - expected).max() < 1e-9
    got_fd = bracket_fd(g0, g1, q).coords()[0]
    assert np.abs(got_fd - expected).max() < 1e-5
    assert np.abs(got_fd - got).max() < 1e-5


def test_bracket_oracles_share_no_stencil_code(monkeypatch):
    # the FD oracle differentiates through its own stencil, the structured
    # formula through central_diff; neither may reach the other's kernel
    import rollsym.numerics as numerics_mod
    import rollsym.rolling as rolling_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("the two bracket oracles share a stencil")

    pair = PAIRS["sphere_plane"]()
    q = pair.random_state(RNG)
    g0, g1 = generator(0), generator(1)
    with monkeypatch.context() as mp:
        patch_everywhere(mp, rolling_mod._stencil, forbidden)
        structured = bracket_structured(g0, g1, q).coords()
        nested = bracket_structured(g0, bracket_field(g0, g1), q)
    with monkeypatch.context() as mp:
        patch_everywhere(mp, numerics_mod.central_diff, forbidden)
        fd = bracket_fd(g0, g1, q).coords()
    assert np.abs(fd - structured).max() < 1e-5
    assert np.all(np.isfinite(nested.coords()))


def test_fd_oracle_uses_neither_the_connection_form_nor_shared_samples(monkeypatch):
    import rollsym.rolling as rolling_mod
    from rollsym.spaces import SpaceForm

    def forbidden(*args, **kwargs):
        raise AssertionError("the FD oracle reached the structured path")

    pair = PAIRS["hyp_sphere"]()
    q = pair.random_state(RNG)
    g0, g1 = generator(0), generator(1)
    structured = bracket_structured(g0, g1, q).coords()
    q_fresh = pair.state(q.x, q.x_hat, q.isometry)
    monkeypatch.setattr(SpaceForm, "connection_form", forbidden)
    patch_everywhere(monkeypatch, rolling_mod.directional_derivative, forbidden)
    fd = bracket_fd(g0, g1, q_fresh).coords()
    assert np.abs(fd - structured).max() < 1e-5


def test_a_depth_three_flag_builds_each_sample_state_once(monkeypatch):
    # the nested stencils of all [b, g] along one generator g share their
    # four sample states, and the 4n states along all n generators come from
    # one tangent_curve call
    import rollsym.rolling as rolling_mod

    calls = []
    build = rolling_mod.tangent_curve
    monkeypatch.setattr(rolling_mod, "tangent_curve",
                        lambda *a: calls.append(len(a[0])) or build(*a))
    for pair in (RollingPair(Sphere(2, 1.0), Sphere(2, 3.0)), RollingPair(Sphere(3, 1.0), Euclidean(3))):
        calls.clear()
        assert flag_ranks(pair.random_state(RNG), depth=3).ranks[-1] == q_dim(pair.dim)
        assert calls == [4 * pair.dim]


def space_forms(n):
    return st.one_of(st.builds(Sphere, st.just(n), st.floats(0.3, 3.0)),
                     st.builds(Hyperbolic, st.just(n), st.floats(0.3, 3.0)), st.just(Euclidean(n)))


WARPED_SURFACES = st.builds(lambda name: Warped((-1.2, 1.2), WarpFunction(name), Sphere(1, 1.0)),
                            st.sampled_from(["cos", "cosh"]))
CATALOG_PAIRS = (st.builds(RollingPair, space_forms(2) | WARPED_SURFACES, space_forms(2))
                 | st.builds(RollingPair, space_forms(3), space_forms(3)))


@settings(max_examples=40, deadline=None)
@given(CATALOG_PAIRS, st.integers(0, 2**32 - 1))
def test_bracket_antisymmetry_and_self_bracket(pair, seed):
    # the stacked table of [L_i, L_j] is antisymmetric with a zero diagonal,
    # and each entry is the bracket of the two stacks of one
    q = pair.random_state(np.random.default_rng(seed))
    n = pair.dim
    table = bracket_structured(rolling_generators(), rolling_generators(), q).coords()
    table = table.reshape(n, n, -1)
    scale = max(1.0, float(np.abs(table).max()))
    assert np.abs(table + table.transpose(1, 0, 2)).max() <= 1e-12 * scale
    assert np.abs(np.diagonal(table, axis1=0, axis2=1)).max() <= 1e-12 * scale
    one = bracket_structured(generator(n - 1), generator(0), q).coords()[0]
    assert np.abs(one - table[n - 1, 0]).max() <= 1e-12 * scale


@pytest.mark.parametrize("seed", [61, 62])
def test_fd_bracket_is_antisymmetric(seed):
    pair = PAIRS["hyp_sphere"]()
    q = pair.random_state(np.random.default_rng(seed))
    g0, g1 = generator(0), generator(1)
    b01 = bracket_fd(g0, g1, q).coords()
    b10 = bracket_fd(g1, g0, pair.state(q.x, q.x_hat, q.isometry)).coords()
    assert np.abs(b01 + b10).max() < 1e-6


def test_flat_flat_coordinate_fields_commute():
    pair = RollingPair(Euclidean(2), Euclidean(2))
    q = pair.random_state(RNG)
    n = pair.dim

    def const_field(vec):
        vec = np.array([vec])
        return stencil_field(lambda s: TangentOfQ(s, vec, s.apply(vec), np.zeros((1, n, n))))

    f1 = const_field([1.0, 0.0])
    f2 = const_field([0.0, 1.0])
    assert np.abs(bracket_structured(f1, f2, q).coords()).max() < 1e-9
    assert np.abs(bracket_fd(f1, f2, q).coords()).max() < 1e-8


def test_fd_bracket_reproduces_vertical_part_on_spheres():
    pair = PAIRS["spheres_1_3"]()
    q = pair.random_state(RNG)
    fd = bracket_fd(generator(0), generator(1), q)[0]
    assert abs(fd.C[0, 1] - (-8.0 / 9.0)) < 1e-5


def killing_induced_value(pair, rng):
    """The value closure of a test field, a stack of one, built from Killing
    data on both factors."""
    cat = killing_catalog(pair.space)
    cat_hat = killing_catalog(pair.space_hat)
    k1 = cat[rng.integers(len(cat))]
    k2 = cat_hat[rng.integers(len(cat_hat))]
    c0 = wedge_matrix(rng.standard_normal(pair.dim), rng.standard_normal(pair.dim))

    def value(q):
        return TangentOfQ(q, k1.value(q.x), k2.value(q.x_hat), c0[None])

    return value


def test_jacobi_identity_residual():
    pair = PAIRS["spheres_1_3"]()
    rng = np.random.default_rng(8)
    q = pair.random_state(rng)
    values = [killing_induced_value(pair, rng) for _ in range(3)]
    total = np.zeros(q_dim(pair.dim))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        # the inner fields at the field step, the outer one at 1e-2
        inner = bracket_field(stencil_field(values[b]), stencil_field(values[c]))
        total = total + bracket_structured(stencil_field(values[a], 1e-2), inner, q).coords()
    assert np.abs(total).max() < 1e-4


def test_structured_vs_fd_on_random_fields():
    pair = PAIRS["sphere_plane"]()
    rng = np.random.default_rng(9)
    for _ in range(3):
        q = pair.random_state(rng)
        f1 = stencil_field(killing_induced_value(pair, rng))
        f2 = stencil_field(killing_induced_value(pair, rng))
        a = bracket_structured(f1, f2, q).coords()
        b = bracket_fd(f1, f2, q).coords()
        assert np.abs(a - b).max() < 1e-5


# -- growth vector ------------------------------------------------------------------


def test_flag_ranks_examples():
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    q = pair.random_state(RNG)
    rep = flag_ranks(q, depth=3)
    assert rep.ranks == (2, 3, 5)

    pair3 = RollingPair(Sphere(3, 1.0), Euclidean(3))
    q3 = pair3.random_state(RNG)
    rep3 = flag_ranks(q3, depth=3)
    assert rep3.ranks == (3, 6, 9)

    equal = RollingPair(Sphere(2, 1.0), Sphere(2, 1.0))
    qe = equal.random_state(RNG)
    repe = flag_ranks(qe, depth=3)
    assert repe.ranks == (2, 2, 2)  # the flag stalls at the distribution rank


# depth-3 singular values of the flag at seeded states of the three growth
# benchmark pairs, as computed by brackets built one pair at a time
PINNED_FLAG_SINGULAR_VALUES = {
    2: [1.9890526272630058, 1.0663792183753138, 0.9989494718483103, 0.3280803717276421,
        0.2139383057615225],
    3: [2.259858873470775, 1.5026206531648039, 1.2014930142497602, 1.1985577334756408,
        1.1044400569414723, 0.9881512012216201, 0.4181761898084274, 0.3529867697598826,
        0.25062767957852106],
    4: [2.6843679470165136, 2.2628774554548814, 2.0754090690282707, 1.3739200424155904,
        1.3423647456773014, 1.3277613998069002, 1.3197441448623066, 1.054765738303055,
        1.0290462059545877, 1.0005239741508027, 0.5360200456003013, 0.5074790291988892,
        0.446285455950239, 0.3550130811777996],
}


@pytest.mark.parametrize("pair, seed", [
    (RollingPair(Sphere(2, 1.0), Sphere(2, 3.0)), 902),
    (RollingPair(Sphere(3, 1.0), Euclidean(3)), 903),
    (RollingPair(Sphere(4, 1.0), Hyperbolic(4, 1.0)), 904),
], ids=["S2(1)/S2(3)", "S3(1)/R3", "S4(1)/H4(1)"])
def test_stacked_flag_reproduces_the_pinned_singular_values(pair, seed):
    rep = flag_ranks(pair.random_state(np.random.default_rng(seed)), depth=3)
    expected = np.array(PINNED_FLAG_SINGULAR_VALUES[pair.dim])
    assert rep.ranks[-1] == len(expected)
    assert np.abs(rep.singular_values[-1] / expected - 1.0).max() <= 1e-9


def test_flag_report_invariants():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    q = pair.random_state(RNG)
    rep = flag_ranks(q, depth=3)
    assert all(a <= b for a, b in zip(rep.ranks[:-1], rep.ranks[1:]))
    assert rep.ranks[-1] <= q_dim(pair.dim)
    data = rep.to_json()
    assert data["ranks"] == list(rep.ranks)


def rotated_generators(rot):
    """The rolling lifts of the frame vectors whose frame coordinates are the
    columns of rot: those combinations of rolling_generators(), and of their
    derivatives."""
    gens = rolling_generators()

    def value(q):
        v = gens.value(q)
        return TangentOfQ(q, rot.T @ v.X, rot.T @ v.X_hat, np.einsum("jk,j...->k...", rot, v.C))

    def derivative(q, xi):
        d = gens.derivative(q, xi)
        return FieldData(*(np.einsum("jk,aj...->ak...", rot, s) for s in (d.T, d.T_hat, d.U)))

    return StructuredField(value, derivative)


def depth_three_ranks(gens, q):
    """Ranks of the flag D, D + [D, D], D + [D, D] + [[D, D], D] of the
    distribution that the stack gens spans at q, each step one layer of the
    rank rule, as flag_ranks takes them."""
    rows, layers, ranks, current = [], [], [], gens
    for step in range(3):
        if step:
            current = bracket_field(current, gens)
        rows.append(current.value(q).coords())
        layers.append(len(rows[-1]))
        ranks.append(numerical_rank(np.concatenate(rows), 1e-8, layers)[0])
    return tuple(ranks)


def test_flag_ranks_frame_independent():
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    q = pair.random_state(RNG)
    rot = random_rotation(np.random.default_rng(4), 2)
    assert flag_ranks(q, depth=3).ranks == depth_three_ranks(rolling_generators(), q)
    assert flag_ranks(q, depth=3).ranks == depth_three_ranks(rotated_generators(rot), q)


def test_flag_depth_guard():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    q = pair.random_state(RNG)
    with pytest.raises(GeometryError):
        flag_ranks(q, depth=0)
    with pytest.raises(GeometryError):
        flag_ranks(q, depth=7)


def test_controllability_verdict():
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    assert controllability_verdict(pair.random_state(RNG))
    pair3 = RollingPair(Sphere(3, 1.0), Euclidean(3))
    assert controllability_verdict(pair3.random_state(RNG))
    equal = RollingPair(Sphere(2, 2.0), Sphere(2, 2.0))
    assert not controllability_verdict(equal.random_state(RNG))


def test_equiregularity_across_states():
    pair = RollingPair(Sphere(2, 1.0), Hyperbolic(2, 1.0))
    rng = np.random.default_rng(17)
    growths = {flag_ranks(pair.random_state(rng), depth=3).ranks for _ in range(20)}
    assert growths == {(2, 3, 5)}


def test_structured_vs_fd_over_hundred_states():
    catalog_pairs = [
        RollingPair(Sphere(2, 3.0), Sphere(2, 1.0)),
        RollingPair(Sphere(2, 1.0), Euclidean(2)),
        RollingPair(Hyperbolic(2, 1.0), Sphere(2, 1.0)),
        RollingPair(Euclidean(2), Hyperbolic(2, 2.0)),
    ]
    rng = np.random.default_rng(23)
    worst = 0.0
    for k in range(100):
        pair = catalog_pairs[k % len(catalog_pairs)]
        q = pair.random_state(rng)
        gens = rolling_generators()
        # the whole 2 x 2 table: the chart differentials serve every pair
        a = bracket_structured(gens, gens, q).coords()
        b = bracket_fd(gens, gens, q).coords()
        worst = max(worst, float(np.abs(a - b).max()))
    assert worst < 1e-5


# -- double bracket -----------------------------------------------------------------


def log_map(m, x, y):
    """Initial velocity of the geodesic of the space form m from x reaching y
    at time 1."""
    k = m.curvature_constant
    if k == 0:
        return y - x
    c = k * m.inner_at(x, x, y)  # cos (cosh) of the distance times sqrt|K|
    angle = math.acos(min(max(c, -1.0), 1.0)) if k > 0 else math.acosh(max(c, 1.0))
    u = y - c * x
    nu = math.sqrt(max(m.inner_at(x, u, u), 0.0))
    if nu < 1e-14:
        if angle > 1.0:
            raise GeometryError("log map is singular at antipodal points")
        return np.zeros_like(u)
    return angle / math.sqrt(abs(k)) / nu * u


def normal_extension_field(m, x0, v0):
    """Extend a tangent vector at x0 to the field with vanishing covariant
    derivative at x0: parallel transport along radial geodesics."""
    x0 = np.asarray(x0, float)
    v0 = np.asarray(v0, float)

    def ext(y):
        w = log_map(m, x0, y)
        if np.linalg.norm(w) < 1e-14:
            return np.array(v0)
        # projection only strips round-off; the transport is tangent already
        return m.project(y, m.transport_along_geodesic(x0, w, 1.0, v0))

    return ext


def rolling_lift_of_extension(pair, x0, v0, h):
    """The rolling lift of the normal extension of v0, a stack of one field
    differentiated by stencils of step h."""
    ext = normal_extension_field(pair.space, x0, v0)
    return stencil_field(lambda q: rolling_lift(q, ext(q.x)[None]), h)


def double_bracket_identity_residual(q, X, Y, Z):
    """Residual of the constant-curvature double-bracket identity

        [L_R(X), [L_R(Y), L_R(Z)]]
            = -kappa g(Z,X) L_NS(Y,0) + kappa g(Y,X) L_NS(Z,0)   mod (L_R, nu)

    for vectors extended with vanishing covariant derivative at the contact
    point.  The mod projection keeps the class X_hat - A X of the no-spin
    part.  In this identity kappa = K_hat - K: the double bracket picks up
    the mismatch constant of the first-order bracket with a reversed sign
    once the vertical derivative of the lift is expressed through L_NS(.,0).
    """
    kappa = -curvature_mismatch(q.pair)
    pair = q.pair
    # the inner fields at the field step, the outer one at the nested step
    lift_x = rolling_lift_of_extension(pair, q.x, X, NESTED_FD_STEP)
    lift_y = rolling_lift_of_extension(pair, q.x, Y, FIELD_FD_STEP)
    lift_z = rolling_lift_of_extension(pair, q.x, Z, FIELD_FD_STEP)
    inner = bracket_field(lift_y, lift_z)
    outer = bracket_structured(lift_x, inner, q)[0]

    measured_class = outer.X_hat - q.apply(outer.X)
    g = pair.space.inner_at
    rhs_base = -kappa * g(q.x, Z, X) * np.asarray(Y, float) + kappa * g(q.x, Y, X) * np.asarray(
        Z, float
    )
    expected_class = -q.apply(rhs_base)
    diff = measured_class - expected_class
    return math.sqrt(pair.space_hat.inner_at(q.x_hat, diff, diff))


def test_double_bracket_identity_on_three_pairs():
    # identity coefficient is K_hat - K; the pair below realizes -8/9
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    rng = np.random.default_rng(5)
    q = pair.random_state(rng)
    fr = q.frame
    assert double_bracket_identity_residual(q, fr[0], fr[1], fr[0]) < 1e-5

    pair2 = RollingPair(Hyperbolic(2, 1.0), Sphere(2, 1.0))
    q2 = pair2.random_state(rng)
    fr2 = q2.frame
    assert double_bracket_identity_residual(q2, fr2[0], fr2[1], fr2[0]) < 1e-5


def test_double_bracket_orthogonal_triple_vanishes():
    pair = RollingPair(Sphere(3, 1.0), Euclidean(3))
    q = pair.random_state(RNG)
    fr = q.frame
    assert double_bracket_identity_residual(q, fr[0], fr[1], fr[2]) < 1e-5


def test_double_bracket_zero_mismatch():
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 1.0))
    q = pair.random_state(RNG)
    fr = q.frame
    assert double_bracket_identity_residual(q, fr[0], fr[1], fr[0]) < 1e-5


def test_double_bracket_requires_constant_curvature():
    from rollsym import WarpFunction, Warped

    warped = Warped((-1.2, 1.2), WarpFunction("cosh"), Sphere(1, 1.0))
    pair = RollingPair(warped, Euclidean(2))
    q = pair.random_state(RNG)
    with pytest.raises(GeometryError):
        double_bracket_identity_residual(q, q.frame[0], q.frame[1], q.frame[0])


def test_structured_field_vertical_data_is_skew_checked():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    q = pair.random_state(RNG)

    bad = stencil_field(lambda s: TangentOfQ(s, np.zeros((1, 3)), np.zeros((1, 2)),
                                             np.array([[[0.0, 1.0], [0.5, 0.0]]])))
    with pytest.raises(GeometryError):
        bad.value(q)
