import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rollsym import Euclidean, GeometryError, Hyperbolic, Sphere, WarpFunction, Warped
from rollsym.curvature import skew_to_vector, wedge_matrix
from rollsym.brackets import (
    NESTED_FD_STEP,
    ORACLE_STEP,
    FieldData,
    StructuredField,
    bracket_fd,
    bracket_field,
    bracket_structured,
    controllability_verdict,
    curvature_mismatch,
    flag_ranks,
    frame_field_derivative,
    generator_brackets,
    rolling_generators,
    stencil_data_derivative,
)
from rollsym.cli import GAP_REQUIREMENT, _rank_cut_ambiguous
from rollsym.rolling import (CHART_STEP, RollingPair, q_dim, random_rotation,
                             rolling_lift, tangent_curve)
from rollsym.symmetry import killing_catalog, killing_to_symmetry, perturb_candidate
from test_numerics import batch_rank, layered_rank

RNG = np.random.default_rng(31)
FIELD_FD_STEP = 1e-3  # the stencil step of a test field without closed-form derivatives

PAIRS = {
    "spheres_1_3": lambda: RollingPair(Sphere(2, 3.0), Sphere(2, 1.0)),  # mismatch -8/9
    "sphere_plane": lambda: RollingPair(Sphere(2, 1.0), Euclidean(2)),   # mismatch +1
    "hyp_sphere": lambda: RollingPair(Hyperbolic(2, 1.0), Sphere(2, 1.0)),  # mismatch -2
}


def frame_stencil(m, anchor, x, v, h=1e-4):
    """Covariant derivatives of the frame fields anchored at anchor = (x0,
    frame0) along v at x, as an (n, amb) array: an order-4 central
    difference of the values of m.anchored_frame along the geodesic of v,
    every sample transported back to x."""

    def sample(t):
        xt, vt = m.geodesic_flow(x, v, t)
        return m.transport_along_geodesic(xt, vt, -t, m.anchored_frame(*anchor, xt)[0])[1]

    s = [sample(t) for t in (2 * h, h, -h, -2 * h)]
    return (-s[0] + 8 * s[1] - 8 * s[2] + s[3]) / (12 * h)


def frame_bracket(pair, q, i, j):
    """[F_i, F_j] at the contact point from a stencil of the generator frame
    F, anchored at q.anchor."""
    fr = pair.space.anchored_frame(*q.anchor, q.x)[0]
    d_j = frame_stencil(pair.space, q.anchor, q.x, fr[i])[j]
    d_i = frame_stencil(pair.space, q.anchor, q.x, fr[j])[i]
    return d_j - d_i


def generator(i):
    """The rolling lift of the i-th frame vector, as a stack of one field:
    row i of rolling_generators(), with row i of its derivatives (the field
    axis follows the stack axes of the states)."""
    gens, row = rolling_generators(), slice(i, i + 1)

    def derivative(q, xi):
        d = gens.derivative(q, xi)
        return FieldData(d.T[..., row, :], d.T_hat[..., row, :], d.U[..., row, :, :])

    return StructuredField(lambda q: gens.value(q)[..., row, :], derivative)


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


def _near_point(m, rng, x0, reach):
    """A point at distance at most reach from x0 along a random geodesic,
    kept 0.05 inside the interval of a warped product (a unit-speed geodesic
    moves s by at most its length)."""
    t = rng.uniform(0.0, reach)
    if isinstance(m, Warped):
        t = min(t, min(x0[0] - m.interval[0], m.interval[1] - x0[0]) - 0.05)
    return m.geodesic_flow(x0, m.random_tangent(rng, x0, unit=True), t)[0]


@settings(max_examples=60, deadline=None)
@given(CONNECTION_FORMS, st.integers(0, 2**32 - 1))
def test_anchored_frame_is_orthonormal_and_its_connection_matches_a_stencil(m, seed):
    rng = np.random.default_rng(seed)
    x0 = m.random_point(rng)
    anchor = x0, m.frame(x0)
    x = _near_point(m, rng, x0, 0.5)
    v = m.random_tangent(rng, x, unit=True)
    fr = m.anchored_frame(*anchor, x)[0]
    assert np.abs(m.inner_at(x, fr[:, None], fr[None]) - np.eye(m.dim)).max() <= 1e-12
    assert m.tangency_residual(x, fr).max() <= 1e-12
    omega = m.anchored_connection(*anchor, x, v)
    expected = frame_stencil(m, anchor, x, v)
    # far out on a hyperboloid the frame's ambient coordinates grow like the
    # cosh of the distance, and the stencil's round-off with them
    scale = max(1.0, float(np.abs(expected).max()), float(np.abs(fr).max()))
    assert np.abs(omega + omega.T).max() <= 1e-12 * scale**2
    assert np.abs(omega @ fr - expected).max() <= 1e-8 * scale
    # linear in v: the forms along the frame vectors, in one stacked call
    along_frame = m.anchored_connection(*anchor, x, fr)
    assert np.abs(np.tensordot(m.frame_coords(x, fr, v), along_frame, 1) - omega).max() \
        <= 1e-12 * scale
    # the second ambient derivative of the closed form against a central
    # difference of its first derivative, along a second vector w
    w, h = m.random_tangent(rng, x, unit=True), 1e-5
    dd = m.anchored_frame(*anchor, x, v, w)[2]
    fd = (m.anchored_frame(*anchor, x + h * w, v)[1] - m.anchored_frame(*anchor, x - h * w, v)[1])
    assert np.abs(dd - fd / (2 * h)).max() <= 1e-7 * scale**2
    assert np.abs(dd - m.anchored_frame(*anchor, x, w, v)[2]).max() <= 1e-14 * scale**2  # symmetric
    if not isinstance(m, Warped):
        # the transvection is parallel along the geodesics from x0: at x0 it
        # is the anchor frame, and it does not turn
        u = m.random_tangent(rng, x0, unit=True)
        coords = m.frame_coords(x0, anchor[1], m.anchored_frame(*anchor, x0)[0])
        assert np.abs(coords - np.eye(m.dim)).max() <= 1e-12
        assert np.abs(m.anchored_connection(*anchor, x0, u)).max() <= 1e-12 * scale


def expected_generator_bracket(pair, q, i, j):
    """The tangent row (w, A w, kappa E_i ^ E_j) of [L(F_i), L(F_j)], w the
    frame bracket [F_i, F_j] of the generator frame, which is the
    deterministic frame E at q."""
    n = pair.dim
    w = frame_bracket(pair, q, i, j)
    c = curvature_mismatch(pair) * wedge_matrix(np.eye(n)[i], np.eye(n)[j])
    return np.concatenate((q.coords(w), q.coords_hat(q.apply(w)), skew_to_vector(c)))


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_generator_bracket_identity_structured_and_fd(name):
    pair = PAIRS[name]()
    q = pair.random_state(RNG)
    g0, g1 = generator(0), generator(1)
    expected = expected_generator_bracket(pair, q, 0, 1)
    got = bracket_structured(g0, g1, q)[0]
    assert np.abs(got - expected).max() < 1e-9
    got_fd = bracket_fd(g0, g1, q)[0]
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
        structured = bracket_structured(g0, g1, q)
        nested = bracket_structured(g0, bracket_field(g0, g1), q)
    with monkeypatch.context() as mp:
        patch_everywhere(mp, numerics_mod.central_diff, forbidden)
        fd = bracket_fd(g0, g1, q)
    assert np.abs(fd - structured).max() < 1e-5
    assert np.all(np.isfinite(nested))


def test_fd_oracle_uses_neither_the_connection_form_nor_shared_samples(monkeypatch):
    import rollsym.rolling as rolling_mod
    from rollsym.spaces import SpaceForm

    def forbidden(*args, **kwargs):
        raise AssertionError("the FD oracle reached the structured path")

    pair = PAIRS["hyp_sphere"]()
    q = pair.random_state(RNG)
    g0, g1 = generator(0), generator(1)
    structured = bracket_structured(g0, g1, q)
    q_fresh = pair.state(q.x, q.x_hat, q.isometry)
    monkeypatch.setattr(SpaceForm, "anchored_connection", forbidden)
    patch_everywhere(monkeypatch, rolling_mod.directional_derivative, forbidden)
    fd = bracket_fd(g0, g1, q_fresh)
    assert np.abs(fd - structured).max() < 1e-5


def test_a_depth_three_flag_builds_each_sample_state_once(monkeypatch):
    # depth 3 differentiates the depth-2 table in closed form and builds no
    # sample state; depth 4 differentiates the depth-3 table by one level of
    # stencils, whose 4n states along all n generators come from one
    # tangent_curve call
    import rollsym.rolling as rolling_mod

    calls = []
    build = rolling_mod.tangent_curve

    def counting(*args):  # the number of states of each call's stack
        states = build(*args)
        calls.append(math.prod(states.shape))
        return states

    monkeypatch.setattr(rolling_mod, "tangent_curve", counting)
    for pair in (RollingPair(Sphere(2, 1.0), Sphere(2, 3.0)), RollingPair(Sphere(3, 1.0), Euclidean(3))):
        calls.clear()
        assert flag_ranks(pair.random_state(RNG), depth=3).ranks[-1] == q_dim(pair.dim)
        assert calls == []
    flag_ranks(NESTED_PAIR.random_state(RNG), depth=4)
    assert calls == [4 * NESTED_PAIR.dim]


def test_a_depth_three_flag_evaluates_each_table_at_q_once(monkeypatch):
    # the depth-2 table at q serves both its own flag step and, as the value
    # of the next step's left field, the depth-3 bracket at q, whose
    # closed-form derivative of that table evaluates no bracket
    import rollsym.brackets as brackets_mod

    shapes = []
    bracket = brackets_mod.bracket_structured
    monkeypatch.setattr(brackets_mod, "bracket_structured",
                        lambda xf, yf, q: shapes.append(q.shape) or bracket(xf, yf, q))
    pair = RollingPair(Sphere(3, 1.0), Euclidean(3))
    assert flag_ranks(pair.random_state(np.random.default_rng(0)), depth=3).ranks == (3, 6, 9)
    assert shapes == [(), ()]


def test_a_depth_three_flag_computes_each_generator_quantity_at_q_once(monkeypatch):
    # the generators' rows at q and their derivative along those rows are
    # kept: bracket_structured(gens, gens, q) reads both twice and the depth-3
    # table's closed-form derivative reads the derivative again, while the
    # depth-3 bracket differentiates the generators along the depth-2 table
    import rollsym.brackets as brackets_mod

    q = RollingPair(Sphere(4, 1.0), Hyperbolic(4, 1.0)).random_state(np.random.default_rng(0))
    calls = Counter()
    make, bracket = brackets_mod.rolling_generators, brackets_mod.bracket_structured
    svd = np.linalg.svd

    def counted_generators():
        gens = make()
        return StructuredField(
            lambda s: calls.update([("rows", s.shape)]) or gens.value(s),
            lambda s, xi: (calls.update([("derivative", s.shape, len(xi))])
                           or gens.derivative(s, xi)))

    monkeypatch.setattr(brackets_mod, "rolling_generators", counted_generators)
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.update(["svd"]) or svd(*a, **k))
    monkeypatch.setattr(brackets_mod, "bracket_structured",
                        lambda xf, yf, s: calls.update(["bracket"]) or bracket(xf, yf, s))
    assert flag_ranks(q, depth=3).ranks == (4, 10, 14)
    assert calls == {("rows", ()): 1, ("derivative", (), 4): 1, ("derivative", (), 16): 1,
                     "svd": 3, "bracket": 2}


@pytest.mark.parametrize("pair", [
    RollingPair(Sphere(2, 1.0), Sphere(2, 3.0)),
    RollingPair(Sphere(3, 1.0), Euclidean(3)),
    RollingPair(Sphere(4, 1.0), Hyperbolic(4, 1.0)),
    RollingPair(Warped((-1.5, 1.5), WarpFunction("cosh"), Sphere(2, 1.0)), Sphere(3, 1.0)),
], ids=["S2(1)/S2(3)", "S3(1)/R3", "S4(1)/H4(1)", "cosh S2(1)/S3(1)"])
def test_a_flag_equals_its_tables_evaluated_afresh_and_ranked_as_one_batch(pair):
    # the tables kept at q and the layers equilibrated once, when adjoined,
    # give the flag that evaluates every table afresh and re-equilibrates all
    # layers at each step, bit for bit, at growth's states of seeds 0-49
    full = q_dim(pair.dim)
    for seed in range(50):
        q = pair.random_state(np.random.default_rng(seed))
        gens = rolling_generators()
        table = generator_brackets(gens)
        rows, steps = [], []
        for field in (gens, table, bracket_field(table, gens)):
            if steps and (steps[-1][0] == full or len(steps) > 1 and steps[-1][0] == steps[-2][0]):
                steps.append(steps[-1])  # a stationary flag stays stationary
                continue
            rows.append(field.value(q))
            steps.append(batch_rank(np.concatenate(rows), 1e-8, [len(r) for r in rows]))
        rep = flag_ranks(q, depth=3)
        assert rep.ranks == tuple(s[0] for s in steps) and rep.gaps == tuple(s[2] for s in steps)
        assert all(np.array_equal(a, s[1]) for a, s in zip(rep.singular_values, steps))


def space_forms(n):
    return st.one_of(st.builds(Sphere, st.just(n), st.floats(0.3, 3.0)),
                     st.builds(Hyperbolic, st.just(n), st.floats(0.3, 3.0)), st.just(Euclidean(n)))


WARPED_SURFACES = st.builds(lambda name: Warped((-1.2, 1.2), WarpFunction(name), Sphere(1, 1.0)),
                            st.sampled_from(["cos", "cosh"]))
CATALOG_PAIRS = (st.builds(RollingPair, space_forms(2) | WARPED_SURFACES, space_forms(2))
                 | st.builds(RollingPair, space_forms(3), space_forms(3)))


def catalog_factors(n):
    """Every kind of catalog manifold of dimension n: the three space forms
    and warped products over a space-form fiber of dimension n - 1."""
    fibers = st.one_of(st.builds(Sphere, st.just(n - 1), st.floats(0.5, 2.0)),
                       st.builds(Hyperbolic, st.just(n - 1), st.floats(0.5, 2.0)),
                       st.just(Euclidean(n - 1)))
    return st.one_of(space_forms(n), st.builds(
        lambda name, fiber: Warped((-1.2, 1.2), WarpFunction(name), fiber),
        st.sampled_from(["cos", "cosh", "exp", "affine"]), fibers))


ALL_CATALOG_PAIRS = st.integers(2, 3).flatmap(
    lambda n: st.builds(RollingPair, catalog_factors(n), catalog_factors(n)))


def stack_of(pair, rng, count):
    """count random states as one stack, and each of them built alone."""
    draws = [pair.draw(rng) for _ in range(count)]
    alone = [pair.state(*d) for d in draws]
    return pair.state(*(np.array(v) for v in zip(*draws))), alone


@settings(max_examples=30, deadline=None)
@given(ALL_CATALOG_PAIRS, st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_a_stack_of_states_equals_its_states_alone(pair, seed, count):
    # every row of a stacked evaluation is the evaluation at that state
    # alone, bit for bit: the anchored generator frame (its coordinates M at
    # the sample states of a stencil, and its connection forms there), the
    # bracket table, the stencil derivative of the table's fields (a depth-4
    # flag's sample states), the table's closed-form derivative and the rows
    # of the Killing candidates
    rng = np.random.default_rng(seed)
    qs, alone = stack_of(pair, rng, count)
    gens = rolling_generators()
    table = bracket_field(gens, gens)
    moved = tangent_curve(qs, gens.value(qs)[:, 0], 0.01)  # anchored at qs, away from it
    xi = rng.standard_normal((count, 2, q_dim(pair.dim)))  # C != 0
    stacked = (gens.value(moved), frame_field_derivative(moved, moved.frame[:, :1]),
               bracket_structured(gens, gens, qs),
               stencil_data_derivative(table.value, qs, gens.value(qs), NESTED_FD_STEP),
               generator_brackets(gens).derivative(moved, xi))
    for i, q in enumerate(alone):
        moved_alone = tangent_curve(q, gens.value(q)[0], 0.01)
        assert np.array_equal(stacked[0][i], gens.value(moved_alone))
        assert np.array_equal(stacked[1][i],
                              frame_field_derivative(moved_alone, moved_alone.frame[:1]))
        assert np.array_equal(stacked[2][i], bracket_structured(gens, gens, q))
        d = stencil_data_derivative(table.value, q, gens.value(q), NESTED_FD_STEP)
        closed = generator_brackets(gens).derivative(moved_alone, xi[i])
        for data, alone_data in ((stacked[3], d), (stacked[4], closed)):
            for got, want in zip((data.T, data.T_hat, data.U),
                                 (alone_data.T, alone_data.T_hat, alone_data.U)):
                assert np.array_equal(got[i], want)
    if not isinstance(pair.space_hat, Warped):
        cand = perturb_candidate(killing_to_symmetry(pair, killing_catalog(pair.space_hat)),
                                 1e-3, rng)
        got = cand.value(qs)
        assert all(np.array_equal(got[i], cand.value(q)) for i, q in enumerate(alone))


@settings(max_examples=40, deadline=None)
@given(ALL_CATALOG_PAIRS, st.integers(0, 2**32 - 1))
def test_the_generator_table_derivative_matches_a_stencil(pair, seed):
    # the closed form against the order-4 stencil of the table's values, at
    # states away from their anchor, along rows that also turn the contact map
    # (C != 0): the stencil's truncation at NESTED_FD_STEP is below 1e-7 of
    # the data's size on warped factors and near 1e-10 on space forms
    rng = np.random.default_rng(seed)
    q = pair.random_state(rng)
    gens = rolling_generators()
    table = generator_brackets(gens)
    # a unit rolling lift, so that a warped factor's s moves by at most 0.2,
    # in a random direction, so that no term of the frame's derivatives vanishes
    u = rng.standard_normal(pair.dim)
    moved = tangent_curve(q, u / np.linalg.norm(u) @ gens.value(q), 0.2)
    xi = rng.standard_normal((3, q_dim(pair.dim)))
    got = table.derivative(moved, xi)
    want = stencil_data_derivative(table.value, moved, xi, NESTED_FD_STEP)
    for a, b in zip((got.T, got.T_hat, got.U), (want.T, want.T_hat, want.U)):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-6 * max(1.0, float(np.abs(b).max()))


@settings(max_examples=40, deadline=None)
@given(CATALOG_PAIRS, st.integers(0, 2**32 - 1))
def test_bracket_antisymmetry_and_self_bracket(pair, seed):
    # the stacked table of [L_i, L_j] is antisymmetric with a zero diagonal,
    # and each entry is the bracket of the two stacks of one
    q = pair.random_state(np.random.default_rng(seed))
    n = pair.dim
    table = bracket_structured(rolling_generators(), rolling_generators(), q)
    table = table.reshape(n, n, -1)
    scale = max(1.0, float(np.abs(table).max()))
    assert np.abs(table + table.transpose(1, 0, 2)).max() <= 1e-12 * scale
    assert np.abs(np.diagonal(table, axis1=0, axis2=1)).max() <= 1e-12 * scale
    one = bracket_structured(generator(n - 1), generator(0), q)[0]
    assert np.abs(one - table[n - 1, 0]).max() <= 1e-12 * scale


@pytest.mark.parametrize("seed", [61, 62])
def test_fd_bracket_is_antisymmetric(seed):
    pair = PAIRS["hyp_sphere"]()
    q = pair.random_state(np.random.default_rng(seed))
    g0, g1 = generator(0), generator(1)
    b01 = bracket_fd(g0, g1, q)
    b10 = bracket_fd(g1, g0, pair.state(q.x, q.x_hat, q.isometry))
    assert np.abs(b01 + b10).max() < 1e-6


def test_flat_flat_coordinate_fields_commute():
    pair = RollingPair(Euclidean(2), Euclidean(2))
    rng = np.random.default_rng(37)

    def const_field(vec):
        vec = np.array([vec])
        return stencil_field(lambda s: rolling_lift(s, np.broadcast_to(vec, s.shape + vec.shape)))

    f1 = const_field([1.0, 0.0])
    f2 = const_field([0.0, 1.0])
    # the exact bracket is 0, so bracket_fd returns round-off alone: it solves
    # with a chart differential that is a stencil of step CHART_STEP of states
    # whose coordinates carry eps * scale, then differentiates by a stencil of
    # step ORACLE_STEP.  Each order-4 stencil's weights sum to 3/2 in absolute
    # value, so the round-off is about (3/2)^2 eps scale / (CHART_STEP
    # ORACLE_STEP) = 5e-8 scale; it halved as ORACLE_STEP doubled.  Over 300
    # states the worst was 0.30 of that (3.9e-8 raw).  A fixed 1e-8 failed at
    # one state in three.
    roundoff = 2.25 * np.finfo(float).eps / (CHART_STEP * ORACLE_STEP)
    for _ in range(20):
        q = pair.random_state(rng)
        scale = max(1.0, np.abs(q.x).max(), np.abs(q.x_hat).max())
        assert np.abs(bracket_structured(f1, f2, q)).max() < 1e-9
        assert np.abs(bracket_fd(f1, f2, q)).max() < roundoff * scale


def test_fd_bracket_reproduces_vertical_part_on_spheres():
    pair = PAIRS["spheres_1_3"]()
    q = pair.random_state(RNG)
    fd = bracket_fd(generator(0), generator(1), q)[0]
    assert abs(fd[4] - (-8.0 / 9.0)) < 1e-5  # the so(2) coordinate, C[0, 1]


def killing_induced_value(pair, rng):
    """The value closure of a test field, a stack of one, built from Killing
    data on both factors."""
    cat = killing_catalog(pair.space)
    cat_hat = killing_catalog(pair.space_hat)
    k1 = cat[rng.integers(len(cat))]
    k2 = cat_hat[rng.integers(len(cat_hat))]
    c0 = wedge_matrix(rng.standard_normal(pair.dim), rng.standard_normal(pair.dim))

    def value(q):
        z, c = q.coords(k1.value(q.x)), skew_to_vector(c0)
        return np.concatenate((z, q.coords_hat(k2.value(q.x_hat)),
                               np.broadcast_to(c, z.shape[:-1] + c.shape)), axis=-1)

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
        total = total + bracket_structured(stencil_field(values[a], 1e-2), inner, q)
    assert np.abs(total).max() < 1e-4


def test_structured_vs_fd_on_random_fields():
    pair = PAIRS["sphere_plane"]()
    rng = np.random.default_rng(9)
    for _ in range(3):
        q = pair.random_state(rng)
        f1 = stencil_field(killing_induced_value(pair, rng))
        f2 = stencil_field(killing_induced_value(pair, rng))
        a = bracket_structured(f1, f2, q)
        b = bracket_fd(f1, f2, q)
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


# depth-3 singular values of the flag of the three growth benchmark pairs,
# the same at every state, since the generator frame is anchored at the state
# and these pairs are homogeneous (they agree to 1.1e-14 over seven seeds)
PINNED_FLAG_SINGULAR_VALUES = {
    2: [1.695235825473479, 1.6952358254734745, 1.414213562373095, 0.3552119029977088,
        0.355211902997707],
    3: [2.1987549899853702, 2.1987549899853676, 2.198754989985362, 1.414213562373095,
        1.414213562373095, 1.4142135623730947, 0.4067880209819712, 0.4067880209819699,
        0.4067880209819697],
    4: [2.593356775500734, 2.5933567755007316, 2.593356775500731, 2.593356775500728,
        1.4142135623730954, 1.4142135623730954, 1.414213562373095, 1.414213562373095,
        1.414213562373095, 1.4142135623730947, 0.5239280818627718, 0.5239280818627716,
        0.5239280818627715, 0.5239280818627701],
}


@pytest.mark.parametrize("pair, seed", [
    (RollingPair(Sphere(2, 1.0), Sphere(2, 3.0)), 902),
    (RollingPair(Sphere(3, 1.0), Euclidean(3)), 903),
    (RollingPair(Sphere(4, 1.0), Hyperbolic(4, 1.0)), 904),
], ids=["S2(1)/S2(3)", "S3(1)/R3", "S4(1)/H4(1)"])
def test_stacked_flag_reproduces_the_pinned_singular_values(pair, seed):
    expected = np.array(PINNED_FLAG_SINGULAR_VALUES[pair.dim])
    for s in (seed, seed + 100, seed + 200):
        rep = flag_ranks(pair.random_state(np.random.default_rng(s)), depth=3)
        assert rep.ranks[-1] == len(expected)
        assert np.abs(rep.singular_values[-1] / expected - 1.0).max() <= 1e-9


# (-1.2, 1.2) x cos S2(2) on S3(1): its depth-4 flag brackets a bracket_field
# of the closed-form depth-2 table, one level of nested order-4 stencils
NESTED_PAIR = RollingPair(Warped((-1.2, 1.2), WarpFunction("cos"), Sphere(2, 2.0)), Sphere(3, 1.0))


# depth 4 reads rank 6 at every seed: at NESTED_FD_STEP = 1e-2 every seed
# reads 8, but the 7th and 8th singular values fall 16x per halving of the
# step (the stencil's truncation error), and from 5e-3 on every seed reads 6
@pytest.mark.parametrize("seed, ranks", [(0, (3, 4, 6, 6)), (1, (3, 4, 6, 6)), (2, (3, 4, 6, 6)),
                                         (3, (3, 4, 6, 6)), (4, (3, 4, 6, 6))])
def test_a_depth_four_flag_runs_its_nested_stencils(seed, ranks):
    rep = flag_ranks(NESTED_PAIR.random_state(np.random.default_rng(seed)), depth=4)
    assert rep.ranks == ranks
    assert all(math.isfinite(s) for sv in rep.singular_values for s in sv)
    if seed == 3:
        assert rep.gaps[-1] == pytest.approx(1.045e12, rel=0.01)
        assert all(g >= GAP_REQUIREMENT for g in rep.gaps)


# the values below the depth-4 rank cut, the truncation error of the
# order-4 stencil at NESTED_FD_STEP, lie outside the 1e4 margin that the CLI
# requires: a step sized for two nested levels (2.5e-3) left them inside it
@pytest.mark.parametrize("seed", range(10))
def test_a_depth_four_flag_that_reaches_eight_has_a_clear_gap(seed):
    rep = flag_ranks(NESTED_PAIR.random_state(np.random.default_rng(seed)), depth=4)
    assert all(g >= GAP_REQUIREMENT for g in rep.gaps)
    assert not _rank_cut_ambiguous(rep, 1e-8)


def rank_cut_margin(rep, tol=1e-8):
    """The smallest factor between a nonzero singular value of a flag and
    the rank cut of its step, the quantity that cli._rank_cut_ambiguous
    compares with GAP_REQUIREMENT."""
    return min(max(s / (tol * sv[0]), tol * sv[0] / s)
               for sv in rep.singular_values if sv[0] for s in sv if s)


@pytest.mark.parametrize("pair", [
    RollingPair(Sphere(2, 1.0), Sphere(2, 3.0)),
    RollingPair(Sphere(3, 1.0), Euclidean(3)),
    RollingPair(Sphere(4, 1.0), Hyperbolic(4, 1.0)),
], ids=["S2(1)/S2(3)", "S3(1)/R3", "S4(1)/H4(1)"])
def test_growth_flags_keep_a_wide_margin_to_the_rank_cut(pair):
    # growth's states at seeds 0-99; the anchored generators keep every
    # margin near 2e7 on these pairs (the Gram-Schmidt frame's lifts fell to
    # 378 over seeds 0-999), so a frame that loses margin fails here
    worst = min(rank_cut_margin(flag_ranks(pair.random_state(np.random.default_rng(seed))))
                for seed in range(100))
    assert worst >= 1e6


def test_a_flag_anchors_its_generators_at_its_own_state():
    # tangent_curve passes its base's anchor on to the state it reaches, here
    # near the antipode of that base, where the base's transvection turns
    # fast; flag_ranks re-anchors at the state itself
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    rng = np.random.default_rng(12)
    q0 = pair.random_state(rng)
    v = pair.space.random_tangent(rng, q0.x, unit=True)
    q = tangent_curve(q0, rolling_lift(q0, v), 3.1)
    rolled, rebuilt = flag_ranks(q), flag_ranks(pair.state(q.x, q.x_hat, q.isometry))
    assert rolled.ranks == rebuilt.ranks == (2, 3, 5)
    for a, b in zip(rolled.singular_values, rebuilt.singular_values):
        assert np.abs(a - b).max() <= 1e-12


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
        return rot.T @ gens.value(q)

    def derivative(q, xi):
        d = gens.derivative(q, xi)
        field = len(q.shape) + 1  # the field axis, after the stack and direction axes
        return FieldData(*(np.moveaxis(np.tensordot(rot, s, axes=(0, field)), 0, field)
                           for s in (d.T, d.T_hat, d.U)))

    return StructuredField(value, derivative)


def depth_three_ranks(gens, q):
    """Ranks of the flag D, D + [D, D], D + [D, D] + [[D, D], D] of the
    distribution that the stack gens spans at q, each step one layer of the
    rank rule, as flag_ranks takes them."""
    rows, layers, ranks, current = [], [], [], gens
    for step in range(3):
        if step:
            current = bracket_field(current, gens)
        rows.append(current.value(q))
        layers.append(len(rows[-1]))
        ranks.append(layered_rank(np.concatenate(rows), 1e-8, layers)[0])
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
        a = bracket_structured(gens, gens, q)
        b = bracket_fd(gens, gens, q)
        worst = max(worst, float(np.abs(a - b).max()))
    assert worst < 1e-5


@pytest.mark.parametrize("pair", [
    RollingPair(Sphere(4, 1.0), Hyperbolic(4, 1.0)),
    RollingPair(Warped((-1.5, 1.5), WarpFunction("cosh"), Sphere(2, 1.0)), Sphere(3, 1.0)),
    RollingPair(Sphere(3, 1.0), Warped((-1.5, 1.5), WarpFunction("cosh"), Sphere(2, 1.0))),
    RollingPair(Warped((-1.2, 1.2), WarpFunction("cos"), Sphere(1, 1.0)),
                Warped((-1.0, 1.0), WarpFunction("cosh"), Sphere(1, 1.0))),
], ids=["S4(1)/H4(1)", "cosh S2(1)/S3(1)", "S3(1)/cosh S2(1)", "cos S1/cosh S1"])
def test_the_depth_three_table_matches_the_fd_oracle(pair):
    # the closed-form derivative of the depth-2 table against the chart
    # oracle, which reads the table's values only; over 100 states per pair
    # the two agree to 3.4e-7 at worst
    gens = rolling_generators()
    table = generator_brackets(gens)
    for seed in range(5):
        q = pair.random_state(np.random.default_rng(seed))
        assert np.abs(bracket_structured(table, gens, q) - bracket_fd(table, gens, q)).max() < 1e-6


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
        return m.project(y, m.transport_along_geodesic(x0, w, 1.0, v0)[1])

    return ext


def rolling_lift_of_extension(pair, x0, v0, h):
    """The rolling lift of the normal extension of v0, a stack of one field
    differentiated by stencils of step h."""
    ext = normal_extension_field(pair.space, x0, v0)

    def value(q):  # the extension point by point, over any stack of states
        x = q.x.reshape(-1, q.x.shape[-1])
        return rolling_lift(q, np.array([ext(y) for y in x]).reshape(q.x.shape)[..., None, :])

    return stencil_field(value, h)


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
    n, a = pair.dim, q.isometry

    measured_class = outer[n : 2 * n] - outer[:n] @ a.T
    g = pair.space.inner_at
    rhs_base = -kappa * g(q.x, Z, X) * np.asarray(Y, float) + kappa * g(q.x, Y, X) * np.asarray(
        Z, float
    )
    expected_class = -q.coords(rhs_base) @ a.T
    # orthonormal frame coordinates: the Euclidean norm is the metric one
    return float(np.linalg.norm(measured_class - expected_class))


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

    # fiber planes carry (1 - sinh^2) / cosh^2 and radial planes -1; over a
    # circle fiber the same warp would be the hyperbolic plane
    warped = Warped((-1.2, 1.2), WarpFunction("cosh"), Sphere(2, 1.0))
    pair = RollingPair(warped, Euclidean(3))
    q = pair.random_state(RNG)
    with pytest.raises(GeometryError):
        double_bracket_identity_residual(q, q.frame[0], q.frame[1], q.frame[0])


def table_constant_curvature(m):
    """The warped space-form rule as the per-family table of f'^2 + k_ref f^2
    it was first written as, compared exactly: k_ref where the fiber planes
    carry it, None elsewhere.  Kept as the reference of the fiber-plane rule."""
    w = m.warp
    fiber_curvature = {"cos": w.omega**2 * (w.a**2 + w.b**2),
                       "cosh": w.omega**2 * (w.b**2 - w.a**2),
                       "exp": 0.0, "affine": w.b**2}[w.name]
    return w.k_ref if m.fiber.dim == 1 or m.fiber.curvature_constant == fiber_curvature else None


def mismatch_or_none(pair):
    try:
        return curvature_mismatch(pair)
    except GeometryError:
        return None


# dyadic radii, warp coefficients and frequencies keep every entry of the
# table exact, so the table's exact comparison is the true answer there
DYADIC = st.sampled_from([0.5, 1.0, 2.0])


def exact_factors(n):
    fibers = (st.builds(Sphere, st.just(1), DYADIC) if n == 2 else
              st.one_of(st.builds(Sphere, st.just(2), DYADIC),
                        st.builds(Hyperbolic, st.just(2), DYADIC), st.just(Euclidean(2))))
    warped = st.builds(lambda name, a, b, omega, fiber: Warped(
        (-0.3, 0.2), WarpFunction(name, a, b, omega), fiber),
        st.sampled_from(["cos", "cosh", "exp", "affine"]), st.sampled_from([1.0, 2.0]),
        st.sampled_from([0.0, 0.5, 1.0]), DYADIC, fibers)
    return st.one_of(st.builds(Sphere, st.just(n), DYADIC), st.builds(Hyperbolic, st.just(n), DYADIC),
                     st.just(Euclidean(n)), warped, warped)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.builds(RollingPair, exact_factors(n),
                                                     exact_factors(n))))
def test_warped_space_form_rule_agrees_with_the_family_table(pair):
    # kappa from the fiber-plane curvature against kappa from the table,
    # with warped first and second factors
    ks = [table_constant_curvature(m) if isinstance(m, Warped) else m.curvature_constant
          for m in (pair.space, pair.space_hat)]
    assert mismatch_or_none(pair) == (None if None in ks else ks[0] - ks[1])


@pytest.mark.parametrize("r", [0.3, 0.7])
@pytest.mark.parametrize("name, form", [("cos", Sphere), ("cosh", Hyperbolic)])
def test_warped_space_forms_with_an_inexact_frequency_match_their_space_form(name, form, r):
    # omega = 1/r squares to 1/r^2 only to round-off: the exact table missed
    # cos over S2(r), and kappa came out null instead of 0
    warped = Warped((-1.2 * r, 1.2 * r), WarpFunction(name, omega=1.0 / r), form(2, r))
    assert table_constant_curvature(warped) is None
    assert curvature_mismatch(RollingPair(form(3, r), warped)) == 0.0
    assert curvature_mismatch(RollingPair(warped, form(3, r))) == 0.0
    # a nearby radius is a different curvature
    assert curvature_mismatch(RollingPair(form(3, r * (1 + 1e-9)), warped)) != 0.0
