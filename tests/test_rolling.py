import json
import math

import csv

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from rollsym import (DomainError, Euclidean, GeodesicPath, GeometryError, Hyperbolic, SampledPath,
                     Sphere, WarpFunction, Warped)
from rollsym.curvature import (rolling_curvature, skew_part, skew_to_vector, vector_to_skew,
                               wedge_matrix)
from rollsym.rolling import (
    RollingCurve,
    RollingPair,
    _pull_back,
    det_transport_matrix,
    directional_derivative,
    expm as rolling_expm,
    q_dim,
    random_rotation,
    roll_along,
    rolling_lift,
    tangent_curve,
)
from rollsym import rolling as rolling_module
from rollsym.brackets import chart_differential, curve_velocity
from rollsym.cli import main
from rollsym.numerics import central_diff, stencil_offsets
from rollsym.spaces import POINT_TOL
from test_brackets import ALL_CATALOG_PAIRS, catalog_factors

RNG = np.random.default_rng(123)
STEP = 1e-3  # the stencil step of directional_derivative where no test pins another


def sphere_on_plane():
    return RollingPair(Sphere(2, 1.0), Euclidean(2))


def stack(pair, states):
    """The stack of lone states, in order, as one RollingState."""
    return pair.state(*(np.array(v) for v in zip(*((q.x, q.x_hat, q.isometry) for q in states))))


def sampled_roll(q0, path, step):
    """roll_along on the points of a geodesic path at its grid of the given
    step, given as a SampledPath: the broken geodesic through them is the
    geodesic itself, which this rolls one segment at a time."""
    times = path.sample_times(step)
    return roll_along(q0, SampledPath(path.manifold, times, path.point(times)))


# -- states and lifts ----------------------------------------------------------------


def test_pair_requires_equal_dimensions():
    with pytest.raises(GeometryError):
        RollingPair(Sphere(2, 1.0), Euclidean(3))


def test_hyperbolic_draws_pass_their_own_point_check_at_a_small_radius():
    # a draw of unit spatial coordinates at r = 1e-3 lies about asinh(1000) = 7.6
    # radii out, where its relative constraint residual is round-off of about
    # 1e6 ulps: 180 of these 200 draws failed the point check of their state
    pair = RollingPair(Hyperbolic(3, 1e-3), Hyperbolic(3, 1e-3))
    for seed in range(200):
        q = pair.random_state(np.random.default_rng(seed))
        assert max(pair.space.point_error(q.x), pair.space_hat.point_error(q.x_hat)) <= POINT_TOL


def test_rolling_on_warped_pair():
    # warped first factor: Clairaut geodesics and transports behind the same API
    from rollsym import WarpFunction, Warped

    warped = Warped((-1.2, 1.2), WarpFunction("cos"), Sphere(1, 1.0))
    pair = RollingPair(warped, Sphere(2, 1.0))
    rng = np.random.default_rng(71)
    q0 = pair.random_state(rng)
    v = pair.space.random_tangent(rng, q0.x, unit=True)
    path = GeodesicPath(pair.space, q0.x, v, 0.6)
    curve = roll_along(q0, path, step=1e-3)
    assert curve.residuals.max() < 1e-7
    back = roll_along(curve.final_state(), path.reversed(), step=1e-3).final_state()
    assert np.linalg.norm(back.x - q0.x) < 1e-6
    assert np.abs(back.isometry - q0.isometry).max() < 1e-6


def test_killing_symmetry_with_warped_first_factor():
    # the induced-symmetry construction holds for any first factor
    from rollsym import WarpFunction, Warped
    from rollsym.symmetry import killing_catalog, killing_to_symmetry, symmetry_residual

    warped = Warped((-1.2, 1.2), WarpFunction("cosh"), Sphere(1, 1.0))
    pair = RollingPair(warped, Sphere(2, 1.0))
    rng = np.random.default_rng(72)
    q = pair.random_state(rng)
    X = pair.space.random_tangent(rng, q.x, unit=True)
    for field in killing_catalog(pair.space_hat):
        cand = killing_to_symmetry(pair, field)
        r1, r2 = symmetry_residual(cand, q[None], X[None])
        assert max(r1[0, 0], r2[0, 0]) < 1e-6


def test_state_invariants_enforced():
    pair = sphere_on_plane()
    x = pair.space.random_point(RNG)
    x_hat = pair.space_hat.random_point(RNG)
    with pytest.raises(GeometryError):
        pair.state(x, x_hat, np.array([[1.0, 0.2], [0.0, 1.0]]))  # not orthogonal
    with pytest.raises(GeometryError):
        pair.state(x, x_hat, np.array([[1.0, 0.0], [0.0, -1.0]]))  # reflection


def _points_in_stack_order(m, rng, count):
    """count random points of m, one at a time, by the per-point draw of
    the earlier code, in the rng order of a stack: a warped product's
    coordinates s for all points come before all of its fiber points."""
    if isinstance(m, Warped):
        lo, hi = m.interval
        pad = 0.15 * (hi - lo)
        s = [rng.uniform(lo + pad, hi - pad) for _ in range(count)]
        return [np.concatenate(([si], y)) for si, y in
                zip(s, _points_in_stack_order(m.fiber, rng, count))]
    points = []
    for _ in range(count):
        if isinstance(m, Sphere):
            v = rng.standard_normal(m.amb_dim)
            points.append(m.radius * v / np.linalg.norm(v))
        elif isinstance(m, Hyperbolic):  # in units of r
            spatial = m.radius * rng.standard_normal(m.dim)
            x = np.empty(m.amb_dim)
            x[1:] = spatial
            x[0] = math.sqrt(m.radius**2 + float(np.dot(spatial, spatial)))
            points.append(x)
        else:
            points.append(rng.standard_normal(m.amb_dim))
    return points


def _rotation_alone(rng, n):
    """One random rotation by the per-matrix code of the earlier draw."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _tangent_alone(m, rng, x):
    """One random unit tangent vector at x by the earlier per-point code."""
    v = m.project(x, rng.standard_normal(m.amb_dim))
    return v / math.sqrt(m.inner_at(x, v, v))


def _same(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


DRAW_SHAPES = st.one_of(st.just(()), st.tuples(st.integers(1, 4)),
                        st.tuples(st.integers(1, 3), st.integers(1, 4)))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.builds(RollingPair, catalog_factors(n),
                                                     catalog_factors(n))),
       st.integers(0, 2**32 - 1), DRAW_SHAPES)
def test_stacked_draws_are_states_and_unit_tangents_in_stack_order(pair, seed, shape):
    # every catalog kind in either slot: a stack of draws holds valid states
    # and unit tangents, and it is its points, rotations and tangents drawn
    # one at a time by the earlier code, in the stack's rng order (all x,
    # all x_hat, all A, then the tangents at each factor) and with the same
    # rng state after it; for shape (), the lone draw of random_state, bit
    # for bit
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    n, count = pair.dim, math.prod(shape)
    x, x_hat, a = pair.draw(rng, shape)
    vs = [m.random_tangent(rng, pts, unit=True)
          for m, pts in ((pair.space, x), (pair.space_hat, x_hat))]
    assert x.shape == shape + (pair.space.amb_dim,) and a.shape == shape + (n, n)
    for m, pts, v in ((pair.space, x, vs[0]), (pair.space_hat, x_hat, vs[1])):
        assert np.array_equal(m.point(pts), pts)
        assert np.all(m.tangency_residual(pts, v) <= 1e-12)
        assert np.all(np.abs(m.inner_at(pts, v, v) - 1.0) <= 1e-12)
    assert np.abs(a.mT @ a - np.eye(n)).max() <= 1e-12
    assert np.all(np.abs(np.linalg.det(a) - 1.0) <= 1e-12)

    want = [_points_in_stack_order(pair.space, ref, count),
            _points_in_stack_order(pair.space_hat, ref, count),
            [_rotation_alone(ref, n) for _ in range(count)]]
    for m, points in ((pair.space, want[0]), (pair.space_hat, want[1])):
        want.append([_tangent_alone(m, ref, p) for p in points])
    # a warped metric evaluates its warp by NumPy, at a lone point as in a
    # stack, so a warped factor's tangents match bit for bit too
    for got, rows in zip((x, x_hat, a, *vs), want):
        assert _same(got, np.array(rows).reshape(got.shape))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_state_json_round_trip(tmp_path, capsys):
    # a config's initial_state is read (Run.initial_state) in the form that
    # rol writes its state in (cli._plain), and comes back byte-identical
    q = sphere_on_plane().random_state(RNG)
    state = {"x": q.x.tolist(), "x_hat": q.x_hat.tolist(), "A": q.isometry.tolist()}
    pair = [{"kind": "sphere", "dim": 2, "radius": 1.0}, {"kind": "euclidean", "dim": 2}]
    cfg, out = tmp_path / "config.json", tmp_path / "rol.json"
    cfg.write_text(json.dumps({"manifold_pair": pair, "initial_state": state}))
    assert main(["--config", str(cfg), "rol", "--out", str(out)]) == 0
    report = out.read_text()
    again = json.loads(report)["state"]
    assert again == state  # every float exactly
    cfg.write_text(json.dumps({"manifold_pair": pair, "initial_state": again}))
    assert main(["--config", str(cfg), "rol", "--out", str(out)]) == 0
    assert out.read_text() == report
    assert np.allclose(again["x"], q.x)
    assert np.allclose(again["A"], q.isometry)
    # a valid stack of one state is no state
    stack = {key: [value] for key, value in state.items()}
    cfg.write_text(json.dumps({"manifold_pair": pair, "initial_state": stack}))
    capsys.readouterr()
    assert main(["--config", str(cfg), "rol"]) == 2
    assert capsys.readouterr().err == ("error: a state holds one contact map, "
                                       "got a stack of shape (1,)\n")


def test_rolling_lift_zero_and_identity():
    pair = RollingPair(Euclidean(2), Euclidean(2))
    q = pair.state(np.zeros(2), np.ones(2), np.eye(2))
    xi = rolling_lift(q, np.zeros(2))
    assert np.all(xi == 0.0)
    e1 = np.array([1.0, 0.0])
    lifted = rolling_lift(q, e1)
    assert np.allclose(lifted[:2] @ q.frame, e1)
    assert np.allclose(lifted[2:4] @ q.frame_hat, e1)
    assert np.all(lifted[4:] == 0.0)


def test_rolling_lift_is_isometric_and_linear():
    pair = RollingPair(Sphere(2, 2.0), Hyperbolic(2, 1.0))
    q = pair.random_state(RNG)
    X = pair.space.random_tangent(RNG, q.x)
    Y = pair.space.random_tangent(RNG, q.x)
    gx = pair.space.inner_at(q.x, X, X)
    x_hat = rolling_lift(q, X)[2:4] @ q.frame_hat
    assert abs(pair.space_hat.inner_at(q.x_hat, x_hat, x_hat) - gx) < 1e-9
    both = rolling_lift(q, 2.0 * X - Y)
    assert np.allclose(both, 2.0 * rolling_lift(q, X) - rolling_lift(q, Y), atol=1e-12)


# -- rolling curves ----------------------------------------------------------------


def brute_roll(pair, q0, path, n_steps):
    """Independent oracle: explicit Euler on the kinematic constraints with
    per-step projection, using only metric projections and transports."""
    m, mh = pair.space, pair.space_hat
    n = pair.dim
    ts = np.linspace(0.0, path.t_max, n_steps + 1)
    x_hat = np.array(q0.x_hat)
    frame = np.array(q0.frame)
    frame_hat = np.array(q0.frame_hat)
    a_par = np.array(q0.isometry)
    for a, b in zip(ts[:-1], ts[1:]):
        h = b - a
        x = path.point(a)
        v = path.velocity(a)
        coeff = np.array([m.inner_at(x, v, frame[k]) for k in range(n)])
        v_hat = frame_hat.T @ (a_par @ coeff)
        new_frame = np.array(
            [frame[k] + h * m.transport_rhs(x, v, frame[k]) for k in range(n)]
        )
        new_frame_hat = np.array(
            [frame_hat[k] + h * mh.transport_rhs(x_hat, v_hat, frame_hat[k]) for k in range(n)]
        )
        x_hat = mh.closest_point(x_hat + h * v_hat)
        xb = path.point(b)
        frame = np.array([m.project(xb, w) for w in new_frame])
        frame_hat = np.array([mh.project(x_hat, w) for w in new_frame_hat])
    return x_hat


def test_straight_segment_develops_to_great_circle_arc():
    # plane rolling on the sphere: a straight driving segment of length L
    # develops to a great-circle arc of length L
    pair = RollingPair(Euclidean(2), Sphere(2, 1.0))
    q0 = pair.random_state(RNG)
    v = pair.space.random_tangent(RNG, q0.x, unit=True)
    length = 1.3
    path = GeodesicPath(pair.space, q0.x, v, length)
    curve = roll_along(q0, path, step=1e-3)
    qT = curve.final_state()
    expected = pair.space_hat.geodesic_flow(q0.x_hat, q0.apply(v), length)[0]
    assert np.linalg.norm(qT.x_hat - expected) < 1e-9
    oracle = brute_roll(pair, q0, path, 40000)
    assert np.linalg.norm(qT.x_hat - oracle) < 1e-3


def test_constant_path_keeps_state():
    pair = sphere_on_plane()
    q0 = pair.random_state(RNG)
    ts = np.linspace(0.0, 1.0, 33)
    pts = np.tile(q0.x, (33, 1))
    path = SampledPath(pair.space, ts, pts)
    curve = roll_along(q0, path, step=1e-2)
    for x_hat, a in zip(curve.x_hat, curve.A):
        assert np.allclose(x_hat, q0.x_hat, atol=1e-12)
        assert np.allclose(a, q0.isometry, atol=1e-10)


def test_matched_spheres_preserve_the_diagonal():
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 1.0))
    x = pair.space.random_point(RNG)
    q0 = pair.state(x, x, np.eye(2))
    v = pair.space.random_tangent(RNG, x, unit=True)
    path = GeodesicPath(pair.space, x, v, 2.0)
    coarse = sampled_roll(q0, path, step=1e-3).final_state()
    fine = sampled_roll(q0, path, step=1e-4).final_state()
    assert np.linalg.norm(coarse.x_hat - coarse.x) < 1e-8
    assert np.abs(coarse.isometry - np.eye(2)).max() < 1e-8
    assert np.linalg.norm(coarse.x_hat - fine.x_hat) < 1e-9


def test_roll_reversibility():
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    q0 = pair.random_state(RNG)
    v = pair.space.random_tangent(RNG, q0.x, unit=True)
    path = GeodesicPath(pair.space, q0.x, v, 1.7)
    out = sampled_roll(q0, path, step=1e-3)
    back = sampled_roll(out.final_state(), path.reversed(), step=1e-3).final_state()
    assert np.linalg.norm(back.x - q0.x) < 1e-6
    assert np.linalg.norm(back.x_hat - q0.x_hat) < 1e-6
    assert np.abs(back.isometry - q0.isometry).max() < 1e-6


def test_isometry_residual_and_orientation_along_curves():
    pair = sphere_on_plane()
    q0 = pair.random_state(RNG)
    v = pair.space.random_tangent(RNG, q0.x, unit=True)
    curve = roll_along(q0, GeodesicPath(pair.space, q0.x, v, 2 * math.pi), step=1e-3)
    assert curve.residuals.max() < 1e-7
    assert np.all(np.linalg.det(curve.A) > 0)


def test_coarse_roll_stays_on_the_constraints():
    # the segment kernel needs no projection: at a coarse step every row is
    # an isometry to round-off and the end point is the closed form's
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    q0 = pair.random_state(RNG)
    v = pair.space.random_tangent(RNG, q0.x, unit=True)
    path = GeodesicPath(pair.space, q0.x, v, 1.0)
    curve = sampled_roll(q0, path, step=1e-2)
    exact = tangent_curve(q0, rolling_lift(q0, v), 1.0)
    assert np.linalg.norm(curve.final_state().x_hat - exact.x_hat) < 1e-7
    assert curve.residuals.max() < 1e-12


# a space form of each kind; hyperbolic radii stay >= 1, since the paths
# (length <= pi) are in absolute units: a smaller radius puts them further out
# in units of r, against a relative POINT_TOL
SPACE_FORMS = st.one_of(
    st.builds(Sphere, st.sampled_from([2, 3]), st.floats(0.5, 3.0)),
    st.builds(Hyperbolic, st.sampled_from([2, 3]), st.floats(1.0, 3.0)),
    st.builds(Euclidean, st.sampled_from([2, 3])),
)


@st.composite
def space_form_rolls(draw):
    first, second = draw(SPACE_FORMS), draw(SPACE_FORMS)
    second = type(second)(first.dim, *([second.radius] if hasattr(second, "radius") else []))
    return (RollingPair(first, second), draw(st.integers(0, 2**32 - 1)),
            draw(st.floats(1e-3, math.pi)), draw(st.floats(1e-3, 0.1)))


@st.composite
def catalog_rolls(draw):
    """space_form_rolls, or a roll on a pair with a warped factor in either
    slot.  Its unit-speed geodesic is at most 0.3 long, so that neither
    contact point leaves the interval (random_point keeps 0.36 from its ends),
    and its step at most 1e-2."""
    warped = ALL_CATALOG_PAIRS.filter(lambda p: "warped" in (p.space.kind, p.space_hat.kind))
    return draw(space_form_rolls() | st.tuples(warped, st.integers(0, 2**32 - 1),
                                                st.floats(1e-3, 0.3), st.floats(1e-3, 1e-2)))


def _scale(x):
    return max(1.0, float(np.abs(x).max()))


@settings(max_examples=40, deadline=None)
@given(space_form_rolls())
# the forward roll ends 1.4e-12 off the hyperboloid and off SO(3); unless the
# reverse roll starts its group elements from the nearest point and rotation,
# the boosts amplify that defect to 2.9e-10 and the reverse roll fails
@example((RollingPair(Euclidean(3), Hyperbolic(3, 1.0)), 4058, 3.0, 0.0625))
# the reverse roll starts at |x_hat| = 50; unless each sampled step moves the
# second point back onto H2(1), its residual grows to 1.2e-10 and fails the check
@example((RollingPair(Hyperbolic(2, 1.0), Hyperbolic(2, 1.0)), 69, 3.125, 1 / 64))
# the reverse roll starts at |x_hat| = 50 too; unless the transported images
# of the frame, J-orthonormal there only to |x_hat|^2 ulps, are made
# J-orthonormal again after each step, its isometry residual reads 4.3e-11
@example((RollingPair(Hyperbolic(2, 1.0), Hyperbolic(2, 1.0)), 156, 3.125, 1 / 64))
def test_rolling_on_space_forms_holds_its_constraints_and_reverses(roll):
    pair, seed, length, step = roll
    rng = np.random.default_rng(seed)
    q0 = pair.random_state(rng)
    v = pair.space.random_tangent(rng, q0.x, unit=True)
    path = GeodesicPath(pair.space, q0.x, v, length)
    curve = sampled_roll(q0, path, step=step)
    for m, pts in ((pair.space, curve.x), (pair.space_hat, curve.x_hat)):
        assert m.constraint_residual(pts).max() <= POINT_TOL
    assert curve.residuals.max() < 1e-11
    assert np.all(np.linalg.det(curve.A) > 0)
    end, exact = curve.final_state(), tangent_curve(q0, rolling_lift(q0, v), length)
    assert np.abs(end.x_hat - exact.x_hat).max() < 1e-9 * _scale(exact.x_hat)
    assert np.abs(end.isometry - exact.isometry).max() < 1e-9 * _scale(exact.x_hat)
    reverse = sampled_roll(end, path.reversed(), step=step)
    assert reverse.residuals.max() < 1e-11
    back = reverse.final_state()
    assert np.abs(back.x - q0.x).max() < 1e-9 * _scale(end.x)
    assert np.abs(back.x_hat - q0.x_hat).max() < 1e-9 * _scale(end.x_hat)
    assert np.abs(back.isometry - q0.isometry).max() < 1e-9 * _scale(end.x_hat)


@pytest.mark.parametrize("pair, seeds", [
    (RollingPair(Hyperbolic(2, 1.0), Hyperbolic(2, 1.0)), (3, 108, 125, 231)),
    (RollingPair(Hyperbolic(3, 1.0), Euclidean(3)), (69, 84)),
], ids=["H2(1)^2", "H3(1)/R3"])
def test_far_out_hyperbolic_rolls_hold_their_isometry_bound(pair, seeds):
    # inputs of test_rolling_on_space_forms_holds_its_constraints_and_reverses
    # at length 3.125, step 1/64, whose |x| reaches 65-86: the frames there are
    # J-orthonormal only to ulps of |x|^2 ~ 5e3, and unless each step's
    # transport is its nearest rotation the isometry residual read 1.1e-11 to
    # 1.9e-11 against the 1e-11 bound
    worst = {}
    for seed in seeds:
        rng = np.random.default_rng(seed)
        q0 = pair.random_state(rng)
        v = pair.space.random_tangent(rng, q0.x, unit=True)
        curve = sampled_roll(q0, GeodesicPath(pair.space, q0.x, v, 3.125), step=1 / 64)
        worst[seed] = curve.residuals.max()
    assert max(worst.values()) < 1e-11, worst


@settings(max_examples=40, deadline=None)
@given(catalog_rolls())
@example((RollingPair(Euclidean(3), Hyperbolic(3, 1.0)), 4058, 3.0, 0.0625))
# the corner layouts: negative signature entries and an R^n second factor, a
# warped first factor over R^n, and R^n in both slots
@example((RollingPair(Warped((-1.2, 1.2), WarpFunction("cosh"), Hyperbolic(1, 1.0)),
                      Euclidean(2)), 0, 0.3, 1e-2))
@example((RollingPair(Warped((-1.2, 1.2), WarpFunction("affine", 1.0, 0.3), Euclidean(2)),
                      Sphere(3, 1.0)), 1, 0.3, 1e-2))
@example((RollingPair(Euclidean(2), Euclidean(2)), 2, 3.0, 1e-2))
# at the fixed RK4 step 2e-3 the oracle missed A by 1.03e-8 here (row 125 of
# 143): its truncation, for the miss fell 16-fold per halving of the step
@example((RollingPair(Hyperbolic(3, 1.0), Sphere(3, 0.5)), 6092208, 1.10546875, 0.0078125))
def test_geodesic_rolls_on_space_forms_match_rk4_row_by_row(roll):
    # roll_along takes the closed form on every pair, and the test-local RK4
    # on both parallel frames, from transport_rhs alone, is its oracle at
    # every row, at a step (rk4_step) whose truncation stays under the bound
    pair, seed, length, step = roll
    rng = np.random.default_rng(seed)
    q0 = pair.random_state(rng)
    v = pair.space.random_tangent(rng, q0.x, unit=True)
    path = GeodesicPath(pair.space, q0.x, v, length)
    curve = roll_along(q0, path, step=step)
    x_hat, a = rk4_roll(q0, ClosedFormPath(path.flow, curve.times), rk4_step(pair, length))
    scale = np.maximum(1.0, np.abs(x_hat).max(axis=1))
    assert np.all(np.abs(curve.x_hat - x_hat).max(axis=1) < 1e-9 * scale)
    assert np.all(np.abs(curve.A - a).max(axis=(1, 2)) < 1e-9 * scale)


@pytest.mark.parametrize("first, second", [
    (Sphere(2, 1.0), Sphere(2, 3.0)), (Hyperbolic(3, 1.0), Euclidean(3)),
    (Euclidean(2), Hyperbolic(2, 2.0)),
    (Warped((-1.2, 1.2), WarpFunction("cos"), Sphere(1, 1.0)), Sphere(2, 1.0)),
    (Sphere(2, 1.0), Warped((-1.2, 1.2), WarpFunction("cosh"), Sphere(1, 1.0)))], ids=repr)
def test_a_geodesic_roll_on_space_forms_takes_no_matrix_exponential(monkeypatch, first, second):
    calls = []
    expm = rolling_module.expm
    monkeypatch.setattr(rolling_module, "expm", lambda a: calls.append(a.shape) or expm(a))
    pair = RollingPair(first, second)
    rng = np.random.default_rng(2)
    q0 = pair.random_state(rng)
    v = pair.space.random_tangent(rng, q0.x, unit=True)
    assert len(roll_along(q0, GeodesicPath(pair.space, q0.x, v, 1.0), step=1e-2).times) == 101
    # nor do the same points as a sampled path, rolled one segment at a time
    ts = np.linspace(0.0, 1.0, 11)
    roll_along(q0, SampledPath(pair.space, ts, pair.space.geodesic_flow(q0.x, v, ts)[0]))
    assert calls == []


def _far_hyperbolic_roll(length, step):
    """H2(1)/S2(1) at seed 0, rolled along a unit geodesic far out on the
    hyperboloid, and the sample times of the path."""
    pair = RollingPair(Hyperbolic(2, 1.0), Sphere(2, 1.0))
    rng = np.random.default_rng(0)
    q0 = pair.random_state(rng)
    path = GeodesicPath(pair.space, q0.x, pair.space.random_tangent(rng, q0.x, unit=True), length)
    return pair, q0, path, path.sample_times(step)


def test_rows_that_fail_their_checks_are_a_domain_error_at_the_first_failing_time():
    # far out on the hyperboloid (|x|^2 ~ 2e5 near t = 6.9) a point misses the
    # absolute POINT_TOL by round-off; the roll names the first sample time
    # whose written row fails, here the path's own point there
    pair, q0, path, times = _far_hyperbolic_roll(9.0, 0.01)
    with pytest.raises(DomainError) as info:
        roll_along(q0, path, step=0.01)
    err = pair.space.point_error(path.point(times))
    k = int(np.argmax(~(err <= POINT_TOL)))
    assert f"{times[k]:.6g}" == "6.86"
    assert str(info.value) == (f"the roll fails a check at t = 6.86: point violates the "
                               f"hyperbolic constraint by {err[k]:.3e}")


@pytest.mark.parametrize("length, sampled, fails", [(9.0, False, True), (6.0, False, False),
                                                     (6.0, True, False)])
def test_every_roll_runs_its_kernel_and_its_check_once(monkeypatch, length, sampled, fails):
    _, q0, path, times = _far_hyperbolic_roll(length, 0.01)
    if sampled:
        path = SampledPath(path.manifold, times[::10], path.point(times[::10]))
    calls = []
    for name in ("_canonical_states", "_roll_broken", "_check_rows"):
        func = getattr(rolling_module, name)
        monkeypatch.setattr(rolling_module, name,
                            lambda *args, name=name, func=func: calls.append(name) or func(*args))
    if fails:
        with pytest.raises(DomainError):
            roll_along(q0, path, step=0.01)
    else:
        roll_along(q0, path, step=0.01)
    assert calls == ["_roll_broken" if sampled else "_canonical_states", "_check_rows"]


def test_a_roll_that_overflows_past_its_first_bad_row_names_that_row(recwarn):
    # at length 800 the rows overflow to inf and NaN long after the first
    # row that fails; the roll still names that row, and warns of nothing
    _, q0, path, _ = _far_hyperbolic_roll(800.0, 1.0)
    with pytest.raises(DomainError) as info:
        roll_along(q0, path, step=1.0)
    assert str(info.value) == ("the roll fails a check at t = 7: point violates the hyperbolic "
                               "constraint by 2.682e-10")
    assert not recwarn.list


def test_the_row_check_names_the_first_failing_row_with_its_own_message():
    # rows 1, 3 and 4 fail different checks: the error is row 1's, from its
    # own value, although row 4 fails a check that comes first in a state
    pair = RollingPair(Sphere(2, 1.0), Hyperbolic(2, 1.0))
    x, x_hat, a = pair.draw(np.random.default_rng(5), (2, 3))
    a[0, 1] *= 1.01  # flat row 1: not an isometry
    a[1, 0, :, 0] *= -1.0  # flat row 3: a reflection
    x[1, 1] *= 2.0  # flat row 4: off the sphere
    residual = np.linalg.norm(a[0, 1].T @ a[0, 1] - np.eye(2))
    with pytest.raises(GeometryError) as info:
        pair.state(x, x_hat, a)
    assert info.value.row == 1
    assert str(info.value) == f"contact map is not an isometry (residual {residual:.3e})"
    a[0, 1] /= 1.01
    with pytest.raises(GeometryError, match="^contact map must preserve orientation$") as info:
        pair.state(x, x_hat, a)
    assert info.value.row == 3
    a[1, 0, :, 0] *= -1.0
    message = f"point violates the sphere constraint by {pair.space.point_error(x[1, 1]):.3e}"
    for stack, row in (((x, x_hat, a), 4), ((x[1, 1], x_hat[1, 1], a[1, 1]), 0)):
        with pytest.raises(GeometryError) as info:
            pair.state(*stack)
        assert (info.value.row, str(info.value)) == (row, message)
    with pytest.raises(GeometryError, match="^expected 3 ambient coordinates"):
        pair.state(x[..., :2], x_hat, a)


@pytest.mark.parametrize("hat", [Euclidean(2), Sphere(2, 3.0)], ids=repr)
def test_full_turn_matches_the_closed_form(hat):
    pair = RollingPair(Sphere(2, 1.0), hat)
    rng = np.random.default_rng(8)
    q0 = pair.random_state(rng)
    v = pair.space.random_tangent(rng, q0.x, unit=True)
    exact = tangent_curve(q0, rolling_lift(q0, v), 2 * math.pi)
    for step in (1e-3, 0.05):
        curve = sampled_roll(q0, GeodesicPath(pair.space, q0.x, v, 2 * math.pi), step=step)
        end = curve.final_state()
        assert np.abs(end.x_hat - exact.x_hat).max() < 1e-10
        assert np.abs(end.isometry - exact.isometry).max() < 1e-10
        assert curve.residuals.max() <= 1e-12


def _latitude_circle(ts, lat=0.7):
    return np.column_stack((math.sin(lat) * np.cos(ts), math.sin(lat) * np.sin(ts),
                            np.full_like(ts, math.cos(lat))))


def rk4_step(pair, length):
    """An RK4 step for rk4_roll along a unit-speed path of the given length
    that keeps its miss under 1e-9: the miss grows as length omega^5 h^4, for
    omega^2 the largest |K| of the pair's factors (at least 1, and 1 on the
    catalog's warped factors).  The miss read 18 times that product on
    H3(1)/S3(0.5) along 1.1 (1.03e-8 at h = 2e-3; 1.8e-10 at this step) and
    at most 4.2 times on 2,269 random rolls with a sphere factor of |K| in
    [1, 4], so a product of 1e-11 keeps a fivefold margin.  At most 2e-3,
    where one step costs about 80 us."""
    k = max(abs(getattr(f, "curvature_constant", 1.0)) for f in (pair.space, pair.space_hat))
    return min(2e-3, (1e-11 / (length * max(1.0, k) ** 2.5)) ** 0.25)


def rk4_roll(q0, path, step):
    """Independent reference for roll_along: classical RK4 on the second
    factor's point and on both parallel frames, from transport_rhs alone and
    with no settling, each interval of the path's sample times split into
    substeps of length at most step.  Returns x_hat and A at the sample
    times, A[j, i] = sum_k <E_hat_j, image_k> <frame_k, E_i> for the
    deterministic frames E and E_hat."""
    m, mh = q0.pair.space, q0.pair.space_hat
    times = path.sample_times(step)

    def rhs(flow, y):
        (x, v), (x_hat, frame, image) = flow, y
        v_hat = m.inner_at(x, frame, v) @ image
        return v_hat, m.transport_rhs(x, v, frame), mh.transport_rhs(x_hat, v_hat, image)

    def plus(y, h, k):
        return tuple(a + h * b for a, b in zip(y, k))

    y = (q0.x_hat, q0.frame, q0.isometry.T @ q0.frame_hat)
    rows = [y]
    for a, b in zip(times[:-1], times[1:]):
        steps = max(1, math.ceil((b - a) / step * (1 - 1e-9)))
        h = (b - a) / steps
        pts, vel = path.flow(a + h / 2 * np.arange(2 * steps + 1))  # the stages' times
        for i in range(0, 2 * steps, 2):
            start, mid, end = ((pts[j], vel[j]) for j in (i, i + 1, i + 2))
            k1 = rhs(start, y)
            k2 = rhs(mid, plus(y, h / 2, k1))
            k3 = rhs(mid, plus(y, h / 2, k2))
            k4 = rhs(end, plus(y, h, k3))
            y = tuple(u + h / 6 * (d1 + 2 * d2 + 2 * d3 + d4)
                      for u, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4))
        rows.append(y)
    x_hat, frame, image = (np.array(r) for r in zip(*rows))
    x = path.point(times)
    p = m.inner_at(x[:, None, None], frame[:, :, None], m.frame(x)[:, None])
    q = mh.inner_at(x_hat[:, None, None], mh.frame(x_hat)[:, :, None], image[:, None])
    return x_hat, q @ p


class ClosedFormPath:
    """A driving path given by the closed forms of its points and velocities
    at an array of times (`flow`), sampled at `times`: what the test-local
    RK4 references read, a curved path or a geodesic on a grid of its own."""

    def __init__(self, flow, times):
        self.flow, self.times = flow, times

    def point(self, t):
        return self.flow(np.atleast_1d(t))[0]

    def sample_times(self, step):
        return self.times


def _warped_start(fiber, miss, rng):
    """A point and unit velocity on cos x S^2(1) or cos x H^2(1).  With miss
    None: the fiber point (1, 0, 0), where the deterministic frame skips a
    different basis vector than next to it, and a random direction.  With
    miss d: 0.05 before the point where the fiber geodesic comes closest to
    (1, 0, 0), at fiber distance d."""
    m = Warped((-1.2, 1.2), WarpFunction("cos"), fiber)
    if miss is None:
        x = np.array([0.2, 1.0, 0.0, 0.0])
        return m, x, m.random_tangent(rng, x, unit=True)
    ch, sh = (math.cos(miss), math.sin(miss)) if fiber.kind == "sphere" else (
        math.cosh(miss), math.sinh(miss))
    closest = np.array([0.2, ch, 0.0, sh])
    v = np.array([0.3, 0.0, 1.0, 0.0])
    back = GeodesicPath(m, closest, v / math.sqrt(m.inner_at(closest, v, v)), 0.05)
    return m, back.point(0.05), -back.velocity(0.05)


@pytest.mark.parametrize("fiber", [Sphere(2, 1.0), Hyperbolic(2, 1.0)], ids=repr)
@pytest.mark.parametrize("miss", [None, 1e-3, 0.3], ids=repr)
def test_warped_first_factor_rolls_like_rk4(fiber, miss):
    # the closed form and the roll of the geodesic's samples against the
    # test-local RK4 on both parallel frames at a ten times finer step, row
    # by row, also where the path starts at or passes next to the fiber point
    # where the deterministic frame jumps
    rng = np.random.default_rng(5)
    m, x, v = _warped_start(fiber, miss, rng)
    pair = RollingPair(m, Sphere(3, 1.0))
    q0 = pair.state(x, pair.space_hat.random_point(rng), random_rotation(rng, 3))
    path = GeodesicPath(m, x, v, 0.1)
    x_hat, a = rk4_roll(q0, path, 1e-4)
    for curve in (roll_along(q0, path, step=1e-3), sampled_roll(q0, path, 1e-3)):
        assert curve.residuals.max() < 1e-12
        assert np.abs(curve.x_hat - x_hat[::10]).max() < 1e-9
        assert np.abs(curve.A - a[::10]).max() < 1e-9


@pytest.mark.parametrize("fiber", [Sphere(1, 1.0), Sphere(2, 1.0)], ids=repr)
def test_warped_rolls_keep_orientation(fiber):
    # a warped frame whose last row flipped between neighbouring points made
    # the contact map look orientation-reversing ("contact map must preserve
    # orientation"), e.g. on I x_cos S^1 with seed 3
    pair = RollingPair(Warped((-1.2, 1.2), WarpFunction("cos"), fiber), Sphere(fiber.dim + 1, 1.0))
    for seed in range(8):
        rng = np.random.default_rng(seed)
        q0 = pair.random_state(rng)
        v = pair.space.random_tangent(rng, q0.x, unit=True)
        length, step = (1.0, 1e-3) if seed == 3 else (0.3, 1e-2)
        curve = roll_along(q0, GeodesicPath(pair.space, q0.x, v, length), step=step)
        assert np.all(np.linalg.det(curve.A) > 0)


def _sampled_geodesic(m, x, v, t_max, count):
    """The geodesic of (x, v) up to t_max as a SampledPath of count samples."""
    ts = np.linspace(0.0, t_max, count)
    return SampledPath(m, ts, m.geodesic_flow(x, v, ts)[0])


@settings(max_examples=40, deadline=None)
@given(catalog_rolls())
@example((RollingPair(Euclidean(3), Hyperbolic(3, 1.0)), 4058, 3.0, 0.0625))
def test_a_sampled_geodesic_rolls_along_its_canonical_curve(roll):
    # 41 samples of a geodesic are the broken geodesic of 40 pieces of it:
    # every row is the canonical curve's at its time, warped factors in
    # either slot included
    pair, seed, length, _ = roll
    rng = np.random.default_rng(seed)
    q0 = pair.random_state(rng)
    v = pair.space.random_tangent(rng, q0.x, unit=True)
    curve = _sampled_geodesic(pair.space, q0.x, v, length, 41)
    rolled = roll_along(q0, curve)
    exact = tangent_curve(q0, rolling_lift(q0, v), curve.times)
    scale = np.maximum(1.0, np.maximum(np.abs(exact.x).max(axis=1),
                                       np.abs(exact.x_hat).max(axis=1)))
    assert np.all(np.abs(rolled.x_hat - exact.x_hat).max(axis=1) <= 1e-12 * scale)
    assert np.all(np.abs(rolled.A - exact.isometry).max(axis=(1, 2)) <= 1e-12 * scale)


CHAIN_PAIRS = [(Sphere(2, 1.0), Sphere(2, 3.0)), (Sphere(2, 1.0), Euclidean(2)),
               (Hyperbolic(2, 1.0), Sphere(2, 2.0)), (Euclidean(3), Hyperbolic(3, 1.0)),
               (Warped((-1.2, 1.2), WarpFunction("cos"), Sphere(1, 1.0)), Sphere(2, 1.0)),
               (Sphere(2, 1.0), Warped((-1.2, 1.2), WarpFunction("cosh"), Sphere(1, 1.0))),
               (Warped((-1.2, 1.2), WarpFunction("exp"), Hyperbolic(2, 1.0)),
                Warped((-1.2, 1.2), WarpFunction("affine", b=0.3), Euclidean(2)))]


@pytest.mark.parametrize("first, second", CHAIN_PAIRS, ids=repr)
def test_a_broken_geodesic_rolls_as_the_chain_of_its_segments(first, second):
    # 8 geodesic pieces of random lengths, directions and durations: the
    # sampled roll at each vertex is the roll along each piece as a
    # GeodesicPath from the end state of the one before (30% as long on a
    # warped pair, whose points stay in their intervals)
    pair = RollingPair(first, second)
    unit = 0.3 / 8 if "warped" in (first.kind, second.kind) else 0.3
    for seed in range(5):
        rng = np.random.default_rng(seed)
        q0 = pair.random_state(rng)
        lengths, durations = unit * rng.uniform(0.5, 1.0, 8), rng.uniform(0.1, 1.0, 8)
        points, pieces, q, rows = [q0.x], [], q0, [q0]
        for length, dt in zip(lengths, durations):
            x = points[-1]
            v = first.random_tangent(rng, x, unit=True) * (length / dt)
            points.append(first.geodesic_flow(x, v, dt)[0])
            q = roll_along(q, GeodesicPath(first, x, v, dt), step=dt).final_state()
            rows.append(q)
        times = np.concatenate(([0.0], np.cumsum(durations)))
        rolled = roll_along(q0, SampledPath(first, times, np.array(points)))
        for got_hat, got_a, want in zip(rolled.x_hat, rolled.A, rows):
            assert np.abs(got_hat - want.x_hat).max() <= 1e-12 * lengths.sum()
            assert np.abs(got_a - want.isometry).max() <= 1e-12 * lengths.sum()


@pytest.mark.parametrize("first, second, span", [
    (Sphere(2, 1.0), Sphere(2, 3.0), 2.0), (Sphere(2, 1.0), Euclidean(2), 2.0),
    (Sphere(2, 1.0), Warped((-1.2, 1.2), WarpFunction("cosh"), Sphere(1, 1.0)), 0.3),
    (Warped((-1.2, 1.2), WarpFunction("cos"), Sphere(1, 1.0)), Sphere(2, 3.0), 2.0)], ids=repr)
@pytest.mark.parametrize("count", [9, 201, 801])
def test_a_curved_sampled_path_holds_its_isometry_at_round_off(first, second, span, count):
    # a latitude circle of S2(1), or a circle of the S1 fiber while s swings:
    # the contact maps of the broken geodesic through its samples stay
    # isometries to round-off however many segments there are
    ts = np.linspace(0.0, span, count)
    if first.kind == "warped":
        points = np.column_stack((0.3 + 0.4 * np.sin(ts), np.cos(ts), np.sin(ts)))
    else:
        points = _latitude_circle(ts)
    pair = RollingPair(first, second)
    rng = np.random.default_rng(1)
    q0 = pair.state(points[0], second.random_point(rng), random_rotation(rng, 2))
    curve = roll_along(q0, SampledPath(first, ts, points))
    assert len(curve.times) == count
    assert curve.residuals.max() < 1e-13
    assert second.constraint_residual(curve.x_hat).max() < 1e-13


def _turning_angles(p, r):
    """The signed turning angle of the broken geodesic through the rows of p
    on S^2(r) at each of its inner vertices, from spherical trigonometry:
    the angle from the incoming to the outgoing direction, the tangents at
    the vertex towards its neighbours, in the orientation of the outward
    normal."""
    prev, at, nxt = p[:-2], p[1:-1], p[2:]

    def towards(q):  # the tangent at `at` towards q
        return q - np.vecdot(at, q)[:, None] / r**2 * at

    into, out = -towards(prev), towards(nxt)
    return np.arctan2(np.vecdot(at / r, np.cross(into, out)), np.vecdot(into, out))


def _wrapped(angle):
    return (angle + math.pi) % (2 * math.pi) - math.pi


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("count", [3, 4, 7, 50])
def test_a_sphere_rolled_along_a_broken_geodesic_develops_into_its_polygon(r, count):
    # no slip and no twist: the development in the plane of a broken
    # geodesic of S^2(r) is the polygon of the same side lengths and turning
    # angles, each read off the sphere by arccos of dot products and atan2 of
    # cross products
    pair = RollingPair(Sphere(2, r), Euclidean(2))
    for seed in range(3):
        rng = np.random.default_rng(seed)
        p = [pair.space.random_point(rng)]
        for _ in range(count - 1):  # steps of 0.2 r to 1.2 r
            g = pair.space.random_tangent(rng, p[-1], unit=True) * rng.uniform(0.2, 1.2)
            p.append(r * (p[-1] + r * g) / np.linalg.norm(p[-1] + r * g))
        p = np.array(p)
        q0 = pair.state(p[0], rng.standard_normal(2), random_rotation(rng, 2))
        dev = roll_along(q0, SampledPath(pair.space, np.cumsum(rng.uniform(0.1, 1.0, count)),
                                         p)).x_hat
        sides = r * np.arccos(np.clip(np.vecdot(p[:-1], p[1:]) / r**2, -1.0, 1.0))
        assert np.abs(np.linalg.norm(np.diff(dev, axis=0), axis=1) - sides).max() <= 1e-12 * r
        d = np.diff(dev, axis=0)
        planar = np.arctan2(d[:-1, 0] * d[1:, 1] - d[:-1, 1] * d[1:, 0], np.vecdot(d[:-1], d[1:]))
        assert np.abs(_wrapped(planar - _turning_angles(p, r))).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("count", [3, 4, 7, 50])
def test_the_holonomy_of_a_closed_broken_geodesic_is_its_area_times_curvature(r, count):
    # Gauss-Bonnet: around a closed broken geodesic, counterclockwise about
    # the north pole, the parallel frame turns by 2 pi minus the sum of the
    # turning angles, which is K times the enclosed area, the sum of the
    # signed excesses of the triangles (pole, p_i, p_i+1).  The plane's
    # parallel frame does not turn, so A comes back as A0 turned back by it.
    pair = RollingPair(Sphere(2, r), Euclidean(2))
    for seed in range(3):
        rng = np.random.default_rng(seed)
        # azimuth gaps below pi keep every triangle of the fan positive
        phi = 2 * math.pi * (np.arange(count) + rng.uniform(0.3, 0.7, count)) / count
        theta = rng.uniform(0.3, 1.2, count)
        p = r * np.column_stack((np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                                 np.cos(theta)))
        p = np.concatenate((p, p[:1]))
        q0 = pair.state(p[0], rng.standard_normal(2), random_rotation(rng, 2))
        end = roll_along(q0, SampledPath(pair.space, np.linspace(0.0, 1.0, count + 1), p))
        turn = q0.isometry.T @ end.A[-1]
        holonomy = -math.atan2(turn[1, 0], turn[0, 0])
        turning = _turning_angles(np.concatenate((p[-2:-1], p)), r).sum()
        a, b, c = np.array([0.0, 0.0, 1.0]), p[:-1] / r, p[1:] / r
        excess = 2 * np.arctan2(np.vecdot(a, np.cross(b, c)),
                                1 + b @ a + np.vecdot(b, c) + c @ a).sum()
        assert abs(_wrapped(holonomy - (2 * math.pi - turning))) <= 1e-12
        assert abs(_wrapped(holonomy - excess)) <= 1e-12
        assert 0 < excess < 2 * math.pi


def test_a_sparsely_sampled_path_rolls_with_round_off_residuals():
    # 4 samples of a unit-speed geodesic of S^2(1), 1/3 apart: each segment
    # is a geodesic, which rolls in closed form, so the contact maps stay
    # isometries to round-off (a spline through the samples once failed the
    # isometry check at t = 1/3 with a residual of 1.1e-8)
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    rng = np.random.default_rng(0)
    q0 = pair.random_state(rng)
    v = pair.space.random_tangent(rng, q0.x, unit=True)
    ts = np.linspace(0.0, 1.0, 4)
    curve = roll_along(q0, SampledPath(pair.space, ts, pair.space.geodesic_flow(q0.x, v, ts)[0]))
    assert curve.residuals.max() < 1e-14


@pytest.mark.parametrize("first", [Sphere(2, 1.0), Warped((-1.2, 1.2), WarpFunction("cos"),
                                                          Sphere(1, 1.0))], ids=["S2(1)", "warped"])
def test_a_roll_onto_a_warped_factor_reads_its_path_once(first):
    # the closed form reads a geodesic in one flow call besides roll_along's
    # start check, and a sampled path is read as its samples, with no flow
    # at any step
    pair = RollingPair(first, Warped((-1.0, 1.0), WarpFunction("cosh"), Sphere(1, 1.0)))
    for seed in range(5):
        rng = np.random.default_rng(seed)
        q0 = pair.random_state(rng)
        v = pair.space.random_tangent(rng, q0.x, unit=True)
        geodesic = GeodesicPath(pair.space, q0.x, v, 0.3)
        sampled = _sampled_geodesic(pair.space, q0.x, v, 0.3, 31)
        for step in (1e-3, 0.01, 0.07):
            for path, reads, rows in ((geodesic, [0, 1], len(geodesic.sample_times(step))),
                                      (sampled, [], 31)):
                calls = []
                flow = getattr(path, "flow", None)  # a sampled path has none
                path.flow = lambda t: calls.append(np.ndim(t)) or flow(t)
                curve = roll_along(q0, path, step=step)
                del path.flow
                assert calls == reads
                assert len(curve.times) == rows


def test_one_clairaut_pass_per_transport_call_on_a_warped_factor(monkeypatch):
    # the point and the transport come from one evaluation of the geodesic
    first = Warped((-1.2, 1.2), WarpFunction("cos"), Sphere(1, 1.0))
    pair = RollingPair(first, Warped((-1.0, 1.0), WarpFunction("cosh"), Sphere(1, 1.0)))
    rng = np.random.default_rng(3)
    q = pair.random_state(rng)
    X, xi = 0.2 * first.random_tangent(rng, q.x, unit=True), 0.2 * rng.standard_normal(q_dim(2))
    calls, flow = [], Warped._clairaut_flow
    monkeypatch.setattr(Warped, "_clairaut_flow",
                        lambda self, *args: calls.append(self) or flow(self, *args))
    det_transport_matrix(first, q.x[None], q.frame[None], X[None], np.array([0.3]))
    assert calls == [first]
    calls.clear()
    tangent_curve(q, xi, 0.3)
    assert calls == [first, pair.space_hat]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3).flatmap(catalog_factors), st.integers(0, 2**32 - 1),
       st.lists(st.booleans(), min_size=1, max_size=12))
def test_a_transport_row_has_the_same_bytes_in_any_stack(m, seed, still):
    # every row of a stack of still and moving rows gets the bytes it gets in
    # a stack whose rows all move or all stand still; the first point has a
    # coordinate -0.0, which a still row keeps
    rng = np.random.default_rng(seed)
    still = np.array(still)
    x = m.random_point(rng, still.shape)
    x[0, -1] = 0.0
    x[0] = m.closest_point(x[0])
    x[0, -1] = -0.0
    v = np.where(still[:, None], 0.0, m.random_tangent(rng, x, unit=True))
    t, frames = rng.uniform(-0.2, 0.2, len(x)), m.frame(x)
    mixed = det_transport_matrix(m, x, frames, v, t)
    for rows in (still, ~still):
        if rows.any():
            alike = det_transport_matrix(m, x[rows], frames[rows], v[rows], t[rows])
            for got, want in zip(mixed, alike):
                assert got[rows].tobytes() == want.tobytes()


def test_roll_along_rejects_bad_paths():
    pair = sphere_on_plane()
    q0 = pair.random_state(RNG)
    other = pair.space.random_point(RNG)
    with pytest.raises(GeometryError):
        roll_along(q0, GeodesicPath(pair.space, other, pair.space.random_tangent(RNG, other), 1.0))


def test_velocity_round_trip_on_rolling_curves():
    pair = RollingPair(Sphere(2, 1.0), Hyperbolic(2, 1.0))
    q0 = pair.random_state(RNG)
    v = pair.space.random_tangent(RNG, q0.x, unit=True)
    dt = 1e-5
    samples = tangent_curve(q0, rolling_lift(q0, v), np.array([2 * dt, dt, -dt, -2 * dt]))
    row = curve_velocity(q0, samples, dt)
    assert np.linalg.norm(row[:2] @ q0.frame - v) < 1e-6
    assert np.linalg.norm(row[2:4] @ q0.frame_hat - q0.apply(v)) < 1e-6
    assert np.abs(row[4:]).max() < 1e-6


def test_trajectory_csv_schema(tmp_path):
    pair = sphere_on_plane()
    q0 = pair.random_state(RNG)
    v = pair.space.random_tangent(RNG, q0.x, unit=True)
    curve = roll_along(q0, GeodesicPath(pair.space, q0.x, v, 0.2), step=1e-2)
    out = tmp_path / "traj.csv"
    curve.write_csv(out)
    header = out.read_text().splitlines()[0].split(",")
    assert header == [
        "t", "x0", "x1", "x2", "xhat0", "xhat1",
        "A00", "A01", "A10", "A11", "isometry_residual",
    ]
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == len(curve.times)
    # every float written by repr, as csv.writer writes rows of repr strings
    n_rows = len(curve.times)
    table = np.column_stack((curve.times, curve.x, curve.x_hat, curve.A.reshape(n_rows, -1),
                             curve.residuals))
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in table)
    assert out.read_bytes() == ref.read_bytes()


def test_rolling_curve_checks_every_row():
    pair = sphere_on_plane()
    q0 = pair.random_state(RNG)
    v = pair.space.random_tangent(RNG, q0.x, unit=True)
    curve = roll_along(q0, GeodesicPath(pair.space, q0.x, v, 0.2), step=1e-2)
    rows = (curve.times, curve.x, curve.x_hat, curve.A)
    flip = np.diag([1.0, -1.0])
    bad = [
        (curve.x + np.where(np.arange(len(curve.times)) == 7, 1e-6, 0.0)[:, None], 1),
        (np.where(np.arange(len(curve.times))[:, None] == 9, np.nan, curve.x_hat), 2),
        (curve.A[:, :1], 3),
        (np.where(np.arange(len(curve.times))[:, None, None] == 4, np.inf, curve.A), 3),
        (curve.A @ flip, 3),
    ]
    for value, slot in bad:
        args = list(rows)
        args[slot] = value
        with pytest.raises(GeometryError):
            RollingCurve(pair, *args)
    assert np.allclose(RollingCurve(pair, *rows).residuals, curve.residuals)
    # a roll's isometry residual is reported, not refused: its caller weighs
    # it against its own tolerance (|1.001^2 I - I| = 2.001e-3 sqrt(2))
    scaled = RollingCurve(pair, *rows[:3], curve.A * 1.001)
    assert np.allclose(scaled.residuals, 2.001e-3 * math.sqrt(2.0))


# -- derivatives ----------------------------------------------------------------------


def _reading_field(s):
    """A field of one tangent row that reads the contact map and the frames:
    (A^T e_0, A e_0, skew coordinates of A)."""
    a = s.isometry
    return np.concatenate((a[..., 0, :], a[..., :, 0], skew_to_vector(skew_part(a))),
                          axis=-1)[..., None, :]


def _rows(s, x=None, x_hat=None, c=None):
    """One tangent row per state of s from the slots given (zero where not)."""
    n = s.pair.dim
    rows = np.zeros(s.shape + (q_dim(n),))
    for block, value in ((slice(0, n), x), (slice(n, 2 * n), x_hat), (slice(2 * n, None), c)):
        if value is not None:
            rows[..., block] = value
    return rows


def test_a_directional_derivative_builds_all_its_sample_states_in_one_call(monkeypatch):
    # one tangent_curve call per derivative call, of states times stencil
    # offsets states, and one call of the field on them; nothing is kept
    # between calls, and an empty stack gives empty derivatives
    import rollsym.rolling as rolling_mod

    calls, evaluated = [], []
    build = rolling_mod.tangent_curve

    def counting(*args):
        states = build(*args)
        calls.append(math.prod(states.shape))
        return states

    def field(s):
        evaluated.append(s.shape)
        return _reading_field(s)

    monkeypatch.setattr(rolling_mod, "tangent_curve", counting)
    pair = RollingPair(Sphere(2, 1.0), Hyperbolic(2, 2.0))
    rng = np.random.default_rng(3)
    qs = stack(pair, [pair.random_state(rng) for _ in range(3)])
    Xs = np.array([pair.space.random_tangent(rng, x, unit=True) for x in qs.x])
    rows = rolling_lift(qs, Xs)
    results = []
    for h in (1e-4, STEP, STEP):
        calls.clear()
        evaluated.clear()
        results.append(directional_derivative(field, qs, rows, h))
        assert calls == [len(qs) * 4]
        assert evaluated == [(4, len(qs))]
    for twice, once in zip(results[1], results[2]):
        assert np.array_equal(twice, once)
    d_x, d_xhat, d_u = directional_derivative(field, qs[:0], rows[:0], STEP)
    assert (d_x.shape, d_xhat.shape, d_u.shape) == ((0, 1, 2), (0, 1, 2), (0, 1, 2, 2))


def test_rolling_derivative_of_parallel_field_vanishes():
    pair = RollingPair(Euclidean(2), Euclidean(2))
    q = pair.random_state(RNG)
    const = np.array([0.3, -0.7])
    d = directional_derivative(lambda s: _rows(s, x=s.coords(const)), q,
                               rolling_lift(q, np.array([1.0, 0.0])), STEP)
    assert max(np.abs(slot).max() for slot in d) < 1e-8


def test_rolling_derivative_of_the_isometry_vanishes():
    # the contact map is parallel along rolling curves, so the vertical data
    # A C of a constant C is too
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    q = pair.random_state(RNG)
    X = pair.space.random_tangent(RNG, q.x, unit=True)
    *_, d_u = directional_derivative(lambda s: _rows(s, c=[0.4]), q, rolling_lift(q, X), STEP)
    assert np.abs(d_u).max() < 1e-8


def test_rolling_derivative_of_flat_translation_field_vanishes():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    q = pair.random_state(RNG)
    X = pair.space.random_tangent(RNG, q.x, unit=True)
    const_hat = np.array([1.0, 2.0])
    _, d_xhat, _ = directional_derivative(lambda s: _rows(s, x_hat=s.coords_hat(const_hat)), q,
                                          rolling_lift(q, X), STEP)
    assert np.abs(d_xhat).max() < 1e-10


def test_rolling_derivative_is_linear_in_direction():
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    rng = np.random.default_rng(61)
    q = pair.random_state(rng)
    X = pair.space.random_tangent(rng, q.x)
    Y = pair.space.random_tangent(rng, q.x)

    def along(v):  # along the rolling lift of v
        return directional_derivative(_reading_field, q, rolling_lift(q, v), STEP)

    for dX, dY, dXY in zip(along(X), along(Y), along(0.5 * X + 2.0 * Y)):
        assert np.abs(dXY - (0.5 * dX + 2.0 * dY)).max() < 1e-8


@st.composite
def pull_back_cases(draw):
    """A pair of space forms, or one with a warped factor on either side,
    and a seed."""
    pair, seed, _, _ = draw(space_form_rolls())
    side = draw(st.sampled_from(["neither", "first", "second"]))
    if side != "neither":
        warp = Warped((-1.2, 1.2), WarpFunction(draw(st.sampled_from(["cos", "cosh"]))),
                      Sphere(pair.dim - 1, 1.0))
        pair = RollingPair(warp, pair.space_hat) if side == "first" else RollingPair(pair.space, warp)
    return pair, seed


def _transported_back(m, x, v, t, w):
    """w at the geodesic point exp_x(t v), transported back to x along the
    geodesic (by -t from the geodesic point)."""
    xt, vt = m.geodesic_flow(x, v, t)
    return m.transport_along_geodesic(xt, vt, -t, w)[1]


def _random_tangent_row(rng, q):
    """A tangent row at q that moves both base points (unit speed) and spins."""
    m, mh, n = q.pair.space, q.pair.space_hat, q.pair.dim
    return np.concatenate((q.coords(m.random_tangent(rng, q.x, unit=True)),
                           q.coords_hat(mh.random_tangent(rng, q.x_hat, unit=True)),
                           skew_to_vector(wedge_matrix(rng.standard_normal(n),
                                                       rng.standard_normal(n)))))


@settings(max_examples=40, deadline=None)
@given(pull_back_cases())
def test_pull_back_through_kept_transports_matches_transport_by_minus_t(case):
    # the sample states' frame-transport matrices pull the data (X, X_hat,
    # A C) of a field of tangent rows back as transporting it back along the
    # geodesics does, slot by slot
    pair, seed = case
    m, mh, n = pair.space, pair.space_hat, pair.dim
    rng = np.random.default_rng(seed)
    q = pair.random_state(rng)
    xi = _random_tangent_row(rng, q)
    X, X_hat = xi[:n] @ q.frame, xi[n : 2 * n] @ q.frame_hat
    w, w_hat = rng.standard_normal((m.amb_dim,) * 2), rng.standard_normal((mh.amb_dim,) * 2)
    r = rng.standard_normal((mh.amb_dim, m.amb_dim))

    def ambient(s):  # the drifts as ambient vectors, and C
        return (m.project(s.x, s.x @ w.T) + (s.isometry[..., :1, :] @ s.frame)[..., 0, :],
                mh.project(s.x_hat, s.x_hat @ w_hat.T) + s.apply(s.frame[..., 0, :]),
                skew_part(s.isometry.mT @ s.frame_hat @ r @ s.frame.mT))

    def field(s):
        v, v_hat, c = ambient(s)
        return _rows(s, s.coords(v), s.coords_hat(v_hat), skew_to_vector(c))

    def deleted_path(t):
        qt = tangent_curve(q, xi, t)
        v, v_hat, c = ambient(qt)
        fwd = q.coords(_transported_back(m, q.x, X, t, qt.frame))
        fwd_hat = q.coords_hat(_transported_back(mh, q.x_hat, X_hat, t, qt.frame_hat))
        return (q.coords(_transported_back(m, q.x, X, t, v)),
                q.coords_hat(_transported_back(mh, q.x_hat, X_hat, t, v_hat)),
                fwd_hat.T @ qt.isometry @ c @ fwd)

    paths = [deleted_path(t) for t in stencil_offsets(1e-4)]
    for slot, got in enumerate(directional_derivative(field, q, xi, 1e-4)):
        expected = central_diff([p[slot] for p in paths], 1e-4)
        assert np.abs(got - expected).max() <= 1e-8 * _scale(expected)


def _ambient_pull_back(q, qt, value, kind):
    """The pull-back as it was written on ambient vectors, kept as the
    reference of the coordinate one: frame coordinates at qt, through the
    kept transports, back to ambient vectors at the base q."""
    fwd, fwd_hat = qt.transports
    if kind == "vector":
        return (qt.coords(value) @ fwd) @ q.frame
    if kind == "vector_hat":
        return (qt.coords_hat(value) @ fwd_hat) @ q.frame_hat
    return fwd_hat.T @ value @ fwd


@settings(max_examples=60, deadline=None)
@given(pull_back_cases(), st.floats(0.05, 0.3), st.sampled_from([1.0, -1.0]))
def test_the_coordinate_pull_back_equals_the_coordinates_of_the_ambient_one(case, size, sign):
    # warped states keep a margin of 0.36 to the interval's ends: unit speed
    # for at most 0.3 stays inside
    pair, seed = case
    m, mh, n = pair.space, pair.space_hat, pair.dim
    rng = np.random.default_rng(seed)
    q = pair.random_state(rng)
    qt = tangent_curve(q, _random_tangent_row(rng, q), sign * size)
    vectors = m.project(qt.x, rng.standard_normal((3, m.amb_dim)))
    vectors_hat = mh.project(qt.x_hat, rng.standard_normal((3, mh.amb_dim)))
    cs = skew_part(rng.standard_normal((3, n, n)))
    rows = np.concatenate((qt.coords(vectors), qt.coords_hat(vectors_hat), skew_to_vector(cs)),
                          axis=-1)
    wants = (q.coords(_ambient_pull_back(q, qt, vectors, "vector")),
             q.coords_hat(_ambient_pull_back(q, qt, vectors_hat, "vector_hat")),
             _ambient_pull_back(q, qt, qt.isometry @ cs, "map"))
    for got, want in zip(_pull_back(qt, rows), wants):
        assert np.abs(got - want).max() <= 1e-12 * _scale(want)


def test_vertical_derivative_examples():
    # along the fiber rows (0, 0, c) only the contact map moves
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    mh = pair.space_hat
    q = pair.random_state(RNG)
    c = wedge_matrix(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    fiber = _rows(q, c=skew_to_vector(c))

    def along_fiber(field):
        return directional_derivative(field, q, fiber, STEP)

    # a drift independent of the contact map
    w_hat = RNG.standard_normal(mh.amb_dim)
    _, d0, _ = along_fiber(lambda s: _rows(s, x_hat=s.coords_hat(mh.project(s.x_hat, w_hat))))
    assert np.abs(d0).max() < 1e-12

    # the vertical data A C0 of a constant C0 differentiates to A C C0
    c0 = wedge_matrix(np.array([0.6, 0.2]), np.array([-0.1, 0.9]))
    *_, d1 = along_fiber(lambda s: _rows(s, c=skew_to_vector(c0)))
    assert np.allclose(d1, q.isometry @ c @ c0, atol=1e-9)

    # the rolling curvature at a frozen bivector xi as vertical data
    # A skew(A^T Rol(xi)), which is Rol(xi) = kappa A xi on space forms:
    # analytic fiber derivative kappa A C xi
    xi = c0
    *_, d2 = along_fiber(lambda s: _rows(s, c=skew_to_vector(
        skew_part(s.isometry.mT @ rolling_curvature(s, xi)))))
    kappa = pair.space.curvature_constant - mh.curvature_constant
    assert np.allclose(d2, kappa * q.isometry @ c @ xi, atol=1e-6)


def test_chart_differential_is_identity_at_origin():
    pair = RollingPair(Sphere(2, 1.0), Hyperbolic(2, 1.0))
    q = pair.random_state(RNG)
    (d,), _ = chart_differential(q, np.zeros((1, q_dim(pair.dim))))
    assert np.abs(d - np.eye(q_dim(pair.dim))).max() < 1e-8


# -- the stacked canonical-curve kernel -----------------------------------------------


def _one_row_tangent_curve(q, X, X_hat, C, t):
    """The canonical curve of one row as it was built before the kernel was
    stacked, kept as the kernel's reference: (x, x_hat, A, transports)."""

    def transport_in_frames(m, x, basis, v):
        if not np.any(v):
            return x, np.eye(m.dim)
        xt = m.geodesic_flow(x, v, t)[0]
        frame_t = m.frame(xt)
        return xt, m.inner_at(xt, frame_t[:, None], m.transport_along_geodesic(x, v, t, basis)[1])

    xt, fwd = transport_in_frames(q.pair.space, q.x, q.frame, X)
    xht, fwd_hat = transport_in_frames(q.pair.space_hat, q.x_hat, q.frame_hat, X_hat)
    a = fwd_hat @ q.isometry
    if np.any(C):
        a = a @ expm(t * C)
    u, _, vt = np.linalg.svd(a @ fwd.T)
    return xt, xht, u @ vt, (fwd, fwd_hat)


@pytest.mark.parametrize("scale", [1e-3, 0.1, 0.3])
def test_rolling_expm_matches_scipy_on_skew_stacks(scale):
    # 1-norms up to about 3
    rng = np.random.default_rng(11)
    c = scale * rng.standard_normal((40, 4, 4))
    c = c - c.mT
    got = rolling_expm(c)
    assert np.abs(got - np.array([expm(m) for m in c])).max() <= 1e-14
    assert np.abs(got.mT @ got - np.eye(4)).max() <= 1e-15


ROW_KINDS = ("rolling lift", "no spin", "fiber", "zero", "general")


@st.composite
def kernel_stacks(draw):
    """A pair (space forms, or a warped first factor), a seed, and rows of
    (base index, kind, t) over up to three base states."""
    warped = draw(st.booleans())
    if warped:
        n = draw(st.sampled_from([2, 3]))
        first = Warped((-1.2, 1.2), WarpFunction(draw(st.sampled_from(["cos", "cosh"]))),
                       Sphere(n - 1, 1.0))
        pair = RollingPair(first, draw(SPACE_FORMS.filter(lambda m: m.dim == n)))
    else:
        pair, *_ = draw(space_form_rolls())
    # warped states keep a margin of 0.18 to the interval's ends: unit speed
    # for at most 0.15 stays inside
    t_max = 0.15 if warped else 1.5
    rows = draw(st.lists(st.tuples(st.integers(0, 2), st.sampled_from(ROW_KINDS),
                                   st.floats(0.01, t_max), st.sampled_from([1.0, -1.0])),
                         min_size=1, max_size=8))
    return pair, warped, draw(st.integers(0, 2**32 - 1)), rows


@settings(max_examples=60, deadline=None)
@given(kernel_stacks())
def test_the_stacked_kernel_reproduces_the_one_row_canonical_curve(case):
    # warped geodesics too are closed forms (Clairaut's integral), so a row
    # of the stack and the row alone agree to round-off on every pair.  A and
    # the transports are products of frame rows, whose entries grow like |x|
    # far out on a hyperboloid, so their round-off grows with the squared
    # largest frame entry (the model that
    # test_canonical_curves_stay_isometries_without_projection measured);
    # the reference also projects A onto the rotations, which the kernel
    # does not.  At most 1 on spheres and R^n, the factor changes nothing there
    pair, _, seed, rows = case
    m, mh, n = pair.space, pair.space_hat, pair.dim
    rng = np.random.default_rng(seed)
    bases = [pair.random_state(rng) for _ in range(3)]
    index, xis, t = [], [], []
    for base_index, kind, size, sign in rows:
        q = bases[base_index]
        xi = np.zeros(q_dim(n))
        if kind in ("rolling lift", "no spin", "general"):
            xi[:n] = q.coords(m.random_tangent(rng, q.x, unit=True))
            xi[n : 2 * n] = (xi[:n] @ q.isometry.T if kind == "rolling lift"
                             else q.coords_hat(mh.random_tangent(rng, q.x_hat, unit=True)))
        if kind in ("fiber", "general"):
            c = wedge_matrix(rng.standard_normal(n), rng.standard_normal(n))
            xi[2 * n :] = skew_to_vector(c)
        index.append(base_index), xis.append(xi), t.append(sign * size)
    states = tangent_curve(stack(pair, bases)[np.array(index)], np.array(xis), np.array(t))
    assert len(states) == len(rows)
    for i, (xi, ti) in enumerate(zip(xis, t)):
        qt, q = states[i], bases[index[i]]
        # the ambient velocities that the kernel forms from the row
        xt, xht, a, transports = _one_row_tangent_curve(
            q, xi[:n] @ q.frame, xi[n : 2 * n] @ q.frame_hat, vector_to_skew(xi[2 * n :], n), ti)
        frames = (q.frame, q.frame_hat, qt.frame, qt.frame_hat)
        grow = max(1.0, max(np.abs(f).max() for f in frames)) ** 2
        (fwd, fwd_hat), (want_fwd, want_fwd_hat) = qt.transports, transports
        for got, want, bound in ((qt.x, xt, 1.0), (qt.x_hat, xht, 1.0), (qt.isometry, a, grow),
                                 (fwd, want_fwd, grow), (fwd_hat, want_fwd_hat, grow)):
            assert np.abs(got - want).max() <= 1e-14 * _scale(want) * bound


def _catalog_speed(m):
    """A speed at which 3 units of time keep a geodesic well inside m: 0.3
    of a warped factor's interval (random points keep 0.36 from its ends)
    and 3 curvature radii of a curved space form."""
    return 0.1 if isinstance(m, Warped) else min(1.0, getattr(m, "radius", 1.0))


@settings(max_examples=60, deadline=None)
@given(ALL_CATALOG_PAIRS, st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_canonical_curves_stay_isometries_without_projection(pair, seed, count):
    # rows that move both factors and spin, at times up to 3: the transports
    # are isometries to round-off, so A^T A - I stays at round-off.  On a hyperboloid
    # the ambient coordinates of points and frames grow like cosh of the
    # distance from its vertex, and the residual with their square: over 6,000
    # examples it was at most 126 eps times the largest frame entry squared,
    # 6.8e-12 next to a hyperbolic factor and 3.3e-15 on pairs without one
    rng = np.random.default_rng(seed)
    n = pair.dim
    q = pair.state(*pair.draw(rng, (count,)))
    c = rng.standard_normal((2, count, n))
    c /= np.linalg.norm(c, axis=-1, keepdims=True)
    xi = np.concatenate((_catalog_speed(pair.space) * c[0], _catalog_speed(pair.space_hat) * c[1],
                         rng.standard_normal((count, q_dim(n) - 2 * n))), axis=1)
    qt = tangent_curve(q, xi, rng.uniform(-3.0, 3.0, count))
    scale = np.max([np.abs(f).max(axis=(-2, -1))
                    for f in (q.frame, q.frame_hat, qt.frame, qt.frame_hat)], axis=0)
    residual = np.linalg.norm(qt.isometry.mT @ qt.isometry - np.eye(n), axis=(1, 2))
    assert np.all(residual <= 512 * np.finfo(float).eps * np.maximum(scale, 1.0) ** 2)


def _check_stack():
    """A stack over two base states with a rolling-lift, a fiber and a
    general row, so that every factor moves and the fiber spins."""
    pair = RollingPair(Sphere(3, 2.0), Hyperbolic(3, 1.0))
    rng = np.random.default_rng(11)
    q0, q1 = pair.random_state(rng), pair.random_state(rng)
    X0 = pair.space.random_tangent(rng, q0.x, unit=True)
    X1 = pair.space.random_tangent(rng, q1.x, unit=True)
    c = skew_to_vector(wedge_matrix(rng.standard_normal(3), rng.standard_normal(3)))
    general = np.concatenate((q1.coords(X1),
                              q1.coords_hat(pair.space_hat.random_tangent(rng, q1.x_hat)), c))
    return pair, (stack(pair, [q0, q1, q1]),
                  np.array([rolling_lift(q0, X0), np.concatenate((np.zeros(6), c)), general]),
                  np.array([0.3, -0.2, 0.4]))


def _raised(stack):
    with pytest.raises(GeometryError) as info:
        tangent_curve(*stack)
    return str(info.value)


def test_the_kernel_checks_every_row_of_a_stack(monkeypatch):
    # each failure injected into the last row of the stack raises the
    # message of the one-row path, and raises it alone as well
    import rollsym.rolling as rolling_mod

    pair, stack = _check_stack()
    tangent_curve(*stack)  # a clean stack raises nothing
    last = [arg[-1:] for arg in stack]

    with monkeypatch.context() as mp:
        # the last spinning row's exponential is scaled by 1.01: A^T A - I = 0.0201 I
        exp = rolling_mod.expm
        mp.setattr(rolling_mod, "expm", lambda a: exp(a) * np.where(
            np.arange(len(a)) == len(a) - 1, 1.01, 1.0)[:, None, None])
        expected = f"contact map is not an isometry (residual {0.0201 * math.sqrt(3):.3e})"
        assert _raised(stack) == _raised(last) == expected

    with monkeypatch.context() as mp:
        # the last moving row's point leaves the sphere by a relative 1e-8
        m, transport, residual = pair.space, pair.space.transport_along_geodesic, []

        def off(x, v, t, w):
            xt, moved = transport(x, v, t, w)
            xt[-1] *= 1.0 + 1e-8
            residual.append(m.constraint_residual(xt[-1]).max())
            return xt, moved

        mp.setattr(m, "transport_along_geodesic", off)
        for rows in (stack, last):
            assert _raised(rows) == f"point violates the sphere constraint by {residual[-1]:.3e}"

    with monkeypatch.context() as mp:
        # the last spinning row's exponential is a reflection
        exp = rolling_mod.expm
        mp.setattr(rolling_mod, "expm", lambda a: _flip_last(exp(a)))
        assert _raised(stack) == _raised(last) == "contact map must preserve orientation"


def _flip_last(rotations):
    out = rotations.copy()
    out[-1, :, 0] *= -1.0
    return out
