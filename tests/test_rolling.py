import json
import math

import csv

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from rollsym import (Euclidean, GeodesicPath, GeometryError, Hyperbolic, SampledPath, Sphere,
                     WarpFunction, Warped)
from rollsym.curvature import wedge_matrix
from rollsym.rolling import (
    Chart,
    _roll_rk4,
    RollingCurve,
    RollingPair,
    TangentOfQ,
    curve_velocity,
    directional_derivative,
    q_dim,
    random_rotation,
    roll_along,
    roll_geodesic,
    rolling_derivative,
    rolling_lift,
    tangent_curve,
    vertical_derivative,
)
from rollsym.numerics import central_diff, stencil_offsets
from rollsym.spaces import POINT_TOL

RNG = np.random.default_rng(123)


def sphere_on_plane():
    return RollingPair(Sphere(2, 1.0), Euclidean(2))


# -- states and lifts ----------------------------------------------------------------


def test_pair_requires_equal_dimensions():
    with pytest.raises(GeometryError):
        RollingPair(Sphere(2, 1.0), Euclidean(3))


def test_rolling_on_warped_pair():
    # warped first factor: RK4 geodesics and transports behind the same API
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
        r1, r2 = symmetry_residual(cand, [q], [X])
        assert max(r1[0, 0], r2[0, 0]) < 1e-6


def test_state_invariants_enforced():
    pair = sphere_on_plane()
    x = pair.space.random_point(RNG)
    x_hat = pair.space_hat.random_point(RNG)
    with pytest.raises(GeometryError):
        pair.state(x, x_hat, np.array([[1.0, 0.2], [0.0, 1.0]]))  # not orthogonal
    with pytest.raises(GeometryError):
        pair.state(x, x_hat, np.array([[1.0, 0.0], [0.0, -1.0]]))  # reflection


def test_state_json_round_trip():
    pair = sphere_on_plane()
    q = pair.random_state(RNG)
    again = pair.state_from_json(json.loads(json.dumps(q.to_json())))
    assert np.allclose(again.x, q.x)
    assert np.allclose(again.isometry, q.isometry)


def test_rolling_lift_zero_and_identity():
    pair = RollingPair(Euclidean(2), Euclidean(2))
    q = pair.state(np.zeros(2), np.ones(2), np.eye(2))
    xi = rolling_lift(q, np.zeros(2))
    assert np.all(xi.coords() == 0.0)
    e1 = np.array([1.0, 0.0])
    lifted = rolling_lift(q, e1)
    assert np.allclose(lifted.X, e1)
    assert np.allclose(lifted.X_hat, e1)
    assert np.all(lifted.C == 0.0)


def test_rolling_lift_is_isometric_and_linear():
    pair = RollingPair(Sphere(2, 2.0), Hyperbolic(2, 1.0))
    q = pair.random_state(RNG)
    X = pair.space.random_tangent(RNG, q.x)
    Y = pair.space.random_tangent(RNG, q.x)
    gx = pair.space.inner_at(q.x, X, X)
    lift = rolling_lift(q, X)
    assert abs(pair.space_hat.inner_at(q.x_hat, lift.X_hat, lift.X_hat) - gx) < 1e-9
    both = rolling_lift(q, 2.0 * X - Y)
    assert np.allclose(
        both.coords(),
        2.0 * rolling_lift(q, X).coords() - rolling_lift(q, Y).coords(),
        atol=1e-12,
    )


def test_tangent_of_q_requires_skew_vertical():
    pair = sphere_on_plane()
    q = pair.random_state(RNG)
    with pytest.raises(GeometryError):
        TangentOfQ(q, np.zeros(3), np.zeros(2), np.array([[0.0, 1.0], [0.5, 0.0]]))


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
    coarse = roll_along(q0, path, step=1e-3).final_state()
    fine = roll_along(q0, path, step=1e-4).final_state()
    assert np.linalg.norm(coarse.x_hat - coarse.x) < 1e-8
    assert np.abs(coarse.isometry - np.eye(2)).max() < 1e-8
    assert np.linalg.norm(coarse.x_hat - fine.x_hat) < 1e-9


def test_roll_reversibility():
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    q0 = pair.random_state(RNG)
    v = pair.space.random_tangent(RNG, q0.x, unit=True)
    path = GeodesicPath(pair.space, q0.x, v, 1.7)
    out = roll_along(q0, path, step=1e-3)
    back = roll_along(out.final_state(), path.reversed(), step=1e-3).final_state()
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
    # the group-valued kernel needs no projection: at a coarse step every row
    # is an isometry to round-off and the end point is the closed form's
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    q0 = pair.random_state(RNG)
    v = pair.space.random_tangent(RNG, q0.x, unit=True)
    path = GeodesicPath(pair.space, q0.x, v, 1.0)
    curve = roll_along(q0, path, step=1e-2)
    exact = roll_geodesic(q0, v, 1.0)
    assert np.linalg.norm(curve.final_state().x_hat - exact.x_hat) < 1e-7
    assert curve.residuals.max() < 1e-12


# a space form of each kind; hyperbolic radii stay >= 1 so that unit-speed
# paths of length <= pi keep their points where POINT_TOL is absolute round-off
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


def _scale(x):
    return max(1.0, float(np.abs(x).max()))


@settings(max_examples=40, deadline=None)
@given(space_form_rolls())
# the forward roll ends 1.4e-12 off the hyperboloid and off SO(3); unless the
# reverse roll starts its group elements from the nearest point and rotation,
# the boosts amplify that defect to 2.9e-10 and the reverse roll fails
@example((RollingPair(Euclidean(3), Hyperbolic(3, 1.0)), 4058, 3.0, 0.0625))
def test_rolling_on_space_forms_holds_its_constraints_and_reverses(roll):
    pair, seed, length, step = roll
    rng = np.random.default_rng(seed)
    q0 = pair.random_state(rng)
    v = pair.space.random_tangent(rng, q0.x, unit=True)
    path = GeodesicPath(pair.space, q0.x, v, length)
    curve = roll_along(q0, path, step=step)
    for m, pts in ((pair.space, curve.x), (pair.space_hat, curve.x_hat)):
        assert m.constraint_residual(pts).max() <= POINT_TOL
    assert curve.residuals.max() < 1e-11
    assert np.all(np.linalg.det(curve.A) > 0)
    end, exact = curve.final_state(), roll_geodesic(q0, v, length)
    assert np.abs(end.x_hat - exact.x_hat).max() < 1e-9 * _scale(exact.x_hat)
    assert np.abs(end.isometry - exact.isometry).max() < 1e-9 * _scale(exact.x_hat)
    back = roll_along(end, path.reversed(), step=step).final_state()
    assert np.abs(back.x - q0.x).max() < 1e-9 * _scale(end.x)
    assert np.abs(back.x_hat - q0.x_hat).max() < 1e-9 * _scale(end.x_hat)
    assert np.abs(back.isometry - q0.isometry).max() < 1e-9 * _scale(end.x_hat)


@pytest.mark.parametrize("hat", [Euclidean(2), Sphere(2, 3.0)], ids=repr)
def test_full_turn_matches_the_closed_form(hat):
    pair = RollingPair(Sphere(2, 1.0), hat)
    rng = np.random.default_rng(8)
    q0 = pair.random_state(rng)
    v = pair.space.random_tangent(rng, q0.x, unit=True)
    exact = roll_geodesic(q0, v, 2 * math.pi)
    for step in (1e-3, 0.05):
        curve = roll_along(q0, GeodesicPath(pair.space, q0.x, v, 2 * math.pi), step=step)
        end = curve.final_state()
        assert np.abs(end.x_hat - exact.x_hat).max() < 1e-10
        assert np.abs(end.isometry - exact.isometry).max() < 1e-10
        assert curve.residuals.max() <= 1e-12


def _latitude_circle(ts, lat=0.7):
    return np.column_stack((math.sin(lat) * np.cos(ts), math.sin(lat) * np.sin(ts),
                            np.full_like(ts, math.cos(lat))))


def _step_halving_errors(first, path):
    """End-point errors of rolling `first` on the sphere of radius 3 along
    path at steps 0.1, 0.05 and 0.025, against a step of 0.1 / 64."""
    pair = RollingPair(first, Sphere(first.dim, 3.0))
    rng = np.random.default_rng(1)
    q0 = pair.state(path.point(0.0), pair.space_hat.random_point(rng),
                    random_rotation(rng, pair.dim))
    ref = roll_along(q0, path, step=0.1 / 64).final_state()
    errors = []
    for step in (0.1, 0.05, 0.025):
        end = roll_along(q0, path, step=step).final_state()
        errors.append(max(np.abs(end.x_hat - ref.x_hat).max(),
                          np.abs(end.isometry - ref.isometry).max()))
    return errors


def test_rolling_along_a_curved_path_converges_at_fourth_order():
    # a latitude circle is no geodesic, so the Magnus commutator and the
    # transport of the frame to the Gauss nodes both enter; halving the step
    # divides the error by 2^4
    ts = np.linspace(0.0, 2.0, 21)
    sphere = Sphere(2, 1.0)
    errors = _step_halving_errors(sphere, SampledPath(sphere, ts, _latitude_circle(ts)))
    assert errors[0] > 1e-9
    assert all(14 < a / b < 18 for a, b in zip(errors, errors[1:]))


@pytest.mark.parametrize("fiber", [Sphere(1, 1.0), Sphere(2, 1.0)], ids=repr)
def test_warped_first_factor_converges_at_fourth_order_along_a_curved_path(fiber):
    # s swings while the fiber point runs along a circle (a latitude circle
    # of S^2): the rotation of the deterministic frame follows the connection
    # form at the Gauss nodes, and halving the step divides the error by 2^4
    first = Warped((-1.2, 1.2), WarpFunction("cos"), fiber)
    ts = np.linspace(0.0, 2.0, 21)
    circle = _latitude_circle(ts) if fiber.dim == 2 else np.column_stack((np.cos(ts), np.sin(ts)))
    path = SampledPath(first, ts, np.column_stack((0.3 + 0.4 * np.sin(ts), circle)))
    errors = _step_halving_errors(first, path)
    assert errors[0] > 1e-9
    assert all(14 < a / b < 18 for a, b in zip(errors, errors[1:]))


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
    # the parallel frame by Magnus steps against RK4 on both parallel frames
    # at a ten times finer step, row by row, also where the path starts at or
    # passes next to the fiber point where the deterministic frame jumps
    rng = np.random.default_rng(5)
    m, x, v = _warped_start(fiber, miss, rng)
    pair = RollingPair(m, Sphere(3, 1.0))
    q0 = pair.state(x, pair.space_hat.random_point(rng), random_rotation(rng, 3))
    path = GeodesicPath(m, x, v, 0.1)
    curve = roll_along(q0, path, step=1e-3)
    assert curve.residuals.max() < 1e-12
    _, x_hat, a = _roll_rk4(q0, path, path.sample_times(1e-4), 1e-4)
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


def test_rk4_fallback_takes_one_substep_per_grid_interval():
    # the 250 grid intervals of a 0.25-long path exceed 1e-3 by round-off;
    # RK4 remains for a warped second factor
    pair = RollingPair(Sphere(2, 1.0), Warped((-1.2, 1.2), WarpFunction("cos"), Sphere(1, 1.0)))
    rng = np.random.default_rng(0)
    q0 = pair.random_state(rng)
    path = GeodesicPath(pair.space, q0.x, pair.space.random_tangent(rng, q0.x, unit=True), 0.25)
    calls = []
    velocity = path.velocity
    path.velocity = lambda t: calls.append(t) or velocity(t)
    curve = roll_along(q0, path, step=1e-3)
    assert len(curve.times) == 251
    assert len(calls) == 4 * 250  # one right-hand side per RK4 stage


def test_magnus_kernel_takes_one_step_per_grid_interval_on_a_warped_first_factor():
    # the same grid through the block Magnus kernel: each of the 250 steps
    # reads the path at its two Gauss nodes and at the two nodes of each of
    # its two partial steps, points and velocities in one array call per
    # block
    pair = RollingPair(Warped((-1.2, 1.2), WarpFunction("cos"), Sphere(1, 1.0)), Sphere(2, 1.0))
    rng = np.random.default_rng(0)
    q0 = pair.random_state(rng)
    path = GeodesicPath(pair.space, q0.x, pair.space.random_tangent(rng, q0.x, unit=True), 0.25)
    calls = []
    flow = path.flow
    path.flow = lambda t: calls.append(np.asarray(t)) or flow(t)
    curve = roll_along(q0, path, step=1e-3)
    assert len(curve.times) == 251
    # the start point, the points of the 251 rows, then the one block
    assert [t.shape for t in calls] == [(), (251,), (6 * 250,)]


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
    qp = roll_geodesic(q0, v, dt)
    qm = roll_geodesic(q0, v, -dt)
    (X,), (X_hat,), (C,) = curve_velocity([q0], [[qp, qm]], dt, order=2)
    assert np.linalg.norm(X - v) < 1e-6
    assert np.linalg.norm(X_hat - q0.apply(v)) < 1e-6
    assert np.abs(C).max() < 1e-6


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
        (curve.A * 1.001, 3),
        (curve.A @ flip, 3),
    ]
    for value, slot in bad:
        args = list(rows)
        args[slot] = value
        with pytest.raises(GeometryError):
            RollingCurve(pair, *args)
    assert np.allclose(RollingCurve(pair, *rows).residuals, curve.residuals)


# -- derivatives ----------------------------------------------------------------------


def test_a_directional_derivative_builds_all_its_sample_states_in_one_call(monkeypatch):
    # one tangent_curve call per derivative call, of rows times stencil
    # offsets states; nothing is kept between calls, and no rows build nothing
    import rollsym.rolling as rolling_mod

    calls = []
    build = rolling_mod.tangent_curve
    monkeypatch.setattr(rolling_mod, "tangent_curve",
                        lambda qs, *a: calls.append(len(qs)) or build(qs, *a))
    pair = RollingPair(Sphere(2, 1.0), Hyperbolic(2, 2.0))
    rng = np.random.default_rng(3)
    qs = [pair.random_state(rng) for _ in range(3)]
    Xs = [pair.space.random_tangent(rng, q.x, unit=True) for q in qs]
    rows = [(q, rolling_lift(q, X)) for q, X in zip(qs, Xs)]
    results = []
    for order in (2, 4, 4):
        calls.clear()
        results.append(directional_derivative(lambda s: (s.isometry,), rows, ("map",), order=order))
        assert calls == [len(qs) * order]
    assert all(np.array_equal(a, b) for (a,), (b,) in zip(results[1], results[2]))
    calls.clear()
    along_lifts = rolling_derivative(lambda s: (s.isometry,), qs, Xs, ("map",))
    assert calls == [len(qs) * 2]
    assert all(np.array_equal(a, b) for (a,), (b,) in zip(along_lifts, results[0]))
    calls.clear()
    assert vertical_derivative(lambda s: (s.isometry,), [], [], ("map",)) == []
    assert directional_derivative(lambda s: (s.x,), [], ("vector",)) == []
    assert calls == []


def test_rolling_derivative_of_parallel_field_vanishes():
    pair = RollingPair(Euclidean(2), Euclidean(2))
    q = pair.random_state(RNG)
    const = np.array([0.3, -0.7])
    (d,), = rolling_derivative(lambda s: (const,), [q], [np.array([1.0, 0.0])], ("vector",))
    assert np.abs(d).max() < 1e-8


def test_rolling_derivative_of_the_isometry_vanishes():
    # the contact map is parallel along rolling curves
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    q = pair.random_state(RNG)
    X = pair.space.random_tangent(RNG, q.x, unit=True)
    (d,), = rolling_derivative(lambda s: (s.isometry,), [q], [X], ("map",))
    assert np.abs(d).max() < 1e-8


def test_rolling_derivative_of_flat_translation_field_vanishes():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    q = pair.random_state(RNG)
    X = pair.space.random_tangent(RNG, q.x, unit=True)
    const_hat = np.array([1.0, 2.0])
    (d,), = rolling_derivative(lambda s: (const_hat,), [q], [X], ("vector_hat",))
    assert np.abs(d).max() < 1e-10


def test_rolling_derivative_is_linear_in_direction():
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    rng = np.random.default_rng(61)
    q = pair.random_state(rng)
    X = pair.space.random_tangent(rng, q.x)
    Y = pair.space.random_tangent(rng, q.x)

    def field(s):
        return (s.isometry @ s.coords(s.frame[0]),)

    def along(v):  # order 4 along the rolling lift of v
        (d,), = directional_derivative(field, [(q, rolling_lift(q, v))], ("scalar",), order=4)
        return d

    dX, dY, dXY = along(X), along(Y), along(0.5 * X + 2.0 * Y)
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
    return m.transport_along_geodesic(xt, vt, -t, w)


@settings(max_examples=40, deadline=None)
@given(pull_back_cases(), st.sampled_from(["vector", "vector_hat", "map"]))
def test_pull_back_through_kept_transports_matches_transport_by_minus_t(case, kind):
    # the sample states' frame-transport matrices pull a value back as
    # transporting it back along the geodesics does, at every kind
    pair, seed = case
    m, mh, n = pair.space, pair.space_hat, pair.dim
    rng = np.random.default_rng(seed)
    q = pair.random_state(rng)
    xi = TangentOfQ(q, m.random_tangent(rng, q.x, unit=True),
                    mh.random_tangent(rng, q.x_hat, unit=True),
                    wedge_matrix(rng.standard_normal(n), rng.standard_normal(n)))
    w, w_hat = rng.standard_normal((m.amb_dim,) * 2), rng.standard_normal((mh.amb_dim,) * 2)
    r = rng.standard_normal((mh.amb_dim, m.amb_dim))
    fields = {
        "vector": lambda s: m.project(s.x, w @ s.x) + s.from_coords(s.isometry[0]),
        "vector_hat": lambda s: mh.project(s.x_hat, w_hat @ s.x_hat) + s.apply(s.frame[0]),
        "map": lambda s: s.isometry + s.frame_hat @ r @ s.frame.T,
    }

    def deleted_path(t):
        qt, = tangent_curve([q], xi.X, xi.X_hat, xi.C, t)
        value = fields[kind](qt)
        if kind == "vector":
            return _transported_back(m, q.x, xi.X, t, value)
        if kind == "vector_hat":
            return _transported_back(mh, q.x_hat, xi.X_hat, t, value)
        fwd = q.coords(_transported_back(m, q.x, xi.X, t, qt.frame))
        fwd_hat = q.coords_hat(_transported_back(mh, q.x_hat, xi.X_hat, t, qt.frame_hat))
        return fwd_hat.T @ value @ fwd

    expected = central_diff([deleted_path(t) for t in stencil_offsets(1e-4)], 1e-4)
    (got,), = directional_derivative(lambda s: (fields[kind](s),), [(q, xi)], (kind,))
    assert np.abs(got - expected).max() <= 1e-8 * _scale(expected)
    # three kinds differentiate slot by slot through the same samples
    kinds = ("vector", "vector_hat", "map")
    both, = directional_derivative(lambda s: tuple(fields[k](s) for k in kinds), [(q, xi)], kinds)
    assert np.array_equal(both[kinds.index(kind)], got)


def test_vertical_derivative_examples():
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    q = pair.random_state(RNG)
    c = wedge_matrix(np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    # field independent of the contact map
    (d0,), = vertical_derivative(lambda s: (s.x_hat,), [q], [c], ("scalar",))
    assert np.abs(d0).max() < 1e-12

    # the contact map itself differentiates to A C
    (d1,), = vertical_derivative(lambda s: (s.isometry,), [q], [c], ("scalar",))
    assert np.allclose(d1, q.isometry @ c, atol=1e-9)

    # the rolling curvature at a frozen bivector: analytic fiber derivative
    from rollsym.curvature import rolling_curvature

    xi = wedge_matrix(np.array([0.6, 0.2]), np.array([-0.1, 0.9]))
    (d2,), = vertical_derivative(lambda s: (rolling_curvature(s, xi),), [q], [c], ("scalar",))
    kappa = pair.space.curvature_constant - pair.space_hat.curvature_constant
    assert np.allclose(d2, kappa * q.isometry @ c @ xi, atol=1e-6)

    with pytest.raises(GeometryError):
        vertical_derivative(lambda s: (s.x,), [q], [np.array([[0.0, 1.0], [0.3, 0.0]])],
                            ("scalar",))


def test_chart_differential_is_identity_at_origin():
    pair = RollingPair(Sphere(2, 1.0), Hyperbolic(2, 1.0))
    q = pair.random_state(RNG)
    chart = Chart(q)
    (d,), _ = chart.differential(np.zeros((1, chart.dim)))
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
        return xt, m.inner_at(xt, frame_t[:, None], m.transport_along_geodesic(x, v, t, basis))

    xt, fwd = transport_in_frames(q.pair.space, q.x, q.frame, X)
    xht, fwd_hat = transport_in_frames(q.pair.space_hat, q.x_hat, q.frame_hat, X_hat)
    a = fwd_hat @ q.isometry
    if np.any(C):
        a = a @ expm(t * C)
    u, _, vt = np.linalg.svd(a @ fwd.T)
    return xt, xht, u @ vt, (fwd, fwd_hat)


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
    # a warped geodesic of the stack takes the RK4 step count of its longest
    # |t|, a row alone that of its own, hence the looser bound there
    pair, warped, seed, rows = case
    m, mh, n = pair.space, pair.space_hat, pair.dim
    rng = np.random.default_rng(seed)
    bases = [pair.random_state(rng) for _ in range(3)]
    qs, X, X_hat, C, t = [], [], [], [], []
    for index, kind, size, sign in rows:
        q = bases[index]
        x, x_hat, c = np.zeros(m.amb_dim), np.zeros(mh.amb_dim), np.zeros((n, n))
        if kind in ("rolling lift", "no spin", "general"):
            x = m.random_tangent(rng, q.x, unit=True)
            x_hat = (q.apply(x) if kind == "rolling lift"
                     else mh.random_tangent(rng, q.x_hat, unit=True))
        if kind in ("fiber", "general"):
            c = wedge_matrix(rng.standard_normal(n), rng.standard_normal(n))
        qs.append(q), X.append(x), X_hat.append(x_hat), C.append(c), t.append(sign * size)
    states = tangent_curve(qs, X, X_hat, C, t)
    assert len(states) == len(rows)
    tol = 1e-11 if warped else 1e-14
    for qt, *row in zip(states, qs, X, X_hat, C, t):
        xt, xht, a, transports = _one_row_tangent_curve(*row)
        for got, want in ((qt.x, xt), (qt.x_hat, xht), (qt.isometry, a),
                          *zip(qt.transports, transports)):
            assert np.abs(got - want).max() <= tol * _scale(want)


def _check_stack():
    """A stack over two base states with a rolling-lift, a fiber and a
    general row, so that every factor moves and the fiber spins."""
    pair = RollingPair(Sphere(3, 2.0), Hyperbolic(3, 1.0))
    rng = np.random.default_rng(11)
    q0, q1 = pair.random_state(rng), pair.random_state(rng)
    X0 = pair.space.random_tangent(rng, q0.x, unit=True)
    X1 = pair.space.random_tangent(rng, q1.x, unit=True)
    c = wedge_matrix(rng.standard_normal(3), rng.standard_normal(3))
    return pair, ([q0, q1, q1], [X0, np.zeros(4), X1],
                  [q0.apply(X0), np.zeros(4), pair.space_hat.random_tangent(rng, q1.x_hat)],
                  [np.zeros((3, 3)), c, c], [0.3, -0.2, 0.4])


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
        expected = f"canonical curve left the isometry bundle by {0.0201 * math.sqrt(3):.3e}"
        assert _raised(stack) == _raised(last) == expected

    with monkeypatch.context() as mp:
        # the last moving row's point leaves the sphere by a relative 1e-8
        m, flow, residual = pair.space, pair.space.geodesic_flow, []

        def off(x, v, t):
            xt, vt = flow(x, v, t)
            xt[-1] *= 1.0 + 1e-8
            residual.append(m.constraint_residual(xt[-1]))
            return xt, vt

        mp.setattr(m, "geodesic_flow", off)
        for rows in (stack, last):
            assert _raised(rows) == f"point violates the sphere constraint by {residual[-1]:.3e}"

    with monkeypatch.context() as mp:
        # the SVD hands back a reflection for the last row
        nearest = rolling_mod._nearest_rotation
        mp.setattr(rolling_mod, "_nearest_rotation", lambda a: _flip_last(nearest(a)))
        assert _raised(stack) == _raised(last) == "contact map must preserve orientation"


def _flip_last(rotations):
    out = rotations.copy()
    out[-1, :, 0] *= -1.0
    return out
