import json
import math

import numpy as np
import pytest

from rollsym import Euclidean, GeodesicPath, GeometryError, Hyperbolic, SampledPath, Sphere
from rollsym.curvature import wedge_matrix
from rollsym.rolling import (
    Chart,
    RollingPair,
    TangentOfQ,
    curve_velocity,
    q_dim,
    roll_along,
    roll_geodesic,
    rolling_derivative,
    rolling_lift,
    vertical_derivative,
)

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
    assert curve.isometry_residuals().max() < 1e-7
    back = roll_along(curve.final_state(), path.reversed(), step=1e-3).final_state()
    assert np.linalg.norm(back.x - q0.x) < 1e-6
    assert np.abs(back.isometry - q0.isometry).max() < 1e-6


def test_killing_symmetry_with_warped_first_factor():
    # the induced-symmetry construction holds for any first factor
    from rollsym import WarpFunction, Warped
    from rollsym.symmetry import killing_catalog, killing_to_symmetry, sym0_residual

    warped = Warped((-1.2, 1.2), WarpFunction("cosh"), Sphere(1, 1.0))
    pair = RollingPair(warped, Sphere(2, 1.0))
    rng = np.random.default_rng(72)
    q = pair.random_state(rng)
    X = pair.space.random_tangent(rng, q.x, unit=True)
    for field in killing_catalog(pair.space_hat):
        cand = killing_to_symmetry(pair, field)
        r1, r2 = sym0_residual(cand, q, X)
        assert max(r1, r2) < 1e-6


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
    expected = pair.space_hat.geodesic_arr(q0.x_hat, q0.apply(v), length)
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
    for s in curve.states:
        assert np.allclose(s.x_hat, q0.x_hat, atol=1e-12)
        assert np.allclose(s.isometry, q0.isometry, atol=1e-10)


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
    assert curve.isometry_residuals().max() < 1e-7
    assert all(np.linalg.det(s.isometry) > 0 for s in curve.states)


def test_roll_with_projection_flag_stays_close():
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    q0 = pair.random_state(RNG)
    v = pair.space.random_tangent(RNG, q0.x, unit=True)
    path = GeodesicPath(pair.space, q0.x, v, 1.0)
    loose = roll_along(q0, path, step=1e-2).final_state()
    snapped = roll_along(q0, path, step=1e-2, project=True).final_state()
    assert np.linalg.norm(loose.x_hat - snapped.x_hat) < 1e-7
    assert snapped.isometry_residual() < 1e-12


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
    xi = curve_velocity(q0, {dt: qp, -dt: qm}.get, dt, order=2)
    assert np.linalg.norm(xi.X - v) < 1e-6
    assert np.linalg.norm(xi.X_hat - q0.apply(v)) < 1e-6
    assert np.abs(xi.C).max() < 1e-6


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


# -- derivatives ----------------------------------------------------------------------


def test_rolling_derivative_of_parallel_field_vanishes():
    pair = RollingPair(Euclidean(2), Euclidean(2))
    q = pair.random_state(RNG)
    const = np.array([0.3, -0.7])
    d = rolling_derivative(lambda s: const, q, np.array([1.0, 0.0]), "vector")
    assert np.abs(d).max() < 1e-8


def test_rolling_derivative_of_the_isometry_vanishes():
    # the contact map is parallel along rolling curves
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    q = pair.random_state(RNG)
    X = pair.space.random_tangent(RNG, q.x, unit=True)
    d = rolling_derivative(lambda s: s.isometry, q, X, "map")
    assert np.abs(d).max() < 1e-8


def test_rolling_derivative_of_flat_translation_field_vanishes():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    q = pair.random_state(RNG)
    X = pair.space.random_tangent(RNG, q.x, unit=True)
    const_hat = np.array([1.0, 2.0])
    d = rolling_derivative(lambda s: const_hat, q, X, "vector_hat")
    assert np.abs(d).max() < 1e-10


def test_rolling_derivative_is_linear_in_direction():
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    rng = np.random.default_rng(61)
    q = pair.random_state(rng)
    X = pair.space.random_tangent(rng, q.x)
    Y = pair.space.random_tangent(rng, q.x)

    def field(s):
        return s.isometry @ s.coords(s.frame[0])

    dX = rolling_derivative(field, q, X, "scalar", order=4)
    dY = rolling_derivative(field, q, Y, "scalar", order=4)
    dXY = rolling_derivative(field, q, 0.5 * X + 2.0 * Y, "scalar", order=4)
    assert np.abs(dXY - (0.5 * dX + 2.0 * dY)).max() < 1e-8


def test_vertical_derivative_examples():
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    q = pair.random_state(RNG)
    c = wedge_matrix(np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    # field independent of the contact map
    d0 = vertical_derivative(lambda s: s.x_hat, q, c, "scalar")
    assert np.abs(d0).max() < 1e-12

    # the contact map itself differentiates to A C
    d1 = vertical_derivative(lambda s: s.isometry, q, c, "scalar")
    assert np.allclose(d1, q.isometry @ c, atol=1e-9)

    # the rolling curvature at a frozen bivector: analytic fiber derivative
    from rollsym.curvature import rolling_curvature

    xi = wedge_matrix(np.array([0.6, 0.2]), np.array([-0.1, 0.9]))
    d2 = vertical_derivative(lambda s: rolling_curvature(s, xi), q, c, "scalar")
    kappa = pair.space.curvature_constant - pair.space_hat.curvature_constant
    assert np.allclose(d2, kappa * q.isometry @ c @ xi, atol=1e-6)

    with pytest.raises(GeometryError):
        vertical_derivative(lambda s: s.x, q, np.array([[0.0, 1.0], [0.3, 0.0]]), "scalar")


def test_chart_differential_is_identity_at_origin():
    pair = RollingPair(Sphere(2, 1.0), Hyperbolic(2, 1.0))
    q = pair.random_state(RNG)
    chart = Chart(q)
    d, _ = chart.differential(np.zeros(chart.dim))
    assert np.abs(d - np.eye(q_dim(pair.dim))).max() < 1e-8
