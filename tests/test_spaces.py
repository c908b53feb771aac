import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rollsym import (
    DomainError,
    Euclidean,
    GeodesicPath,
    GeometryError,
    Hyperbolic,
    SampledPath,
    Sphere,
    WarpFunction,
    Warped,
    from_spec,
)
from rollsym.rolling import RollingPair, rolling_lift
from rollsym.numerics import central_diff, stencil_offsets
from rollsym.spaces import FRAME_SKIP_TOL, POINT_TOL, steps_for
from test_rolling import ClosedFormPath

RNG = np.random.default_rng(2024)


def unit_sphere_cosh_warped(n=2):
    return Warped((-1.2, 1.2), WarpFunction("cosh"), Sphere(n - 1, 1.0))


# -- metric ----------------------------------------------------------------------


def test_metric_euclidean_orthogonal_vectors():
    m = Euclidean(2)
    x = m.point([0.0, 0.0])
    assert m.inner_at(x, [1.0, 0.0], [0.0, 1.0]) == 0.0


def test_metric_sphere_ambient_restriction():
    m = Sphere(2, 1.0)
    north = m.point([0.0, 0.0, 1.0])
    u = [1.0, 0.0, 0.0]
    assert m.inner_at(north, u, u) == pytest.approx(1.0, abs=1e-15)


def test_metric_warped_fiber_scaling():
    # f = cosh, f(0) = 1: a unit fiber vector has unit length at s = 0
    m = unit_sphere_cosh_warped()
    x = m.point([0.0, 1.0, 0.0])
    u = np.array([0.0, 0.0, 1.0])  # unit h-norm fiber vector
    assert m.inner_at(x, u, u) == pytest.approx(1.0, abs=1e-12)
    # and scales with f(s)^2 elsewhere
    x2 = m.point([0.7, 1.0, 0.0])
    assert m.inner_at(x2, u, u) == pytest.approx(math.cosh(0.7) ** 2, abs=1e-12)


def test_tangency_violation_raises():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    q = pair.state([0.0, 0.0, 1.0], [0.0, 0.0], np.eye(2))
    with pytest.raises(GeometryError):
        rolling_lift(q, [0.0, 0.0, 1.0])


def test_point_constraint_raises():
    with pytest.raises(GeometryError):
        Sphere(2, 1.0).point([0.0, 0.0, 1.5])
    with pytest.raises(GeometryError):
        Hyperbolic(2, 1.0).point([-1.0, 0.0, 0.0])  # time coordinate must be positive


# -- curvature operator ------------------------------------------------------------


def test_curvature_sphere_identity_on_bivectors():
    m = Sphere(3, 1.0)
    x = m.random_point(RNG)
    xi = np.array([[0.0, 1.0, 0.5], [-1.0, 0.0, -0.25], [-0.5, 0.25, 0.0]])
    out = m.curvature_matrix_apply(x, xi)
    assert np.allclose(out, xi, atol=1e-15)


def test_curvature_euclidean_zero():
    m = Euclidean(3)
    xi = np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    assert np.all(m.curvature_matrix_apply(np.zeros(3), xi) == 0.0)


def test_curvature_warped_radial_plane():
    # f = cosh at s = 0: R(Y ^ dr) dr = -(f''/f) Y = -Y
    m = unit_sphere_cosh_warped()
    x = np.array([0.0, 1.0, 0.0])
    fr = m.frame(x)
    assert np.allclose(fr[0], [1.0, 0.0, 0.0])  # radial first
    y = fr[1]
    out = m.curvature_vector_apply(x, y, fr[0], fr[0])
    assert np.allclose(out, -y, atol=1e-12)


# -- parallel transport ---------------------------------------------------------------


def test_transport_geodesic_tangent_is_parallel():
    m = Sphere(2, 2.0)
    x = m.random_point(RNG)
    v = m.random_tangent(RNG, x, unit=True)
    for t in (0.3, 1.1, 2.9):
        xt, vt = m.geodesic_flow(x, v, t)
        moved = m.transport_along_geodesic(x, v, t, v)[1]
        assert np.allclose(moved, vt, atol=1e-12)


def brute_transport(m, points, v0):
    """Independent oracle: tiny-step Euler integration of the transport ODE
    using only the projection structure."""
    v = np.array(v0, dtype=float)
    for a, b in zip(points[:-1], points[1:]):
        xdot = b - a
        v = v + m.transport_rhs(a, xdot, v)
        v = m.project(b, v)
    return v


def rk4_transport(m, path, v0, step):
    """Parallel transport of v0 to the end of a path by classical RK4 on the
    transport ODE, each interval of the path's sample times split into
    substeps of length at most step; the path's flow gives its points and
    velocities at an array of times."""
    times = path.sample_times(step)
    v = np.array(v0, dtype=float)
    for a, b in zip(times[:-1], times[1:]):
        steps = max(1, math.ceil((b - a) / step * (1 - 1e-9)))
        h = (b - a) / steps
        pts, vel = path.flow(a + h / 2 * np.arange(2 * steps + 1))  # the stages' times

        def rhs(j, y):
            return m.transport_rhs(pts[j], vel[j], y)

        for i in range(0, 2 * steps, 2):
            k1 = rhs(i, v)
            k2 = rhs(i + 1, v + h / 2 * k1)
            k3 = rhs(i + 1, v + h / 2 * k2)
            k4 = rhs(i + 2, v + h * k3)
            v = v + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return v


def rk4_geodesic(m, x, v, t, *ws, step=1e-3):
    """Independent reference for geodesics and transport: classical RK4 from
    time 0 to t on the point, the velocity and the vectors ws carried along,
    from m.transport_rhs alone (the velocity is transported by itself).
    Returns them stacked on the second-to-last axis.  An array of times
    broadcasts against the leading axes of the data, and every time is
    reached in the step count of the longest."""

    def rhs(y):
        xc, vc = y[..., :1, :], y[..., 1:2, :]
        return np.concatenate((vc, m.transport_rhs(xc, vc, y[..., 1:, :])), axis=-2)

    y = np.stack(np.broadcast_arrays(x, v, *ws), axis=-2)
    t = np.asarray(t, dtype=float)
    y = np.broadcast_to(y, np.broadcast_shapes(t.shape, y.shape[:-2]) + y.shape[-2:])
    steps = max(1, math.ceil(np.abs(t).max() / step))
    h = t[..., None, None] / steps
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + h / 2 * k1)
        k3 = rhs(y + h / 2 * k2)
        k4 = rhs(y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def test_latitude_holonomy_matches_brute_force_and_closed_form():
    m = Sphere(2, 1.0)
    theta = math.acos(0.8)  # polar angle, expected rotation 2 pi (1 - 0.8)
    ts = np.linspace(0.0, 2 * math.pi, 4001)

    def flow(t):
        return (np.column_stack((math.sin(theta) * np.cos(t), math.sin(theta) * np.sin(t),
                                 np.full_like(t, math.cos(theta)))),
                math.sin(theta) * np.column_stack((-np.sin(t), np.cos(t), np.zeros_like(t))))

    pts = flow(ts)[0]
    path = ClosedFormPath(flow, ts)
    x0 = pts[0]
    fr = m.frame(x0)
    v_end = rk4_transport(m, path, fr[0], step=2e-3)
    cosang = np.dot(v_end, fr[0])
    sinang = np.dot(v_end, fr[1])
    angle = abs(math.atan2(sinang, cosang))
    expected = 2 * math.pi * (1 - 0.8)
    assert abs(angle - expected) < 1e-5

    oracle = brute_transport(m, pts, fr[0])
    assert np.allclose(v_end, oracle, atol=1e-3)


def test_transport_euclidean_is_componentwise_constant():
    m = Euclidean(3)
    line = np.array([1.0, 2.0, 0.0])
    path = ClosedFormPath(lambda t: (np.outer(t, line), np.broadcast_to(line, (len(t), 3))),
                          np.linspace(0.0, 1.0, 11))
    v0 = np.array([0.5, -1.0, 2.0])
    assert np.allclose(rk4_transport(m, path, v0, step=1e-3), v0)


def test_transport_is_linear_isometry():
    for m in (Sphere(2, 1.0), Hyperbolic(2, 1.0), unit_sphere_cosh_warped()):
        x = m.random_point(RNG)
        v = m.random_tangent(RNG, x, unit=True)
        path = GeodesicPath(m, x, v, 1.3)
        w1 = m.random_tangent(RNG, x)
        w2 = m.random_tangent(RNG, x)
        out1 = rk4_transport(m, path, w1, step=1e-3)
        out2 = rk4_transport(m, path, w2, step=1e-3)
        before = m.inner_at(x, w1, w2)
        xe = path.point(1.3)
        after = m.inner_at(xe, out1, out2)
        assert abs(after - before) < 1e-7


def test_transport_round_trip_is_identity():
    m = Sphere(2, 1.0)
    x = m.random_point(RNG)
    v = m.random_tangent(RNG, x, unit=True)
    w = m.random_tangent(RNG, x)
    t = 0.9
    fwd = m.transport_along_geodesic(x, v, t, w)[1]
    xt, vt = m.geodesic_flow(x, v, t)
    back = m.transport_along_geodesic(xt, vt, -t, fwd)[1]
    assert np.allclose(back, w, atol=1e-12)


def test_transport_zero_length_step_raises():
    m = Euclidean(2)
    with pytest.raises(GeometryError):
        SampledPath(m, [0.0, 0.0, 1.0], [[0, 0], [0, 0], [1, 0]])


# -- geodesics -----------------------------------------------------------------------


def test_geodesic_euclidean_line():
    m = Euclidean(2)
    x = m.point([1.0, 2.0])
    assert np.allclose(m.geodesic_flow(x, np.array([0.5, -1.0]), 2.0)[0], [2.0, 0.0])


def brute_geodesic(m, x, v, t, steps=50000):
    x = np.array(x, dtype=float)
    v = np.array(v, dtype=float)
    h = t / steps
    for _ in range(steps):
        # independent RK2 midpoint on the geodesic equation
        ax = m.transport_rhs(x, v, v)
        xm = x + 0.5 * h * v
        vm = v + 0.5 * h * ax
        x = x + h * vm
        v = v + h * m.transport_rhs(xm, vm, vm)
    return x


def test_geodesic_sphere_antipode_vs_oracle():
    m = Sphere(2, 1.0)
    north = np.array([0.0, 0.0, 1.0])
    v = np.array([1.0, 0.0, 0.0])
    end = m.geodesic_flow(north, v, math.pi)[0]
    assert np.allclose(end, -north, atol=1e-9)
    oracle = brute_geodesic(m, north, v, math.pi)
    assert np.allclose(end, oracle, atol=1e-6)


def test_geodesic_hyperbolic_constraint_preserved():
    m = Hyperbolic(2, 1.0)
    x = m.random_point(RNG)
    v = m.random_tangent(RNG, x, unit=True)
    for t in (0.4, 1.7, 3.0):
        xt = m.geodesic_flow(x, v, t)[0]
        assert m.constraint_residual(xt) < 1e-9


def test_geodesic_warped_unit_speed_and_domain_error():
    m = unit_sphere_cosh_warped()
    x = m.random_point(RNG)
    v = m.random_tangent(RNG, x, unit=True)
    xt, vt = m.geodesic_flow(x, v, 0.4)
    assert abs(m.inner_at(xt, vt, vt) - 1.0) < 1e-9
    radial = np.array([1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        m.geodesic_flow(np.array([0.0, 1.0, 0.0]), radial, 5.0)[0]
    with pytest.raises(DomainError):
        m.transport_along_geodesic(np.array([0.0, 1.0, 0.0]), radial, 5.0, radial)[1]


def test_geodesic_semigroup_property():
    for m in (Sphere(2, 1.5), Hyperbolic(2, 1.0), unit_sphere_cosh_warped()):
        x = m.random_point(RNG)
        v = m.random_tangent(RNG, x, unit=True)
        s, t = 0.5, 0.8
        direct = m.geodesic_flow(x, v, s + t)[0]
        xm, vm = m.geodesic_flow(x, v, s)
        chained = m.geodesic_flow(xm, vm, t)[0]
        assert np.allclose(direct, chained, atol=1e-7)


# -- sectional curvature -----------------------------------------------------------


def test_sectional_constant_curvature_values():
    cases = [(Sphere(2, 2.0), 0.25), (Sphere(3, 1.0), 1.0), (Hyperbolic(2, 1.0), -1.0),
             (Euclidean(3), 0.0)]
    for m, expected in cases:
        x = m.random_point(RNG)
        X = m.random_tangent(RNG, x)
        Y = m.random_tangent(RNG, x)
        assert m.sectional_curvature(x, X, Y) == pytest.approx(expected, abs=1e-10)


def test_sectional_warped_radial_plane():
    m = unit_sphere_cosh_warped()
    x = m.random_point(RNG)
    fr = m.frame(x)
    assert m.sectional_curvature(x, fr[0], fr[1]) == pytest.approx(-1.0, abs=1e-10)


def test_sectional_degenerate_plane_raises():
    m = Euclidean(2)
    x = np.zeros(2)
    with pytest.raises(GeometryError):
        m.sectional_curvature(x, np.array([1.0, 0.0]), np.array([2.0, 0.0]))


def test_warped_model_space_reduction():
    # f = cos with a round fiber rebuilds the unit sphere: sigma = 1 everywhere
    for n in (2, 3):
        m = Warped((-1.2, 1.2), WarpFunction("cos"), Sphere(n - 1, 1.0))
        for _ in range(5):
            x = m.random_point(RNG)
            X = m.random_tangent(RNG, x)
            Y = m.random_tangent(RNG, x)
            assert m.sectional_curvature(x, X, Y) == pytest.approx(1.0, abs=1e-9)
    # f = sinh with a round fiber rebuilds hyperbolic space: sigma = -1
    m = Warped((0.2, 2.0), WarpFunction("cosh", a=0.0, b=1.0), Sphere(1, 1.0))
    for _ in range(5):
        x = m.random_point(RNG)
        X = m.random_tangent(RNG, x)
        Y = m.random_tangent(RNG, x)
        assert m.sectional_curvature(x, X, Y) == pytest.approx(-1.0, abs=1e-9)


def test_warp_function_invariants():
    # f' is the derivative of f, and f'' = -k_ref f, by order-4 stencils
    h, s = 1e-3, np.linspace(-1.0, 1.0, 9)
    times = s[:, None] + np.array(stencil_offsets(h))
    for name in ("cos", "cosh", "exp", "affine"):
        w = WarpFunction(name, a=1.3, b=-0.4, omega=1.7)
        d1 = central_diff(list(w.value(times).T), h)
        d2 = central_diff(list(w.derivative(times).T), h)
        assert np.abs(d1 - w.derivative(s)).max() < 1e-8
        assert np.abs(d2 + w.k_ref * w.value(s)).max() < 1e-8
    with pytest.raises(GeometryError):
        Warped((-3.0, 3.0), WarpFunction("cos"), Sphere(1, 1.0))  # cos vanishes inside
    rejected = [
        # positive at both ends, with a minimum of -0.9997 between samples
        ((-1.2, 1.2), WarpFunction("cos", omega=2 * math.pi / 0.15)),
        # cos changes sign in every interval longer than pi / |omega|
        ((-0.5, math.pi - 0.49), WarpFunction("cos", omega=-2.0)),
        ((-0.5, 0.5), WarpFunction("cosh", a=0.2, b=1.0)),  # one zero, at s = -0.203
        ((0.0, 1.0), WarpFunction("affine", a=0.0, b=1.0)),  # zero at an end
        ((0.0, 1.0), WarpFunction("exp", a=-1.0)),
    ]
    for interval, warp in rejected:
        s = np.linspace(*interval, 100001)
        assert warp.value(s).min() <= 0.0
        with pytest.raises(GeometryError, match="warp function must be positive"):
            Warped(interval, warp, Sphere(1, 1.0))
    accepted = [
        ((-1.2, 1.2), WarpFunction("cos")),
        # sin(2 s) between two of its zeros, pi / 2 apart
        ((1e-6, math.pi / 2.0 - 1e-6), WarpFunction("cos", a=0.0, b=-1.0, omega=-2.0)),
        ((-0.5, 0.5), WarpFunction("cosh", a=1.0, b=0.9)),
        ((0.5, 3.0), WarpFunction("cosh", a=0.2, b=1.0)),
        ((-0.5, 0.5), WarpFunction("affine", a=1.0, b=1.9)),
        ((-9.0, 9.0), WarpFunction("exp", a=0.1, omega=3.0)),
    ]
    for interval, warp in accepted:
        Warped(interval, warp, Sphere(1, 1.0))
        assert warp.value(np.linspace(*interval, 100001)).min() > 0.0
    with pytest.raises(GeometryError):
        WarpFunction("tanh")
    with pytest.raises(GeometryError):  # a warped fiber has no constant curvature
        Warped((-1.2, 1.2), WarpFunction("cos"), unit_sphere_cosh_warped())


def _family_warp(name, a, b, w, s):
    """(f, f') of each warp family, written family by family."""
    if name == "cos":
        return a * np.cos(w * s) + b * np.sin(w * s), w * (-a * np.sin(w * s) + b * np.cos(w * s))
    if name == "cosh":
        return a * np.cosh(w * s) + b * np.sinh(w * s), w * (a * np.sinh(w * s) + b * np.cosh(w * s))
    if name == "exp":
        return a * np.exp(w * s), w * a * np.exp(w * s)
    return a + b * s, b + 0.0 * s


def test_the_warp_normal_form_matches_each_family_formula():
    # a C + f'(0) S against the family formulas, to 1e-14 of the size of
    # their terms; exp keeps its own formula and affine's C and S are 1 and s
    rng = np.random.default_rng(46)
    s = rng.uniform(-3.0, 3.0, 50)
    for name in ("cos", "cosh", "exp", "affine"):
        for a, b, omega in rng.uniform(-2.0, 2.0, (100, 3)):
            warp = WarpFunction(name, a, b, omega)
            f, df = _family_warp(name, a, b, omega, s)
            if name in ("exp", "affine"):
                assert np.array_equal(warp.value(s), f) and np.array_equal(warp.derivative(s), df)
                continue
            size = (abs(a) + abs(b)) * (np.cosh(omega * s) if name == "cosh" else 1.0)
            assert np.all(np.abs(warp.value(s) - f) <= 1e-14 * size)
            assert np.all(np.abs(warp.derivative(s) - df) <= 1e-14 * size * abs(omega))
    # exactly 0, not round-off: brackets reads a zero invariant on an exp
    # warp over a flat fiber as a space form
    assert WarpFunction("exp", a=3.3, omega=0.9).invariant == 0.0


def test_a_convex_warp_is_refused_by_its_least_value_inside_the_interval():
    # cosh is least at 0, where 1/f^2 = 1e180, though 1/f^2 = 1.5e137 at both ends
    fiber = Sphere(1, 1.0)
    with pytest.raises(GeometryError, match="warp too small"):
        Warped((-50.0, 50.0), WarpFunction("cosh", a=1e-90), fiber)
    Warped((-50.0, 50.0), WarpFunction("cosh", a=1e-60), fiber)
    # (f'/f)^2 = omega^2 everywhere on exp
    with pytest.raises(GeometryError, match="too steep"):
        Warped((-1e-100, 1e-100), WarpFunction("exp", omega=1e78), fiber)


def test_an_exact_inverse_recovers_the_velocity_of_the_warped_geodesic_flow():
    # log inverts the geodesic flow: on a warped product through the normal
    # form of the warp, with no Clairaut integral in common with the flow
    rng = np.random.default_rng(22)
    warps = [WarpFunction("cos"), WarpFunction("cos", b=0.3, omega=0.8),
             WarpFunction("cos", a=1.3, b=0.4, omega=0.9), WarpFunction("cosh"),
             WarpFunction("cosh", b=0.3, omega=0.8), WarpFunction("cosh", b=0.9),
             WarpFunction("exp"), WarpFunction("exp", a=0.5, omega=-1.5),
             WarpFunction("affine", b=0.3), WarpFunction("affine", a=2.0, b=-0.7)]
    fibers = [Sphere(1, 1.0), Sphere(2, 2.0), Hyperbolic(2, 1.0), Euclidean(2)]
    forms = [Warped((-1.2, 1.2), warp, fiber) for warp in warps for fiber in fibers]
    worst = {}
    for m in forms + fibers + [Sphere(3, 0.5), Hyperbolic(3, 2.0)]:
        for _ in range(5):
            x = m.random_point(rng)
            if isinstance(m, Warped):
                x[0] = rng.uniform(-0.5, 0.5)  # 0.6 from there stays inside the interval
            v = m.random_tangent(rng, x, unit=True) * rng.uniform(1e-3, 0.6)
            x1 = m.geodesic_flow(x, v, 1.0)[0]
            got = m.log(x, x1)
            err = np.linalg.norm(got - v) / np.linalg.norm(v)
            worst[type(m).__name__] = max(worst.get(type(m).__name__, 0.0), err)
    assert max(worst.values()) <= 1e-11, worst


LOG_FORMS = [Sphere(2, 2.0), Hyperbolic(3, 1.5), Euclidean(2), unit_sphere_cosh_warped(3),
             Warped((-1.2, 1.2), WarpFunction("cos", b=0.3), Sphere(1, 1.0)),
             Warped((-1.2, 1.2), WarpFunction("exp", omega=-0.7), Hyperbolic(2, 1.0)),
             Warped((-1.2, 1.2), WarpFunction("affine", b=0.3), Euclidean(2))]


@pytest.mark.parametrize("m", LOG_FORMS, ids=repr)
def test_a_stack_of_segments_takes_the_log_of_each_row_alone(m):
    rng = np.random.default_rng(6)
    x = m.random_point(rng, (7,))
    x1 = m.geodesic_flow(x, 0.3 * m.random_tangent(rng, x, unit=True), 1.0)[0]
    x1[3] = x[3]
    got = m.log(x, x1)
    assert got.shape == x.shape
    assert got.tobytes() == np.array([m.log(a, b) for a, b in zip(x, x1)]).tobytes()


@pytest.mark.parametrize("m", LOG_FORMS, ids=repr)
def test_the_log_of_a_repeated_point_is_exactly_zero(m):
    # a repeated sample is a segment with no motion, and warns of nothing
    x = m.random_point(np.random.default_rng(7), (5,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = m.log(x, x.copy())
    assert np.array_equal(got, np.zeros_like(x))


# -- frames and serialization -----------------------------------------------------


def test_frames_are_orthonormal_and_deterministic():
    for m in (Sphere(3, 1.0), Hyperbolic(2, 2.0), unit_sphere_cosh_warped(), Euclidean(4)):
        x = m.random_point(RNG)
        fr = m.frame(x)
        gram = np.array(
            [[m.inner_at(x, fr[i], fr[j]) for j in range(m.dim)] for i in range(m.dim)]
        )
        assert np.allclose(gram, np.eye(m.dim), atol=1e-12)
        assert np.allclose(fr, m.frame(x))


def _skip_points(m):
    """Points where a projected coordinate vector vanishes, or is shorter than
    the skip threshold, so Gram-Schmidt skips it: x = r e_k on spheres, the
    origin of the hyperboloid, and points 1e-10 away from them."""
    e = np.eye(m.amb_dim)
    if isinstance(m, Hyperbolic):
        near = m.radius * e[0] + 1e-10 * e[1]
        near[0] = math.sqrt(m.radius**2 + 1e-20)
        return [m.radius * e[0], near]
    if isinstance(m, Sphere):
        tilt = [math.cos(1e-10), math.sin(1e-10)]
        return [s * m.radius * e[k] for k in range(m.amb_dim) for s in (1, -1)] + [
            m.radius * (tilt[0] * e[k] + tilt[1] * e[(k + 1) % m.amb_dim])
            for k in range(m.amb_dim)]
    if isinstance(m, Warped):
        s = sum(m.interval) / 2
        return [np.concatenate(([s], y)) for y in _skip_points(m.fiber)]
    return [np.zeros(m.amb_dim)]


@pytest.mark.parametrize("m", [Sphere(2, 1.0), Sphere(2, 3.0), Sphere(3, 0.5),
                               Hyperbolic(2, 1.0), Hyperbolic(3, 2.0), Euclidean(2),
                               Euclidean(3), unit_sphere_cosh_warped(),
                               Warped((-1.2, 1.2), WarpFunction("cos"), Sphere(2, 2.0)),
                               Warped((-1.0, 1.0), WarpFunction("cosh"), Hyperbolic(2, 1.0)),
                               Warped((-1.0, 1.0), WarpFunction("exp"), Euclidean(2))],
                         ids=repr)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 30))
def test_array_frames_equal_the_pointwise_frames(m, seed, count):
    # a row of a stack is the frame of its point alone, bit for bit, wherever
    # it sits in the stack: every batch of states takes its frames from one
    # frame call
    rng = np.random.default_rng(seed)
    xs = np.array([m.random_point(rng) for _ in range(count)] + _skip_points(m))
    got = m.frame(xs)
    assert got.shape == (len(xs), m.dim, m.amb_dim)
    order = rng.permutation(len(xs))
    assert np.array_equal(m.frame(xs[order]), got[order])
    for k in range(len(xs)):
        assert np.array_equal(m.frame(xs[k : k + 1])[0], got[k])
        assert np.array_equal(m.frame(xs[k]), got[k])


def test_pointwise_frames_near_a_coordinate_plane_are_orthonormal():
    # with |x_2| <= 1e-4 r the projected e_0 and e_1 are nearly parallel, so
    # the second row is what is left after a cancellation to about 1e-4 of its
    # length; one Gram-Schmidt pass left it orthonormal only to about 1e-8
    m = Sphere(2, 3.0)
    rng = np.random.default_rng(11)
    count = 20000
    height = m.radius * rng.uniform(-1e-4, 1e-4, count)
    angle = rng.uniform(0.0, 2 * math.pi, count)
    rho = np.sqrt(m.radius**2 - height**2)
    xs = np.column_stack((rho * np.cos(angle), rho * np.sin(angle), height))
    frames = m.frame(xs)
    worst = np.linalg.norm(frames @ frames.mT - np.eye(2), axis=(1, 2)).max()
    assert worst < 1e-13


@pytest.mark.parametrize("fiber", [Sphere(1, 1.0), Sphere(2, 1.0)], ids=repr)
def test_warped_frames_are_coherently_oriented(fiber):
    # along a fine sample of a geodesic, consecutive frames differ by a small
    # rotation: the orientation rule never flips a row between neighbours
    m = Warped((-1.2, 1.2), WarpFunction("cos"), fiber)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = m.random_point(rng)
        path = GeodesicPath(m, x, m.random_tangent(rng, x, unit=True), 0.3)
        frames = m.frame([path.point(t) for t in np.linspace(0.0, 0.3, 61)])
        change = np.einsum("tia,tja->tij", frames[:-1], frames[1:])
        assert np.all(np.linalg.det(change) > 0)


def test_a_geodesic_grid_takes_one_step_count_with_every_substep_grid():
    # an empty path is one sample, and a span within round-off above k
    # steps takes k, on a geodesic grid as in the substeps of any path:
    # 4.001 / 1e-3 is 4001.0000000000005 in floating point
    m = Sphere(2, 1.0)
    x, v = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    assert GeodesicPath(m, x, 0.0 * v, 0.0).sample_times(1e-3).tolist() == [0.0]
    assert steps_for(np.array([0.0, 4.001, 4.0011, 1e-300]), 1e-3).tolist() == [0, 4001, 4002, 1]
    for length, count in ((4.001, 4001), (4.0011, 4002), (0.25, 250)):
        assert len(GeodesicPath(m, x, v, length).sample_times(1e-3)) == count + 1


@pytest.mark.parametrize("m", [Sphere(2, 2.0), Hyperbolic(3, 1.5), Euclidean(2),
                               unit_sphere_cosh_warped(3)], ids=repr)
def test_paths_evaluate_arrays_of_times_like_single_times(m):
    rng = np.random.default_rng(4)
    x = m.random_point(rng)
    # a warped geodesic runs slower, so that it stays in its interval
    speed = 0.2 if isinstance(m, Warped) else 1.0
    path = GeodesicPath(m, x, speed * m.random_tangent(rng, x, unit=True), 1.7)
    times = np.array([0.0, 0.35, 1.1, 1.7])
    for got, one in ((path.point(times), path.point),
                     (path.flow(times)[1], lambda t: path.flow(t)[1])):
        assert got.shape == (len(times), m.amb_dim)
        assert np.abs(got - np.array([one(t) for t in times])).max() < 1e-12


@pytest.mark.parametrize("m", [Sphere(2, 2.0), Hyperbolic(3, 1.5), Euclidean(2),
                               unit_sphere_cosh_warped(3)], ids=repr)
def test_geodesic_flow_and_transport_take_arrays_of_times(m):
    # an array of times broadcasts against the leading axes of the vectors
    # transported (here the frame rows); a warped product evaluates
    # Clairaut's closed form at every time, so it agrees with one time at a
    # time to round-off
    rng = np.random.default_rng(5)
    x = m.random_point(rng)
    v = 0.3 * m.random_tangent(rng, x, unit=True)
    fr = m.frame(x)
    ts = np.array([0.0, 0.2, 0.55, 0.9])
    points, velocities = m.geodesic_flow(x, v, ts)
    frames = m.transport_along_geodesic(x, v, ts[:, None], fr)[1]
    assert frames.shape == (len(ts), m.dim, m.amb_dim)
    for t, p, u, f in zip(ts, points, velocities, frames):
        one_p, one_u = m.geodesic_flow(x, v, t)
        assert np.abs(p - one_p).max() < 1e-11
        assert np.abs(u - one_u).max() < 1e-11
        assert np.abs(f - m.transport_along_geodesic(x, v, t, fr)[1]).max() < 1e-11


# every warp family, positive on the interval, over every kind of fiber; a
# random point lies at least 0.36 inside the interval
WARPED_FORMS = st.builds(
    lambda name, fiber: Warped((-1.2, 1.2), WarpFunction(name, b=0.3, omega=0.8), fiber),
    st.sampled_from(["cos", "cosh", "exp", "affine"]),
    st.sampled_from([Sphere(1, 1.0), Sphere(2, 2.0), Hyperbolic(2, 1.0), Euclidean(2),
                     Euclidean(1)]))


def _warped_slow(m, v, t_max):
    """v, slowed on a warped product so that a geodesic of duration up to
    t_max travels at most 0.3 and stays inside the interval."""
    return v * min(1.0, 0.3 / t_max) if isinstance(m, Warped) else v


@settings(max_examples=40, deadline=None)
@given(WARPED_FORMS, st.integers(0, 2**32 - 1), st.floats(0.01, 0.35))
def test_clairaut_sampler_conserves_its_integral_and_matches_the_rk4_reference(m, seed, length):
    # f(s)^2 |y'|_h and the speed are constant along the sampled geodesic,
    # which agrees with RK4 on the full geodesic equations
    rng = np.random.default_rng(seed)
    x = m.random_point(rng)
    v = m.random_tangent(rng, x, unit=True)
    path = GeodesicPath(m, x, v, length)
    ts = np.linspace(0.0, length, 7)
    pts, vel = path.point(ts), path.velocity(ts)
    assert m.constraint_residual(pts).max() <= POINT_TOL
    y, ydot = pts[:, 1:], vel[:, 1:]
    clairaut = m.warp.value(pts[:, 0]) ** 2 * np.sqrt(m.fiber.inner_at(y, ydot, ydot))
    assert np.abs(clairaut - clairaut[0]).max() <= 1e-12
    assert np.abs(m.inner_at(pts, vel, vel) - 1.0).max() <= 1e-10
    reference = rk4_geodesic(m, x, v, ts)
    assert np.abs(pts - reference[:, 0]).max() <= 1e-10
    assert np.abs(vel - reference[:, 1]).max() <= 1e-10


@settings(max_examples=60, deadline=None)
@given(WARPED_FORMS, st.integers(0, 2**32 - 1))
def test_warped_flow_and_transport_match_the_rk4_reference(m, seed):
    # stacked rows at times of both signs: two generic geodesics, a radial
    # one (no fiber motion, Clairaut's c = 0) and one that stays put
    rng = np.random.default_rng(seed)
    xs = np.array([m.random_point(rng) for _ in range(4)])
    vs = np.array([m.random_tangent(rng, x, unit=True) for x in xs])
    vs[2, 1:], vs[3] = 0.0, 0.0
    vs[2, 0] = rng.choice([-1.0, 1.0])
    ts = rng.uniform(0.01, 0.35, 4) * np.array([-1.0, 1.0, *rng.choice([-1.0, 1.0], 2)])
    ws = np.array([[m.random_tangent(rng, x) for _ in range(3)] for x in xs])
    points, velocities = m.geodesic_flow(xs, vs, ts)
    moved = m.transport_along_geodesic(xs[:, None], vs[:, None], ts[:, None], ws)[1]
    reference = rk4_geodesic(m, xs[:, None], vs[:, None], ts[:, None], ws)
    assert _close(points, reference[:, 0, 0], 1e-10)
    assert _close(velocities, reference[:, 0, 1], 1e-10)
    assert _close(moved, reference[:, :, 2], 1e-10)


def test_warped_geodesic_path_is_exact_outside_its_duration():
    # a path is the geodesic flow at every time, before 0 and after t_max too
    m = Warped((-1.2, 1.2), WarpFunction("cos"), Sphere(2, 1.0))
    rng = np.random.default_rng(8)
    x0 = m.random_point(rng)
    v0 = m.random_tangent(rng, x0, unit=True)
    path = GeodesicPath(m, x0, v0, 0.2)
    for t in (-0.1, 0.5):
        for got, want in zip(path.flow(t), m.geodesic_flow(x0, v0, t)):
            assert np.abs(got - want).max() <= 1e-12


def test_warped_geodesic_leaving_the_interval_between_its_ends_is_a_domain_error():
    # at t = 2 pi this geodesic of the unit sphere's band |s| < 0.3 is back
    # near s = 0, but it turned at s = 0.5 on the way; at t = 0.2 it is inside
    m = Warped((-0.3, 0.3), WarpFunction("cos"), Sphere(1, 1.0))
    x, v = np.array([0.0, 1.0, 0.0]), np.array([math.sin(0.5), 0.0, math.cos(0.5)])
    with pytest.raises(DomainError):
        GeodesicPath(m, x, v, 2 * math.pi).flow(2 * math.pi)
    with pytest.raises(DomainError):
        m.transport_along_geodesic(x, v, 2 * math.pi, v)
    GeodesicPath(m, x, v, 0.2).flow(0.2)
    m.transport_along_geodesic(x, v, 0.2, v)
    # sent the other way on the band -0.6 < s < 0.3, it turns inside at s =
    # -0.5 first and leaves at its second turning point, s = 0.5
    m = Warped((-0.6, 0.3), WarpFunction("cos"), Sphere(1, 1.0))
    v[0] = -v[0]
    with pytest.raises(DomainError):
        m.transport_along_geodesic(x, v, 2 * math.pi, v)
    m.transport_along_geodesic(x, v, 1.0, v)


def _winding_geodesic():
    """A unit-speed geodesic near the equator of a unit-sphere band that
    winds about the fiber about three times in 20."""
    m = Warped((-1.2, 1.2), WarpFunction("cos"), Sphere(1, 1.0))
    x, v = np.array([0.1, 1.0, 0.0]), np.array([0.05, 0.0, 1.0])
    return m, x, v / np.sqrt(m.inner_at(x, v, v))


def test_a_long_winding_warped_geodesic_matches_the_rk4_reference():
    m, x, v = _winding_geodesic()
    ts = np.array([7.0, 20.0])
    reference = rk4_geodesic(m, x, v, ts, step=4e-3)  # its own error is 3.4e-10
    pts, vel = m.geodesic_flow(x, v, ts)
    assert np.abs(pts - reference[:, 0]).max() <= 1e-9
    assert np.abs(vel - reference[:, 1]).max() <= 1e-9
    pts, vel = m.geodesic_flow(x, v, np.linspace(0.0, 20.0, 201))
    y, ydot = pts[:, 1:], vel[:, 1:]
    clairaut = m.warp.value(pts[:, 0]) ** 2 * np.sqrt(m.fiber.inner_at(y, ydot, ydot))
    assert np.abs(clairaut - clairaut[0]).max() <= 1e-13
    assert np.abs(m.inner_at(pts, vel, vel) - 1.0).max() <= 1e-13


def test_warped_transport_costs_the_same_at_every_time(monkeypatch):
    m, x, v = _winding_geodesic()
    calls, value = [], WarpFunction.value
    monkeypatch.setattr(WarpFunction, "value", lambda self, s: calls.append(1) or value(self, s))
    counts = []
    for t in (0.01, 20.0):
        calls.clear()
        m.transport_along_geodesic(x, v, t, m.frame(x))
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("name", ["cos", "cosh", "exp", "affine"])
def test_a_warped_geodesic_at_time_zero_warns_nothing(name):
    # a radial geodesic of an exp or affine warp has no turning point, and
    # its test at t = 0 multiplied 0 by an infinite time (a NumPy warning
    # from simulate's start check)
    m = Warped((-1.2, 1.2), WarpFunction(name), Sphere(1, 1.0))
    x = np.array([0.0, 1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in (np.array([1.0, 0.0, 0.0]), np.array([0.6, 0.0, 0.8])):
            assert np.array_equal(m.geodesic_flow(x, v, 0.0)[0], x)


def test_spec_round_trip():
    specs = [
        {"kind": "sphere", "dim": 2, "radius": 3.0},
        {"kind": "euclidean", "dim": 3},
        {"kind": "hyperbolic", "dim": 2, "radius": 1.0},
        {
            "kind": "warped",
            "dim": 2,
            "interval": [-1.2, 1.2],
            "warp": {"name": "cosh", "a": 1.0, "b": 0.0, "omega": 1.0},
            "fiber": {"kind": "sphere", "dim": 1, "radius": 1.0},
        },
    ]
    for spec in specs:
        m = from_spec(spec)
        again = from_spec(m.to_spec())
        assert again.to_spec() == m.to_spec()
    with pytest.raises(GeometryError):
        from_spec({"kind": "torus", "dim": 2})
    # a count is not truncated: 2.0 reads as 2, 2.9 is an error
    assert from_spec({"kind": "sphere", "dim": 2.0}).dim == 2
    for dim in (2.9, 1.5, float("nan")):
        with pytest.raises(GeometryError):
            from_spec({"kind": "euclidean", "dim": dim})


def test_curvature_operator_agrees_with_sectional():
    # g(R(X^Y)Y, X) reproduces the sectional numerator on every catalog entry
    for m in (Sphere(2, 1.0), Sphere(3, 2.0), Hyperbolic(3, 1.0), Euclidean(3),
              unit_sphere_cosh_warped(3)):
        x = m.random_point(RNG)
        fr = m.frame(x)
        X, Y = fr[0], fr[1]
        num = m.inner_at(x, m.curvature_vector_apply(x, X, Y, Y), X)
        assert num == pytest.approx(m.sectional_curvature(x, X, Y), abs=1e-9)


# -- the broadcasting API -------------------------------------------------------------

BROADCAST_FORMS = st.one_of(
    st.builds(Sphere, st.integers(2, 4), st.floats(0.5, 3.0)),
    st.builds(Hyperbolic, st.integers(2, 4), st.floats(0.5, 3.0)),
    st.builds(Euclidean, st.integers(2, 4)),
)
# where a stacked call evaluates its trigonometric factors by NumPy on arrays
# and the one-point call by Python on numbers, they agree to this relative
# tolerance; everywhere else the arithmetic is the same and so are the results
STACK_TOL = 1e-13


def _row_by_row(f, *stacks):
    """f called on each row of the stacks, its results stacked (slot by slot
    for a tuple)."""
    out = [f(*args) for args in zip(*stacks)]
    return tuple(map(np.array, zip(*out))) if isinstance(out[0], tuple) else np.array(out)


def _close(got, expected, tol=STACK_TOL):
    return np.abs(got - expected).max() <= tol * max(1.0, np.abs(expected).max())


@settings(max_examples=60, deadline=None)
@given(BROADCAST_FORMS, st.integers(0, 2**32 - 1))
def test_stacked_calls_equal_the_row_by_row_calls(m, seed):
    rng = np.random.default_rng(seed)
    xs = np.array([m.random_point(rng) for _ in range(6)])
    us, vs = (np.array([m.random_tangent(rng, x) for x in xs]) for _ in range(2))
    vs[1] = 0.0  # a geodesic that stays put
    ws = rng.standard_normal(xs.shape)
    assert np.array_equal(m.inner_at(xs, us, vs), _row_by_row(m.inner_at, xs, us, vs))
    assert np.array_equal(m.project(xs, ws), _row_by_row(m.project, xs, ws))
    assert np.array_equal(m.transport_rhs(xs, us, vs), _row_by_row(m.transport_rhs, xs, us, vs))
    x, v, t = xs[0], vs[0], rng.uniform(-2.0, 2.0)
    # one geodesic at an array of times, and a stack of geodesics at one time
    ts = rng.uniform(-2.0, 2.0, 7)
    for got, expected in zip(m.geodesic_flow(x, v, ts),
                             _row_by_row(lambda s: m.geodesic_flow(x, v, s), ts)):
        assert _close(got, expected)
    for got, expected in zip(m.geodesic_flow(xs, vs, t),
                             _row_by_row(lambda y, u: m.geodesic_flow(y, u, t), xs, vs)):
        assert _close(got, expected)
    assert _close(m.transport_along_geodesic(xs, vs, t, us)[1],
                  _row_by_row(lambda y, u, w: m.transport_along_geodesic(y, u, t, w)[1],
                              xs, vs, us))
    assert np.array_equal(m.geodesic_flow(xs, vs, t)[0][1], xs[1])


@settings(max_examples=60, deadline=None)
@given(st.one_of(BROADCAST_FORMS, WARPED_FORMS), st.integers(0, 2**32 - 1),
       st.floats(-2.0, 2.0))
def test_a_frame_transported_in_one_call_equals_its_rows_transported_one_by_one(m, seed, t):
    # a frame moved along one geodesic at one time: the same arithmetic per row
    rng = np.random.default_rng(seed)
    x = m.random_point(rng)
    v = _warped_slow(m, m.random_tangent(rng, x, unit=True), 2.0)
    frame = m.frame(x)
    assert np.array_equal(m.transport_along_geodesic(x, v, t, frame)[1],
                          [m.transport_along_geodesic(x, v, t, w)[1] for w in frame])


@settings(max_examples=60, deadline=None)
@given(st.one_of(BROADCAST_FORMS, WARPED_FORMS), st.integers(0, 2**32 - 1),
       st.floats(-3.0, 3.0))
def test_transport_along_a_geodesic_is_a_linear_isometry(m, seed, t):
    rng = np.random.default_rng(seed)
    x = m.random_point(rng)
    v = _warped_slow(m, m.random_tangent(rng, x, unit=True), 3.0)
    ws = np.array([m.random_tangent(rng, x) for _ in range(m.dim + 1)])
    a, b = rng.standard_normal(2)
    xt = m.geodesic_flow(x, v, t)[0]
    moved = m.transport_along_geodesic(x, v, t, np.vstack([ws, a * ws[0] + b * ws[1]]))[1]
    # on a hyperboloid the transport stretches ambient coordinates by up to
    # cosh(theta), theta = |t| sqrt(-K) at unit speed, and the Minkowski
    # products cancel that stretch: round-off scales with it
    k = getattr(m, "curvature_constant", 0.0)  # a warped geodesic stays near its start
    stretch = math.cosh(abs(t) * math.sqrt(-k)) if k < 0 else 1.0
    scale = stretch * max(1.0, np.abs(ws).max(), np.abs(x).max())
    before = m.inner_at(x, ws[:, None], ws)
    after = m.inner_at(xt, moved[:-1, None], moved[:-1])
    assert np.abs(after - before).max() <= 1e-13 * scale**2
    assert np.abs(moved[-1] - (a * moved[0] + b * moved[1])).max() <= 1e-13 * scale
    assert m.tangency_residual(xt, moved).max() <= 1e-13 * scale**2


@settings(max_examples=40, deadline=None)
@given(BROADCAST_FORMS, st.integers(0, 2**32 - 1))
# the geodesic ends off the hyperboloid by many ulps; projecting with K<x, w>
# alone left the frame there a normal part of about 3e-11
@example(m=Hyperbolic(3, 0.505521905722678), seed=183806)
def test_deterministic_frames_stay_coherently_oriented_along_geodesics(m, seed):
    rng = np.random.default_rng(seed)
    x = m.random_point(rng)
    path = GeodesicPath(m, x, m.random_tangent(rng, x, unit=True), 2.0)
    pts = path.point(np.linspace(0.0, 2.0, 201))
    frames = m.frame(pts)
    # consecutive frames differ by a rotation: no row flips between neighbours
    change = m.inner_at(pts[:-1, None, None], frames[:-1, :, None], frames[1:, None])
    assert np.all(np.linalg.det(change) > 0)
    # far out on a hyperboloid the frame entries are large and the Minkowski
    # products cancel, so the frame at the far point is orthonormal and
    # tangent relative to the squared entries
    x, fr = pts[-1], frames[-1]
    scale = max(1.0, np.abs(fr).max())
    assert np.abs(m.inner_at(x, fr[:, None], fr) - np.eye(m.dim)).max() < 1e-12 * scale**2
    assert m.tangency_residual(x, fr).max() < 1e-12 * scale**2


def gram_schmidt_frame(m, x):
    """The deterministic frame at one point x by the loop that defines it:
    Gram-Schmidt on the projected coordinate basis in coordinate order, each
    kept vector projected and orthogonalized a second time, a vector skipped
    where its squared length is at most FRAME_SKIP_TOL**2 or once n rows are
    kept, and the last row flipped where the rows followed by the constraint
    normal have negative determinant.  Returns the rows and the skipped
    coordinates."""
    rows, skipped = [], []

    def orthogonalize(v):
        return v - sum(m.inner_at(x, v, r) * r for r in rows)

    for k in range(m.amb_dim):
        v = orthogonalize(m.project(x, np.eye(m.amb_dim)[k]))
        if len(rows) == m.dim or not m.inner_at(x, v, v) > FRAME_SKIP_TOL**2:
            skipped.append(k)
            continue
        v = orthogonalize(m.project(x, v))
        rows.append(v / math.sqrt(m.inner_at(x, v, v)))
    rows = np.array(rows)
    if _orientation(m, x, rows) < 0:
        rows[-1] *= -1.0
    return rows, skipped


def _orientation(m, x, rows):
    """The sign of the determinant of the frame rows followed by the normal of
    the constraint (x on S^n and H^n, (0, y) on a warped product with a curved
    fiber), or of the rows alone where there is no constraint."""
    if m.amb_dim > m.dim:
        normal = np.concatenate(([0.0], x[1:])) if isinstance(m, Warped) else x
        rows = np.vstack([rows, normal])
    return np.sign(np.linalg.det(rows))


def _frame_oracle_points(m):
    """Points where Gram-Schmidt skips, or nearly skips, a coordinate: those of
    _skip_points, points 1e-9 off them, points with a last coordinate of
    exactly 0, and points with x_0 about 1e3 on a hyperboloid."""
    if isinstance(m, Warped):
        s = sum(m.interval) / 2
        return [np.concatenate(([s], y)) for y in _frame_oracle_points(m.fiber)]
    points = _skip_points(m)
    e = np.eye(m.amb_dim)
    if isinstance(m, Sphere):
        tilt = [math.cos(1e-9), math.sin(1e-9)]
        points += [m.radius * (tilt[0] * e[k] + tilt[1] * e[(k + 1) % m.amb_dim])
                   for k in range(m.amb_dim)]
        flat = np.arange(1.0, m.amb_dim + 1) * (-1.0) ** np.arange(m.amb_dim)
        flat[-1] = 0.0
        points += [m.radius * flat / np.linalg.norm(flat)]
    if isinstance(m, Hyperbolic):
        axis = np.arange(m.dim)
        spatial = [1e-9 * e[1, 1:], np.linspace(0.5, -0.7, m.dim) * (axis < m.dim - 1),
                   1e3 * e[1, 1:] + np.linspace(0.3, 0.9, m.dim) * (axis > 0),
                   np.linspace(1e3, 2e2, m.dim)]
        points += [np.concatenate(([math.sqrt(m.radius**2 + y @ y)], y)) for y in spatial]
    return points


def test_frames_far_out_on_a_hyperboloid_skip_a_vanishing_last_coordinate():
    # at x = (x_0, 1000, 600, 0) on H3(2) nothing is left of coordinate 2
    # after orthogonalization, but the loop's round-off in it (about 1e-10 of
    # squared length) passed the skip test, and the loop returned NaN rows;
    # the closed form skips it exactly
    m = Hyperbolic(3, 2.0)
    y = np.array([1000.0, 600.0, 0.0])
    x = np.concatenate(([math.sqrt(4.0 + y @ y)], y))
    fr = m.frame(x)
    scale = np.abs(fr).max()
    assert np.abs(m.inner_at(x, fr[:, None], fr) - np.eye(3)).max() < 1e-12 * scale**2
    assert m.tangency_residual(x, fr).max() < 1e-12 * scale**2
    assert not np.tril(np.delete(fr, 2, axis=1), -1).any()


@st.composite
def _catalog_form_points(draw, forms):
    """A manifold of forms and a random point of it, maybe pulled near a skip
    point: the coordinates after a cut are shrunk by a factor, then the point
    is moved back onto the manifold."""
    m = draw(forms)
    x = m.random_point(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    cut = draw(st.integers(int(isinstance(m, Warped)), m.amb_dim - 1))  # keep a fiber coordinate
    x[cut + 1 :] *= draw(st.sampled_from([1.0, 1e-3, 1e-9, 1e-10, 0.0]))
    return m, m.closest_point(x)


FRAME_ORACLE_FORMS = [Sphere(1, 1.0), Sphere(2, 1.0), Sphere(3, 2.0), Sphere(4, 0.5),
                      Hyperbolic(1, 1.0), Hyperbolic(2, 1.0), Hyperbolic(3, 2.0),
                      Hyperbolic(4, 1.0), Euclidean(2), unit_sphere_cosh_warped(),
                      Warped((-1.2, 1.2), WarpFunction("cos"), Sphere(2, 2.0)),
                      Warped((-1.0, 1.0), WarpFunction("cosh"), Hyperbolic(2, 1.0)),
                      Warped((-1.0, 1.0), WarpFunction("exp"), Euclidean(2))]


def _with_frame_oracle_examples(test):
    for m in FRAME_ORACLE_FORMS:
        for x in _frame_oracle_points(m):
            test = example(case=(m, x))(test)
    return test


@settings(max_examples=300, deadline=None)
@given(case=_catalog_form_points(st.one_of(
    BROADCAST_FORMS, WARPED_FORMS, st.builds(Sphere, st.just(1), st.floats(0.5, 3.0)),
    st.builds(Hyperbolic, st.just(1), st.floats(0.5, 3.0)), st.builds(Euclidean, st.just(1)))))
@_with_frame_oracle_examples
def test_frames_equal_the_gram_schmidt_that_defines_them(case):
    # frames computes the Gram-Schmidt in closed form, with the same skipped
    # coordinate and the same orientation.  Far out on a hyperboloid both
    # lose the digits that the Minkowski products cancel, about the squared
    # largest entry: at x_0 = 1e3 the loop is off a 60-digit Gram-Schmidt
    # by 1e-10 of its largest entry, the closed form by 2.4e-11
    m, x = case
    got = m.frame(x)
    expected, skipped = gram_schmidt_frame(m, x)
    scale = max(1.0, np.abs(expected).max())
    assert np.abs(got - expected).max() <= 1e-13 * scale**3
    # the kept coordinates are where the rows start: row r vanishes on the
    # kept coordinates before its own, and not on its own
    kept = np.delete(got, skipped, axis=1)
    assert not np.tril(kept, -1).any() and np.all(np.diagonal(kept) != 0)
    assert _orientation(m, x, got) == _orientation(m, x, expected) == 1
