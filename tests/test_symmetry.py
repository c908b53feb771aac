import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from rollsym import Euclidean, GeometryError, Hyperbolic, Sphere, WarpFunction, Warped
from rollsym.curvature import wedge_matrix
from rollsym.numerics import central_diff, stencil_offsets
from rollsym.rolling import (
    RollingPair,
    TangentOfQ,
    det_transport_matrix,
    rolling_lift,
    tangent_curve,
)
from rollsym.symmetry import (
    SymmetryCandidate,
    standard_contact_field,
    inner_symmetry_residual,
    killing_catalog,
    killing_to_symmetry,
    perturb_candidate,
    propagate_chain,
    propagate_sym0,
    sym0_dimension_probe,
    symmetry_residual,
    vertical_compatibility_residual,
)

RNG = np.random.default_rng(404)


def zeros(*shape):
    """A closure that gives the zero stack of the given shape at every state."""
    return lambda s: np.zeros(shape)


# -- catalog ---------------------------------------------------------------------


def test_catalog_dimensions():
    assert len(killing_catalog(Euclidean(2))) == 3
    assert len(killing_catalog(Sphere(3, 1.0))) == 6
    assert len(killing_catalog(Hyperbolic(2, 1.0))) == 3
    assert len(killing_catalog(Euclidean(4))) == 10


def test_catalog_rejects_warped():
    warped = Warped((-1.2, 1.2), WarpFunction("cosh"), Sphere(1, 1.0))
    with pytest.raises(GeometryError):
        killing_catalog(warped)


def killing_ode_residual(field, x, v, h=1e-4, order=4):
    """Residual of the second-order Killing identity
    nabla_v (nabla K) = R(v ^ K) at x for a stack of one field, as a frame
    matrix norm: the stencil differentiates nabla K along the geodesic of v
    in parallel-transported frames."""
    m = field.manifold

    def sample(t):
        xt = m.geodesic_flow(x, v, t)[0]
        p = det_transport_matrix(m, x, v, t)
        return p.T @ field.nabla_matrix(xt, m.frame(xt))[0] @ p

    d = central_diff([sample(t) for t in stencil_offsets(h, order)], h)
    a, b = m.frame_coords(x, m.frame(x), np.array([v, field.value(x)[0]]))
    expected = m.curvature_matrix_apply(x, wedge_matrix(a, b))
    return float(np.linalg.norm(d - expected))


def test_killing_fields_have_skew_differential_and_satisfy_the_ode():
    for m in (Euclidean(2), Sphere(2, 1.0), Hyperbolic(2, 1.0), Sphere(3, 1.0)):
        for field in killing_catalog(m):
            x = m.random_point(RNG)
            nb = field.nabla_matrix(x, m.frame(x))[0]
            assert np.abs(nb + nb.T).max() < 1e-10
            v = m.random_tangent(RNG, x, unit=True)
            assert killing_ode_residual(field, x, v) < 1e-7


def test_killing_values_are_tangent():
    m = Hyperbolic(2, 2.0)
    for field in killing_catalog(m):
        x = m.random_point(RNG)
        assert m.tangency_residual(x, field.value(x)) < 1e-9


# -- induced candidates --------------------------------------------------------------


def test_translation_induced_candidate_is_exact():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    q = pair.random_state(RNG)
    trans = killing_catalog(pair.space_hat)[0]
    cand = killing_to_symmetry(pair, trans)
    assert np.all(cand.U_bar(q) == 0.0)
    X = pair.space.random_tangent(RNG, q.x, unit=True)
    r1, r2 = symmetry_residual(cand, [q], [X])
    assert r1[0, 0] < 1e-9 and r2[0, 0] < 1e-9


def test_plane_rotation_induced_candidate():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    q = pair.random_state(RNG)
    rot = [f for f in killing_catalog(pair.space_hat) if f.names == ["rotation-01"]][0]
    cand = killing_to_symmetry(pair, rot)
    expected = rot.generators @ q.isometry
    assert np.allclose(cand.U_bar(q), expected, atol=1e-12)
    X = pair.space.random_tangent(RNG, q.x, unit=True)
    r1, r2 = symmetry_residual(cand, [q], [X])
    assert max(r1[0, 0], r2[0, 0]) < 1e-7


def test_sphere_rotation_induced_candidate_on_s3():
    pair = RollingPair(Sphere(3, 2.0), Sphere(3, 1.0))
    q = pair.random_state(RNG)
    for field in killing_catalog(pair.space_hat)[:3]:
        cand = killing_to_symmetry(pair, field)
        X = pair.space.random_tangent(RNG, q.x, unit=True)
        r1, r2 = symmetry_residual(cand, [q], [X])
        assert max(r1[0, 0], r2[0, 0]) < 1e-6


def test_zero_candidate_has_zero_residuals():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    q = pair.random_state(RNG)
    zero = SymmetryCandidate(pair, zeros(1, 3), zeros(1, 2), zeros(1, 2, 2), ["zero"])
    X = pair.space.random_tangent(RNG, q.x, unit=True)
    assert np.all(np.concatenate(symmetry_residual(zero, [q], [X])) == 0.0)


def test_perturbed_candidate_is_rejected():
    pair = RollingPair(Sphere(2, 2.0), Sphere(2, 1.0))
    q = pair.random_state(RNG)
    cand = killing_to_symmetry(pair, killing_catalog(pair.space_hat)[1])
    pert = perturb_candidate(cand, 1e-3, np.random.default_rng(0))
    X = pair.space.random_tangent(RNG, q.x, unit=True)
    r1, r2 = symmetry_residual(pert, [q], [X])
    assert max(r1[0, 0], r2[0, 0]) > 1e-4
    # linear response: the drift equation sees the perturbation at its size
    assert r1[0, 0] == pytest.approx(1e-3, rel=0.9)


def test_candidate_validation():
    pair = RollingPair(Sphere(2, 2.0), Sphere(2, 1.0))
    q = pair.random_state(RNG)
    cand = killing_to_symmetry(pair, killing_catalog(pair.space_hat)[0])
    assert np.array_equal(cand.validate(q), cand.U_bar(q))
    broken = SymmetryCandidate(pair, zeros(1, 3), zeros(1, 3),
                               lambda s: np.array([[[0.0, 1.0], [1.0, 0.0]]]), ["symmetric"])
    with pytest.raises(GeometryError):
        broken.validate(q)
    with pytest.raises(GeometryError, match="not skew"):
        symmetry_residual(broken, [q], [q.frame[0]])
    # a NaN residual compares false with the tolerance and must not pass
    nan_valued = SymmetryCandidate(pair, zeros(1, 3), zeros(1, 3),
                                   lambda s: np.full((1, 2, 2), np.nan), ["nan"])
    with pytest.raises(GeometryError):
        nan_valued.validate(q)


def test_killing_mismatch_raises():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    field_on_wrong_factor = killing_catalog(Sphere(2, 1.0))[0]
    with pytest.raises(GeometryError):
        killing_to_symmetry(pair, field_on_wrong_factor)


def test_lemma_u_reconstruction_is_fiber_independent():
    # U_bar(q) A^{-1} recovers the covariant differential of the Killing
    # field regardless of the contact map over a fixed pair of points
    pair = RollingPair(Sphere(2, 2.0), Sphere(2, 1.0))
    field = killing_catalog(pair.space_hat)[2]
    cand = killing_to_symmetry(pair, field)
    x = pair.space.random_point(RNG)
    x_hat = pair.space_hat.random_point(RNG)
    rng = np.random.default_rng(6)
    from rollsym.rolling import random_rotation

    q1 = pair.state(x, x_hat, random_rotation(rng, 2))
    q2 = pair.state(x, x_hat, random_rotation(rng, 2))
    u1 = cand.U_bar(q1) @ q1.isometry.T
    u2 = cand.U_bar(q2) @ q2.isometry.T
    assert np.abs(u1 - u2).max() < 1e-9
    assert np.abs(u1 - field.nabla_matrix(x_hat, pair.space_hat.frame(x_hat))).max() < 1e-9


# -- vertical compatibility ------------------------------------------------------------


def test_vertical_compatibility_flat_and_matched_cases():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    q = pair.random_state(RNG)
    cand = killing_to_symmetry(pair, killing_catalog(pair.space_hat)[0])
    X = pair.space.random_tangent(RNG, q.x, unit=True)
    Y = pair.space.random_tangent(RNG, q.x, unit=True)
    assert vertical_compatibility_residual(cand, [q], [X], [Y])[0, 0] < 1e-9

    matched = RollingPair(Sphere(2, 1.0), Sphere(2, 1.0))
    qm = matched.random_state(RNG)
    cand_m = killing_to_symmetry(matched, killing_catalog(matched.space_hat)[0])
    assert vertical_compatibility_residual(cand_m, [qm], [X], [Y])[0, 0] == 0.0


def test_vertical_compatibility_on_distinct_spheres():
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    q = pair.random_state(RNG)
    for field in killing_catalog(pair.space_hat):
        cand = killing_to_symmetry(pair, field)
        X = pair.space.random_tangent(RNG, q.x, unit=True)
        Y = pair.space.random_tangent(RNG, q.x, unit=True)
        assert vertical_compatibility_residual(cand, [q], [X], [Y])[0, 0] < 1e-6


def test_vertical_compatibility_detects_base_dependence():
    # a candidate whose drift depends on the contact map fails the check
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    q = pair.random_state(RNG)
    cand = SymmetryCandidate(pair, zeros(1, 3), lambda s: s.apply(s.frame[:1]),
                             zeros(1, 2, 2), ["contact-map drift"])
    X = pair.space.random_tangent(RNG, q.x, unit=True)
    Y = pair.space.random_tangent(RNG, q.x, unit=True)
    assert vertical_compatibility_residual(cand, [q], [X], [Y])[0, 0] > 1e-4


def test_an_audit_sample_builds_each_canonical_curve_state_once(monkeypatch, tmp_path):
    # an audit draws all its samples first: the rolling-lift states of every
    # sample then come from one tangent_curve call, and the fiber states from
    # one more.  The frames come in stacks too: one frames call per factor
    # for the sample states and one per factor for the moving rolling-lift
    # states (the fiber states keep their base's frames), and one for the
    # dimension probe's state, which reads the frame at x_hat only, whatever
    # the sample count
    import json

    import rollsym.rolling as rolling_mod
    from rollsym.cli import main
    from rollsym.spaces import SpaceForm
    from test_brackets import patch_everywhere

    calls, frames = [], []
    build = rolling_mod.tangent_curve
    patch_everywhere(monkeypatch, build, lambda *a: calls.append(1) or build(*a))
    stacked = SpaceForm.frames
    monkeypatch.setattr(SpaceForm, "frames", lambda *a, **k: frames.append(1) or stacked(*a, **k))
    config = tmp_path / "pair.json"
    config.write_text(json.dumps({"manifold_pair": [Sphere(3, 2.0).to_spec(),
                                                    Sphere(3, 1.0).to_spec()]}))
    for samples in (1, 20):
        calls.clear()
        frames.clear()
        assert main(["--config", str(config), "symmetry-check", "--seed", "5",
                     "--candidate", json.dumps({"kind": "catalog"}), "--samples", str(samples),
                     "--out", str(tmp_path / "audit.json")]) == 0
        assert 0 < len(calls) <= 2
        assert 0 < len(frames) <= 5


def test_a_fiber_curve_keeps_the_base_point_and_frames():
    pair = RollingPair(Sphere(3, 2.0), Hyperbolic(3, 1.0))
    rng = np.random.default_rng(7)
    q = pair.random_state(rng)
    c = wedge_matrix(rng.standard_normal(3), rng.standard_normal(3))
    xi = TangentOfQ(q, np.zeros(4), np.zeros(4), c)
    qt, = tangent_curve([q], xi.X, xi.X_hat, xi.C, 0.3)
    assert qt.x is q.x and qt.x_hat is q.x_hat
    assert qt.frame is q.frame and qt.frame_hat is q.frame_hat
    for fwd in qt.transports:
        assert np.array_equal(fwd, np.eye(3))
    assert np.abs(qt.isometry - q.isometry @ expm(0.3 * c)).max() < 1e-14


def test_a_rolling_lift_curve_takes_no_matrix_exponential(monkeypatch):
    import rollsym.rolling as rolling_mod

    monkeypatch.setattr(rolling_mod, "expm", lambda *a: pytest.fail("expm called"))
    pair = RollingPair(Sphere(2, 2.0), Sphere(2, 1.0))
    rng = np.random.default_rng(8)
    q = pair.random_state(rng)
    X = pair.space.random_tangent(rng, q.x, unit=True)
    xi = rolling_lift(q, X)
    qt, = tangent_curve([q], xi.X, xi.X_hat, xi.C, 0.2)
    p, p_hat = qt.transports
    assert np.abs(qt.isometry - p_hat @ q.isometry @ p.T).max() < 1e-14


# pairs whose second factor carries a catalog: the four audit pairs, a
# cosine-warped first factor, and flat second factors with translation fields
STACK_PAIRS = st.sampled_from([
    lambda: RollingPair(Sphere(2, 2.0), Sphere(2, 1.0)),
    lambda: RollingPair(Sphere(2, 2.0), Hyperbolic(2, 1.0)),
    lambda: RollingPair(Sphere(2, 2.0), Euclidean(2)),
    lambda: RollingPair(Sphere(3, 2.0), Sphere(3, 1.0)),
    lambda: RollingPair(Warped((-1.2, 1.2), WarpFunction("cos"), Sphere(1, 1.0)),
                        Sphere(2, 1.0)),
    lambda: RollingPair(Sphere(3, 2.0), Euclidean(3)),
])


@settings(max_examples=25, deadline=None)
@given(STACK_PAIRS, st.integers(0, 2**32 - 1), st.booleans())
def test_stacked_residuals_equal_the_stacks_of_one(make_pair, seed, perturbed):
    # each candidate's row of (r1, r2, r3) from the whole catalog equals the
    # residuals of its field alone; a perturbed stack draws one noise matrix
    # per field in catalog order, so field i alone skips i draws
    pair = make_pair()
    catalog = killing_catalog(pair.space_hat)
    rng = np.random.default_rng(seed)
    q = pair.random_state(rng)
    X = pair.space.random_tangent(rng, q.x, unit=True)
    Y = pair.space.random_tangent(rng, q.x, unit=True)

    def residuals(fields, skip):
        cand = killing_to_symmetry(pair, fields)
        if perturbed:
            noise_rng = np.random.default_rng(seed + 1)
            noise_rng.standard_normal((skip, pair.dim, pair.dim))
            cand = perturb_candidate(cand, 1e-3, noise_rng)
        cand.validate(q)
        return np.array([*symmetry_residual(cand, [q], [X]),
                         vertical_compatibility_residual(cand, [q], [X], [Y])])[:, 0]

    stacked = residuals(catalog, 0)
    assert stacked.shape == (3, len(catalog))
    for i in range(len(catalog)):
        assert np.abs(stacked[:, i] - residuals(catalog[i], i)[:, 0]).max() < 1e-11


# -- inner symmetries -------------------------------------------------------------------


def inner_candidate(pair, Z, name):
    """The inner symmetry candidate of a stack closure Z: (Z, A Z, 0)."""
    return SymmetryCandidate(pair, Z, lambda s: s.apply(Z(s)),
                             lambda s: np.zeros((len(Z(s)), pair.dim, pair.dim)), [name])


def test_inner_kind_candidate_passes_general_residuals():
    # the full residual checker accepts a genuine inner symmetry: the
    # radial field of the cosine warp rolling on the matching sphere
    warped = Warped((-1.2, 1.2), WarpFunction("cos"), Sphere(1, 1.0))
    pair = RollingPair(warped, Sphere(2, 1.0))
    cand = inner_candidate(pair, lambda s: np.array([[1.0, 0.0, 0.0]]), "radial")
    rng = np.random.default_rng(88)
    for _ in range(5):
        q = pair.random_state(rng)
        X = pair.space.random_tangent(rng, q.x, unit=True)
        r1, r2 = symmetry_residual(cand, [q], [X])
        assert max(r1[0, 0], r2[0, 0]) < 1e-6


def test_contact_field_instance_is_inner_on_matched_unit_spheres():
    # constant-curvature instance of the contact-geometry example
    sphere = Sphere(3, 1.0)
    xi = standard_contact_field(sphere)
    pair = RollingPair(sphere, Sphere(3, 1.0))
    rng = np.random.default_rng(89)
    for _ in range(5):
        q = pair.random_state(rng)
        assert abs(np.linalg.norm(xi.value(q.x)[0]) - 1.0) < 1e-12  # unit field
        assert inner_symmetry_residual(lambda s: xi.value(s.x)[0], q) < 1e-12
    cand = inner_candidate(pair, lambda s: xi.value(s.x), "contact lift")
    q = pair.random_state(rng)
    X = pair.space.random_tangent(rng, q.x, unit=True)
    r1, r2 = symmetry_residual(cand, [q], [X])
    assert max(r1[0, 0], r2[0, 0]) < 1e-6
    with pytest.raises(GeometryError):
        standard_contact_field(Sphere(2, 1.0))
    with pytest.raises(GeometryError):
        standard_contact_field(Sphere(3, 2.0))


def test_inner_symmetry_matched_curvatures():
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 1.0))
    q = pair.random_state(RNG)
    z = pair.space.random_tangent(RNG, q.x)
    assert inner_symmetry_residual(z, q) < 1e-12


def test_inner_symmetry_warped_radial_field():
    # cosine warp against the matching sphere: the radial field is inner
    for n in (2, 3):
        warped = Warped((-1.2, 1.2), WarpFunction("cos"), Sphere(n - 1, 1.0))
        pair = RollingPair(warped, Sphere(n, 1.0))
        for _ in range(5):
            q = pair.random_state(RNG)
            radial = np.zeros(warped.amb_dim)
            radial[0] = 1.0
            assert inner_symmetry_residual(radial, q) < 1e-8


def test_inner_symmetry_rejects_mismatched_pair():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    for _ in range(5):
        q = pair.random_state(RNG)
        z = pair.space.random_tangent(RNG, q.x, unit=True)
        assert inner_symmetry_residual(z, q) >= 1.0 - 1e-6


def test_inner_symmetry_sectional_consequence():
    # where the radial field is inner, sectional curvatures of planes
    # containing it match their images under the contact map
    warped = Warped((-1.2, 1.2), WarpFunction("cos"), Sphere(1, 1.0))
    pair = RollingPair(warped, Sphere(2, 1.0))
    for _ in range(5):
        q = pair.random_state(RNG)
        radial = np.zeros(3)
        radial[0] = 1.0
        assert inner_symmetry_residual(radial, q) < 1e-8
        X = q.frame[1]
        sigma = pair.space.sectional_curvature(q.x, X, radial)
        sigma_hat = pair.space_hat.sectional_curvature(
            q.x_hat, q.apply(X), q.apply(radial)
        )
        assert abs(sigma - sigma_hat) < 1e-7


# -- propagation ----------------------------------------------------------------------


def test_propagation_flat_target_is_affine():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    q1 = pair.random_state(RNG)
    X = pair.space.random_tangent(RNG, q1.x, unit=True)
    z0 = np.array([0.4, -0.2])
    rot = [f for f in killing_catalog(pair.space_hat) if f.names == ["rotation-01"]][0]
    u0 = rot.generators[0] @ q1.isometry
    grid = np.linspace(0.0, 1.5, 31)
    res = propagate_sym0(q1, X, z0, u0, grid)
    v_hat = q1.apply(X)
    d0 = q1.from_coords_hat(u0 @ q1.coords(X))
    for t, z in zip(grid, res.Z_hat):
        assert np.allclose(z, z0 + t * d0, atol=1e-9)
    # vertical data stays constant in parallel frames on a flat target
    for t, u in zip(grid, res.U_bar):
        from rollsym.rolling import det_transport_matrix

        p = det_transport_matrix(pair.space, q1.x, X, t)
        assert np.abs(u - u0 @ p.T).max() < 1e-9


def test_propagation_sphere_jacobi_closed_form():
    pair = RollingPair(Euclidean(2), Sphere(2, 1.0))
    q1 = pair.random_state(RNG)
    X = pair.space.random_tangent(RNG, q1.x, unit=True)
    v_hat = q1.apply(X)
    e = pair.space_hat.random_tangent(RNG, q1.x_hat)
    e = e - pair.space_hat.inner_at(q1.x_hat, e, v_hat) * v_hat
    e /= math.sqrt(pair.space_hat.inner_at(q1.x_hat, e, e))
    u0 = np.outer(q1.coords_hat(e), q1.coords(X))
    u0 = q1.isometry @ (0.5 * (q1.isometry.T @ u0 - (q1.isometry.T @ u0).T))
    grid = np.linspace(0.0, 2.0, 81)
    res = propagate_sym0(q1, X, np.zeros(3), u0, grid)
    d0 = q1.from_coords_hat(u0 @ q1.coords(X))

    def brute_jacobi(t_grid):
        """Independent oracle: RK4 on the variation equation of the unit
        sphere in ambient coordinates; the state is (Y, W) with W the
        covariant rate of Y, using only extrinsic projections:

            Y' = W - <Y, v> x,   W' = <v, Y> v - Y - <W, v> x.
        """

        def rhs(tt, state):
            yy, ww = state[:3], state[3:]
            xt, vt = pair.space_hat.geodesic_flow(q1.x_hat, v_hat, tt)
            dy = ww - np.dot(yy, vt) * xt
            dw = np.dot(vt, yy) * vt - yy - np.dot(ww, vt) * xt
            return np.concatenate((dy, dw))

        state = np.concatenate((np.zeros(3), d0))
        out = [state[:3].copy()]
        for a, b in zip(t_grid[:-1], t_grid[1:]):
            steps = 20
            h = (b - a) / steps
            t = a
            for _ in range(steps):
                k1 = rhs(t, state)
                k2 = rhs(t + h / 2, state + h / 2 * k1)
                k3 = rhs(t + h / 2, state + h / 2 * k2)
                k4 = rhs(t + h, state + h * k3)
                state = state + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                t += h
            out.append(state[:3].copy())
        return out

    for t, z in zip(grid, res.Z_hat):
        et = pair.space_hat.transport_along_geodesic(q1.x_hat, v_hat, t, d0)
        assert np.abs(z - math.sin(t) * et).max() < 1e-7

    oracle = brute_jacobi(grid)
    for z, zo in zip(res.Z_hat[::20], oracle[::20]):
        assert np.abs(z - zo).max() < 1e-4


def test_propagation_round_trip():
    pair = RollingPair(Sphere(2, 3.0), Sphere(2, 1.0))
    q1 = pair.random_state(RNG)
    field = killing_catalog(pair.space_hat)[1]
    cand = killing_to_symmetry(pair, field)
    X = pair.space.random_tangent(RNG, q1.x, unit=True)
    grid = np.linspace(0.0, 1.1, 45)
    res = propagate_sym0(q1, X, cand.Z_hat(q1)[0], cand.U_bar(q1)[0], grid)
    q_end, z_end, u_end = res.final()
    v_hat = pair.space_hat.geodesic_flow(q1.x_hat, q1.apply(X), 1.1)[1]
    back_dir = -q_end.from_coords(q_end.isometry.T @ q_end.coords_hat(v_hat))
    res_back = propagate_sym0(q_end, back_dir, z_end, u_end, grid)
    _, z0, u0 = res_back.final()
    assert np.abs(z0 - cand.Z_hat(q1)[0]).max() < 1e-5
    assert np.abs(u0 - cand.U_bar(q1)[0]).max() < 1e-5


def test_propagation_matches_killing_construction():
    for mh in (Sphere(2, 1.0), Euclidean(2)):
        pair = RollingPair(Sphere(2, 3.0), mh)
        q1 = pair.random_state(RNG)
        field = killing_catalog(mh)[-1]
        cand = killing_to_symmetry(pair, field)
        q_cur, z_cur, u_cur = q1, cand.Z_hat(q1)[0], cand.U_bar(q1)[0]
        rng = np.random.default_rng(12)
        for _ in range(3):
            direction = pair.space.random_tangent(rng, q_cur.x, unit=True)
            q_cur, z_cur, u_cur = propagate_chain(q_cur, [(direction, 0.8)], z_cur, u_cur)
        assert np.abs(z_cur - cand.Z_hat(q_cur)[0]).max() < 1e-5
        assert np.abs(u_cur - cand.U_bar(q_cur)[0]).max() < 1e-5


def test_propagation_grid_refinement_stability():
    # halving the quadrature grid moves the endpoint data only at the
    # integrator's order, far below the acceptance tolerance
    pair = RollingPair(Sphere(2, 3.0), Sphere(2, 1.0))
    rng = np.random.default_rng(19)
    q1 = pair.random_state(rng)
    field = killing_catalog(pair.space_hat)[0]
    cand = killing_to_symmetry(pair, field)
    X = pair.space.random_tangent(rng, q1.x, unit=True)
    coarse = propagate_sym0(q1, X, cand.Z_hat(q1)[0], cand.U_bar(q1)[0],
                            np.linspace(0.0, 1.0, 49))
    fine = propagate_sym0(q1, X, cand.Z_hat(q1)[0], cand.U_bar(q1)[0],
                          np.linspace(0.0, 1.0, 97))
    assert np.abs(coarse.final()[1] - fine.final()[1]).max() < 1e-8
    assert np.abs(coarse.final()[2] - fine.final()[2]).max() < 1e-8


def test_propagation_grid_validation():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    q = pair.random_state(RNG)
    with pytest.raises(GeometryError):
        propagate_sym0(q, q.frame[0], np.zeros(2), np.zeros((2, 2)), [0.5, 1.0])


# -- dimension probe ---------------------------------------------------------------------


def test_dimension_probe_full_catalogs():
    pair = RollingPair(Sphere(2, 2.0), Sphere(2, 1.0))
    cands = killing_to_symmetry(pair, killing_catalog(pair.space_hat))
    q0 = pair.random_state(RNG)
    rep = sym0_dimension_probe(q0, cands)
    assert rep.rank == 3

    pair3 = RollingPair(Euclidean(3), Sphere(3, 1.0))
    cands3 = killing_to_symmetry(pair3, killing_catalog(pair3.space_hat))
    q03 = pair3.random_state(RNG)
    rep3 = sym0_dimension_probe(q03, cands3)
    assert rep3.rank == 6


def test_dimension_probe_span_invariance_and_small_cases():
    pair = RollingPair(Sphere(2, 2.0), Sphere(2, 1.0))
    catalog = killing_catalog(pair.space_hat)
    q0 = pair.random_state(RNG)
    base = sym0_dimension_probe(q0, killing_to_symmetry(pair, catalog)).rank
    twice = catalog[np.tile(np.arange(len(catalog)), 2)]
    assert sym0_dimension_probe(q0, killing_to_symmetry(pair, twice)).rank == base
    assert sym0_dimension_probe(q0, killing_to_symmetry(pair, catalog[:1])).rank == 1
    # a stack whose drift on the first factor is nonzero at q0 is not base-fixing
    moving = SymmetryCandidate(pair, lambda s: s.frame[:1], zeros(1, 3), zeros(1, 2, 2),
                               ["moving base"])
    with pytest.raises(GeometryError, match="base-fixing"):
        sym0_dimension_probe(q0, moving)
