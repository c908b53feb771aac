import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from rollsym import (Euclidean, GeometryError, Hyperbolic, MismatchError, Sphere, WarpFunction,
                     Warped)
from rollsym.brackets import (bracket_fd, bracket_structured, rolling_generators,
                              stencil_data_derivative)
from rollsym.curvature import skew_part, skew_to_vector, vector_to_skew, wedge_matrix
from rollsym.numerics import central_diff, stencil_offsets
from rollsym.rolling import (
    RollingPair,
    det_transport_matrix,
    q_dim,
    rolling_lift,
    tangent_curve,
)
from rollsym.symmetry import (
    KillingField,
    SymmetryCandidate,
    standard_contact_field,
    inner_symmetry_residual,
    killing_catalog,
    killing_to_symmetry,
    perturb_candidate,
    propagate_sym0,
    sym0_dimension_probe,
    symmetry_residual,
    vertical_compatibility_residual,
)

RNG = np.random.default_rng(404)
FIELD_FD_STEP = 1e-3  # the stencil step of a candidate without closed-form derivatives


def stencil_candidate(value, names):
    """The candidate of a value closure, differentiated by stencils."""
    return SymmetryCandidate(value, lambda q, xi: stencil_data_derivative(value, q, xi,
                                                                          FIELD_FD_STEP), names)


def zeros(*shape):
    """A closure that gives the zero stack of the given shape at every state
    of a stack."""
    return lambda s: np.zeros(s.shape + shape)


def ambient(q, row):
    """The ambient Z_hat and the frame matrix U_bar = A C of a tangent row at
    the state q."""
    n = q.pair.dim
    return row[n : 2 * n] @ q.frame_hat, q.isometry @ vector_to_skew(row[2 * n :], n)


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


def killing_ode_residual(field, x, v, h=1e-4):
    """Residual of the second-order Killing identity
    nabla_v (nabla K) = R(v ^ K) at x for a stack of one field, as a frame
    matrix norm: the stencil differentiates nabla K along the geodesic of v
    in parallel-transported frames."""
    m = field.manifold

    def sample(t):
        xt = m.geodesic_flow(x, v, t)[0]
        p = det_transport_matrix(m, x[None], m.frame(x)[None], v[None], np.array([t]))[1][0]
        return p.T @ field.nabla_matrix(xt, m.frame(xt))[0] @ p

    d = central_diff([sample(t) for t in stencil_offsets(h)], h)
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
    assert np.all(ambient(q, cand.value(q)[0])[1] == 0.0)
    X = pair.space.random_tangent(RNG, q.x, unit=True)
    r1, r2 = symmetry_residual(cand, q[None], X[None])
    assert r1[0, 0] < 1e-9 and r2[0, 0] < 1e-9


def test_plane_rotation_induced_candidate():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    q = pair.random_state(RNG)
    rot = [f for f in killing_catalog(pair.space_hat) if f.names == ["rotation-01"]][0]
    cand = killing_to_symmetry(pair, rot)
    expected = rot.generators[0] @ q.isometry
    assert np.allclose(ambient(q, cand.value(q)[0])[1], expected, atol=1e-12)
    X = pair.space.random_tangent(RNG, q.x, unit=True)
    r1, r2 = symmetry_residual(cand, q[None], X[None])
    assert max(r1[0, 0], r2[0, 0]) < 1e-7


def test_sphere_rotation_induced_candidate_on_s3():
    pair = RollingPair(Sphere(3, 2.0), Sphere(3, 1.0))
    q = pair.random_state(RNG)
    for field in killing_catalog(pair.space_hat)[:3]:
        cand = killing_to_symmetry(pair, field)
        X = pair.space.random_tangent(RNG, q.x, unit=True)
        r1, r2 = symmetry_residual(cand, q[None], X[None])
        assert max(r1[0, 0], r2[0, 0]) < 1e-6


def test_zero_candidate_has_zero_residuals():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    q = pair.random_state(RNG)
    zero = stencil_candidate(zeros(1, q_dim(2)), ["zero"])
    X = pair.space.random_tangent(RNG, q.x, unit=True)
    assert np.all(np.concatenate(symmetry_residual(zero, q[None], X[None])) == 0.0)


def test_perturbed_candidate_is_rejected():
    pair = RollingPair(Sphere(2, 2.0), Sphere(2, 1.0))
    q = pair.random_state(RNG)
    pert = perturb_candidate(pair, killing_catalog(pair.space_hat)[1], 1e-3,
                             np.random.default_rng(0))
    X = pair.space.random_tangent(RNG, q.x, unit=True)
    r1, r2 = symmetry_residual(pert, q[None], X[None])
    assert max(r1[0, 0], r2[0, 0]) > 1e-4
    # linear response: the drift equation sees the perturbation at its size
    assert r1[0, 0] == pytest.approx(1e-3, rel=0.9)


def test_candidate_validation():
    # a vertical part that is not skew cannot be written as a row; a NaN
    # residual compares false with the tolerance and must not pass, so rows
    # that are not finite at the samples are refused
    pair = RollingPair(Sphere(2, 2.0), Sphere(2, 1.0))
    q = pair.random_state(RNG)
    nan_valued = stencil_candidate(lambda s: np.full(s.shape + (1, q_dim(2)), np.nan),
                                   ["nan"])
    with pytest.raises(GeometryError, match="not finite"):
        symmetry_residual(nan_valued, q[None], q.frame[None, 0])


def test_vertical_compatibility_refuses_rows_that_are_not_finite():
    pair = RollingPair(Sphere(2, 2.0), Sphere(2, 1.0))
    q = pair.random_state(RNG)
    nan_valued = stencil_candidate(lambda s: np.full(s.shape + (1, q_dim(2)), np.nan),
                                   ["nan"])
    with pytest.raises(GeometryError, match="not finite"):
        vertical_compatibility_residual(nan_valued, q[None], q.frame[None, 0], q.frame[None, 1])


def test_dimension_probe_refuses_rows_that_are_not_finite():
    # a zero Z block passes the base-fixing check; the NaN elsewhere must not
    # reach the SVD
    pair = RollingPair(Sphere(2, 2.0), Sphere(2, 1.0))
    q = pair.random_state(RNG)

    def value(s):
        rows = np.full(s.shape + (1, q_dim(2)), np.nan)
        rows[..., :2] = 0.0
        return rows

    with pytest.raises(GeometryError, match="not finite"):
        sym0_dimension_probe(q, stencil_candidate(value, ["nan"]))


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
    u1 = ambient(q1, cand.value(q1)[0])[1] @ q1.isometry.T
    u2 = ambient(q2, cand.value(q2)[0])[1] @ q2.isometry.T
    assert np.abs(u1 - u2).max() < 1e-9
    assert np.abs(u1 - field.nabla_matrix(x_hat, pair.space_hat.frame(x_hat))[0]).max() < 1e-9


def projected_nabla(field, x, frame):
    """The covariant differentials of a Killing stack by the tangential
    projection of the generator on each frame vector, <E_i, P G E_j>, a
    (..., k, n, n) array: the reference for nabla_matrix's (E W) G E^T."""
    m = field.manifold
    x, frame = x[..., None, None, :], frame[..., None, :, :]
    images = m.project(x, frame @ field.generators.mT)
    return m.inner_at(x[..., None, :], frame[..., :, None, :], images[..., None, :, :])


def killing_factors(n):
    return st.one_of(st.builds(Sphere, st.just(n), st.floats(0.5, 3.0)),
                     st.builds(Hyperbolic, st.just(n), st.floats(0.5, 3.0)),
                     st.just(Euclidean(n)))


KILLING_PAIRS = st.integers(2, 3).flatmap(
    lambda n: st.builds(RollingPair, killing_factors(n), killing_factors(n)))
STACK_SHAPES = st.sampled_from([(), (3,), (2, 3)])


@settings(max_examples=60, deadline=None)
@given(KILLING_PAIRS, st.integers(0, 2**32 - 1), STACK_SHAPES)
def test_killing_rows_are_the_projected_construction(pair, seed, shape):
    # the rows of the whole catalog on a stack of states are (0, coordinates
    # of the projected K_hat, A^T (projected nabla K_hat) A) to round-off,
    # with an exactly zero Z block, and each state's rows are its rows alone
    # bit for bit
    n = pair.dim
    catalog = killing_catalog(pair.space_hat)
    cand = killing_to_symmetry(pair, catalog)
    q = pair.state(*pair.draw(np.random.default_rng(seed), shape))
    rows = cand.value(q)
    assert rows.shape == shape + (len(catalog), q_dim(n))
    assert np.all(rows[..., :n] == 0.0)
    a = q.expand(q.isometry, q.isometry.ndim + 1)
    want = np.concatenate((q.coords_hat(catalog.value(q.x_hat)),  # K_hat, projected
                           skew_to_vector(a.mT @ projected_nabla(catalog, q.x_hat, q.frame_hat)
                                          @ a)), axis=-1)
    assert np.abs(rows[..., n:] - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    for i in np.ndindex(shape):
        alone = pair.state(q.x[i], q.x_hat[i], q.isometry[i])
        assert np.array_equal(rows[i], cand.value(alone))


def nabla_derivative_reference(field, x, frame, v):
    """nabla K against the directions and nabla_v (nabla K) along the frame
    coordinates v (..., m, n), as the separate derivative method computed
    them before nabla_matrix took the directions: from its own product (E;
    x) W G (E; x)^T, shaped with the axis of the directions from the start."""
    ext = np.concatenate((frame, x[..., None, :]), axis=-2)[..., None, None, :, :]
    weighted = ext * field.manifold.metric_weights(x)[..., None, None, None, :]
    p = weighted @ field.generators @ ext.mT
    g, h = p[..., :-1, -1:], p[..., -1:, :-1]
    v = v[..., :, None, :]
    return p[..., :-1, :-1], -field.manifold.curvature_constant * (v[..., :, None] * h
                                                                  + g * v[..., None, :])


@settings(max_examples=60, deadline=None)
@given(KILLING_PAIRS, st.integers(0, 2**32 - 1), STACK_SHAPES, st.booleans())
def test_one_killing_product_gives_nabla_k_and_its_derivative(pair, seed, shape, perturbed):
    # nabla K alone is the nabla K that comes with the derivative, bit for
    # bit, and both are those of the derivative's former product, whether the
    # generators are Killing or perturbed as perturb_candidate perturbs them
    rng = np.random.default_rng(seed)
    field = killing_catalog(pair.space_hat)
    if perturbed:
        m = field.manifold
        noise = 0.1 * skew_part(rng.standard_normal(field.generators.shape))
        field = KillingField(m, field.generators + m.signature[:, None] * noise,
                             field.translations, field.names)
    q = pair.state(*pair.draw(rng, shape))
    v = rng.standard_normal(shape + (2, pair.dim))
    nabla = field.nabla_matrix(q.x_hat, q.frame_hat)
    along, d_nabla = field.nabla_matrix(q.x_hat, q.frame_hat, v)
    assert nabla.shape == shape + (len(field), pair.dim, pair.dim)
    assert np.array_equal(nabla, along)
    want, d_want = nabla_derivative_reference(field, q.x_hat, q.frame_hat, v)
    assert np.array_equal(along[..., None, :, :, :], want) and np.array_equal(d_nabla, d_want)


@settings(max_examples=60, deadline=None)
@given(KILLING_PAIRS, st.integers(0, 2**32 - 1), STACK_SHAPES, st.booleans())
def test_a_killing_lift_derivative_is_the_stencil_of_its_rows(pair, seed, shape, perturbed):
    # the closed-form derivatives of the whole catalog, perturbed or not,
    # along random rows that move both points and turn the contact map equal
    # the order-4 stencil of the candidates' rows
    rng = np.random.default_rng(seed)
    catalog = killing_catalog(pair.space_hat)
    cand = (perturb_candidate(pair, catalog, 0.1, rng) if perturbed
            else killing_to_symmetry(pair, catalog))
    q = pair.state(*pair.draw(rng, shape))
    xi = rng.standard_normal(shape + (2, q_dim(pair.dim)))
    got = cand.derivative(q, xi)
    want = stencil_data_derivative(cand.value, q, xi, FIELD_FD_STEP)
    bound = 1e-9 * max(1.0, float(np.abs(cand.value(q)).max()), float(np.abs(xi).max()))
    for a, b in zip((got.T, got.T_hat, got.U), (want.T, want.T_hat, want.U)):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= bound


# the benchmark's audit pairs, and a warped first factor: the stencil audit
# sat at a floor of 1.7e-9 to 5.1e-9 on all but S2(2)/R2
AUDIT_PAIRS = {
    "S2(2)/S2(1)": lambda: RollingPair(Sphere(2, 2.0), Sphere(2, 1.0)),
    "S2(2)/H2(1)": lambda: RollingPair(Sphere(2, 2.0), Hyperbolic(2, 1.0)),
    "S2(2)/R2": lambda: RollingPair(Sphere(2, 2.0), Euclidean(2)),
    "S3(2)/S3(1)": lambda: RollingPair(Sphere(3, 2.0), Sphere(3, 1.0)),
    "cosh S2(1)/S3(1)": lambda: RollingPair(
        Warped((-1.2, 1.2), WarpFunction("cosh"), Sphere(2, 1.0)), Sphere(3, 1.0)),
}


@pytest.mark.parametrize("label", list(AUDIT_PAIRS))
def test_the_audit_bracket_is_the_fd_oracle_bracket(label):
    pair = AUDIT_PAIRS[label]()
    catalog = killing_catalog(pair.space_hat)
    gens = rolling_generators()
    rng = np.random.default_rng(41)
    for _ in range(20):
        q = pair.random_state(rng)
        for cand in (killing_to_symmetry(pair, catalog),
                     perturb_candidate(pair, catalog, 1e-3, rng)):
            got, want = bracket_structured(cand, gens, q), bracket_fd(cand, gens, q)
            assert np.abs(got - want).max() < 1e-6


def generator_table_residuals(cand, q, X):
    """The residuals of the whole generator table: every candidate bracketed
    with all n rolling generators, then contracted with the coordinates of X
    in the generator frame; and the largest entry of the contracted rows."""
    n = q.pair.dim
    table = bracket_structured(cand, rolling_generators(), q)
    coeffs = (q.anchored @ q.coords(np.asarray(X, float))[..., None])[..., None, None, :, 0]
    rows = (coeffs @ table.reshape(q.shape + (len(cand), n, -1)))[..., 0, :]
    r1 = np.linalg.norm(rows[..., n : 2 * n] - rows[..., :n] @ q.isometry.mT, axis=-1)
    r2 = np.linalg.norm(vector_to_skew(rows[..., 2 * n :], n), axis=(-2, -1))
    return r1, r2, float(np.abs(rows).max())


@pytest.mark.parametrize("label", list(AUDIT_PAIRS))
def test_the_one_lift_residuals_are_those_of_the_generator_table(label):
    # [V, sum_j c_j L_j] = sum_j c_j [V, L_j] for constant c, so bracketing
    # with the one lift of X gives the contracted table up to round-off
    pair = AUDIT_PAIRS[label]()
    catalog = killing_catalog(pair.space_hat)
    rng = np.random.default_rng(42)
    x, x_hat, a = pair.draw(rng, (200,))
    q = pair.state(x, x_hat, a)
    X = pair.space.random_tangent(rng, x, unit=True)
    for cand in (killing_to_symmetry(pair, catalog), perturb_candidate(pair, catalog, 1e-3, rng),
                 perturb_candidate(pair, catalog, 1e-9, rng)):
        *want, largest = generator_table_residuals(cand, q, X)
        for got, ref in zip(symmetry_residual(cand, q, X), want):
            assert got.shape == ref.shape == (200, len(cand))
            assert np.abs(got - ref).max() <= 1e-12 * max(1.0, largest)


@pytest.mark.parametrize("label", list(AUDIT_PAIRS))
def test_catalog_residuals_sit_at_round_off(label):
    # at 200 states the catalog's residuals are round-off of its rows, and
    # the vertical check of a Killing lift, perturbed or not, is exactly 0
    pair = AUDIT_PAIRS[label]()
    catalog = killing_catalog(pair.space_hat)
    rng = np.random.default_rng(17)
    x, x_hat, a = pair.draw(rng, (200,))
    q = pair.state(x, x_hat, a)
    X = pair.space.random_tangent(rng, x, unit=True)
    Y = pair.space.random_tangent(rng, x, unit=True)
    cands = killing_to_symmetry(pair, catalog)
    r1, r2 = symmetry_residual(cands, q, X)
    assert max(r1.max(), r2.max()) <= 1e-12 * np.abs(cands.value(q)).max()
    for cand in (cands, perturb_candidate(pair, catalog, 1e-3, rng)):
        assert np.all(vertical_compatibility_residual(cand, q, X, Y) == 0.0)


# -- vertical compatibility ------------------------------------------------------------


def test_vertical_compatibility_flat_and_matched_cases():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    q = pair.random_state(RNG)
    cand = killing_to_symmetry(pair, killing_catalog(pair.space_hat)[0])
    X = pair.space.random_tangent(RNG, q.x, unit=True)
    Y = pair.space.random_tangent(RNG, q.x, unit=True)
    assert vertical_compatibility_residual(cand, q[None], X[None], Y[None])[0, 0] < 1e-9

    matched = RollingPair(Sphere(2, 1.0), Sphere(2, 1.0))
    qm = matched.random_state(RNG)
    cand_m = killing_to_symmetry(matched, killing_catalog(matched.space_hat)[0])
    assert vertical_compatibility_residual(cand_m, qm[None], X[None], Y[None])[0, 0] == 0.0


def test_vertical_compatibility_on_distinct_spheres():
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    q = pair.random_state(RNG)
    for field in killing_catalog(pair.space_hat):
        cand = killing_to_symmetry(pair, field)
        X = pair.space.random_tangent(RNG, q.x, unit=True)
        Y = pair.space.random_tangent(RNG, q.x, unit=True)
        assert vertical_compatibility_residual(cand, q[None], X[None], Y[None])[0, 0] < 1e-6


def test_vertical_compatibility_detects_base_dependence():
    # a candidate whose drift depends on the contact map fails the check
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    q = pair.random_state(RNG)

    def contact_map_drift(s):  # the Z_hat block e_0 A^T: the image of frame vector 0
        rows = np.zeros(s.shape + (1, q_dim(2)))
        rows[..., 0, 2:4] = s.isometry.mT[..., 0, :]
        return rows

    cand = stencil_candidate(contact_map_drift, ["contact-map drift"])
    X = pair.space.random_tangent(RNG, q.x, unit=True)
    Y = pair.space.random_tangent(RNG, q.x, unit=True)
    assert vertical_compatibility_residual(cand, q[None], X[None], Y[None])[0, 0] > 1e-4


def test_an_audit_takes_no_stencil(monkeypatch, tmp_path):
    # both checks read bracket_structured and the candidates' closed-form
    # derivatives, so an audit builds no canonical curve, catalog or
    # perturbed.  The frames come in stacks: one frame call per factor for
    # the sample states, whatever the sample count, and the dimension probe
    # reads the first sample's frames
    import json

    import rollsym.brackets as brackets_mod
    import rollsym.rolling as rolling_mod
    from rollsym.cli import main
    from rollsym.spaces import SpaceForm
    from test_brackets import patch_everywhere

    def forbidden(*args, **kwargs):
        raise AssertionError("the audit took a stencil")

    for fn in (rolling_mod.directional_derivative, brackets_mod.stencil_data_derivative,
               rolling_mod.tangent_curve):
        patch_everywhere(monkeypatch, fn, forbidden)
    frames = []
    stacked = SpaceForm.frame
    monkeypatch.setattr(SpaceForm, "frame",
                        lambda m, *a, **k: frames.append(m.radius) or stacked(m, *a, **k))
    config = tmp_path / "pair.json"
    config.write_text(json.dumps({"manifold_pair": [Sphere(3, 2.0).to_spec(),
                                                    Sphere(3, 1.0).to_spec()]}))
    for samples in (1, 20):
        for candidate, code in (({"kind": "catalog"}, 0),
                                ({"kind": "catalog", "perturb": 1e-3}, 1)):
            frames.clear()
            assert main(["--config", str(config), "symmetry-check", "--seed", "5",
                         "--candidate", json.dumps(candidate), "--samples", str(samples),
                         "--out", str(tmp_path / "audit.json")]) == code
            assert sorted(frames) == [1.0, 2.0]  # the radii of the two factors


def test_a_fiber_curve_keeps_the_base_point_and_frames(monkeypatch):
    from rollsym.spaces import SpaceForm

    pair = RollingPair(Sphere(3, 2.0), Hyperbolic(3, 1.0))
    rng = np.random.default_rng(7)
    q = pair.random_state(rng)
    c = wedge_matrix(rng.standard_normal(3), rng.standard_normal(3))
    frame, frame_hat = q.frame, q.frame_hat
    # the curve takes its frames from q's and builds none
    monkeypatch.setattr(SpaceForm, "frame", lambda *a, **k: pytest.fail("frames rebuilt"))
    qt = tangent_curve(q, np.concatenate((np.zeros(6), skew_to_vector(c))), 0.3)
    assert np.array_equal(qt.x, q.x) and np.array_equal(qt.x_hat, q.x_hat)
    assert np.array_equal(qt.frame, frame) and np.array_equal(qt.frame_hat, frame_hat)
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
    qt = tangent_curve(q, rolling_lift(q, X), 0.2)
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
    # residuals of its field alone; a perturbed stack draws one ambient noise
    # matrix per field in catalog order, so field i alone skips i draws
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
            noise_rng.standard_normal((skip,) + (pair.space_hat.amb_dim,) * 2)
            cand = perturb_candidate(pair, fields, 1e-3, noise_rng)
        return np.array([*symmetry_residual(cand, q[None], X[None]),
                         vertical_compatibility_residual(cand, q[None], X[None], Y[None])])[:, 0]

    stacked = residuals(catalog, 0)
    assert stacked.shape == (3, len(catalog))
    for i in range(len(catalog)):
        assert np.abs(stacked[:, i] - residuals(catalog[i], i)[:, 0]).max() < 1e-11


# -- inner symmetries -------------------------------------------------------------------


def inner_candidate(pair, Z, name):
    """The inner symmetry candidate of a stack closure Z: (Z, A Z, 0), its
    rolling lift."""
    return stencil_candidate(lambda s: rolling_lift(s, Z(s)), [name])


def test_inner_kind_candidate_passes_general_residuals():
    # the full residual checker accepts a genuine inner symmetry: the
    # radial field of the cosine warp rolling on the matching sphere
    warped = Warped((-1.2, 1.2), WarpFunction("cos"), Sphere(1, 1.0))
    pair = RollingPair(warped, Sphere(2, 1.0))
    cand = inner_candidate(pair, lambda s: np.broadcast_to([1.0, 0.0, 0.0], s.shape + (1, 3)),
                           "radial")
    rng = np.random.default_rng(88)
    for _ in range(5):
        q = pair.random_state(rng)
        X = pair.space.random_tangent(rng, q.x, unit=True)
        r1, r2 = symmetry_residual(cand, q[None], X[None])
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
        assert inner_symmetry_residual(xi.value(q.x)[0], q) < 1e-12
    cand = inner_candidate(pair, lambda s: xi.value(s.x), "contact lift")
    q = pair.random_state(rng)
    X = pair.space.random_tangent(rng, q.x, unit=True)
    r1, r2 = symmetry_residual(cand, q[None], X[None])
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
    row0 = np.concatenate((np.zeros(2), q1.coords_hat(z0), skew_to_vector(q1.isometry.T @ u0)))
    res = propagate_sym0(q1, X, row0, grid)
    d0 = u0 @ q1.coords(X) @ q1.frame_hat
    data = [ambient(q, row) for q, row in zip(res.states, res.rows)]
    for t, (z, _) in zip(grid, data):
        assert np.allclose(z, z0 + t * d0, atol=1e-9)
    # vertical data stays constant in parallel frames on a flat target
    for t, (_, u) in zip(grid, data):
        p = det_transport_matrix(pair.space, q1.x[None], q1.frame[None], X[None],
                                 np.array([t]))[1][0]
        assert np.abs(u - u0 @ p.T).max() < 1e-9


def test_propagation_sphere_jacobi_closed_form():
    pair = RollingPair(Euclidean(2), Sphere(2, 1.0))
    q1 = pair.random_state(RNG)
    X = pair.space.random_tangent(RNG, q1.x, unit=True)
    v_hat = q1.apply(X)
    e = pair.space_hat.random_tangent(RNG, q1.x_hat)
    e = e - pair.space_hat.inner_at(q1.x_hat, e, v_hat) * v_hat
    e /= math.sqrt(pair.space_hat.inner_at(q1.x_hat, e, e))
    c0 = skew_part(q1.isometry.T @ np.outer(q1.coords_hat(e), q1.coords(X)))
    u0 = q1.isometry @ c0
    grid = np.linspace(0.0, 2.0, 81)
    res = propagate_sym0(q1, X, np.concatenate((np.zeros(4), skew_to_vector(c0))), grid)
    z_hats = [ambient(q, row)[0] for q, row in zip(res.states, res.rows)]
    d0 = u0 @ q1.coords(X) @ q1.frame_hat

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

    for t, z in zip(grid, z_hats):
        et = pair.space_hat.transport_along_geodesic(q1.x_hat, v_hat, t, d0)[1]
        assert np.abs(z - math.sin(t) * et).max() < 1e-7

    oracle = brute_jacobi(grid)
    for z, zo in zip(z_hats[::20], oracle[::20]):
        assert np.abs(z - zo).max() < 1e-4


def test_propagation_round_trip():
    pair = RollingPair(Sphere(2, 3.0), Sphere(2, 1.0))
    q1 = pair.random_state(RNG)
    field = killing_catalog(pair.space_hat)[1]
    cand = killing_to_symmetry(pair, field)
    X = pair.space.random_tangent(RNG, q1.x, unit=True)
    grid = np.linspace(0.0, 1.1, 45)
    res = propagate_sym0(q1, X, cand.value(q1)[0], grid)
    q_end, row_end = res.final()
    v_hat = pair.space_hat.geodesic_flow(q1.x_hat, q1.apply(X), 1.1)[1]
    back_dir = -(q_end.isometry.T @ q_end.coords_hat(v_hat)) @ q_end.frame
    res_back = propagate_sym0(q_end, back_dir, row_end, grid)
    z0, u0 = ambient(*res_back.final())
    z_ref, u_ref = ambient(q1, cand.value(q1)[0])
    assert np.abs(z0 - z_ref).max() < 1e-5
    assert np.abs(u0 - u_ref).max() < 1e-5


def test_propagation_matches_killing_construction():
    for mh in (Sphere(2, 1.0), Euclidean(2)):
        pair = RollingPair(Sphere(2, 3.0), mh)
        q1 = pair.random_state(RNG)
        field = killing_catalog(mh)[-1]
        cand = killing_to_symmetry(pair, field)
        q_cur, row = q1, cand.value(q1)[0]
        rng = np.random.default_rng(12)
        for _ in range(3):
            direction = pair.space.random_tangent(rng, q_cur.x, unit=True)
            q_cur, row = propagate_sym0(q_cur, direction, row, [0.0, 0.8]).final()
        (z_cur, u_cur), (z_ref, u_ref) = (ambient(q_cur, r) for r in (row, cand.value(q_cur)[0]))
        assert np.abs(z_cur - z_ref).max() < 1e-5
        assert np.abs(u_cur - u_ref).max() < 1e-5


def test_propagation_grid_refinement_stability():
    # the grid only sets the output times: each row is one exponential of
    # the constant generator, so halving the grid moves the endpoint data by
    # round-off only, far below the acceptance tolerance
    pair = RollingPair(Sphere(2, 3.0), Sphere(2, 1.0))
    rng = np.random.default_rng(19)
    q1 = pair.random_state(rng)
    field = killing_catalog(pair.space_hat)[0]
    cand = killing_to_symmetry(pair, field)
    X = pair.space.random_tangent(rng, q1.x, unit=True)
    coarse = ambient(*propagate_sym0(q1, X, cand.value(q1)[0], np.linspace(0.0, 1.0, 49)).final())
    fine = ambient(*propagate_sym0(q1, X, cand.value(q1)[0], np.linspace(0.0, 1.0, 97)).final())
    assert np.abs(coarse[0] - fine[0]).max() < 1e-8
    assert np.abs(coarse[1] - fine[1]).max() < 1e-8


def propagation_factors(n):
    return st.one_of(st.builds(Sphere, st.just(n), st.floats(1.0, 3.0)),
                     st.builds(Hyperbolic, st.just(n), st.floats(1.0, 2.0)), st.just(Euclidean(n)))


PROPAGATION_PAIRS = st.integers(2, 3).flatmap(
    lambda n: st.builds(RollingPair, propagation_factors(n), propagation_factors(n)))


@settings(max_examples=60, deadline=None)
@given(PROPAGATION_PAIRS, st.data(), st.lists(st.floats(0.1, 1.0), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
def test_propagation_lands_on_the_killing_construction(pair, data, lengths, seed):
    # the data of a Killing-induced candidate at one state, propagated along
    # a broken geodesic, is the candidate's data at the end state
    rng = np.random.default_rng(seed)
    catalog = killing_catalog(pair.space_hat)
    cand = killing_to_symmetry(pair, catalog[data.draw(st.integers(0, len(catalog) - 1))])
    q = pair.random_state(rng)
    row = cand.value(q)[0]
    for length in lengths:
        direction = pair.space.random_tangent(rng, q.x, unit=True)
        q, row = propagate_sym0(q, direction, row, [0.0, length]).final()
    (z, u), (z_ref, u_ref) = ambient(q, row), ambient(q, cand.value(q)[0])
    scale = max(1.0, float(np.abs(z_ref).max()), float(np.abs(u_ref).max()))
    assert max(np.abs(z - z_ref).max(), np.abs(u - u_ref).max()) <= 1e-11 * scale


def test_propagation_one_point_grid_returns_the_start():
    pair = RollingPair(Sphere(2, 3.0), Sphere(2, 1.0))
    q1 = pair.random_state(RNG)
    cand = killing_to_symmetry(pair, killing_catalog(pair.space_hat)[1])
    row0 = cand.value(q1)[0]
    z0, u0 = ambient(q1, row0)
    res = propagate_sym0(q1, pair.space.random_tangent(RNG, q1.x, unit=True), row0, [0.0])
    assert len(res.states) == len(res.rows) == 1
    z, u = ambient(res.states[0], res.rows[0])
    assert np.abs(z - z0).max() < 1e-14
    assert np.abs(u - u0).max() < 1e-14


def test_propagation_without_motion_keeps_the_data():
    pair = RollingPair(Sphere(3, 2.0), Hyperbolic(3, 1.0))
    q1 = pair.random_state(RNG)
    cand = killing_to_symmetry(pair, killing_catalog(pair.space_hat)[2])
    row0 = cand.value(q1)[0]
    z0, u0 = ambient(q1, row0)
    res = propagate_sym0(q1, np.zeros(4), row0, np.linspace(0.0, 0.7, 8))
    scale = max(1.0, float(np.abs(z0).max()), float(np.abs(u0).max()))
    for z, u in (ambient(q, row) for q, row in zip(res.states, res.rows)):
        assert np.abs(z - z0).max() <= 1e-13 * scale
        assert np.abs(u - u0).max() <= 1e-13 * scale


def test_propagation_grid_validation():
    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    q = pair.random_state(RNG)
    with pytest.raises(GeometryError):
        propagate_sym0(q, q.frame[0], np.zeros(q_dim(2)), [0.5, 1.0])
    # propagation carries base-fixing data only: a nonzero Z block is refused
    with pytest.raises(GeometryError, match="base-fixing"):
        propagate_sym0(q, q.frame[0], np.eye(q_dim(2))[0], [0.0, 1.0])
    # the Jacobi generator is constant on a space form only: a warped second
    # factor is refused, as by killing_catalog
    warped = RollingPair(Sphere(2, 1.0), Warped((-1.2, 1.2), WarpFunction("cosh"), Sphere(1, 1.0)))
    q = warped.random_state(RNG)
    with pytest.raises(MismatchError):
        propagate_sym0(q, q.frame[0], np.zeros(q_dim(2)), [0.0, 1.0])


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
    moving = stencil_candidate(lambda s: np.broadcast_to(np.eye(q_dim(2))[:1],
                                                              s.shape + (1, q_dim(2))),
                               ["moving base"])
    with pytest.raises(GeometryError, match="base-fixing"):
        sym0_dimension_probe(q0, moving)
