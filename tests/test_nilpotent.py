from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rollsym import GeometryError, Sphere, Euclidean, nilpotent
from rollsym.curvature import so_dim
from rollsym.nilpotent import (
    GradedVector,
    basis,
    flatness_obstruction,
    graded_dims,
    growth_vector,
    nil_bracket,
    structure_tensor,
    verify_structure,
    vertical_action_consistency,
)
from rollsym.rolling import RollingPair

RNG = np.random.default_rng(55)


def rational_vector(rng, n):
    def rat():
        return Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))

    from rollsym.curvature import so_dim

    return GradedVector.from_layers(
        [rat() for _ in range(n)], [rat() for _ in range(so_dim(n))], [rat() for _ in range(n)]
    )


def test_generator_bracket_lands_in_layer_two():
    n = 3
    n1 = GradedVector.layer1(n, 0)
    n2 = GradedVector.layer1(n, 1)
    br = nil_bracket(n1, n2)
    assert br.a == (0, 0, 0) and br.c == (0, 0, 0)
    assert br.b == (1, 0, 0)  # e0 ^ e1 in lexicographic order


def test_disjoint_triple_vanishes():
    n = 3
    out = nil_bracket(
        GradedVector.layer1(n, 0),
        nil_bracket(GradedVector.layer1(n, 1), GradedVector.layer1(n, 2)),
    )
    assert out.is_zero()


def test_triple_identity_sign():
    # [N_j, [N_i, N_j]] = -Z_i for i != j, per the generator identity
    n = 3
    got = nil_bracket(
        GradedVector.layer1(n, 1),
        nil_bracket(GradedVector.layer1(n, 0), GradedVector.layer1(n, 1)),
    )
    assert (got + GradedVector.layer3(n, 0)).is_zero()
    # and the reversed nesting produces +Z_i
    rev = nil_bracket(
        nil_bracket(GradedVector.layer1(n, 0), GradedVector.layer1(n, 1)),
        GradedVector.layer1(n, 1),
    )
    assert (rev - GradedVector.layer3(n, 0)).is_zero()


def test_tail_layer_is_central():
    n = 3
    z = GradedVector.layer3(n, 0)
    for b in basis(n):
        assert nil_bracket(z, b).is_zero()


def test_bracket_is_exact_antisymmetric_bilinear_on_rationals():
    n = 4
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = rational_vector(rng, n)
        v = rational_vector(rng, n)
        w = rational_vector(rng, n)
        assert (nil_bracket(u, v) + nil_bracket(v, u)).is_zero()
        lin = nil_bracket(u + w.scale(Fraction(2, 3)), v)
        split = nil_bracket(u, v) + nil_bracket(w, v).scale(Fraction(2, 3))
        assert (lin - split).is_zero()
        assert all(isinstance(c, (int, Fraction)) for c in nil_bracket(u, v).c)


def test_jacobi_exact_on_random_rationals():
    n = 3
    rng = np.random.default_rng(8)
    for _ in range(10):
        u, v, w = (rational_vector(rng, n) for _ in range(3))
        s = (
            nil_bracket(u, nil_bracket(v, w))
            + nil_bracket(v, nil_bracket(w, u))
            + nil_bracket(w, nil_bracket(u, v))
        )
        assert s.is_zero()


def test_dimension_mismatch_raises():
    with pytest.raises(GeometryError):
        nil_bracket(GradedVector.layer1(2, 0), GradedVector.layer1(3, 0))


def test_verify_structure_all_sizes():
    for n in (2, 3, 4, 5, 6, 7):
        report = verify_structure(n)
        assert report["ok"]
        assert report["triple_identity_failures"] == 0
        assert report["jacobi_failures"] == 0
        assert report["step3_failures"] == 0


def test_verify_structure_rejects_one_flipped_coefficient(monkeypatch):
    n = 3
    n0, n1 = GradedVector.layer1(n, 0), GradedVector.layer1(n, 1)

    def flipped(u, v):
        br = nil_bracket(u, v)
        if (u, v) == (n0, n1):  # [N0, N1] = -B01 instead of B01
            return br.scale(-1)
        return br

    monkeypatch.setattr(nilpotent, "nil_bracket", flipped)
    report = verify_structure(n)
    assert report["ok"] is False
    failures = (report["triple_identity_failures"] + report["jacobi_failures"]
                + report["step3_failures"])
    assert failures > 0


N3 = [GradedVector.layer1(3, i) for i in range(3)]
Z3 = [GradedVector.layer3(3, i) for i in range(3)]


@pytest.mark.parametrize("u0, v0, extra, failing", [
    # [N0, N1] = B01 + Z2 still satisfies Jacobi and step-3 nilpotency;
    # only the grading certificate (degree 1 + 1 -> 3) fails
    (N3[0], N3[1], Z3[2], None),
    # [N0, Z0] = B01 leaves four-fold brackets that do not vanish
    (N3[0], Z3[0], GradedVector.layer2(3, 0, 1), "step3_failures"),
])
def test_verify_structure_rejects_an_ungraded_bracket(monkeypatch, u0, v0, extra, failing):
    def mutant(u, v):
        br = nil_bracket(u, v)
        if (u, v) == (u0, v0):
            return br + extra
        if (u, v) == (v0, u0):
            return br - extra
        return br

    monkeypatch.setattr(nilpotent, "nil_bracket", mutant)
    report = verify_structure(3)
    assert report["ok"] is False
    if failing:
        assert report[failing] > 0
    else:
        assert report["jacobi_failures"] == 0 and report["step3_failures"] == 0


def test_structure_tensor_rejects_non_integer_constants(monkeypatch):
    monkeypatch.setattr(nilpotent, "nil_bracket", lambda u, v: nil_bracket(u, v).scale(Fraction(1, 2)))
    with pytest.raises(GeometryError, match="integers"):
        structure_tensor(3)


def test_structure_tensor_is_antisymmetric_with_unit_entries():
    n = 4
    c = structure_tensor(n)
    d = 2 * n + so_dim(n)
    assert c.shape == (d, d, d) and c.dtype == np.int64
    assert set(np.unique(c)) == {-1, 0, 1}
    assert (c == -c.transpose(1, 0, 2)).all()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_structure_tensor_contraction_equals_nil_bracket(data):
    n = data.draw(st.integers(2, 5))
    m = so_dim(n)
    coords = st.lists(st.integers(-50, 50), min_size=2 * n + m, max_size=2 * n + m)
    u, v = data.draw(coords), data.draw(coords)

    def vec(x):
        return GradedVector.from_layers(x[:n], x[n:n + m], x[n + m:])

    br = nil_bracket(vec(u), vec(v))
    got = np.einsum("i,j,ijk->k", u, v, structure_tensor(n))
    assert got.tolist() == list(br.a + br.b + br.c)


def test_graded_dims_and_growth():
    assert graded_dims(2) == (2, 1, 2)
    assert growth_vector(2) == (2, 3, 5)
    assert graded_dims(3) == (3, 3, 3)
    assert growth_vector(3) == (3, 6, 9)
    assert graded_dims(4) == (4, 6, 4)
    assert growth_vector(4) == (4, 10, 14)
    with pytest.raises(GeometryError):
        graded_dims(1)


def test_growth_matches_numerical_flag():
    from rollsym.brackets import flag_ranks

    for pair, n in (
        (RollingPair(Sphere(2, 1.0), Sphere(2, 3.0)), 2),
        (RollingPair(Sphere(3, 1.0), Euclidean(3)), 3),
    ):
        q = pair.random_state(RNG)
        assert tuple(flag_ranks(q, depth=3).ranks) == growth_vector(n)


# -- obstruction arithmetic ---------------------------------------------------------


def test_obstruction_exact_value_for_the_one_third_pair():
    rep = flatness_obstruction(1, Fraction(1, 9), 1, n=3)
    assert rep.obstruction_M == Fraction(81, 64)
    assert rep.verdict == "not_flat"
    assert rep.kappa == Fraction(-8, 9)


def test_obstruction_mirrored_argument():
    rep = flatness_obstruction(0, 1, 1, n=3)
    assert rep.obstruction_M == 0
    assert rep.obstruction_M_hat == 1
    assert rep.verdict == "not_flat"


def test_obstruction_preconditions():
    with pytest.raises(GeometryError):
        flatness_obstruction(1, 1, 1)
    with pytest.raises(GeometryError):
        flatness_obstruction(1, 2, 0)
    with pytest.raises(GeometryError):
        flatness_obstruction(1, 2, 1, n=1)


def test_obstruction_dimension_two_is_inconclusive():
    rep = flatness_obstruction(1, Fraction(1, 9), 1, n=2)
    assert rep.verdict == "inconclusive"


def test_obstruction_role_swap_symmetry():
    rng = np.random.default_rng(9)
    for _ in range(20):
        k = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
        kh = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
        if k == kh:
            continue
        a = flatness_obstruction(k, kh, Fraction(3, 2), n=4)
        b = flatness_obstruction(kh, k, Fraction(3, 2), n=4)
        assert a.verdict == b.verdict
        assert a.obstruction_M == b.obstruction_M_hat
        assert a.kappa == -b.kappa


def test_obstruction_always_fires_for_admissible_pairs():
    rng = np.random.default_rng(10)
    for _ in range(50):
        k = float(rng.uniform(-3, 3))
        kh = float(rng.uniform(-3, 3))
        if k == kh:
            continue
        rep = flatness_obstruction(k, kh, float(rng.uniform(0.1, 2.0)), n=3)
        assert rep.verdict == "not_flat"


def test_obstruction_json_serializes_rationals():
    rep = flatness_obstruction(1, Fraction(1, 9), 1, n=3)
    data = rep.to_json()
    assert data["obstruction_M"] == {"num": 81, "den": 64, "value": 1.265625}


# -- vertical action consistency --------------------------------------------------------


def test_vertical_action_consistency_is_tight():
    pair = RollingPair(Sphere(3, 1.0), Sphere(3, 3.0))
    q = pair.random_state(RNG)
    assert vertical_action_consistency(q, beta=1.0) < 1e-6
    assert vertical_action_consistency(q, beta=2.7) < 1e-6


def test_vertical_action_consistency_preconditions():
    matched = RollingPair(Sphere(2, 1.0), Sphere(2, 1.0))
    q = matched.random_state(RNG)
    with pytest.raises(GeometryError):
        vertical_action_consistency(q)
    pair = RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))
    q2 = pair.random_state(RNG)
    with pytest.raises(GeometryError):
        vertical_action_consistency(q2, beta=-1.0)
