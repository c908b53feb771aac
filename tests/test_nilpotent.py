import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rollsym import GeometryError, Sphere, Euclidean, nilpotent
from rollsym.cli import NILPOTENT_MAX_N, _plain
from rollsym.curvature import so_dim
from rollsym.nilpotent import (
    GradedVector,
    _exact_rank,
    basis,
    flatness_obstruction,
    graded_dims,
    growth_vector,
    nil_bracket,
    structure_tensor,
    verify_structure,
)
from rollsym.rolling import RollingPair

RNG = np.random.default_rng(55)


def layers(n):
    """The basis of the graded algebra split into its three layers N, B, Z."""
    bas, m = basis(n), so_dim(n)
    return bas[:n], bas[n:n + m], bas[n + m:]


N3, B3, Z3 = layers(3)


def graded_vectors(n, count):
    """count stacks of k integer graded vectors of dimension n, k <= 3."""
    d = 2 * n + so_dim(n)
    return st.integers(1, 3).flatmap(lambda k: st.tuples(
        *[arrays(np.int64, (k, d), elements=st.integers(-50, 50))] * count))


def test_generator_bracket_lands_in_layer_two():
    br = nil_bracket(N3[0], N3[1])
    assert br.a.tolist() == [0, 0, 0] and br.c.tolist() == [0, 0, 0]
    assert br.b.tolist() == [1, 0, 0]  # e0 ^ e1 in lexicographic order
    assert br.coords.dtype == np.int64


def test_disjoint_triple_vanishes():
    assert nil_bracket(N3[0], nil_bracket(N3[1], N3[2])).is_zero()


def test_triple_identity_sign():
    # [N_j, [N_i, N_j]] = -Z_i for i != j, per the generator identity
    got = nil_bracket(N3[1], nil_bracket(N3[0], N3[1]))
    assert np.array_equal(got.coords, -Z3[0].coords)
    # and the reversed nesting produces +Z_i
    rev = nil_bracket(nil_bracket(N3[0], N3[1]), N3[1])
    assert np.array_equal(rev.coords, Z3[0].coords)


def test_tail_layer_is_central():
    assert nil_bracket(Z3[0], basis(3)).is_zero()


def test_stacks_bracket_like_their_rows():
    # one broadcast call over two stacks equals the bracket of every pair of rows
    n = 4
    rng = np.random.default_rng(3)
    u = GradedVector(rng.integers(-9, 10, (3, 1, 2 * n + so_dim(n))))
    v = GradedVector(rng.integers(-9, 10, (1, 4, 2 * n + so_dim(n))))
    table = nil_bracket(u, v)
    assert table.coords.shape == (3, 4, 2 * n + so_dim(n))
    for i in range(3):
        for j in range(4):
            assert np.array_equal(table[i, j].coords, nil_bracket(u[i, 0], v[0, j]).coords)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: graded_vectors(n, 3)), st.integers(-9, 9))
def test_bracket_is_exact_antisymmetric_bilinear_on_integers(vectors, s):
    u, v, w = (GradedVector(x) for x in vectors)
    assert (nil_bracket(u, v).coords + nil_bracket(v, u).coords == 0).all()
    lin = nil_bracket(GradedVector(u.coords + s * w.coords), v).coords
    split = nil_bracket(u, v).coords + s * nil_bracket(w, v).coords
    assert np.array_equal(lin, split)
    assert nil_bracket(u, v).coords.dtype == np.int64


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: graded_vectors(n, 3)))
def test_jacobi_exact_on_random_integers(vectors):
    u, v, w = (GradedVector(x) for x in vectors)
    s = (nil_bracket(u, nil_bracket(v, w)).coords
         + nil_bracket(v, nil_bracket(w, u)).coords
         + nil_bracket(w, nil_bracket(u, v)).coords)
    assert not s.any()


def test_dimension_mismatch_raises():
    with pytest.raises(GeometryError):
        nil_bracket(basis(2)[0], basis(3)[0])
    with pytest.raises(GeometryError, match="graded vector"):
        GradedVector(np.zeros(6, dtype=np.int64))  # no n has 2n + n(n-1)/2 = 6


def dense_verification(n, c):
    """The structure checks by dense float64 contraction, one basis element x
    at a time: the reference for verify_structure's sparse integer joins,
    with the layer ranks from Fraction elimination."""
    d, m = c.shape[0], so_dim(n)
    deg = np.repeat([1, 2, 3], [n, m, n])
    grading_ok = not c[deg[:, None, None] + deg[None, :, None] != deg[None, None, :]].any()

    jacobi_failures = 0
    gens = np.empty((n, n, n, d))  # gens[i, j, k] = [N_i, [N_j, N_k]]
    triples = set()
    cf = c.astype(np.float64)
    pairs = cf.reshape(d * d, d)  # pairs[(y, z), l] = c[y, z, l]
    inner = cf.transpose(1, 0, 2).reshape(d, d * d)  # inner[l, (w, m)] = c[w, l, m]
    for x in range(d):
        # [x,[y,z]], then [y,[z,x]] and [z,[x,y]] added, all indexed [y, z, :]
        xyz = pairs @ cf[x]
        triples.update(map(tuple, xyz[xyz.any(axis=1)].tolist()))
        jac = xyz.reshape(d, d, d)
        if x < n:
            gens[x] = jac[:n, :n]
        jac += (cf[:, x] @ inner).reshape(d, d, d).transpose(1, 0, 2)
        jac += (cf[x] @ inner).reshape(d, d, d)
        jacobi_failures += int(jac.any(axis=2).sum())

    # [N_i, [N_j, N_k]] = -delta_ik Z_j + delta_ij Z_k
    i, j = np.ogrid[:n, :n]
    want = np.zeros_like(gens)
    want[i, j, i, n + m + j] -= 1
    want[i, i, j, n + m + j] += 1
    triple_failures = int((gens != want).any(axis=3).sum())

    triples = np.array(list(triples)).reshape(-1, d)
    step3_failures = sum(int((triples @ cf[x]).any(axis=1).sum()) for x in range(d))

    layer2_rank = fraction_rank(c[:n, :n, n:n + m].reshape(n * n, m).tolist())
    layer3_rank = fraction_rank(gens[..., n + m:].reshape(n**3, n).astype(np.int64).tolist())
    dims_ok = (layer2_rank, layer3_rank) == (m, n)
    return {
        "dims": (n, layer2_rank, layer3_rank),
        "triple_identity_failures": triple_failures,
        "jacobi_failures": jacobi_failures,
        "step3_failures": step3_failures,
        "dims_ok": dims_ok,
        "ok": triple_failures == jacobi_failures == step3_failures == 0 and dims_ok
        and grading_ok,
    }


def assert_matches_dense(n, c, report):
    want = dense_verification(n, c)
    assert {key: report[key] for key in want} == want


def test_verify_structure_all_sizes():
    for n in range(2, NILPOTENT_MAX_N + 1):
        report = verify_structure(n)
        assert report["ok"]
        assert report["dims"] == (n, so_dim(n), n)
        assert report["triple_identity_failures"] == 0
        assert report["jacobi_failures"] == 0
        assert report["step3_failures"] == 0


def test_verify_structure_rejects_one_flipped_coefficient():
    c = structure_tensor(3)
    assert c[0, 1, 3] == 1
    c[0, 1, 3] = -1  # [N0, N1] = -B01 instead of B01, [N1, N0] left alone
    report = verify_structure(3, c)
    assert_matches_dense(3, c, report)
    assert report["ok"] is False
    failures = (report["triple_identity_failures"] + report["jacobi_failures"]
                + report["step3_failures"])
    assert failures > 0


@pytest.mark.parametrize("u0, v0, extra, failing", [
    # [N0, N1] = B01 + Z2 still satisfies Jacobi and step-3 nilpotency;
    # only the grading certificate (degree 1 + 1 -> 3) fails
    (N3[0], N3[1], Z3[2], None),
    # [N0, Z0] = B01 leaves four-fold brackets that do not vanish
    (N3[0], Z3[0], B3[0], "step3_failures"),
])
def test_verify_structure_rejects_an_ungraded_bracket(u0, v0, extra, failing):
    # the structure tensor with extra added to [u0, v0] (and taken from
    # [v0, u0], keeping it antisymmetric)
    c = structure_tensor(3)
    i, j = u0.coords.argmax(), v0.coords.argmax()
    c[i, j] += extra.coords
    c[j, i] -= extra.coords
    report = verify_structure(3, c)
    assert_matches_dense(3, c, report)
    assert report["ok"] is False
    if failing:
        assert report[failing] > 0
    else:
        assert report["jacobi_failures"] == 0 and report["step3_failures"] == 0


@st.composite
def doctored_tensors(draw):
    """(n, c): the structure tensor for n = 2..4 with 1-5 integer edits, each
    with or without its antisymmetric partner."""
    n = draw(st.integers(2, 4))
    c = structure_tensor(n)
    index = st.integers(0, len(c) - 1)
    for _ in range(draw(st.integers(1, 5))):
        i, j, k = draw(index), draw(index), draw(index)
        value = draw(st.integers(-3, 3).filter(bool))
        c[i, j, k] += value
        if draw(st.booleans()):
            c[j, i, k] -= value
    return n, c


@settings(max_examples=150, deadline=None)
@given(doctored_tensors())
def test_verify_structure_counts_equal_the_dense_reference(doctored):
    n, c = doctored
    assert_matches_dense(n, c, verify_structure(n, c))


def test_structure_tensor_rejects_non_integer_constants(monkeypatch):
    monkeypatch.setattr(nilpotent, "nil_bracket",
                        lambda u, v: GradedVector(nil_bracket(u, v).coords / 2))
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
    br = nil_bracket(GradedVector(np.array(u)), GradedVector(np.array(v)))
    got = np.einsum("i,j,ijk->k", u, v, structure_tensor(n))
    assert got.tolist() == br.coords.tolist()


def fraction_rank(rows):
    """Rank over the rationals by Gaussian elimination in Fractions: the
    reference for the fraction-free elimination of _exact_rank."""
    mat = [[Fraction(x) for x in row] for row in rows if any(x != 0 for x in row)]
    rank = 0
    col = 0
    width = len(mat[0]) if mat else 0
    while rank < len(mat) and col < width:
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        lead = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            if mat[r][col] != 0:
                factor = mat[r][col] / lead
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


@st.composite
def integer_matrices(draw):
    """Integer matrices, often rank-deficient: a product of two random
    factors of inner size k, with some rows copied or zeroed."""
    rows, cols, k = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(0, 8))
    entries = st.integers(-40, 40)
    mat = draw(arrays(np.int64, (rows, k), elements=entries)) @ draw(
        arrays(np.int64, (k, cols), elements=entries))
    if draw(st.booleans()):
        mat = draw(arrays(np.int64, (rows, cols), elements=st.integers(-10**6, 10**6)))
    for r in draw(st.lists(st.integers(0, rows - 1), max_size=3)):
        mat[r] = 0 if draw(st.booleans()) else mat[draw(st.integers(0, rows - 1))]
    return mat


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_exact_rank_equals_fraction_elimination(mat):
    assert _exact_rank(mat) == fraction_rank(mat.tolist())


@settings(max_examples=100, deadline=None)
@given(integer_matrices(), st.data())
def test_exact_rank_ignores_repeated_and_negated_rows(mat, data):
    picks = data.draw(st.lists(st.integers(0, len(mat) - 1), min_size=1, max_size=6))
    signs = np.array(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=len(picks),
                                        max_size=len(picks))))
    stacked = np.concatenate([mat, signs[:, None] * mat[picks]])
    assert _exact_rank(stacked) == fraction_rank(stacked.tolist()) == fraction_rank(mat.tolist())


def test_exact_rank_of_zero_and_deficient_matrices():
    assert _exact_rank(np.zeros((4, 3), dtype=np.int64)) == 0
    a = np.arange(12).reshape(4, 3)  # rows in arithmetic progression: rank 2
    assert _exact_rank(a) == 2
    # entries whose minors overflow int64 stay exact on Python integers
    big = np.array([[2**40, 1], [2**40 + 1, 1], [3, 2**41]], dtype=np.int64)
    assert _exact_rank(big) == fraction_rank(big.tolist()) == 2


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
        beta = float(rng.uniform(0.1, 2.0))
        rep = flatness_obstruction(k, kh, beta, n=3)
        assert rep.verdict == "not_flat"
        # a float is read exactly, as the Fraction of its binary value
        assert (rep.K, rep.K_hat, rep.beta) == (Fraction(k), Fraction(kh), Fraction(beta))
        assert {type(v) for v in (rep.K, rep.K_hat, rep.beta, rep.kappa)} == {Fraction}


def test_obstruction_json_serializes_rationals():
    rep = flatness_obstruction(1, Fraction(1, 9), 1, n=3)
    data = _plain(rep)
    assert data["obstruction_M"] == {"num": 81, "den": 64, "value": 1.265625}
    # a float input is written as the num/den of its exact value
    assert _plain(flatness_obstruction(0.1, 0.3, 0.5, n=3))["K"] == {
        "num": 3602879701896397, "den": 36028797018963968, "value": 0.1}


# -- vertical action consistency --------------------------------------------------------


def vertical_action_consistency(q, beta=1.0) -> float:
    """Mechanical check of the penultimate step of the non-flatness
    argument at a state of a constant-curvature pair.

    With W_i = sqrt(beta) times the deterministic frame, the flat-frame
    hypotheses force the fiber derivative of W_k along nu(A(W_i ^ W_j)) to
    take the closed form (beta K / kappa)(delta_jk W_i - delta_ik W_j);
    this evaluates kappa times that form against K (W_i ^ W_j) W_k computed
    mechanically through the wedge action, and returns the largest norm of
    the difference over all index triples.  kappa = -K + K_hat.
    """
    pair = q.pair
    for m in (pair.space, pair.space_hat):
        if not hasattr(m, "curvature_constant"):
            raise GeometryError("consistency check needs a constant-curvature pair")
    K = pair.space.curvature_constant
    K_hat = pair.space_hat.curvature_constant
    kappa = -K + K_hat
    if kappa == 0:
        raise GeometryError("equal curvatures: kappa vanishes")
    if not beta > 0:
        raise GeometryError("beta must be positive")
    n = pair.dim
    fr = q.frame
    sb = math.sqrt(beta)
    w = [sb * fr[i] for i in range(n)]
    m_space = pair.space
    worst = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lemma_form = (beta * K / kappa) * (
                    (1.0 if j == k else 0.0) * w[i] - (1.0 if i == k else 0.0) * w[j]
                )
                # wedge action evaluated on the actual frame vectors
                wedge = m_space.inner_at(q.x, w[k], w[j]) * w[i] - m_space.inner_at(
                    q.x, w[k], w[i]
                ) * w[j]
                diff = kappa * lemma_form - K * wedge
                worst = max(worst, math.sqrt(m_space.inner_at(q.x, diff, diff)))
    return worst


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
