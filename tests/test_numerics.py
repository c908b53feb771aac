import math

import numpy as np
import pytest

from rollsym import GeometryError
from scipy.linalg import expm

from rollsym.numerics import (central_diff, expm1_stack, numerical_rank, running_products,
                              stencil_offsets)

# h = 1/2 and integer coefficients keep every sample and every partial sum
# exact in binary, so exactness is checked with ==
H = 0.5
QUADRATIC = (3.0, -2.0, 5.0)
QUARTIC = (1.0, 7.0, -4.0, 2.0, 9.0)


def poly(coeffs, t):
    return sum(c * t**k for k, c in enumerate(coeffs))


def samples(f, order):
    return [f(t) for t in stencil_offsets(H, order)]


@pytest.mark.parametrize("order, coeffs", [(2, QUADRATIC), (4, QUARTIC)])
def test_central_diff_is_exact_on_polynomials_of_its_order(order, coeffs):
    other = tuple(-c for c in coeffs)

    def array_sample(t):
        return np.array([poly(coeffs, t), poly(other, t)])

    assert central_diff(samples(lambda t: poly(coeffs, t), order), H) == coeffs[1]
    assert np.array_equal(central_diff(samples(array_sample, order), H), [coeffs[1], other[1]])

    out = central_diff(samples(lambda t: (array_sample(t), poly(other, t)), order), H)
    assert isinstance(out, tuple) and len(out) == 2
    assert np.array_equal(out[0], [coeffs[1], other[1]])
    assert out[1] == other[1]


def test_central_diff_error_term_pins_the_weights():
    # the leading errors are h^2 f'''/6 at order 2 and -h^4 f^(5)/30 at order 4
    assert central_diff(samples(lambda t: t**3, 2), H) == H**2
    assert central_diff(samples(lambda t: t**5, 4), H) == -4 * H**4


def test_central_diff_samples_symmetric_points_only():
    # stencil_offsets names the times of central_diff's samples, in its order
    assert stencil_offsets(H, 4) == (2 * H, H, -H, -2 * H)
    assert stencil_offsets(H, 2) == (H, -H)
    assert stencil_offsets(H) == stencil_offsets(H, 2)


def test_central_diff_rejects_other_orders():
    with pytest.raises(GeometryError):
        stencil_offsets(H, 3)
    for count in (1, 3, 5):
        with pytest.raises(GeometryError):
            central_diff([0.0] * count, H)


def test_numerical_rank_and_gap():
    mat = np.diag([3.0, 2.0, 1e-12])
    rank, sv, gap = numerical_rank(mat, 1e-8)
    assert rank == 2
    assert np.allclose(sv, [3.0, 2.0, 1e-12], rtol=1e-12, atol=0.0)
    assert gap == pytest.approx(2e12)

    rank_full, _, gap_full = numerical_rank(np.diag([3.0, 2.0, 1.0]), 1e-8)
    assert rank_full == 3 and gap_full == math.inf

    # a list of row vectors, as the flag accumulates them
    rows = [np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    rank_rows, sv_rows, gap_rows = numerical_rank(rows, 1e-8)
    assert rank_rows == 2 and len(sv_rows) == 3 and gap_rows == math.inf


def test_layers_are_equilibrated_by_their_longest_row():
    # a second layer 1e6 times longer than the first: unscaled, the first
    # layer's directions sink below the cut; scaled, every layer has unit length
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2e6], [0.0, 3e5, 1e6]])
    assert numerical_rank(rows, 1e-6)[0] == 2
    rank, sv, gap = numerical_rank(rows, 1e-6, layers=[2, 2])
    assert rank == 3 and gap == math.inf
    assert sv[0] == pytest.approx(np.linalg.svd(rows * [[1], [1], [5e-7], [5e-7]],
                                                 compute_uv=False)[0], rel=1e-12)
    # scaling a layer changes nothing
    scaled = rows * [[7.0], [7.0], [1e-3], [1e-3]]
    assert np.allclose(numerical_rank(scaled, 1e-6, layers=[2, 2])[1], sv, rtol=1e-12, atol=0.0)


def test_round_off_rows_are_dropped_before_the_layers_are_scaled():
    # a layer that vanishes up to round-off must not become unit noise
    noise = 1e-15 * np.random.default_rng(0).standard_normal((3, 3))
    rows = np.vstack([np.eye(3)[:2], noise])
    rank, sv, gap = numerical_rank(rows, 1e-8, layers=[2, 3])
    assert rank == 2 and np.all(sv[2:] == 0.0) and gap == math.inf
    # the same layer 1e4 times above the floor is a direction of its own
    rank_kept, _, _ = numerical_rank(np.vstack([np.eye(3)[:2], 1e-6 * np.eye(3)[2:]]), 1e-8,
                                     layers=[2, 1])
    assert rank_kept == 3


def test_numerical_rank_of_the_zero_matrix():
    rank, sv, gap = numerical_rank(np.zeros((3, 2)), 1e-8)
    assert rank == 0 and np.all(sv == 0.0) and gap == math.inf
    rank, sv, gap = numerical_rank(np.zeros((3, 2)), 1e-8, layers=[1, 2])
    assert rank == 0 and np.all(sv == 0.0) and gap == math.inf


# -- matrix exponentials and running products ------------------------------------------


@pytest.mark.parametrize("scale", [1e-3, 0.1, 1.0])
def test_expm1_stack_matches_scipy_on_every_matrix(scale):
    rng = np.random.default_rng(5)
    stack = scale * rng.standard_normal((40, 4, 4))
    ref = np.array([expm(a) for a in stack])
    got = np.eye(4) + expm1_stack(stack)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    # any leading shape, and a single matrix
    assert np.allclose(expm1_stack(stack.reshape(4, 10, 4, 4)).reshape(40, 4, 4), got - np.eye(4),
                       rtol=0, atol=1e-15)
    assert np.allclose(expm1_stack(stack[0]), got[0] - np.eye(4), rtol=0, atol=1e-15)


def test_expm1_stack_of_rotation_generators_is_the_rotation():
    # large angles take the squaring phase; the result stays a rotation
    angles = np.array([1e-4, 0.3, 2.0, 7.5, 40.0])
    gens = np.zeros((len(angles), 3, 3))
    gens[:, 0, 1], gens[:, 1, 0] = -angles, angles
    rot = np.eye(3) + expm1_stack(gens)
    c, s = np.cos(angles), np.sin(angles)
    assert np.allclose(rot[:, 0, 0], c, rtol=0, atol=1e-13)
    assert np.allclose(rot[:, 1, 0], s, rtol=0, atol=1e-13)
    assert np.abs(np.swapaxes(rot, 1, 2) @ rot - np.eye(3)).max() < 1e-13


def test_expm1_stack_keeps_the_digits_of_small_generators():
    # exp(a) - I of a tiny generator is a + a^2/2 to within round-off of a itself;
    # forming exp(a) first would leave only the digits of a above 1e-16
    a = 1e-9 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = expm1_stack(a[None])[0]
    assert np.abs(out - (a + a @ a / 2)).max() <= 1e-16 * np.abs(a).max()
    assert np.array_equal(expm1_stack(np.zeros((3, 2, 2))), np.zeros((3, 2, 2)))


def test_expm1_stack_rejects_non_finite_matrices():
    with pytest.raises(GeometryError):
        expm1_stack(np.array([[[0.0, math.nan], [0.0, 0.0]]]))


@pytest.mark.parametrize("count", [1, 2, 5, 37])
def test_running_products_match_the_sequential_product(count):
    rng = np.random.default_rng(count)
    d = 0.3 * rng.standard_normal((count, 3, 3))
    out = running_products(d)
    prod = np.eye(3)
    for i in range(count):
        prod = prod @ (np.eye(3) + d[i])
        assert np.allclose(np.eye(3) + out[i], prod, rtol=0, atol=1e-13)
