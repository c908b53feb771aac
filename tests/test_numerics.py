import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rollsym import GeometryError
from scipy.linalg import expm

from rollsym.numerics import (ROW_FLOOR, central_diff, cut_margin, equilibrate, numerical_rank,
                              stencil_offsets)
from rollsym.rolling import expm as rolling_expm

# h = 1/2 and integer coefficients keep every sample and every partial sum
# exact in binary, so exactness is checked with ==
H = 0.5
QUARTIC = (1.0, 7.0, -4.0, 2.0, 9.0)


def poly(coeffs, t):
    return sum(c * t**k for k, c in enumerate(coeffs))


def samples(f):
    return [f(t) for t in stencil_offsets(H)]


def test_central_diff_is_exact_on_polynomials_of_its_order():
    other = tuple(-c for c in QUARTIC)

    def array_sample(t):
        return np.array([poly(QUARTIC, t), poly(other, t)])

    assert central_diff(samples(lambda t: poly(QUARTIC, t)), H) == QUARTIC[1]
    assert np.array_equal(central_diff(samples(array_sample), H), [QUARTIC[1], other[1]])


def test_central_diff_error_term_pins_the_weights():
    # the leading error is -h^4 f^(5)/30
    assert central_diff(samples(lambda t: t**5), H) == -4 * H**4


def test_central_diff_samples_symmetric_points_only():
    # stencil_offsets names the times of central_diff's samples, in its order
    assert stencil_offsets(H) == (2 * H, H, -H, -2 * H)


def test_central_diff_rejects_other_orders():
    for count in (1, 2, 3, 5):
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


def layered_rows(rows, layers):
    """rows whose consecutive blocks of `layers` rows are equilibrated one
    by one, as a flag adjoins its steps."""
    blocks = np.split(np.asarray(rows, dtype=float), np.cumsum(layers)[:-1])
    return np.concatenate([equilibrate(block) for block in blocks])


def layered_rank(rows, tol, layers):
    """numerical_rank of rows equilibrated layer by layer (layered_rows)."""
    return numerical_rank(layered_rows(rows, layers), tol)


def batch_rank(mat, tol, layers):
    """The rank rule as one batch over all layers at once, re-equilibrating
    every earlier layer at each call, each block against its own longest
    row: the reference that the per-layer rule must match bit for bit."""
    mat = np.asarray(mat, dtype=float)
    norms = np.linalg.norm(mat, axis=1)
    scale = np.zeros(len(mat))
    for block in np.split(np.arange(len(mat)), np.cumsum(layers)[:-1]):
        longest = norms[block].max(initial=0.0)
        if longest > 0.0:
            scale[block] = np.where(norms[block] > ROW_FLOOR * longest, 1.0 / longest, 0.0)
    return numerical_rank(scale[:, None] * mat, tol)


def test_layers_are_equilibrated_by_their_longest_row():
    # a second layer 1e6 times longer than the first: unscaled, the first
    # layer's directions sink below the cut; scaled, every layer has unit length
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2e6], [0.0, 3e5, 1e6]])
    assert numerical_rank(rows, 1e-6)[0] == 2
    rank, sv, gap = layered_rank(rows, 1e-6, [2, 2])
    assert rank == 3 and gap == math.inf
    assert sv[0] == pytest.approx(np.linalg.svd(rows * [[1], [1], [5e-7], [5e-7]],
                                                 compute_uv=False)[0], rel=1e-12)
    # scaling a layer changes nothing
    scaled = rows * [[7.0], [7.0], [1e-3], [1e-3]]
    assert np.allclose(layered_rank(scaled, 1e-6, [2, 2])[1], sv, rtol=1e-12, atol=0.0)


def test_round_off_rows_are_dropped_before_the_layers_are_scaled():
    # round-off beside a genuine row of its layer must not become unit noise
    noise = 1e-15 * np.random.default_rng(0).standard_normal((2, 3))
    rows = np.vstack([np.eye(3)[:2], np.eye(3)[2:], noise])
    rank, sv, gap = layered_rank(rows, 1e-8, [2, 3])
    assert rank == 3 and np.all(sv[3:] == 0.0) and gap == math.inf
    # a layer 1e-6 as long as the first is a direction of its own
    rank_kept, _, _ = layered_rank(np.vstack([np.eye(3)[:2], 1e-6 * np.eye(3)[2:]]), 1e-8,
                                   [2, 1])
    assert rank_kept == 3


@pytest.mark.parametrize("longest", [1.0, 2.0**40])
def test_a_row_no_longer_than_a_ten_billionth_of_its_own_layers_longest_is_dropped(longest):
    # the documented rule, written out rather than read from ROW_FLOOR: a row
    # no longer than 1e-10 times its own layer's longest row becomes 0, and a
    # row 3 times that is kept, in a first layer and in a later one alike
    at_floor, above = 1e-10 * longest, 3e-10 * longest
    layer = np.array([[longest, 0.0, 0.0], [0.0, at_floor, 0.0], [0.0, 0.0, above]])
    rule = np.diag([1.0, 0.0, 3e-10])
    assert np.array_equal(equilibrate(layer), rule)
    # the scale case: a later layer 2^-40 (about 1e-12) as long as the first
    # obeys the same rule, and one of 1e-12 of the first's longest is kept
    # whole, where a floor taken from the first layer dropped them all
    rows = layered_rows(np.vstack([layer, 2.0**-40 * layer, 1e-12 * longest * np.eye(3)]),
                        [3, 3, 3])
    assert np.array_equal(rows, np.vstack([rule, rule, np.eye(3)]))


def test_numerical_rank_of_the_zero_matrix():
    rank, sv, gap = numerical_rank(np.zeros((3, 2)), 1e-8)
    assert rank == 0 and np.all(sv == 0.0) and gap == math.inf
    rank, sv, gap = layered_rank(np.zeros((3, 2)), 1e-8, [1, 2])
    assert rank == 0 and np.all(sv == 0.0) and gap == math.inf


def test_the_cut_margin_of_the_zero_matrix_is_inf():
    assert cut_margin(numerical_rank(np.zeros((3, 2)), 1e-8)[1], 1e-8) == math.inf


def test_a_singular_value_at_the_cut_has_margin_one():
    assert cut_margin([1.0, 1e-8], 1e-8) == 1.0
    assert cut_margin([4.0, 2.0**-18], 2.0**-20) == 1.0


def test_the_cut_margin_skips_zeros():
    # a zero is no value to decide (cut / 0 would also warn): with only zeros
    # below it, the largest value clears the cut by 1 / tol
    assert cut_margin([2.0, 0.0, 0.0], 1e-8) == 2.0 / (1e-8 * 2.0)
    assert cut_margin([4.0, 3.0, 1e-12, 0.0], 1e-8) == 1e-8 * 4.0 / 1e-12


def test_the_cut_margin_is_read_on_either_side_of_the_cut():
    # the value nearest the cut sets the margin, whether above it or below it
    assert cut_margin([1.0, 5e-5, 1e-14], 1e-8) == 5e-5 / 1e-8
    assert cut_margin([1.0, 5e-3, 2e-12], 1e-8) == 1e-8 / 2e-12


# a row: a direction times a length, among them 0, round-off below the floor
# (1e-12 of the unit rows) and lengths 1e8 apart
ROW_LENGTHS = st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 1.0, 3.0, 1e4, 1e8])


@st.composite
def layer_lists(draw):
    width = draw(st.integers(1, 4))
    unit = st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=width, max_size=width)
    layers = draw(st.lists(st.lists(st.tuples(unit, ROW_LENGTHS), max_size=4), min_size=1,
                           max_size=5))
    rows = [[length * np.array(u) for u, length in layer] for layer in layers]
    # a layer as a whole 1e8 longer or shorter than the first
    factors = draw(st.lists(st.sampled_from([1.0, 1e-8, 1e8]), min_size=len(rows),
                            max_size=len(rows)))
    counts = [len(layer) for layer in rows]
    stacked = [f * r for f, layer in zip(factors, rows) for r in layer]
    return np.array(stacked).reshape(-1, width), counts


@settings(max_examples=200, deadline=None)
@given(layer_lists())
# the gap across the cut, 1.4e-12 over 5.9e-323, overflowed with a warning
@example(case=(np.array([[1e-12, 3.36738517e-307]] * 2), [2]))
def test_the_per_layer_rule_is_the_batch_rule_bit_for_bit(case):
    rows, layers = case
    assume(len(rows))  # a rank needs a row, but any layer may be empty
    rank, sv, gap = layered_rank(rows, 1e-8, layers)
    want_rank, want_sv, want_gap = batch_rank(rows, 1e-8, layers)
    assert rank == want_rank and gap == want_gap
    assert np.array_equal(sv, want_sv)


# -- the matrix exponential -------------------------------------------------------------


@pytest.mark.parametrize("scale", [1e-3, 0.1, 1.0])
def test_expm1_stack_matches_scipy_on_every_matrix(scale):
    # rolling.expm, the one matrix exponential, on stacks of general matrices
    rng = np.random.default_rng(5)
    stack = scale * rng.standard_normal((40, 4, 4))
    ref = np.array([expm(a) for a in stack])
    got = rolling_expm(stack)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    # any leading shape, and a single matrix
    assert np.allclose(rolling_expm(stack.reshape(4, 10, 4, 4)).reshape(40, 4, 4), got,
                       rtol=0, atol=1e-15)
    assert np.allclose(rolling_expm(stack[0]), got[0], rtol=0, atol=1e-15)
    assert np.array_equal(rolling_expm(np.zeros((3, 2, 2))), np.broadcast_to(np.eye(2), (3, 2, 2)))


def test_expm1_stack_of_rotation_generators_is_the_rotation():
    # large angles take the squaring phase; the result stays a rotation
    angles = np.array([1e-4, 0.3, 2.0, 7.5, 40.0])
    gens = np.zeros((len(angles), 3, 3))
    gens[:, 0, 1], gens[:, 1, 0] = -angles, angles
    rot = rolling_expm(gens)
    c, s = np.cos(angles), np.sin(angles)
    assert np.allclose(rot[:, 0, 0], c, rtol=0, atol=1e-13)
    assert np.allclose(rot[:, 1, 0], s, rtol=0, atol=1e-13)
    assert np.abs(np.swapaxes(rot, 1, 2) @ rot - np.eye(3)).max() < 1e-13


def test_expm1_stack_rejects_non_finite_matrices():
    with pytest.raises(GeometryError):
        rolling_expm(np.array([[[0.0, math.nan], [0.0, 0.0]]]))
