"""Lie brackets of structured fields on the state space, and the growth
vector of the rolling distribution.

A structured field is a stack of k fields given by two closures: its value
assigns to every state k tangent rows (the (X, X_hat, C) decomposition in
frame coordinates, see rolling), and its derivative gives the covariant
derivatives of their data along a stack of directions.  The bracket of two
such fields has a closed combinatorial form: derivative terms of each field
along the other, plus a vertical curvature term

    nu( A R(T ^ S) - R_hat(T_hat ^ S_hat) A )

built from the curvature operators of the two factors.  For rolling lifts
on a constant-curvature pair this reduces to the mismatch constant
kappa = K - K_hat times the vertical direction A (X ^ Y); the sign has
been pinned against two independent finite-difference oracles.
`bracket_structured` evaluates it for every pair of two stacks at once, as
one (i, j) table of broadcast arrays, at a state or a stack of states; the
growth vector brackets the whole stack of generators in one call per flag
step.  The bracket of two rolling lifts is a rolling lift plus a vertical
curvature term, so the depth-2 table of the generators has closed-form
derivatives (generator_brackets) and the depth-3 flag takes no stencil; the
tables of depth 3 and above are differentiated by stencils, each of which
evaluates its table once on its stacked sample states.

An independent oracle, the coordinate bracket in the canonical chart, is
provided for cross-checking the structured formula; it shares no stencil,
connection form or sample state with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .curvature import (curvature_term, skew_part, skew_to_vector, vector_to_skew,
                        wedge_matrix)
from .numerics import RANK_TOL, equilibrate, numerical_rank, within_roundoff
from .errors import GeometryError
from .spaces import Warped
from .rolling import RollingState, directional_derivative, q_dim, tangent_curve

# The depth-3 flag takes no step (generator_brackets).  Depth 4 nests one
# level of stencils, whose truncation falls 16x per halving of the step: the
# 7th depth-4 value of (-1.2, 1.2) x cos S2(2) / S3(1) at seed 0 is 3.9e-8,
# 2.5e-9, 1.5e-10, 9.6e-12 and 7.6e-13 at 1e-2, 5e-3, 2.5e-3, 1.25e-3 and
# 6.25e-4 (rank 8 at 1e-2, 6 below).  At 5e-4 every value of that pair's
# depth-4 flags at seeds 0-199 lies at least 2.2e4 from the rank cut (median
# 5.0e4); truncation comes within 1e4 of it from 6.25e-4 up, round-off below
# 2.5e-4.  Depth 5 would nest two levels, near round-off at this step, but
# no catalog flag grows at depth 4, so none computes depth 5: none of 1,024
# flags over the ordered pairs of 16 factors each at n = 2 and n = 3.
NESTED_FD_STEP = 5e-4
ORACLE_STEP = 1e-3  # bracket_fd's own stencil step in the chart
CHART_STEP = 1e-5  # the FD oracle's own step for its chart differential


def curvature_mismatch(pair) -> float:
    """kappa = K - K_hat for a constant-curvature pair, exactly 0.0 when the
    two agree to round-off (numerics.within_roundoff)."""
    k, k_hat = _constant_curvature(pair.space), _constant_curvature(pair.space_hat)
    return 0.0 if within_roundoff(k - k_hat, k, k_hat) else k - k_hat


def _constant_curvature(m) -> float:
    """The curvature of a factor of constant curvature: a catalog space form,
    or a warped product whose fiber planes carry the radial curvature k_ref,
    as they do when the fiber is a curve.  Fiber-plane curvature
    (K_fiber - f'^2) / f^2 is k_ref + (K_fiber - I) / f^2 for the warp's
    invariant I = f'^2 + k_ref f^2 (f'' = -k_ref f keeps it fixed), so the
    fiber planes carry k_ref where K_fiber = I."""
    if isinstance(m, Warped):
        k_fiber, inv = m.fiber.curvature_constant, m.warp.invariant
        if m.fiber.dim == 1 or within_roundoff(k_fiber - inv, k_fiber, inv):
            return m.warp.k_ref
    elif hasattr(m, "curvature_constant"):
        return m.curvature_constant
    raise GeometryError("curvature mismatch needs constant-curvature factors")


@dataclass
class FieldData:
    """Covariant derivatives (dT, dT_hat, dU) of the data of a stack of k
    fields along a stack of m directions, with axes (m, k) after the stack
    axes of the states: the frame coordinates of both drifts and the frame
    matrix of A C."""

    T: np.ndarray
    T_hat: np.ndarray
    U: np.ndarray


@dataclass
class StructuredField:
    """A stack of k vector fields on the state space, given by two closures
    that take a state or a stack of states (RollingState) at once.

    `value(q)` returns the tangent rows of the k fields at every state,
    (*q.shape, k, q_dim(n)); the vertical data is the skew matrix C with
    fiber direction A C.  `derivative(q, xi)` returns the covariant
    derivatives of the field data along the m tangent rows xi
    (*q.shape, m, q_dim(n)) at each state, as FieldData with axes
    (*q.shape, m, k).  A field without a closed-form derivative passes
    `lambda q, xi: stencil_data_derivative(value, q, xi, h)`.
    """

    value: Callable[[RollingState], np.ndarray]
    derivative: Callable[[RollingState, np.ndarray], FieldData]


def stencil_data_derivative(value, q, xi, h) -> FieldData:
    """Covariant derivatives of the (T, T_hat, U) data of the stack of fields
    that `value` returns, along each tangent row of xi (*q.shape, m, q_dim)
    at each state of the stack q: rolling.directional_derivative of step h,
    whose one stack of sample states holds those of every row at every
    state."""
    return FieldData(*directional_derivative(value, q[..., None], xi, h))


def bracket_structured(xf: StructuredField, yf: StructuredField, q: RollingState) -> np.ndarray:
    """The table of brackets [X_i, Y_j] of two stacks of fields at the state
    or stack q, kx * ky tangent rows in (i, j) order after the stack axes,
    from the structured formula: derivative terms of each field along the
    other plus the vertical curvature term, for all pairs and states at
    once."""
    n, lead = q.pair.dim, len(q.shape)
    xi_x = xf.value(q)
    xi_y = yf.value(q)
    d_y = yf.derivative(q, xi_x)  # axes (i, j)
    d_x = xf.derivative(q, xi_y)  # axes (j, i)

    wedge = wedge_matrix(xi_x[..., :, None, :n], xi_y[..., None, :, :n])
    wedge_hat = wedge_matrix(xi_x[..., :, None, n : 2 * n], xi_y[..., None, :, n : 2 * n])

    def table(dy, dx):
        return (dy - np.swapaxes(dx, lead, lead + 1)).reshape(q.shape + (-1,) + dy.shape[lead + 2:])

    curv = curvature_term(q, wedge, wedge_hat)
    nu_mat = table(d_y.U, d_x.U) + curv.reshape(q.shape + (-1, n, n))
    c = skew_to_vector(skew_part(q.expand(q.isometry, nu_mat.ndim).mT @ nu_mat))
    return np.concatenate((table(d_y.T, d_x.T), table(d_y.T_hat, d_x.T_hat), c), axis=-1)


def bracket_field(xf: StructuredField, yf: StructuredField) -> StructuredField:
    """The table of brackets as a stack of kx * ky fields, evaluable near a
    state; its own derivatives are stencils of step NESTED_FD_STEP, wider
    than a field's own, since every evaluation already contains the
    derivatives of xf and yf.  The flag takes it from depth 4 on, for the
    table of depth 3 and above: the depth-2 table of the generators has
    closed-form derivatives (generator_brackets), so a depth-4 flag nests a
    single level of stencils, evaluated as one stack."""

    def value(q):
        return bracket_structured(xf, yf, q)

    return StructuredField(value,
                           lambda q, xi: stencil_data_derivative(value, q, xi, NESTED_FD_STEP))


# -- the FD oracle: coordinate brackets in the canonical chart ------------------


def _stencil(samples, dt):
    """The FD bracket oracle's own fourth-order stencil, kept apart from
    numerics.central_diff, over samples at the times _stencil_times(dt)."""
    return (-samples[0] + 8 * samples[1] - 8 * samples[2] + samples[3]) / (12 * dt)


def _stencil_times(dt):
    return (2 * dt, dt, -dt, -2 * dt)


def curve_velocity(q, samples, dt):
    """Tangent rows of the velocities of state curves through the stack q,
    by symmetric differences of their states `samples`, a stack whose first
    axis runs over the times _stencil_times(dt) and whose other axes
    broadcast against q's; C subtracts the no-spin rate of the measured base
    velocities, whose states come from one tangent_curve call."""
    pair, n = q.pair, q.pair.dim
    rows = np.zeros(samples.shape[1:] + (q_dim(n),))
    rows[..., :n] = pair.space.frame_coords(q.x, q.frame, _stencil(samples.x, dt))
    rows[..., n : 2 * n] = pair.space_hat.frame_coords(q.x_hat, q.frame_hat,
                                                       _stencil(samples.x_hat, dt))
    ns = tangent_curve(q, rows, np.reshape(_stencil_times(dt), (-1,) + (1,) * (rows.ndim - 1)))
    a_dot = _stencil(samples.isometry, dt) - _stencil(ns.isometry, dt)
    rows[..., 2 * n :] = skew_to_vector(skew_part(q.isometry.mT @ a_dot))
    return rows


def chart_differential(center: RollingState, thetas):
    """Matrices of the differential of the canonical chart at center,
    (u, u_hat, omega) -> (exp_x(E u), exp_xhat(Ehat u_hat), transported
    A expm(omega)) with E, Ehat the deterministic frames, at a stack of chart
    coordinates (m, dim), column by column in tangent rows at the state at
    each, and the stack of those states, by stencils of step CHART_STEP.
    Chart coordinates are tangent rows at center, and at the origin the
    differential is the identity.  The states and every column stencil's
    chart points come from one tangent_curve call, and curve_velocity takes
    all columns at once."""
    dim, ts = q_dim(center.pair.dim), _stencil_times(CHART_STEP)
    # per theta: theta itself, then theta + t e_k by time t, then column k
    steps = np.concatenate((np.zeros((1, dim)),
                            (np.array(ts)[:, None, None] * np.eye(dim)).reshape(-1, dim)))
    states = tangent_curve(center, thetas[:, None] + steps, 1.0)
    centers = states[:, 0]
    samples = states[np.arange(len(thetas))[:, None],
                     1 + np.arange(len(ts) * dim).reshape(len(ts), 1, dim)]
    columns = curve_velocity(centers[:, None], samples, CHART_STEP)
    return columns.mT, centers


def bracket_fd(xf: StructuredField, yf: StructuredField, q: RollingState) -> np.ndarray:
    """Independent bracket oracle: push both stacks of fields into the
    canonical chart at q and take the coordinate brackets by fourth-order
    central differences of the chart components.  It returns the same
    (i, j) table as bracket_structured; the chart differentials, which cost
    the most, serve every field of both stacks, and one chart_differential
    call builds all of them."""
    dim, h = q_dim(q.pair.dim), ORACLE_STEP
    # chart coordinates t e_j, by coordinate j, then time t
    thetas = np.eye(dim)[:, None] * np.array(_stencil_times(h))[:, None]
    d_mats, states = chart_differential(q, thetas.reshape(-1, dim))
    rhs = np.concatenate((xf.value(states), yf.value(states)), axis=-2)
    components = np.linalg.solve(d_mats, rhs.mT).mT.reshape(dim, 4, -1, dim)

    x0 = xf.value(q)
    y0 = yf.value(q)
    kx = len(x0)
    out = np.zeros((kx, len(y0), dim))
    for j in range(dim):
        d = _stencil(components[j], h)
        out += x0[:, None, j, None] * d[None, kx:] - y0[None, :, j, None] * d[:kx, None]
    return out.reshape(-1, dim)


# -- generator fields -----------------------------------------------------------


def generator_brackets(gens: StructuredField) -> StructuredField:
    """The table of brackets [L_i, L_j] of the rolling generators gens (as the
    flag keeps them), n * n fields whose value is bracket_structured(gens,
    gens, q), with closed-form derivatives.  Field ij has the data T = [F_i,
    F_j], which is dF_j(F_i) - dF_i(F_j) since transport_rhs is symmetric,
    T_hat = A T and U = Rol_q(w) = A R(w) - R_hat(w_hat) A for w = F_i ^ F_j
    and w_hat = A F_i ^ A F_j (Chitour and Kokkonen 2010).  Along a row (X,
    X_hat, C), A moves by A C: dT = nabla_X [F_i, F_j] from the anchored
    frame's first and second ambient derivatives, dT_hat = (dT + T C^T) A^T
    in rows, and dU = A R(dw) - R_hat(dw_hat) A + A C R(w) - R_hat(w_hat) A C
    + A (nabla_X R)(w) - (nabla_X_hat R_hat)(w_hat) A, with dw and dw_hat
    from gens' own derivatives (at the flag's state, the ones it keeps)."""

    def value(q):
        return bracket_structured(gens, gens, q)

    def derivative(q, xi):
        space, space_hat, n = q.pair.space, q.pair.space_hat, q.pair.dim
        lead, x0, frame0 = len(q.shape), *q.anchor
        dirs = xi[..., :n] @ q.expand(q.frame, xi.ndim)  # X, ambient, axis (m)

        def anchored(extra, *directions):  # the anchored frame with `extra` axes before F's
            return space.anchored_frame(q.expand(x0, lead + 1 + extra),
                                        q.expand(frame0, lead + 2 + extra),
                                        q.expand(q.x, lead + 1 + extra), *directions)

        fr, d_dirs, _ = anchored(1, dirs)  # F (1, k, amb), dF_k(X) (m, k, amb)
        _, d_fr, dd = anchored(2, fr, dirs[..., None, :])  # dF_l(F_k), d2F_l(F_k, X)
        d_chain = anchored(2, d_dirs)[1]  # dF_l(dF_k(X))
        swap = lead + 1, lead + 2  # the axes (k, l) of the table

        def skew(a):
            return a - np.swapaxes(a, *swap)

        bracket = skew(d_fr)  # [F_k, F_l], axes (1, k, l)
        nabla = skew(dd + d_chain) - space.transport_rhs(q.expand(q.x, lead + 4),
                                                         dirs[..., None, None, :], bracket)
        t_val, d_t = (q.coords(v).reshape(v.shape[: lead + 1] + (n * n, n))
                      for v in (bracket, nabla))
        iso, spin = q.isometry, vector_to_skew(xi[..., 2 * n :], n)  # A, and C along axis (m)
        d_t_hat = (d_t + t_val @ spin.mT) @ q.expand(iso, lead + 3).mT

        def planes(rows, d_rows):  # F_k ^ F_l and its derivative, axes (m, k, l)
            w = wedge_matrix(rows[..., :, None, :], rows[..., None, :, :])
            return w, wedge_matrix(d_rows[..., :, None, :], rows[..., None, :, :]) + \
                wedge_matrix(rows[..., :, None, :], d_rows[..., None, :, :])

        m, d_gens = q.anchored[..., None, :, :], gens.derivative(q, xi)
        w, dw = planes(m, d_gens.T)
        w_hat, dw_hat = planes(m @ q.expand(iso, lead + 3).mT, d_gens.T_hat)
        xs, xs_hat = q.expand(q.x, lead + 4), q.expand(q.x_hat, lead + 4)
        rows = xi[..., :, None, None, :]  # against the planes' axes (m, k, l)
        iso, spin = q.expand(iso, lead + 5), spin[..., None, None, :, :]
        d_u = (curvature_term(q, dw, dw_hat)
               + iso @ (spin @ space.curvature_matrix_apply(xs, w)
                        + space.curvature_derivative_apply(xs, rows[..., :n], w))
               - (space_hat.curvature_matrix_apply(xs_hat, w_hat) @ iso @ spin
                  + space_hat.curvature_derivative_apply(xs_hat, rows[..., n : 2 * n], w_hat)
                  @ iso))
        return FieldData(d_t, d_t_hat, d_u.reshape(d_u.shape[: lead + 1] + (n * n, n, n)))

    return StructuredField(value, derivative)


def frame_field_derivative(q, v):
    """The connection forms omega_F(v) of the generator frame F at every
    state of q along the ambient tangent vectors v (*q.shape, m, amb) at x,
    (*q.shape, m, n, n): nabla_v F_k = sum_j omega_kj F_j."""
    x0, frame0 = q.anchor
    return q.pair.space.anchored_connection(x0[..., None, :], frame0[..., None, :, :],
                                            q.x[..., None, :], v)


def rolling_generators() -> StructuredField:
    """The stack of rolling lifts of the frame F anchored at each state's
    anchor (RollingState.anchor, SpaceForm.anchored_frame), the rows
    [M | M A^T | 0] for the coordinates M of F in the deterministic frame
    (RollingState.anchored), with closed-form derivatives: along a canonical
    curve F moves by its connection form omega_F (frame_field_derivative),
    and the isometry differentiates to A C.  At a state that is its own
    anchor, F is the deterministic frame and M = I."""

    def value(q):
        n, m = q.pair.dim, q.anchored
        rows = np.zeros(q.shape + (n, q_dim(n)))
        rows[..., :n] = m
        rows[..., n : 2 * n] = m @ q.isometry.mT
        return rows

    def derivative(q, xi):
        # along xi[a] frame vector F_k moves by row k of omega[a] M, and its
        # image A F_k by A times row k of M C[a]^T + omega[a] M
        n, m = q.pair.dim, q.anchored[..., None, :, :]
        omega = frame_field_derivative(q, xi[..., :n] @ q.expand(q.frame, xi.ndim))
        d_frame = omega @ m
        d_image = m @ vector_to_skew(xi[..., 2 * n :], n).mT + d_frame
        return FieldData(d_frame, d_image @ q.expand(q.isometry, d_image.ndim).mT,
                         np.zeros(omega.shape + (n,)))

    return StructuredField(value, derivative)


# -- growth vector ----------------------------------------------------------------


@dataclass
class FlagReport:
    """Numerical flag of the rolling distribution at a state."""

    state: RollingState
    ranks: tuple
    singular_values: list
    tol: float
    gaps: tuple


def kept_at(field: StructuredField, q: RollingState) -> StructuredField:
    """field with its value at q, and its derivative at q along that value,
    each computed once and kept; elsewhere it evaluates as field does."""
    value, along_value = field.value(q), cache(lambda: field.derivative(q, value))
    return StructuredField(
        lambda s: value if s is q else field.value(s),
        lambda s, xi: along_value() if s is q and xi is value else field.derivative(s, xi))


def flag_ranks(q: RollingState, depth=3, tol=RANK_TOL) -> FlagReport:
    """Ranks of the canonical flag D, D + [D, D], ... of the rolling
    distribution at q, by SVD with a relative threshold.

    The distribution is spanned by the rolling lifts of the frame anchored
    at q (rolling_generators), whatever anchor q carries; each flag step
    adjoins the table of brackets of the previous step's new fields with the
    generators.  Depth 2 is the n x n table of the generators with
    themselves (generator_brackets), and depth 3 brackets it with them
    through its closed-form derivatives, with no stencil.  From depth 4 on,
    each step is one stacked bracket_field, whose derivatives are stencils
    at four sample states per generator.  The generators and every table are
    kept at q (kept_at).  All vectors are tangent rows, and each step's form
    one layer, equilibrated when it is adjoined (numerics.equilibrate): the
    reported singular values are those of the rows after dropping round-off
    rows and dividing every layer by its longest row.
    """
    if depth < 1:
        raise GeometryError("flag depth must be at least 1")
    if depth > 6:
        raise GeometryError("flag depth above 6 is not supported")
    q = RollingState(q.pair, q.x, q.x_hat, q.isometry)  # its own anchor
    gens = current = kept_at(rolling_generators(), q)
    layers = [equilibrate(gens.value(q))]
    steps = [numerical_rank(layers[0], tol)]  # (rank, singular values, gap) per flag step
    full = q_dim(q.pair.dim)
    for _ in range(1, depth):
        rank = steps[-1][0]
        if rank == full or (len(steps) > 1 and rank == steps[-2][0]):
            # a stationary flag stays stationary: pad to the requested depth
            steps.append(steps[-1])
            continue
        current = kept_at(generator_brackets(gens) if current is gens
                          else bracket_field(current, gens), q)
        layers.append(equilibrate(current.value(q)))
        steps.append(numerical_rank(np.concatenate(layers), tol))
    ranks, svs, gaps = zip(*steps)
    return FlagReport(q, ranks, list(svs), tol, gaps)


def controllability_verdict(q: RollingState) -> bool:
    """Bracket-generating test at q: the flag reaches the full dimension
    2n + n(n-1)/2 of the state space."""
    report = flag_ranks(q, depth=3)
    return report.ranks[-1] == q_dim(q.pair.dim)
