"""Lie brackets of structured fields on the state space, and the growth
vector of the rolling distribution.

A structured field assigns to every state a tangent vector in the
(X, X_hat, C) decomposition.  The bracket of two such fields has a closed
combinatorial form: derivative terms of each field along the other, plus a
vertical curvature term

    nu( A R(T ^ S) - R_hat(T_hat ^ S_hat) A )

built from the curvature operators of the two factors.  For rolling lifts
on a constant-curvature pair this reduces to the mismatch constant
kappa = K - K_hat times the vertical direction A (X ^ Y); the sign has
been pinned against two independent finite-difference oracles.

An independent oracle, the coordinate bracket in the canonical chart, is
provided for cross-checking the structured formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import skew_part, wedge_matrix
from .numerics import numerical_rank
from .spaces import GeometryError
from .rolling import (
    Chart,
    RollingState,
    TangentOfQ,
    directional_derivative,
    q_dim,
    rolling_lift,
    _stencil,
)

FIELD_FD_STEP = 1e-3
FIELD_FD_ORDER = 4
NESTED_FD_STEP = 1e-2


def curvature_mismatch(pair) -> float:
    """kappa = K - K_hat for a constant-curvature pair."""
    for m in (pair.space, pair.space_hat):
        if not hasattr(m, "curvature_constant"):
            raise GeometryError("curvature mismatch needs constant-curvature factors")
    return pair.space.curvature_constant - pair.space_hat.curvature_constant


@dataclass
class FieldData:
    T: np.ndarray
    T_hat: np.ndarray
    U: np.ndarray


class StructuredField:
    """Vector field on the state space given by closures.

    `value(q)` returns a TangentOfQ; the vertical data is the skew matrix C
    with fiber direction A C.  `derivative(q, xi)` may supply the covariant
    derivatives (dT, dT_hat, dU) of the field data along the canonical curve
    of xi; when absent they are computed by symmetric stencils.
    """

    def __init__(self, pair, value, derivative=None, name=""):
        self.pair = pair
        self._value = value
        self._derivative = derivative
        self.name = name

    def value(self, q: RollingState) -> TangentOfQ:
        return self._value(q)

    def data_derivative(self, q, xi, h=FIELD_FD_STEP, order=FIELD_FD_ORDER) -> FieldData:
        if self._derivative is not None:
            return self._derivative(q, xi)
        return stencil_data_derivative(self, q, xi, h=h, order=order)


def stencil_data_derivative(fld, q, xi, h=FIELD_FD_STEP, order=FIELD_FD_ORDER) -> FieldData:
    """Covariant derivative of a field's (T, T_hat, U) data along xi by
    central differences with parallel pull-back of all three slots
    (rolling.directional_derivative, whose sample states every field
    differentiated along xi at q shares)."""

    def data(qt):
        v = fld.value(qt)
        return v.X, v.X_hat, qt.isometry @ v.C

    return FieldData(*directional_derivative(data, q, xi, ("vector", "vector_hat", "map"),
                                             h=h, order=order))


def bracket_structured(xf: StructuredField, yf: StructuredField, q: RollingState,
                       h=FIELD_FD_STEP, order=FIELD_FD_ORDER) -> TangentOfQ:
    """Bracket [X, Y] at q from the structured formula: derivative terms of
    each field along the other plus the vertical curvature term."""
    xi_x = xf.value(q)
    xi_y = yf.value(q)
    d_y = yf.data_derivative(q, xi_x, h=h, order=order)
    d_x = xf.data_derivative(q, xi_y, h=h, order=order)

    pair = q.pair
    a_mat = q.isometry
    aa, bb = q.coords(xi_x.X), q.coords(xi_y.X)
    aah, bbh = q.coords_hat(xi_x.X_hat), q.coords_hat(xi_y.X_hat)
    r = pair.space.curvature_matrix_apply(q.x, wedge_matrix(aa, bb))
    r_hat = pair.space_hat.curvature_matrix_apply(q.x_hat, wedge_matrix(aah, bbh))

    nu_mat = (d_y.U - d_x.U) + a_mat @ r - r_hat @ a_mat
    c = skew_part(a_mat.T @ nu_mat)
    return TangentOfQ(q, d_y.T - d_x.T, d_y.T_hat - d_x.T_hat, c)


def bracket_field(xf: StructuredField, yf: StructuredField,
                  h=FIELD_FD_STEP, order=FIELD_FD_ORDER,
                  nested_h=NESTED_FD_STEP) -> StructuredField:
    """The bracket as a field, evaluable near a state; its own derivatives
    fall back to (wider) stencils since every evaluation already contains
    first-order stencils."""
    fld = StructuredField(
        xf.pair,
        lambda q: bracket_structured(xf, yf, q, h=h, order=order),
        name=f"[{xf.name},{yf.name}]",
    )
    fld._derivative = lambda q, xi: stencil_data_derivative(
        fld, q, xi, h=nested_h, order=FIELD_FD_ORDER
    )
    return fld


def bracket_fd(xf: StructuredField, yf: StructuredField, q: RollingState,
               h=1e-3, chart_h=1e-5) -> TangentOfQ:
    """Independent bracket oracle: push both fields into the canonical chart
    at q and take the coordinate bracket by fourth-order central differences
    of the chart components."""
    chart = Chart(q)
    dim = chart.dim

    def components(theta):
        d_mat, q_theta = chart.differential(theta, h=chart_h)
        rhs = np.array([xf.value(q_theta).coords(), yf.value(q_theta).coords()]).T
        sol = np.linalg.solve(d_mat, rhs)
        return sol[:, 0], sol[:, 1]

    x0 = xf.value(q).coords()
    y0 = yf.value(q).coords()
    out = np.zeros(dim)
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = h
        samples = [components(t * e) for t in (2.0, 1.0, -1.0, -2.0)]
        dx = _stencil([s[0] for s in samples], h, 4)
        dy = _stencil([s[1] for s in samples], h, 4)
        out += x0[j] * dy - y0[j] * dx
    return TangentOfQ.from_coords(q, out)


# -- generator fields -----------------------------------------------------------


def frame_field_derivative(m, x, v):
    """Covariant derivatives of all deterministic frame fields along v at x,
    returned as an (n, amb) array, from the frame's connection form."""
    return m.connection_form(x, v) @ m.frame(x)


def rolling_generators(pair, rotation=None):
    """Rolling lifts of the deterministic frame (optionally rotated by a
    fixed orthogonal matrix), with closed-form derivatives: along a
    canonical curve the isometry differentiates to A C, and the frame field
    to its connection form (RollingState.connection)."""
    n = pair.dim
    rot = np.eye(n) if rotation is None else np.asarray(rotation, float)

    def make(i):
        def value(q):
            v = q.from_coords(rot[:, i])
            return rolling_lift(q, v)

        def derivative(q, xi):
            omega = (q.coords(xi.X) @ q.connection.reshape(n, n * n)).reshape(n, n)
            dv = omega.T @ rot[:, i]
            d_t_hat = q.from_coords_hat(q.isometry @ (xi.C @ rot[:, i] + dv))
            return FieldData(q.from_coords(dv), d_t_hat, np.zeros((n, n)))

        return StructuredField(pair, value, derivative, name=f"L_R(E{i})")

    return [make(i) for i in range(n)]


# -- growth vector ----------------------------------------------------------------


@dataclass
class FlagReport:
    """Numerical flag of the rolling distribution at a state."""

    state: RollingState
    ranks: tuple
    singular_values: list
    tol: float
    gaps: tuple

    def to_json(self):
        return {
            "ranks": list(self.ranks),
            "singular_values": [sv.tolist() for sv in self.singular_values],
            "tol": self.tol,
            "gaps": [g if g != math.inf else None for g in self.gaps],
            "state": self.state.to_json(),
            "dim_state_space": q_dim(self.state.pair.dim),
        }


def flag_ranks(q: RollingState, depth=3, tol=1e-8, rotation=None,
               nested_h=NESTED_FD_STEP) -> FlagReport:
    """Ranks of the canonical flag D, D + [D, D], ... of the rolling
    distribution at q, by SVD with a relative threshold.

    The distribution is spanned by rolling lifts of the frame; each flag
    step adjoins brackets of the previous step's new fields with the
    generators.  All vectors are expressed in TangentOfQ coordinates, and
    each step's vectors form one layer of the equilibrated rank rule of
    numerics.numerical_rank: the reported singular values are those of the
    rows after dropping round-off rows and dividing every layer by its
    longest row.
    """
    if depth < 1:
        raise GeometryError("flag depth must be at least 1")
    if depth > 6:
        raise GeometryError("flag depth above 6 is not supported")
    gens = rolling_generators(q.pair, rotation=rotation)
    vectors = [g.value(q).coords() for g in gens]
    layers = [len(vectors)]
    steps = [numerical_rank(vectors, tol, layers)]  # (rank, singular values, gap) per flag step
    current = list(gens)
    full = q_dim(q.pair.dim)
    for _ in range(1, depth):
        rank = steps[-1][0]
        if rank == full or (len(steps) > 1 and rank == steps[-2][0]):
            # a stationary flag stays stationary: pad to the requested depth
            steps.append(steps[-1])
            continue
        current = [bracket_field(f, g, nested_h=nested_h) for f in current for g in gens]
        vectors.extend(bf.value(q).coords() for bf in current)
        layers.append(len(current))
        steps.append(numerical_rank(vectors, tol, layers))
    ranks, svs, gaps = zip(*steps)
    return FlagReport(q, ranks, list(svs), tol, gaps)


def controllability_verdict(q: RollingState, tol=1e-8) -> bool:
    """Bracket-generating test at q: the flag reaches the full dimension
    2n + n(n-1)/2 of the state space."""
    report = flag_ranks(q, depth=3, tol=tol)
    return report.ranks[-1] == q_dim(q.pair.dim)


# -- the double-bracket identity ----------------------------------------------------


def normal_extension_field(m, x0, v0):
    """Extend a tangent vector at x0 to the field with vanishing covariant
    derivative at x0: parallel transport along radial geodesics."""
    x0 = np.asarray(x0, float)
    v0 = np.asarray(v0, float)

    def ext(y):
        w = m.log_arr(x0, y)
        if np.linalg.norm(w) < 1e-14:
            return np.array(v0)
        # projection only strips round-off; the transport is tangent already
        return m.project(y, m.transport_along_geodesic(x0, w, 1.0, v0))

    return ext


def rolling_lift_of_extension(pair, x0, v0):
    ext = normal_extension_field(pair.space, x0, v0)
    return StructuredField(pair, lambda q: rolling_lift(q, ext(q.x)), name="L_R(ext)")


def double_bracket_identity_residual(q: RollingState, X, Y, Z,
                                     h=FIELD_FD_STEP, nested_h=NESTED_FD_STEP) -> float:
    """Residual of the constant-curvature double-bracket identity

        [L_R(X), [L_R(Y), L_R(Z)]]
            = -kappa g(Z,X) L_NS(Y,0) + kappa g(Y,X) L_NS(Z,0)   mod (L_R, nu)

    for vectors extended with vanishing covariant derivative at the contact
    point.  The mod projection keeps the class X_hat - A X of the no-spin
    part.  In this identity kappa = K_hat - K: the double bracket picks up
    the mismatch constant of the first-order bracket with a reversed sign
    once the vertical derivative of the lift is expressed through L_NS(.,0).
    """
    kappa = -curvature_mismatch(q.pair)
    pair = q.pair
    lift_x = rolling_lift_of_extension(pair, q.x, X)
    lift_y = rolling_lift_of_extension(pair, q.x, Y)
    lift_z = rolling_lift_of_extension(pair, q.x, Z)
    inner = bracket_field(lift_y, lift_z, h=h, nested_h=nested_h)
    outer = bracket_structured(lift_x, inner, q, h=nested_h, order=FIELD_FD_ORDER)

    measured_class = outer.X_hat - q.apply(outer.X)
    g = pair.space.inner_at
    rhs_base = -kappa * g(q.x, Z, X) * np.asarray(Y, float) + kappa * g(q.x, Y, X) * np.asarray(
        Z, float
    )
    expected_class = -q.apply(rhs_base)
    diff = measured_class - expected_class
    return math.sqrt(pair.space_hat.inner_at(q.x_hat, diff, diff))
