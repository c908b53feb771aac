"""Lie brackets of structured fields on the state space, and the growth
vector of the rolling distribution.

A structured field is a stack of k fields given by two closures: its value
assigns to every state k tangent vectors in the (X, X_hat, C) decomposition,
stacked along a leading axis, and its derivative gives the covariant
derivatives of their data along a stack of directions.  The bracket of two
such fields has a closed combinatorial form: derivative terms of each field
along the other, plus a vertical curvature term

    nu( A R(T ^ S) - R_hat(T_hat ^ S_hat) A )

built from the curvature operators of the two factors.  For rolling lifts
on a constant-curvature pair this reduces to the mismatch constant
kappa = K - K_hat times the vertical direction A (X ^ Y); the sign has
been pinned against two independent finite-difference oracles.
`bracket_structured` evaluates it for every pair of two stacks at once, as
one (i, j) table of broadcast arrays, and the growth vector brackets the
whole stack of generators in one call per flag step and stencil sample.

An independent oracle, the coordinate bracket in the canonical chart, is
provided for cross-checking the structured formula; it shares no stencil,
connection form or sample state with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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

FIELD_FD_ORDER = 4
NESTED_FD_STEP = 1e-2
ORACLE_STEP = 1e-3  # bracket_fd's own stencil step in the chart


def curvature_mismatch(pair) -> float:
    """kappa = K - K_hat for a constant-curvature pair."""
    for m in (pair.space, pair.space_hat):
        if not hasattr(m, "curvature_constant"):
            raise GeometryError("curvature mismatch needs constant-curvature factors")
    return pair.space.curvature_constant - pair.space_hat.curvature_constant


@dataclass
class FieldData:
    """Covariant derivatives (dT, dT_hat, dU) of the data of a stack of k
    fields along a stack of m directions, with leading axes (m, k)."""

    T: np.ndarray
    T_hat: np.ndarray
    U: np.ndarray


@dataclass
class StructuredField:
    """A stack of k vector fields on the state space, given by two closures.

    `value(q)` returns a TangentOfQ whose X, X_hat and C carry a leading axis
    of length k, one row per field; the vertical data is the skew matrix C
    with fiber direction A C.  `derivative(q, xi)` returns the covariant
    derivatives of the field data along every vector of a stack xi, as
    FieldData with leading axes (len(xi), k).  A field without a closed-form
    derivative passes `lambda q, xi: stencil_data_derivative(value, q, xi, h)`.
    """

    value: Callable[[RollingState], TangentOfQ]
    derivative: Callable[[RollingState, TangentOfQ], FieldData]


def stencil_data_derivative(value, q, xi, h) -> FieldData:
    """Covariant derivatives of the (T, T_hat, U) data of the stack of fields
    that `value` returns, along each vector of the stack xi, by central
    differences of order FIELD_FD_ORDER and step h with parallel pull-back of
    all three slots (rolling.directional_derivative): one stencil per vector
    of xi, each evaluating the whole stack at its sample states, which every
    field differentiated along that vector at q shares.  The sample states
    along all of xi come from one tangent_curve call."""

    def data(qt):
        v = value(qt)
        return v.X, v.X_hat, qt.isometry @ v.C

    kinds = ("vector", "vector_hat", "map")
    along = directional_derivative(data, [(q, xi[a]) for a in range(len(xi.X))], kinds,
                                   h=h, order=FIELD_FD_ORDER)
    return FieldData(*(np.stack(slot) for slot in zip(*along)))


def bracket_structured(xf: StructuredField, yf: StructuredField, q: RollingState) -> TangentOfQ:
    """The table of brackets [X_i, Y_j] of two stacks of fields at q, a
    stack of kx * ky vectors in (i, j) order, from the structured formula:
    derivative terms of each field along the other plus the vertical
    curvature term, for all pairs at once."""
    xi_x = xf.value(q)
    xi_y = yf.value(q)
    d_y = yf.derivative(q, xi_x)  # axes (i, j)
    d_x = xf.derivative(q, xi_y)  # axes (j, i)

    pair = q.pair
    a_mat = q.isometry
    wedge = wedge_matrix(q.coords(xi_x.X)[:, None], q.coords(xi_y.X))
    wedge_hat = wedge_matrix(q.coords_hat(xi_x.X_hat)[:, None], q.coords_hat(xi_y.X_hat))
    r = pair.space.curvature_matrix_apply(q.x, wedge)
    r_hat = pair.space_hat.curvature_matrix_apply(q.x_hat, wedge_hat)

    def table(dy, dx):
        return (dy - np.swapaxes(dx, 0, 1)).reshape((-1,) + dy.shape[2:])

    nu_mat = table(d_y.U, d_x.U) + (a_mat @ r - r_hat @ a_mat).reshape((-1,) + a_mat.shape)
    c = skew_part(a_mat.T @ nu_mat)
    return TangentOfQ(q, table(d_y.T, d_x.T), table(d_y.T_hat, d_x.T_hat), c)


def bracket_field(xf: StructuredField, yf: StructuredField) -> StructuredField:
    """The table of brackets as a stack of kx * ky fields, evaluable near a
    state; its own derivatives are stencils of step NESTED_FD_STEP, wider
    than a field's own, since every evaluation already contains the
    derivatives of xf and yf."""

    def value(q):
        return bracket_structured(xf, yf, q)

    return StructuredField(value,
                           lambda q, xi: stencil_data_derivative(value, q, xi, NESTED_FD_STEP))


def bracket_fd(xf: StructuredField, yf: StructuredField, q: RollingState) -> TangentOfQ:
    """Independent bracket oracle: push both stacks of fields into the
    canonical chart at q and take the coordinate brackets by fourth-order
    central differences of the chart components.  It returns the same
    (i, j) table as bracket_structured; the chart differentials, which cost
    the most, serve every field of both stacks, and one Chart.differential
    call builds all of them."""
    chart = Chart(q)
    dim, h = chart.dim, ORACLE_STEP
    # chart coordinates t h e_j, by coordinate j, then time t
    thetas = (np.array([2.0, 1.0, -1.0, -2.0])[:, None] * (h * np.eye(dim))[:, None])
    d_mats, states = chart.differential(thetas.reshape(-1, dim))
    rhs = np.array([np.concatenate((xf.value(s).coords(), yf.value(s).coords()))
                    for s in states])
    components = np.linalg.solve(d_mats, rhs.mT).mT.reshape(dim, 4, -1, dim)

    x0 = xf.value(q).coords()
    y0 = yf.value(q).coords()
    kx = len(x0)
    out = np.zeros((kx, len(y0), dim))
    for j in range(dim):
        d = _stencil(components[j], h, 4)
        out += x0[:, None, j, None] * d[None, kx:] - y0[None, :, j, None] * d[:kx, None]
    return TangentOfQ.from_coords(q, out.reshape(-1, dim))


# -- generator fields -----------------------------------------------------------


def frame_field_derivative(m, x, v):
    """Covariant derivatives of all deterministic frame fields along v at x,
    returned as an (n, amb) array, from the frame's connection form."""
    return m.connection_form(x, v) @ m.frame(x)


def rolling_generators() -> StructuredField:
    """The stack of rolling lifts of the deterministic frame, with
    closed-form derivatives: along a canonical curve the isometry
    differentiates to A C, and the frame fields to their connection form
    (RollingState.connection)."""

    def value(q):
        return rolling_lift(q, q.frame)

    def derivative(q, xi):
        # along xi[a] frame vector k moves by row k of its connection form
        # omega[a], and its image under A by A times row k of C[a]^T + omega[a]
        omega = np.einsum("ak,kij->aij", q.coords(xi.X), q.connection)
        d_image = xi.C.mT + omega
        return FieldData(q.from_coords(omega), q.from_coords_hat(d_image @ q.isometry.T),
                         np.zeros(omega.shape + (q.pair.dim,)))

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

    def to_json(self):
        return {
            "ranks": list(self.ranks),
            "singular_values": [sv.tolist() for sv in self.singular_values],
            "tol": self.tol,
            "gaps": [g if g != math.inf else None for g in self.gaps],
            "state": self.state.to_json(),
            "dim_state_space": q_dim(self.state.pair.dim),
        }


def flag_ranks(q: RollingState, depth=3, tol=1e-8) -> FlagReport:
    """Ranks of the canonical flag D, D + [D, D], ... of the rolling
    distribution at q, by SVD with a relative threshold.

    The distribution is spanned by the rolling lifts of the frame
    (rolling_generators); each flag step adjoins the table of brackets of the
    previous step's new fields with the generators, one stacked
    bracket_field.  Depth 2 is one bracket_structured of the generators with
    themselves; depth 3 differentiates that n x n table along each generator
    by one stencil, at four sample states per generator.  All vectors are
    expressed in TangentOfQ coordinates, and each step's vectors form one
    layer of the equilibrated rank rule of
    numerics.numerical_rank: the reported singular values are those of the
    rows after dropping round-off rows and dividing every layer by its
    longest row.
    """
    if depth < 1:
        raise GeometryError("flag depth must be at least 1")
    if depth > 6:
        raise GeometryError("flag depth above 6 is not supported")
    gens = rolling_generators()
    rows = gens.value(q).coords()
    layers = [len(rows)]
    steps = [numerical_rank(rows, tol, layers)]  # (rank, singular values, gap) per flag step
    current = gens
    full = q_dim(q.pair.dim)
    for _ in range(1, depth):
        rank = steps[-1][0]
        if rank == full or (len(steps) > 1 and rank == steps[-2][0]):
            # a stationary flag stays stationary: pad to the requested depth
            steps.append(steps[-1])
            continue
        current = bracket_field(current, gens)
        new = current.value(q).coords()
        rows = np.concatenate((rows, new))
        layers.append(len(new))
        steps.append(numerical_rank(rows, tol, layers))
    ranks, svs, gaps = zip(*steps)
    return FlagReport(q, ranks, list(svs), tol, gaps)


def controllability_verdict(q: RollingState) -> bool:
    """Bracket-generating test at q: the flag reaches the full dimension
    2n + n(n-1)/2 of the state space."""
    report = flag_ranks(q, depth=3)
    return report.ranks[-1] == q_dim(q.pair.dim)
