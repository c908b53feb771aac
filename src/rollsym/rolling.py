"""State space of the rolling model and its differential calculus.

A state q = (x, x_hat; A) holds contact points on both manifolds and an
orientation-preserving isometry between the tangent spaces, stored as a
matrix in the deterministic orthonormal frames.  Tangent vectors of the
state space decompose into a no-spin part, moving both base points while
transporting A in parallel frames, and a vertical part, moving A alone
along the fiber curve A expm(tC) for skew C.

Rolling a path gamma in the first factor integrates the kinematic
constraints of rolling without slipping (contact velocities match) or
twisting (A is parallel): gamma_hat' = A gamma' with A constant in
co-transported parallel frames.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .curvature import check_skew, skew_part, skew_to_vector, so_dim, vector_to_skew
from .numerics import central_diff
from .spaces import (
    DEFAULT_STEP,
    GeometryError,
    SpaceForm,
    _rk4,
    _steps_for,
)

ISOMETRY_TOL = 1e-9
FD_STEP = 1e-4
FD_STEP_FIBER = 1e-5


class RollingPair:
    """An ordered pair of equal-dimensional catalog manifolds."""

    def __init__(self, space: SpaceForm, space_hat: SpaceForm):
        if space.dim != space_hat.dim:
            raise GeometryError("rolling requires manifolds of equal dimension")
        self.space = space
        self.space_hat = space_hat
        self.dim = space.dim

    def state(self, x, x_hat, isometry) -> "RollingState":
        return RollingState(self, np.asarray(x, float), np.asarray(x_hat, float),
                            np.asarray(isometry, float))

    def random_state(self, rng) -> "RollingState":
        x = self.space.random_point(rng)
        x_hat = self.space_hat.random_point(rng)
        return self.state(x, x_hat, random_rotation(rng, self.dim))

    def state_from_json(self, data: dict) -> "RollingState":
        return self.state(data["x"], data["x_hat"], data["A"])


def random_rotation(rng, n):
    m = rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@dataclass
class RollingState:
    pair: RollingPair
    x: np.ndarray
    x_hat: np.ndarray
    isometry: np.ndarray

    def __post_init__(self):
        self.pair.space.point(self.x)
        self.pair.space_hat.point(self.x_hat)
        n = self.pair.dim
        if self.isometry.shape != (n, n):
            raise GeometryError(f"contact map must be a {n} x {n} matrix")
        res = self.isometry_residual()
        if not res <= ISOMETRY_TOL:
            raise GeometryError(f"contact map is not an isometry (residual {res:.3e})")
        if np.linalg.det(self.isometry) <= 0:
            raise GeometryError("contact map must preserve orientation")
        self._frame = None
        self._frame_hat = None

    def isometry_residual(self) -> float:
        A = self.isometry
        return float(np.linalg.norm(A.T @ A - np.eye(A.shape[0])))

    @property
    def frame(self):
        if self._frame is None:
            self._frame = self.pair.space.frame(self.x)
        return self._frame

    @property
    def frame_hat(self):
        if self._frame_hat is None:
            self._frame_hat = self.pair.space_hat.frame(self.x_hat)
        return self._frame_hat

    def coords(self, w):
        return self.pair.space.frame_coords(self.x, self.frame, w)

    def coords_hat(self, w):
        return self.pair.space_hat.frame_coords(self.x_hat, self.frame_hat, w)

    def from_coords(self, c):
        return self.frame.T @ np.asarray(c, float)

    def from_coords_hat(self, c):
        return self.frame_hat.T @ np.asarray(c, float)

    def apply(self, w):
        """Image of an ambient tangent vector at x under the contact map."""
        return self.from_coords_hat(self.isometry @ self.coords(w))

    def apply_inverse(self, w_hat):
        return self.from_coords(self.isometry.T @ self.coords_hat(w_hat))

    def to_json(self) -> dict:
        return {"x": self.x.tolist(), "x_hat": self.x_hat.tolist(),
                "A": self.isometry.tolist()}


@dataclass
class TangentOfQ:
    """Tangent vector of the state space in the canonical decomposition:
    a no-spin part moving the base points with velocities (X, X_hat) and a
    vertical part tangent to A expm(tC)."""

    state: RollingState
    X: np.ndarray
    X_hat: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, float)
        self.X_hat = np.asarray(self.X_hat, float)
        self.C = np.asarray(self.C, float)
        check_skew(self.C, tol=1e-12, what="vertical component")

    def coords(self):
        q = self.state
        return np.concatenate(
            (q.coords(self.X), q.coords_hat(self.X_hat), skew_to_vector(self.C))
        )

    @classmethod
    def from_coords(cls, state: RollingState, vec):
        n = state.pair.dim
        vec = np.asarray(vec, float)
        return cls(
            state,
            state.from_coords(vec[:n]),
            state.from_coords_hat(vec[n : 2 * n]),
            vector_to_skew(vec[2 * n :], n),
        )


def q_dim(n):
    return 2 * n + so_dim(n)


def rolling_lift(q: RollingState, X) -> TangentOfQ:
    """Lift of a tangent vector at x to the rolling distribution: the base
    points move with matched contact velocities (X, AX) and A stays put."""
    X = np.asarray(X, float)
    err = q.pair.space.tangency_residual(q.x, X)
    if err > 1e-8 * max(1.0, float(np.linalg.norm(X))):
        raise GeometryError("lifted vector is not tangent at the contact point")
    n = q.pair.dim
    return TangentOfQ(q, X, q.apply(X), np.zeros((n, n)))


# -- canonical curves and transports ------------------------------------------


def det_transport_matrix(m: SpaceForm, x, v, t):
    """Matrix taking deterministic-frame coordinates at x to those at the
    geodesic point, through parallel transport along the geodesic."""
    fr0 = m.frame(x)
    xt = m.geodesic_arr(x, v, t)
    frt = m.frame(xt)
    cols = []
    for i in range(m.dim):
        w = m.transport_along_geodesic(x, v, t, fr0[i])
        cols.append(m.frame_coords(xt, frt, w))
    return np.array(cols).T


def tangent_curve(q: RollingState, xi: TangentOfQ, t) -> RollingState:
    """The canonical curve through q with initial velocity xi: both base
    points run along geodesics, A is transported in parallel frames and
    composed with expm(tC) on the fiber."""
    pair = q.pair
    m, mh = pair.space, pair.space_hat
    xt = m.geodesic_arr(q.x, xi.X, t)
    xht = mh.geodesic_arr(q.x_hat, xi.X_hat, t)
    fwd = det_transport_matrix(m, q.x, xi.X, t)
    fwd_hat = det_transport_matrix(mh, q.x_hat, xi.X_hat, t)
    a_new = fwd_hat @ q.isometry @ expm(t * xi.C) @ fwd.T
    # strip accumulated round-off before the isometry check; anything beyond
    # round-off scale indicates a genuine defect and must surface
    drift = np.linalg.norm(a_new.T @ a_new - np.eye(a_new.shape[0]))
    if drift > 1e-6:
        raise GeometryError(f"canonical curve left the isometry bundle by {drift:.3e}")
    a_new = _nearest_rotation(a_new)
    return pair.state(xt, xht, a_new)


def _nearest_rotation(a):
    u, _, vt = np.linalg.svd(a)
    return u @ vt


def _stencil(samples, dt, order):
    """The FD bracket oracle's own stencil, kept apart from numerics.central_diff."""
    if order == 4:
        return (-samples[0] + 8 * samples[1] - 8 * samples[2] + samples[3]) / (12 * dt)
    return (samples[0] - samples[1]) / (2 * dt)


def curve_velocity(q: RollingState, state_at, dt, order=2) -> TangentOfQ:
    """Decompose the velocity of a state curve t -> state_at(t) through q
    into (X, X_hat, C) components, by symmetric differences; the vertical
    part subtracts the no-spin rate of the measured base velocities."""
    pair = q.pair
    ts = (2 * dt, dt, -dt, -2 * dt) if order == 4 else (dt, -dt)
    states = [state_at(t) for t in ts]
    X = pair.space.project(q.x, _stencil([s.x for s in states], dt, order))
    X_hat = pair.space_hat.project(q.x_hat, _stencil([s.x_hat for s in states], dt, order))
    a_dot = _stencil([s.isometry for s in states], dt, order)
    ns = TangentOfQ(q, X, X_hat, np.zeros((pair.dim, pair.dim)))
    a_dot_ns = _stencil([tangent_curve(q, ns, t).isometry for t in ts], dt, order)
    c = skew_part(q.isometry.T @ (a_dot - a_dot_ns))
    return TangentOfQ(q, X, X_hat, c)


# -- rolling curves -------------------------------------------------------------


@dataclass
class RollingCurve:
    pair: RollingPair
    times: np.ndarray
    states: list
    base_path: object

    def final_state(self) -> RollingState:
        return self.states[-1]

    def isometry_residuals(self):
        return np.array([s.isometry_residual() for s in self.states])

    def write_csv(self, path):
        n = self.pair.dim
        amb, amb_hat = self.pair.space.amb_dim, self.pair.space_hat.amb_dim
        header = (
            ["t"]
            + [f"x{i}" for i in range(amb)]
            + [f"xhat{i}" for i in range(amb_hat)]
            + [f"A{i}{j}" for i in range(n) for j in range(n)]
            + ["isometry_residual"]
        )
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for t, s in zip(self.times, self.states):
                row = (
                    [repr(float(t))]
                    + [repr(float(c)) for c in s.x]
                    + [repr(float(c)) for c in s.x_hat]
                    + [repr(float(c)) for c in s.isometry.ravel()]
                    + [repr(float(s.isometry_residual()))]
                )
                writer.writerow(row)


def roll_along(q0: RollingState, path, step=DEFAULT_STEP, project=False) -> RollingCurve:
    """Integrate the rolling constraints along a driving path in the first
    factor.  The isometry is kept constant in co-transported parallel frames
    and re-expressed in the deterministic frames at each sample time."""
    pair = q0.pair
    m, mh = pair.space, pair.space_hat
    n = pair.dim
    t_start = float(path.sample_times(step)[0])
    if not np.allclose(path.point(t_start), q0.x, atol=1e-8):
        raise GeometryError("driving path does not start at the contact point")

    amb, amb_hat = m.amb_dim, mh.amb_dim
    a_par = np.array(q0.isometry)  # constant matrix in the parallel frames

    def pack(x_hat, frame, frame_hat):
        return np.concatenate((x_hat, frame.ravel(), frame_hat.ravel()))

    def unpack(y):
        x_hat = y[:amb_hat]
        frame = y[amb_hat : amb_hat + n * amb].reshape(n, amb)
        frame_hat = y[amb_hat + n * amb :].reshape(n, amb_hat)
        return x_hat, frame, frame_hat

    def rhs(t, y):
        x = path.point(t)
        v = path.velocity(t)
        x_hat, frame, frame_hat = unpack(y)
        coeff = np.array([m.inner_at(x, v, frame[k]) for k in range(n)])
        v_hat = frame_hat.T @ (a_par @ coeff)
        d_frame = np.array([m.transport_rhs(x, v, frame[k]) for k in range(n)])
        d_frame_hat = np.array([mh.transport_rhs(x_hat, v_hat, frame_hat[k]) for k in range(n)])
        return pack(v_hat, d_frame, d_frame_hat)

    times = path.sample_times(step)
    y = pack(q0.x_hat, np.array(q0.frame), np.array(q0.frame_hat))
    states = [q0]
    for a, b in zip(times[:-1], times[1:]):
        if b <= a:
            raise GeometryError("driving path time grid must be increasing")
        y = _rk4(rhs, y, a, b, _steps_for(b - a, step))
        x_hat, frame, frame_hat = unpack(y)
        if project:
            x_hat = mh.closest_point(x_hat)
            frame = _gram_schmidt(m, path.point(b), frame)
            frame_hat = _gram_schmidt(mh, x_hat, frame_hat)
            y = pack(x_hat, frame, frame_hat)
        x = path.point(b)
        a_det = _redress(pair, x, x_hat, frame, frame_hat, a_par)
        states.append(RollingState(pair, x, mh.closest_point(x_hat) if project else x_hat, a_det))
    return RollingCurve(pair, times, states, path)


def _gram_schmidt(m, x, rows):
    out = []
    for v in rows:
        v = m.project(x, v)
        for r in out:
            v = v - m.inner_at(x, v, r) * r
        out.append(v / math.sqrt(m.inner_at(x, v, v)))
    return np.array(out)


def _redress(pair, x, x_hat, frame_par, frame_hat_par, a_par):
    """Re-express the parallel-frame matrix of the isometry in the
    deterministic frames at the current contact points."""
    m, mh = pair.space, pair.space_hat
    n = pair.dim
    det_fr = m.frame(x)
    det_fr_hat = mh.frame(x_hat)
    s = np.array([[m.inner_at(x, det_fr[i], frame_par[k]) for i in range(n)] for k in range(n)])
    s_hat = np.array(
        [[mh.inner_at(x_hat, det_fr_hat[j], frame_hat_par[k]) for j in range(n)] for k in range(n)]
    )
    return s_hat.T @ a_par @ s


def roll_geodesic(q0: RollingState, direction, t) -> RollingState:
    """Closed-form rolling along a geodesic of the first factor: the
    development is the geodesic of the matched velocity, and the isometry is
    conjugated by the two geodesic transports."""
    xi = rolling_lift(q0, direction)
    return tangent_curve(q0, xi, t)


# -- derivatives of bundle maps -------------------------------------------------

VALUE_KINDS = ("scalar", "vector", "vector_hat", "pair", "map", "endo", "endo_hat")


def _pull_back(q0: RollingState, xi: TangentOfQ, t, value, kind):
    pair = q0.pair
    m, mh = pair.space, pair.space_hat
    if kind == "scalar":
        return value
    if kind == "vector":
        xt, vt = m.geodesic_flow(q0.x, xi.X, t)
        return m.transport_along_geodesic(xt, vt, -t, value)
    if kind == "vector_hat":
        xt, vt = mh.geodesic_flow(q0.x_hat, xi.X_hat, t)
        return mh.transport_along_geodesic(xt, vt, -t, value)
    if kind == "pair":
        return (
            _pull_back(q0, xi, t, value[0], "vector"),
            _pull_back(q0, xi, t, value[1], "vector_hat"),
        )
    fwd = det_transport_matrix(m, q0.x, xi.X, t)
    fwd_hat = det_transport_matrix(mh, q0.x_hat, xi.X_hat, t)
    if kind == "map":
        return fwd_hat.T @ value @ fwd
    if kind == "endo":
        return fwd.T @ value @ fwd
    if kind == "endo_hat":
        return fwd_hat.T @ value @ fwd_hat
    raise GeometryError(f"unknown value kind {kind!r}")


def directional_derivative(func, q: RollingState, xi: TangentOfQ, kind,
                           h=FD_STEP, order=2):
    """Covariant derivative of a state-dependent tensor value along the
    canonical curve of xi, by central differences with parallel pull-back.

    `kind` declares how the value transports: 'vector' / 'vector_hat' for
    tangent vectors on either factor, 'pair' for a vector on each, 'map'
    for frame matrices of maps T_x M -> T_xhat Mhat (like the isometry),
    'endo' / 'endo_hat' for endomorphism fields, 'scalar' for functions.
    """
    if kind not in VALUE_KINDS:
        raise GeometryError(f"unknown value kind {kind!r}")

    def sample(t):
        return _pull_back(q, xi, t, func(tangent_curve(q, xi, t)), kind)

    return central_diff(sample, h, order)


def rolling_derivative(func, q: RollingState, X, kind, h=FD_STEP, order=2):
    """Derivative along the rolling curve with initial velocity the rolling
    lift of X, with values pulled back to the contact points."""
    return directional_derivative(func, q, rolling_lift(q, X), kind, h=h, order=order)


def vertical_derivative(func, q: RollingState, C, kind, h=FD_STEP_FIBER, order=2):
    """Derivative of a state-dependent value along the fiber curve
    A expm(tC); only the isometry moves, so no transport is involved."""
    C = np.asarray(C, float)
    check_skew(C, tol=1e-10, what="fiber direction")
    amb, amb_hat = q.pair.space.amb_dim, q.pair.space_hat.amb_dim
    xi = TangentOfQ(q, np.zeros(amb), np.zeros(amb_hat), C)
    return directional_derivative(func, q, xi, kind, h=h, order=order)


# -- the chart around a state ----------------------------------------------------


class Chart:
    """Local parametrization of the state space at a center state:
    (u, u_hat, omega) -> (exp_x(E u), exp_xhat(Ehat u_hat), transported
    A expm(omega)), with E, Ehat the deterministic frames.  Its differential
    at the origin is the identity in TangentOfQ coordinates."""

    def __init__(self, center: RollingState):
        self.center = center
        self.n = center.pair.dim
        self.dim = q_dim(self.n)

    def tangent_of(self, theta) -> TangentOfQ:
        return TangentOfQ.from_coords(self.center, np.asarray(theta, float))

    def point(self, theta) -> RollingState:
        return tangent_curve(self.center, self.tangent_of(theta), 1.0)

    def differential(self, theta, h=1e-5, order=4):
        """Matrix of the chart differential at theta, column by column, in
        TangentOfQ coordinates of the state at theta."""
        q_theta = self.point(theta)
        theta = np.asarray(theta, float)
        cols = []
        for k in range(self.dim):
            e = np.zeros(self.dim)
            e[k] = 1.0
            xi = curve_velocity(q_theta, lambda t: self.point(theta + t * e), h, order=order)
            cols.append(xi.coords())
        return np.array(cols).T, q_theta
