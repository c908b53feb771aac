"""State space of the rolling model and its differential calculus.

A state q = (x, x_hat; A) holds contact points on both manifolds and an
orientation-preserving isometry between the tangent spaces, stored as a
matrix in the deterministic orthonormal frames.  Tangent vectors of the
state space decompose into a no-spin part, moving both base points while
transporting A in parallel frames, and a vertical part, moving A alone
along the fiber curve A expm(tC) for skew C.

Canonical curves, which combine both motions, are built in stacks: one
tangent_curve call takes rows of (base state, X, X_hat, C, t) and returns a
state per row, and every stencil on the state space draws all its sample states
from one such call.

Rolling a path gamma in the first factor integrates the kinematic
constraints of rolling without slipping (contact velocities match) or
twisting (A is parallel): gamma_hat' = A gamma' with A constant in
co-transported parallel frames.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .curvature import check_skew, skew_part, skew_to_vector, so_dim, vector_to_skew
from .numerics import central_diff, expm1_stack, running_products, stencil_offsets
from .spaces import (
    DEFAULT_STEP,
    ConstantCurvature,
    GeometryError,
    SpaceForm,
    _rk4,
    _substeps,
)

ISOMETRY_TOL = 1e-9
FD_STEP = 1e-4
FD_STEP_FIBER = 1e-5
# the chart differential of the FD bracket oracle: its own step and order
CHART_STEP = 1e-5
CHART_ORDER = 4


class RollingPair:
    """An ordered pair of catalog manifolds of equal dimension n >= 2."""

    def __init__(self, space: SpaceForm, space_hat: SpaceForm):
        if space.dim != space_hat.dim:
            raise GeometryError("rolling requires manifolds of equal dimension")
        if space.dim < 2:
            raise GeometryError("rolling needs manifolds of dimension n >= 2")
        self.space = space
        self.space_hat = space_hat
        self.dim = space.dim

    def state(self, x, x_hat, isometry) -> "RollingState":
        """The state (x, x_hat; isometry), after every check of _check_rows."""
        x, x_hat, a = (np.asarray(v, float) for v in (x, x_hat, isometry))
        _check_rows(self, x[None], x_hat[None], a[None])
        return RollingState(self, x, x_hat, a)

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


def _check_rows(pair, x, x_hat, a):
    """Every check of a state on rows of states: each point on its manifold,
    each contact map an orientation-preserving isometry.  Returns the
    isometry residuals."""
    n = pair.dim
    for m, pts in ((pair.space, x), (pair.space_hat, x_hat)):
        if m.point(pts).shape != (len(a), m.amb_dim):
            raise GeometryError(f"expected one point per contact map, got shape {pts.shape}")
    if a.shape[1:] != (n, n):
        raise GeometryError(f"contact map must be a {n} x {n} matrix")
    residuals = np.linalg.norm(a.mT @ a - np.eye(n), axis=(1, 2))
    if not residuals.max() <= ISOMETRY_TOL:
        raise GeometryError(f"contact map is not an isometry (residual {residuals.max():.3e})")
    if np.any(np.linalg.det(a) <= 0):
        raise GeometryError("contact map must preserve orientation")
    return residuals


@dataclass
class RollingState:
    pair: RollingPair
    x: np.ndarray
    x_hat: np.ndarray
    isometry: np.ndarray

    def __post_init__(self):
        # RollingPair.state and tangent_curve check the states they build
        self._basis = None  # (frame, kept indices) at x, see _fill_bases
        self._basis_hat = None
        self._connection = None
        self.transports = None  # (fwd, fwd_hat) from the base of a canonical curve

    @property
    def frame(self):
        """The deterministic frame at x, one row of SpaceForm.frames."""
        if self._basis is None:
            _fill_bases([self], ("",))
        return self._basis[0]

    @property
    def frame_hat(self):
        if self._basis_hat is None:
            _fill_bases([self], ("_hat",))
        return self._basis_hat[0]

    @property
    def connection(self):
        """The connection forms of the first factor's deterministic frame
        along its own vectors, an (n, n, n) array: omega(v) is the sum of
        v's frame coordinates against the first axis."""
        if self._connection is None:
            fr = self.frame  # fills self._basis
            self._connection = self.pair.space.connection_form(self.x, fr, self._basis)
        return self._connection

    def coords(self, w):
        return self.pair.space.frame_coords(self.x, self.frame, w)

    def coords_hat(self, w):
        return self.pair.space_hat.frame_coords(self.x_hat, self.frame_hat, w)

    def from_coords(self, c):
        """Tangent vectors at x from frame coordinates (..., n)."""
        return np.asarray(c, float) @ self.frame

    def from_coords_hat(self, c):
        return np.asarray(c, float) @ self.frame_hat

    def apply(self, w):
        """Image of ambient tangent vectors (..., amb) at x under the contact map."""
        return self.from_coords_hat(self.coords(w) @ self.isometry.T)

    def to_json(self) -> dict:
        return {"x": self.x.tolist(), "x_hat": self.x_hat.tolist(),
                "A": self.isometry.tolist()}


@dataclass
class TangentOfQ:
    """Tangent vector of the state space in the canonical decomposition:
    a no-spin part moving the base points with velocities (X, X_hat) and a
    vertical part tangent to A expm(tC).  X, X_hat and C may carry a leading
    axis: the tangent is then a stack of vectors at the same state, and
    `coords` and `from_coords` work row by row."""

    state: RollingState
    X: np.ndarray
    X_hat: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, float)
        self.X_hat = np.asarray(self.X_hat, float)
        self.C = np.asarray(self.C, float)
        check_skew(self.C, tol=1e-12, what="vertical component")

    def __getitem__(self, index):
        """Row `index` of a stack."""
        return TangentOfQ(self.state, self.X[index], self.X_hat[index], self.C[index])

    def coords(self):
        q = self.state
        return np.concatenate(
            (q.coords(self.X), q.coords_hat(self.X_hat), skew_to_vector(self.C)), axis=-1
        )

    @classmethod
    def from_coords(cls, state: RollingState, vec):
        n = state.pair.dim
        vec = np.asarray(vec, float)
        return cls(
            state,
            state.from_coords(vec[..., :n]),
            state.from_coords_hat(vec[..., n : 2 * n]),
            vector_to_skew(vec[..., 2 * n :], n),
        )


def q_dim(n):
    return 2 * n + so_dim(n)


def rolling_lift(q: RollingState, X) -> TangentOfQ:
    """Lift of a tangent vector at x (or a stack of them) to the rolling
    distribution: the base points move with matched contact velocities
    (X, AX) and A stays put."""
    X = np.asarray(X, float)
    err = q.pair.space.tangency_residual(q.x, X)
    if np.any(err > 1e-8 * np.maximum(1.0, np.linalg.norm(X, axis=-1))):
        raise GeometryError("lifted vector is not tangent at the contact point")
    n = q.pair.dim
    return TangentOfQ(q, X, q.apply(X), np.zeros(X.shape[:-1] + (n, n)))


# -- canonical curves and transports ------------------------------------------


def det_transport_matrix(m: SpaceForm, x, v, t):
    """Matrix taking deterministic-frame coordinates at x to those at the
    geodesic point, through parallel transport along the geodesic."""
    return _flow_rows(m, [x], zip(*m.frames([x], kept=True)), v, np.array([t], float))[1][0]


def _fill_bases(qs, sides=("", "_hat")):
    """Give every state of qs that has none its (frame, kept indices) on each
    factor of sides ("" the first, "_hat" the second), from one
    SpaceForm.frames call per factor over those states."""
    pair = qs[0].pair
    for side in sides:
        m, attr = pair.space_hat if side else pair.space, "_basis" + side
        todo = [q for q in qs if getattr(q, attr) is None]
        if todo:
            bases = zip(*m.frames([getattr(q, "x" + side) for q in todo], kept=True))
            for q, basis in zip(todo, bases):
                setattr(q, attr, basis)


def _flow_rows(m, points, bases, v, t):
    """Per row, the point at time t[i] of the geodesic of (points[i], v[i])
    on m, det_transport_matrix to it and its basis, given the bases at the
    points.  A row with v[i] = 0 keeps its point and basis with the identity
    transport; the moving rows flow in one geodesic_flow and one
    transport_along_geodesic call and take their bases from one frames call."""
    v = np.broadcast_to(np.asarray(v, float), (len(points), m.amb_dim))
    fwd = np.tile(np.eye(m.dim), (len(points), 1, 1))
    points, bases = list(points), list(bases)
    move = np.flatnonzero(v.any(axis=1))
    if len(move):
        x, v, t = np.array([points[i] for i in move]), v[move], t[move]
        xt = m.geodesic_flow(x, v, t)[0]
        moved = m.transport_along_geodesic(x[:, None], v[:, None], t[:, None],
                                           np.array([bases[i][0] for i in move]))
        frames, kept = m.frames(xt, kept=True)
        for k, i in enumerate(move):
            points[i], bases[i] = xt[k], (frames[k], kept[k])
        fwd[move] = m.inner_at(xt[:, None, None], frames[:, :, None], moved[:, None])
    return points, fwd, bases


def tangent_curve(qs, X, X_hat, C, t) -> list:
    """The canonical curves of a stack of rows, one state per row: row i
    starts at qs[i] (rows may share a base) with velocity (X[i], X_hat[i],
    C[i]), each broadcast against the rows, and stops at time t[i].  Both
    base points run along geodesics, A is transported in parallel frames and
    composed with expm(tC) on the fiber.  Each state keeps the two
    frame-transport matrices from its base (det_transport_matrix on each
    factor) as its `transports`, through which values at it are pulled back.
    Only rows with C != 0 enter the one stacked expm, one SVD takes the
    nearest rotations, and every check of RollingState runs once over the
    whole stack."""
    pair, rows, n = qs[0].pair, len(qs), qs[0].pair.dim
    t = np.broadcast_to(np.asarray(t, float), (rows,))
    C = np.broadcast_to(np.asarray(C, float), (rows, n, n))
    _fill_bases(qs)
    xt, fwd, basis = _flow_rows(pair.space, [q.x for q in qs], [q._basis for q in qs], X, t)
    xht, fwd_hat, basis_hat = _flow_rows(pair.space_hat, [q.x_hat for q in qs],
                                         [q._basis_hat for q in qs], X_hat, t)
    a = fwd_hat @ np.array([q.isometry for q in qs])
    spin = np.flatnonzero(C.any(axis=(1, 2)))
    if len(spin):
        a[spin] = a[spin] @ expm(t[spin, None, None] * C[spin])
    a = a @ fwd.mT
    # strip accumulated round-off before the isometry check; anything beyond
    # round-off scale indicates a genuine defect and must surface
    drift = np.linalg.norm(a.mT @ a - np.eye(n), axis=(1, 2))
    if np.any(drift > 1e-6):
        raise GeometryError(f"canonical curve left the isometry bundle by "
                            f"{drift[drift > 1e-6].max():.3e}")
    a = _nearest_rotation(a)
    _check_rows(pair, np.array(xt), np.array(xht), a)
    out = []
    for i in range(rows):
        qt = RollingState(pair, xt[i], xht[i], a[i])
        qt._basis, qt._basis_hat = basis[i], basis_hat[i]  # built above, the same frames
        qt.transports = fwd[i], fwd_hat[i]
        out.append(qt)
    return out


def _nearest_rotation(a):
    u, _, vt = np.linalg.svd(a)
    return u @ vt


def _stencil(samples, dt, order):
    """The FD bracket oracle's own stencil, kept apart from numerics.central_diff,
    over samples at the times _stencil_times(dt, order)."""
    if order == 4:
        return (-samples[0] + 8 * samples[1] - 8 * samples[2] + samples[3]) / (12 * dt)
    return (samples[0] - samples[1]) / (2 * dt)


def _stencil_times(dt, order):
    return (2 * dt, dt, -dt, -2 * dt) if order == 4 else (dt, -dt)


def curve_velocity(qs, samples, dt, order=2):
    """Rows (X, X_hat, C) of the velocities of state curves through qs, by
    symmetric differences of their states `samples` at the times
    _stencil_times(dt, order); C subtracts the no-spin rate of the measured
    base velocities, whose states come from one tangent_curve call."""
    pair, ts = qs[0].pair, _stencil_times(dt, order)

    def rate(attr, states):  # the stencil of an attribute along the times of each row
        values = np.array([[getattr(s, attr) for s in row] for row in states])
        return _stencil(values.swapaxes(0, 1), dt, order)

    X = pair.space.project(np.array([q.x for q in qs]), rate("x", samples))
    X_hat = pair.space_hat.project(np.array([q.x_hat for q in qs]), rate("x_hat", samples))
    ns = tangent_curve([q for q in qs for _ in ts], np.repeat(X, len(ts), axis=0),
                       np.repeat(X_hat, len(ts), axis=0), 0.0, np.tile(ts, len(qs)))
    ns = [ns[i : i + len(ts)] for i in range(0, len(ns), len(ts))]
    a_dot = rate("isometry", samples) - rate("isometry", ns)
    return X, X_hat, skew_part(np.array([q.isometry for q in qs]).mT @ a_dot)


# -- rolling curves -------------------------------------------------------------

GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
MAGNUS_COMMUTATOR = math.sqrt(3.0) / 12.0
BLOCK = 256  # grid intervals (or CSV rows) per batch of the array kernels


@dataclass
class RollingCurve:
    """A rolling motion sampled on a time grid, one row per sample time: the
    contact points, the contact map A in the deterministic frames and its
    isometry residual.  Construction applies every check of RollingState to
    every row."""

    pair: RollingPair
    times: np.ndarray
    x: np.ndarray
    x_hat: np.ndarray
    A: np.ndarray
    residuals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.residuals = _check_rows(self.pair, self.x, self.x_hat, self.A)

    def final_state(self) -> RollingState:
        return self.pair.state(self.x[-1], self.x_hat[-1], self.A[-1])

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
            csv.writer(fh).writerow(header)
            for lo in range(0, len(self.times), BLOCK):
                rows = slice(lo, lo + BLOCK)
                table = np.column_stack((self.times[rows], self.x[rows], self.x_hat[rows],
                                         self.A[rows].reshape(-1, n * n), self.residuals[rows]))
                # the repr of a list of rows writes every float by repr in one call;
                # reshaped, it is what csv.writer writes for rows of repr strings
                text = repr(table.tolist())[2:-2].replace("], [", "\r\n").replace(", ", ",")
                fh.write(text + "\r\n")


def roll_along(q0: RollingState, path, step=DEFAULT_STEP) -> RollingCurve:
    """Integrate the rolling constraints along a driving path in the first
    factor.  The isometry is kept constant in co-transported parallel frames
    and re-expressed in the deterministic frames at each sample time.

    When the second factor is a space form, its point and parallel frame form
    one group element, advanced by 4th-order Magnus steps (two Gauss nodes),
    and so does the first factor's parallel frame: as a group element with
    its point on a space form, as its rows with the fiber parts scaled by
    f(s) on a warped product.  The constraints then hold to round-off at any
    step.  Only a warped second factor falls back to RK4 on the frames."""
    pair = q0.pair
    times = np.asarray(path.sample_times(step), dtype=float)
    if not np.allclose(path.point(float(times[0])), q0.x, atol=1e-8):
        raise GeometryError("driving path does not start at the contact point")
    if np.any(np.diff(times) <= 0):
        raise GeometryError("driving path time grid must be increasing")
    if isinstance(pair.space_hat, ConstantCurvature):
        x, x_hat, a = _roll_magnus(q0, path, times, step)
    else:
        x, x_hat, a = _roll_rk4(q0, path, times, step)
    x[0], x_hat[0], a[0] = q0.x, q0.x_hat, q0.isometry  # the first row is q0 itself
    return RollingCurve(pair, times, x, x_hat, a)


def _roll_magnus(q0, path, times, step):
    """Rows of (x, x_hat, A) at the sample times, grid block by grid block.

    The first factor's parallel frame is carried by its group element g
    (`group_element`, read back by `group_frame`) with g' = g Z, Z =
    transport_generators(x, v): on a space form the rows of g are the
    parallel frame and the point, on a warped product the parallel frame with
    its fiber parts scaled by f(s).  Neither depends on the deterministic
    frame, which jumps where its Gram-Schmidt skips a different basis vector.
    The second factor's H (columns: the images of that frame, the point)
    follows H' = H X(c), c the coordinates of the path velocity in the
    parallel frame.  c is needed at the Gauss nodes of each step, so g is
    also carried from the start of the step to each node by a Magnus step of
    its own.  Both factors start from their points moved onto the manifold
    and the rotation nearest to A, so that round-off in q0 is not amplified
    along the roll."""
    m, mh, n = q0.pair.space, q0.pair.space_hat, q0.pair.dim
    counts = _substeps(np.diff(times), step)
    first = np.cumsum(counts) - counts
    which = np.repeat(np.arange(len(counts)), counts)
    frac = (np.arange(counts.sum()) - first[which]) / counts[which]
    grid = np.append(times[which] + frac * np.diff(times)[which], times[-1])
    out = np.append(first, counts.sum())  # the sample times within the grid

    x0 = m.closest_point(q0.x)
    g = m.group_element(x0, m.frame(x0))
    size = g.shape[-1]
    x_hat0 = mh.closest_point(q0.x_hat)
    hh = mh.group_element(x_hat0, _nearest_rotation(q0.isometry).T @ mh.frame(x_hat0)).T
    x = path.point(times)
    x_hat = np.empty((len(times), mh.amb_dim))
    a = np.empty((len(times), n, n))
    for lo in range(0, len(grid) - 1, BLOCK):
        hi = min(lo + BLOCK, len(grid) - 1)
        h = np.diff(grid[lo : hi + 1])
        # three Magnus steps from each grid point: the step itself and the
        # partial steps to its two Gauss nodes, each with its own two nodes
        span = h[:, None] * np.concatenate(([1.0], GAUSS_NODES))
        at = (grid[lo:hi, None, None] + span[:, :, None] * GAUSS_NODES).ravel()
        pts, vel = path.flow(at)
        z = m.transport_generators(pts, vel).reshape(-1, 2, size, size)
        d = expm1_stack(_magnus(z, span.ravel())).reshape(hi - lo, 3, size, size)
        step_d = running_products(d[:, 0])
        g_start = np.concatenate((g[None], g + g @ step_d[:-1]))[:, None]
        g_node = g_start + g_start @ d[:, 1:]
        node_pts, node_vel = (p.reshape(hi - lo, 3, 2, -1)[:, 0] for p in (pts, vel))
        frames = m.group_frame(node_pts, g_node)
        c = m.inner_at(node_pts[..., None, :], frames, node_vel[..., None, :])
        xi = mh.development_generators(c.reshape(-1, n)).reshape(hi - lo, 2, n + 1, n + 1)
        gs, hs = g + g @ step_d, hh + hh @ running_products(expm1_stack(_magnus(xi, h)))
        g, hh = gs[-1], hs[-1]
        keep = np.flatnonzero((out > lo) & (out <= hi))
        at_row = out[keep] - lo - 1
        x_hat[keep] = hs[at_row, : mh.amb_dim, n]
        a[keep] = _redress(q0.pair, x[keep], x_hat[keep], m.group_frame(x[keep], gs[at_row]),
                           hs[at_row, : mh.amb_dim, :n])
    return x, x_hat, a


def _magnus(gens, h):
    """4th-order Magnus exponent of Y' = Y M(t) over steps of lengths h,
    from M at the two Gauss nodes of each step (gens[:, 0] and gens[:, 1])."""
    a, b = gens[:, 0], gens[:, 1]
    h = h[:, None, None]
    return h / 2 * (a + b) + MAGNUS_COMMUTATOR * h * h * (a @ b - b @ a)


def _roll_rk4(q0, path, times, step):
    """The same rows as _roll_magnus, by RK4 on the second factor's point and
    both parallel frames (for warped factors)."""
    pair = q0.pair
    m, mh = pair.space, pair.space_hat
    n, amb, amb_hat = pair.dim, m.amb_dim, mh.amb_dim
    a_par = q0.isometry  # constant matrix in the parallel frames

    def pack(x_hat, frame, frame_hat):
        return np.concatenate((x_hat, frame.ravel(), frame_hat.ravel()))

    def rhs(t, y):
        x = path.point(t)
        v = path.velocity(t)
        x_hat = y[:amb_hat]
        frame = y[amb_hat : amb_hat + n * amb].reshape(n, amb)
        frame_hat = y[amb_hat + n * amb :].reshape(n, amb_hat)
        v_hat = frame_hat.T @ (a_par @ m.inner_at(x, v, frame))
        return pack(v_hat, m.transport_rhs(x, v, frame), mh.transport_rhs(x_hat, v_hat, frame_hat))

    ys = [pack(q0.x_hat, q0.frame, q0.frame_hat)]
    for a, b in zip(times[:-1], times[1:]):
        ys.append(_rk4(rhs, ys[-1], a, b, _substeps(b - a, step)))
    ys = np.array(ys)
    frame = ys[:, amb_hat : amb_hat + n * amb].reshape(-1, n, amb)
    frame_hat = ys[:, amb_hat + n * amb :].reshape(-1, n, amb_hat)
    x, x_hat = path.point(times), ys[:, :amb_hat]
    return x, x_hat, _redress(pair, x, x_hat, frame, np.swapaxes(frame_hat, 1, 2) @ a_par)


def _redress(pair, x, x_hat, frame, image):
    """The contact map in the deterministic frames at every row, from the
    parallel frame at x (rows) and its images at x_hat (columns): A[j, i] is
    the inner product of deterministic frame vector j at x_hat with the image
    of deterministic frame vector i at x, expanded in the parallel frame."""
    m, mh = pair.space, pair.space_hat
    det_fr, det_fr_hat = m.frames(x), mh.frames(x_hat)
    s = (frame * m.metric_weights(x)[..., None, :]) @ np.swapaxes(det_fr, 1, 2)
    return (det_fr_hat * mh.metric_weights(x_hat)[..., None, :]) @ image @ s


def roll_geodesic(q0: RollingState, direction, t) -> RollingState:
    """Closed-form rolling along a geodesic of the first factor: the
    development is the geodesic of the matched velocity, and the isometry is
    conjugated by the two geodesic transports."""
    xi = rolling_lift(q0, direction)
    return tangent_curve([q0], xi.X, xi.X_hat, xi.C, t)[0]


# -- derivatives of bundle maps -------------------------------------------------

VALUE_KINDS = ("scalar", "vector", "vector_hat", "map")


def _pull_back(q: RollingState, qt: RollingState, value, kind):
    """A value at the canonical-curve state qt (or a stack of values, along
    the leading axes), parallel-transported back to q through the
    frame-transport matrices that qt keeps."""
    fwd, fwd_hat = qt.transports
    if kind == "vector":
        return q.from_coords(qt.coords(value) @ fwd)
    if kind == "vector_hat":
        return q.from_coords_hat(qt.coords_hat(value) @ fwd_hat)
    if kind == "map":
        return fwd_hat.T @ value @ fwd
    return value


def directional_derivative(func, rows, kinds, h=FD_STEP, order=2):
    """Covariant derivatives of a tuple of state-dependent tensor values
    along the canonical curve of each (q, xi) of rows, one tuple per row, by
    central differences with parallel pull-back.

    `func` returns a tuple of values, and `kinds` declares slot by slot how
    each transports: 'vector' / 'vector_hat' for tangent vectors on either
    factor, 'map' for frame matrices of maps T_x M -> T_xhat Mhat (like the
    isometry), 'scalar' for functions.  One tangent_curve call builds the
    sample states of all rows, row by row and within a row at the times
    stencil_offsets(h, order).
    """
    if not set(kinds) <= set(VALUE_KINDS):
        raise GeometryError(f"unknown value kind in {kinds!r}")
    if not rows:
        return []
    ts = stencil_offsets(h, order)
    xis = [xi for _, xi in rows for _ in ts]
    states = tangent_curve([q for q, _ in rows for _ in ts], [xi.X for xi in xis],
                           [xi.X_hat for xi in xis], [xi.C for xi in xis], ts * len(rows))

    def pulled(q, qt):
        return tuple(_pull_back(q, qt, v, k) for v, k in zip(func(qt), kinds))

    return [central_diff([pulled(q, qt) for qt in states[i * len(ts) : (i + 1) * len(ts)]], h)
            for i, (q, _) in enumerate(rows)]


def rolling_derivative(func, qs, Xs, kinds):
    """Derivatives along the rolling curves whose initial velocities are the
    rolling lifts of Xs[i] at qs[i], one per state, with values pulled back to
    the contact points."""
    _fill_bases(qs)  # the lifts read every frame
    rows = [(q, rolling_lift(q, X)) for q, X in zip(qs, Xs)]
    return directional_derivative(func, rows, kinds)


def vertical_derivative(func, qs, Cs, kinds):
    """Derivatives of a state-dependent value along the fiber curves
    A expm(tC) through qs[i] with C = Cs[i], one per state; only the isometry
    moves, so no transport is involved."""
    rows = [(q, TangentOfQ(q, np.zeros(q.pair.space.amb_dim), np.zeros(q.pair.space_hat.amb_dim),
                           check_skew(np.asarray(C, float), tol=1e-10, what="fiber direction")))
            for q, C in zip(qs, Cs)]
    return directional_derivative(func, rows, kinds, h=FD_STEP_FIBER)


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

    def differential(self, thetas):
        """Matrices of the chart differential at a stack of chart coordinates
        (m, dim), column by column in TangentOfQ coordinates of the state at
        each, and those states, by stencils of CHART_ORDER with CHART_STEP.
        The states and every column stencil's chart points come from one
        tangent_curve call, and curve_velocity takes all columns at once."""
        dim, ts = self.dim, _stencil_times(CHART_STEP, CHART_ORDER)
        # per theta: theta itself, then theta + t e_k for each column k and time t
        steps = np.concatenate((np.zeros((1, dim)),
                                (np.eye(dim)[:, None] * np.array(ts)[:, None]).reshape(-1, dim)))
        xi = TangentOfQ.from_coords(self.center, (thetas[:, None] + steps).reshape(-1, dim))
        states = tangent_curve([self.center] * len(xi.X), xi.X, xi.X_hat, xi.C, 1.0)
        centers = states[:: len(steps)]
        samples = [states[i : i + len(ts)] for c in range(len(thetas))
                   for i in range(c * len(steps) + 1, (c + 1) * len(steps), len(ts))]
        X, X_hat, C = curve_velocity([q for q in centers for _ in range(dim)], samples,
                                     CHART_STEP, CHART_ORDER)
        mats = [TangentOfQ(q, X[k : k + dim], X_hat[k : k + dim], C[k : k + dim]).coords().T
                for q, k in zip(centers, range(0, len(X), dim))]
        return np.array(mats), centers
