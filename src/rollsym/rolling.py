"""State space of the rolling model and its differential calculus.

A state q = (x, x_hat; A) holds contact points on both manifolds and an
orientation-preserving isometry between the tangent spaces, stored as a
matrix in the deterministic orthonormal frames.  Tangent vectors of the
state space decompose into a no-spin part, moving both base points while
transporting A in parallel frames, and a vertical part, moving A alone
along the fiber curve A expm(tC) for skew C.  A tangent vector at q, or a
stack of them, is a row of length q_dim(n) = 2n + n(n-1)/2: the frame
coordinates of X at x, then those of X_hat at x_hat, then the so(n)
coordinates of C (curvature.skew_to_vector order).

States come in stacks: a RollingState holds one state or a stack of them
along leading axes, and every array it carries (points, contact maps, frames,
anchors, transports) has those leading axes first.  Canonical
curves, which combine both motions, are built as one stack: one tangent_curve
call takes a stack of base states, tangent rows and times, broadcast against
each other, and returns the stacked state at the end of every curve.  Every
stencil on the state space draws all its sample states from one such call and
evaluates its closure once on that stack.  tangent_curve is the one place
where tangent rows become ambient velocities.  It also passes on the anchor
of the curve's base, the first factor's point and frame at which the flag
generators are anchored, so that generators at the sample states of a
stencil are one smooth field.

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

from .curvature import skew_part, skew_to_vector, so_dim, vector_to_skew
from .numerics import central_diff, expm1_stack, running_products, stencil_offsets
from .spaces import (DEFAULT_STEP, POINT_TOL, ConstantCurvature, DomainError, GeodesicPath,
                     GeometryError, SpaceForm)

ISOMETRY_TOL = 1e-9
FD_STEP = 1e-4
FD_STEP_FIBER = 1e-5
CHART_STEP = 1e-5  # the FD bracket oracle's own step for its chart differential
# a span that exceeds a whole number of steps by no more than this relative
# amount is round-off (b - a of two grid times), not a reason for another substep
SUBSTEP_SLACK = 1e-9


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
        """The state (x, x_hat; isometry), or the stack of states along the
        leading axes of the isometry, after every check of _check_rows."""
        x, x_hat, a = (np.asarray(v, float) for v in (x, x_hat, isometry))
        _check_rows(self, x, x_hat, a)
        return RollingState(self, x, x_hat, a)

    def draw(self, rng, shape=()):
        """The (x, x_hat, A) of a random state, or of a stack of the given
        shape, unchecked: all points on the first factor, then all on the
        second, then all rotations, each array drawn whole."""
        return (self.space.random_point(rng, shape), self.space_hat.random_point(rng, shape),
                random_rotation(rng, self.dim, shape))

    def random_state(self, rng) -> "RollingState":
        return self.state(*self.draw(rng))

    def state_from_json(self, data: dict) -> "RollingState":
        q = self.state(data["x"], data["x_hat"], data["A"])
        if q.shape:
            raise GeometryError(f"a state holds one contact map, got a stack of shape {q.shape}")
        return q


def random_rotation(rng, n, shape=()):
    """Haar random rotations of R^n, a stack of the given shape from one QR
    (Mezzadri 2007), each first column flipped where det < 0."""
    q, r = np.linalg.qr(rng.standard_normal(shape + (n, n)))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    q[..., :, 0] *= np.where(np.linalg.det(q) < 0, -1.0, 1.0)[..., None]
    return q


def _transposed(a):
    """a.mT, copied out: NumPy multiplies stacks of small matrices faster."""
    return np.ascontiguousarray(a.mT)


def _check_rows(pair, x, x_hat, a):
    """Every check of a state on a stack of any leading shape: its points on
    their manifolds, its contact map an orientation-preserving isometry.
    Returns the isometry residuals.  Raises the first failing state's first
    failing check, from its own values, with its flat index as `row`."""
    n = pair.dim
    if a.shape[-2:] != (n, n):
        raise GeometryError(f"contact map must be a {n} x {n} matrix")
    for pts in (x, x_hat):
        if pts.shape[:-1] != a.shape[:-2]:
            raise GeometryError(f"expected one point per contact map, got shape {pts.shape}")
    error = np.maximum(pair.space.point_error(x), pair.space_hat.point_error(x_hat))  # NaN fails
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is an inf residual
        residuals = np.linalg.norm(_transposed(a) @ a - np.eye(n), axis=(-2, -1))
    good = np.ravel((error <= POINT_TOL) & (residuals <= ISOMETRY_TOL))
    flat = a.reshape(-1, n, n)  # the determinant only of isometries, never of NaN
    good[good] = np.linalg.det(flat if good.all() else flat[good]) > 0
    if good.all():
        return residuals
    row = int(np.argmin(good))
    state = np.unravel_index(row, residuals.shape)
    try:
        for m, pts in ((pair.space, x), (pair.space_hat, x_hat)):
            m.point(pts[state])
        if not residuals[state] <= ISOMETRY_TOL:
            raise GeometryError(f"contact map is not an isometry (residual {residuals[state]:.3e})")
        raise GeometryError("contact map must preserve orientation")
    except GeometryError as exc:
        exc.row = row
        raise


@dataclass
class RollingState:
    """A state (x, x_hat; A), or a stack of them along leading axes: x is
    (*shape, amb), x_hat (*shape, amb_hat) and isometry (*shape, n, n), and a
    lone state has shape ().  The frames, anchor and transports it carries
    have the same leading axes, and so has every value of a closure on
    states: at a stack, a closure returns the stack of its values at each
    state.  Indexing (q[i], q[mask], q[..., None]) applies to the stack axes
    of every array and keeps what was computed for those states."""

    pair: RollingPair
    x: np.ndarray
    x_hat: np.ndarray
    isometry: np.ndarray

    def __post_init__(self):
        # RollingPair.state and tangent_curve check the states they build
        self._frame = None
        self._frame_hat = None
        self._anchor = None  # (x0, frame0) passed on by tangent_curve, see anchor
        self._anchored = None
        self.transports = None  # (fwd, fwd_hat) from the base of a canonical curve

    @property
    def shape(self):
        return self.isometry.shape[:-2]

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, index):
        index = index if isinstance(index, tuple) else (index,)

        def take(a, core):
            return a[index + (slice(None),) * core]

        out = RollingState(self.pair, take(self.x, 1), take(self.x_hat, 1), take(self.isometry, 2))
        for attr in ("_frame", "_frame_hat", "_anchored"):  # two axes per state
            if getattr(self, attr) is not None:
                setattr(out, attr, take(getattr(self, attr), 2))
        if self._anchor is not None:
            out._anchor = take(self._anchor[0], 1), take(self._anchor[1], 2)
        if self.transports is not None:
            out.transports = tuple(take(fwd, 2) for fwd in self.transports)
        return out

    def expand(self, a, ndim):
        """A per-state array (stack axes first) with axes inserted after the
        stack axes, up to ndim axes, so that it broadcasts against values
        that hold more per state (a stack of fields, say)."""
        lead = len(self.shape)
        return a.reshape(a.shape[:lead] + (1,) * max(0, ndim - a.ndim) + a.shape[lead:])

    @property
    def frame(self):
        """The deterministic frames at x, (*shape, n, amb): rows of SpaceForm.frames."""
        if self._frame is None:
            self._frame = self.pair.space.frames(self.x)
        return self._frame

    @property
    def frame_hat(self):
        if self._frame_hat is None:
            self._frame_hat = self.pair.space_hat.frames(self.x_hat)
        return self._frame_hat

    @property
    def anchor(self):
        """(x0, frame0), (*shape, amb) and (*shape, n, amb): the first
        factor's point and frame at which the flag generators of each state
        are anchored; the state itself unless tangent_curve built it."""
        return self._anchor if self._anchor is not None else (self.x, self.frame)

    @property
    def anchored(self):
        """M = <F_k, E_j>, (*shape, n, n): the frame F anchored at `anchor`
        (SpaceForm.anchored_frame) at x, in the deterministic frame E there."""
        if self._anchored is None:
            self._anchored = self.coords(self.pair.space.anchored_frame(*self.anchor, self.x)[0])
        return self._anchored

    def coords(self, w):
        """Frame coordinates at x of ambient tangent vectors w, with the
        stack axes first and any others (a stack of fields) after them."""
        w = np.asarray(w, float)
        return self.pair.space.frame_coords(self.expand(self.x, w.ndim),
                                            self.expand(self.frame, w.ndim + 1), w)

    def coords_hat(self, w):
        w = np.asarray(w, float)
        return self.pair.space_hat.frame_coords(self.expand(self.x_hat, w.ndim),
                                                self.expand(self.frame_hat, w.ndim + 1), w)

    def apply(self, w):
        """Image of ambient tangent vectors at x under the contact map."""
        c = self.coords(w)[..., None, :]
        a, frame_hat = (self.expand(v, c.ndim) for v in (self.isometry, self.frame_hat))
        return (c @ a.mT @ frame_hat)[..., 0, :]

    def to_json(self) -> dict:
        return {"x": self.x.tolist(), "x_hat": self.x_hat.tolist(),
                "A": self.isometry.tolist()}


def q_dim(n):
    return 2 * n + so_dim(n)


def rolling_lift(q: RollingState, X):
    """Lift of tangent vectors at x (the stack axes first, then any others)
    to the rolling distribution, as tangent rows (c, c A^T, 0) for the frame
    coordinates c of X: the base points move with matched contact velocities
    (X, AX) and A stays put."""
    X = np.asarray(X, float)
    err = q.pair.space.tangency_residual(q.expand(q.x, X.ndim), X)
    if np.any(err > 1e-8 * np.maximum(1.0, np.linalg.norm(X, axis=-1))):
        raise GeometryError("lifted vector is not tangent at the contact point")
    c = q.coords(X)
    return np.concatenate((c, _times(q, c, q.isometry.mT),
                           np.zeros(c.shape[:-1] + (so_dim(q.pair.dim),))), axis=-1)


def row_data(q: RollingState, rows):
    """The data (X, X_hat, A C) of tangent rows at the states of q (the stack
    axes first, then any others): the frame coordinates of both drifts and
    the frame matrix of A C."""
    n = q.pair.dim
    return (rows[..., :n], rows[..., n : 2 * n],
            q.expand(q.isometry, rows.ndim + 1) @ vector_to_skew(rows[..., 2 * n :], n))


def _times(q, rows, mat):
    """Vectors `rows` at the states of q (the stack axes first, then any
    others) times the matrix `mat` of their state, one matrix product per
    state."""
    lead = len(q.shape)
    flat = rows.reshape(rows.shape[:lead] + (math.prod(rows.shape[lead:-1]), rows.shape[-1]))
    return (flat @ mat).reshape(rows.shape[:-1] + mat.shape[-1:])


# -- canonical curves and transports ------------------------------------------


def det_transport_matrix(m: SpaceForm, x, frames, v, t):
    """Per row, the point at time t[i] of the geodesic of (x[i], v[i]) on m,
    the matrix taking deterministic-frame coordinates at x[i] to those at
    that point through parallel transport along the geodesic, and the frame
    there, given the frames at the points.  A row with v[i] = 0 keeps its
    point and frame with the identity transport; the moving rows flow in one
    transport_along_geodesic call, their frames from one _frames call and
    their transports from one product with the metric weights; when every
    row moves, none is copied out.  A frame that is not finite fails its row's check."""
    move = np.flatnonzero(v.any(axis=1))
    if len(move) < len(x):
        fwd = np.tile(np.eye(m.dim), (len(x), 1, 1))
        if len(move):
            x, frames = x.copy(), frames.copy()
            x[move], fwd[move], frames[move] = det_transport_matrix(m, x[move], frames[move],
                                                                    v[move], t[move])
        return x, fwd, frames
    xt, moved = m.transport_along_geodesic(x[:, None], v[:, None], t[:, None], frames)
    xt = xt[:, 0]
    frames = m._frames(xt)
    return xt, (frames * m.metric_weights(xt)[..., None, :]) @ _transposed(moved), frames


def tangent_curve(q: RollingState, xi, t) -> RollingState:
    """The canonical curves of a stack: the state at time t of the curve
    that starts at q with the tangent row xi, where the stack of q, the rows
    of xi and the times t broadcast against each other (NumPy rules on their
    leading axes) to the shape of the returned stack.  Both base points run
    along geodesics, A is transported in parallel frames and composed with
    expm(tC) on the fiber.  The returned stack keeps the two frame-transport
    matrices from its bases (det_transport_matrix on each factor) as its
    `transports`, through which values at it are pulled back, its frames,
    and the anchor of q at each state.  The kernel runs on the flattened
    stack: only rows with C != 0 enter the one stacked expm, and _check_rows
    runs once over the whole stack.  The transports are exact isometries, so
    A is never projected back onto the rotations."""
    out = _canonical_states(q, xi, t)
    _check_rows(out.pair, out.x, out.x_hat, out.isometry)
    return out


def _canonical_states(q, xi, t):
    """The states of tangent_curve, unchecked."""
    pair, n = q.pair, q.pair.dim
    xi, t = np.asarray(xi, float), np.asarray(t, float)
    shape = np.broadcast_shapes(q.shape, xi.shape[:-1], t.shape)

    def rows(a, core):  # a per-state array at every state of the result, flattened
        tail = a.shape[a.ndim - core:]
        return np.broadcast_to(a, shape + tail).reshape((-1,) + tail)

    # velocities from the bases and rows alone, before the times broadcast
    X = rows((xi[..., None, :n] @ q.frame)[..., 0, :], 1)
    X_hat = rows((xi[..., None, n : 2 * n] @ q.frame_hat)[..., 0, :], 1)
    C, t = rows(vector_to_skew(xi[..., 2 * n :], n), 2), rows(t, 0)
    xt, fwd, frames = det_transport_matrix(pair.space, rows(q.x, 1), rows(q.frame, 2), X, t)
    xht, fwd_hat, frames_hat = det_transport_matrix(pair.space_hat, rows(q.x_hat, 1),
                                                    rows(q.frame_hat, 2), X_hat, t)
    a = fwd_hat @ rows(q.isometry, 2)
    spin = np.flatnonzero(C.any(axis=(1, 2)))
    if len(spin):
        a[spin] = a[spin] @ expm(t[spin, None, None] * C[spin])
    a = a @ _transposed(fwd)

    def stacked(a):
        return a.reshape(shape + a.shape[1:])

    out = RollingState(pair, stacked(xt), stacked(xht), stacked(a))
    out._frame, out._frame_hat = stacked(frames), stacked(frames_hat)  # built above
    x0, frame0 = q.anchor
    out._anchor = (np.broadcast_to(x0, shape + x0.shape[-1:]),
                   np.broadcast_to(frame0, shape + frame0.shape[-2:]))
    out.transports = stacked(fwd), stacked(fwd_hat)
    return out


def expm(a):
    """The matrix exponential of every matrix of a stack (..., m, m)."""
    return np.eye(a.shape[-1]) + expm1_stack(a)


def _nearest_rotation(a):
    u, _, vt = np.linalg.svd(a)
    return u @ vt


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


# -- rolling curves -------------------------------------------------------------

GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
MAGNUS_COMMUTATOR = math.sqrt(3.0) / 12.0
# the commutator-free CF4 step takes the blends alpha_1 c_1 + alpha_2 c_2, then
# alpha_2 c_1 + alpha_1 c_2, of c at the two Gauss nodes, alpha = 1/4 +- sqrt(3)/6
CF4_BLENDS = 0.25 + np.array([[1.0, -1.0], [-1.0, 1.0]]) * math.sqrt(3.0) / 6.0
BLOCK = 256  # grid intervals (or CSV rows) per batch of the array kernels


@dataclass
class RollingCurve:
    """A rolling motion sampled on a time grid, one row per sample time: the
    contact points, the contact map A in the deterministic frames and its
    isometry residual.  Construction runs _check_rows once over the rows,
    which names the first row that fails a check of RollingState."""

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
        # %r of a float is its repr: a block formatted by one row template is
        # what csv.writer writes for rows of repr strings
        row = ",".join(["%r"] * len(header)) + "\r\n"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(header)
            for lo in range(0, len(self.times), BLOCK):
                rows = slice(lo, lo + BLOCK)
                table = np.column_stack((self.times[rows], self.x[rows], self.x_hat[rows],
                                         self.A[rows].reshape(-1, n * n), self.residuals[rows]))
                fh.write(row * len(table) % tuple(table.ravel().tolist()))


def roll_along(q0: RollingState, path, step=DEFAULT_STEP) -> RollingCurve:
    """Integrate the rolling constraints along a driving path in the first
    factor.  The isometry is kept constant in co-transported parallel frames
    and re-expressed in the deterministic frames at each sample time.

    The roll starts from both points moved onto their manifolds and the
    rotation nearest to A, so that round-off in q0 is not amplified.  Rolling
    without slipping or twisting takes a geodesic to a geodesic, with A
    constant in the two parallel frames (Chitour and Kokkonen 2010): a
    GeodesicPath rolls along the canonical curve of its rolling lift, the
    first factor's rows read from the path, and any other path by the
    exponential steps of _roll_magnus.  Either holds the constraints to
    round-off at any step.

    A bad path raises GeometryError, and a contact point leaving the interval
    of a warped factor raises DomainError.  Rows computed from a valid start
    can still fail the checks of a state (far out on a hyperboloid a point
    misses its constraint by round-off, further out a row overflows): the
    one check of the rows written raises DomainError, naming the check and
    the first sample time whose written row fails it."""
    pair = q0.pair
    times = np.asarray(path.sample_times(step), dtype=float)
    if not np.allclose(path.point(float(times[0])), q0.x, atol=1e-8):
        raise GeometryError("driving path does not start at the contact point")
    if np.any(np.diff(times) <= 0):
        raise GeometryError("driving path time grid must be increasing")
    start = RollingState(pair, pair.space.closest_point(q0.x),
                         pair.space_hat.closest_point(q0.x_hat), _nearest_rotation(q0.isometry))
    with np.errstate(all="ignore"):  # a row that overflows fails its check instead
        if isinstance(path, GeodesicPath):
            end = _canonical_states(start, rolling_lift(start, path.v0), times)
            x, x_hat, a = path.point(times), end.x_hat, end.isometry
        else:
            x, x_hat, a = _roll_magnus(start, path, times, step)
        x[0], x_hat[0], a[0] = q0.x, q0.x_hat, q0.isometry  # the first row is q0 itself
        try:
            return RollingCurve(pair, times, x, x_hat, a)
        except GeometryError as err:
            raise DomainError(f"the roll fails a check at t = {times[err.row]:.6g}: {err}") from None


def _roll_magnus(start, path, times, step):
    """Rows of (x, x_hat, A) at the sample times from the cleaned start
    state of roll_along, grid block by grid block; one _redress call after
    the last block gives every row's contact map.

    The first factor carries its parallel frame as the rows F of the frame
    times sqrt|w| (_weight_roots), with F' = F Z for Z =
    transport_generators(x, v).  F does not depend on the deterministic
    frame, which jumps where its Gram-Schmidt skips a different basis
    vector.  The second factor carries H, whose columns are the images of
    that frame and then the point, moving with c, the coordinates of the
    path velocity in the parallel frame: on a space form by 4th-order Magnus
    steps of H' = H X(c), on a warped product by the commutator-free steps
    of _develop_cf4.  c is needed at the Gauss nodes of each step, so F is
    also carried from the start of the step to each node by a Magnus step
    of its own."""
    m, mh, n = start.pair.space, start.pair.space_hat, start.pair.dim
    counts, starts = _substep_starts(times, step)
    grid = np.append(starts, times[-1])
    out = np.append(0, np.cumsum(counts))  # the sample times within the grid

    g = start.frame * _weight_roots(m, start.x)
    size = g.shape[-1]
    hh = np.column_stack(((start.isometry.T @ start.frame_hat).T, start.x_hat))
    space_form = isinstance(mh, ConstantCurvature)
    x = path.point(times)
    g_out, x_hat = np.empty((len(times),) + g.shape), np.empty((len(times), mh.amb_dim))
    image = np.empty((len(times), mh.amb_dim, n))
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
        frames = g_node / _weight_roots(m, node_pts)
        c = m.inner_at(node_pts[..., None, :], frames, node_vel[..., None, :])
        if space_form:
            xi = mh.development_generators(c.reshape(-1, n)).reshape(hi - lo, 2, n + 1, n + 1)
            hs = hh + hh @ running_products(expm1_stack(_magnus(xi, h)))
        else:
            hs = _develop_cf4(mh, hh, c, h)
        gs = g + g @ step_d
        g, hh = gs[-1], hs[-1]
        keep = np.flatnonzero((out > lo) & (out <= hi))
        at_row = out[keep] - lo - 1
        g_out[keep], rows = gs[at_row], hs[at_row]
        x_hat[keep], image[keep] = rows[..., n], rows[..., :n]
    a = np.empty((len(times), n, n))
    a[1:] = _redress(start.pair, x[1:], x_hat[1:], g_out[1:] / _weight_roots(m, x[1:]), image[1:])
    return x, x_hat, a


def _weight_roots(m, xs):
    """sqrt|w| for the metric weights w of m at the points xs, a row against
    frame rows.  Frame rows times it are orthonormal for the constant
    signature J of w on every catalog factor (diag(1, fiber signature) on a
    warped product, whatever f(s) is), and transport_generators gives Z with
    Z J skew, so Magnus steps of F' = F Z keep F J F^T = I to round-off
    along any path."""
    return np.sqrt(np.abs(m.metric_weights(xs)))[..., None, :]


def _magnus(gens, h):
    """4th-order Magnus exponent of Y' = Y M(t) over steps of lengths h,
    from M at the two Gauss nodes of each step (gens[:, 0] and gens[:, 1])."""
    a, b = gens[:, 0], gens[:, 1]
    h = h[:, None, None]
    return h / 2 * (a + b) + MAGNUS_COMMUTATOR * h * h * (a @ b - b @ a)


def _develop_cf4(mh, hh, c, h):
    """H = (images of the parallel frame as columns, then the point) of a
    warped second factor after each step of lengths h, from H at the start,
    by the 4th-order commutator-free method of Celledoni, Marthinsen and
    Owren (2003) with c, the velocity's coordinates in the images, at the
    two Gauss nodes of each step.  With c frozen the point runs along a
    geodesic that carries the images by parallel transport, so each of the
    step's two exponentials is one transport_along_geodesic over the whole
    step, for the blends CF4_BLENDS of c in turn: exact isometries, so the
    images stay orthonormal at the point on the manifold with no settling."""
    n = c.shape[-1]
    hs = np.empty((len(h),) + hh.shape)
    x_hat, image = hh[:, n], hh[:, :n].T
    for j, blends in enumerate(CF4_BLENDS @ c):
        for b in blends:
            x_hat, image = mh.transport_along_geodesic(x_hat, b @ image, h[j], image)
        hs[j, :, :n], hs[j, :, n] = image.T, x_hat
    return hs


def _substep_starts(times, step):
    """The number of integration substeps of length at most `step` of each
    grid interval between the sample times, and the start time of every
    substep, interval by interval; an interval within round-off of k steps
    takes k of them."""
    counts = np.maximum(1, np.ceil(np.diff(times) / step * (1 - SUBSTEP_SLACK))).astype(int)
    which = np.repeat(np.arange(len(counts)), counts)
    frac = (np.arange(counts.sum()) - (np.cumsum(counts) - counts)[which]) / counts[which]
    return counts, times[which] + frac * np.diff(times)[which]


def _redress(pair, x, x_hat, frame, image):
    """The contact map in the deterministic frames at every row, from the
    parallel frame at x (rows) and its images at x_hat (columns): A[j, i] is
    the inner product of deterministic frame vector j at x_hat with the image
    of deterministic frame vector i at x, expanded in the parallel frame."""
    m, mh = pair.space, pair.space_hat
    det_fr, det_fr_hat = m._frames(x), mh._frames(x_hat)
    s = (frame * m.metric_weights(x)[..., None, :]) @ np.swapaxes(det_fr, 1, 2)
    return (det_fr_hat * mh.metric_weights(x_hat)[..., None, :]) @ image @ s


# -- derivatives of fields of tangent rows ---------------------------------------


def _pull_back(qt: RollingState, rows):
    """The data (X, X_hat, A C) of tangent rows at the canonical-curve states
    qt (the stack axes first, then any others), parallel-transported back to
    the curves' bases through the frame-transport matrices that qt keeps."""
    x, x_hat, u = row_data(qt, rows)
    fwd, fwd_hat = qt.transports
    return (_times(qt, x, fwd), _times(qt, x_hat, fwd_hat),
            qt.expand(fwd_hat, u.ndim).mT @ u @ qt.expand(fwd, u.ndim))


def directional_derivative(value, q, xi, h=FD_STEP, order=2):
    """Covariant derivatives (dX, dX_hat, dU) of the data (X, X_hat, A C)
    (row_data) of the field of tangent rows that `value` gives at a stack of
    states, along the canonical curves of (q, xi), xi tangent rows broadcast
    against the stack q: central differences of the data pulled back from
    one stack of sample states, whose first axis runs over the times
    stencil_offsets(h, order), built by one tangent_curve call and passed to
    value in one call.  Each array is shaped as its slot at the stack."""
    xi = np.asarray(xi, float)
    lead = len(np.broadcast_shapes(q.shape, xi.shape[:-1]))
    states = tangent_curve(q, xi, np.reshape(stencil_offsets(h, order), (-1,) + (1,) * lead))
    return tuple(central_diff(d, h) for d in _pull_back(states, value(states)))


# -- the chart around a state ----------------------------------------------------


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
