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
from .spaces import (DEFAULT_STEP, ConstantCurvature, DomainError, GeodesicPath, GeometryError,
                     SpaceForm)

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
        n = self.dim
        if a.shape[-2:] != (n, n):
            raise GeometryError(f"contact map must be a {n} x {n} matrix")
        shape = a.shape[:-2]
        for pts in (x, x_hat):
            if pts.shape[:-1] != shape:
                raise GeometryError(f"expected one point per contact map, got shape {pts.shape}")
        _check_rows(self, x.reshape((-1,) + x.shape[len(shape):]),
                    x_hat.reshape((-1,) + x_hat.shape[len(shape):]), a.reshape(-1, n, n))
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
    worst = residuals.max(initial=0.0)
    if not worst <= ISOMETRY_TOL:
        raise GeometryError(f"contact map is not an isometry (residual {worst:.3e})")
    if np.any(np.linalg.det(a) <= 0):
        raise GeometryError("contact map must preserve orientation")
    return residuals


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
    transport_along_geodesic call and take their frames from one frames
    call."""
    fwd = np.tile(np.eye(m.dim), (len(x), 1, 1))
    move = np.flatnonzero(v.any(axis=1))
    if len(move):
        x, frames = x.copy(), frames.copy()
        xt, moved = m.transport_along_geodesic(x[move, None], v[move, None], t[move, None],
                                               frames[move])
        x[move] = xt = xt[:, 0]
        frames[move] = m.frames(xt)
        fwd[move] = m.inner_at(xt[:, None, None], frames[move][:, :, None], moved[:, None])
    return x, fwd, frames


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
    stack: only rows with C != 0 enter the one stacked expm, one SVD takes
    the nearest rotations, and every check of RollingState runs once over
    the whole stack."""
    pair, n = q.pair, q.pair.dim
    xi, t = np.asarray(xi, float), np.asarray(t, float)
    shape = np.broadcast_shapes(q.shape, xi.shape[:-1], t.shape)

    def rows(a, core):  # a per-state array at every state of the result, flattened
        tail = a.shape[a.ndim - core:]
        return np.broadcast_to(a, shape + tail).reshape((-1,) + tail)

    xi, t = rows(xi, 1), rows(t, 0)
    frames, frames_hat = rows(q.frame, 2), rows(q.frame_hat, 2)
    C = vector_to_skew(xi[:, 2 * n :], n)
    X = (xi[:, None, :n] @ frames)[:, 0]
    X_hat = (xi[:, None, n : 2 * n] @ frames_hat)[:, 0]
    xt, fwd, frames = det_transport_matrix(pair.space, rows(q.x, 1), frames, X, t)
    xht, fwd_hat, frames_hat = det_transport_matrix(pair.space_hat, rows(q.x_hat, 1), frames_hat,
                                                    X_hat, t)
    a = fwd_hat @ rows(q.isometry, 2)
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
    _check_rows(pair, xt, xht, a)

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

    A geodesic of a space form rolled on a space form takes the closed form
    of _roll_closed_form.  Otherwise, when the second factor is a space form,
    its point and parallel frame form one group element, advanced by
    4th-order Magnus steps (two Gauss nodes), and so does the first factor's
    parallel frame: as a group element with its point on a space form, as its
    rows with the fiber parts scaled by f(s) on a warped product.  The
    constraints then hold to round-off at any step.  Only a warped second
    factor falls back to RK4 on the frames.

    A bad path raises GeometryError.  Rows computed from a valid start can
    still fail the checks of a state (far out on a hyperboloid a point misses
    its constraint by round-off): that raises DomainError, naming the check
    and the first sample time whose row fails it."""
    pair = q0.pair
    times = np.asarray(path.sample_times(step), dtype=float)
    if not np.allclose(path.point(float(times[0])), q0.x, atol=1e-8):
        raise GeometryError("driving path does not start at the contact point")
    if np.any(np.diff(times) <= 0):
        raise GeometryError("driving path time grid must be increasing")
    if not isinstance(pair.space_hat, ConstantCurvature):
        kernel = _roll_rk4
    elif isinstance(path, GeodesicPath) and isinstance(pair.space, ConstantCurvature):
        kernel = _roll_closed_form
    else:
        kernel = _roll_magnus

    def rows(k):  # the checked rows at the first k sample times
        x, x_hat, a = kernel(q0, path, times[:k], step)
        x[0], x_hat[0], a[0] = q0.x, q0.x_hat, q0.isometry  # the first row is q0 itself
        return RollingCurve(pair, times[:k], x, x_hat, a)

    with np.errstate(all="ignore"):  # a row that overflows fails the checks instead
        try:
            return rows(len(times))
        except DomainError:
            raise
        except GeometryError as exc:
            error, good, bad = exc, 1, len(times)
        # every kernel computes a row from the times up to its own, so the
        # first failing row is where rows(good) passes and rows(good + 1)
        # fails; only a failed roll pays for these probes
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                rows(mid)
                good = mid
            except GeometryError as exc:
                error, bad = exc, mid
    raise DomainError(f"the roll fails a check at t = {times[bad - 1]:.6g}: {error}")


def _roll_closed_form(q0, path, times, step):
    """Rows of (x, x_hat, A) at the sample times along a geodesic of a space
    form rolled on a space form.  The rolling distribution of two space forms
    is left-invariant (Bor and Montgomery 2009), so this roll is a
    one-parameter subgroup: the development is the geodesic of the matched
    velocity, and A stays constant in the two parallel frames, each carried
    over all sample times by one transport_along_geodesic.  It starts, as
    _roll_magnus does, from both points moved onto their manifolds and the
    rotation nearest to A.  The rows are exact at any step."""
    m, mh = q0.pair.space, q0.pair.space_hat
    x0, x_hat0 = m.closest_point(q0.x), mh.closest_point(q0.x_hat)
    frame0 = m.frame(x0)
    image0 = _nearest_rotation(q0.isometry).T @ mh.frame(x_hat0)  # rows: the images of frame0
    v_hat = m.inner_at(x0, frame0, path.v0) @ image0
    frame = m.transport_along_geodesic(x0, path.v0, times[:, None], frame0)[1]
    x_hat, image = mh.transport_along_geodesic(x_hat0, v_hat, times[:, None], image0)
    x, x_hat = path.point(times), x_hat[:, 0]
    return x, x_hat, _redress(q0.pair, x, x_hat, frame, image.mT)


def _roll_magnus(q0, path, times, step):
    """Rows of (x, x_hat, A) at the sample times, grid block by grid block;
    one _redress call after the last block gives every row's contact map.

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
    counts, starts = _substep_starts(times, step)
    grid = np.append(starts, times[-1])
    out = np.append(0, np.cumsum(counts))  # the sample times within the grid

    x0 = m.closest_point(q0.x)
    g = m.group_element(x0, m.frame(x0))
    size = g.shape[-1]
    x_hat0 = mh.closest_point(q0.x_hat)
    hh = mh.group_element(x_hat0, _nearest_rotation(q0.isometry).T @ mh.frame(x_hat0)).T
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
        frames = m.group_frame(node_pts, g_node)
        c = m.inner_at(node_pts[..., None, :], frames, node_vel[..., None, :])
        xi = mh.development_generators(c.reshape(-1, n)).reshape(hi - lo, 2, n + 1, n + 1)
        gs, hs = g + g @ step_d, hh + hh @ running_products(expm1_stack(_magnus(xi, h)))
        g, hh = gs[-1], hs[-1]
        keep = np.flatnonzero((out > lo) & (out <= hi))
        at_row = out[keep] - lo - 1
        g_out[keep], rows = gs[at_row], hs[at_row, : mh.amb_dim]
        x_hat[keep], image[keep] = rows[..., n], rows[..., :n]
    a = np.empty((len(times), n, n))
    a[1:] = _redress(q0.pair, x[1:], x_hat[1:], m.group_frame(x[1:], g_out[1:]), image[1:])
    return x, x_hat, a


def _magnus(gens, h):
    """4th-order Magnus exponent of Y' = Y M(t) over steps of lengths h,
    from M at the two Gauss nodes of each step (gens[:, 0] and gens[:, 1])."""
    a, b = gens[:, 0], gens[:, 1]
    h = h[:, None, None]
    return h / 2 * (a + b) + MAGNUS_COMMUTATOR * h * h * (a @ b - b @ a)


def _substep_starts(times, step):
    """The number of integration substeps of length at most `step` of each
    grid interval between the sample times, and the start time of every
    substep, interval by interval; an interval within round-off of k steps
    takes k of them."""
    counts = np.maximum(1, np.ceil(np.diff(times) / step * (1 - SUBSTEP_SLACK))).astype(int)
    which = np.repeat(np.arange(len(counts)), counts)
    frac = (np.arange(counts.sum()) - (np.cumsum(counts) - counts)[which]) / counts[which]
    return counts, times[which] + frac * np.diff(times)[which]


def _rk4(rhs, y, h, stages):
    """Classical RK4 on a state array, one step of length h per stage row:
    the right-hand side's inputs at the start, the middle and the end of
    the step."""
    for start, mid, end in stages:
        k1 = rhs(start, y)
        k2 = rhs(mid, y + h / 2 * k1)
        k3 = rhs(mid, y + h / 2 * k2)
        k4 = rhs(end, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def _roll_rk4(q0, path, times, step):
    """The same rows as _roll_magnus, by RK4 on the second factor's point and
    both parallel frames (for warped factors).  The path is read once, at
    the sample times and at every stage time of every substep.  After each
    grid interval the row is put back onto the constraints: the point by
    closest_point, both frames by _orthonormal at their points, so that the
    RK4 drift does not accumulate into a failed check of a state."""
    pair = q0.pair
    m, mh = pair.space, pair.space_hat
    n, amb, amb_hat = pair.dim, m.amb_dim, mh.amb_dim
    a_par = q0.isometry  # constant matrix in the parallel frames

    def pack(x_hat, frame, frame_hat):
        return np.concatenate((x_hat, frame.ravel(), frame_hat.ravel()))

    def unpack(y):
        x_hat = y[:amb_hat]
        if not isinstance(mh, ConstantCurvature):  # leaving the interval is a domain error
            mh._check_s(x_hat[0])
        return (x_hat, y[amb_hat : amb_hat + n * amb].reshape(n, amb),
                y[amb_hat + n * amb :].reshape(n, amb_hat))

    def rhs(flow, y):
        x, v = flow
        x_hat, frame, frame_hat = unpack(y)
        v_hat = frame_hat.T @ (a_par @ m.inner_at(x, v, frame))
        return pack(v_hat, m.transport_rhs(x, v, frame), mh.transport_rhs(x_hat, v_hat, frame_hat))

    counts, starts = _substep_starts(times, step)
    h = np.repeat(np.diff(times) / counts, counts)  # by substep
    at = starts[:, None] + h[:, None] * np.array([0.0, 0.5, 1.0])
    pts, vel = path.flow(np.concatenate((times, at.ravel())))
    x = pts[: len(times)]
    stages = np.stack((pts[len(times):], vel[len(times):]), axis=1).reshape(-1, 3, 2, amb)
    ys = [pack(q0.x_hat, q0.frame, q0.frame_hat)]
    ends = np.cumsum(counts)
    for xb, lo, hi in zip(x[1:], ends - counts, ends):
        x_hat, frame, frame_hat = unpack(_rk4(rhs, ys[-1], h[lo], stages[lo:hi]))
        x_hat = mh.closest_point(x_hat)
        ys.append(pack(x_hat, _orthonormal(m, xb, frame), _orthonormal(mh, x_hat, frame_hat)))
    ys = np.array(ys)
    frame = ys[:, amb_hat : amb_hat + n * amb].reshape(-1, n, amb)
    frame_hat = ys[:, amb_hat + n * amb :].reshape(-1, n, amb_hat)
    x_hat = ys[:, :amb_hat]
    return x, x_hat, _redress(pair, x, x_hat, frame, np.swapaxes(frame_hat, 1, 2) @ a_par)


def _orthonormal(m, x, frame):
    """The rows of frame projected onto the tangent space at x and made
    orthonormal symmetrically, S^(-1/2) F for their Gram matrix S: of all
    orthonormal rows, the nearest to F."""
    frame = m.project(x, frame)
    w, u = np.linalg.eigh(m.inner_at(x, frame[:, None], frame[None]))
    return (u / np.sqrt(w)) @ u.T @ frame


def _redress(pair, x, x_hat, frame, image):
    """The contact map in the deterministic frames at every row, from the
    parallel frame at x (rows) and its images at x_hat (columns): A[j, i] is
    the inner product of deterministic frame vector j at x_hat with the image
    of deterministic frame vector i at x, expanded in the parallel frame."""
    m, mh = pair.space, pair.space_hat
    det_fr, det_fr_hat = m.frames(x), mh.frames(x_hat)
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
