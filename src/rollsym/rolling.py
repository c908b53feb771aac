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
evaluates its closure once on that stack.  tangent_curve turns tangent rows
into the curves' ambient velocities (the closed-form field derivatives of
brackets turn them into their directions too).  It also passes on the
anchor of the curve's base, the first factor's point and frame at which the
flag generators are anchored, so that generators at the sample states of a
stencil are one smooth field.

Rolling a path gamma in the first factor integrates the kinematic
constraints of rolling without slipping (contact velocities match) or
twisting (A is parallel): gamma_hat' = A gamma' with A constant in
co-transported parallel frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .curvature import so_dim, vector_to_skew
from .errors import DomainError, GeometryError
from .numerics import DEFAULT_STEP, central_diff, stencil_offsets
from .spaces import POINT_TOL, GeodesicPath, SpaceForm

ISOMETRY_TOL = 1e-9
TANGENCY_TOL = 1e-8  # a lifted vector's tangency residual, relative to max(1, |X|)


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


def _check_rows(pair, x, x_hat, a, tol=ISOMETRY_TOL):
    """Every check of a state on a stack of any leading shape: its points on
    their manifolds, its contact map an orientation-preserving isometry, with
    an isometry residual of at most tol (the largest float lets any finite
    one pass).  Returns the isometry residuals.  Raises the first failing
    state's first failing check, from its own values, with its flat index as
    `row`."""
    n = pair.dim
    if a.shape[-2:] != (n, n):
        raise GeometryError(f"contact map must be a {n} x {n} matrix")
    for pts in (x, x_hat):
        if pts.shape[:-1] != a.shape[:-2]:
            raise GeometryError(f"expected one point per contact map, got shape {pts.shape}")
    error = np.maximum(pair.space.point_error(x), pair.space_hat.point_error(x_hat))  # NaN fails
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is an inf residual
        residuals = np.linalg.norm(_transposed(a) @ a - np.eye(n), axis=(-2, -1))
    good = np.ravel((error <= POINT_TOL) & (residuals <= tol))
    flat = a.reshape(-1, n, n)  # the determinant only of isometries, never of NaN
    good[good] = np.linalg.det(flat if good.all() else flat[good]) > 0
    if good.all():
        return residuals
    row = int(np.argmin(good))
    state = np.unravel_index(row, residuals.shape)
    try:
        for m, pts in ((pair.space, x), (pair.space_hat, x_hat)):
            m.point(pts[state])
        if not residuals[state] <= tol:
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
        self.transports = None  # (fwd, fwd_hat) from the base of a canonical curve

    @property
    def shape(self):
        return self.isometry.shape[:-2]

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, index):
        index = index if isinstance(index, tuple) else (index,)
        lead = len(self.shape)

        def take(a):  # an array, a tuple of them (anchor, transports) or None
            if isinstance(a, tuple):
                return tuple(map(take, a))
            return a if a is None else a[index + (slice(None),) * (a.ndim - lead)]

        kept = {key: take(value) for key, value in vars(self).items() if key != "pair"}
        out = RollingState(self.pair, kept.pop("x"), kept.pop("x_hat"), kept.pop("isometry"))
        vars(out).update(kept)
        return out

    def expand(self, a, ndim):
        """A per-state array (stack axes first) with axes inserted after the
        stack axes, up to ndim axes, so that it broadcasts against values
        that hold more per state (a stack of fields, say)."""
        lead = len(self.shape)
        return a.reshape(a.shape[:lead] + (1,) * max(0, ndim - a.ndim) + a.shape[lead:])

    @cached_property
    def frame(self):
        """The deterministic frames at x, (*shape, n, amb): rows of SpaceForm.frame."""
        return self.pair.space.frame(self.x)

    @cached_property
    def frame_hat(self):
        return self.pair.space_hat.frame(self.x_hat)

    @cached_property
    def anchor(self):
        """(x0, frame0), (*shape, amb) and (*shape, n, amb): the first
        factor's point and frame at which the flag generators of each state
        are anchored; the state itself unless tangent_curve built it."""
        return self.x, self.frame

    @cached_property
    def anchored(self):
        """M = <F_k, E_j>, (*shape, n, n): the frame F anchored at `anchor`
        (SpaceForm.anchored_frame) at x, in the deterministic frame E there."""
        return self.coords(self.pair.space.anchored_frame(*self.anchor, self.x)[0])

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


def q_dim(n):
    return 2 * n + so_dim(n)


def rolling_lift(q: RollingState, X):
    """Lift of tangent vectors at x (the stack axes first, then any others)
    to the rolling distribution, as tangent rows (c, c A^T, 0) for the frame
    coordinates c of X: the base points move with matched contact velocities
    (X, AX) and A stays put."""
    X = np.asarray(X, float)
    err = q.pair.space.tangency_residual(q.expand(q.x, X.ndim), X)
    if np.any(err > TANGENCY_TOL * np.maximum(1.0, np.linalg.norm(X, axis=-1))):
        raise GeometryError("lifted vector is not tangent at the contact point")
    c = q.coords(X)
    return np.concatenate((c, _times(q, c, q.isometry.mT),
                           np.zeros(c.shape[:-1] + (so_dim(q.pair.dim),))), axis=-1)


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
    there, given the frames at the points.  All rows flow in one
    transport_along_geodesic call, then take frames from one _frames call and
    transports from one product with the metric weights; a row with v[i] = 0
    keeps its point and frame (the flow may flip a zero's sign) with the
    identity transport.  A frame that is not finite fails its row's check."""
    still = ~v.any(axis=1)
    xt, moved = m.transport_along_geodesic(x[:, None], v[:, None], t[:, None], frames)
    xt = xt[:, 0]
    frames_t = m._frames(xt)
    fwd = (frames_t * m.metric_weights(xt)[..., None, :]) @ _transposed(moved)
    xt[still], fwd[still], frames_t[still] = x[still], np.eye(m.dim), frames[still]
    return xt, fwd, frames_t


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
    runs once over the whole stack.  A is never projected back onto the
    rotations, so it is off them by the transports' round-off (|x|^2 ulps
    far out on H^n), and a transport defect shows in the isometry check."""
    out = _canonical_states(q, xi, t)
    _check_rows(out.pair, out.x, out.x_hat, out.isometry)
    return out


def _canonical_states(q, xi, t):
    """The states of tangent_curve, unchecked, A not projected."""
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
    out.frame, out.frame_hat = stacked(frames), stacked(frames_hat)  # built above
    x0, frame0 = q.anchor
    out.anchor = (np.broadcast_to(x0, shape + x0.shape[-1:]),
                  np.broadcast_to(frame0, shape + frame0.shape[-2:]))
    out.transports = stacked(fwd), stacked(fwd_hat)
    return out


# Taylor polynomials are evaluated on matrices scaled to 1-norm at most this
EXPM_THETA = 0.5
UNIT_ROUNDOFF = 2.0**-53


def expm(a):
    """The matrix exponential of every matrix of a stack (..., m, m), in one
    pass of batched products: scaling and squaring of the Taylor polynomial
    whose first omitted term, at the largest 1-norm theta, lies below the
    unit round-off of exp(a) - I (about theta), which is carried without the
    identity until the end."""
    a = np.asarray(a, dtype=float)
    norm = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    if not math.isfinite(norm):
        raise GeometryError("matrix exponential of a non-finite matrix")
    squarings = max(0, math.ceil(math.log2(norm / EXPM_THETA))) if norm > 0 else 0
    a = a / 2.0**squarings
    theta = norm / 2.0**squarings
    degree, omitted = 1, theta * theta / 2  # omitted = theta^(degree + 1) / (degree + 1)!
    while omitted > UNIT_ROUNDOFF * theta:
        degree += 1
        omitted *= theta / (degree + 1)
    eye = np.eye(a.shape[-1])
    out = a / degree if degree > 1 else a
    for k in range(degree - 1, 0, -1):  # Horner: a (I + a/2 (I + a/3 (... (I + a/degree))))
        out = a @ (out + eye)
        if k > 1:
            out /= k
    for _ in range(squarings):  # (I + d)^2 = I + (2d + d d)
        out = 2 * out + out @ out
    return eye + out


# -- rolling curves -------------------------------------------------------------

BLOCK = 256  # CSV rows per batch of write_csv
# a path meets a point within this of the larger coordinate of the two: its first
# point the contact point, and each segment of a samples path its next sample
SAMPLE_TOL = 1e-8


def _misses(a, b):
    """Whether points a and b, or the rows of two stacks, fail SAMPLE_TOL's test."""
    size = np.maximum(np.abs(a).max(axis=-1), np.abs(b).max(axis=-1))
    return ~(np.abs(a - b).max(axis=-1) <= SAMPLE_TOL * size)


@dataclass
class RollingCurve:
    """A rolling motion sampled on a time grid, one row per sample time: the
    contact points, the contact map A in the deterministic frames and its
    isometry residual.  Construction runs _check_rows once over the rows,
    which names the first row that fails a check of RollingState; the
    isometry residuals need only be finite, for a roll's caller weighs them
    against its own tolerance."""

    pair: RollingPair
    times: np.ndarray
    x: np.ndarray
    x_hat: np.ndarray
    A: np.ndarray
    residuals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.residuals = _check_rows(self.pair, self.x, self.x_hat, self.A, np.finfo(float).max)

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
        # %r of a float is its repr, and no field needs quoting: the header and
        # each block formatted by one row template are what csv.writer writes
        row = ",".join(["%r"] * len(header)) + "\r\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for lo in range(0, len(self.times), BLOCK):
                rows = slice(lo, lo + BLOCK)
                table = np.column_stack((self.times[rows], self.x[rows], self.x_hat[rows],
                                         self.A[rows].reshape(-1, n * n), self.residuals[rows]))
                fh.write(row * len(table) % tuple(table.ravel().tolist()))


def roll_along(q0: RollingState, path, step=DEFAULT_STEP) -> RollingCurve:
    """Roll along a driving path in the first factor without slipping or
    twisting.  The isometry is kept constant in co-transported parallel
    frames and re-expressed in the deterministic frames at each sample time.

    The roll starts from both points moved onto their manifolds and the
    rotation nearest to A, so that round-off in q0 is not amplified.  Rolling
    without slipping or twisting takes a geodesic to a geodesic, with A
    constant in the two parallel frames (Chitour and Kokkonen 2010): a
    GeodesicPath rolls along the canonical curve of its rolling lift, the
    first factor's rows read from the path at its grid of the given step,
    and a SampledPath along the broken geodesic through its samples, one
    segment after another by the same rule (_roll_broken), its rows its
    samples.  Either holds every check of a state to round-off at any step.

    A bad path raises GeometryError, and a contact point leaving the interval
    of a warped factor raises DomainError.  Rows computed from a valid start
    can still fail the checks of a state (far out on a hyperboloid a point
    misses its constraint by round-off, further out a row overflows): the
    one check of the rows written (RollingCurve) raises DomainError, naming
    the check and the first sample time whose written row fails it."""
    pair = q0.pair
    geodesic = isinstance(path, GeodesicPath)
    times = path.sample_times(step) if geodesic else path.times
    first = path.point(float(times[0])) if geodesic else pair.space.closest_point(path.points[0])
    if _misses(first, q0.x):
        raise GeometryError("driving path does not start at the contact point")
    if np.any(np.diff(times) <= 0):
        raise GeometryError("driving path time grid must be increasing")
    u, _, vt = np.linalg.svd(q0.isometry)  # the rotation nearest to A is u vt
    start = RollingState(pair, pair.space.closest_point(q0.x),
                         pair.space_hat.closest_point(q0.x_hat), u @ vt)
    with np.errstate(all="ignore"):  # a row that overflows fails its check instead
        if geodesic:
            end = _canonical_states(start, rolling_lift(start, path.v0), times)
            x, x_hat, a = path.point(times), end.x_hat, end.isometry
        else:
            x = pair.space.closest_point(path.points)
            x[0] = start.x
            x_hat, a = _roll_broken(start, x, times)
        x[0], x_hat[0], a[0] = q0.x, q0.x_hat, q0.isometry  # the first row is q0 itself
        try:
            return RollingCurve(pair, times, x, x_hat, a)
        except GeometryError as err:
            raise DomainError(f"the roll fails a check at t = {times[err.row]:.6g}: {err}") from None


def _roll_broken(start, x, times):
    """Rows of (x_hat, A) at the sample times from the cleaned start state
    of roll_along, along the broken geodesic through the rows of x (the
    first at start.x), segment by segment by the rule of a GeodesicPath: the
    segment's velocity v = log(x_i, x_i+1) / dt keeps its coordinates in the
    parallel frame, and its image runs along the geodesic of the second
    factor that carries the images of that frame.

    One stacked transport moves the deterministic frames E at x_i along
    every segment, which gives each segment's transport fwd_i in E, and the
    rows R of the parallel frame in E follow as R_i+1 = R_i fwd_i^T (R_0 =
    I).  On the second factor the point and the images of the parallel
    frame move by one transport per segment, along R_i c_i for the
    coordinates c_i of v in E.  One _frames call at the end gives every A =
    (E_hat W) images^T R.  Far out on H^n the frames and the transported
    images are J-orthonormal only to about |x|^2 ulps, a defect that R_i and
    the images would carry into every later A.  Each fwd_i is replaced by
    its polar factor, the nearest rotation, from one stacked SVD, and the
    images are made J-orthonormal again after each transport: on H2(1)^2 a
    reverse roll from |x_hat| = 50 read an isometry residual of 4.3e-11
    without that step, 7.8e-13 with it.  Each point of the second factor is
    moved onto it before the next segment starts there: on H^n a geodesic
    from a point off the hyperboloid leaves it further, and along 3.125 of
    an H2(1) path the constraint residual of x_hat grew 200-fold, to 1.2e-10.
    A segment that ends off its next sample, where two samples have no
    unique shortest geodesic, raises GeometryError."""
    m, mh, n = start.pair.space, start.pair.space_hat, start.pair.dim
    dt = np.diff(times)
    v = m.log(x[:-1], x[1:]) / dt[:, None]
    frames = m._frames(x)
    ends, moved = m.transport_along_geodesic(x[:-1, None], v[:, None], dt[:, None], frames[:-1])
    miss = _misses(ends[:, 0], x[1:])
    if miss.any():
        i = int(np.argmax(miss))
        raise GeometryError(f"no unique shortest geodesic joins the path samples at "
                            f"t = {times[i]:.6g} and t = {times[i + 1]:.6g}")
    u, _, vt = np.linalg.svd((frames[1:] * m.metric_weights(x[1:])[..., None, :])
                             @ _transposed(moved))
    fwd = u @ vt
    c = m.frame_coords(x[:-1], frames[:-1], v)
    rows, x_hat = np.empty((len(times), n, n)), np.empty((len(times), mh.amb_dim))
    images = np.empty((len(times), n, mh.amb_dim))
    rows[0], x_hat[0], images[0] = np.eye(n), start.x_hat, start.isometry.T @ start.frame_hat
    for i, h in enumerate(dt):
        rows[i + 1] = rows[i] @ fwd[i].T
        ahead, images[i + 1] = mh.transport_along_geodesic(
            x_hat[i], rows[i] @ c[i] @ images[i], h, images[i])
        x_hat[i + 1] = mh.closest_point(ahead)
        # back onto the tangent space at x_hat[i + 1], and one Newton step
        # toward the nearest J-orthonormal rows: exact to second order in a
        # defect of ulps
        im = mh.project(x_hat[i + 1], images[i + 1])
        images[i + 1] = (1.5 * np.eye(n) - 0.5 * (im * mh.metric_weights(x_hat[i + 1])) @ im.T) @ im
    weighted = mh._frames(x_hat) * mh.metric_weights(x_hat)[..., None, :]
    return x_hat, weighted @ _transposed(images) @ rows


# -- derivatives of fields of tangent rows ---------------------------------------


def _pull_back(qt: RollingState, rows):
    """The data (X, X_hat, A C) of tangent rows at the canonical-curve states
    qt (the stack axes first, then any others), the frame coordinates of both
    drifts and the frame matrix of A C, parallel-transported back to the
    curves' bases through the frame-transport matrices that qt keeps."""
    n, (fwd, fwd_hat) = qt.pair.dim, qt.transports
    u = qt.expand(qt.isometry, rows.ndim + 1) @ vector_to_skew(rows[..., 2 * n :], n)
    return (_times(qt, rows[..., :n], fwd), _times(qt, rows[..., n : 2 * n], fwd_hat),
            qt.expand(fwd_hat, u.ndim).mT @ u @ qt.expand(fwd, u.ndim))


def directional_derivative(value, q, xi, h):
    """Covariant derivatives (dX, dX_hat, dU) of the data (X, X_hat, A C)
    (_pull_back) of the field of tangent rows that `value` gives at a stack of
    states, along the canonical curves of (q, xi), xi tangent rows broadcast
    against the stack q: central differences of step h of the data pulled
    back from one stack of sample states, whose first axis runs over the
    times stencil_offsets(h), built by one tangent_curve call and passed to
    value in one call.  Each array is shaped as its slot at the stack."""
    xi = np.asarray(xi, float)
    lead = len(np.broadcast_shapes(q.shape, xi.shape[:-1]))
    states = tangent_curve(q, xi, np.reshape(stencil_offsets(h), (-1,) + (1,) * lead))
    return tuple(central_diff(d, h) for d in _pull_back(states, value(states)))
