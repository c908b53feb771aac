"""Riemannian primitives for the manifold catalog.

The catalog holds the spaces a rolling pair can be built from: Euclidean
space, round spheres, hyperbolic spaces (hyperboloid model), and warped
products I x_f N over a one-dimensional base.  Spheres and hyperbolic
spaces are represented extrinsically (ambient constraint plus projection),
which gives closed forms for geodesics and parallel transport.  Warped
products are intrinsic pairs (s, fiber point) and fall back to RK4 on the
relevant ODEs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

POINT_TOL = 1e-10
FRAME_SKIP_TOL = 1e-8
DEFAULT_STEP = 1e-3
# a span that exceeds a whole number of steps by no more than this relative
# amount is round-off (b - a of two grid times), not a reason for another substep
SUBSTEP_SLACK = 1e-9


class GeometryError(ValueError):
    """A geometric precondition failed (off-manifold point, base mismatch, ...)."""


class DomainError(GeometryError):
    """A curve or geodesic left the manifold's coordinate domain."""


class MismatchError(GeometryError):
    """A candidate or generator does not fit the manifold it is applied to."""


def _rk4(rhs, y0, t0, t1, steps):
    """Classical fixed-step RK4 from t0 to t1 on a flat state vector."""
    y = np.array(y0, dtype=float)
    h = (t1 - t0) / steps
    t = t0
    for _ in range(steps):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


def _steps_for(span, step):
    return max(1, int(math.ceil(abs(span) / step)))


def _substeps(spans, step):
    """Number of integration substeps of length at most `step` for each span;
    a span within round-off of k steps takes k of them."""
    return np.maximum(1, np.ceil(np.abs(spans) / step * (1 - SUBSTEP_SLACK))).astype(int)


def integral(value, what):
    """A count read from input: 2 and 2.0 give 2, a non-integral number is
    an input error rather than being truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise GeometryError(f"{what} must be an integer, got {value!r}")
    return int(value)


class SpaceForm:
    """Base class for the catalog manifolds.

    Subclasses provide the ambient representation: inner products,
    tangent projections, geodesics, parallel transport and the curvature
    operator expressed in the deterministic orthonormal frame.
    """

    kind = "abstract"
    dim: int
    amb_dim: int

    # -- point / tangent construction and validation ----------------------

    def point(self, coords):
        """Validated ambient coordinates of a point on the manifold."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.amb_dim,):
            raise GeometryError(f"expected {self.amb_dim} ambient coordinates, got {coords.shape}")
        err = self.constraint_residual(coords) if np.isfinite(coords).all() else math.inf
        if err > POINT_TOL:
            raise GeometryError(f"point violates the {self.kind} constraint by {err:.3e}")
        return coords

    def constraint_residual(self, x) -> float:
        raise NotImplementedError

    def constraint_residuals(self, xs):
        """constraint_residual of every row of xs."""
        raise NotImplementedError

    def tangency_residual(self, x, v) -> float:
        raise NotImplementedError

    def closest_point(self, x):
        """Project ambient coordinates back onto the manifold (best effort)."""
        raise NotImplementedError

    # -- metric ------------------------------------------------------------

    def inner_at(self, x, u, v) -> float:
        raise NotImplementedError

    def project(self, x, w):
        """Orthogonal projection of an ambient vector onto the tangent space."""
        raise NotImplementedError

    # -- geodesics and transport -------------------------------------------

    def geodesic_flow(self, x, v, t):
        """Return (point, velocity) of the geodesic with initial data (x, v)."""
        raise NotImplementedError

    def geodesic_arr(self, x, v, t):
        return self.geodesic_flow(x, v, t)[0]

    def transport_rhs(self, x, xdot, v):
        """Ambient derivative of a parallel vector v along a curve with velocity xdot."""
        raise NotImplementedError

    def transport_along_geodesic(self, x, v, t, w):
        """Parallel transport of w from x to the geodesic point at time t."""
        raise NotImplementedError

    def log_arr(self, x, y):
        """Inverse of the exponential map, when a closed form exists."""
        raise NotImplementedError

    def parallel_transport(self, path, v0, step=DEFAULT_STEP):
        """Transport the tangent vector v0 at the start of a path; returns
        (times, array of transported vectors), one row per sample time.

        RK4 on the transport ODE at the given step; constraint drift is left
        visible.
        """
        times = path.sample_times(step)
        v = np.array(v0, dtype=float)
        vecs = [v]
        for a, b in zip(times[:-1], times[1:]):
            if b == a:
                raise GeometryError("zero-length step in path time grid")

            def rhs(t, y):
                return self.transport_rhs(path.point(t), path.velocity(t), y)

            v = _rk4(rhs, v, a, b, _substeps(b - a, step))
            vecs.append(v)
        return times, np.array(vecs)

    # -- curvature -----------------------------------------------------------

    def curvature_matrix_apply(self, x, xi):
        """Apply the curvature operator to a bivector given as a skew matrix
        in the deterministic orthonormal frame at x; returns the same shape."""
        raise NotImplementedError

    def curvature_vector_apply(self, x, X, Y, Z):
        """R(X wedge Y)Z on ambient tangent vectors."""
        fr = self.frame(x)
        a = self.frame_coords(x, fr, X)
        b = self.frame_coords(x, fr, Y)
        c = self.frame_coords(x, fr, Z)
        xi = np.outer(a, b) - np.outer(b, a)
        out = self.curvature_matrix_apply(x, xi) @ c
        return fr.T @ out

    def sectional_curvature(self, x, X, Y) -> float:
        gxx = self.inner_at(x, X, X)
        gyy = self.inner_at(x, Y, Y)
        gxy = self.inner_at(x, X, Y)
        denom = gxx * gyy - gxy * gxy
        if denom < 1e-14 * max(gxx * gyy, 1e-300):
            raise GeometryError("degenerate plane")
        num = self.inner_at(x, self.curvature_vector_apply(x, X, Y, Y), X)
        return num / denom

    # -- deterministic frame ---------------------------------------------------

    def frame(self, x):
        """Deterministic orthonormal frame at x: Gram-Schmidt on the projected
        ambient coordinate basis, in coordinate order, skipping near-degenerate
        vectors.  The result is orientation-normalized (last vector flipped if
        necessary) so the frame field is coherently oriented across the
        manifold; otherwise the frame matrix of an orientation-preserving
        contact map could pick up a spurious sign between frame patches.
        Returns an (n, amb_dim) array of row vectors."""
        rows = []
        for k in range(self.amb_dim):
            e = np.zeros(self.amb_dim)
            e[k] = 1.0
            v = self.project(x, e)
            for r in rows:
                v = v - self.inner_at(x, v, r) * r
            nrm = self.inner_at(x, v, v)
            if nrm > FRAME_SKIP_TOL**2:
                rows.append(v / math.sqrt(nrm))
            if len(rows) == self.dim:
                break
        if len(rows) < self.dim:
            raise GeometryError("could not complete an orthonormal frame at this point")
        rows = np.array(rows)
        if self._orientation_sign(x, rows) < 0:
            rows[-1] = -rows[-1]
        return rows

    def _orientation_sign(self, x, rows):
        """Sign of the frame against the ambient orientation, completed by the
        unit normal when the manifold is a hypersurface of its coordinates."""
        if self.amb_dim == self.dim:
            return np.sign(np.linalg.det(rows))
        return np.sign(np.linalg.det(np.vstack([rows, self._normal(x)])))

    def _normal(self, x):
        """Unit normal of the constraint hypersurface at x (ambient coordinates)."""
        raise NotImplementedError

    def frames(self, xs):
        """The deterministic frame at every row of xs, as an (N, n, amb_dim) array."""
        return np.array([self.frame(x) for x in xs])

    def metric_weights(self, xs):
        """Diagonal of the metric in ambient coordinates at every row of xs
        (inner_at(x, u, v) = sum(w * u * v)); broadcasts against the rows."""
        raise NotImplementedError

    def frame_coords(self, x, fr, v):
        """Coefficients of an ambient tangent vector in the frame rows."""
        return np.array([self.inner_at(x, v, fr[i]) for i in range(self.dim)])

    # -- sampling ---------------------------------------------------------------

    def random_point(self, rng) -> np.ndarray:
        raise NotImplementedError

    def random_tangent(self, rng, x, unit=False):
        v = self.project(x, rng.standard_normal(self.amb_dim))
        if unit:
            v = v / math.sqrt(self.inner_at(x, v, v))
        return v

    # -- serialization ------------------------------------------------------------

    def to_spec(self) -> dict:
        raise NotImplementedError


class ConstantCurvature(SpaceForm):
    """Euclidean space, spheres and hyperbolic spaces: the space forms.

    Their metric is the constant diagonal `signature` of the ambient
    coordinates, and a point together with an orthonormal frame is one
    element of SO(n+1), SO+(1,n) or SE(n): the (n+1) x (n+1) matrix whose rows
    are the frame vectors and the point, with a homogeneous coordinate
    appended on R^n (0 for vectors, 1 for the point).  Parallel transport
    and rolling move that element by exponentials of the generators below.
    The methods here act on stacks of points, one per row.
    """

    signature: np.ndarray
    curvature_constant: float

    def metric_weights(self, xs):
        return self.signature

    def project_rows(self, xs, ws):
        """Tangential part of each row of ws at the matching row of xs."""
        return ws - (self.curvature_constant * self._inner_rows(xs, ws))[..., None] * xs

    def frames(self, xs):
        """SpaceForm.frame at every row of xs, by the same Gram-Schmidt (coordinate
        order, skip threshold, orientation rule) run on all rows at once.

        Where a projected coordinate vector is nearly spanned by the rows before
        it, the subtraction cancels most of it and leaves a row that is
        orthonormal only to u / (its length before normalizing), u the unit
        round-off.  Each kept vector is therefore projected and orthogonalized
        a second time ("twice is enough"): the rows are the same frame,
        orthonormal to round-off."""
        xs = np.asarray(xs, dtype=float)
        n = self.dim
        rows = np.zeros((len(xs), n, self.amb_dim))
        filled = np.zeros(len(xs), dtype=int)
        for k in range(self.amb_dim):
            if np.all(filled == n):
                break
            e = np.zeros(self.amb_dim)
            e[k] = 1.0
            v = self._orthogonalize(xs, self.project_rows(xs, e), rows[:, :k])
            nrm = self._inner_rows(v, v)
            take = np.flatnonzero((nrm > FRAME_SKIP_TOL**2) & (filled < n))
            v = self._orthogonalize(xs[take], self.project_rows(xs[take], v[take]), rows[take, :k])
            rows[take, filled[take]] = v / np.sqrt(self._inner_rows(v, v))[:, None]
            filled[take] += 1
        if np.any(filled < n):
            raise GeometryError("could not complete an orthonormal frame at this point")
        if self.amb_dim == self.dim:
            sign = np.linalg.det(rows)
        else:
            sign = np.linalg.det(np.concatenate([rows, self._normal(xs)[:, None]], axis=1))
        rows[sign < 0, -1] *= -1.0
        return rows

    def _inner_rows(self, us, vs):
        return np.einsum("...a,...a->...", us * self.signature, vs)

    def _orthogonalize(self, xs, vs, rows):
        """vs minus its components along rows (rows not yet filled are zero)."""
        for j in range(rows.shape[1]):
            vs = vs - self._inner_rows(vs, rows[:, j])[:, None] * rows[:, j]
        return vs

    def geodesic_rows(self, x, v, ts):
        """(points, velocities) of the geodesic with initial data (x, v) at every
        time in ts, one row each: the closed forms of geodesic_flow."""
        ts = np.asarray(ts, dtype=float)[:, None]
        k = self.curvature_constant
        omega = math.sqrt(abs(k) * max(float(np.sum(self.signature * v * v)), 0.0))
        if omega == 0.0:
            return x + ts * v, np.tile(v, (len(ts), 1))
        c, s = (np.cos(omega * ts), np.sin(omega * ts)) if k > 0 else (
            np.cosh(omega * ts), np.sinh(omega * ts))
        return c * x + (s / omega) * v, -math.copysign(omega, k) * s * x + c * v

    def _homogeneous(self, rows, last):
        if self.amb_dim > self.dim:
            return rows
        pad = np.full(rows.shape[:-1] + (1,), last)
        return np.concatenate([rows, pad], axis=-1)

    def group_element(self, x, frame):
        """The (n+1) x (n+1) matrix with the frame rows and the point as rows."""
        return np.vstack([self._homogeneous(np.asarray(frame, dtype=float), 0.0),
                          self._homogeneous(np.asarray(x, dtype=float), 1.0)])

    def transport_generators(self, xs, vs):
        """Z with G' = G Z for the group element G of a parallel frame along a
        curve through the rows of xs with velocities vs: Z = K (Jx v^T - Jv x^T)
        on curved forms, e_n (v, 0)^T on R^n."""
        if self.amb_dim == self.dim:
            z = np.zeros((len(xs), self.dim + 1, self.dim + 1))
            z[:, -1, :-1] = vs
            return z
        k, w = self.curvature_constant, self.signature
        return k * ((w * xs)[:, :, None] * vs[:, None, :] - (w * vs)[:, :, None] * xs[:, None, :])

    def development_generators(self, cs):
        """X with H' = H X for the transposed group element H (columns: frame
        vectors, then the point) of a point moving with frame coordinates cs of
        its velocity while the frame stays parallel: X = [[0, c], [-K c^T, 0]]."""
        n = self.dim
        x = np.zeros((len(cs), n + 1, n + 1))
        x[:, :n, n] = cs
        x[:, n, :n] = -self.curvature_constant * cs
        return x


class Euclidean(ConstantCurvature):
    kind = "euclidean"

    def __init__(self, dim):
        if dim < 1:
            raise GeometryError("dimension must be at least 1")
        self.dim = dim
        self.amb_dim = dim
        self.curvature_constant = 0.0
        self.signature = np.ones(dim)

    def constraint_residual(self, x):
        return 0.0

    def constraint_residuals(self, xs):
        return np.zeros(len(xs))

    def tangency_residual(self, x, v):
        return 0.0

    def closest_point(self, x):
        return np.array(x, dtype=float)

    def inner_at(self, x, u, v):
        return float(np.dot(u, v))

    def project(self, x, w):
        return np.array(w, dtype=float)

    def geodesic_flow(self, x, v, t):
        return x + t * v, np.array(v, dtype=float)

    def transport_rhs(self, x, xdot, v):
        return np.zeros_like(v)

    def transport_along_geodesic(self, x, v, t, w):
        return np.array(w, dtype=float)

    def log_arr(self, x, y):
        return y - x

    def curvature_matrix_apply(self, x, xi):
        return np.zeros_like(xi)

    def random_point(self, rng):
        return rng.standard_normal(self.amb_dim)

    def to_spec(self):
        return {"kind": "euclidean", "dim": self.dim}


class Sphere(ConstantCurvature):
    kind = "sphere"

    def __init__(self, dim, radius=1.0):
        if dim < 1:
            raise GeometryError("dimension must be at least 1")
        if not 0 < radius < math.inf:
            raise GeometryError("radius must be positive and finite")
        self.dim = dim
        self.amb_dim = dim + 1
        self.radius = float(radius)
        self.curvature_constant = 1.0 / radius**2
        self.signature = np.ones(self.amb_dim)

    def constraint_residual(self, x):
        return abs(np.linalg.norm(x) - self.radius)

    def constraint_residuals(self, xs):
        return np.abs(np.linalg.norm(xs, axis=-1) - self.radius)

    def tangency_residual(self, x, v):
        return abs(np.dot(x, v)) / self.radius

    def closest_point(self, x):
        return self.radius * np.asarray(x, dtype=float) / np.linalg.norm(x, axis=-1, keepdims=True)

    def inner_at(self, x, u, v):
        return float(np.dot(u, v))

    def project(self, x, w):
        return w - (np.dot(x, w) / self.radius**2) * x

    def geodesic_flow(self, x, v, t):
        r = self.radius
        speed = np.linalg.norm(v)
        if speed * abs(t) < 1e-300:
            return np.array(x, dtype=float), np.array(v, dtype=float)
        u = v / speed
        ang = speed * t / r
        xt = math.cos(ang) * x + r * math.sin(ang) * u
        vt = -speed * math.sin(ang) * x / r + math.cos(ang) * v
        return xt, vt

    def transport_rhs(self, x, xdot, v):
        return -(np.dot(v, xdot) / self.radius**2) * x

    def transport_along_geodesic(self, x, v, t, w):
        r = self.radius
        speed = np.linalg.norm(v)
        if speed * abs(t) < 1e-300:
            return np.array(w, dtype=float)
        u = v / speed
        ang = speed * t / r
        c = np.dot(w, u)
        w_perp = w - c * u
        u_t = math.cos(ang) * u - math.sin(ang) * x / r
        return w_perp + c * u_t

    def log_arr(self, x, y):
        r = self.radius
        cosang = np.clip(np.dot(x, y) / r**2, -1.0, 1.0)
        ang = math.acos(cosang)
        u = y - cosang * x
        nu = np.linalg.norm(u)
        if nu < 1e-14:
            if ang > 1.0:
                raise GeometryError("log map is singular at antipodal points")
            return np.zeros(self.amb_dim)
        return (r * ang) * u / nu

    def curvature_matrix_apply(self, x, xi):
        return self.curvature_constant * xi

    def _normal(self, x):
        return x / self.radius

    def random_point(self, rng):
        v = rng.standard_normal(self.amb_dim)
        return self.radius * v / np.linalg.norm(v)

    def to_spec(self):
        return {"kind": "sphere", "dim": self.dim, "radius": self.radius}


class Hyperbolic(ConstantCurvature):
    """Hyperboloid model in Minkowski space; coordinate 0 is the time axis."""

    kind = "hyperbolic"

    def __init__(self, dim, radius=1.0):
        if dim < 1:
            raise GeometryError("dimension must be at least 1")
        if not 0 < radius < math.inf:
            raise GeometryError("radius must be positive and finite")
        self.dim = dim
        self.amb_dim = dim + 1
        self.radius = float(radius)
        self.curvature_constant = -1.0 / radius**2
        self.signature = np.ones(self.amb_dim)
        self.signature[0] = -1.0

    @staticmethod
    def minkowski(u, v):
        return float(-u[0] * v[0] + np.dot(u[1:], v[1:]))

    def constraint_residual(self, x):
        res = abs(self.minkowski(x, x) + self.radius**2)
        if x[0] <= 0:
            return math.inf
        return res

    def constraint_residuals(self, xs):
        res = np.abs(np.sum(self.signature * xs * xs, axis=-1) + self.radius**2)
        return np.where(xs[:, 0] > 0, res, math.inf)

    def tangency_residual(self, x, v):
        return abs(self.minkowski(x, v)) / self.radius

    def closest_point(self, x):
        x = np.array(x, dtype=float)
        x[..., 0] = np.sqrt(self.radius**2 + np.sum(x[..., 1:] ** 2, axis=-1))
        return x

    def inner_at(self, x, u, v):
        return self.minkowski(u, v)

    def project(self, x, w):
        return w + (self.minkowski(x, w) / self.radius**2) * x

    def geodesic_flow(self, x, v, t):
        r = self.radius
        speed = math.sqrt(max(self.minkowski(v, v), 0.0))
        if speed * abs(t) < 1e-300:
            return np.array(x, dtype=float), np.array(v, dtype=float)
        u = v / speed
        ang = speed * t / r
        xt = math.cosh(ang) * x + r * math.sinh(ang) * u
        vt = speed * math.sinh(ang) * x / r + math.cosh(ang) * v
        return xt, vt

    def transport_rhs(self, x, xdot, v):
        return (self.minkowski(v, xdot) / self.radius**2) * x

    def transport_along_geodesic(self, x, v, t, w):
        r = self.radius
        speed = math.sqrt(max(self.minkowski(v, v), 0.0))
        if speed * abs(t) < 1e-300:
            return np.array(w, dtype=float)
        u = v / speed
        ang = speed * t / r
        c = self.minkowski(w, u)
        w_perp = w - c * u
        u_t = math.cosh(ang) * u + math.sinh(ang) * x / r
        return w_perp + c * u_t

    def log_arr(self, x, y):
        r = self.radius
        coshang = max(-self.minkowski(x, y) / r**2, 1.0)
        ang = math.acosh(coshang)
        u = y - coshang * x
        nu = math.sqrt(max(self.minkowski(u, u), 0.0))
        if nu < 1e-14:
            return np.zeros(self.amb_dim)
        return (r * ang) * u / nu

    def curvature_matrix_apply(self, x, xi):
        return self.curvature_constant * xi

    def _normal(self, x):
        return x / self.radius

    def random_point(self, rng):
        spatial = rng.standard_normal(self.dim)
        x = np.empty(self.amb_dim)
        x[1:] = spatial
        x[0] = math.sqrt(self.radius**2 + float(np.dot(spatial, spatial)))
        return x

    def to_spec(self):
        return {"kind": "hyperbolic", "dim": self.dim, "radius": self.radius}


@dataclass
class WarpFunction:
    """Warp profile selected by name; each family satisfies f'' = -k_ref f.

    cos:    a cos(omega s) + b sin(omega s),  k_ref = omega^2
    cosh:   a cosh(omega s) + b sinh(omega s), k_ref = -omega^2
    exp:    a exp(omega s),                    k_ref = -omega^2
    affine: a + b s,                           k_ref = 0
    """

    name: str
    a: float = 1.0
    b: float = 0.0
    omega: float = 1.0

    def __post_init__(self):
        if self.name not in ("cos", "cosh", "exp", "affine"):
            raise GeometryError(f"unknown warp function {self.name!r}")

    @property
    def k_ref(self):
        if self.name == "cos":
            return self.omega**2
        if self.name in ("cosh", "exp"):
            return -self.omega**2
        return 0.0

    def value(self, s):
        w = self.omega
        if self.name == "cos":
            return self.a * math.cos(w * s) + self.b * math.sin(w * s)
        if self.name == "cosh":
            return self.a * math.cosh(w * s) + self.b * math.sinh(w * s)
        if self.name == "exp":
            return self.a * math.exp(w * s)
        return self.a + self.b * s

    def derivative(self, s):
        w = self.omega
        if self.name == "cos":
            return w * (-self.a * math.sin(w * s) + self.b * math.cos(w * s))
        if self.name == "cosh":
            return w * (self.a * math.sinh(w * s) + self.b * math.cosh(w * s))
        if self.name == "exp":
            return w * self.a * math.exp(w * s)
        return self.b

    def second_derivative(self, s):
        return -self.k_ref * self.value(s)

    def to_spec(self):
        return {"name": self.name, "a": self.a, "b": self.b, "omega": self.omega}


class Warped(SpaceForm):
    """Warped product I x_f N with metric ds^2 + f(s)^2 h.

    The fiber is itself a catalog space form, so every curvature term has a
    closed form: radial planes carry -f''/f and fiber planes
    (K_fiber - f'^2)/f^2.  Ambient coordinates are (s, fiber coordinates).
    """

    kind = "warped"

    def __init__(self, interval, warp: WarpFunction, fiber: SpaceForm):
        self.interval = (float(interval[0]), float(interval[1]))
        if not self.interval[0] < self.interval[1]:
            raise GeometryError("empty warp interval")
        self.warp = warp
        self.fiber = fiber
        self.dim = fiber.dim + 1
        self.amb_dim = fiber.amb_dim + 1
        for s in np.linspace(*self.interval, 17):
            if abs(warp.second_derivative(s) + warp.k_ref * warp.value(s)) > 1e-10:
                raise GeometryError("warp function does not satisfy f'' = -k_ref f")
            if warp.value(s) <= 0:
                raise GeometryError("warp function must be positive on the interval")

    def split(self, x):
        return float(x[0]), np.asarray(x[1:], dtype=float)

    def constraint_residual(self, x):
        s, y = self.split(x)
        if not (self.interval[0] <= s <= self.interval[1]):
            return math.inf
        return self.fiber.constraint_residual(y)

    def constraint_residuals(self, xs):
        s = xs[:, 0]
        inside = (self.interval[0] <= s) & (s <= self.interval[1])
        return np.where(inside, self.fiber.constraint_residuals(xs[:, 1:]), math.inf)

    def tangency_residual(self, x, v):
        _, y = self.split(x)
        return self.fiber.tangency_residual(y, np.asarray(v[1:], dtype=float))

    def closest_point(self, x):
        s, y = self.split(x)
        s = min(max(s, self.interval[0]), self.interval[1])
        return np.concatenate(([s], self.fiber.closest_point(y)))

    def _check_s(self, s):
        if not (self.interval[0] <= s <= self.interval[1]):
            raise DomainError(f"radial coordinate {s:.6g} left the interval {self.interval}")

    def inner_at(self, x, u, v):
        s, y = self.split(x)
        f = self.warp.value(s)
        return float(u[0] * v[0]) + f * f * self.fiber.inner_at(y, u[1:], v[1:])

    def metric_weights(self, xs):
        f2 = np.array([self.warp.value(s) ** 2 for s in xs[:, 0]])[:, None]
        return np.hstack([np.ones_like(f2), f2 * self.fiber.metric_weights(xs[:, 1:])])

    def _normal(self, x):
        return np.concatenate(([0.0], self.fiber._normal(x[1:])))

    def project(self, x, w):
        _, y = self.split(x)
        return np.concatenate(([w[0]], self.fiber.project(y, w[1:])))

    def transport_rhs(self, x, xdot, v):
        s, y = self.split(x)
        f = self.warp.value(s)
        fp = self.warp.derivative(s)
        sdot, ydot = xdot[0], xdot[1:]
        a, vf = v[0], v[1:]
        da = f * fp * self.fiber.inner_at(y, ydot, vf)
        dvf = self.fiber.transport_rhs(y, ydot, vf) - (fp / f) * (sdot * vf + a * ydot)
        return np.concatenate(([da], dvf))

    def geodesic_flow(self, x, v, t, step=DEFAULT_STEP):
        def rhs(_, state):
            xc, vc = state[: self.amb_dim], state[self.amb_dim :]
            self._check_s(xc[0])
            return np.concatenate((vc, self.transport_rhs(xc, vc, vc)))

        out = _rk4(rhs, np.concatenate((x, v)), 0.0, t, _steps_for(t, step))
        xt, vt = out[: self.amb_dim], out[self.amb_dim :]
        self._check_s(xt[0])
        return xt, vt

    def transport_along_geodesic(self, x, v, t, w, step=DEFAULT_STEP):
        def rhs(_, state):
            xc = state[: self.amb_dim]
            vc = state[self.amb_dim : 2 * self.amb_dim]
            wc = state[2 * self.amb_dim :]
            self._check_s(xc[0])
            return np.concatenate(
                (vc, self.transport_rhs(xc, vc, vc), self.transport_rhs(xc, vc, wc))
            )

        out = _rk4(rhs, np.concatenate((x, v, w)), 0.0, t, _steps_for(t, step))
        return out[2 * self.amb_dim :]

    def radial_curvature(self, s):
        return -self.warp.second_derivative(s) / self.warp.value(s)

    def fiber_plane_curvature(self, s):
        f = self.warp.value(s)
        fp = self.warp.derivative(s)
        k_fib = getattr(self.fiber, "curvature_constant", 0.0)
        return (k_fib - fp * fp) / (f * f)

    def curvature_matrix_apply(self, x, xi):
        # Frame index 0 is the radial direction, so plane (0, j) is radial
        # and planes (i, j) with i, j >= 1 lie in the fiber.
        s, _ = self.split(x)
        sig_rad = self.radial_curvature(s)
        sig_fib = self.fiber_plane_curvature(s)
        out = sig_fib * np.array(xi)
        out[0, :] = sig_rad * xi[0, :]
        out[:, 0] = sig_rad * xi[:, 0]
        return out

    def random_point(self, rng, margin=0.15):
        lo, hi = self.interval
        pad = margin * (hi - lo)
        s = rng.uniform(lo + pad, hi - pad)
        return np.concatenate(([s], self.fiber.random_point(rng)))

    def to_spec(self):
        return {
            "kind": "warped",
            "dim": self.dim,
            "interval": list(self.interval),
            "warp": self.warp.to_spec(),
            "fiber": self.fiber.to_spec(),
        }


def from_spec(spec: dict) -> SpaceForm:
    """Build a catalog manifold from its JSON description."""
    kind = spec.get("kind")
    if kind == "euclidean":
        return Euclidean(integral(spec["dim"], "dim"))
    if kind == "sphere":
        return Sphere(integral(spec["dim"], "dim"), float(spec.get("radius", 1.0)))
    if kind == "hyperbolic":
        return Hyperbolic(integral(spec["dim"], "dim"), float(spec.get("radius", 1.0)))
    if kind == "warped":
        w = spec["warp"]
        warp = WarpFunction(
            w["name"], float(w.get("a", 1.0)), float(w.get("b", 0.0)), float(w.get("omega", 1.0))
        )
        return Warped(tuple(spec["interval"]), warp, from_spec(spec["fiber"]))
    raise GeometryError(f"unknown manifold kind {kind!r}")


class GeodesicPath:
    """Driving path given as a geodesic spec (point, direction, duration).

    Constant-curvature manifolds evaluate through their closed forms, at one
    time or (one row each) at an array of times; warped products integrate
    the geodesic once and interpolate, so repeated point queries stay cheap.
    """

    def __init__(self, manifold: SpaceForm, x0, v0, t_max):
        self.manifold = manifold
        self.x0 = np.asarray(x0, dtype=float)
        self.v0 = np.asarray(v0, dtype=float)
        self.t_max = float(t_max)
        self._cache = None

    def _closed_form(self):
        return isinstance(self.manifold, ConstantCurvature)

    def _ensure_cache(self):
        if self._cache is None:
            from scipy.interpolate import CubicSpline

            ts = np.linspace(0.0, self.t_max, max(64, _steps_for(self.t_max, DEFAULT_STEP)) + 1)
            xs, vs = [self.x0], [self.v0]
            for a, b in zip(ts[:-1], ts[1:]):
                x, v = self.manifold.geodesic_flow(xs[-1], vs[-1], b - a, step=b - a)
                xs.append(x)
                vs.append(v)
            self._cache = (CubicSpline(ts, np.array(xs), axis=0),
                           CubicSpline(ts, np.array(vs), axis=0))

    def _flow(self, t):
        if np.ndim(t):
            return self.manifold.geodesic_rows(self.x0, self.v0, t)
        return self.manifold.geodesic_flow(self.x0, self.v0, t)

    def point(self, t):
        if self._closed_form():
            return self._flow(t)[0]
        self._ensure_cache()
        return self.manifold.closest_point(self._cache[0](t))

    def velocity(self, t):
        if self._closed_form():
            return self._flow(t)[1]
        self._ensure_cache()
        return self.manifold.project(self.point(t), self._cache[1](t))

    def sample_times(self, step):
        return np.linspace(0.0, self.t_max, _steps_for(self.t_max, step) + 1)

    def reversed(self):
        xe, ve = self.manifold.geodesic_flow(self.x0, self.v0, self.t_max)
        return GeodesicPath(self.manifold, xe, -ve, self.t_max)


class SampledPath:
    """Driving path given by dense samples; velocities come from a cubic
    spline through the ambient coordinates, projected to the tangent space.
    On a constant-curvature manifold, point and velocity also take an array
    of times and return one row per time."""

    def __init__(self, manifold: SpaceForm, times, points):
        from scipy.interpolate import CubicSpline

        self.manifold = manifold
        self.times = np.asarray(times, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise GeometryError("path time grid must be strictly increasing")
        pts = np.asarray(points, dtype=float)
        for p in pts:
            if manifold.constraint_residual(p) > 1e-8:
                raise GeometryError("path sample lies off the manifold")
        self._spline = CubicSpline(self.times, pts, axis=0)
        self._deriv = self._spline.derivative()

    @property
    def t_max(self):
        return float(self.times[-1])

    def point(self, t):
        return self.manifold.closest_point(self._spline(t))

    def velocity(self, t):
        x = self.point(t)
        if np.ndim(t):
            return self.manifold.project_rows(x, self._deriv(t))
        return self.manifold.project(x, self._deriv(t))

    def sample_times(self, step):
        return self.times

    def reversed(self):
        rev_t = self.times[-1] - self.times[::-1]
        return SampledPath(self.manifold, rev_t, np.asarray(self._spline(self.times))[::-1])
