"""Riemannian primitives for the manifold catalog.

The catalog holds the spaces a rolling pair can be built from: Euclidean
space, round spheres, hyperbolic spaces (hyperboloid model), and warped
products I x_f N over a one-dimensional base.  Spheres and hyperbolic
spaces are represented extrinsically (ambient constraint plus projection),
which gives closed forms for geodesics and parallel transport.  Warped
products are intrinsic pairs (s, fiber point) over a space-form fiber; their
geodesics and transports fall back to RK4, and a geodesic driving path is
sampled through Clairaut's integral.

Every geometry method broadcasts over leading axes: points and vectors have
shape (..., amb_dim), a frame (..., n, amb_dim), and the leading axes of all
arguments broadcast against each other (a single point against a stack of
vectors, say).  Per-point scalars come back with the leading shape.
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
    """Classical fixed-step RK4 from t0 to t1 on a state array."""
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


def _lib(a):
    """math for a single number, NumPy for an array: Python's scalar
    functions cost a fraction of NumPy's on one number."""
    return np if isinstance(a, np.ndarray) and a.ndim else math


def _col(a):
    """Per-point numbers as a column against the ambient axis."""
    return np.asarray(a)[..., None]


def _stack(first, rest):
    """Vectors (first, *rest) from per-point numbers and vectors, the leading
    axes broadcast."""
    rest = np.asarray(rest)
    out = np.empty(np.broadcast(first, rest[..., 0]).shape + (rest.shape[-1] + 1,))
    out[..., 0] = first
    out[..., 1:] = rest
    return out


def integral(value, what):
    """A count read from input: 2 and 2.0 give 2, a non-integral number is
    an input error rather than being truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise GeometryError(f"{what} must be an integer, got {value!r}")
    return int(value)


class SpaceForm:
    """Base class for the catalog manifolds.

    Every catalog metric is diagonal in the ambient coordinates, so the inner
    product, the frames and the frame coordinates are written here once, in
    terms of `metric_weights`.  Subclasses provide the constraint and
    tangency residuals, tangent projection, geodesics, parallel transport, the
    curvature operator in the deterministic frame, the derivatives of the
    projection and the metric weights (for the frame's connection form),
    random_point and to_spec.
    """

    kind = "abstract"
    dim: int
    amb_dim: int

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.to_spec().items() if k != "kind")
        return f"{type(self).__name__}({args})"

    # -- point / tangent construction and validation ----------------------

    def point(self, coords):
        """Validated ambient coordinates of a point on the manifold, or of a
        stack of points (..., amb_dim)."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape[-1:] != (self.amb_dim,):
            raise GeometryError(f"expected {self.amb_dim} ambient coordinates, got {coords.shape}")
        finite = np.isfinite(coords).all(axis=-1)
        err = np.full(finite.shape, math.inf)
        err[finite] = self.constraint_residual(coords[finite])
        if not err.max(initial=0.0) <= POINT_TOL:
            raise GeometryError(f"point violates the {self.kind} constraint by {err.max():.3e}")
        return coords

    def constraint_residual(self, x):
        """Violation of the manifold's constraint at each point (inf off its domain)."""
        raise NotImplementedError

    def closest_point(self, x):
        """Project ambient coordinates back onto the manifold (best effort)."""
        raise NotImplementedError

    # -- metric ------------------------------------------------------------

    def metric_weights(self, x):
        """Diagonal of the metric in ambient coordinates at x:
        inner_at(x, u, v) = sum(w * u * v) over the last axis."""
        raise NotImplementedError

    def inner_at(self, x, u, v):
        return np.vecdot(u * self.metric_weights(x), v)

    def project(self, x, w):
        """Orthogonal projection of an ambient vector onto the tangent space."""
        raise NotImplementedError

    # -- geodesics and transport -------------------------------------------

    def geodesic_flow(self, x, v, t):
        """Return (point, velocity) of the geodesic with initial data (x, v)."""
        raise NotImplementedError

    def transport_rhs(self, x, xdot, v):
        """Ambient derivative of a parallel vector v along a curve with velocity xdot."""
        raise NotImplementedError

    def transport_along_geodesic(self, x, v, t, w):
        """Parallel transport of w from x to the geodesic point at time t."""
        raise NotImplementedError

    # -- curvature -----------------------------------------------------------

    def curvature_matrix_apply(self, x, xi):
        """Apply the curvature operator to a bivector given as a skew matrix
        in the deterministic orthonormal frame at x; returns the same shape."""
        raise NotImplementedError

    def curvature_vector_apply(self, x, X, Y, Z):
        """R(X wedge Y)Z on ambient tangent vectors."""
        fr = self.frame(x)
        a, b, c = self.frame_coords(x, fr, np.array([X, Y, Z], dtype=float))
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

    def frames(self, xs, kept=False):
        """The deterministic orthonormal frames at the rows of xs (N,
        amb_dim), an (N, n, amb_dim) array of row vectors: Gram-Schmidt on the
        projected ambient coordinate basis, in coordinate order, skipping a
        vector whose squared length after orthogonalization is at most
        FRAME_SKIP_TOL**2.  Every kept vector is projected and orthogonalized
        a second time ("twice is enough"), so a frame is tangent and
        orthonormal to round-off even where the subtraction cancels most of a
        vector.  The last row is flipped where needed (_orientation_sign), so
        the frame field is coherently oriented across the manifold; otherwise
        the frame matrix of an orientation-preserving contact map could pick up
        a spurious sign between frame patches.  Each row is computed on its
        own: a row of a stack is the frame of its point alone, bit for bit.
        With kept=True, also the (N, n) coordinate indices whose projected
        basis vectors each frame kept, which connection_form reuses."""
        xs = np.asarray(xs, dtype=float)
        n = self.dim
        rows = np.zeros((len(xs), n, self.amb_dim))
        indices = np.zeros((len(xs), n), dtype=int)
        filled = np.zeros(len(xs), dtype=int)
        basis = self.project(xs[:, None], np.eye(self.amb_dim))
        for k in range(self.amb_dim):
            if np.all(filled == n):
                break
            v = self._orthogonalize(xs, basis[:, k], rows[:, :k])
            take = np.flatnonzero((self.inner_at(xs, v, v) > FRAME_SKIP_TOL**2) & (filled < n))
            at = xs[take]
            v = self._orthogonalize(at, self.project(at, v[take]), rows[take, :k])
            rows[take, filled[take]] = v / np.sqrt(_col(self.inner_at(at, v, v)))
            indices[take, filled[take]] = k
            filled[take] += 1
        if np.any(filled < n):
            raise GeometryError("could not complete an orthonormal frame at this point")
        rows[self._orientation_sign(xs, rows) < 0, -1] *= -1.0
        return (rows, indices) if kept else rows

    def _orthogonalize(self, xs, vs, rows):
        """vs minus its components along rows (rows not yet filled are zero)."""
        coeffs = self.inner_at(xs[:, None], vs[:, None], rows)
        return vs - np.einsum("nk,nka->na", coeffs, rows)

    def frame(self, x):
        """The deterministic orthonormal frame at one point x, an (n, amb_dim)
        array of row vectors: the one row of `frames`."""
        return self.frames(np.asarray(x, dtype=float)[None])[0]

    def connection_form(self, x, v, basis=None):
        """The skew n x n matrix omega with nabla_v E_i = sum_j omega_ij E_j
        for the deterministic frame E at the point x; v is one tangent vector
        or a stack (..., amb_dim), which gives (..., n, n).  `basis`, row
        (frame, kept indices) of frames(., kept=True) at x, saves rerunning
        Gram-Schmidt.

        Gram-Schmidt is a Cholesky factorization: the kept projected basis
        vectors B = P(x) e_k are B = L E, with L = B W E^T lower triangular
        and L L^T = B W B^T.  Differentiating that product along v gives
        L^-1 dL = low(S) for S = Phi + Phi^T + E dW E^T, Phi = L^-1 dB W E^T,
        where low keeps the strict lower part and half the diagonal; then
        dE = L^-1 dB - low(S) E, and nabla_v E = dE - transport_rhs(x, v, E).
        The kept set is locally constant, and an orientation flip of the last
        row negates the last row and column of omega.  Subclasses supply dB
        and dW through project_derivative and metric_weights_derivative.

        omega is skew in exact arithmetic, but where a kept basis vector
        nearly cancels, L^-1 amplifies round-off in its symmetric part (about
        1e-11 of |omega| on a hyperboloid); the skew part is returned."""
        x = np.asarray(x, dtype=float)
        fr, kept = (b[0] for b in self.frames(x[None], kept=True)) if basis is None else basis
        x = x[None]  # against the frame rows
        w = self.metric_weights(x)
        eye = np.eye(self.amb_dim)[kept]
        lower = self.project(x, eye) @ (w * fr).T
        sign = np.sign(np.diag(lower))  # -1 on the last row after a flip
        fr = sign[:, None] * fr
        inv = np.linalg.inv(np.tril(lower * sign))
        v = np.asarray(v, dtype=float)[..., None, :]
        d_basis = self.project_derivative(x, v, eye)
        phi = inv @ (d_basis * w) @ fr.T
        s = phi + phi.mT + (fr * self.metric_weights_derivative(x, v)) @ fr.T
        low = s * (np.tri(self.dim, k=-1) + 0.5 * np.eye(self.dim))
        nabla = inv @ d_basis - low @ fr - self.transport_rhs(x, v, fr)
        omega = sign[:, None] * ((nabla * w) @ fr.T) * sign
        return 0.5 * (omega - omega.mT)

    def project_derivative(self, x, v, w):
        """Derivative of the projection of a fixed ambient vector w along the
        tangent vector v at x: d/dt project(x(t), w) for x'(0) = v."""
        raise NotImplementedError

    def metric_weights_derivative(self, x, v):
        """Derivative of metric_weights along the tangent vector v at x."""
        raise NotImplementedError

    def _orientation_sign(self, x, rows):
        """Determinant of the frame rows against the ambient orientation,
        completed by the normal when the manifold is a hypersurface of its
        coordinates; only its sign is read."""
        if self.amb_dim > self.dim:
            rows = np.concatenate([rows, self._normal(x)[..., None, :]], axis=-2)
        return np.linalg.det(rows)

    def _normal(self, x):
        """Normal of the constraint hypersurface at x (ambient coordinates), up
        to a positive factor."""
        raise NotImplementedError

    def frame_coords(self, x, fr, v):
        """Coefficients of ambient tangent vectors v in the frame rows fr."""
        return self.inner_at(np.asarray(x)[..., None, :], np.asarray(v)[..., None, :], fr)

    # -- sampling ---------------------------------------------------------------

    def random_tangent(self, rng, x, unit=False):
        v = self.project(x, rng.standard_normal(self.amb_dim))
        if unit:
            v = v / math.sqrt(self.inner_at(x, v, v))
        return v


class ConstantCurvature(SpaceForm):
    """Euclidean space, spheres and hyperbolic spaces: the space forms.

    Their metric is the constant diagonal `signature` of the ambient
    coordinates, and a point x of a curved form satisfies <x, x> = 1/K for its
    curvature K; every closed form below follows from these two facts.  A
    point together with an orthonormal frame is one element of SO(n+1),
    SO+(1,n) or SE(n): the (n+1) x (n+1) matrix whose rows are the frame
    vectors and the point, with a homogeneous coordinate appended on R^n (0
    for vectors, 1 for the point).  Parallel transport and rolling move that
    element by exponentials of the generators below.
    """

    signature: np.ndarray
    curvature_constant: float

    def metric_weights(self, x):
        return self.signature

    def tangency_residual(self, x, v):
        return np.abs(self.inner_at(x, x, v)) * math.sqrt(abs(self.curvature_constant))

    def project(self, x, w):
        # dividing by K<x, x> (1 on the manifold) keeps the result orthogonal
        # to x at a point that round-off moved off it: far out on a
        # hyperboloid a computed geodesic point misses <x, x> = 1/K by many
        # ulps, and w - K<x, w> x would then keep a normal part
        k = self.curvature_constant
        norm = k * self.inner_at(x, x, x) if k else 1.0
        return w - _col(k * self.inner_at(x, x, w) / norm) * x

    def project_derivative(self, x, v, w):
        k = self.curvature_constant
        return -k * (_col(self.inner_at(x, v, w)) * x + _col(self.inner_at(x, x, w)) * v)

    def metric_weights_derivative(self, x, v):
        return np.zeros(np.shape(v))

    def transport_rhs(self, x, xdot, v):
        return _col(-self.curvature_constant * self.inner_at(x, v, xdot)) * x

    def _normal(self, x):
        return x

    def geodesic_flow(self, x, v, t):
        """x cos(wt) + v sin(wt)/w and its velocity, w = |v| sqrt|K| (cosh and
        sinh where K < 0; x + t v where w = 0).  t may be an array of times,
        which broadcasts against the leading axes of x and v."""
        _, c, s_over, s_times = self._geodesic_factors(x, v, t)
        return c * x + s_over * v, s_times * x + c * v

    def _geodesic_factors(self, x, v, t):
        """<v, v> and the factors cos(wt), sin(wt)/w, -sign(K) w sin(wt) of the
        geodesic flow, the last three as columns.  A single point takes NumPy's
        cosh and sinh as a stack does, not libm's, which differ from them by
        an ulp: a canonical curve then lands on the same point whether it is
        built alone or in a stack."""
        k = self.curvature_constant
        vv = self.inner_at(x, v, v)
        omega = np.sqrt(abs(k) * np.maximum(vv, 0.0))
        theta = omega * t
        c, s = (np.cos(theta), np.sin(theta)) if k > 0 else (np.cosh(theta), np.sinh(theta))
        s_times = -math.copysign(1.0, k) * (omega * s)
        moving = omega > 0
        s_over = np.where(moving, s, t) / np.where(moving, omega, 1.0)
        return vv, _col(c), _col(s_over), _col(s_times)

    def transport_along_geodesic(self, x, v, t, w):
        """The component of w along v turns with the velocity, the rest stays."""
        vv, c, _, s_times = self._geodesic_factors(x, v, t)
        # <w, v> = 0 where v = 0, so the floor only keeps 0/0 out
        along = self.inner_at(x, w, v) / np.maximum(vv, 1e-300)
        return w + _col(along) * (s_times * x + (c - 1.0) * v)

    def curvature_matrix_apply(self, x, xi):
        return self.curvature_constant * np.asarray(xi)

    def _homogeneous(self, rows, last):
        if self.amb_dim > self.dim:
            return rows
        pad = np.full(rows.shape[:-1] + (1,), last)
        return np.concatenate([rows, pad], axis=-1)

    def group_element(self, x, frame):
        """The (n+1) x (n+1) matrix with the frame rows and the point as rows."""
        return np.vstack([self._homogeneous(np.asarray(frame, dtype=float), 0.0),
                          self._homogeneous(np.asarray(x, dtype=float), 1.0)])

    def group_frame(self, xs, g):
        """The frame rows of group elements g (..., n+1, n+1) at points xs."""
        return g[..., : self.dim, : self.amb_dim]

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
        return np.zeros(np.shape(x)[:-1])[()]

    def closest_point(self, x):
        return np.array(x, dtype=float)

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
        return np.abs(np.linalg.norm(x, axis=-1) - self.radius)

    def closest_point(self, x):
        return self.radius * np.asarray(x, dtype=float) / np.linalg.norm(x, axis=-1, keepdims=True)

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

    def constraint_residual(self, x):
        res = np.abs(self.inner_at(x, x, x) + self.radius**2)
        return np.where(np.asarray(x)[..., 0] > 0, res, math.inf)[()]

    def closest_point(self, x):
        x = np.array(x, dtype=float)
        x[..., 0] = np.sqrt(self.radius**2 + np.sum(x[..., 1:] ** 2, axis=-1))
        return x

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

    Values and derivatives take one s or an array of them.
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
        w, lib = self.omega, _lib(s)
        if self.name == "cos":
            return self.a * lib.cos(w * s) + self.b * lib.sin(w * s)
        if self.name == "cosh":
            return self.a * lib.cosh(w * s) + self.b * lib.sinh(w * s)
        if self.name == "exp":
            return self.a * lib.exp(w * s)
        return self.a + self.b * s

    def derivative(self, s):
        w, lib = self.omega, _lib(s)
        if self.name == "cos":
            return w * (-self.a * lib.sin(w * s) + self.b * lib.cos(w * s))
        if self.name == "cosh":
            return w * (self.a * lib.sinh(w * s) + self.b * lib.cosh(w * s))
        if self.name == "exp":
            return w * self.a * lib.exp(w * s)
        return self.b + 0.0 * s

    def to_spec(self):
        return {"name": self.name, "a": self.a, "b": self.b, "omega": self.omega}


class Warped(SpaceForm):
    """Warped product I x_f N with metric ds^2 + f(s)^2 h.

    The fiber is itself a catalog space form, so every curvature term has a
    closed form: radial planes carry -f''/f = k_ref and fiber planes
    (K_fiber - f'^2)/f^2.  Ambient coordinates are (s, fiber coordinates).
    """

    kind = "warped"

    def __init__(self, interval, warp: WarpFunction, fiber: ConstantCurvature):
        if not isinstance(fiber, ConstantCurvature):
            raise GeometryError(f"the fiber of a warped product must be a space form, "
                                f"not {fiber.kind!r}")
        self.interval = (float(interval[0]), float(interval[1]))
        if not self.interval[0] < self.interval[1]:
            raise GeometryError("empty warp interval")
        self.warp = warp
        self.fiber = fiber
        self.dim = fiber.dim + 1
        self.amb_dim = fiber.amb_dim + 1
        if np.any(warp.value(np.linspace(*self.interval, 17)) <= 0):
            raise GeometryError("warp function must be positive on the interval")

    def _inside(self, s):
        return (self.interval[0] <= s) & (s <= self.interval[1])

    def constraint_residual(self, x):
        x = np.asarray(x)
        return np.where(self._inside(x[..., 0]), self.fiber.constraint_residual(x[..., 1:]),
                        math.inf)[()]

    def tangency_residual(self, x, v):
        return self.fiber.tangency_residual(np.asarray(x)[..., 1:], np.asarray(v)[..., 1:])

    def closest_point(self, x):
        x = np.asarray(x, dtype=float)
        s = np.minimum(np.maximum(x[..., 0], self.interval[0]), self.interval[1])
        return _stack(s, self.fiber.closest_point(x[..., 1:]))

    def _check_s(self, s):
        s = np.asarray(s)
        inside = self._inside(s)
        if not inside.all():
            raise DomainError(f"radial coordinate {s[~inside].flat[0]:.6g} left the interval "
                              f"{self.interval}")

    def metric_weights(self, x):
        x = np.asarray(x)
        f = self.warp.value(x[..., 0])
        return _stack(1.0, _col(f * f) * self.fiber.metric_weights(x[..., 1:]))

    def _normal(self, x):
        return _stack(0.0, self.fiber._normal(np.asarray(x)[..., 1:]))

    def project(self, x, w):
        w = np.asarray(w, dtype=float)
        return _stack(w[..., 0], self.fiber.project(np.asarray(x)[..., 1:], w[..., 1:]))

    def project_derivative(self, x, v, w):
        x, v, w = np.asarray(x), np.asarray(v), np.asarray(w)
        return _stack(0.0, self.fiber.project_derivative(x[..., 1:], v[..., 1:], w[..., 1:]))

    def metric_weights_derivative(self, x, v):
        # d(f^2 h) = 2 f f' ds h + f^2 dh
        x, v = np.asarray(x), np.asarray(v)
        f, fp = self.warp.value(x[..., 0]), self.warp.derivative(x[..., 0])
        y = x[..., 1:]
        return _stack(0.0, _col(2 * f * fp * v[..., 0]) * self.fiber.metric_weights(y)
                      + _col(f * f) * self.fiber.metric_weights_derivative(y, v[..., 1:]))

    def transport_rhs(self, x, xdot, v):
        s, y = x[..., 0], x[..., 1:]
        f, fp = self.warp.value(s), self.warp.derivative(s)
        ydot, vf = xdot[..., 1:], v[..., 1:]
        da = _col(f * fp * self.fiber.inner_at(y, ydot, vf))
        dvf = self.fiber.transport_rhs(y, ydot, vf) - _col(fp / f) * (
            xdot[..., :1] * vf + v[..., :1] * ydot)
        return np.concatenate((da, dvf), axis=-1)  # both have every argument's leading axes

    def _fiber_scale(self, xs):
        """(1, f(s), ..., f(s)) at each point, as a row against frame rows."""
        f = self.warp.value(np.asarray(xs)[..., 0])
        return _stack(1.0, _col(f) * np.ones(self.fiber.amb_dim))[..., None, :]

    def group_element(self, x, frame):
        """The frame rows with their fiber coordinates multiplied by f(s): an
        n x amb_dim matrix F with F J F^T = I for J = diag(1, fiber
        signature), whatever s is.  Along a curve a parallel frame moves it by
        F' = F Z, Z from transport_generators, and Z J is skew, so Magnus
        steps keep F J F^T = I to round-off.  This holds along any path,
        through the points where the deterministic frame jumps."""
        return np.asarray(frame, dtype=float) * self._fiber_scale(x)

    def group_frame(self, xs, g):
        """The frame rows held by elements g (..., n, amb_dim) at points xs."""
        return g / self._fiber_scale(xs)

    def transport_generators(self, xs, vs):
        """Z with F' = F Z for the element F of a parallel frame along a curve
        through the rows of xs with velocities vs.  With q the fiber part of a
        row of F (f times the frame vector's) and a its radial part, the
        transport equations read a' = f'(s) <q, y'>_h and q' = -f'(s) a y' +
        (q's fiber transport), the last from the fiber's own generator."""
        fp = _col(self.warp.derivative(xs[:, 0]))
        y, ydot, m = xs[:, 1:], vs[:, 1:], self.fiber.amb_dim
        z = np.zeros((len(xs), self.amb_dim, self.amb_dim))
        z[:, 0, 1:] = -fp * ydot
        z[:, 1:, 0] = fp * self.fiber.signature * ydot
        z[:, 1:, 1:] = self.fiber.transport_generators(y, ydot)[:, :m, :m]
        return z

    def _geodesic_rk4(self, t, x, v, *ws):
        """RK4 from time 0 to t of the geodesic with initial data (x, v) and of
        the vectors ws transported along it; returns the state stacked on the
        second-to-last axis: point, velocity, then the transported vectors.
        An array of times broadcasts against the leading axes of the data, and
        every time is reached in the step count of the longest."""

        def rhs(_, y):
            xc, vc = y[..., :1, :], y[..., 1:2, :]
            self._check_s(xc[..., 0, 0])
            return np.concatenate((vc, self.transport_rhs(xc, vc, y[..., 1:, :])), axis=-2)

        y0 = np.stack(np.broadcast_arrays(x, v, *ws), axis=-2)
        t = np.asarray(t, dtype=float)
        y0 = np.broadcast_to(y0, np.broadcast_shapes(t.shape, y0.shape[:-2]) + y0.shape[-2:])
        out = _rk4(rhs, y0, 0.0, t[..., None, None], _steps_for(np.abs(t).max(), DEFAULT_STEP))
        self._check_s(out[..., 0, 0])
        return out

    def geodesic_flow(self, x, v, t):
        out = self._geodesic_rk4(t, x, v)
        return out[..., 0, :], out[..., 1, :]

    def transport_along_geodesic(self, x, v, t, w):
        return self._geodesic_rk4(t, x, v, w)[..., 2, :]

    def fiber_plane_curvature(self, s):
        f = self.warp.value(s)
        fp = self.warp.derivative(s)
        return (self.fiber.curvature_constant - fp * fp) / (f * f)

    def curvature_matrix_apply(self, x, xi):
        # Frame index 0 is the radial direction, so plane (0, j) is radial
        # and planes (i, j) with i, j >= 1 lie in the fiber.
        s = np.asarray(x)[..., 0]
        first = np.arange(self.dim) == 0
        radial = first[:, None] | first[None, :]
        sigma = np.where(radial, self.warp.k_ref, _col(_col(self.fiber_plane_curvature(s))))
        return sigma * np.asarray(xi)

    def random_point(self, rng):
        lo, hi = self.interval
        pad = 0.15 * (hi - lo)  # keep random points off the ends of the interval
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

    Point, velocity and both together (`flow`) take one time or (one row
    each) an array of times.  Constant-curvature manifolds evaluate through
    their closed forms.  On a warped product I x_f N, f(s)^2 |y'|_h = c is
    conserved (Clairaut's integral), so the fiber part y runs along the fiber
    geodesic of the unit direction of y'(0), at the arclength phi with
    phi' = c / f(s)^2, while s'' = c^2 f'(s) / f(s)^3.  The scalar system
    (s, s', phi) is integrated once by RK4 over the whole path, and any time
    is reached by one RK4 step from the grid time below it; the point is
    exactly on the manifold.
    """

    def __init__(self, manifold: SpaceForm, x0, v0, t_max):
        self.manifold = manifold
        self.x0 = np.asarray(x0, dtype=float)
        self.v0 = np.asarray(v0, dtype=float)
        self.t_max = float(t_max)
        self._table = None

    def point(self, t):
        return self.flow(t)[0]

    def velocity(self, t):
        return self.flow(t)[1]

    def flow(self, t):
        """(point, velocity) at t."""
        m = self.manifold
        if isinstance(m, ConstantCurvature):
            return m.geodesic_flow(self.x0, self.v0, t)
        if self._table is None:
            self._table = self._clairaut_table()
        h, grid, c, direction = self._table
        t = np.asarray(t, dtype=float)
        k = np.clip(np.floor(t / h), 0, len(grid) - 1).astype(int) if h else np.zeros(t.shape, int)
        s, sdot, phi = _clairaut_step(m.warp, c, *grid[k].T, t - k * h)
        m._check_s(s)
        y, ydot = m.fiber.geodesic_flow(self.x0[1:], direction, phi)
        return _stack(s, y), _stack(sdot, _col(c / m.warp.value(s) ** 2) * ydot)

    def _clairaut_table(self):
        """(grid step, rows (s, s', phi) at the grid times, Clairaut's c, the
        unit fiber direction)."""
        m = self.manifold
        y0, eta = self.x0[1:], self.v0[1:]
        speed = math.sqrt(max(float(m.fiber.inner_at(y0, eta, eta)), 0.0))
        c = float(m.warp.value(self.x0[0])) ** 2 * speed
        direction = eta / speed if speed > 0 else np.zeros_like(eta)
        steps = _steps_for(self.t_max, DEFAULT_STEP)
        h = self.t_max / steps
        rows = [(float(self.x0[0]), float(self.v0[0]), 0.0)]
        lo, hi = m.interval
        for _ in range(steps):
            rows.append(_clairaut_step(m.warp, c, *rows[-1], h))
            if not lo <= rows[-1][0] <= hi:
                m._check_s(rows[-1][0])
        return h, np.array(rows), c, direction

    def sample_times(self, step):
        return np.linspace(0.0, self.t_max, _steps_for(self.t_max, step) + 1)

    def reversed(self):
        x, v = self.flow(self.t_max)
        return GeodesicPath(self.manifold, x, -v, self.t_max)


def _clairaut_step(warp, c, s, sdot, phi, h):
    """One RK4 step of length h of s'' = c^2 f'(s) / f(s)^3, phi' = c / f(s)^2
    from (s, s', phi); numbers or arrays alike."""

    def rates(s, sdot):
        f = warp.value(s)
        return sdot, c * c * warp.derivative(s) / (f * f * f), c / (f * f)

    k1 = rates(s, sdot)
    k2 = rates(s + h / 2 * k1[0], sdot + h / 2 * k1[1])
    k3 = rates(s + h / 2 * k2[0], sdot + h / 2 * k2[1])
    k4 = rates(s + h * k3[0], sdot + h * k3[1])
    return tuple(y + h / 6 * (r1 + 2 * r2 + 2 * r3 + r4)
                 for y, r1, r2, r3, r4 in zip((s, sdot, phi), k1, k2, k3, k4))


class SampledPath:
    """Driving path given by dense samples; velocities come from a cubic
    spline through the ambient coordinates, projected to the tangent space.
    Point, velocity and flow also take an array of times and return one row
    per time."""

    def __init__(self, manifold: SpaceForm, times, points):
        from scipy.interpolate import CubicSpline

        self.manifold = manifold
        self.times = np.asarray(times, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise GeometryError("path time grid must be strictly increasing")
        pts = np.asarray(points, dtype=float)
        if np.any(manifold.constraint_residual(pts) > 1e-8):
            raise GeometryError("path sample lies off the manifold")
        self._spline = CubicSpline(self.times, pts, axis=0)
        self._deriv = self._spline.derivative()

    @property
    def t_max(self):
        return float(self.times[-1])

    def point(self, t):
        return self.manifold.closest_point(self._spline(t))

    def velocity(self, t):
        return self.flow(t)[1]

    def flow(self, t):
        """(point, velocity) at t."""
        x = self.point(t)
        return x, self.manifold.project(x, self._deriv(t))

    def sample_times(self, step):
        return self.times

    def reversed(self):
        rev_t = self.times[-1] - self.times[::-1]
        return SampledPath(self.manifold, rev_t, np.asarray(self._spline(self.times))[::-1])
