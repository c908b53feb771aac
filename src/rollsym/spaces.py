"""Riemannian primitives for the manifold catalog.

The catalog holds the spaces a rolling pair can be built from: Euclidean
space, round spheres, hyperbolic spaces (hyperboloid model), and warped
products I x_f N over a one-dimensional base.  Spheres and hyperbolic
spaces are represented extrinsically (ambient constraint plus projection),
which gives closed forms for geodesics and parallel transport.  Warped
products are intrinsic pairs (s, fiber point) over a space-form fiber; their
geodesics, transports and geodesic paths follow Clairaut's integral, which
gives s and the fiber arclength in closed form, and the fiber's closed forms.

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


class GeometryError(ValueError):
    """A geometric precondition failed (off-manifold point, base mismatch, ...)."""


class DomainError(GeometryError):
    """A curve or geodesic left the manifold's coordinate domain."""


class MismatchError(GeometryError):
    """A candidate or generator does not fit the manifold it is applied to."""


def _steps_for(span, step):
    return max(1, int(math.ceil(abs(span) / step)))


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


def _k_functions(k, t):
    """C = cos(r t), S = sin(r t) / r and V = (1 - C) / k for r = sqrt(k) when
    k > 0, their hyperbolic forms when k < 0 and the limits 1, t and t^2 / 2
    when k = 0: C' = -k S, S' = C and V' = S."""
    if k == 0:
        return np.ones_like(t), t, t * t / 2
    r = math.sqrt(abs(k))
    cos, sin = (np.cos, np.sin) if k > 0 else (np.cosh, np.sinh)
    return cos(r * t), sin(r * t) / r, 2.0 * (sin(r * t / 2) / r) ** 2


def _atan_k(k, y, x):
    """a with tan_k(a) = y / x, for tan_k(a) = tan(sqrt(k) a) / sqrt(k) when k
    > 0, tanh(sqrt(-k) a) / sqrt(-k) when k < 0 and a when k = 0; when k > 0,
    sqrt(k) a is the angle of (x, sqrt(k) y), in (-pi, pi]."""
    if k == 0:
        return y / x
    r = math.sqrt(abs(k))
    return (np.arctan2(r * y, x) if k > 0 else np.arctanh(r * y / x)) / r


def _turning_points(k, a, b, t):
    """The times between 0 and t (t included) at which a C + b S vanishes,
    for C and S of k as in _k_functions, and 0 in place of those that do not
    come: the first two when k > 0, for a S + b V is then periodic and takes
    its extremes there, and the only one when k <= 0."""
    d = np.sign(t)  # the direction of t
    # NaN where there is none, and 0 * inf at t = 0 where a C + b S never vanishes
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = _atan_k(k, -a, b)
        if k > 0:
            half = math.pi / math.sqrt(k)  # half a period
            first = d * np.mod(d * tau, half)
            tau = np.concatenate((first, first + d * half), axis=-1)
        return np.where((d * tau > 0) & (d * tau <= d * t), tau, 0.0)


def integral(value, what):
    """A count read from input: 2 and 2.0 give 2, a non-integral number is
    an input error rather than being truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise GeometryError(f"{what} must be an integer, got {value!r}")
    return int(value)


class SpaceForm:
    """Base class for the catalog manifolds.

    Every catalog metric is diagonal in the ambient coordinates, so the inner
    product and the frame coordinates are written here once, in terms of
    `metric_weights`.  Subclasses provide the constraint and tangency
    residuals, tangent projection, geodesics, parallel transport, the
    deterministic frame and the curvature operator in it, a frame anchored at
    a point (from which anchored_connection follows), all in closed form, and
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
        err = self.point_error(coords)
        if not err.max(initial=0.0) <= POINT_TOL:
            raise GeometryError(f"point violates the {self.kind} constraint by {err.max():.3e}")
        return coords

    def point_error(self, coords):
        """constraint_residual at a stack of ambient coordinates (..., amb_dim),
        inf where one is not finite or overflows: `point` takes at most
        POINT_TOL."""
        if coords.shape[-1:] != (self.amb_dim,):
            raise GeometryError(f"expected {self.amb_dim} ambient coordinates, got {coords.shape}")
        finite = np.isfinite(coords).all(axis=-1)
        err = np.full(finite.shape, math.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            err[finite] = self.constraint_residual(coords[finite])
        return err

    def constraint_residual(self, x):
        """Violation of the manifold's constraint at each point (inf off its domain)."""
        raise NotImplementedError

    def closest_point(self, x):
        """Project ambient coordinates back onto the manifold (best effort)."""
        raise NotImplementedError

    def closest_point_rate(self, x, xdot):
        """The derivative of closest_point at ambient coordinates x along
        xdot: xdot itself on R^n, which closest_point leaves as it is."""
        return np.array(xdot, dtype=float)

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
        """(point, velocity) at time t of the geodesic with initial data (x,
        v): the velocity is v transported along its own geodesic."""
        return self.transport_along_geodesic(x, v, t, v)

    def transport_rhs(self, x, xdot, v):
        """Ambient derivative of a parallel vector v along a curve with velocity xdot."""
        raise NotImplementedError

    def transport_along_geodesic(self, x, v, t, w):
        """(point, transported w) at time t of the geodesic with initial data
        (x, v): the geodesic is evaluated once for both.  The point has the
        leading axes of x, v and t broadcast, the transport those of w too."""
        raise NotImplementedError

    # -- curvature -----------------------------------------------------------

    def curvature_matrix_apply(self, x, xi):
        """Apply the curvature operator to a bivector given as a skew matrix
        in the deterministic orthonormal frame at x; returns the same shape."""
        raise NotImplementedError

    def curvature_derivative_apply(self, x, c, xi):
        """(nabla_X R)(xi) for X with deterministic-frame coordinates c at x,
        and xi as in curvature_matrix_apply; leading axes broadcast."""
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

    def frames(self, xs):
        """The deterministic orthonormal frames at the points xs (...,
        amb_dim), a (..., n, amb_dim) array of row vectors: Gram-Schmidt on the
        projected ambient coordinate basis, in coordinate order, skipping a
        vector whose squared length after orthogonalization is at most
        FRAME_SKIP_TOL**2 and every vector once n rows are kept.  The last row
        is flipped where the rows followed by the constraint's normal (x on S^n
        and H^n, (0, y) on a warped product over them) have negative
        determinant, so that the frame field is coherently oriented.

        _frames computes this in closed form: the identity on R^n, (d/ds, fiber
        frame / f(s)) on a warped product.  On S^n and H^n, with signature s,
        w_i = s_i x_i^2 and T_k the sum of w_i over the coordinates after k not
        kept before k (x' is x on them), coordinate k leaves s_k T_k / (T_k +
        w_k) of squared length and, if kept, gives the row sign(s_k T_k) (T_k
        e_k - s_k x_k x') / sqrt|s_k T_k (T_k + w_k)|.  So exactly one j is
        skipped, the determinant has the sign of (-1)^(n - j) x_j, and a row of
        a stack is the frame of its point alone, bit for bit.  A frame that is
        not finite raises; canonical curves and rolls take _frames and check the row."""
        xs = np.asarray(xs, dtype=float)
        lead, xs = xs.shape[:-1], xs.reshape(-1, self.amb_dim)
        rows = self._frames(xs)
        if not np.isfinite(rows).all():
            raise GeometryError("could not complete an orthonormal frame at this point")
        return rows.reshape(lead + rows.shape[1:])

    def frame(self, x):
        """`frames` of one point x: an (n, amb_dim) array of row vectors."""
        return self.frames(x)

    def anchored_frame(self, x0, frame0, x, v=None, w=None):
        """The frame F at x anchored at the orthonormal frame rows frame0 at
        x0, moved from there by a closed form, its ambient derivative dF(v)
        along the vector v at x and its second ambient derivative d2F(v, w)
        along v and w (None without v, or without w).  The derivatives are
        those of the closed form in the ambient coordinates of x, so they
        take any ambient vectors and follow the chain rule along any curve.
        x0, x, v and w are (..., amb_dim) and frame0 (..., n, amb_dim), their
        leading axes broadcast, and F, dF and d2F are (..., n, amb_dim)."""
        raise NotImplementedError

    def anchored_connection(self, x0, frame0, x, v):
        """The matrices omega with nabla_v F_k = sum_j omega_kj F_j for the
        frame F anchored at (x0, frame0), at x along v (leading axes as in
        anchored_frame), (..., n, n): omega_kj = <dF_k(v) - transport_rhs(x,
        v, F_k), F_j>, skew to round-off."""
        fr, d_fr, _ = self.anchored_frame(x0, frame0, x, v)
        x, v = np.asarray(x, dtype=float)[..., None, :], np.asarray(v, dtype=float)[..., None, :]
        nabla = d_fr - self.transport_rhs(x, v, fr)
        return self.inner_at(x[..., None, :], nabla[..., :, None, :], fr[..., None, :, :])

    def frame_coords(self, x, fr, v):
        """Coefficients of ambient tangent vectors v in the frame rows fr."""
        return self.inner_at(np.asarray(x)[..., None, :], np.asarray(v)[..., None, :], fr)

    # -- sampling ---------------------------------------------------------------

    def random_point(self, rng, shape=()):
        """Random points, a stack of the given shape (() for one point)."""
        raise NotImplementedError

    def random_tangent(self, rng, x, unit=False):
        """A random tangent vector at x, or one at each point of the stack x,
        from one standard normal draw of x's shape; unit length if `unit`."""
        v = self.project(x, rng.standard_normal(np.shape(x)))
        if unit:
            v = v / np.sqrt(self.inner_at(x, v, v))[..., None]
        return v


class ConstantCurvature(SpaceForm):
    """Euclidean space, spheres and hyperbolic spaces: the space forms.

    Their metric is the constant diagonal `signature` of the ambient
    coordinates, and a point x of a curved form satisfies <x, x> = 1/K for its
    curvature K; every closed form below follows from these two facts.  Along
    a curve, the rows of a parallel frame move by exponentials of
    transport_generators, and the point with the images of a frame as
    columns by those of development_generators.
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

    def transport_rhs(self, x, xdot, v):
        return _col(-self.curvature_constant * self.inner_at(x, v, xdot)) * x

    def anchored_frame(self, x0, frame0, x, v=None, w=None):
        """The transvection of the frame rows e at x0, T e = e - c (x0 + x)
        with c = K<x, e> / (1 + K<x0, x>): parallel transport along the
        geodesic from x0 to x, a rotation of S^n (short of the antipode of
        x0), a boost of H^n and the identity of R^n.  dF(v) = -dc(v) (x0 + x)
        - c v, and d2F(v, w) = -d2c(v, w) (x0 + x) - dc(v) w - dc(w) v."""
        k = self.curvature_constant
        x0, frame0, x = (np.asarray(a, dtype=float) for a in (x0, frame0, x))
        lowered, ends = frame0 * self.signature, (x0 + x)[..., None, :]
        denom = 1.0 + k * self.inner_at(x, x0, x)[..., None, None]
        coef = k * (lowered @ x[..., None]) / denom

        def d_coef(u):  # dc(u) and K<x0, u>, both against the frame rows
            x0_u = self.inner_at(x, x0, u)[..., None, None]
            return k * (lowered @ u[..., None] - coef * x0_u) / denom, k * x0_u

        fr = frame0 - coef * ends
        if v is None:
            return fr, None, None
        v = np.asarray(v, dtype=float)
        dv, kv = d_coef(v)
        d_fr = -dv * ends - coef * v[..., None, :]
        if w is None:
            return fr, d_fr, None
        w = np.asarray(w, dtype=float)
        dw, kw = d_coef(w)
        dd = -(dw * kv + dv * kw) / denom
        return fr, d_fr, -dd * ends - dv * w[..., None, :] - dw * v[..., None, :]

    def _frames(self, xs, weight=1.0):
        """`frames` in closed form; weight scales the skip test (f(s)^2 on a fiber)."""
        n, s = self.dim, self.signature
        if n == self.amb_dim:
            return np.tile(np.eye(n), (len(xs), 1, 1))
        w = s * xs * xs
        tail = np.zeros_like(w)  # the sum of w over the coordinates after each
        tail[:, :-1] = np.cumsum(w[:, :0:-1], axis=1)[:, ::-1]
        # the squared lengths before any skip, s tail / (tail + w), tested
        # undivided: s (tail + w) = s tail + x^2 is never negative
        j = np.argmax(weight * tail <= FRAME_SKIP_TOL**2 * s * (tail + w), axis=1)  # skipped
        at, r = np.arange(len(xs))[:, None], np.arange(n)
        k = r + (r >= j[:, None])  # the kept coordinates, row by row
        after = k > j[:, None]
        t = tail[at, k] + np.where(after, w[at, j[:, None]], 0.0)
        st, total = s[k] * t, t + w[at, k]
        i = np.arange(self.amb_dim)
        free = (i > k[..., None]) | ((i == j[:, None, None]) & after[..., None])
        rows = np.where(free, xs[:, None, :], 0.0) * _col(-s[k] * xs[at, k])
        rows[at, r, k] = t
        rows *= _col(np.sign(st) / np.sqrt(np.abs(st * total)))
        rows[(-1.0) ** (n - j) * xs[at[:, 0], j] < 0, -1] *= -1.0
        return rows

    def transport_along_geodesic(self, x, v, t, w):
        """The point C x + S u at arclength |v| t along u = v / |v| (0 where
        v = 0), for C and S of K (_k_functions); the component of w along u
        turns with the velocity C u - K S x, the rest stays.  A single point
        takes NumPy's cos, cosh and sinh as a stack does, so that a canonical
        curve lands on the same point whether it is built alone or in a
        stack."""
        k = self.curvature_constant
        speed = np.sqrt(np.maximum(self.inner_at(x, v, v), 0.0))[..., None]
        u = v / np.where(speed > 0, speed, 1.0)
        cos, sin, _ = _k_functions(k, speed * np.asarray(t, dtype=float)[..., None])
        return cos * x + sin * u, w + _col(self.inner_at(x, w, u)) * ((cos - 1.0) * u - k * sin * x)

    def curvature_matrix_apply(self, x, xi):
        return self.curvature_constant * np.asarray(xi)

    def curvature_derivative_apply(self, x, c, xi):
        """Zero: the curvature operator of a space form is K times the identity."""
        return np.zeros(np.broadcast_shapes(np.shape(c)[:-1] + (1, 1), np.shape(xi)))

    def transport_generators(self, xs, vs):
        """Z with F' = F Z for the rows F of a parallel frame along a curve
        through the rows of xs with velocities vs: Z = K (Jx v^T - Jv x^T),
        zero on R^n.  Z J is skew for the signature J, so F J F^T stays
        fixed."""
        k, w = self.curvature_constant, self.signature
        return k * ((w * xs)[:, :, None] * vs[:, None, :] - (w * vs)[:, :, None] * xs[:, None, :])

    def development_generators(self, cs):
        """X with H' = H X for the matrix H whose columns are a frame and then
        its point, the point moving with frame coordinates cs of its velocity
        while the frame stays parallel: X = [[0, c], [-K c^T, 0]]."""
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

    def random_point(self, rng, shape=()):
        return rng.standard_normal(shape + (self.amb_dim,))

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

    def closest_point_rate(self, x, xdot):
        """r / |x| times the part of xdot orthogonal to x (project divides by <x, x>)."""
        return self.radius / np.linalg.norm(x, axis=-1, keepdims=True) * self.project(x, xdot)

    def random_point(self, rng, shape=()):
        v = rng.standard_normal(shape + (self.amb_dim,))
        return self.radius * v / np.sqrt(np.vecdot(v, v))[..., None]

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

    def closest_point_rate(self, x, xdot):
        """xdot with its time part y . ydot / x_0 for the space parts y, ydot."""
        y, rate = np.asarray(x, dtype=float)[..., 1:], np.array(xdot, dtype=float)
        rate[..., 0] = np.vecdot(y, rate[..., 1:]) / np.sqrt(self.radius**2 + np.vecdot(y, y))
        return rate

    def random_point(self, rng, shape=()):
        spatial = rng.standard_normal(shape + (self.dim,))
        return np.concatenate((np.sqrt(self.radius**2 + np.vecdot(spatial, spatial))[..., None],
                               spatial), axis=-1)

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

    @property
    def invariant(self):
        """f'^2 + k_ref f^2, the same at every s."""
        w2, a2, b2 = self.omega**2, self.a**2, self.b**2
        return {"cos": w2 * (a2 + b2), "cosh": w2 * (b2 - a2), "exp": 0.0, "affine": b2}[self.name]

    def value(self, s):
        w = self.omega
        if self.name == "cos":
            return self.a * np.cos(w * s) + self.b * np.sin(w * s)
        if self.name == "cosh":
            return self.a * np.cosh(w * s) + self.b * np.sinh(w * s)
        if self.name == "exp":
            return self.a * np.exp(w * s)
        return self.a + self.b * s

    def derivative(self, s):
        w = self.omega
        if self.name == "cos":
            return w * (-self.a * np.sin(w * s) + self.b * np.cos(w * s))
        if self.name == "cosh":
            return w * (self.a * np.sinh(w * s) + self.b * np.cosh(w * s))
        if self.name == "exp":
            return w * self.a * np.exp(w * s)
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
        lo, hi = self.interval = (float(interval[0]), float(interval[1]))
        if not lo < hi:
            raise GeometryError("empty warp interval")
        self.warp = warp
        self.fiber = fiber
        self.dim = fiber.dim + 1
        self.amb_dim = fiber.amb_dim + 1
        # cos vanishes once in every pi / |omega|; the others at most once, changing sign
        short = warp.name != "cos" or abs(warp.omega) * (hi - lo) < math.pi
        if not (short and np.all(warp.value(np.array(self.interval)) > 0)):
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

    def closest_point_rate(self, x, xdot):
        """No radial rate where s is clamped to the interval, then the fiber's."""
        return _stack(np.where(self._inside(x[..., 0]), xdot[..., 0], 0.0),
                      self.fiber.closest_point_rate(x[..., 1:], xdot[..., 1:]))

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

    def project(self, x, w):
        w = np.asarray(w, dtype=float)
        return _stack(w[..., 0], self.fiber.project(np.asarray(x)[..., 1:], w[..., 1:]))

    def transport_rhs(self, x, xdot, v):
        s, y = x[..., 0], x[..., 1:]
        f, fp = self.warp.value(s), self.warp.derivative(s)
        ydot, vf = xdot[..., 1:], v[..., 1:]
        da = _col(f * fp * self.fiber.inner_at(y, ydot, vf))
        dvf = self.fiber.transport_rhs(y, ydot, vf) - _col(fp / f) * (
            xdot[..., :1] * vf + v[..., :1] * ydot)
        return np.concatenate((da, dvf), axis=-1)  # both have every argument's leading axes

    def anchored_frame(self, x0, frame0, x, v=None, w=None):
        """Each row of frame0 keeps its radial part, and its fiber part is
        moved by the fiber's anchored frame Phi and scaled by sigma = f(s0) /
        f(s), which keeps the rows orthonormal for ds^2 + f(s)^2 h.  A
        deterministic frame0 keeps row 0 radial.  With rho = f'/f, sigma' =
        -rho sigma and sigma'' = (2 rho^2 + k_ref) sigma, since f'' = -k_ref f."""
        x0, frame0, x = (np.asarray(a, dtype=float) for a in (x0, frame0, x))
        y0, fr0, y = x0[..., 1:], frame0[..., 1:], x[..., 1:]
        f = self.warp.value(x[..., 0])
        scale = _col(_col(self.warp.value(x0[..., 0]) / f))
        rho = _col(_col(self.warp.derivative(x[..., 0]) / f))
        v, w = (None if u is None else np.asarray(u, dtype=float) for u in (v, w))
        fiber, d_v, dd = self.fiber.anchored_frame(y0, fr0, y, *(None if u is None else u[..., 1:]
                                                                 for u in (v, w)))
        fr = _stack(frame0[..., 0], scale * fiber)
        if v is None:
            return fr, None, None
        sv = _col(_col(v[..., 0]))
        d_fr = _stack(0.0, scale * (d_v - rho * sv * fiber))
        if w is None:
            return fr, d_fr, None
        sw, d_w = _col(_col(w[..., 0])), self.fiber.anchored_frame(y0, fr0, y, w[..., 1:])[1]
        dd = dd - rho * (sw * d_v + sv * d_w) + (2.0 * rho * rho + self.warp.k_ref) * sv * sw * fiber
        return fr, d_fr, _stack(0.0, scale * dd)

    def _frames(self, xs):
        """d/ds, then the fiber's frame over f(s), skip test scaled by f(s)^2 as lengths are."""
        f = _col(self.warp.value(xs[:, 0]))
        out = np.zeros((len(xs), self.dim, self.amb_dim))
        out[:, 0, 0] = 1.0
        out[:, 1:, 1:] = self.fiber._frames(xs[:, 1:], f * f) / f[..., None]
        return out

    def transport_generators(self, xs, vs):
        """Z with F' = F Z for the rows F of a parallel frame times sqrt|w|
        (metric_weights) along a curve through the rows of xs with velocities
        vs.  With q the fiber part of a row of F (f times the frame vector's)
        and a its radial part, the transport equations read a' = f'(s) <q,
        y'>_h and q' = -f'(s) a y' + (q's fiber transport), the last from the
        fiber's own generator.  Z J is skew for J = diag(1, fiber signature)."""
        fp = _col(self.warp.derivative(xs[:, 0]))
        y, ydot = xs[:, 1:], vs[:, 1:]
        z = np.zeros((len(xs), self.amb_dim, self.amb_dim))
        z[:, 0, 1:] = -fp * ydot
        z[:, 1:, 0] = fp * self.fiber.signature * ydot
        z[:, 1:, 1:] = self.fiber.transport_generators(y, ydot)
        return z

    def _clairaut_flow(self, x, v, t):
        """The unit fiber direction u of y' (0 where y' = 0) and f(s0), then
        at the times t: s, f(s), the angle the velocity has turned through in
        the orthonormal pair (d/ds, sigma'/f) and the fiber arclength phi, in
        closed form; s leaving the interval anywhere between 0 and t raises
        DomainError.

        The geodesic runs at its speed q, to arclength q t, in the surface
        ds^2 + f(s)^2 dphi^2 of curvature k = k_ref.  At unit speed, with
        Clairaut's c = f^2 phi' and U = int f ds from s0, U' = f s' and f^2 =
        f0^2 + 2 f0' U - k U^2, so U'' = f0' - k U, and U = U'(0) S + f0' V
        for C, S, V of k at the arclength (_k_functions).  Then s = s0 + 2
        atan_k(U / (f0 + f)), the velocity (s', c / f) is (U', c) / f, and
        phi' = c / f^2 integrates to tan_I(phi) = c S / (f0^2 C + f0' U'(0) S)
        (_atan_k) for the warp's invariant I.  When k > 0 the geodesic winds
        about the fiber, and sqrt(I) phi is the angle within pi of sign(c)
        sqrt(k) times the arclength.  s is extreme at t or where U' = 0, so it
        is checked there."""
        eta = v[..., 1:]
        speed = np.sqrt(np.maximum(self.fiber.inner_at(x[..., 1:], eta, eta), 0.0))[..., None]
        k, inv = self.warp.k_ref, self.warp.invariant
        s0, sdot0 = x[..., 0, None], v[..., 0, None]  # columns against the times
        f0, fp0 = self.warp.value(s0), self.warp.derivative(s0)
        q = np.sqrt(sdot0 * sdot0 + (f0 * speed) ** 2)  # the speed
        unit = np.where(q > 0, q, 1.0)
        alpha, c = f0 * sdot0 / unit, f0 * f0 * speed / unit  # U'(0) and c at unit speed
        arc = q * np.asarray(t, dtype=float)[..., None]
        arcs = np.concatenate((arc, _turning_points(k, alpha, fp0, arc)), axis=-1)
        cos, sin, ver = _k_functions(k, arcs)
        big_u = alpha * sin + fp0 * ver
        f = np.sqrt(np.maximum(f0 * f0 + (2.0 * fp0 - k * big_u) * big_u, 0.0))
        s = s0 + 2.0 * _atan_k(k, big_u, f0 + f)
        self._check_s(s)
        cos, sin, f, s = (a[..., :1] for a in (cos, sin, f, s))  # at t
        phi = _atan_k(inv, c * sin, f0 * f0 * cos + fp0 * alpha * sin)
        if k > 0:
            root, turns = math.sqrt(inv), np.sign(c) * math.sqrt(k) * arc
            phi -= 2.0 * math.pi / root * np.rint((root * phi - turns) / (2.0 * math.pi))
        rate = alpha * cos + fp0 * sin  # U'
        turn = np.arctan2(c * (alpha - rate), alpha * rate + c * c)  # from (alpha, c) to (U', c)
        u = eta / np.where(speed > 0, speed, 1.0)
        return u, *(a[..., 0] for a in (f0, s, f, turn, phi))

    def transport_along_geodesic(self, x, v, t, w):
        """Through Clairaut's integral: the point (s, sigma(phi)) on the fiber
        geodesic sigma of u.  The geodesic stays in the totally geodesic
        surface I x_f sigma.  With w = (a, alpha u + omega), omega
        h-orthogonal to u, (a, f alpha) in the orthonormal pair (d/ds,
        sigma'/f) turns with the velocity, and f omega is parallel for the
        fiber."""
        x, v, w = (np.asarray(a, dtype=float) for a in (x, v, w))
        u, f0, s, f, turn, phi = self._clairaut_flow(x, v, t)
        y0 = x[..., 1:]
        alpha = self.fiber.inner_at(y0, w[..., 1:], u)
        cos, sin = np.cos(turn), np.sin(turn)
        a, b = cos * w[..., 0] - sin * f0 * alpha, sin * w[..., 0] + cos * f0 * alpha
        omega = w[..., 1:] - _col(alpha) * u  # h-orthogonal to u: the fiber transport keeps it
        y, sigma_dot = self.fiber.geodesic_flow(y0, u, phi)
        return _stack(s, y), _stack(a, _col(b / f) * sigma_dot + _col(f0 / f) * omega)

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

    def curvature_derivative_apply(self, x, c, xi):
        """With N = d/ds (frame vector 0) and pi = I - N N^T, R(xi) = k_ref xi
        + (K_f - k_ref) pi xi pi for the fiber-plane curvature K_f.  Along X,
        nabla_X N = rho (X - X_s N) with rho = f'/f, so nabla_X pi = -(h N^T +
        N h^T) for h = nabla_X N, and X(K_f) = 2 rho X_s (k_ref - K_f)."""
        s, c = np.asarray(x)[..., 0], np.asarray(c, dtype=float)
        rho = self.warp.derivative(s) / self.warp.value(s)
        excess = _col(_col(self.fiber_plane_curvature(s) - self.warp.k_ref))
        h = _col(rho) * c
        h[..., 0] = 0.0
        d_pi = np.zeros(h.shape + (self.dim,))
        d_pi[..., 0, :] = -h
        d_pi[..., :, 0] -= h
        pi = np.diag((np.arange(self.dim) > 0).astype(float))
        inner = pi @ xi @ pi
        rate = _col(_col(-2.0 * rho * c[..., 0]))
        return excess * (d_pi @ xi @ pi + pi @ xi @ d_pi + rate * inner)

    def random_point(self, rng, shape=()):
        lo, hi = self.interval
        pad = 0.15 * (hi - lo)  # keep random points off the ends of the interval
        s = rng.uniform(lo + pad, hi - pad, shape)  # all of s, then all fiber points
        return np.concatenate((s[..., None], self.fiber.random_point(rng, shape)), axis=-1)

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
    each) an array of times, at which the manifold's geodesic flow is
    evaluated in closed form: on a warped product I x_f N through Clairaut's
    integral (see Warped._clairaut_flow), so that any time costs the same and
    the point is exactly on the manifold.
    """

    def __init__(self, manifold: SpaceForm, x0, v0, t_max):
        self.manifold = manifold
        self.x0 = np.asarray(x0, dtype=float)
        self.v0 = np.asarray(v0, dtype=float)
        self.t_max = float(t_max)

    def point(self, t):
        return self.flow(t)[0]

    def velocity(self, t):
        return self.flow(t)[1]

    def flow(self, t):
        """(point, velocity) at t."""
        return self.manifold.geodesic_flow(self.x0, self.v0, t)

    def sample_times(self, step):
        return np.linspace(0.0, self.t_max, _steps_for(self.t_max, step) + 1)

    def reversed(self):
        x, v = self.flow(self.t_max)
        return GeodesicPath(self.manifold, x, -v, self.t_max)


class SampledPath:
    """Driving path given by dense samples: the point is the closest point
    of a cubic spline through the ambient coordinates and the velocity its
    derivative (closest_point_rate along the spline's).  Point, velocity and
    flow also take an array of times and return one row per time."""

    def __init__(self, manifold: SpaceForm, times, points):
        self.manifold = manifold
        self.times = np.asarray(times, dtype=float)
        pts = np.asarray(points, dtype=float)
        if self.times.ndim != 1 or len(self.times) < 2:
            raise GeometryError(f"a sampled path needs at least 2 samples, got {self.times.size}")
        if pts.shape != (len(self.times), manifold.amb_dim):
            raise GeometryError(f"each path sample must hold a time and {manifold.amb_dim} "
                                f"ambient coordinates, got points of shape {pts.shape}")
        if not (np.isfinite(self.times).all() and np.isfinite(pts).all()):
            raise GeometryError("path samples must be finite")
        if np.any(np.diff(self.times) <= 0):
            raise GeometryError("path time grid must be strictly increasing")
        if np.any(manifold.point_error(pts) > 1e-8):
            raise GeometryError("path sample lies off the manifold")
        self.points = pts
        self._spline = NotAKnotSpline(self.times, pts)

    @property
    def t_max(self):
        return float(self.times[-1])

    def point(self, t):
        return self.manifold.closest_point(self._spline.value(t))

    def velocity(self, t):
        return self.flow(t)[1]

    def flow(self, t):
        """(point, velocity) at t."""
        y = self._spline.value(t)
        return (self.manifold.closest_point(y),
                self.manifold.closest_point_rate(y, self._spline.derivative(t)))

    def sample_times(self, step):
        return self.times

    def reversed(self):
        return SampledPath(self.manifold, self.times[-1] - self.times[::-1], self.points[::-1])


class NotAKnotSpline:
    """The not-a-knot cubic spline through the rows y[i] at the strictly
    increasing times x[i], and its derivative; both extend the end pieces
    beyond the grid.  Two knots give the line through them and three the
    parabola, for the two not-a-knot conditions of a single interior knot
    coincide.  From four knots on, the slopes at the knots solve the
    tridiagonal system of a C2 cubic whose third derivative is also
    continuous at the second and the second-to-last knot."""

    def __init__(self, x, y):
        self.x = x
        dx = np.diff(x)
        h = dx[:, None]
        slope = np.diff(y, axis=0) / h
        if len(x) <= 3:  # the polynomial through the knots, by its second divided difference
            second = (slope[-1] - slope[0]) / (x[-1] - x[0])
            s = np.concatenate((slope - second * h, slope[-1:] + second * h[-1:]))
        else:
            s = _not_a_knot_slopes(x, dx, slope)
        # the Hermite cubic of each interval in powers of (t - x[i]), highest first
        bend = (s[:-1] + s[1:] - 2 * slope) / h
        self._coeffs = np.stack((bend / h, (slope - s[:-1]) / h - bend, s[:-1], y[:-1]))
        self._dcoeffs = self._coeffs[:-1] * np.array([3.0, 2.0, 1.0])[:, None, None]

    def value(self, t):
        return self._horner(t, self._coeffs)

    def derivative(self, t):
        return self._horner(t, self._dcoeffs)

    def _horner(self, t, coeffs):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, len(self.x) - 2)
        d = (t - self.x[i])[..., None]
        out = coeffs[0][i]
        for c in coeffs[1:]:
            out = out * d + c[i]
        return out


def _not_a_knot_slopes(x, dx, slope):
    """Slopes at four or more knots of the not-a-knot spline with interval
    slopes `slope`: interior rows make the second derivative continuous, the
    first and last rows the third, and the tridiagonal system is solved by
    forward elimination and back substitution (the Thomas algorithm)."""
    h = dx[:, None]
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    lower = [0.0, *dx[1:].tolist(), d1]
    diag = [float(dx[1]), *(2 * (dx[:-1] + dx[1:])).tolist(), float(dx[-2])]
    upper = [d0, *dx[:-1].tolist(), 0.0]
    rhs = np.concatenate((
        ((h[0] + 2 * d0) * h[1] * slope[0] + h[0] ** 2 * slope[1])[None] / d0,
        3 * (h[1:] * slope[:-1] + h[:-1] * slope[1:]),
        (h[-1] ** 2 * slope[-2] + (2 * d1 + h[-1]) * h[-2] * slope[-1])[None] / d1))
    for i in range(1, len(rhs)):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    rhs[-1] /= diag[-1]
    for i in range(len(rhs) - 2, -1, -1):
        rhs[i] = (rhs[i] - upper[i] * rhs[i + 1]) / diag[i]
    return rhs
