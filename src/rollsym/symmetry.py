"""Infinitesimal symmetries of the rolling distribution.

A symmetry candidate is a triple of bundle maps (Z, Z_hat, U_bar): a drift
on each factor plus a vertical part, subject to two first-order equations
that characterize when the associated field preserves the rolling
distribution:

    U_bar(q) X = -A D_X Z + D_X Z_hat                      (drift equation)
    D_X U_bar  = -A R(X ^ Z) + R_hat(AX ^ Z_hat) A         (curvature equation)

with D_X the derivative along rolling curves.  Candidates with Z = 0 form
the base-fixing class (tagged 'sym0'); every Killing field of the second
factor induces one through Z_hat(q) = K_hat at the contact point and
U_bar(q) = (nabla K_hat) A, and the evaluation data (Z_hat(q0), A0^{-1}
U_bar(q0)) of such candidates spans at most n(n+1)/2 dimensions.

All residual checkers evaluate candidates through finite-difference
stencils, so user-supplied closures are tested against the actual
definitions rather than against their own derivative formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson

from .curvature import skew_part, skew_to_vector, so_pairs, wedge_matrix
from .numerics import central_diff, numerical_rank
from .rolling import (
    RollingPair,
    RollingState,
    det_transport_matrix,
    rolling_derivative,
    rolling_lift,
    tangent_curve,
    vertical_derivative,
)
from .curvature import rolling_curvature
from .spaces import Euclidean, GeometryError, Hyperbolic, MismatchError, SpaceForm, Sphere

KIND_TAGS = ("general", "sym0", "inner", "killing-induced")


# -- Killing fields of the catalog manifolds -----------------------------------


class KillingField:
    """Killing field of a constant-curvature catalog manifold, given by a
    linear generator of the ambient isometry group.

    For spheres the generator is skew, for hyperbolic spaces it is skew with
    respect to the Minkowski form, and for Euclidean spaces it splits into a
    skew matrix plus a constant translation part.  The covariant differential
    is the tangential compression of the generator and is skew at every
    point; its second covariant derivative reproduces the curvature term
    R(X ^ K), which is what makes the induced symmetry candidate close.
    """

    def __init__(self, manifold: SpaceForm, generator, translation=None, name=""):
        self.manifold = manifold
        self.generator = None if generator is None else np.asarray(generator, float)
        self.translation = None if translation is None else np.asarray(translation, float)
        self.name = name

    def value(self, x):
        out = np.zeros(self.manifold.amb_dim)
        if self.generator is not None:
            out = out + self.generator @ x
        if self.translation is not None:
            out = out + self.translation
        return self.manifold.project(x, out)

    def nabla_matrix(self, x, frame=None):
        """Matrix of the covariant differential in the deterministic frame
        (built at x unless it is given)."""
        m = self.manifold
        if self.generator is None:
            return np.zeros((m.dim, m.dim))
        fr = m.frame(x) if frame is None else frame
        return m.inner_at(x, fr[:, None], m.project(x, fr @ self.generator.T))


def killing_catalog(manifold: SpaceForm):
    """The full Killing algebra of a constant-curvature catalog manifold:
    exactly n(n+1)/2 fields."""
    if not isinstance(manifold, (Euclidean, Sphere, Hyperbolic)):
        raise MismatchError(
            "the Killing catalog covers constant-curvature manifolds only; "
            f"got kind {manifold.kind!r}"
        )
    n, amb = manifold.dim, manifold.amb_dim
    fields = []
    if isinstance(manifold, Euclidean):
        fields = [KillingField(manifold, None, np.eye(n)[k], name=f"translation-{k}")
                  for k in range(n)]
    # ambient rotations, and on the hyperboloid boosts in the planes (0, j)
    for i, j in so_pairs(amb):
        boost = isinstance(manifold, Hyperbolic) and i == 0
        gen = np.zeros((amb, amb))
        gen[i, j] = 1.0 if boost else -1.0
        gen[j, i] = 1.0
        name = f"boost-{j}" if boost else f"rotation-{i}{j}"
        fields.append(KillingField(manifold, gen, name=name))
    return fields


def standard_contact_field(manifold: SpaceForm) -> KillingField:
    """The standard contact (characteristic) field of an odd-dimensional
    unit sphere: x -> J x for the block rotation J pairing consecutive
    ambient coordinates.

    This is the constant-curvature instance of the contact-geometry example
    of an inner symmetry: rolling the unit sphere on itself, the lift of
    this unit field preserves the rolling distribution.  The general
    contact-geometry version (non-constant curvature) is outside the
    catalog.
    """
    if not isinstance(manifold, Sphere) or manifold.dim % 2 == 0 or manifold.radius != 1.0:
        raise GeometryError("the standard contact field lives on odd-dimensional unit spheres")
    n_amb = manifold.amb_dim
    gen = np.zeros((n_amb, n_amb))
    for k in range(0, n_amb - 1, 2):
        gen[k, k + 1] = -1.0
        gen[k + 1, k] = 1.0
    return KillingField(manifold, gen, name="contact")


def killing_ode_residual(field: KillingField, x, v, h=1e-4, order=4):
    """Residual of the second-order Killing identity
    nabla_v (nabla K) = R(v ^ K) at x, as a frame matrix norm."""
    m = field.manifold

    def sample(t):
        xt, vt = m.geodesic_flow(x, v, t)
        mat = field.nabla_matrix(xt)
        p = det_transport_matrix(m, x, v, t)
        return p.T @ mat @ p

    d = central_diff(sample, h, order)
    a, b = m.frame_coords(x, m.frame(x), np.array([v, field.value(x)]))
    expected = m.curvature_matrix_apply(x, wedge_matrix(a, b))
    return float(np.linalg.norm(d - expected))


# -- symmetry candidates ----------------------------------------------------------


class SymmetryCandidate:
    """Closure triple (Z, Z_hat, U_bar) with a kind tag.

    Z and Z_hat map states to ambient tangent vectors at the respective
    contact points (Z may be None, meaning identically zero); U_bar maps
    states to the deterministic-frame matrix of a map T_x M -> T_xhat Mhat
    with A^{-1} U_bar skew.  Kinds: 'general'; 'sym0' forces Z = 0;
    'killing-induced' is the sym0 subclass built from a Killing field;
    'inner' forces Z_hat = A Z and U_bar = 0.
    """

    def __init__(self, pair: RollingPair, kind, Z=None, Z_hat=None, U_bar=None, name=""):
        if kind not in KIND_TAGS:
            raise GeometryError(f"unknown candidate kind {kind!r}")
        self.pair = pair
        self.kind = kind
        self._Z = Z
        self._Z_hat = Z_hat
        self._U_bar = U_bar
        self.name = name

    def Z(self, q):
        if self._Z is None or self.kind in ("sym0", "killing-induced"):
            return np.zeros(self.pair.space.amb_dim)
        return np.asarray(self._Z(q), float)

    def Z_hat(self, q):
        if self.kind == "inner":
            return q.apply(self.Z(q))
        if self._Z_hat is None:
            return np.zeros(self.pair.space_hat.amb_dim)
        return np.asarray(self._Z_hat(q), float)

    def U_bar(self, q):
        n = self.pair.dim
        if self.kind == "inner" or self._U_bar is None:
            return np.zeros((n, n))
        return np.asarray(self._U_bar(q), float)

    def is_base_fixing(self):
        return self.kind in ("sym0", "killing-induced")

    def validate(self, q, tol=1e-10):
        """Check the structural invariant A^{-1} U_bar in so(n) at a state;
        returns the skewness residual, raising when it exceeds tol."""
        pulled = q.isometry.T @ self.U_bar(q)
        skew_res = float(np.abs(pulled + pulled.T).max())
        if not skew_res <= tol:
            raise GeometryError(f"A^-1 U_bar is not skew (residual {skew_res:.3e})")
        return skew_res


def killing_to_symmetry(pair: RollingPair, field: KillingField) -> SymmetryCandidate:
    """Base-fixing symmetry candidate induced by a Killing field of the
    second factor: Z_hat is the field at the contact point and U_bar its
    covariant differential composed with the contact map."""
    if field.manifold is not pair.space_hat:
        raise MismatchError("Killing field must live on the second factor of the pair")
    return SymmetryCandidate(
        pair,
        "killing-induced",
        Z_hat=lambda q: field.value(q.x_hat),
        U_bar=lambda q: field.nabla_matrix(q.x_hat, q.frame_hat) @ q.isometry,
        name=f"killing({field.name})",
    )


def perturb_candidate(cand: SymmetryCandidate, eps, rng) -> SymmetryCandidate:
    """Add a fixed random skew perturbation of size eps to U_bar; used to
    check that the residual operations reject near-symmetries."""
    n = cand.pair.dim
    noise = skew_part(rng.standard_normal((n, n)))
    noise = noise / max(np.abs(noise).max(), 1e-300) * eps

    return SymmetryCandidate(
        cand.pair,
        cand.kind,
        Z=cand._Z,
        Z_hat=cand._Z_hat,
        U_bar=lambda q: cand.U_bar(q) + q.isometry @ noise,
        name=cand.name + f"+skew({eps:g})",
    )


# -- residual operations ------------------------------------------------------------


def symmetry_residual(cand: SymmetryCandidate, q: RollingState, X, h=1e-4):
    """Residual pair of the two symmetry equations at (q, X), with the
    rolling derivatives evaluated by stencils."""
    pair = q.pair
    X = np.asarray(X, float)
    d_zhat = rolling_derivative(lambda s: cand.Z_hat(s), q, X, "vector_hat", h=h)
    u_x = q.from_coords_hat(cand.U_bar(q) @ q.coords(X))
    if cand.is_base_fixing():
        r1_vec = u_x - d_zhat
    else:
        d_z = rolling_derivative(lambda s: cand.Z(s), q, X, "vector", h=h)
        r1_vec = u_x + q.apply(d_z) - d_zhat
    # off-tangent round-off can make a Minkowski norm negative
    r1_vec = pair.space_hat.project(q.x_hat, r1_vec)
    r1 = math.sqrt(pair.space_hat.inner_at(q.x_hat, r1_vec, r1_vec))

    d_u = rolling_derivative(lambda s: cand.U_bar(s), q, X, "map", h=h)
    a = q.isometry
    r_term = np.zeros((pair.dim, pair.dim))
    if not cand.is_base_fixing():
        z = cand.Z(q)
        r_term = a @ pair.space.curvature_matrix_apply(
            q.x, wedge_matrix(q.coords(X), q.coords(z))
        )
    zh = cand.Z_hat(q)
    rh_term = pair.space_hat.curvature_matrix_apply(
        q.x_hat, wedge_matrix(q.coords_hat(q.apply(X)), q.coords_hat(zh))
    ) @ a
    r2 = float(np.linalg.norm(d_u + r_term - rh_term))
    return r1, r2


def sym0_residual(cand: SymmetryCandidate, q: RollingState, X, h=1e-4):
    """Residuals of the base-fixing characterization (the Z terms dropped)."""
    if not cand.is_base_fixing():
        raise GeometryError("sym0 residual requires a base-fixing candidate")
    return symmetry_residual(cand, q, X, h=h)


def inner_symmetry_residual(Z, q: RollingState) -> float:
    """Largest rolling-curvature norm over frame planes through Z(q):
    max_i || Rol_q(E_i ^ Z) ||.  Zero certifies the inner-symmetry
    hypothesis at q."""
    zc = q.coords(Z(q) if callable(Z) else np.asarray(Z, float))
    return max(float(np.linalg.norm(rolling_curvature(q, wedge_matrix(e, zc))))
               for e in np.eye(q.pair.dim))


def vertical_compatibility_residual(cand: SymmetryCandidate, q: RollingState, X, Y,
                                    h=1e-5) -> float:
    """Residual of the fiber-derivative compatibility along the rolling
    curvature direction of the plane (X, Y):

        A . (d_fiber Z) = d_fiber Z_hat   along  nu(Rol_q(X ^ Y)).
    """
    pair = q.pair
    xi = wedge_matrix(q.coords(np.asarray(X, float)), q.coords(np.asarray(Y, float)))
    b = rolling_curvature(q, xi)
    c = skew_part(q.isometry.T @ b)
    if np.abs(c).max() < 1e-14:
        return 0.0
    d_z = vertical_derivative(lambda s: cand.Z(s), q, c, "vector", h=h)
    d_zhat = vertical_derivative(lambda s: cand.Z_hat(s), q, c, "vector_hat", h=h)
    diff = pair.space_hat.project(q.x_hat, q.apply(d_z) - d_zhat)
    return math.sqrt(pair.space_hat.inner_at(q.x_hat, diff, diff))


# -- propagation along rolling curves ---------------------------------------------


@dataclass
class PropagationResult:
    times: np.ndarray
    states: list
    Z_hat: list
    U_bar: list

    def final(self):
        return self.states[-1], self.Z_hat[-1], self.U_bar[-1]


def propagate_sym0(q1: RollingState, X, Z_hat_0, U_bar_0, t_grid) -> PropagationResult:
    """Propagate base-fixing symmetry data along the rolling curve driven by
    the geodesic through (x1, X).

    The drift value follows the geodesic-variation equation on the second
    factor (integrated by RK4 in a parallel frame, see _jacobi_steps) and the
    vertical part follows its transport-integral formula, evaluated with
    composite Simpson quadrature on the supplied grid.
    """
    mh, n = q1.pair.space_hat, q1.pair.dim
    t_grid = np.asarray(t_grid, float)
    if t_grid[0] != 0.0 or np.any(np.diff(t_grid) <= 0):
        raise GeometryError("time grid must start at 0 and increase")
    X = np.asarray(X, float)
    v_hat, fr1_hat = q1.apply(X), q1.frame_hat

    eta0 = mh.inner_at(q1.x_hat, np.asarray(Z_hat_0, float), fr1_hat)
    deta0 = np.asarray(U_bar_0, float) @ q1.coords(X)

    steps, counts = _jacobi_steps(mh, q1.x_hat, v_hat, fr1_hat, t_grid)
    etas = [np.concatenate((eta0, deta0))]
    for block in np.split(steps, np.cumsum(counts)[:-1]):
        y = etas[-1]
        for step in block:
            y = step @ y
        etas.append(y)

    # each state keeps the frame-transport matrices (p, p_hat) from q1: the
    # parallel frame along the development is p_hat.T in its deterministic frame
    states = [tangent_curve(q1, rolling_lift(q1, X), t) for t in t_grid]
    v_c = q1.isometry @ q1.coords(X)
    z_hats = []
    integrand = []
    for st, y in zip(states, etas):
        p_hat = st.transports[1]
        eta = p_hat @ y[:n]
        z_hats.append(st.from_coords_hat(eta))
        r_mat = mh.curvature_matrix_apply(st.x_hat, wedge_matrix(p_hat @ v_c, eta))
        integrand.append(p_hat.T @ r_mat @ p_hat)

    integrand = np.array(integrand)
    if len(t_grid) > 1:
        integral = cumulative_simpson(integrand, x=t_grid, axis=0, initial=0.0)
    else:
        integral = np.zeros_like(integrand)

    u1 = np.asarray(U_bar_0, float)
    u_bars = [st.transports[1] @ (u1 + i @ q1.isometry) @ st.transports[0].T
              for st, i in zip(states, integral)]
    return PropagationResult(t_grid, states, z_hats, u_bars)


JACOBI_STEP = 1e-3  # longest RK4 substep of the geodesic-variation equation


def _jacobi_steps(mh, x, v, fr, t_grid):
    """RK4 step matrices of the geodesic-variation equation along the
    geodesic of (x, v), (eta, eta')' = (eta', M(t) eta) with eta the
    coordinates in the parallel frame started at fr, and the number of steps
    in each grid interval (substeps of at most JACOBI_STEP, at least two).

    M(t) eta is the parallel-frame form of R(gamma' ^ eta) gamma'.  It is
    linear in eta, so M is built at every stage time of every step in one
    pass of broadcast geometry, and an RK4 step is one matrix:
    I + h/6 (K1 + 2 K2 + 2 K3 + K4) with K1 = L(t), K2 = L(t + h/2)(I + h/2 K1),
    K3 = L(t + h/2)(I + h/2 K2), K4 = L(t + h)(I + h K3) for the generator L
    of the first-order system."""
    n = len(fr)
    spans = np.diff(t_grid)
    counts = np.maximum(2, np.ceil(spans / JACOBI_STEP).astype(int))
    h = np.repeat(spans / counts, counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    start = np.repeat(t_grid[:-1], counts) + (np.arange(len(h)) - first) * h
    ts = (start[:, None] + h[:, None] * np.array([0.0, 0.5, 1.0])).ravel()
    xt, vt = mh.geodesic_flow(x, v, ts)
    frt = mh.transport_along_geodesic(x, v, ts[:, None], fr)
    det = mh.frames(xt)
    # a: the velocity in the deterministic frame; t_mat[k, l] = <det_k, frt_l>
    a = mh.inner_at(xt[:, None], vt[:, None], det)
    t_mat = mh.inner_at(xt[:, None, None], det[:, :, None], frt[:, None])
    r_cols = mh.curvature_matrix_apply(xt[:, None], wedge_matrix(a[:, None], np.eye(n)))
    r_mat = np.swapaxes((r_cols @ a[:, None, :, None])[..., 0], 1, 2)
    gen = np.zeros((len(ts), 2 * n, 2 * n))
    gen[:, :n, n:] = np.eye(n)
    gen[:, n:, :n] = np.swapaxes(t_mat, 1, 2) @ r_mat @ t_mat
    l1, l2, l3 = np.moveaxis(gen.reshape(len(h), 3, 2 * n, 2 * n), 1, 0)
    eye, h = np.eye(2 * n), h[:, None, None]
    k2 = l2 @ (eye + h / 2 * l1)
    k3 = l2 @ (eye + h / 2 * k2)
    k4 = l3 @ (eye + h * k3)
    return eye + h / 6 * (l1 + 2 * k2 + 2 * k3 + k4), counts


def propagate_chain(q0: RollingState, segments, Z_hat_0, U_bar_0, samples_per_segment=48):
    """Propagate along a broken-geodesic chain; each segment is (X, length).
    Returns the final state and data."""
    q = q0
    z, u = np.asarray(Z_hat_0, float), np.asarray(U_bar_0, float)
    for X, length in segments:
        grid = np.linspace(0.0, length, samples_per_segment + 1)
        res = propagate_sym0(q, X, z, u, grid)
        q, z, u = res.final()
    return q, z, u


# -- dimension probe -------------------------------------------------------------------


@dataclass
class DimensionReport:
    rank: int
    singular_values: np.ndarray
    gap: float
    tol: float

    def to_json(self):
        return {
            "rank": self.rank,
            "singular_values": self.singular_values.tolist(),
            "gap": None if math.isinf(self.gap) else self.gap,
            "tol": self.tol,
        }


def sym0_dimension_probe(q0: RollingState, candidates, tol=1e-8) -> DimensionReport:
    """Numerical rank of the evaluation data (Z_hat(q0), A0^{-1} U_bar(q0))
    over a list of base-fixing candidates.  The data determines the
    candidate along the reachable set, so the rank bounds the dimension of
    the base-fixing symmetry space; the full Killing catalog realizes
    n(n+1)/2.  The rows form one layer of numerics.numerical_rank's rule, so
    the singular values are those of the rows over the longest one."""
    rows = []
    for cand in candidates:
        if not cand.is_base_fixing():
            raise GeometryError("dimension probe requires base-fixing candidates")
        zh = q0.coords_hat(cand.Z_hat(q0))
        u = skew_part(q0.isometry.T @ cand.U_bar(q0))
        rows.append(np.concatenate((zh, skew_to_vector(u))))
    return DimensionReport(*numerical_rank(np.array(rows), tol, layers=[len(rows)]), tol)
