"""Infinitesimal symmetries of the rolling distribution.

A symmetry candidate is a triple of bundle maps (Z, Z_hat, U_bar): a drift
on each factor plus a vertical part, subject to two first-order equations
that characterize when the associated field preserves the rolling
distribution:

    U_bar(q) X = -A D_X Z + D_X Z_hat                      (drift equation)
    D_X U_bar  = -A R(X ^ Z) + R_hat(AX ^ Z_hat) A         (curvature equation)

with D_X the derivative along rolling curves.  A candidate is three closures
that map a state to stacks, one row per candidate (SymmetryCandidate), and
the residuals always use these general equations.  Candidates with Z = 0
form the base-fixing class; every Killing field of the second factor
induces one through Z_hat(q) = K_hat at the contact point and
U_bar(q) = (nabla K_hat) A, and the evaluation data (Z_hat(q0), A0^{-1}
U_bar(q0)) of such candidates spans at most n(n+1)/2 dimensions.

All residual checkers evaluate candidates through finite-difference
stencils, so user-supplied closures are tested against the actual
definitions rather than against their own derivative formulas.  Killing
fields and candidates come in stacks, and a checker takes a whole list of
samples: it builds the stencil states of every sample in one canonical-curve
call, evaluates the whole stack on them and returns one residual per sample
and candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curvature import skew_part, skew_to_vector, so_pairs, wedge_matrix
from .numerics import numerical_rank
from .rolling import (
    RollingPair,
    RollingState,
    rolling_derivative,
    rolling_lift,
    tangent_curve,
    vertical_derivative,
)
from .curvature import rolling_curvature
from .spaces import Euclidean, GeometryError, Hyperbolic, MismatchError, SpaceForm, Sphere

U_BAR_SKEW_TOL = 1e-10  # largest skewness residual of A^{-1} U_bar that validate accepts
CHAIN_SAMPLES = 48  # grid intervals per segment of propagate_chain


# -- Killing fields of the catalog manifolds -----------------------------------


class KillingField:
    """A stack of k Killing fields of a constant-curvature catalog manifold,
    each given by a linear generator of the ambient isometry group plus a
    constant translation part: generators (k, amb, amb), translations (k, amb)
    and one name per field.

    For spheres the generator is skew, for hyperbolic spaces it is skew with
    respect to the Minkowski form, and for Euclidean spaces a field is a
    skew matrix or a translation.  The covariant differential is the
    tangential compression of the generator and is skew at every point; its
    second covariant derivative reproduces the curvature term R(X ^ K), which
    is what makes the induced symmetry candidate close.  Indexing returns a
    sub-stack (an integer gives a stack of one), so iteration yields the
    stacks of one in order.
    """

    def __init__(self, manifold: SpaceForm, generators, translations, names):
        self.manifold = manifold
        self.generators = np.asarray(generators, float)
        self.translations = np.asarray(translations, float)
        self.names = list(names)

    def __len__(self):
        return len(self.names)

    def __getitem__(self, index):
        rows = np.atleast_1d(np.arange(len(self))[index])
        return KillingField(self.manifold, self.generators[rows], self.translations[rows],
                            [self.names[i] for i in rows])

    def value(self, x):
        """The fields at x, a (k, amb) array."""
        return self.manifold.project(x, self.generators @ x + self.translations)

    def nabla_matrix(self, x, frame):
        """Matrices of the covariant differentials in the deterministic frame
        at x, a (k, n, n) array: entry (i, j) is <E_i, nabla_{E_j} K>."""
        m = self.manifold
        images = m.project(x, frame @ self.generators.mT)  # (k, n, amb): K's generator on E_j
        return m.inner_at(x, frame[:, None], images[:, None])


def killing_catalog(manifold: SpaceForm) -> KillingField:
    """The full Killing algebra of a constant-curvature catalog manifold, as
    one stack of exactly n(n+1)/2 fields."""
    if not isinstance(manifold, (Euclidean, Sphere, Hyperbolic)):
        raise MismatchError(
            "the Killing catalog covers constant-curvature manifolds only; "
            f"got kind {manifold.kind!r}"
        )
    n, amb = manifold.dim, manifold.amb_dim
    pairs = so_pairs(amb)
    shift = n if isinstance(manifold, Euclidean) else 0
    gens = np.zeros((shift + len(pairs), amb, amb))
    trans = np.zeros((shift + len(pairs), amb))
    names = []
    if shift:
        trans[:n] = np.eye(n)
        names = [f"translation-{k}" for k in range(n)]
    # ambient rotations, and on the hyperboloid boosts in the planes (0, j)
    for k, (i, j) in enumerate(pairs, start=shift):
        boost = isinstance(manifold, Hyperbolic) and i == 0
        gens[k, i, j] = 1.0 if boost else -1.0
        gens[k, j, i] = 1.0
        names.append(f"boost-{j}" if boost else f"rotation-{i}{j}")
    return KillingField(manifold, gens, trans, names)


def standard_contact_field(manifold: SpaceForm) -> KillingField:
    """The standard contact (characteristic) field of an odd-dimensional
    unit sphere, as a stack of one: x -> J x for the block rotation J pairing
    consecutive ambient coordinates.

    This is the constant-curvature instance of the contact-geometry example
    of an inner symmetry: rolling the unit sphere on itself, the lift of
    this unit field preserves the rolling distribution.  The general
    contact-geometry version (non-constant curvature) is outside the
    catalog.
    """
    if not isinstance(manifold, Sphere) or manifold.dim % 2 == 0 or manifold.radius != 1.0:
        raise GeometryError("the standard contact field lives on odd-dimensional unit spheres")
    n_amb = manifold.amb_dim
    gen = np.zeros((1, n_amb, n_amb))
    for k in range(0, n_amb - 1, 2):
        gen[0, k, k + 1] = -1.0
        gen[0, k + 1, k] = 1.0
    return KillingField(manifold, gen, np.zeros((1, n_amb)), ["contact"])


# -- symmetry candidates ----------------------------------------------------------


@dataclass
class SymmetryCandidate:
    """A stack of k closure triples (Z, Z_hat, U_bar), with one name per
    candidate.  Every closure maps a state to a stack: Z and Z_hat give
    ambient tangent vectors at the respective contact points, (k, amb)
    arrays, and U_bar the deterministic-frame matrices of maps
    T_x M -> T_xhat Mhat with A^{-1} U_bar skew, a (k, n, n) array.  A
    candidate is base-fixing where Z is zero."""

    pair: RollingPair
    Z: Callable[[RollingState], np.ndarray]
    Z_hat: Callable[[RollingState], np.ndarray]
    U_bar: Callable[[RollingState], np.ndarray]
    names: list

    def __len__(self):
        return len(self.names)

    def validate(self, q):
        """U_bar at q, after checking the structural invariant A^{-1} U_bar
        in so(n) for every candidate: raises when the largest skewness
        residual exceeds U_BAR_SKEW_TOL."""
        u_bar = self.U_bar(q)
        pulled = q.isometry.T @ u_bar
        skew_res = float(np.abs(pulled + pulled.mT).max())
        if not skew_res <= U_BAR_SKEW_TOL:
            raise GeometryError(f"A^-1 U_bar is not skew (residual {skew_res:.3e})")
        return u_bar


def killing_to_symmetry(pair: RollingPair, field: KillingField) -> SymmetryCandidate:
    """Base-fixing symmetry candidates induced by a stack of Killing fields
    of the second factor: Z_hat is each field at the contact point and U_bar
    its covariant differential composed with the contact map."""
    if field.manifold is not pair.space_hat:
        raise MismatchError("Killing field must live on the second factor of the pair")
    return SymmetryCandidate(
        pair,
        Z=lambda q: np.zeros((len(field), pair.space.amb_dim)),
        Z_hat=lambda q: field.value(q.x_hat),
        U_bar=lambda q: field.nabla_matrix(q.x_hat, q.frame_hat) @ q.isometry,
        names=[f"killing({name})" for name in field.names],
    )


def perturb_candidate(cand: SymmetryCandidate, eps, rng) -> SymmetryCandidate:
    """Add a fixed random skew perturbation of size eps to each U_bar of the
    stack, one normal (n, n) draw per candidate in stack order; used to check
    that the residual operations reject near-symmetries."""
    n = cand.pair.dim
    noise = skew_part(rng.standard_normal((len(cand), n, n)))
    noise = noise / np.maximum(np.abs(noise).max(axis=(1, 2), keepdims=True), 1e-300) * eps

    return SymmetryCandidate(
        cand.pair,
        Z=cand.Z,
        Z_hat=cand.Z_hat,
        U_bar=lambda q: cand.U_bar(q) + q.isometry @ noise,
        names=[name + f"+skew({eps:g})" for name in cand.names],
    )


# -- residual operations ------------------------------------------------------------


def _norm_hat(q: RollingState, vecs):
    """Norms of ambient vectors at x_hat after projecting them to the tangent
    space: off-tangent round-off could make a Minkowski norm negative."""
    mh = q.pair.space_hat
    vecs = mh.project(q.x_hat, vecs)
    return np.sqrt(mh.inner_at(q.x_hat, vecs, vecs))


def symmetry_residual(cand: SymmetryCandidate, qs, Xs):
    """Residuals (r1, r2) of the two symmetry equations at every sample
    (qs[i], Xs[i]), two (samples, candidates) arrays, by stencils whose
    states every candidate shares and one tangent_curve call builds for all
    samples.  U_bar(q) comes from SymmetryCandidate.validate, which raises on
    a candidate that is not skew there."""
    Xs = np.asarray(Xs, float)
    derivatives = rolling_derivative(lambda s: (cand.Z_hat(s), cand.U_bar(s), cand.Z(s)),
                                     qs, Xs, ("vector_hat", "map", "vector"))
    r1, r2 = zip(*(_residuals_at(cand, q, X, *d) for q, X, d in zip(qs, Xs, derivatives)))
    return np.array(r1), np.array(r2)


def _residuals_at(cand, q, X, d_zhat, d_u, d_z):
    """symmetry_residual at one sample, from the rolling derivatives there."""
    pair = q.pair
    u_bar = cand.validate(q)
    u_x = q.from_coords_hat(u_bar @ q.coords(X))
    r1 = _norm_hat(q, u_x + q.apply(d_z) - d_zhat)

    a = q.isometry
    r_term = a @ pair.space.curvature_matrix_apply(
        q.x, wedge_matrix(q.coords(X), q.coords(cand.Z(q))))
    rh_term = pair.space_hat.curvature_matrix_apply(
        q.x_hat, wedge_matrix(q.coords_hat(q.apply(X)), q.coords_hat(cand.Z_hat(q)))
    ) @ a
    r2 = np.linalg.norm(d_u + r_term - rh_term, axis=(-2, -1))
    return r1, r2


def inner_symmetry_residual(Z, q: RollingState) -> float:
    """Largest rolling-curvature norm over frame planes through Z(q):
    max_i || Rol_q(E_i ^ Z) ||.  Zero certifies the inner-symmetry
    hypothesis at q."""
    zc = q.coords(Z(q) if callable(Z) else np.asarray(Z, float))
    return max(float(np.linalg.norm(rolling_curvature(q, wedge_matrix(e, zc))))
               for e in np.eye(q.pair.dim))


def vertical_compatibility_residual(cand: SymmetryCandidate, qs, Xs, Ys):
    """Residuals of the fiber-derivative compatibility along the rolling
    curvature direction of the plane (Xs[i], Ys[i]) at every sample qs[i], a
    (samples, candidates) array:

        A . (d_fiber Z) = d_fiber Z_hat   along  nu(Rol_q(X ^ Y)).

    The rolling curvature and the fiber direction do not depend on the
    candidate, so they are built once for the stack, and the fiber states of
    all samples come from one tangent_curve call."""
    cs = [skew_part(q.isometry.T @ rolling_curvature(q, wedge_matrix(q.coords(X), q.coords(Y))))
          for q, X, Y in zip(qs, np.asarray(Xs, float), np.asarray(Ys, float))]
    live = [i for i, c in enumerate(cs) if np.abs(c).max() >= 1e-14]  # zero there otherwise
    derivatives = vertical_derivative(lambda s: (cand.Z(s), cand.Z_hat(s)), [qs[i] for i in live],
                                      [cs[i] for i in live], ("vector", "vector_hat"))
    out = np.zeros((len(qs), len(cand)))
    for i, (d_z, d_zhat) in zip(live, derivatives):
        out[i] = _norm_hat(qs[i], qs[i].apply(d_z) - d_zhat)
    return out


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
    xi = rolling_lift(q1, X)
    states = tangent_curve([q1] * len(t_grid), xi.X, xi.X_hat, xi.C, t_grid)
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
        from scipy.integrate import cumulative_simpson

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


def propagate_chain(q0: RollingState, segments, Z_hat_0, U_bar_0):
    """Propagate along a broken-geodesic chain; each segment is (X, length),
    on a grid of CHAIN_SAMPLES intervals.  Returns the final state and data."""
    q = q0
    z, u = np.asarray(Z_hat_0, float), np.asarray(U_bar_0, float)
    for X, length in segments:
        grid = np.linspace(0.0, length, CHAIN_SAMPLES + 1)
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


def sym0_dimension_probe(q0: RollingState, cand: SymmetryCandidate, tol=1e-8) -> DimensionReport:
    """Numerical rank of the evaluation data (Z_hat(q0), A0^{-1} U_bar(q0))
    over a stack of base-fixing candidates, one row per candidate.  The data
    determines the candidate along the reachable set, so the rank bounds the
    dimension of the base-fixing symmetry space; the full Killing catalog
    realizes n(n+1)/2.  The rows form one layer of numerics.numerical_rank's
    rule, so the singular values are those of the rows over the longest one."""
    if np.any(cand.Z(q0)):
        raise GeometryError("dimension probe requires base-fixing candidates (Z = 0)")
    zh = q0.coords_hat(cand.Z_hat(q0))
    u = skew_part(q0.isometry.T @ cand.U_bar(q0))
    rows = np.concatenate((zh, skew_to_vector(u)), axis=1)
    return DimensionReport(*numerical_rank(rows, tol, layers=[len(rows)]), tol)
