"""Infinitesimal symmetries of the rolling distribution.

A symmetry candidate V = (Z, Z_hat, U_bar) is a drift on each factor plus a
vertical part U_bar = A C with C skew, and it is a symmetry exactly when
[V, D] lies in D.  Modulo D the bracket is tensorial in the generators, so
the drift and vertical blocks of [V, L_X] for the rolling lifts L_X at q
are the two equations

    U_bar(q) X = -A D_X Z + D_X Z_hat                      (drift equation)
    D_X U_bar  = -A R(X ^ Z) + R_hat(AX ^ Z_hat) A         (curvature equation)

with D_X the derivative along rolling curves, and symmetry_residual reads
them off bracket_structured, with no stencil.  A candidate
(SymmetryCandidate) is a brackets.StructuredField of one tangent row per
field, (Z, Z_hat, C) in frame and so(n) coordinates (see rolling), with its
names.  Candidates with Z = 0 form the base-fixing class; every
Killing field of the second factor induces one through Z_hat(q) = K_hat at
the contact point and C = A^T (nabla K_hat) A, and the rows (Z_hat(q0),
C(q0)) of such candidates span at most n(n+1)/2 dimensions.  Their
derivatives are closed forms from the ambient formula of nabla K_hat, not
from the Killing identity, so the residuals still test them against the
curvature.  Fields, candidates and samples come in stacks, and a checker
returns one residual per sample and candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brackets import FieldData, StructuredField, bracket_structured, rolling_generators
from .curvature import (rolling_curvature, skew_part, skew_to_vector, so_dim, so_pairs,
                        vector_to_skew, wedge_matrix)
from .errors import GeometryError, MismatchError
from .numerics import RANK_TOL, equilibrate, numerical_rank
from .rolling import RollingPair, RollingState, expm, q_dim, rolling_lift, tangent_curve
from .spaces import NORM_FLOOR, ConstantCurvature, Euclidean, Hyperbolic, SpaceForm, Sphere


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
        """The fields at the points x (..., amb), a (..., k, amb) array."""
        x = np.asarray(x, float)[..., None, :]  # against the fields
        images = (self.generators @ x[..., None])[..., 0]
        return self.manifold.project(x, images + self.translations)

    def nabla_matrix(self, x, frame, v=None):
        """Matrices of the covariant differentials nabla K in the
        deterministic frames at the points x (..., amb), a (..., k, n, n)
        array: entry (i, j) is <E_i, nabla_{E_j} K> = <E_i, P G E_j> for the
        generator G and the tangential projection P, which is <E_i, G E_j>
        since E_i is tangent.  Given the frame coordinates v (..., m, n) of
        directions, it returns nabla K with the matrices of nabla_v (nabla K),
        (..., m, k, n, n).  Both come from one product (E; x) W G (E; x)^T for
        the metric weights W, the latter by the ambient formula: a parallel Y
        moves by its normal part -K <Y, v> x (transport_rhs), and P G Y by the
        derivative of the projection P, -K <x, G Y> v in tangent directions,
        so (nabla_v nabla K) Y = -K <x, G Y> v - K <Y, v> P G x, zero on R^n."""
        x = np.asarray(x, float)
        ext = np.concatenate((frame, x[..., None, :]), axis=-2)[..., None, :, :]  # E, then x
        weighted = ext * self.manifold.metric_weights(x)[..., None, None, :]
        p = weighted @ self.generators @ ext.mT  # against the fields
        if v is None:
            return p[..., :-1, :-1]
        p_v = p[..., None, :, :, :]  # against the directions
        g, h = p_v[..., :-1, -1:], p_v[..., -1:, :-1]  # <E_i, G x>, <x, G E_j>
        v = v[..., :, None, :]  # against the fields
        return p[..., :-1, :-1], -self.manifold.curvature_constant * (v[..., :, None] * h
                                                                     + g * v[..., None, :])


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
class SymmetryCandidate(StructuredField):
    """A stack of k vector fields on the state space, a
    brackets.StructuredField whose rows hold Z, Z_hat and C = A^{-1} U_bar,
    with one name per field; base-fixing where Z is zero."""

    names: list

    def __len__(self):
        return len(self.names)


def killing_to_symmetry(pair: RollingPair, field: KillingField, spin=None) -> SymmetryCandidate:
    """Base-fixing symmetry candidates induced by a stack of Killing fields
    of the second factor: the rows (0, K_hat, A^T (nabla K_spin) A), spin the
    stack itself unless perturb_candidate passes another.  Along a row (X,
    X_hat, C), T_hat moves by (nabla K_hat) X_hat, and U = (nabla K_spin) A
    by (nabla_{X_hat} nabla K_spin) A + (nabla K_spin) A C."""
    if field.manifold is not pair.space_hat:
        raise MismatchError("Killing field must live on the second factor of the pair")
    spin = field if spin is None else spin
    n = pair.dim

    def value(q):
        a = q.expand(q.isometry, q.isometry.ndim + 1)
        c = a.mT @ spin.nabla_matrix(q.x_hat, q.frame_hat) @ a
        return np.concatenate((np.zeros(c.shape[:-1]), q.coords_hat(field.value(q.x_hat)),
                               skew_to_vector(c)), axis=-1)

    def derivative(q, xi):  # axes (m, k) after the stack axes: directions, then fields
        nabla, d_nabla = spin.nabla_matrix(q.x_hat, q.frame_hat, xi[..., n : 2 * n])
        # the drift's own nabla K; each nabla K goes against the directions
        nabla_t = nabla if spin is field else field.nabla_matrix(q.x_hat, q.frame_hat)
        d_t_hat = (nabla_t[..., None, :, :, :] @ xi[..., :, None, n : 2 * n, None])[..., 0]
        a, c = q.expand(q.isometry, d_nabla.ndim), vector_to_skew(xi[..., :, None, 2 * n :], n)
        d_u = d_nabla @ a + nabla[..., None, :, :, :] @ a @ c
        return FieldData(np.zeros_like(d_t_hat), d_t_hat, d_u)

    return SymmetryCandidate(value, derivative, [f"killing({name})" for name in field.names])


def perturb_candidate(pair: RollingPair, field: KillingField, eps, rng) -> SymmetryCandidate:
    """killing_to_symmetry(pair, field) with the vertical part of G + B: one
    W-skew ambient B per field in stack order, the skew part of a normal
    (amb, amb) draw scaled to the largest entry eps, its rows times the
    metric weights W; used to check that the residuals reject
    near-symmetries."""
    m = field.manifold
    noise = skew_part(rng.standard_normal((len(field), m.amb_dim, m.amb_dim)))
    noise = noise / np.maximum(np.abs(noise).max(axis=(1, 2), keepdims=True), NORM_FLOOR) * eps
    spin = KillingField(m, field.generators + m.signature[:, None] * noise, field.translations,
                        field.names)
    cand = killing_to_symmetry(pair, field, spin)
    cand.names = [name + f"+skew({eps:g})" for name in cand.names]
    return cand


# -- residual operations ------------------------------------------------------------


def symmetry_residual(cand: SymmetryCandidate, q, X):
    """Residuals (r1, r2) of the two symmetry equations at every sample
    (q[i], X[i]) of the stack q, two (samples, candidates) arrays: the drift
    block |T_hat - A T| and the Frobenius norm of the vertical block of
    [V, L_X] = sum_j c_j [V, L_j], one bracket_structured row per candidate
    for the lift L_X = sum_j c_j L_j of the rolling generators, with c the
    coordinates of X in the generator frame held constant.  Residuals that
    are not finite raise: those of rows that are not finite, or overflow."""
    n = q.pair.dim
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows is refused below
        coeffs = (q.anchored @ q.coords(np.asarray(X, float))[..., None])[..., 0]
        rows = bracket_structured(cand, _combination(rolling_generators(), coeffs), q)
        r1 = np.linalg.norm(rows[..., n : 2 * n] - rows[..., :n] @ q.isometry.mT, axis=-1)
        r2 = np.linalg.norm(vector_to_skew(rows[..., 2 * n :], n), axis=(-2, -1))
    if not np.isfinite(r1 + r2).all():
        raise GeometryError("candidate residuals are not finite")
    return r1, r2


def _combination(field: StructuredField, c) -> StructuredField:
    """The one field sum_j c_j F_j of a stack of k fields F_j, for constant
    coefficients c (*q.shape, k): its rows and its derivatives are the same
    sums of theirs."""
    weights = c[..., None, None, :]  # against the axes (m, k) of a derivative

    def along(a):  # axes (m, k, *rest) after the stack axes, summed over k
        flat = a.reshape(a.shape[: weights.ndim - 1] + (-1,))
        return (weights @ flat).reshape(flat.shape[:-2] + (1,) + a.shape[weights.ndim - 1 :])

    def derivative(q, xi):
        d = field.derivative(q, xi)
        return FieldData(along(d.T), along(d.T_hat), along(d.U))

    return StructuredField(lambda q: weights[..., 0, :, :] @ field.value(q), derivative)


def inner_symmetry_residual(Z, q: RollingState) -> float:
    """Largest rolling-curvature norm over frame planes through the tangent
    vector Z at x, max_i || Rol_q(E_i ^ Z) ||.  Zero certifies the
    inner-symmetry hypothesis at q."""
    zc = q.coords(np.asarray(Z, float))
    planes = wedge_matrix(np.eye(q.pair.dim), zc)
    return float(np.linalg.norm(rolling_curvature(q, planes), axis=(-2, -1)).max())


def vertical_compatibility_residual(cand: SymmetryCandidate, q, X, Y):
    """Residuals of the fiber-derivative compatibility along the rolling
    curvature direction of the plane (X[i], Y[i]) at every sample q[i] of
    the stack q, a (samples, candidates) array:

        A . (d_fiber Z) = d_fiber Z_hat   along  nu(Rol_q(X ^ Y)),

    from the candidates' derivatives along the fiber rows (0, 0,
    skew(A^T Rol_q(X ^ Y))).  Residuals that are not finite raise."""
    n, a = q.pair.dim, q.isometry
    rol = rolling_curvature(q, wedge_matrix(q.coords(X), q.coords(Y)))
    c = skew_to_vector(skew_part(a.mT @ rol))
    fiber = np.concatenate((np.zeros(c.shape[:-1] + (2 * n,)), c), axis=-1)[..., None, :]
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows is refused below
        d = cand.derivative(q, fiber)
        r = np.linalg.norm(d.T @ a[..., None, :, :].mT - d.T_hat, axis=-1)[..., 0, :]
    if not np.isfinite(r).all():
        raise GeometryError("candidate residuals are not finite")
    return r


# -- propagation along rolling curves ---------------------------------------------


@dataclass
class PropagationResult:
    states: RollingState
    rows: np.ndarray

    def final(self):
        return self.states[-1], self.rows[-1]


def propagate_sym0(q1: RollingState, X, row0, t_grid) -> PropagationResult:
    """Propagate base-fixing symmetry data, the tangent row row0 at q1 with a
    zero Z block, along the rolling curve driven by the geodesic through
    (x1, X), returning its tangent row at every grid time.

    The drift value eta follows the geodesic-variation equation on the second
    factor, and the vertical part the transport integral I of an integrand
    linear in eta, so (eta, eta', I) is one linear system in a parallel frame.
    On a space form its generator is constant (see _jacobi_generator), and
    the rows at the grid times are exact: one matrix exponential each.  A
    second factor that is not a space form raises MismatchError.
    """
    n, mh = q1.pair.dim, q1.pair.space_hat
    if not isinstance(mh, ConstantCurvature):
        raise MismatchError("propagation covers constant-curvature second factors only; "
                            f"got kind {mh.kind!r}")
    t_grid = np.asarray(t_grid, float)
    if t_grid[0] != 0.0 or np.any(np.diff(t_grid) <= 0):
        raise GeometryError("time grid must start at 0 and increase")
    row0 = np.asarray(row0, float)
    if np.any(row0[:n]):
        raise GeometryError("propagation requires base-fixing data (Z = 0)")
    X, a1, c1 = np.asarray(X, float), q1.isometry, vector_to_skew(row0[2 * n:], n)
    y = np.concatenate((row0[n : 2 * n], a1 @ c1 @ q1.coords(X), np.zeros(so_dim(n))))
    ys = expm(t_grid[:, None, None] * _jacobi_generator(q1, X)) @ y

    # each state keeps the frame-transport matrices (p, p_hat) from q1: the
    # parallel frame along the development is p_hat.T in its deterministic
    # frame, and A = p_hat A1 p^T, so that C = A^T U_bar for
    # U_bar = p_hat (A1 C1 + skew(I) A1) p^T; a row is as wide as (eta, eta', I)
    states = tangent_curve(q1, rolling_lift(q1, X), t_grid)
    p, p_hat = states.transports
    rows = np.zeros_like(ys)
    rows[:, n : 2 * n] = (ys[:, None, :n] @ p_hat.mT)[:, 0]
    rows[:, 2 * n :] = skew_to_vector(p @ (c1 + a1.T @ vector_to_skew(ys[:, 2 * n :], n) @ a1)
                                      @ p.mT)
    return PropagationResult(states, rows)


def _jacobi_generator(q1, X):
    """The generator L of the geodesic-variation equation along the geodesic
    of (x_hat, A X) on the second factor together with the transport integral
    of the vertical part, (eta, eta', I)' = L (eta, eta', I) = (eta', M eta,
    N eta), with eta the coordinates in the parallel frame (E_l) started at
    the deterministic frame of q1.

    With N_l = R(gamma' ^ E_l) in that frame, M eta is the parallel-frame
    form of R(gamma' ^ eta) gamma', with columns N_l v for the constant
    parallel-frame velocity v, and N eta = sum_l eta_l N_l in so(n)
    coordinates.  The curvature of a space form is the same in every
    orthonormal frame, so L is its value at q1."""
    mh, n = q1.pair.space_hat, q1.pair.dim
    v_c = q1.isometry @ q1.coords(X)
    curv = mh.curvature_matrix_apply(q1.x_hat, wedge_matrix(v_c, np.eye(n)))
    gen = np.zeros((q_dim(n), q_dim(n)))
    gen[:n, n : 2 * n] = np.eye(n)
    gen[n : 2 * n, :n] = (curv @ v_c).T
    gen[2 * n :, :n] = skew_to_vector(curv).T
    return gen


# -- dimension probe -------------------------------------------------------------------


@dataclass
class DimensionReport:
    rank: int
    singular_values: np.ndarray
    gap: float
    tol: float


def sym0_dimension_probe(q: RollingState, cand: StructuredField, tol=RANK_TOL) -> DimensionReport:
    """Numerical rank of the evaluation data (Z_hat(q0), A0^{-1} U_bar(q0))
    over a stack of base-fixing candidates at the state q0, the first of the
    state or stack q, one row per candidate: their tangent rows at q0 without
    the Z block, read off cand.value(q), so a candidate kept at q
    (brackets.kept_at) is not evaluated again.  The data determines the
    candidate along the reachable set, so the rank bounds the dimension of
    the base-fixing symmetry space; the full Killing catalog realizes
    n(n+1)/2.  The rows form one layer of numerics.equilibrate's rule, so
    the singular values are those of the rows over the longest one.  Rows
    that are not finite raise."""
    values = cand.value(q)[(0,) * len(q.shape)]
    if not np.isfinite(values).all():
        raise GeometryError("candidate rows are not finite")
    z, rows = np.split(values, [q.pair.dim], axis=-1)
    if np.any(z):
        raise GeometryError("dimension probe requires base-fixing candidates (Z = 0)")
    return DimensionReport(*numerical_rank(equilibrate(rows), tol), tol)
